//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! tdm-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! tdm-perfbench --emit-fingerprints
//! ```
//!
//! The last line of standard output is the JSON result. The exit code is 0
//! only when every check passed.

use std::process::ExitCode;

use tdm_perfbench::bench::{fingerprints, run};
use tdm_perfbench::check::{render_pins, PINNED_SEED};
use tdm_perfbench::workload::WorkloadKind;

const USAGE: &str = "usage: tdm-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
       tdm-perfbench --emit-fingerprints";

enum Command {
    Run {
        kind: WorkloadKind,
        seed: u64,
        seconds: f64,
        traced: bool,
    },
    EmitFingerprints,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-fingerprints" {
            return Ok(Command::EmitFingerprints);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
                workload = Some(WorkloadKind::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a non-negative number"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let kind = workload.ok_or("--workload is required")?;
    Ok(Command::Run {
        kind,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    // tdm-lint: allow(D2): command-line arguments configure the harness, not the model
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::EmitFingerprints => {
            print!("{}", render_pins(&fingerprints(PINNED_SEED)));
            return ExitCode::SUCCESS;
        }
        Command::Run {
            kind,
            seed,
            seconds,
            traced,
        } => run(kind, seed, seconds, traced),
    };
    match result {
        Ok(outcome) => {
            for problem in outcome.problems.iter().take(20) {
                eprintln!("FAIL {problem}");
            }
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
