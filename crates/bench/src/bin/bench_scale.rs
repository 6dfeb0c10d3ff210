//! Scaled streaming-execution harness: million-task runs through the
//! windowed master, plus the Table II eager-vs-streaming equivalence gate.
//!
//! ```text
//! bench_scale run    [--tasks N] [--window W] [--bench NAME] [--backend B]
//!                    [--checkpoint-every CYCLES] [--checkpoint-file PATH] [--halt-after K]
//!                    [--fault-rate P] [--retry-budget R]
//! bench_scale smoke  [--tasks N] [--window W] [...]  # CI: small run, asserts bounds
//! bench_scale verify                                 # CI: Table II, 36 cells, bit-identical
//! bench_scale resume [--checkpoint-file PATH] [--verify]
//! ```
//!
//! * `run` drives each selected benchmark's scaled-up lazy generator
//!   ([`Benchmark::scaled_stream`]) through [`simulate_stream`] with a
//!   finite window (default 4096) and reports simulated tasks/sec and the
//!   peak number of resident `TaskSpec`s — which stays bounded by the
//!   window no matter how many tasks stream through. The default is a
//!   ≥1,000,000-task run per benchmark.
//! * `smoke` is the small CI variant (default 50,000 tasks, window 256): it
//!   fails (nonzero exit) if any run loses tasks or exceeds the resident
//!   bound.
//! * `verify` replays the full Table II benchmark × backend matrix twice —
//!   eager `simulate` over the collected workload vs `simulate_stream` over
//!   the lazy generator — and fails on any difference in makespan, task
//!   count or DMU access totals. This is the 36-cell equivalence gate the
//!   scaled-down conformance tests mirror in debug builds.
//! * `--checkpoint-every CYCLES` makes `run`/`smoke` write a binary snapshot
//!   (see `SNAPSHOT_FORMAT.md`) to `--checkpoint-file` at each interval of
//!   simulated time; `--halt-after K` stops the run at the K-th checkpoint,
//!   leaving the snapshot on disk as the resume point.
//! * `resume` reads the snapshot back, rebuilds the scaled generator from
//!   the BENCH section, fast-forwards it to the stored cursor and drives the
//!   run to completion. With `--verify` it also replays the same run
//!   uninterrupted and fails unless the two reports are bit-identical —
//!   the CI checkpoint smoke uses exactly this.
//! * `--fault-rate P` injects deterministic transient task failures with
//!   probability `P` per attempt (see `tdm_runtime::fault`); `--retry-budget
//!   R` bounds re-issues per task (default 3). The fault configuration is
//!   persisted in the BENCH section, so `resume` rebuilds the identical
//!   fault schedule without re-passing the flags. A run (or resumed run)
//!   that exhausts a retry budget prints the aborted task and exits 1.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use tdm_bench::cli::{self, Args};
use tdm_bench::standard_config;
use tdm_runtime::exec::{
    resume_stream_outcome, simulate, simulate_stream, simulate_stream_checkpointed_outcome,
    Backend, ExecConfig, RunOutcome, RunReport,
};
use tdm_runtime::fault::FaultConfig;
use tdm_runtime::scheduler::SchedulerKind;
use tdm_sim::clock::Cycle;
use tdm_sim::snapshot::{section, Persist, Reader, Snapshot};
use tdm_workloads::Benchmark;

/// Default task target for `run`: the million-task milestone.
const DEFAULT_RUN_TASKS: usize = 1_000_000;
/// Default task target for `smoke`: big enough to exercise windows and
/// scaled generators, small enough for a CI job step.
const DEFAULT_SMOKE_TASKS: usize = 50_000;
/// Default creation window for `run` (double the DMU's 2048 in-flight
/// tasks, so hardware backends are DMU-limited before window-limited).
const DEFAULT_RUN_WINDOW: usize = 4096;
/// Default creation window for `smoke`: deliberately tight.
const DEFAULT_SMOKE_WINDOW: usize = 256;

/// Default snapshot path when checkpointing is requested without
/// `--checkpoint-file`.
const DEFAULT_CHECKPOINT_FILE: &str = "bench_scale.snap";

struct Options {
    tasks: usize,
    window: usize,
    bench: Option<Benchmark>,
    backend: Backend,
    checkpoint_every: Option<u64>,
    checkpoint_file: String,
    halt_after: Option<usize>,
    fault: Option<FaultConfig>,
}

fn parse_options(args: &[String], tasks: usize, window: usize) -> Result<Options, String> {
    let mut options = Options {
        tasks,
        window,
        bench: None,
        backend: Backend::tdm_default(),
        checkpoint_every: None,
        checkpoint_file: DEFAULT_CHECKPOINT_FILE.to_string(),
        halt_after: None,
        fault: None,
    };
    let mut fault_rate: Option<f64> = None;
    let mut retry_budget: Option<u32> = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--tasks" => {
                options.tasks = cli::parse_count("--tasks", &args.value("--tasks")?, "")?;
            }
            "--window" => {
                options.window = cli::parse_count(
                    "--window",
                    &args.value("--window")?,
                    " (the master needs one in-flight task; ExecConfig documents that a \
                     window of 0 behaves as 1)",
                )?;
            }
            "--bench" => {
                options.bench = Some(cli::parse_benchmark(&args.value("--bench")?)?);
            }
            "--backend" => {
                options.backend = cli::parse_backend(&args.value("--backend")?)?;
            }
            "--checkpoint-every" => {
                options.checkpoint_every = Some(cli::parse_count(
                    "--checkpoint-every",
                    &args.value("--checkpoint-every")?,
                    " cycle",
                )? as u64);
            }
            "--checkpoint-file" => {
                options.checkpoint_file = args.value("--checkpoint-file")?;
            }
            "--halt-after" => {
                options.halt_after = Some(cli::parse_count(
                    "--halt-after",
                    &args.value("--halt-after")?,
                    " checkpoint",
                )?);
            }
            "--fault-rate" => {
                fault_rate = Some(cli::parse_rate(
                    "--fault-rate",
                    &args.value("--fault-rate")?,
                )?);
            }
            "--retry-budget" => {
                retry_budget = Some(
                    cli::parse_count("--retry-budget", &args.value("--retry-budget")?, " retry")?
                        .min(u32::MAX as usize) as u32,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if options.halt_after.is_some() && options.checkpoint_every.is_none() {
        return Err("--halt-after needs --checkpoint-every".to_string());
    }
    if retry_budget.is_some() && fault_rate.is_none() {
        return Err("--retry-budget needs --fault-rate".to_string());
    }
    if let Some(rate) = fault_rate {
        let mut fault = FaultConfig::default().with_fault_rate(rate);
        if let Some(budget) = retry_budget {
            fault = fault.with_retry_budget(budget);
        }
        options.fault = Some(fault);
    }
    Ok(options)
}

fn selected(options: &Options) -> Vec<Benchmark> {
    match options.bench {
        Some(b) => vec![b],
        None => Benchmark::ALL.to_vec(),
    }
}

/// Serialises the BENCH section: what `resume` needs to rebuild the scaled
/// generator and the matching configuration (the rest of the run state is in
/// the driver-written sections).
fn bench_section(bench: Benchmark, options: &Options) -> Vec<u8> {
    let mut out = Vec::new();
    bench.name().to_string().save(&mut out);
    options.tasks.save(&mut out);
    options.window.save(&mut out);
    options.fault.save(&mut out);
    out
}

/// The completed run's report, or the abort as an error naming the task
/// that exhausted its retry budget.
fn completed(outcome: RunOutcome) -> Result<RunReport, String> {
    match outcome {
        RunOutcome::Completed(report) => Ok(report),
        RunOutcome::Aborted { task, attempts, .. } => Err(format!(
            "run aborted: {task} exhausted its retry budget after {attempts} failed attempts"
        )),
    }
}

/// One scaled streaming run; returns `(tasks, peak_resident, tasks_per_sec,
/// makespan, faults, retries)`, or `Ok(None)` when `--halt-after` stopped
/// the run at a checkpoint.
#[allow(clippy::type_complexity)]
fn scaled_run(
    bench: Benchmark,
    options: &Options,
    config: &ExecConfig,
) -> Result<Option<(u64, usize, f64, u64, u64, u64)>, String> {
    let mut stream = bench.scaled_stream(options.tasks);
    let start = Instant::now();
    // Without `--checkpoint-every` the sink is never called.
    let extra = bench_section(bench, options);
    let mut count = 0usize;
    let mut sink_error: Option<String> = None;
    let outcome = simulate_stream_checkpointed_outcome(
        &mut stream,
        &options.backend,
        SchedulerKind::Fifo,
        config,
        &mut |mut snap| {
            count += 1;
            snap.add_section(section::BENCH, extra.clone());
            if let Err(e) = snap.write_to(Path::new(&options.checkpoint_file)) {
                sink_error = Some(e.to_string());
                return false;
            }
            match options.halt_after {
                Some(k) => count < k,
                None => true,
            }
        },
    );
    if let Some(e) = sink_error {
        return Err(e);
    }
    let Some(outcome) = outcome else {
        println!(
            "halted {} at checkpoint {count}; resume with: bench_scale resume \
             --checkpoint-file {}",
            bench.name(),
            options.checkpoint_file
        );
        return Ok(None);
    };
    let report = completed(outcome)?;
    let wall = start.elapsed().as_secs_f64();
    Ok(Some((
        report.tasks,
        report.peak_resident_tasks,
        report.tasks as f64 / wall.max(1e-9),
        report.makespan().raw(),
        report.faults_injected,
        report.retries,
    )))
}

fn run_or_smoke(options: &Options) -> ExitCode {
    // `parse_options` rejected window 0, so no clamp is needed here.
    let config = ExecConfig {
        window: options.window,
        checkpoint_every: options.checkpoint_every.map(Cycle::new),
        fault: options.fault.clone(),
        ..standard_config()
    };
    println!(
        "streaming {} tasks/benchmark through a window of {} on {} ({} cores)\n",
        options.tasks,
        config.window,
        options.backend.name(),
        config.chip.num_cores
    );
    println!(
        "| {:<14} | {:>9} | {:>13} | {:>16} | {:>12} |",
        "Benchmark", "Tasks", "Peak resident", "Makespan cycles", "Tasks/sec"
    );
    println!("|{}|", "-".repeat(78));
    let mut failures = 0;
    let mut total_faults = 0u64;
    let mut total_retries = 0u64;
    for bench in selected(options) {
        let (tasks, peak, throughput, makespan, faults, retries) =
            match scaled_run(bench, options, &config) {
                Ok(Some(outcome)) => outcome,
                // Halted at a checkpoint on request: the snapshot on disk is
                // the deliverable, not a completed run.
                Ok(None) => continue,
                Err(message) => {
                    eprintln!("FAIL {}: {message}", bench.name());
                    failures += 1;
                    continue;
                }
            };
        total_faults += faults;
        total_retries += retries;
        println!(
            "| {:<14} | {:>9} | {:>13} | {:>16} | {:>12.0} |",
            bench.name(),
            tasks,
            peak,
            makespan,
            throughput
        );
        if tasks < options.tasks as u64 {
            eprintln!(
                "FAIL {}: executed {tasks} tasks, expected at least {}",
                bench.name(),
                options.tasks
            );
            failures += 1;
        }
        // Window + 1 prefetched spec: the documented residency bound.
        if peak > config.window + 1 {
            eprintln!(
                "FAIL {}: {peak} specs resident exceeds window bound {}",
                bench.name(),
                config.window + 1
            );
            failures += 1;
        }
    }
    if let Some(fault) = &options.fault {
        println!(
            "\nfault injection (rate {}, retry budget {}): {total_faults} faults, \
             {total_retries} retries across all runs",
            fault.fault_rate, fault.retry_budget
        );
        if total_faults != total_retries {
            eprintln!("FAIL: {total_faults} faults but {total_retries} retries — lost work");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("\nall runs stayed within the window bound");
    ExitCode::SUCCESS
}

/// Table II equivalence: every benchmark × backend cell, eager vs streaming,
/// must agree bit-for-bit on the modeled metrics.
fn verify() -> ExitCode {
    let config = standard_config();
    let mut failures = 0;
    println!(
        "| {:<14} | {:<15} | {:>7} | {:>16} | {:>12} | {:<9} |",
        "Benchmark", "Backend", "Tasks", "Makespan cycles", "DMU accesses", "Streaming"
    );
    println!("|{}|", "-".repeat(92));
    for bench in Benchmark::ALL {
        for backend in tdm_bench::baseline::matrix_backends() {
            // The paper's methodology: hardware dependence tracking uses the
            // TDM-optimal granularity, the software runtimes their own.
            let hardware_granularity =
                matches!(backend, Backend::Tdm(_) | Backend::TaskSuperscalar(_));
            let workload = if hardware_granularity {
                bench.tdm_workload()
            } else {
                bench.software_workload()
            };
            let eager = simulate(&workload, &backend, SchedulerKind::Fifo, &config);
            let mut stream = if hardware_granularity {
                bench.tdm_stream()
            } else {
                bench.software_stream()
            };
            let streamed = simulate_stream(&mut stream, &backend, SchedulerKind::Fifo, &config);
            let accesses =
                |r: &RunReport| r.hardware.as_ref().map_or(0, |hw| hw.stats.total_accesses);
            let identical = eager.makespan() == streamed.makespan()
                && eager.tasks == streamed.tasks
                && eager.stats == streamed.stats
                && accesses(&eager) == accesses(&streamed);
            println!(
                "| {:<14} | {:<15} | {:>7} | {:>16} | {:>12} | {:<9} |",
                bench.name(),
                backend.name(),
                eager.tasks,
                eager.makespan().raw(),
                accesses(&eager),
                if identical { "identical" } else { "MISMATCH" }
            );
            if !identical {
                eprintln!(
                    "FAIL {} × {}: eager (makespan {}, {} accesses) vs streaming \
                     (makespan {}, {} accesses)",
                    bench.name(),
                    backend.name(),
                    eager.makespan(),
                    accesses(&eager),
                    streamed.makespan(),
                    accesses(&streamed)
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} cell(s) diverged");
        return ExitCode::FAILURE;
    }
    println!("\nall 36 cells bit-identical between eager and streaming execution");
    ExitCode::SUCCESS
}

/// Resumes a halted checkpointed run from its snapshot file and drives it to
/// completion; with `verify_against_straight` it also replays the run
/// uninterrupted and fails unless the two reports are bit-identical.
fn resume_mode(checkpoint_file: &str, verify_against_straight: bool) -> Result<ExitCode, String> {
    let path = Path::new(checkpoint_file);
    let snap = Snapshot::read_from(path).map_err(|e| e.to_string())?;
    let payload = snap.section(section::BENCH).map_err(|e| {
        format!("{e} (was this snapshot written by bench_scale's --checkpoint-every?)")
    })?;
    let mut r = Reader::new(payload);
    let bench_name = String::load(&mut r).map_err(|e| e.to_string())?;
    let tasks = usize::load(&mut r).map_err(|e| e.to_string())?;
    let window = usize::load(&mut r).map_err(|e| e.to_string())?;
    let fault = Option::<FaultConfig>::load(&mut r).map_err(|e| e.to_string())?;
    r.expect_end("BENCH").map_err(|e| e.to_string())?;
    let bench = cli::parse_benchmark(&bench_name)?;

    let config = ExecConfig {
        window,
        fault,
        ..standard_config()
    };
    let mut stream = bench.scaled_stream(tasks);
    let start = Instant::now();
    let outcome = resume_stream_outcome(&mut stream, &snap, &config).map_err(|e| e.to_string())?;
    let report = completed(outcome)?;
    let wall = start.elapsed().as_secs_f64();
    println!(
        "resumed {} from {}: {} tasks total, makespan {} cycles, {:.0} tasks/sec \
         (resumed leg)",
        bench.name(),
        checkpoint_file,
        report.tasks,
        report.makespan().raw(),
        report.tasks as f64 / wall.max(1e-9),
    );
    if !verify_against_straight {
        return Ok(ExitCode::SUCCESS);
    }

    // The resumed run rebuilt its backend from the snapshot's META section;
    // replay the same backend straight through for comparison.
    let backend = cli::parse_backend(&report.backend)?;
    let mut stream = bench.scaled_stream(tasks);
    let straight = simulate_stream(&mut stream, &backend, SchedulerKind::Fifo, &config);
    if report == straight {
        println!("verified: resumed report is bit-identical to the uninterrupted run");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "FAIL: resumed report diverges from the uninterrupted run \
             (makespan {} vs {}, tasks {} vs {})",
            report.makespan(),
            straight.makespan(),
            report.tasks,
            straight.tasks
        );
        Ok(ExitCode::FAILURE)
    }
}

fn parse_resume(args: &[String]) -> Result<(String, bool), String> {
    let mut file = DEFAULT_CHECKPOINT_FILE.to_string();
    let mut verify = false;
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--checkpoint-file" => file = args.value("--checkpoint-file")?,
            "--verify" => verify = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((file, verify))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("run");
    let rest = args.get(1..).unwrap_or(&[]);
    let parsed = match mode {
        "run" => parse_options(rest, DEFAULT_RUN_TASKS, DEFAULT_RUN_WINDOW),
        "smoke" => parse_options(rest, DEFAULT_SMOKE_TASKS, DEFAULT_SMOKE_WINDOW),
        "verify" => {
            if !rest.is_empty() {
                eprintln!("verify takes no flags");
                return ExitCode::FAILURE;
            }
            return verify();
        }
        "resume" => {
            return match parse_resume(rest).and_then(|(file, v)| resume_mode(&file, v)) {
                Ok(code) => code,
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            };
        }
        other => {
            eprintln!(
                "usage: bench_scale [run|smoke|verify|resume] [--tasks N] [--window W] \
                 [--bench NAME] [--backend B] [--checkpoint-every CYCLES] \
                 [--checkpoint-file PATH] [--halt-after K] [--verify]"
            );
            eprintln!("unknown mode {other:?}");
            return ExitCode::FAILURE;
        }
    };
    match parsed {
        Ok(options) => run_or_smoke(&options),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
