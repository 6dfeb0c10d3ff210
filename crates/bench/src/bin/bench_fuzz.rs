//! Differential conformance fuzzer over the adversarial workload grammar.
//!
//! Draws N seeded grammar specs (`tdm_workloads::grammar`), runs every
//! backend × scheduler cell of each on a chip of 1–64 cores drawn from the
//! spec's seed, and checks the full differential contract against the
//! `TaskGraph` golden model:
//!
//! * **validity** — every cell's finish order is a topological order of the
//!   reference graph and a permutation of the workload (no lost or
//!   duplicated task);
//! * **eager ≡ streaming** — the eager and streaming drivers produce
//!   bit-identical `RunReport`s for every cell;
//! * **resume identity** — one rotating cell per case is streamed with
//!   checkpoints at quarter-makespan intervals (every snapshot pushed
//!   through the binary codec) and resumed from each checkpoint on a fresh
//!   generator, with bit-identical outcomes;
//! * **windowed validity** — one rotating cell per case replays through a
//!   tight master window and must still conform and bound residency;
//! * **trace round-trip** — the case dumps to a `tdmtrace v1` file that
//!   re-dumps byte-identically and replays with a bit-identical report;
//! * **fault leg** (`--fault-rate R`, R > 0) — one rotating cell per case
//!   replays under a survivable fault schedule (per-task fault cap below
//!   the retry budget, sticky core faults at `R/8`): the streaming run must
//!   complete, the eager run must match it field for field (with
//!   `peak_resident_tasks` excluded, exactly as in the fault-free driver
//!   identity), the faulted schedule must still pass the golden model with
//!   every fault retried (no lost work), and a streaming resume from every
//!   mid-fault checkpoint (each through the binary codec) must be
//!   bit-identical.
//!
//! A failing case is shrunk by halving its shape list while the failure
//! persists (sound because phases are mutually independent and derive their
//! content from `seed ^ phase`: truncation never perturbs surviving
//! phases), then printed as a replayable reproducer:
//!
//! ```text
//! bench_fuzz run [--cases N] [--seed S] [--case I] [--shapes LIST]
//!                [--fault-rate R] [--retry-budget B]
//!                [--shrink] [--reproducer PATH]
//! ```
//!
//! `--case I` replays one case of a sweep; `--shapes chain:32,storm:64x4`
//! replays an explicit (e.g. shrunken) spec with `--seed` as the content
//! seed. The CI smoke is `run --cases 64 --shrink` with the default fixed
//! base seed, so green is reproducible; `--reproducer` writes the
//! reproducer commands to a file for artifact upload on failure.

use std::process::ExitCode;

use tdm_bench::cli::{self, Args};
use tdm_bench::sweep::point_seed;
use tdm_runtime::exec::{
    resume_stream_outcome, simulate, simulate_stream, simulate_stream_checkpointed_outcome,
    simulate_stream_outcome, Backend, ExecConfig, RunOutcome, RunReport,
};
use tdm_runtime::fault::FaultConfig;
use tdm_runtime::scheduler::SchedulerKind;
use tdm_runtime::task::{TaskRef, Workload};
use tdm_runtime::tdg::TaskGraph;
use tdm_runtime::trace::{self, TraceSource};
use tdm_sim::clock::Cycle;
use tdm_sim::config::ChipConfig;
use tdm_sim::snapshot::Snapshot;
use tdm_workloads::grammar::GrammarSpec;

const USAGE: &str = "usage: bench_fuzz run [--cases N] [--seed S] [--case I] \
    [--shapes chain:32,storm:64x4,...] [--fault-rate R] [--retry-budget B] \
    [--shrink] [--reproducer PATH]";

/// Default number of fuzz cases.
const DEFAULT_CASES: usize = 16;
/// Default base seed: fixed, so CI green is reproducible.
const DEFAULT_SEED: u64 = 42;
/// Tight master window exercised by the windowed-validity check.
const TIGHT_WINDOWS: [usize; 3] = [2, 7, 64];

struct Options {
    cases: usize,
    seed: u64,
    case: Option<usize>,
    shapes: Option<String>,
    fault: Option<FaultConfig>,
    shrink: bool,
    reproducer: Option<String>,
}

impl Options {
    /// The `--fault-rate R [--retry-budget B]` suffix for reproducer
    /// commands, so a replayed failure re-runs the same fault leg.
    fn fault_flags(&self) -> String {
        match &self.fault {
            Some(fault) => format!(
                " --fault-rate {} --retry-budget {}",
                fault.fault_rate, fault.retry_budget
            ),
            None => String::new(),
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        cases: DEFAULT_CASES,
        seed: DEFAULT_SEED,
        case: None,
        shapes: None,
        fault: None,
        shrink: false,
        reproducer: None,
    };
    let mut fault_rate: Option<f64> = None;
    let mut retry_budget: Option<u32> = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--cases" => {
                options.cases = cli::parse_count("--cases", &args.value("--cases")?, " case")?;
            }
            "--seed" => options.seed = cli::parse_u64("--seed", &args.value("--seed")?)?,
            "--case" => {
                let value = args.value("--case")?;
                let index: usize = value.parse().map_err(|e| format!("--case: {e}"))?;
                options.case = Some(index);
            }
            "--shapes" => options.shapes = Some(args.value("--shapes")?),
            "--fault-rate" => {
                fault_rate = Some(cli::parse_rate(
                    "--fault-rate",
                    &args.value("--fault-rate")?,
                )?);
            }
            "--retry-budget" => {
                let n =
                    cli::parse_count("--retry-budget", &args.value("--retry-budget")?, " retry")?;
                retry_budget = Some(u32::try_from(n).unwrap_or(u32::MAX));
            }
            "--shrink" => options.shrink = true,
            "--reproducer" => options.reproducer = Some(args.value("--reproducer")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if retry_budget.is_some() && fault_rate.is_none() {
        return Err("--retry-budget needs --fault-rate".to_string());
    }
    if let Some(rate) = fault_rate {
        if rate > 0.0 {
            // Survivable by construction: the per-task fault cap stays at 2,
            // and the budget is clamped to at least the cap, so no task can
            // exhaust its retries — the fuzz contract checks completed runs.
            let budget = retry_budget
                .unwrap_or(FaultConfig::default().retry_budget)
                .max(2);
            options.fault = Some(
                FaultConfig::default()
                    .with_fault_rate(rate)
                    .with_max_faults_per_task(2)
                    .with_retry_budget(budget)
                    .with_core_fault_rate(rate / 8.0),
            );
        }
    }
    if let Some(index) = options.case {
        if options.shapes.is_some() {
            return Err("--case and --shapes are mutually exclusive".to_string());
        }
        if index >= options.cases {
            options.cases = index + 1;
        }
    }
    Ok(options)
}

/// The core count a case runs on, 1–64, drawn from bits 32–37 of its
/// content seed. The `--seed`/`--case` and `--seed`/`--shapes` reproducers
/// carry the seed, and with it the core count.
fn fuzz_cores(seed: u64) -> usize {
    1 + ((seed >> 32) % 64) as usize
}

/// The execution configuration every check of a case runs under: a chip of
/// `cores` cores (so the driver's event queue holds up to `cores` core
/// events plus any waiting retries), and schedule tracing for the
/// golden-model replay.
fn fuzz_config(cores: usize) -> ExecConfig {
    ExecConfig {
        chip: ChipConfig::with_cores(cores),
        ..ExecConfig::default()
    }
    .with_trace_schedule()
}

fn backends() -> Vec<Backend> {
    vec![
        Backend::Software,
        Backend::tdm_default(),
        Backend::Carbon,
        Backend::task_superscalar_default(),
    ]
}

/// `order` must contain every task exactly once.
fn check_permutation(order: &[TaskRef], n: usize) -> Result<(), String> {
    if order.len() != n {
        return Err(format!("finished {} of {n} tasks", order.len()));
    }
    let mut seen = vec![false; n];
    for task in order {
        if task.index() >= n || seen[task.index()] {
            return Err(format!("task {task} lost, duplicated or out of range"));
        }
        seen[task.index()] = true;
    }
    Ok(())
}

/// Golden-model checks on one report: permutation + topological validity.
fn check_golden(graph: &TaskGraph, report: &RunReport, context: &str) -> Result<(), String> {
    let order = report.finish_order();
    check_permutation(&order, graph.len()).map_err(|e| format!("{context}: {e}"))?;
    if let Err((pred, task)) = graph.check_order(&order) {
        return Err(format!(
            "{context}: task {task} finished before its predecessor {pred}"
        ));
    }
    Ok(())
}

/// A capture interval yielding several checkpoints over the straight run.
fn quarter_interval(straight: &RunReport) -> Cycle {
    Cycle::new((straight.makespan().raw() / 4).max(1))
}

/// Field-wise eager-vs-streaming identity. `peak_resident_tasks` is
/// excluded: it measures the driver's memory footprint (eager materialises
/// the whole workload, streaming only what is in flight), not the schedule.
fn cross_driver_diff(eager: &RunReport, streamed: &RunReport) -> Option<&'static str> {
    if eager.makespan() != streamed.makespan() {
        Some("makespan")
    } else if eager.stats != streamed.stats {
        Some("runtime stats")
    } else if eager.hardware != streamed.hardware {
        Some("hardware report")
    } else if eager.schedule != streamed.schedule {
        Some("schedule trace")
    } else if eager.tasks != streamed.tasks {
        Some("task count")
    } else if (eager.faults_injected, eager.retries, eager.retired_cores)
        != (
            streamed.faults_injected,
            streamed.retries,
            streamed.retired_cores,
        )
    {
        Some("fault counters")
    } else {
        None
    }
}

/// Streams `spec` on one cell with checkpoint capture, pushing every
/// snapshot through the binary codec, then resumes from each snapshot on a
/// freshly built generator. The checkpointed run and every resume must
/// reproduce `straight`. Returns the number of simulations run.
fn check_resume(
    spec: &GrammarSpec,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
    straight: &RunOutcome,
    context: &str,
) -> Result<usize, String> {
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut codec_err: Option<String> = None;
    let checkpointed = simulate_stream_checkpointed_outcome(
        &mut spec.stream(),
        backend,
        scheduler,
        config,
        &mut |snap| match Snapshot::from_bytes(&snap.to_bytes()) {
            Ok(snap) => {
                snaps.push(snap);
                true
            }
            Err(e) => {
                codec_err = Some(e.to_string());
                false
            }
        },
    );
    if let Some(e) = codec_err {
        return Err(format!("{context}: snapshot codec round trip failed: {e}"));
    }
    let checkpointed = checkpointed.ok_or_else(|| format!("{context}: sink halted the run"))?;
    if &checkpointed != straight {
        return Err(format!("{context}: capture perturbed the run"));
    }
    if snaps.is_empty() {
        return Err(format!("{context}: no checkpoints captured"));
    }
    for (i, snap) in snaps.iter().enumerate() {
        let resumed = resume_stream_outcome(&mut spec.stream(), snap, config)
            .map_err(|e| format!("{context}: checkpoint {i}: {e}"))?;
        if &resumed != straight {
            return Err(format!("{context}: resume from checkpoint {i} diverged"));
        }
    }
    Ok(1 + snaps.len())
}

/// Runs the full differential contract on one spec. Returns the number of
/// simulations executed, or the first failure. `fault`, when set, adds the
/// fault leg on the rotating cell.
fn check_case(spec: &GrammarSpec, fault: Option<&FaultConfig>) -> Result<usize, String> {
    let config = fuzz_config(fuzz_cores(spec.seed));
    let workload: Workload = spec.stream().into_workload();
    let graph = TaskGraph::build(&workload);
    let mut sims = 0usize;

    // The rotating cell for the expensive per-case checks (resume, window,
    // trace) — a pure function of the content seed, so a replayed case
    // re-runs exactly the same checks.
    let backends = backends();
    let schedulers = SchedulerKind::all();
    let cell = (spec.seed % (backends.len() * schedulers.len()) as u64) as usize;
    let (cell_backend, cell_scheduler) = (
        &backends[cell / schedulers.len()],
        schedulers[cell % schedulers.len()],
    );

    // Validity + eager≡streaming, every cell.
    for backend in &backends {
        for &scheduler in &schedulers {
            let context = format!("{} with {}", backend.name(), scheduler.name());
            let eager = simulate(&workload, backend, scheduler, &config);
            check_golden(&graph, &eager, &context)?;
            let mut stream = spec.stream();
            let streamed = simulate_stream(&mut stream, backend, scheduler, &config);
            sims += 2;
            if let Some(field) = cross_driver_diff(&eager, &streamed) {
                return Err(format!(
                    "{context}: eager and streaming diverged on {field}"
                ));
            }
        }
    }

    // Resume identity on the rotating cell, streamed from the generator.
    let context = format!(
        "{} with {} (resume)",
        cell_backend.name(),
        cell_scheduler.name()
    );
    let streamed_straight =
        simulate_stream(&mut spec.stream(), cell_backend, cell_scheduler, &config);
    sims += 1;
    let ckpt_config = config
        .clone()
        .with_checkpoint_every(quarter_interval(&streamed_straight));
    sims += check_resume(
        spec,
        cell_backend,
        cell_scheduler,
        &ckpt_config,
        &RunOutcome::Completed(streamed_straight.clone()),
        &context,
    )?;

    // Windowed validity on the rotating cell: a tight master window must
    // still conform and bound residency (identity is not expected — the
    // throttled master changes the timeline).
    let window = TIGHT_WINDOWS[(spec.seed / 16) as usize % TIGHT_WINDOWS.len()];
    let context = format!(
        "{} with {} (window {window})",
        cell_backend.name(),
        cell_scheduler.name()
    );
    let mut stream = spec.stream();
    let windowed = simulate_stream(
        &mut stream,
        cell_backend,
        cell_scheduler,
        &config.clone().with_window(window),
    );
    sims += 1;
    check_golden(&graph, &windowed, &context)?;
    if windowed.peak_resident_tasks > window + 1 {
        return Err(format!(
            "{context}: {} specs resident, window bound is {}",
            windowed.peak_resident_tasks,
            window + 1
        ));
    }

    // Trace round-trip: dump → parse → re-dump byte-identically, and the
    // replay must be bit-identical to streaming the generator.
    let context = format!(
        "{} with {} (trace)",
        cell_backend.name(),
        cell_scheduler.name()
    );
    let text =
        trace::dump(&mut spec.stream()).map_err(|e| format!("{context}: dump failed: {e}"))?;
    let mut replay =
        TraceSource::parse(&text).map_err(|e| format!("{context}: parse failed: {e}"))?;
    let again =
        trace::dump(&mut replay.clone()).map_err(|e| format!("{context}: re-dump failed: {e}"))?;
    if text != again {
        return Err(format!(
            "{context}: dump → parse → dump is not byte-identical"
        ));
    }
    let replayed = simulate_stream(&mut replay, cell_backend, cell_scheduler, &config);
    sims += 1;
    if replayed != streamed_straight {
        return Err(format!(
            "{context}: trace replay diverged from the generator run"
        ));
    }

    // Fault leg on the rotating cell: typed-outcome identity across
    // drivers, golden validity of the faulted schedule, no lost work, and
    // bit-exact resume through mid-fault checkpoints.
    if let Some(fault) = fault {
        let context = format!(
            "{} with {} (faults)",
            cell_backend.name(),
            cell_scheduler.name()
        );
        let fault_config = config.clone().with_faults(fault.clone());
        let streamed = simulate_stream_outcome(
            &mut spec.stream(),
            cell_backend,
            cell_scheduler,
            &fault_config,
        );
        let report = match &streamed {
            RunOutcome::Completed(report) => report,
            RunOutcome::Aborted { task, attempts, .. } => {
                return Err(format!(
                    "{context}: survivable schedule aborted on task {task} \
                     after {attempts} attempts"
                ));
            }
        };
        // The streaming run completed, so the eager run of the same
        // schedule completes too unless the drivers diverge.
        let eager = simulate(&workload, cell_backend, cell_scheduler, &fault_config);
        sims += 2;
        if let Some(field) = cross_driver_diff(&eager, report) {
            return Err(format!(
                "{context}: eager and streaming diverged on {field}"
            ));
        }
        check_golden(&graph, report, &context)?;
        if report.faults_injected != report.retries {
            return Err(format!(
                "{context}: {} faults but {} retries — lost work",
                report.faults_injected, report.retries
            ));
        }

        let ckpt_config = fault_config
            .clone()
            .with_checkpoint_every(quarter_interval(report));
        sims += check_resume(
            spec,
            cell_backend,
            cell_scheduler,
            &ckpt_config,
            &streamed,
            &context,
        )?;
    }

    Ok(sims)
}

/// Shrinks a failing spec by halving its shape list while the failure
/// persists. Truncation is the only sound reduction: phase `p` derives its
/// content from `seed ^ p`, so dropping a *suffix* never perturbs the
/// surviving phases.
fn shrink(mut spec: GrammarSpec, fault: Option<&FaultConfig>) -> GrammarSpec {
    while spec.shapes.len() > 1 {
        let mut candidate = spec.clone();
        candidate
            .shapes
            .truncate(candidate.shapes.len().div_ceil(2));
        if check_case(&candidate, fault).is_err() {
            spec = candidate;
        } else {
            break;
        }
    }
    spec
}

struct Failure {
    message: String,
    reproduce: Vec<String>,
}

fn run(options: &Options) -> Result<(), Failure> {
    let mut total_sims = 0usize;
    let mut total_tasks = 0usize;

    // Explicit shapes: a single case with --seed as the content seed.
    if let Some(shapes) = &options.shapes {
        let spec = GrammarSpec::parse(options.seed, shapes).map_err(|e| Failure {
            message: format!("--shapes: {e}"),
            reproduce: Vec::new(),
        })?;
        println!(
            "case explicit: seed {} shapes {} ({} tasks, {} cores)",
            spec.seed,
            spec.encode(),
            spec.task_count(),
            fuzz_cores(spec.seed)
        );
        return match check_case(&spec, options.fault.as_ref()) {
            Ok(sims) => {
                println!(
                    "fuzz: 1 case, {} tasks, {sims} simulations, all checks passed",
                    spec.task_count()
                );
                Ok(())
            }
            Err(message) => Err(Failure {
                reproduce: vec![format!(
                    "bench_fuzz run --seed {} --shapes {}{}",
                    spec.seed,
                    spec.encode(),
                    options.fault_flags()
                )],
                message: format!("{} cores: {message}", fuzz_cores(spec.seed)),
            }),
        };
    }

    let indices: Vec<usize> = match options.case {
        Some(i) => vec![i],
        None => (0..options.cases).collect(),
    };
    for &index in &indices {
        let content_seed = point_seed(options.seed, index as u64);
        let spec = GrammarSpec::draw(content_seed);
        total_tasks += spec.task_count();
        match check_case(&spec, options.fault.as_ref()) {
            Ok(sims) => {
                total_sims += sims;
                println!(
                    "case {index:3}: grammar-{content_seed} {} ({} tasks, {} cores) OK",
                    spec.encode(),
                    spec.task_count(),
                    fuzz_cores(content_seed)
                );
            }
            Err(message) => {
                let mut reproduce = vec![format!(
                    "bench_fuzz run --seed {} --case {index}{}",
                    options.seed,
                    options.fault_flags()
                )];
                if options.shrink {
                    let small = shrink(spec, options.fault.as_ref());
                    reproduce.push(format!(
                        "bench_fuzz run --seed {} --shapes {}{}",
                        small.seed,
                        small.encode(),
                        options.fault_flags()
                    ));
                }
                return Err(Failure {
                    message: format!(
                        "case {index} (grammar-{content_seed}, {} cores): {message}",
                        fuzz_cores(content_seed)
                    ),
                    reproduce,
                });
            }
        }
    }
    println!(
        "fuzz: {} cases, {total_tasks} tasks, {total_sims} simulations, all checks passed",
        indices.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match raw.split_first() {
        Some((mode, rest)) if mode == "run" => (mode.clone(), rest.to_vec()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    debug_assert_eq!(mode, "run");
    let options = match parse_options(&rest) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("bench_fuzz: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("FAILED: {}", failure.message);
            let mut file_lines = vec![format!("# {}", failure.message)];
            for line in &failure.reproduce {
                eprintln!("  reproduce: {line}");
                file_lines.push(line.clone());
            }
            if let Some(path) = &options.reproducer {
                file_lines.push(String::new());
                if let Err(e) = cli::write_output(path, &file_lines.join("\n")) {
                    eprintln!("bench_fuzz: {e}");
                }
            }
            ExitCode::FAILURE
        }
    }
}
