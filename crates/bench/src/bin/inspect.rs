//! Debug/inspection harness: run one benchmark on one backend/scheduler and
//! dump the full report (phase breakdown, DMU statistics, stalls).
//!
//! Usage: `inspect [BENCHMARK] [software|tdm|carbon|tss] [fifo|lifo|locality|successor|age]`
//! (defaults: `cholesky tdm fifo`). Names are parsed as by `bench_scale`
//! and `bench_sweep`; a bad name prints the error and the usage line, then
//! exits 2.

use std::process::ExitCode;

use tdm_bench::cli::{parse_backend, parse_benchmark, parse_scheduler};
use tdm_bench::{pct, run};
use tdm_runtime::exec::Backend;
use tdm_sim::stats::Phase;

const USAGE: &str =
    "usage: inspect [BENCHMARK] [software|tdm|carbon|tss] [fifo|lifo|locality|successor|age]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let arg = |i: usize, default: &'static str| args.get(i).map_or(default, String::as_str);
    let parsed = parse_benchmark(arg(1, "cholesky")).and_then(|bench| {
        Ok((
            bench,
            parse_backend(arg(2, "tdm"))?,
            parse_scheduler(arg(3, "fifo"))?,
        ))
    });
    let (bench, backend, scheduler) = match parsed {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let workload = match backend {
        Backend::Software | Backend::Carbon => bench.software_workload(),
        _ => bench.tdm_workload(),
    };
    println!(
        "benchmark={} backend={} scheduler={} tasks={} avg_task_us={:.0}",
        bench.name(),
        backend.name(),
        scheduler.name(),
        workload.len(),
        workload.average_duration().as_f64() / 2000.0
    );
    let report = run(&workload, &backend, scheduler);
    let makespan_ms = report.makespan().as_f64() / 2e6;
    println!("makespan = {makespan_ms:.2} ms");
    let master = report.stats.master_breakdown();
    let workers = report.stats.worker_breakdown();
    for (name, b) in [("master", *master), ("workers", workers)] {
        println!(
            "{name:8} DEPS {:>6} SCHED {:>6} EXEC {:>6} IDLE {:>6}",
            pct(b.fraction(Phase::Deps)),
            pct(b.fraction(Phase::Sched)),
            pct(b.fraction(Phase::Exec)),
            pct(b.fraction(Phase::Idle)),
        );
    }
    if let Some(hw) = &report.hardware {
        println!(
            "DMU: creates={} adds={} finishes={} get_ready={} stalls={} accesses={}",
            hw.stats.creates,
            hw.stats.add_dependences,
            hw.stats.finishes,
            hw.stats.get_readies,
            hw.stats.stalls,
            hw.stats.total_accesses
        );
        println!(
            "DMU peaks: tasks={} deps={} sla={} dla={} rla={} rq={} | stall_cycles={} instrs={}",
            hw.peak.tasks,
            hw.peak.deps,
            hw.peak.successor_la,
            hw.peak.dependence_la,
            hw.peak.reader_la,
            hw.peak.ready_queue,
            hw.stall_cycles.raw(),
            hw.instructions
        );
        println!(
            "DAT avg occupied sets = {:.1}",
            hw.dat_average_occupied_sets
        );
    }
    ExitCode::SUCCESS
}
