//! Compare the five software scheduling policies on two benchmarks with very
//! different characteristics — the flexibility argument of the paper: with
//! TDM the policy is a software choice, so each application can use the one
//! that suits it.
//!
//! Run with: `cargo run --release --example scheduler_comparison`

use tdm::prelude::*;

fn main() {
    let config = ExecConfig::default();
    let backend = Backend::tdm_default();

    for benchmark in [Benchmark::Cholesky, Benchmark::Dedup] {
        let workload = benchmark.tdm_workload();
        println!(
            "\n{} ({} tasks, avg {:.0} µs):",
            benchmark.name(),
            workload.len(),
            workload.average_duration().as_f64() / 2000.0
        );
        let baseline = simulate(&workload, &backend, SchedulerKind::Fifo, &config);
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
            SchedulerKind::Locality,
            SchedulerKind::Successor,
            SchedulerKind::Age,
        ] {
            let report = simulate(&workload, &backend, kind, &config);
            println!(
                "  {:<10} makespan {:>8.2} ms  ({:+.1}% vs FIFO)",
                kind.name(),
                report.makespan().as_f64() / 2e6,
                (report.speedup_over(&baseline) - 1.0) * 100.0
            );
        }
    }
    println!(
        "\nCholesky favours the locality-aware policy (reuse of freshly produced
blocks), while Dedup needs the Successor/Age policies to overlap its
serialized I/O chain with compression work — no single hardware-fixed
policy wins both, which is TDM's case for software scheduling."
    );
}
