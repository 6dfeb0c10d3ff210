//! Figure 13: speedup and normalized EDP of Carbon, Task Superscalar and TDM
//! (with the best scheduler per benchmark) over the software runtime with a
//! FIFO scheduler.
//!
//! Three [`SweepGrid`]s executed in parallel across host threads: the
//! software-granularity benchmarks on the software runtime and Carbon (its
//! runtime overheads match the software baseline), and the TDM-granularity
//! benchmarks on Task Superscalar (FIFO) and TDM (all five schedulers, from
//! which OptTDM picks the best per benchmark). Energy is evaluated from
//! each point's `RunReport` afterwards. Results are bit-identical to the
//! old serial eager harness.

use tdm_bench::sweep::{run_sweep, BackendSpec, SweepGrid, WorkloadSpec};
use tdm_bench::{best, default_threads, energy_of, geometric_mean, print_table, ratio, Benchmark};
use tdm_runtime::exec::Backend;
use tdm_runtime::scheduler::SchedulerKind;

fn main() {
    let threads = default_threads(1);
    let sw_workloads = || {
        Benchmark::ALL
            .iter()
            .map(|&b| WorkloadSpec::software_granularity(b))
            .collect()
    };
    let tdm_workloads = || {
        Benchmark::ALL
            .iter()
            .map(|&b| WorkloadSpec::tdm_granularity(b))
            .collect()
    };

    // Sweep 1: software granularity on the software runtime and Carbon
    // (hardware FIFO queues, software dependence tracking), FIFO.
    let sw_backend = Backend::Software;
    let carbon_backend = Backend::Carbon;
    let sw_grid = SweepGrid::new()
        .with_workloads(sw_workloads())
        .with_backends(vec![
            BackendSpec::from(sw_backend.clone()),
            BackendSpec::from(carbon_backend.clone()),
        ])
        .with_schedulers(vec![SchedulerKind::Fifo]);
    let sw_results = run_sweep(&sw_grid, threads);

    // Sweep 2: Task Superscalar — everything in hardware, fixed FIFO; it
    // benefits from the same reduced overheads as TDM, so it uses the
    // TDM-optimal granularity.
    let tss_backend = Backend::task_superscalar_default();
    let tss_grid = SweepGrid::new()
        .with_workloads(tdm_workloads())
        .with_backends(vec![BackendSpec::from(tss_backend.clone())])
        .with_schedulers(vec![SchedulerKind::Fifo]);
    let tss_results = run_sweep(&tss_grid, threads);

    // Sweep 3: TDM under every scheduler; OptTDM is the best per benchmark.
    let tdm_backend = Backend::tdm_default();
    let schedulers = SchedulerKind::all();
    let per_bench = schedulers.len();
    let tdm_grid = SweepGrid::new()
        .with_workloads(tdm_workloads())
        .with_backends(vec![BackendSpec::from(tdm_backend.clone())])
        .with_schedulers(schedulers);
    let tdm_results = run_sweep(&tdm_grid, threads);

    let mut speedup_rows = Vec::new();
    let mut edp_rows = Vec::new();
    let mut speedup_cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut edp_cols: Vec<Vec<f64>> = vec![Vec::new(); 3];

    for (b, bench) in Benchmark::ALL.iter().enumerate() {
        // Grid order per benchmark: [Software FIFO, Carbon FIFO].
        let base_run = &sw_results[b * 2];
        let carbon_run = &sw_results[b * 2 + 1];
        let tss_run = &tss_results[b];
        let tdm_chunk = &tdm_results[b * per_bench..(b + 1) * per_bench];
        let opt_tdm = best(tdm_chunk);

        let base_energy = energy_of(base_run, &sw_backend);
        let speedups = [
            carbon_run.report.speedup_over(&base_run.report),
            tss_run.report.speedup_over(&base_run.report),
            opt_tdm.report.speedup_over(&base_run.report),
        ];
        let edps = [
            energy_of(carbon_run, &carbon_backend).normalized_edp(&base_energy),
            energy_of(tss_run, &tss_backend).normalized_edp(&base_energy),
            energy_of(opt_tdm, &tdm_backend).normalized_edp(&base_energy),
        ];
        for (col, &v) in speedups.iter().enumerate() {
            speedup_cols[col].push(v);
        }
        for (col, &v) in edps.iter().enumerate() {
            edp_cols[col].push(v);
        }
        let mut sp_row = vec![bench.abbrev().to_string()];
        sp_row.extend(speedups.iter().map(|&v| ratio(v)));
        speedup_rows.push(sp_row);
        let mut edp_row = vec![bench.abbrev().to_string()];
        edp_row.extend(edps.iter().map(|&v| ratio(v)));
        edp_rows.push(edp_row);
    }

    let mut avg_sp = vec!["AVG".to_string()];
    avg_sp.extend(speedup_cols.iter().map(|c| ratio(geometric_mean(c))));
    speedup_rows.push(avg_sp);
    let mut avg_edp = vec!["AVG".to_string()];
    avg_edp.extend(edp_cols.iter().map(|c| ratio(geometric_mean(c))));
    edp_rows.push(avg_edp);

    let header = ["bench", "Carbon", "Task Superscalar", "OptTDM"];
    print_table(
        "Figure 13 (top): speedup over software runtime with FIFO",
        &header,
        &speedup_rows,
    );
    print_table(
        "Figure 13 (bottom): EDP normalized to software runtime with FIFO",
        &header,
        &edp_rows,
    );
}
