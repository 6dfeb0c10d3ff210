//! Figure 12: speedup (top) and normalized EDP (bottom) of the five software
//! schedulers combined with TDM, plus the best software configuration
//! (OptSW) and the best TDM configuration (OptTDM), all normalized to the
//! software runtime with a FIFO scheduler.
//!
//! The two scheduler sweeps — 9 benchmarks × 5 schedulers on the software
//! runtime (its own granularity) and the same on TDM (TDM granularity) —
//! are [`SweepGrid`]s executed in parallel across host threads; energy is
//! evaluated from each point's `RunReport` afterwards. Results are
//! bit-identical to the old serial eager harness.

use tdm_bench::sweep::{run_sweep, BackendSpec, SweepGrid, WorkloadSpec};
use tdm_bench::{best, default_threads, energy_of, geometric_mean, print_table, ratio, Benchmark};
use tdm_runtime::exec::Backend;
use tdm_runtime::scheduler::SchedulerKind;

fn main() {
    let schedulers = SchedulerKind::all();
    let per_bench = schedulers.len();
    let threads = default_threads(1);

    // Sweep 1: every scheduler on the software runtime at its granularity.
    let sw_backend = Backend::Software;
    let sw_grid = SweepGrid::new()
        .with_workloads(
            Benchmark::ALL
                .iter()
                .map(|&b| WorkloadSpec::software_granularity(b))
                .collect(),
        )
        .with_backends(vec![BackendSpec::from(sw_backend.clone())])
        .with_schedulers(schedulers.clone());
    let sw_results = run_sweep(&sw_grid, threads);

    // Sweep 2: every scheduler on TDM at the TDM granularity.
    let tdm_backend = Backend::tdm_default();
    let tdm_grid = SweepGrid::new()
        .with_workloads(
            Benchmark::ALL
                .iter()
                .map(|&b| WorkloadSpec::tdm_granularity(b))
                .collect(),
        )
        .with_backends(vec![BackendSpec::from(tdm_backend.clone())])
        .with_schedulers(schedulers.clone());
    let tdm_results = run_sweep(&tdm_grid, threads);

    let mut speedup_rows = Vec::new();
    let mut edp_rows = Vec::new();
    // Columns: OptSW, FIFO+TDM, LIFO+TDM, Local+TDM, Succ+TDM, Age+TDM, OptTDM.
    let mut speedup_cols: Vec<Vec<f64>> = vec![Vec::new(); 7];
    let mut edp_cols: Vec<Vec<f64>> = vec![Vec::new(); 7];

    for (b, bench) in Benchmark::ALL.iter().enumerate() {
        let sw_chunk = &sw_results[b * per_bench..(b + 1) * per_bench];
        let tdm_chunk = &tdm_results[b * per_bench..(b + 1) * per_bench];
        // Grid order puts FIFO first in each chunk: the normalization base.
        let base_run = &sw_chunk[0];
        let base_energy = energy_of(base_run, &sw_backend);

        let mut speedups = Vec::new();
        let mut edps = Vec::new();

        // OptSW: best scheduler on the software runtime.
        let opt_sw = best(sw_chunk);
        speedups.push(opt_sw.report.speedup_over(&base_run.report));
        edps.push(energy_of(opt_sw, &sw_backend).normalized_edp(&base_energy));

        // Each scheduler with TDM.
        for result in tdm_chunk {
            speedups.push(result.report.speedup_over(&base_run.report));
            edps.push(energy_of(result, &tdm_backend).normalized_edp(&base_energy));
        }

        // OptTDM: best scheduler with TDM.
        let opt_tdm = best(tdm_chunk);
        speedups.push(opt_tdm.report.speedup_over(&base_run.report));
        edps.push(energy_of(opt_tdm, &tdm_backend).normalized_edp(&base_energy));

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

    let header = [
        "bench",
        "OptSW",
        "FIFO+TDM",
        "LIFO+TDM",
        "Local+TDM",
        "Succ+TDM",
        "Age+TDM",
        "OptTDM",
    ];
    print_table(
        "Figure 12 (top): speedup over software runtime with FIFO",
        &header,
        &speedup_rows,
    );
    print_table(
        "Figure 12 (bottom): EDP normalized to software runtime with FIFO",
        &header,
        &edp_rows,
    );
}
