//! Integration tests that assert the qualitative claims of the paper's
//! evaluation hold in this reproduction, on scaled-down workloads so they run
//! quickly in debug builds.

use tdm::energy::chip::ChipPowerModel;
use tdm::energy::edp::evaluate;
use tdm::prelude::*;
use tdm::workloads::cholesky;

fn config(cores: usize) -> ExecConfig {
    ExecConfig {
        chip: ChipConfig::with_cores(cores),
        ..ExecConfig::default()
    }
}

/// Section VI-A / Figure 12: TDM outperforms the software runtime when task
/// creation is a bottleneck, and reduces EDP.
#[test]
fn tdm_beats_software_on_cholesky() {
    // The Table II granularity (32×32 blocks): the software runtime's task
    // creation is the bottleneck at this point.
    let workload = Benchmark::Cholesky.software_workload();
    let cfg = config(32);
    let sw = simulate(&workload, &Backend::Software, SchedulerKind::Fifo, &cfg);
    let tdm = simulate(
        &workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &cfg,
    );
    let speedup = tdm.speedup_over(&sw);
    assert!(
        speedup > 1.03,
        "TDM should speed up a creation-bound Cholesky, got {speedup:.3}"
    );

    let model = ChipPowerModel::default();
    let freq = Frequency::ghz(2.0);
    let sw_energy = evaluate(&sw, &model, &DmuConfig::default(), freq);
    let tdm_energy = evaluate(&tdm, &model, &DmuConfig::default(), freq);
    assert!(
        tdm_energy.normalized_edp(&sw_energy) < 1.0,
        "TDM should reduce EDP on Cholesky"
    );
    // The DMU itself consumes a negligible fraction of energy (<0.01% in the
    // paper; we allow <0.1% here).
    assert!(tdm_energy.accelerator_fraction() < 1e-3);
}

/// Section VI-A: the Successor/Age schedulers overlap Dedup's serialized I/O
/// chain with compression work; FIFO does not.
#[test]
fn priority_scheduling_helps_dedup() {
    let workload = Benchmark::Dedup.software_workload();
    let cfg = config(32);
    let backend = Backend::tdm_default();
    let fifo = simulate(&workload, &backend, SchedulerKind::Fifo, &cfg);
    let succ = simulate(&workload, &backend, SchedulerKind::Successor, &cfg);
    let improvement = succ.speedup_over(&fifo);
    assert!(
        improvement > 1.08,
        "Successor scheduling should overlap Dedup's I/O chain, got {improvement:.3}"
    );
}

/// Section VI-A: the master's dependence-management share of time drops with
/// TDM (Figure 10).
#[test]
fn master_creation_share_drops_with_tdm() {
    let workload = cholesky::stream(cholesky::Params { blocks: 16 }).into_workload();
    let cfg = config(32);
    let sw = simulate(&workload, &Backend::Software, SchedulerKind::Fifo, &cfg);
    let tdm = simulate(
        &workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &cfg,
    );
    assert!(tdm.master_deps_fraction() < sw.master_deps_fraction());
}

/// Section VI-C: TDM with a good scheduler is at least as fast as Task
/// Superscalar (same dependence tracking, fixed FIFO), and both beat Carbon
/// on dependence-heavy workloads.
#[test]
fn tdm_matches_or_beats_task_superscalar() {
    let workload = cholesky::stream(cholesky::Params { blocks: 16 }).into_workload();
    let cfg = config(32);
    let sw = simulate(&workload, &Backend::Software, SchedulerKind::Fifo, &cfg);
    let carbon = simulate(&workload, &Backend::Carbon, SchedulerKind::Fifo, &cfg);
    let tss = simulate(
        &workload,
        &Backend::task_superscalar_default(),
        SchedulerKind::Fifo,
        &cfg,
    );
    let tdm = simulate(
        &workload,
        &Backend::tdm_default(),
        SchedulerKind::Locality,
        &cfg,
    );
    assert!(tss.speedup_over(&sw) > carbon.speedup_over(&sw));
    assert!(tdm.makespan() <= tss.makespan());
}

/// Table II: the two benchmarks whose optimal granularity differs between the
/// software runtime and TDM really do prefer the finer version under TDM.
#[test]
fn finer_granularity_pays_off_under_tdm_for_qr() {
    let coarse = Benchmark::Qr.software_workload();
    let fine = Benchmark::Qr.tdm_workload();
    let cfg = config(32);
    // Under TDM, the fine-grained version is faster.
    let tdm_fine = simulate(&fine, &Backend::tdm_default(), SchedulerKind::Fifo, &cfg);
    let tdm_coarse = simulate(&coarse, &Backend::tdm_default(), SchedulerKind::Fifo, &cfg);
    assert!(
        tdm_fine.makespan() < tdm_coarse.makespan(),
        "finer QR should win under TDM"
    );
}

/// Section V-B / Figure 9: DMU access latency has a minor impact at realistic
/// task granularities.
#[test]
fn dmu_latency_is_not_critical() {
    let workload = cholesky::stream(cholesky::Params { blocks: 16 }).into_workload();
    let cfg = config(16);
    let fast = simulate(
        &workload,
        &Backend::Tdm(DmuConfig::default().with_access_latency(Cycle::new(1))),
        SchedulerKind::Fifo,
        &cfg,
    );
    let slow = simulate(
        &workload,
        &Backend::Tdm(DmuConfig::default().with_access_latency(Cycle::new(16))),
        SchedulerKind::Fifo,
        &cfg,
    );
    // Allow a little scheduling noise on top of the paper's <1% claim: the
    // latency change shifts readiness timestamps, which can reorder the FIFO
    // pool on a few hundred tasks.
    let degradation = slow.makespan().as_f64() / fast.makespan().as_f64();
    assert!(
        degradation < 1.07,
        "16-cycle DMU structures should cost only a few percent, got {degradation:.3}"
    );
}

/// Table III: the DMU fits in ~105 KB, ~7.3× less storage than Task
/// Superscalar needs for the same number of in-flight tasks.
#[test]
fn dmu_storage_matches_table_iii() {
    use tdm::core::area::{task_superscalar_kilobytes, DmuStorageReport};
    let report = DmuStorageReport::for_config(&DmuConfig::default());
    let total = report.total_kilobytes();
    assert!((total - 105.25).abs() / 105.25 < 0.1, "total {total:.2} KB");
    let ratio = task_superscalar_kilobytes(2048) / total;
    assert!((ratio - 7.3).abs() < 0.6, "ratio {ratio:.2}");
}
