//! The TAT-set cliff of Figures 7 and 8, pinned as the model's behaviour.
//!
//! A creation that stalls on a full TAT set keeps the descriptor slot it was
//! first given, and the TAT indexes descriptors from bit 6, which is
//! `slot mod sets`. The master therefore waits for that one set to drain
//! while slots freed in other sets sit unused. With a 512-entry TAT and a
//! 1024-entry DAT, the default 8-way TAT runs Cholesky and Ferret at about a
//! third of the ideal DMU's speed; a fully associative TAT of the same size
//! runs them at the ideal's speed. QR shows the same cliff (the Figure 7
//! golden pins it) but takes most of the debug run time, so it is left out
//! here.

use tdm::prelude::*;

/// Ideal-DMU makespan over the makespan with `dmu`, on the standard chip.
fn performance(workload: &Workload, ideal: f64, dmu: DmuConfig) -> f64 {
    let report = simulate(
        workload,
        &Backend::Tdm(dmu),
        SchedulerKind::Fifo,
        &ExecConfig::default(),
    );
    ideal / report.makespan().raw() as f64
}

#[test]
fn stalled_creations_wait_on_their_tat_set() {
    let eight_way = DmuConfig::default().with_alias_sizes(512, 1024);
    let fully_associative = DmuConfig {
        tat_ways: 512,
        ..eight_way.clone()
    };
    for bench in [Benchmark::Cholesky, Benchmark::Ferret] {
        let workload = bench.tdm_workload();
        let ideal = simulate(
            &workload,
            &Backend::Tdm(DmuConfig::ideal()),
            SchedulerKind::Fifo,
            &ExecConfig::default(),
        )
        .makespan()
        .raw() as f64;
        let set_bound = performance(&workload, ideal, eight_way.clone());
        let unbound = performance(&workload, ideal, fully_associative.clone());
        assert!(
            set_bound < 0.35,
            "{}: the 8-way 512-entry TAT runs at {set_bound:.3} of the ideal DMU; \
             the stalled creation no longer waits on its TAT set",
            bench.name()
        );
        assert!(
            unbound >= 0.99,
            "{}: a fully associative 512-entry TAT runs at {unbound:.3} of the ideal DMU",
            bench.name()
        );
    }
}
