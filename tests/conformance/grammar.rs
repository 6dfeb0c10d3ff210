//! Conformance over the adversarial workload grammar.
//!
//! The structured benchmarks exercise the shapes the paper measures; the
//! grammar ([`tdm_workloads::grammar`]) exercises the shapes an adversary
//! would pick — renaming storms, reader swarms, deep chains, dense random
//! phases. A fixed fan of grammar seeds runs through every backend ×
//! scheduler cell and must satisfy exactly the same contract as the
//! benchmarks: golden-model validity, eager-vs-streaming identity, and
//! snapshot/resume bit-identity. Two stress regressions pin down that the
//! adversarial generators really do provoke the hardware pressure they are
//! named after (alias-table stalls, reader-list overflow chaining) and that
//! the pressured runs stay deterministic.

use tdm::prelude::*;
use tdm::runtime::exec::{
    resume_stream_outcome, simulate_stream, simulate_stream_checkpointed_outcome,
};
use tdm::sim::snapshot::Snapshot;
use tdm::workloads::grammar::{self, GrammarSpec};

use crate::common::assert_is_permutation;
use crate::{all_backends, conformance_config};

/// The fixed seed fan. Drawn specs cover every shape kind between them
/// (asserted below), so the matrix cannot silently lose coverage if the
/// drawing distribution shifts.
const SEEDS: [u64; 4] = [1, 7, 42, 0xDEAD_BEEF];

fn specs() -> Vec<GrammarSpec> {
    let specs: Vec<GrammarSpec> = SEEDS.iter().map(|&s| GrammarSpec::draw(s)).collect();
    let encoded: Vec<String> = specs.iter().map(GrammarSpec::encode).collect();
    for kind in ["chain", "fan", "storm", "swarm", "mixed"] {
        assert!(
            encoded.iter().any(|e| e.contains(kind)),
            "seed fan lost coverage of shape kind {kind:?}: {encoded:?}"
        );
    }
    specs
}

/// Every grammar spec × backend × scheduler: the finish order is a
/// topological order of the golden model and a permutation of the workload,
/// and the streaming driver reproduces the eager run field for field
/// (`peak_resident_tasks` excepted — it measures driver memory footprint,
/// not the schedule).
#[test]
fn grammar_matrix_respects_reference_graph() {
    let config = conformance_config();
    for spec in specs() {
        let workload = spec.stream().into_workload();
        let graph = TaskGraph::build(&workload);
        for backend in all_backends() {
            for scheduler in SchedulerKind::all() {
                let context = format!(
                    "{} on {} with {}",
                    workload.name,
                    backend.name(),
                    scheduler.name()
                );
                let eager = simulate(&workload, &backend, scheduler, &config);
                let order = eager.finish_order();
                assert_is_permutation(&order, workload.len());
                if let Err((pred, task)) = graph.check_order(&order) {
                    panic!("{context}: task {task} finished before its predecessor {pred}");
                }
                let mut stream = spec.stream();
                let streamed = simulate_stream(&mut stream, &backend, scheduler, &config);
                assert_eq!(eager.makespan(), streamed.makespan(), "{context}: makespan");
                assert_eq!(eager.stats, streamed.stats, "{context}: stats");
                assert_eq!(eager.hardware, streamed.hardware, "{context}: hardware");
                assert_eq!(eager.schedule, streamed.schedule, "{context}: schedule");
                assert_eq!(eager.tasks, streamed.tasks, "{context}: task count");
            }
        }
    }
}

/// Snapshot/resume bit-identity over the grammar fan. Each spec rotates
/// through a different backend × scheduler cell (a pure function of its
/// seed, so failures replay), streamed from its generator, checkpointed at
/// quarter-makespan intervals with every snapshot pushed through the binary
/// codec, and resumed on a freshly built generator.
#[test]
fn grammar_snapshot_resume_is_bit_identical() {
    let backends = all_backends();
    let schedulers = SchedulerKind::all();
    for spec in specs() {
        let backend = &backends[(spec.seed % backends.len() as u64) as usize];
        let scheduler = schedulers[(spec.seed % schedulers.len() as u64) as usize];
        let context = format!(
            "{} on {} with {}",
            spec.name(),
            backend.name(),
            scheduler.name()
        );
        let straight = simulate_stream_outcome(
            &mut spec.stream(),
            backend,
            scheduler,
            &conformance_config(),
        );
        let interval = Cycle::new((straight.report().makespan().raw() / 4).max(1));
        let config = conformance_config().with_checkpoint_every(interval);
        let mut snaps = Vec::new();
        let outcome = simulate_stream_checkpointed_outcome(
            &mut spec.stream(),
            backend,
            scheduler,
            &config,
            &mut |snap| {
                snaps.push(Snapshot::from_bytes(&snap.to_bytes()).expect("codec round trip"));
                true
            },
        )
        .expect("sink never halts");
        assert_eq!(outcome, straight, "{context}: capture perturbed the run");
        assert!(!snaps.is_empty(), "{context}: no checkpoints captured");
        for (i, snap) in snaps.iter().enumerate() {
            let resumed = resume_stream_outcome(&mut spec.stream(), snap, &config).expect("resume");
            assert_eq!(resumed, straight, "{context}: resumed from checkpoint {i}");
        }
    }
}

/// A renaming storm on an undersized DMU must actually pressure the alias
/// tables — the run stalls at least once, the access counters move, and a
/// second run reproduces every total bit for bit.
#[test]
fn renaming_storm_pressures_undersized_alias_tables() {
    let dmu = DmuConfig::default().with_alias_sizes(32, 32);
    let config = conformance_config();
    let run = || {
        let workload = grammar::renaming_storm(9, 96, 6).into_workload();
        let graph = TaskGraph::build(&workload);
        let report = simulate(
            &workload,
            &Backend::Tdm(dmu.clone()),
            SchedulerKind::Fifo,
            &config,
        );
        let order = report.finish_order();
        assert_is_permutation(&order, workload.len());
        assert!(graph.check_order(&order).is_ok(), "storm broke ordering");
        report
    };
    let report = run();
    let hw = report
        .hardware
        .as_ref()
        .expect("hardware backend must report");
    assert!(
        hw.stats.stalls > 0,
        "a 96-writer storm over 6 addresses must stall 32-entry alias tables"
    );
    assert!(hw.stats.total_accesses > 0, "access counters never moved");
    assert_eq!(hw.stats.creates, 96, "every writer creates one descriptor");
    assert_eq!(run(), report, "storm totals must be deterministic");
}

/// A reader swarm wider than one Reader List Array entry (8 elements) must
/// overflow into chained entries, and the chained run stays deterministic.
#[test]
fn reader_swarm_chains_reader_list_entries() {
    let config = conformance_config();
    let run = || {
        let workload = grammar::reader_swarm(11, 24, 2).into_workload();
        let graph = TaskGraph::build(&workload);
        let report = simulate(
            &workload,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &config,
        );
        let order = report.finish_order();
        assert_is_permutation(&order, workload.len());
        assert!(graph.check_order(&order).is_ok(), "swarm broke ordering");
        report
    };
    let report = run();
    let hw = report
        .hardware
        .as_ref()
        .expect("hardware backend must report");
    assert!(
        hw.peak.reader_la >= 24usize.div_ceil(8),
        "24 concurrent readers must chain across Reader LA entries, peak was {}",
        hw.peak.reader_la
    );
    assert!(hw.stats.total_accesses > 0, "access counters never moved");
    assert_eq!(run(), report, "swarm totals must be deterministic");
}
