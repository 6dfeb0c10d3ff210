//! Checkpoint/restart conformance: resume-vs-straight-through bit-identity.
//!
//! A checkpointed run must be observably identical to a plain run (capture
//! never perturbs modeled time), and resuming from *any* checkpoint must
//! reproduce the uninterrupted run's [`RunReport`] bit for bit — stats,
//! phase breakdowns, DMU counters and (traced) schedule. These tests pin
//! that across the backend × scheduler matrix, at several capture points per
//! run, for materialised workloads (streamed through a [`WorkloadSource`],
//! the way an eager caller checkpoints) and for lazy generators through a
//! finite window, and always push each snapshot through the binary
//! container ([`Snapshot::to_bytes`]/[`Snapshot::from_bytes`]) so the full
//! codec is on the resume path, not just the in-memory structures.
//!
//! The section-table test keeps `SNAPSHOT_FORMAT.md` honest: every section
//! the driver writes must be in the registry
//! ([`tdm::sim::snapshot::SECTIONS`]) and described in the format document.

use crate::common::{random_workload, small_benchmark_streams, small_benchmarks};
use crate::{all_backends, conformance_config};
use tdm::prelude::*;
use tdm::runtime::exec::{resume_stream_outcome, simulate_stream_checkpointed_outcome};
use tdm::sim::snapshot::{self, Snapshot, SnapshotError};

/// A capture interval that yields several checkpoints over `straight`'s
/// makespan (and at least one even for degenerate runs).
fn quarter_interval(straight: &RunOutcome) -> Cycle {
    Cycle::new((straight.report().makespan().raw() / 4).max(1))
}

/// The uninterrupted run of `workload`, streamed through a
/// [`WorkloadSource`]: the reference every checkpoint must resume to.
fn straight_run(
    workload: &Workload,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunOutcome {
    simulate_stream_outcome(
        &mut WorkloadSource::new(workload),
        backend,
        scheduler,
        config,
    )
}

/// Runs `workload` checkpointed, asserts capture did not perturb the run,
/// and returns the snapshots after a round trip through the binary codec.
fn checkpoints_of(
    workload: &Workload,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
    straight: &RunOutcome,
) -> Vec<Snapshot> {
    let mut snaps = Vec::new();
    let outcome = simulate_stream_checkpointed_outcome(
        &mut WorkloadSource::new(workload),
        backend,
        scheduler,
        config,
        &mut |snap| {
            snaps.push(Snapshot::from_bytes(&snap.to_bytes()).expect("codec round trip"));
            true
        },
    )
    .expect("sink never halts");
    assert_eq!(
        &outcome,
        straight,
        "capture perturbed the run ({} / {})",
        backend.name(),
        scheduler.name()
    );
    snaps
}

/// Resumes `workload` from `snap` with a freshly built source.
fn resume(
    workload: &Workload,
    snap: &Snapshot,
    config: &ExecConfig,
) -> Result<RunOutcome, SnapshotError> {
    resume_stream_outcome(&mut WorkloadSource::new(workload), snap, config)
}

/// Full matrix: every backend × scheduler cell of a scaled-down benchmark,
/// resumed from every quarter-makespan checkpoint.
#[test]
fn resume_is_bit_exact_across_backends_and_schedulers() {
    let workload = &small_benchmarks()[0];
    for backend in all_backends() {
        for scheduler in SchedulerKind::all() {
            let context = format!("{} with {}", backend.name(), scheduler.name());
            let straight = straight_run(workload, &backend, scheduler, &conformance_config());
            let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
            let snaps = checkpoints_of(workload, &backend, scheduler, &config, &straight);
            assert!(!snaps.is_empty(), "{context}: no checkpoints captured");
            for (i, snap) in snaps.iter().enumerate() {
                let resumed = resume(workload, snap, &config)
                    .unwrap_or_else(|e| panic!("{context}, checkpoint {i}: {e}"));
                assert_eq!(resumed, straight, "{context}: resumed from checkpoint {i}");
            }
        }
    }
}

/// Streaming path: windowed runs over the lazy generators, resumed from
/// every checkpoint with a *freshly built* stream (the snapshot stores the
/// production cursor, never the unproduced remainder).
#[test]
fn streaming_resume_is_bit_exact_with_windows() {
    for window in [4usize, 32, usize::MAX] {
        for bench_idx in 0..small_benchmark_streams().len() {
            let base = ExecConfig {
                window,
                ..conformance_config()
            };
            let mut stream = small_benchmark_streams().swap_remove(bench_idx);
            let straight = simulate_stream_outcome(
                &mut stream,
                &Backend::tdm_default(),
                SchedulerKind::Fifo,
                &base,
            );
            let config = base.with_checkpoint_every(quarter_interval(&straight));
            let context = format!("{} window {window}", straight.report().workload);

            let mut snaps: Vec<Snapshot> = Vec::new();
            let mut stream = small_benchmark_streams().swap_remove(bench_idx);
            let outcome = simulate_stream_checkpointed_outcome(
                &mut stream,
                &Backend::tdm_default(),
                SchedulerKind::Fifo,
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
                let mut fresh = small_benchmark_streams().swap_remove(bench_idx);
                let resumed = resume_stream_outcome(&mut fresh, snap, &config)
                    .unwrap_or_else(|e| panic!("{context}, checkpoint {i}: {e}"));
                assert_eq!(resumed, straight, "{context}: resumed from checkpoint {i}");
            }
        }
    }
}

/// Randomized round-trip fuzz: seeded random workloads (dense RAW/WAR/WAW
/// collisions over a small block pool) checkpointed mid-run and resumed,
/// across backends.
#[test]
fn random_workloads_resume_bit_exact() {
    for seed in 1..=6u64 {
        let workload = random_workload(seed);
        for backend in [Backend::tdm_default(), Backend::Software] {
            let straight = straight_run(
                &workload,
                &backend,
                SchedulerKind::Age,
                &conformance_config(),
            );
            let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
            let snaps = checkpoints_of(&workload, &backend, SchedulerKind::Age, &config, &straight);
            for snap in &snaps {
                let resumed = resume(&workload, snap, &config).expect("resume");
                assert_eq!(resumed, straight, "seed {seed} on {}", backend.name());
            }
        }
    }
}

/// A resumed run must refuse a configuration that differs from the one the
/// snapshot was taken under, naming the diverging knob.
#[test]
fn resume_refuses_diverging_configuration() {
    let workload = &small_benchmarks()[0];
    let straight = straight_run(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &conformance_config(),
    );
    let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
    let snaps = checkpoints_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    );
    let snap = &snaps[0];

    let mut wrong_seed = config.clone();
    wrong_seed.seed ^= 1;
    assert!(resume(workload, snap, &wrong_seed)
        .unwrap_err()
        .to_string()
        .contains("seed"));

    let mut wrong_cost = config.clone();
    wrong_cost.cost.sw_sched_push += Cycle::new(1);
    assert!(resume(workload, snap, &wrong_cost)
        .unwrap_err()
        .to_string()
        .contains("cost model"));
}

/// Container hardening on a real driver snapshot: bad magic, future format
/// versions, truncation and payload corruption are all detected with the
/// right error, never mis-parsed.
#[test]
fn damaged_snapshots_are_rejected() {
    let workload = &small_benchmarks()[0];
    let straight = straight_run(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &conformance_config(),
    );
    let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
    let snaps = checkpoints_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    );
    let bytes = snaps[0].to_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        Snapshot::from_bytes(&bad_magic),
        Err(SnapshotError::BadMagic { .. })
    ));

    let mut future = bytes.clone();
    future[8] = 0xFF; // low byte of the little-endian format version
    assert!(matches!(
        Snapshot::from_bytes(&future),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    assert!(
        Snapshot::from_bytes(&bytes[..bytes.len() / 2]).is_err(),
        "truncated file accepted"
    );

    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    assert!(
        Snapshot::from_bytes(&corrupt).is_err(),
        "flipped payload byte accepted"
    );
}

/// Every section the driver writes is registered in
/// [`tdm::sim::snapshot::SECTIONS`], and `SNAPSHOT_FORMAT.md` documents each
/// registered section by name and identifier.
#[test]
fn format_document_covers_every_written_section() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/SNAPSHOT_FORMAT.md");
    let doc =
        std::fs::read_to_string(doc_path).unwrap_or_else(|e| panic!("cannot read {doc_path}: {e}"));

    // Capture traced snapshots of a materialised workload and of a lazy
    // generator, so every section either writes is checked.
    let workload = &small_benchmarks()[0];
    let straight = straight_run(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &conformance_config(),
    );
    let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
    let mut written: Vec<u32> = Vec::new();
    for snap in checkpoints_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    ) {
        written.extend(snap.section_ids());
    }
    let mut stream = small_benchmark_streams().swap_remove(0);
    simulate_stream_checkpointed_outcome(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &mut |snap| {
            written.extend(snap.section_ids());
            true
        },
    )
    .expect("sink never halts");
    written.sort_unstable();
    written.dedup();
    assert!(!written.is_empty());

    for id in written {
        assert!(
            snapshot::section_info(id).is_some(),
            "driver wrote unregistered section {id:#04x}"
        );
    }
    for info in snapshot::SECTIONS {
        let id_text = format!("{:#04x}", info.id);
        assert!(
            doc.contains(&id_text),
            "SNAPSHOT_FORMAT.md does not mention section id {id_text} ({})",
            info.name
        );
        assert!(
            doc.contains(info.name),
            "SNAPSHOT_FORMAT.md does not mention section {:?}",
            info.name
        );
    }
}
