//! The benchmark's three workloads and the simulated regions each one runs.
//!
//! Every region runs on the 32-core chip of Table I with the default cost
//! model; the benchmark's `--seed` becomes [`ExecConfig::seed`], which
//! drives duration jitter and fault draws.

use tdm_bench::baseline::matrix_backends;
use tdm_runtime::exec::{
    simulate_stream_checkpointed_outcome, simulate_stream_outcome, Backend, ExecConfig, RunOutcome,
    RunReport,
};
use tdm_runtime::fault::FaultConfig;
use tdm_runtime::scheduler::SchedulerKind;
use tdm_runtime::stream::TaskSource;
use tdm_runtime::task::Workload;
use tdm_sim::clock::Cycle;
use tdm_workloads::{Benchmark, TaskStream};

use crate::clock::timed;

/// Tasks each streaming workload asks its scaled generator for.
pub const STREAM_TASKS: usize = 1_000_000;
/// Master creation window of the streaming workloads.
pub const WINDOW: usize = 4096;
/// Transient failure probability per attempt on the fault workload.
pub const FAULT_RATE: f64 = 0.02;
/// Modeled cycles between checkpoints on the fault workload.
pub const CHECKPOINT_EVERY: u64 = 1_000_000_000;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Scaled QR on TDM, FIFO, windowed stream.
    QrTdmStream,
    /// Scaled Streamcluster on the software runtime with the Locality
    /// scheduler, fault injection and periodic checkpoints.
    StreamclusterSwFaults,
    /// Eager `simulate` over the Table II matrix with every scheduler.
    Table2Schedulers,
}

impl WorkloadKind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::QrTdmStream,
        WorkloadKind::StreamclusterSwFaults,
        WorkloadKind::Table2Schedulers,
    ];

    /// The workload's name on the command line and in the pinned file.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::QrTdmStream => "qr_tdm_stream",
            WorkloadKind::StreamclusterSwFaults => "streamcluster_sw_faults",
            WorkloadKind::Table2Schedulers => "table2_schedulers",
        }
    }

    /// Looks a workload up by [`WorkloadKind::name`].
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The streaming region of a stream workload, scaled to `tasks`.
    pub fn stream_spec(self, seed: u64, tasks: usize) -> Option<StreamSpec> {
        match self {
            WorkloadKind::QrTdmStream => Some(StreamSpec::qr_tdm(seed, tasks)),
            WorkloadKind::StreamclusterSwFaults => {
                Some(StreamSpec::streamcluster_sw_faults(seed, tasks))
            }
            WorkloadKind::Table2Schedulers => None,
        }
    }
}

/// A windowed streaming region: one scaled benchmark on one backend.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Label in the pinned fingerprint file.
    pub label: &'static str,
    /// Benchmark whose scaled generator feeds the region.
    pub bench: Benchmark,
    /// Task target handed to [`Benchmark::scaled_stream`].
    pub tasks: usize,
    /// Runtime organisation.
    pub backend: Backend,
    /// Software scheduling policy.
    pub scheduler: SchedulerKind,
    /// Driver configuration (window, faults, checkpoint cadence, seed).
    pub config: ExecConfig,
}

impl StreamSpec {
    /// `qr_tdm_stream`: scaled QR on the default DMU, FIFO.
    pub fn qr_tdm(seed: u64, tasks: usize) -> Self {
        StreamSpec {
            label: WorkloadKind::QrTdmStream.name(),
            bench: Benchmark::Qr,
            tasks,
            backend: Backend::tdm_default(),
            scheduler: SchedulerKind::Fifo,
            config: stream_config(seed),
        }
    }

    /// `streamcluster_sw_faults`: scaled Streamcluster on the software
    /// runtime, Locality scheduler, 2% transient faults, checkpoints.
    pub fn streamcluster_sw_faults(seed: u64, tasks: usize) -> Self {
        StreamSpec {
            label: WorkloadKind::StreamclusterSwFaults.name(),
            bench: Benchmark::Streamcluster,
            tasks,
            backend: Backend::Software,
            scheduler: SchedulerKind::Locality,
            config: stream_config(seed)
                .with_faults(FaultConfig::default().with_fault_rate(FAULT_RATE))
                .with_checkpoint_every(Cycle::new(CHECKPOINT_EVERY)),
        }
    }

    /// A fresh copy of the region's task stream.
    pub fn stream(&self) -> TaskStream {
        self.bench.scaled_stream(self.tasks)
    }
}

fn stream_config(seed: u64) -> ExecConfig {
    ExecConfig {
        seed,
        ..ExecConfig::default()
    }
    .with_window(WINDOW)
}

/// What the checkpoint sink saw during one streaming pass.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLog {
    /// Snapshots taken.
    pub count: usize,
    /// Total encoded bytes.
    pub bytes: u64,
    /// Host seconds spent in `Snapshot::to_bytes`.
    pub encode_s: f64,
    /// Encoded bytes of the snapshot the caller asked to keep.
    pub kept: Option<Vec<u8>>,
}

/// The result of one streaming pass.
#[derive(Debug, Clone)]
pub struct StreamPass {
    /// The run's report (complete or up to the abort).
    pub report: RunReport,
    /// True if a task exhausted its retry budget.
    pub aborted: bool,
    /// Checkpoints taken, if the region checkpoints.
    pub checkpoints: CheckpointLog,
}

/// Runs the region once over `stream` with `config` (the spec's own, or a
/// traced variant of it). When the region checkpoints, the sink encodes
/// every snapshot with `Snapshot::to_bytes` and keeps the bytes of the one
/// numbered `keep` (0-based), if any.
pub fn run_stream<S: TaskSource + ?Sized>(
    spec: &StreamSpec,
    config: &ExecConfig,
    stream: &mut S,
    keep: Option<usize>,
) -> StreamPass {
    let mut log = CheckpointLog::default();
    let outcome = if config.checkpoint_every.is_some() {
        simulate_stream_checkpointed_outcome(
            stream,
            &spec.backend,
            spec.scheduler,
            config,
            &mut |snap| {
                let (bytes, seconds) = timed(|| snap.to_bytes());
                log.bytes += bytes.len() as u64;
                log.encode_s += seconds;
                if keep == Some(log.count) {
                    log.kept = Some(bytes);
                }
                log.count += 1;
                true
            },
        )
        .expect("a sink that always continues never halts the run")
    } else {
        simulate_stream_outcome(stream, &spec.backend, spec.scheduler, config)
    };
    StreamPass {
        aborted: matches!(outcome, RunOutcome::Aborted { .. }),
        report: outcome.into_report(),
        checkpoints: log,
    }
}

/// One eager region of the Table II matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Table II benchmark.
    pub bench: Benchmark,
    /// Runtime organisation.
    pub backend: Backend,
    /// Scheduling policy (hardware-scheduled backends always use FIFO).
    pub scheduler: SchedulerKind,
}

impl Cell {
    /// Label in the pinned fingerprint file, e.g. `table2/QR/TDM/Age`.
    pub fn label(&self) -> String {
        let scheduler = if self.backend.hardware_scheduling() {
            "HW-FIFO"
        } else {
            self.scheduler.name()
        };
        format!(
            "table2/{}/{}/{}",
            self.bench.name(),
            self.backend.name(),
            scheduler
        )
    }

    /// True for the FIFO cells `BENCH_baseline.json` records.
    pub fn in_baseline(&self) -> bool {
        self.scheduler == SchedulerKind::Fifo
    }

    /// The cell's materialised workload: hardware dependence tracking runs
    /// the TDM-optimal granularity, software tracking its own.
    pub fn workload<'a>(&self, inputs: &'a Table2Inputs) -> &'a Workload {
        let (software, tdm) = &inputs.workloads[bench_index(self.bench)];
        match self.backend {
            Backend::Tdm(_) | Backend::TaskSuperscalar(_) => tdm,
            Backend::Software | Backend::Carbon => software,
        }
    }
}

fn bench_index(bench: Benchmark) -> usize {
    Benchmark::ALL
        .iter()
        .position(|&b| b == bench)
        .expect("Benchmark::ALL lists every benchmark")
}

/// The 108 cells: Software and TDM under all five policies, Carbon and
/// Task Superscalar under their hardware FIFO, for each of the nine
/// benchmarks.
pub fn table2_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        for backend in matrix_backends() {
            let schedulers = if backend.hardware_scheduling() {
                vec![SchedulerKind::Fifo]
            } else {
                SchedulerKind::all()
            };
            for scheduler in schedulers {
                cells.push(Cell {
                    bench,
                    backend: backend.clone(),
                    scheduler,
                });
            }
        }
    }
    cells
}

/// The materialised inputs of `table2_schedulers`: each benchmark at its
/// software-optimal and TDM-optimal granularity, in [`Benchmark::ALL`]
/// order.
#[derive(Debug, Clone)]
pub struct Table2Inputs {
    workloads: Vec<(Workload, Workload)>,
}

impl Table2Inputs {
    /// Materialises all 18 workloads.
    pub fn build() -> Self {
        Table2Inputs {
            workloads: Benchmark::ALL
                .iter()
                .map(|b| (b.software_workload(), b.tdm_workload()))
                .collect(),
        }
    }
}

/// Driver configuration of every Table II cell.
pub fn table2_config(seed: u64) -> ExecConfig {
    ExecConfig {
        seed,
        ..ExecConfig::default()
    }
}
