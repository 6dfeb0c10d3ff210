//! Correctness checks: the modeled outputs every region must reproduce.
//!
//! Invariants hold on every seed. Fingerprints (tasks, makespan cycles, DMU
//! accesses, faults, retries) are pinned for [`PINNED_SEED`] only: the FIFO
//! Table II cells against the committed `BENCH_baseline.json`, every other
//! region against `fingerprints.txt` in this package. A run on another seed
//! skips the pinned values, so a claim can be re-checked on a held-out seed.

use tdm_bench::baseline::Baseline;
use tdm_runtime::exec::RunReport;

use crate::workload::{Cell, StreamSpec};

/// The seed the pinned fingerprints were recorded with.
pub const PINNED_SEED: u64 = 42;

/// The pinned fingerprints of every region not in `BENCH_baseline.json`.
const PINNED: &str = include_str!("../fingerprints.txt");

/// The committed Table II baseline (FIFO cells).
const BASELINE: &str = include_str!("../../BENCH_baseline.json");

/// The modeled outputs a region is checked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Tasks executed.
    pub tasks: u64,
    /// Makespan in cycles.
    pub makespan: u64,
    /// Total DMU SRAM accesses (0 for software dependence tracking).
    pub dmu_accesses: u64,
    /// Transient faults injected.
    pub faults: u64,
    /// Failed tasks re-issued.
    pub retries: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished run.
    pub fn of(report: &RunReport) -> Self {
        Fingerprint {
            tasks: report.tasks,
            makespan: report.makespan().raw(),
            dmu_accesses: report
                .hardware
                .as_ref()
                .map_or(0, |hw| hw.stats.total_accesses),
            faults: report.faults_injected,
            retries: report.retries,
        }
    }

    /// One line of `fingerprints.txt`.
    pub fn line(&self, label: &str) -> String {
        format!(
            "{label} {} {} {} {} {}",
            self.tasks, self.makespan, self.dmu_accesses, self.faults, self.retries
        )
    }
}

/// Parsed `fingerprints.txt`: `label tasks makespan dmu_accesses faults
/// retries` per line, `#` starts a comment.
#[derive(Debug, Clone, Default)]
pub struct Pins {
    entries: Vec<(String, Fingerprint)>,
}

impl Pins {
    /// Parses the pinned-file format.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [label, values @ ..] = fields.as_slice() else {
                unreachable!("a non-empty line has a first field")
            };
            let numbers = values
                .iter()
                .map(|v| v.parse::<u64>())
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| format!("fingerprints line {}: {e}", n + 1))?;
            let [tasks, makespan, dmu_accesses, faults, retries] = numbers[..] else {
                return Err(format!(
                    "fingerprints line {}: expected 5 numbers after the label, got {}",
                    n + 1,
                    numbers.len()
                ));
            };
            if entries.iter().any(|(l, _)| l == label) {
                return Err(format!("fingerprints line {}: duplicate {label}", n + 1));
            }
            entries.push((
                label.to_string(),
                Fingerprint {
                    tasks,
                    makespan,
                    dmu_accesses,
                    faults,
                    retries,
                },
            ));
        }
        Ok(Pins { entries })
    }

    /// The pinned fingerprint of `label`, if any.
    pub fn get(&self, label: &str) -> Option<&Fingerprint> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, f)| f)
    }

    /// Checks `got` against the pinned fingerprint of `label`.
    pub fn check(&self, label: &str, got: &Fingerprint) -> Result<(), String> {
        match self.get(label) {
            None => Err(format!("{label}: no pinned fingerprint")),
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!(
                "{label}: fingerprint {} differs from pinned {}",
                got.line(""),
                want.line("")
            )),
        }
    }
}

/// The committed pinned fingerprints.
pub fn committed_pins() -> Result<Pins, String> {
    Pins::parse(PINNED)
}

/// Everything a region's output is checked against.
#[derive(Debug, Clone)]
pub struct Expectations {
    /// `None` on a held-out seed: pinned values are skipped.
    pinned: Option<(Pins, Baseline)>,
}

impl Expectations {
    /// Expectations for a run on `seed`.
    pub fn for_seed(seed: u64) -> Result<Self, String> {
        if seed != PINNED_SEED {
            return Ok(Expectations { pinned: None });
        }
        let baseline = Baseline::from_json(BASELINE)?;
        if baseline.seed != PINNED_SEED {
            return Err(format!(
                "BENCH_baseline.json was recorded on seed {}, not {PINNED_SEED}",
                baseline.seed
            ));
        }
        Ok(Expectations {
            pinned: Some((committed_pins()?, baseline)),
        })
    }

    /// Expectations that check `pins` on every seed, for regions outside
    /// `BENCH_baseline.json` (a baseline cell finds no entry and fails).
    pub fn with_pins(pins: Pins) -> Self {
        let baseline = Baseline {
            schema_version: 0,
            cores: 0,
            seed: PINNED_SEED,
            entries: Vec::new(),
        };
        Expectations {
            pinned: Some((pins, baseline)),
        }
    }

    /// Problems with one Table II cell's report (empty when it passes).
    pub fn check_cell(&self, cell: &Cell, tasks: usize, report: &RunReport) -> Vec<String> {
        let label = cell.label();
        let got = Fingerprint::of(report);
        let mut problems = Vec::new();
        if got.tasks != tasks as u64 {
            problems.push(format!("{label}: executed {} of {tasks} tasks", got.tasks));
        }
        let Some((pins, baseline)) = &self.pinned else {
            return problems;
        };
        if !cell.in_baseline() {
            problems.extend(pins.check(&label, &got).err());
            return problems;
        }
        let entry = baseline
            .entries
            .iter()
            .find(|e| e.benchmark == cell.bench.name() && e.backend == cell.backend.name());
        match entry {
            None => problems.push(format!("{label}: no BENCH_baseline.json entry")),
            Some(e) => {
                let want = (e.tasks, e.makespan_cycles, e.dmu_accesses);
                let have = (got.tasks, got.makespan, got.dmu_accesses);
                if want != have {
                    problems.push(format!(
                        "{label}: (tasks, makespan, DMU accesses) {have:?} differs from \
                         BENCH_baseline.json {want:?}"
                    ));
                }
            }
        }
        problems
    }

    /// Problems with one streaming pass: every produced task executed, the
    /// resident bound held, every fault retried without an abort, and (on
    /// the pinned seed) the pinned fingerprint.
    pub fn check_stream(
        &self,
        spec: &StreamSpec,
        produced: usize,
        report: &RunReport,
        aborted: bool,
    ) -> Vec<String> {
        let label = spec.label;
        let got = Fingerprint::of(report);
        let mut problems = Vec::new();
        if aborted {
            problems.push(format!("{label}: run aborted on an exhausted retry budget"));
        }
        if got.tasks != produced as u64 {
            problems.push(format!(
                "{label}: executed {} of {produced} produced tasks",
                got.tasks
            ));
        }
        let bound = spec.config.window + 1;
        if report.peak_resident_tasks > bound {
            problems.push(format!(
                "{label}: {} specs resident, above the window bound {bound}",
                report.peak_resident_tasks
            ));
        }
        if got.faults != got.retries {
            problems.push(format!(
                "{label}: {} faults but {} retries",
                got.faults, got.retries
            ));
        }
        if let Some((pins, _)) = &self.pinned {
            problems.extend(pins.check(label, &got).err());
        }
        problems
    }
}

/// Renders `fingerprints.txt` for the given regions.
pub fn render_pins(entries: &[(String, Fingerprint)]) -> String {
    let mut out = String::from(
        "# Modeled fingerprints on seed 42 of every benchmark region that\n\
         # BENCH_baseline.json does not pin. Regenerate with\n\
         # `cargo run --release --manifest-path perfbench/Cargo.toml -- --emit-fingerprints`.\n\
         # label tasks makespan_cycles dmu_accesses faults retries\n",
    );
    for (label, fp) in entries {
        out.push_str(&fp.line(label));
        out.push('\n');
    }
    out
}
