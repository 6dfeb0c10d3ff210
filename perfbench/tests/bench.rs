//! End-to-end checks of the benchmark on small streams: every check passes
//! on a clean run, a perturbed pinned fingerprint is caught, and each run
//! prints exactly the metrics `BENCHMARK.json` declares.

use tdm_perfbench::bench::{run_stream_spec, Outcome};
use tdm_perfbench::check::{committed_pins, Expectations, Fingerprint, Pins};
use tdm_perfbench::workload::{run_stream, table2_cells, StreamSpec, WorkloadKind};
use tdm_sim::clock::Cycle;
use tdm_workloads::Benchmark;

/// A seed with no pinned fingerprints.
const HELD_OUT_SEED: u64 = 7;
const SMALL_TASKS: usize = 600;

fn small_specs() -> Vec<StreamSpec> {
    // QR's scaled generator never shrinks below its Table II size, so the
    // TDM region runs a small Streamcluster stream instead.
    let mut tdm = StreamSpec::qr_tdm(HELD_OUT_SEED, SMALL_TASKS);
    tdm.bench = Benchmark::Streamcluster;
    let mut faults = StreamSpec::streamcluster_sw_faults(HELD_OUT_SEED, SMALL_TASKS);
    // A small region ends long before the full-size cadence fires.
    faults.config.checkpoint_every = Some(Cycle::new(2_000_000));
    vec![tdm, faults]
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let doc = tdm_bench::baseline::json::parse(text).expect("BENCHMARK.json parses");
    let root = doc.as_object("BENCHMARK.json").expect("an object");
    let list = tdm_bench::baseline::json::field(root, key)
        .and_then(|v| v.as_array(key))
        .expect("a metric list");
    list.iter()
        .map(|m| {
            let m = m.as_object("metric").expect("a metric object");
            let get = |f| {
                tdm_bench::baseline::json::field(m, f)
                    .and_then(|v| v.as_str(f))
                    .expect("a string field")
                    .to_string()
            };
            (get("name"), get("unit"))
        })
        .collect()
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn clean_untraced_runs_pass_and_report_the_end_to_end_metrics() {
    let expect = Expectations::for_seed(HELD_OUT_SEED).unwrap();
    for spec in small_specs() {
        let outcome = run_stream_spec(&spec, &expect, 0.0, false).unwrap();
        assert!(outcome.correct(), "{}: {:?}", spec.label, outcome.problems);
        assert!(outcome.attempted >= 2);
        assert_eq!(reported(&outcome), declared("end_to_end"), "{}", spec.label);
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
    }
}

#[test]
fn traced_runs_replay_cleanly_and_report_every_layer_metric() {
    let expect = Expectations::for_seed(HELD_OUT_SEED).unwrap();
    for spec in small_specs() {
        let outcome = run_stream_spec(&spec, &expect, 0.0, true).unwrap();
        assert!(outcome.correct(), "{}: {:?}", spec.label, outcome.problems);
        assert_eq!(reported(&outcome), declared("per_layer"), "{}", spec.label);
    }
}

#[test]
fn fault_workload_exercises_faults_and_checkpoints() {
    let expect = Expectations::for_seed(HELD_OUT_SEED).unwrap();
    let spec = &small_specs()[1];
    let outcome = run_stream_spec(spec, &expect, 0.0, true).unwrap();
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap()
    };
    assert!(value("fault.faults_injected") > 0.0);
    assert!(value("fault.useful_fraction") < 1.0);
    assert!(value("checkpoint.count") >= 2.0);
    assert!(value("checkpoint.resume_s") > 0.0);
}

#[test]
fn a_perturbed_pinned_fingerprint_fails_the_run() {
    for spec in small_specs() {
        let pass = run_stream(&spec, &spec.config, &mut spec.stream(), None);
        let good = Fingerprint::of(&pass.report);
        let pins = |fp: Fingerprint| Pins::parse(&fp.line(spec.label)).unwrap();

        let outcome =
            run_stream_spec(&spec, &Expectations::with_pins(pins(good)), 0.0, false).unwrap();
        assert!(outcome.correct(), "{}: {:?}", spec.label, outcome.problems);

        let perturbed = Fingerprint {
            makespan: good.makespan + 1,
            ..good
        };
        let outcome =
            run_stream_spec(&spec, &Expectations::with_pins(pins(perturbed)), 0.0, false).unwrap();
        assert!(!outcome.correct(), "{}: perturbed pin accepted", spec.label);
        assert!(outcome.failed > 0);
        assert!(outcome.json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn pins_reject_malformed_lines_and_duplicates() {
    assert!(Pins::parse("a 1 2 3 4").is_err());
    assert!(Pins::parse("a 1 2 3 4 x").is_err());
    assert!(Pins::parse("a 1 2 3 4 5\na 1 2 3 4 5").is_err());
    let pins = Pins::parse("# comment\n\na 1 2 3 4 5 # trailing\n").unwrap();
    let fp = Fingerprint {
        tasks: 1,
        makespan: 2,
        dmu_accesses: 3,
        faults: 4,
        retries: 5,
    };
    assert!(pins.check("a", &fp).is_ok());
    assert!(pins.check("b", &fp).is_err());
    for (i, field) in ["tasks", "makespan", "dmu", "faults", "retries"]
        .iter()
        .enumerate()
    {
        let mut values = [1u64, 2, 3, 4, 5];
        values[i] += 1;
        let off = Fingerprint {
            tasks: values[0],
            makespan: values[1],
            dmu_accesses: values[2],
            faults: values[3],
            retries: values[4],
        };
        assert!(pins.check("a", &off).is_err(), "{field} not compared");
    }
}

#[test]
fn committed_pins_cover_every_region_outside_the_baseline() {
    let pins = committed_pins().unwrap();
    for cell in table2_cells().iter().filter(|c| !c.in_baseline()) {
        assert!(
            pins.get(&cell.label()).is_some(),
            "{} unpinned",
            cell.label()
        );
    }
    for kind in [
        WorkloadKind::QrTdmStream,
        WorkloadKind::StreamclusterSwFaults,
    ] {
        assert!(pins.get(kind.name()).is_some(), "{} unpinned", kind.name());
    }
    assert_eq!(table2_cells().len(), 108);
    assert_eq!(
        table2_cells().iter().filter(|c| c.in_baseline()).count(),
        36
    );
}
