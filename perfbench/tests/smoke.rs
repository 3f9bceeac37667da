//! Smoke tests: every workload at tiny size emits every metric with its
//! unit, `BENCHMARK.json` names exactly the catalogue, and deliberate
//! faults are counted as failed operations.

use qpwm_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use qpwm_perfbench::{run, set_overhead, Inject, Options, Outcome, Workload};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool, inject: Option<Inject>, tag: &str) -> Outcome {
    let work_dir =
        std::env::temp_dir().join(format!("qpwm-perfbench-{tag}-{}", std::process::id()));
    let opts = Options {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
        smoke: true,
        inject,
        work_dir,
    };
    run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

fn assert_lists_every_metric(line: &str, defs: &[qpwm_perfbench::report::MetricDef]) {
    for d in defs {
        let entry = format!("\"{}\": {{\"value\": ", d.name);
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{} missing from {line}", d.name));
        let rest = &line[at + entry.len()..];
        let unit = format!("\"unit\": \"{}\"}}", d.unit);
        assert!(
            rest.split_once('}')
                .is_some_and(|(v, _)| format!("{v}}}").contains(&unit)),
            "{} lacks unit {}",
            d.name,
            d.unit
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        let plain = smoke(workload, false, None, &format!("plain-{}", workload.name()));
        assert_eq!(plain.failed, 0, "{}: {:?}", workload.name(), plain.notes);
        assert!(plain.attempted > 0);
        let line = result_line(plain.attempted, plain.failed, &plain.metrics, &END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert_lists_every_metric(&line, &END_TO_END);

        let mut traced = smoke(workload, true, None, &format!("traced-{}", workload.name()));
        assert_eq!(traced.failed, 0, "{}: {:?}", workload.name(), traced.notes);
        set_overhead(&mut traced.metrics, &plain.metrics);
        let line = result_line(traced.attempted, traced.failed, &traced.metrics, &PER_LAYER);
        assert_lists_every_metric(&line, &PER_LAYER);
        for setting in ["seed", "engine_threads", "registry_size", "carrier"] {
            assert!(
                traced.settings.iter().any(|(k, _)| *k == setting),
                "{setting} not recorded"
            );
        }
        // the re-marking drill's layers: every workload runs it
        for name in [
            "core.remark_plan_us",
            "store.commit_call_ms_p50",
            "store.fsyncs_per_txn",
        ] {
            assert!(
                traced.metrics.get(name).is_some_and(|v| v > 0.0),
                "{}: {name} not measured",
                workload.name()
            );
        }
    }
}

#[test]
fn a_wrong_claim_is_a_failed_operation() {
    let out = smoke(
        Workload::OwnerLifecycle,
        false,
        Some(Inject::WrongClaim),
        "wrong-claim",
    );
    assert!(out.failed >= 1, "a wrong claim passed: {:?}", out.notes);
    assert!(
        out.notes.iter().any(|n| n.contains("claim check")),
        "{:?}",
        out.notes
    );
}

#[test]
fn a_corrupted_response_is_a_failed_operation() {
    let out = smoke(
        Workload::OwnerResident,
        false,
        Some(Inject::CorruptResponse),
        "corrupt",
    );
    assert!(
        out.failed >= 2,
        "a corrupted response passed: {:?}",
        out.notes
    );
    assert!(
        out.notes
            .iter()
            .any(|n| n.contains("differs") || n.contains("does not match")),
        "{:?}",
        out.notes
    );
    assert!(
        out.notes.iter().any(|n| n.contains("remote evidence")),
        "{:?}",
        out.notes
    );
}

#[test]
fn benchmark_json_names_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{} not listed",
            w.name()
        );
    }
}
