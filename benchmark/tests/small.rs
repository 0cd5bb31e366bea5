//! Small versions of all four workloads, run in-process and through the
//! binary, checking the benchmark's own guarantees.

use dreamsim_benchmark::metrics::{END_TO_END, PER_LAYER};
use dreamsim_benchmark::workloads::{self, Size, WORKLOADS};
use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<String> {
    v[key]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name").to_string())
        .collect()
}

#[test]
fn digests_repeat_and_tracing_does_not_change_them() {
    for w in WORKLOADS {
        let a = workloads::run(w, 11, Size::Small, false).expect("untraced run");
        let b = workloads::run(w, 11, Size::Small, false).expect("second untraced run");
        let t = workloads::run(w, 11, Size::Small, true).expect("traced run");
        assert_eq!(a.digest, b.digest, "{}: untraced digests differ", w.name());
        assert_eq!(
            a.digest,
            t.digest,
            "{}: tracing changed the report",
            w.name()
        );
        assert_eq!(
            a.events,
            t.events,
            "{}: tracing changed the events",
            w.name()
        );
        if !a.counters.is_empty() {
            assert_eq!(a.counters, t.counters, "{}: counters differ", w.name());
        }
        let other = workloads::run(w, 12, Size::Small, false).expect("other seed");
        assert_ne!(
            a.digest,
            other.digest,
            "{}: the seed changes nothing",
            w.name()
        );
    }
}

#[test]
fn named_spans_sum_to_at_most_the_wall() {
    for w in WORKLOADS {
        let t = workloads::run(w, 5, Size::Small, true).expect("traced run");
        let parts = workloads::self_times(&t);
        let sum: f64 = parts.iter().map(|(_, s)| s).sum();
        assert!(
            sum <= t.wall_s,
            "{}: layers {sum} s > wall {} s",
            w.name(),
            t.wall_s
        );
        assert!(
            sum > 0.5 * t.wall_s,
            "{}: layers cover only {sum} s",
            w.name()
        );
        for (name, s) in parts {
            assert!(s >= 0.0, "{}: {name} has negative self time {s}", w.name());
        }
        for m in &PER_LAYER {
            let present =
                m.name == "trace.overhead_ratio" || t.layers.iter().any(|(n, _)| *n == m.name);
            assert!(present, "{}: traced run lacks {}", w.name(), m.name);
        }
    }
}

#[test]
fn metric_table_matches_benchmark_json() {
    let b = benchmark_json();
    let e2e = b["end_to_end"].as_array().expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(j["name"], m.name);
        assert_eq!(j["unit"], m.unit, "{}", m.name);
        assert_eq!(j["better"], m.better.label(), "{}", m.name);
        assert_eq!(j["bound"].as_f64(), Some(m.bound), "{}", m.name);
    }
    let layers = b["per_layer"].as_array().expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(j["name"], m.name);
        assert_eq!(j["unit"], m.unit, "{}", m.name);
        assert_eq!(j["better"], m.better.label(), "{}", m.name);
    }
    let workloads: Vec<String> = names(&b, "workloads");
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

/// Run the binary as `BENCHMARK.json`'s command does and return its
/// last stdout line.
fn result_line(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_dreamsim-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--small"])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload} --trace {trace}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("a JSON line")
}

#[test]
fn result_line_names_exactly_the_benchmark_json_metrics() {
    let b = benchmark_json();
    for w in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = result_line(w.name(), trace);
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line["correct"], true, "{}: {line:?}", w.name());
            assert_eq!(line["failed"], 0u64);
            assert!(line["attempted"].as_u64().unwrap() >= 4);
            let metrics = line["metrics"].as_object().unwrap();
            let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, names(&b, key), "{} --trace {trace}", w.name());
            for (name, m) in metrics {
                let v = m["value"].as_f64().unwrap();
                assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
                assert!(m["unit"].as_str().is_some());
            }
        }
    }
}

#[test]
fn full_mode_writes_a_result_set_that_compares_clean_with_itself() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("small-results.json");
    let status = Command::new(env!("CARGO_BIN_EXE_dreamsim-benchmark"))
        .args(["run", "--reps", "1", "--small", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark runs");
    assert!(status.success());
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).expect("results parse");
    for w in WORKLOADS {
        let r = &doc["workloads"][w.name()];
        assert_eq!(r["fail_ratio"].as_f64(), Some(0.0), "{}", w.name());
        assert!(
            r["trace"]["layers"]["trace.overhead_ratio"]
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert!(r["trace"]["dominant_layer"].as_str().is_some());
    }
    assert!(
        doc["workloads"]["serve-ring"]["end_to_end"]["recover_s"]["median"]
            .as_f64()
            .is_some()
    );
    let status = Command::new(env!("CARGO_BIN_EXE_dreamsim-benchmark"))
        .arg("compare")
        .args([&out, &out])
        .status()
        .expect("compare runs");
    assert!(status.success(), "a result set is not worse than itself");
}
