//! Tiny-fixture smoke of all four workloads: the same code paths the
//! measured fixture takes, over a handful of jobs, with the correctness
//! oracle switched on — and shown to bite.

use cv_benchmark::report::{RunReport, END_TO_END, PER_LAYER};
use cv_benchmark::util::{Config, Size};
use cv_benchmark::workloads::{self, NAMES};
use scope_common::telemetry::json::{self, JsonValue};

fn tiny(seed: u64, trace: bool) -> Config {
    Config {
        seed,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
        corrupt_one_checksum: false,
    }
}

fn run(name: &str, cfg: &Config) -> RunReport {
    workloads::run(name, cfg).expect("known workload")
}

fn input_hash(r: &RunReport) -> &str {
    r.info
        .get("job_list_hash")
        .or_else(|| r.info.get("schedule_hash"))
        .expect("every workload prints its generated-input hash")
}

#[test]
fn every_workload_runs_clean_and_reports_every_end_to_end_metric() {
    for name in NAMES {
        let r = run(name, &tiny(7, false));
        assert!(r.correct(), "{name}: {:?}", r.oracle.notes);
        assert!(r.oracle.attempted > 0);
        let line = r.result_line(false).expect("complete end-to-end block");
        let doc = json::parse(&line).expect("result line is JSON");
        let metrics = doc.as_object().unwrap()["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for def in END_TO_END {
            let JsonValue::Number(v) = metrics[def.name].as_object().unwrap()["value"] else {
                panic!("{name}: {} is not a number", def.name);
            };
            assert!(v > 0.0, "{name}: {} must never be 0, got {v}", def.name);
        }
    }
}

#[test]
fn every_workload_traces_and_writes_its_span_file() {
    for name in NAMES {
        let r = run(name, &tiny(7, true));
        assert!(r.correct(), "{name}: {:?}", r.oracle.notes);
        let line = r.result_line(true).expect("per-layer block");
        let doc = json::parse(&line).expect("result line is JSON");
        let metrics = doc.as_object().unwrap()["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let ratio = r.get("trace.layer_sum_ratio").expect("layer sum reported");
        assert!((0.9..=1.1).contains(&ratio), "{name}: layer sum {ratio}");
        let trace = r.info.get("trace_file").expect("trace file noted");
        let spans = std::fs::read_to_string(trace).expect("trace file written");
        assert!(json::parse(&spans).is_some(), "{name}: trace is JSON");
    }
}

#[test]
fn same_seed_same_inputs_and_counts_other_seed_other_inputs() {
    for name in NAMES {
        let (a, b, c) = (
            run(name, &tiny(11, false)),
            run(name, &tiny(11, false)),
            run(name, &tiny(12, false)),
        );
        assert_eq!(input_hash(&a), input_hash(&b), "{name}: same seed");
        assert_ne!(input_hash(&a), input_hash(&c), "{name}: other seed");
        // The two job workloads whose every repetition is the same list of
        // jobs count the same reuse however many repetitions fit.
        if matches!(name, "tpcds_reuse" | "subsume_catalog") {
            assert_eq!(
                a.get("reuse_hit_rate").unwrap().to_bits(),
                b.get("reuse_hit_rate").unwrap().to_bits(),
                "{name}: reuse_hit_rate must be bit-equal for one seed"
            );
        }
    }
}

#[test]
fn a_corrupted_checksum_is_caught() {
    for name in NAMES {
        let cfg = Config {
            corrupt_one_checksum: true,
            ..tiny(7, false)
        };
        let r = run(name, &cfg);
        assert!(
            !r.correct(),
            "{name}: the oracle missed a corrupted checksum"
        );
        assert!(r.oracle.failed >= 1);
        assert!(r
            .result_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let obj = doc.as_object().unwrap();
    let mut keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        obj[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.as_object().unwrap()["name"].as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), NAMES);
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = obj[key].as_array().unwrap();
        assert_eq!(listed.len(), catalogue.len(), "{key}");
        for (m, def) in listed.iter().zip(catalogue) {
            let m = m.as_object().unwrap();
            assert_eq!(m["name"].as_str(), Some(def.name));
            assert_eq!(m["unit"].as_str(), Some(def.unit), "{}", def.name);
            assert_eq!(
                m["better"].as_str(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            if key == "end_to_end" {
                assert_eq!(m["bound"], JsonValue::Number(def.bound), "{}", def.name);
            } else {
                assert!(!m.contains_key("bound"), "{}", def.name);
            }
        }
    }
    let paths: Vec<&str> = obj["paths"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
}
