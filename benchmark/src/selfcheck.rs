//! `selfcheck`: does the benchmark agree with itself?
//!
//! Runs every workload twice with the same seed, each run in its own
//! process, and prints — per end-to-end metric — both values, their
//! relative difference and the metric's regression bound. A metric whose
//! two runs differ by more than its bound could not tell a regression from
//! noise. The generated-input hash of the two runs must be identical: the
//! same seed has to mean the same jobs.

use std::collections::BTreeMap;
use std::process::Command;

use scope_common::telemetry::json::{self, JsonValue};

use crate::report::{Better, END_TO_END};
use crate::util::{Config, Size};
use crate::workloads::NAMES;

/// What one child run printed.
struct ChildRun {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    input_hash: Option<String>,
}

/// Parses a run's standard output: `# key: value` context lines, and the
/// result object on the last line.
fn parse_run(stdout: &str) -> Result<ChildRun, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let doc = json::parse(last).ok_or_else(|| format!("last line is not JSON: {last}"))?;
    let obj = doc.as_object().ok_or("result is not an object")?;
    let correct = matches!(obj.get("correct"), Some(JsonValue::Bool(true)));
    let mut metrics = BTreeMap::new();
    let listed = obj
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("result has no metrics")?;
    for (name, m) in listed {
        match m.as_object().and_then(|m| m.get("value")) {
            Some(JsonValue::Number(v)) => metrics.insert(name.clone(), *v),
            _ => return Err(format!("metric {name} has no numeric value")),
        };
    }
    let input_hash = stdout.lines().find_map(|l| {
        let (key, value) = l.strip_prefix("# ")?.split_once(": ")?;
        matches!(key, "job_list_hash" | "schedule_hash").then(|| value.to_string())
    });
    Ok(ChildRun {
        correct,
        metrics,
        input_hash,
    })
}

fn child(workload: &str, cfg: &Config) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let size = match cfg.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let out = Command::new(exe)
        .args([
            "run",
            "--workload",
            workload,
            "--trace",
            "0",
            "--size",
            size,
        ])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_run(&stdout)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs the check; true when every workload's two runs are correct, saw
/// the same inputs, and agree on every end-to-end metric within its bound.
pub fn run(cfg: &Config) -> bool {
    let mut all_ok = true;
    for workload in NAMES {
        println!(
            "== {workload} (seed {}, {} s, twice)",
            cfg.seed, cfg.seconds
        );
        let (a, b) = match (child(workload, cfg), child(workload, cfg)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                println!("   FAILED: {e}");
                all_ok = false;
                continue;
            }
        };
        if !(a.correct && b.correct) {
            println!("   FAILED: a run reported incorrect outputs");
            all_ok = false;
        }
        let same_inputs = a.input_hash.is_some() && a.input_hash == b.input_hash;
        println!(
            "   generated inputs: {} / {} — {}",
            a.input_hash.as_deref().unwrap_or("?"),
            b.input_hash.as_deref().unwrap_or("?"),
            if same_inputs {
                "identical"
            } else {
                "DIFFERENT"
            }
        );
        all_ok &= same_inputs;
        println!(
            "   {:<18} {:>16} {:>16} {:>9} {:>7}",
            "metric", "run 1", "run 2", "diff", "bound"
        );
        for def in END_TO_END {
            let (Some(x), Some(y)) = (a.metrics.get(def.name), b.metrics.get(def.name)) else {
                println!("   {:<18} missing", def.name);
                all_ok = false;
                continue;
            };
            // Either run may be the noisy one: take the larger disagreement.
            let diff = worse_by(*x, *y, def.better).max(worse_by(*y, *x, def.better));
            let ok = diff <= def.bound;
            all_ok &= ok;
            println!(
                "   {:<18} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}% {}",
                def.name,
                x,
                y,
                diff * 100.0,
                def.bound * 100.0,
                if ok { "" } else { "OUTSIDE BOUND" }
            );
        }
    }
    println!(
        "selfcheck: {}",
        if all_ok {
            "every metric agrees within its bound"
        } else {
            "FAILED"
        }
    );
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_run_and_measures_disagreement_by_direction() {
        let out = "# job_list_hash: abc\nops_per_s 1 1/s\n\
                   {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                   {\"ops_per_s\": {\"value\": 100.5, \"unit\": \"1/s\"}}}\n";
        let run = parse_run(out).unwrap();
        assert!(run.correct);
        assert_eq!(run.metrics["ops_per_s"], 100.5);
        assert_eq!(run.input_hash.as_deref(), Some("abc"));
        assert!(parse_run("not json").is_err());

        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
    }
}
