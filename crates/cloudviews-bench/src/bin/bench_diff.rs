//! Compares a fresh `BENCH_*.json` artifact against the committed baseline
//! and fails (exit 1) when a gated metric regresses by more than 25%.
//!
//! Usage: `bench_diff <baseline.json> <fresh.json>`
//!
//! The two files must describe the same bench (matching `"bench"` field);
//! which metrics are gated is keyed off that name. Ratios and wall-time
//! derived metrics are compared relatively (25% tolerance absorbs CI-runner
//! noise); boolean gates must not flip from `true` to `false`. A gated key
//! that is missing, non-numeric, or NaN in either artifact fails the gate —
//! see [`cloudviews_bench::gates`] for the exact rules. Metrics that only
//! mean anything on multi-core hosts (fold/shard speedups) are skipped
//! unless *both* artifacts report `multi_core_target_applicable` — a 1-core
//! baseline cannot anchor a speedup comparison.

use std::process::ExitCode;

use cloudviews_bench::gates::{self, GateStatus, TOLERANCE};
use scope_common::telemetry::json::{parse, JsonValue};

fn load(path: &str) -> Result<JsonValue, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("bench_diff: read {path}: {e}"))?;
    parse(&text).ok_or_else(|| format!("bench_diff: {path}: malformed JSON"))
}

fn run() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(fresh_path)) = (args.next(), args.next()) else {
        return Err("usage: bench_diff <baseline.json> <fresh.json>".into());
    };
    let baseline = load(&baseline_path)?;
    let fresh = load(&fresh_path)?;

    let bench = baseline
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{baseline_path}: missing \"bench\" field"))?
        .to_string();
    let fresh_bench = fresh
        .get("bench")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    if bench != fresh_bench {
        return Err(format!(
            "bench mismatch: baseline is {bench:?}, fresh is {fresh_bench:?}"
        ));
    }

    let results = gates::evaluate(&bench, &baseline, &fresh);
    if results.is_empty() {
        println!("bench_diff[{bench}]: no gated metrics for this bench, nothing to compare");
        return Ok(true);
    }
    for r in &results {
        let status = match r.status {
            GateStatus::Pass => "ok  ",
            GateStatus::Skip => "SKIP",
            GateStatus::Fail => "FAIL",
        };
        println!("bench_diff[{bench}] {:<28} {status}  {}", r.path, r.detail);
    }
    Ok(results.iter().all(|r| r.passed()))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "bench_diff: a gated metric regressed beyond {:.0}% or was malformed",
                TOLERANCE * 100.0
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
