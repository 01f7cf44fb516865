//! Bench-gate evaluation shared by the `bench_diff` binary and its tests.
//!
//! A *gate* is a metric inside a `BENCH_*.json` artifact that CI compares
//! against the committed baseline. Numeric gates tolerate a per-gate
//! relative regression ([`TOLERANCE`] by default, wider for wall-clock
//! metrics — CI-runner noise); boolean gates must not flip from `true`
//! to `false`.
//!
//! Malformed artifacts fail **loudly**: a gated key that is missing,
//! non-numeric, NaN, or non-finite in *either* artifact is a gate failure,
//! never a silent pass — a bench that stops emitting a metric must not
//! green-light the regression it was guarding against. The only tolerated
//! absences are deliberate: multi-core-only gates are skipped when either
//! host reports itself inapplicable, and a boolean gate whose *baseline*
//! is `false` cannot regress (it only binds once a baseline achieved it).

use scope_common::telemetry::json::JsonValue;

/// Direction of improvement for a numeric gate.
#[derive(Clone, Copy, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// Default allowed relative regression before a numeric gate fails.
pub const TOLERANCE: f64 = 0.25;

/// Wide tolerance for wall-clock gates measured over loopback TCP: the
/// scheduler owns the tail there, and the regressions these gates exist to
/// catch (a Nagle stall, a starved admission queue) are order-of-magnitude,
/// not percentage-sized.
pub const WALL_CLOCK_TOLERANCE: f64 = 0.75;

/// One gated numeric metric.
pub struct Gate {
    /// Dotted path into the artifact, e.g. `leak.bounded`.
    pub path: &'static str,
    pub better: Better,
    /// Only compare when both artifacts flag multi-core applicability.
    pub multi_core_only: bool,
    /// Allowed relative regression for this gate.
    pub tolerance: f64,
}

/// The numeric gates for a bench, keyed by its `"bench"` field.
pub fn numeric_gates(bench: &str) -> &'static [Gate] {
    match bench {
        "metadata_scale" => &[
            Gate {
                path: "single_thread_ratio",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
            Gate {
                path: "speedup_at_4_threads",
                better: Better::Higher,
                multi_core_only: true,
                tolerance: TOLERANCE,
            },
        ],
        "analyzer_scale" => &[Gate {
            path: "incremental_ratio",
            better: Better::Lower,
            multi_core_only: false,
            tolerance: TOLERANCE,
        }],
        "subsumption" => &[
            Gate {
                path: "tier2_hit_rate",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
            Gate {
                path: "hit_rate_uplift",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
            Gate {
                path: "p99_sim_ratio",
                better: Better::Lower,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
        ],
        "frontdoor" => &[
            Gate {
                path: "p99_lookup_wall_micros",
                better: Better::Lower,
                multi_core_only: false,
                tolerance: WALL_CLOCK_TOLERANCE,
            },
            Gate {
                path: "saturation_ops_per_sec",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: WALL_CLOCK_TOLERANCE,
            },
        ],
        "sharing" => &[
            // All three are simulated, deterministic quantities (the trace
            // is sip-hash-seeded), so the ordinary tolerance applies.
            Gate {
                path: "reuse_hit_rate",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
            Gate {
                path: "cpu_saved_sim_micros",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
            Gate {
                path: "p99_wait_sim_micros",
                better: Better::Lower,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
        ],
        "executor" => &[
            // Ratio of executors on the same host: stable across machines,
            // so the ordinary tolerance applies.
            Gate {
                path: "speedup",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
            Gate {
                path: "rows_per_sec_columnar",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: WALL_CLOCK_TOLERANCE,
            },
        ],
        "persistence" => &[
            // Cold-start replay wall, normalized to per-10k-records so
            // quick and full runs are comparable; wall-clock tolerance —
            // it is disk + CPU on a shared CI runner.
            Gate {
                path: "replay_micros_per_10k",
                better: Better::Lower,
                multi_core_only: false,
                tolerance: WALL_CLOCK_TOLERANCE,
            },
            // Snapshot recovery over full-log replay: the ratio of two
            // walls on the same host, so the ordinary tolerance applies.
            Gate {
                path: "snapshot_speedup",
                better: Better::Higher,
                multi_core_only: false,
                tolerance: TOLERANCE,
            },
        ],
        _ => &[],
    }
}

/// The boolean gates for a bench.
pub fn bool_gates(bench: &str) -> &'static [&'static str] {
    match bench {
        "metadata_scale" => &["single_thread_within_10pct", "leak.bounded"],
        "analyzer_scale" => &["meets_25pct_target", "incremental_matches_full"],
        "subsumption" => &["p99_within_10pct", "uplift_positive", "results_equivalent"],
        "frontdoor" => &["shed_rate_ok"],
        "sharing" => &[
            "hits_exceed_views_only",
            "cpu_saved_positive",
            "results_equivalent",
        ],
        "executor" => &["stats_equal", "meets_5x_target"],
        "persistence" => &["fingerprints_equal", "torn_tail_recovered"],
        _ => &[],
    }
}

/// Resolves a dotted path inside a parsed artifact.
pub fn lookup<'a>(root: &'a JsonValue, path: &str) -> Option<&'a JsonValue> {
    path.split('.').try_fold(root, |v, key| v.get(key))
}

/// Outcome of one gate comparison.
#[derive(Debug, PartialEq, Eq)]
pub enum GateStatus {
    Pass,
    Skip,
    Fail,
}

/// One evaluated gate, ready to print.
pub struct GateResult {
    pub path: &'static str,
    pub status: GateStatus,
    pub detail: String,
}

impl GateResult {
    pub fn passed(&self) -> bool {
        self.status != GateStatus::Fail
    }
}

/// Reads a gated numeric value, distinguishing the failure modes so the
/// report can say *why* the artifact is malformed.
fn numeric(artifact: &JsonValue, path: &str, which: &str) -> Result<f64, String> {
    let Some(v) = lookup(artifact, path) else {
        return Err(format!("metric missing in {which} artifact"));
    };
    let Some(n) = v.as_f64() else {
        return Err(format!("metric non-numeric in {which} artifact"));
    };
    if n.is_nan() {
        return Err(format!("metric is NaN in {which} artifact"));
    }
    if !n.is_finite() {
        return Err(format!("metric non-finite in {which} artifact"));
    }
    Ok(n)
}

fn boolean(artifact: &JsonValue, path: &str, which: &str) -> Result<bool, String> {
    let Some(v) = lookup(artifact, path) else {
        return Err(format!("metric missing in {which} artifact"));
    };
    v.as_bool()
        .ok_or_else(|| format!("metric non-boolean in {which} artifact"))
}

/// Evaluates every gate for `bench` against the two artifacts.
///
/// Returns one [`GateResult`] per gate; the run passes iff every result
/// [`passed`](GateResult::passed). Benches with no registered gates
/// return an empty list.
pub fn evaluate(bench: &str, baseline: &JsonValue, fresh: &JsonValue) -> Vec<GateResult> {
    let multi_core = |v: &JsonValue| {
        lookup(v, "multi_core_target_applicable")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false)
    };
    let both_multi_core = multi_core(baseline) && multi_core(fresh);

    let mut results = Vec::new();
    for gate in numeric_gates(bench) {
        if gate.multi_core_only && !both_multi_core {
            results.push(GateResult {
                path: gate.path,
                status: GateStatus::Skip,
                detail: "multi-core gate, not applicable on both runs".into(),
            });
            continue;
        }
        let values = numeric(baseline, gate.path, "baseline")
            .and_then(|b| numeric(fresh, gate.path, "fresh").map(|f| (b, f)));
        let (base, new) = match values {
            Ok(pair) => pair,
            Err(why) => {
                results.push(GateResult {
                    path: gate.path,
                    status: GateStatus::Fail,
                    detail: why,
                });
                continue;
            }
        };
        // Relative change in the direction of "worse"; zero baselines
        // cannot regress relatively.
        let regression = if base.abs() < f64::EPSILON {
            0.0
        } else {
            match gate.better {
                Better::Higher => (base - new) / base,
                Better::Lower => (new - base) / base,
            }
        };
        let pass = regression <= gate.tolerance;
        results.push(GateResult {
            path: gate.path,
            status: if pass {
                GateStatus::Pass
            } else {
                GateStatus::Fail
            },
            detail: format!(
                "baseline={base:.3} fresh={new:.3} regression={:+.1}%",
                regression * 100.0
            ),
        });
    }

    for path in bool_gates(bench) {
        let values = boolean(baseline, path, "baseline")
            .and_then(|b| boolean(fresh, path, "fresh").map(|f| (b, f)));
        let (base, new) = match values {
            Ok(pair) => pair,
            Err(why) => {
                results.push(GateResult {
                    path,
                    status: GateStatus::Fail,
                    detail: why,
                });
                continue;
            }
        };
        // A gate the baseline never met (e.g. recorded on a 1-core host)
        // cannot regress; it only binds once a baseline achieved it.
        let pass = !base || new;
        results.push(GateResult {
            path,
            status: if pass {
                GateStatus::Pass
            } else {
                GateStatus::Fail
            },
            detail: format!("baseline={base} fresh={new}"),
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_common::telemetry::json::parse;

    fn eval(bench: &str, baseline: &str, fresh: &str) -> Vec<GateResult> {
        evaluate(bench, &parse(baseline).unwrap(), &parse(fresh).unwrap())
    }

    fn all_pass(results: &[GateResult]) -> bool {
        results.iter().all(GateResult::passed)
    }

    const GOOD: &str = r#"{
        "bench": "subsumption",
        "tier2_hit_rate": 0.4,
        "hit_rate_uplift": 0.4,
        "p99_sim_ratio": 1.02,
        "p99_within_10pct": true,
        "uplift_positive": true,
        "results_equivalent": true
    }"#;

    #[test]
    fn identical_artifacts_pass() {
        assert!(all_pass(&eval("subsumption", GOOD, GOOD)));
    }

    #[test]
    fn missing_numeric_key_fails_loudly_in_either_artifact() {
        let hollow = GOOD.replace("\"hit_rate_uplift\": 0.4,", "");
        for (b, f) in [(hollow.as_str(), GOOD), (GOOD, hollow.as_str())] {
            let results = eval("subsumption", b, f);
            let gate = results
                .iter()
                .find(|r| r.path == "hit_rate_uplift")
                .unwrap();
            assert_eq!(gate.status, GateStatus::Fail, "{}", gate.detail);
            assert!(gate.detail.contains("missing"), "{}", gate.detail);
        }
    }

    #[test]
    fn non_numeric_and_nan_values_fail_loudly() {
        let stringy = GOOD.replace("\"p99_sim_ratio\": 1.02", "\"p99_sim_ratio\": \"NaN\"");
        let results = eval("subsumption", GOOD, &stringy);
        let gate = results.iter().find(|r| r.path == "p99_sim_ratio").unwrap();
        assert_eq!(gate.status, GateStatus::Fail);
        assert!(gate.detail.contains("non-numeric"), "{}", gate.detail);

        let nully = GOOD.replace("\"p99_sim_ratio\": 1.02", "\"p99_sim_ratio\": null");
        let results = eval("subsumption", &nully, GOOD);
        let gate = results.iter().find(|r| r.path == "p99_sim_ratio").unwrap();
        assert_eq!(gate.status, GateStatus::Fail);
        assert!(gate.detail.contains("baseline"), "{}", gate.detail);
    }

    #[test]
    fn missing_bool_gate_fails_instead_of_passing_silently() {
        // The pre-fix arm `(Some(false) | None, _) => true` waved missing
        // keys through; they must fail now.
        let hollow = GOOD.replace("\"uplift_positive\": true,", "");
        let results = eval("subsumption", GOOD, &hollow);
        let gate = results
            .iter()
            .find(|r| r.path == "uplift_positive")
            .unwrap();
        assert_eq!(gate.status, GateStatus::Fail);
        assert!(gate.detail.contains("missing"), "{}", gate.detail);

        let stringy = GOOD.replace("\"uplift_positive\": true,", "\"uplift_positive\": 1,");
        let results = eval("subsumption", GOOD, &stringy);
        let gate = results
            .iter()
            .find(|r| r.path == "uplift_positive")
            .unwrap();
        assert_eq!(gate.status, GateStatus::Fail);
        assert!(gate.detail.contains("non-boolean"), "{}", gate.detail);
    }

    #[test]
    fn false_baseline_bool_cannot_regress_but_true_one_binds() {
        let never_met = GOOD.replace("\"p99_within_10pct\": true", "\"p99_within_10pct\": false");
        let results = eval("subsumption", &never_met, &never_met);
        let gate = results
            .iter()
            .find(|r| r.path == "p99_within_10pct")
            .unwrap();
        assert_eq!(gate.status, GateStatus::Pass);

        let results = eval("subsumption", GOOD, &never_met);
        let gate = results
            .iter()
            .find(|r| r.path == "p99_within_10pct")
            .unwrap();
        assert_eq!(gate.status, GateStatus::Fail);
    }

    #[test]
    fn numeric_regression_beyond_tolerance_fails_within_passes() {
        let slightly_worse = GOOD.replace("\"hit_rate_uplift\": 0.4", "\"hit_rate_uplift\": 0.32");
        assert!(all_pass(&eval("subsumption", GOOD, &slightly_worse)));

        let much_worse = GOOD.replace("\"hit_rate_uplift\": 0.4", "\"hit_rate_uplift\": 0.1");
        let results = eval("subsumption", GOOD, &much_worse);
        let gate = results
            .iter()
            .find(|r| r.path == "hit_rate_uplift")
            .unwrap();
        assert_eq!(gate.status, GateStatus::Fail);

        // Lower-is-better gates regress in the other direction.
        let slower = GOOD.replace("\"p99_sim_ratio\": 1.02", "\"p99_sim_ratio\": 2.0");
        let results = eval("subsumption", GOOD, &slower);
        let gate = results.iter().find(|r| r.path == "p99_sim_ratio").unwrap();
        assert_eq!(gate.status, GateStatus::Fail);
    }

    #[test]
    fn multi_core_gates_skip_unless_both_artifacts_applicable() {
        let single = r#"{
            "bench": "metadata_scale",
            "single_thread_ratio": 0.9,
            "single_thread_within_10pct": true,
            "leak": {"bounded": true},
            "multi_core_target_applicable": false
        }"#;
        let results = eval("metadata_scale", single, single);
        let gate = results
            .iter()
            .find(|r| r.path == "speedup_at_4_threads")
            .unwrap();
        assert_eq!(gate.status, GateStatus::Skip);
        assert!(all_pass(&results));

        // Once both hosts are multi-core, the missing metric fails loudly.
        let multi = single.replace(
            "\"multi_core_target_applicable\": false",
            "\"multi_core_target_applicable\": true",
        );
        let results = eval("metadata_scale", &multi, &multi);
        let gate = results
            .iter()
            .find(|r| r.path == "speedup_at_4_threads")
            .unwrap();
        assert_eq!(gate.status, GateStatus::Fail);
        assert!(gate.detail.contains("missing"), "{}", gate.detail);
    }

    #[test]
    fn wall_clock_gates_get_the_wide_tolerance() {
        let base = r#"{
            "bench": "frontdoor",
            "p99_lookup_wall_micros": 200,
            "saturation_ops_per_sec": 70000,
            "shed_rate_ok": true
        }"#;
        // +60% p99 / -40% throughput: scheduler-noise territory over
        // loopback, inside WALL_CLOCK_TOLERANCE, outside TOLERANCE.
        let noisy = r#"{
            "bench": "frontdoor",
            "p99_lookup_wall_micros": 320,
            "saturation_ops_per_sec": 42000,
            "shed_rate_ok": true
        }"#;
        assert!(all_pass(&eval("frontdoor", base, noisy)));

        // An order-of-magnitude stall (a Nagle re-regression) still fails.
        let stalled = r#"{
            "bench": "frontdoor",
            "p99_lookup_wall_micros": 40000,
            "saturation_ops_per_sec": 70000,
            "shed_rate_ok": true
        }"#;
        let results = eval("frontdoor", base, stalled);
        let gate = results
            .iter()
            .find(|r| r.path == "p99_lookup_wall_micros")
            .unwrap();
        assert_eq!(gate.status, GateStatus::Fail);
    }

    #[test]
    fn unknown_bench_has_no_gates() {
        assert!(eval(
            "mystery",
            r#"{"bench": "mystery"}"#,
            r#"{"bench": "mystery"}"#
        )
        .is_empty());
    }
}
