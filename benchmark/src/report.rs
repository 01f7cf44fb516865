//! Metric catalogue, correctness oracle and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names, units and directions; `BENCHMARK.json` lists the same (a test
//! compares them) and the README documents them.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; `0.0` for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees; every workload reports every one
/// (untraced run). An *op* is one job on the three job workloads and one
/// request on `frontdoor_mixed`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_wall_us_p50", "us", Lower, 0.25),
    e2e("op_wall_us_p90", "us", Lower, 0.25),
    e2e("reuse_hit_rate", "ratio", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single-layer numbers from the traced run; a workload that does not
/// reach a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end numbers that cannot be in END_TO_END: the p99, which no
    // bound the contract allows could hold on this host, and those only
    // some workloads have (every workload must report every metric there).
    layer("tail.op_wall_us_p99", "us", Lower),
    layer("reuse.sim_cpu_saved_pct", "%", Higher),
    layer("store.recovery_ms", "ms", Lower),
    layer("store.disk_bytes_per_op", "B", Lower),
    layer("net.lookup_wall_us_p50", "us", Lower),
    layer("net.lookup_wall_us_p99", "us", Lower),
    layer("net.write_wall_us_p50", "us", Lower),
    layer("net.write_wall_us_p99", "us", Lower),
    // scope-signature
    layer("sig.compile_us_per_job", "us", Lower),
    layer("sig.probe_us_per_job", "us", Lower),
    layer("sig.template_hit_rate", "ratio", Higher),
    layer("sig.share", "ratio", Lower),
    // cloudviews::metadata
    layer("meta.lookup_us_p50", "us", Lower),
    layer("meta.lookup_us_p99", "us", Lower),
    layer("meta.lookup_us_p50_shallow", "us", Lower),
    layer("meta.tier2_probed_per_lookup", "count", Lower),
    layer("meta.tier2_hit_ratio", "ratio", Higher),
    layer("meta.propose_us_p50", "us", Lower),
    layer("meta.report_us_p50", "us", Lower),
    layer("meta.lock_conflict_ratio", "ratio", Lower),
    layer("meta.purge_ms_per_round", "ms", Lower),
    layer("meta.share", "ratio", Lower),
    // scope-engine::optimizer
    layer("opt.optimize_us_per_job", "us", Lower),
    layer("opt.tier2_attempts_per_rewrite", "count", Lower),
    layer("opt.share", "ratio", Lower),
    // scope-engine::exec
    layer("exec.execute_us_p50", "us", Lower),
    layer("exec.execute_us_p99", "us", Lower),
    layer("exec.rows_per_s", "1/s", Higher),
    layer("exec.share", "ratio", Lower),
    // scope-engine::sim
    layer("sim.simulate_us_per_job", "us", Lower),
    layer("sim.share", "ratio", Lower),
    // scope-engine::storage + job
    layer("storage.materialize_us_per_view", "us", Lower),
    layer("storage.publish_us_per_view", "us", Lower),
    layer("storage.view_bytes_per_view", "B", Lower),
    layer("storage.share", "ratio", Lower),
    // scope-engine::repo
    layer("repo.record_us_per_job", "us", Lower),
    layer("repo.share", "ratio", Lower),
    // cloudviews::analyzer
    layer("analyzer.absorb_us_per_job", "us", Lower),
    layer("analyzer.round_ms_p50", "ms", Lower),
    layer("analyzer.share", "ratio", Lower),
    // cloudviews::sharing
    layer("sharing.overhead_frac", "ratio", Lower),
    layer("sharing.follower_reuse_ratio", "ratio", Higher),
    layer("sharing.shared_subgraphs_per_window", "count", Higher),
    // cloudviews::pipeline
    layer("pipeline.other_share", "ratio", Lower),
    layer("pipeline.parallel_speedup", "ratio", Higher),
    layer("pipeline.steals", "count", Lower),
    layer("pipeline.admission_waits", "count", Lower),
    // cloudviews::store + scope-store
    layer("store.append_us_p50", "us", Lower),
    layer("store.append_us_p99", "us", Lower),
    layer("store.record_job_us_p50", "us", Lower),
    layer("store.wal_bytes_per_job", "B", Lower),
    layer("store.snapshots", "count", Lower),
    layer("store.snapshot_ms_p50", "ms", Lower),
    layer("store.segments", "count", Lower),
    layer("store.durable_overhead_frac", "ratio", Lower),
    layer("store.share", "ratio", Lower),
    // scope-net
    layer("net.rtt_us_p50", "us", Lower),
    layer("net.codec_us_per_frame", "us", Lower),
    layer("net.bytes_per_lookup", "B", Lower),
    layer("net.wire_overhead_us", "us", Lower),
    layer("net.paced_lookup_us_p50", "us", Lower),
    layer("net.paced_lookup_us_p99", "us", Lower),
    layer("net.generator_late_us_p99", "us", Lower),
    layer("net.shed_frac", "ratio", Lower),
    // trace bookkeeping
    layer("trace.layer_sum_ratio", "ratio", Higher),
    layer("trace.replay_vs_service_ratio", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Counts operations and checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed or were refused, plus checks that did not
    /// hold.
    pub failed: u64,
    /// First few failure descriptions, for the human-readable output.
    pub notes: Vec<String>,
}

impl Oracle {
    const MAX_NOTES: usize = 20;

    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation or check.
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < Self::MAX_NOTES {
            self.notes.push(note());
        }
    }

    /// Counts a check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note);
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operation and check counts.
    pub oracle: Oracle,
    /// Metric values by catalogued name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context printed beside the metrics: cores, threads, seed, sizes,
    /// sample counts, the generated-input hash.
    pub info: BTreeMap<String, String>,
}

impl RunReport {
    /// Records a metric; the name must be catalogued.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "uncatalogued metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a line of context.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.insert(key.to_string(), value.to_string());
    }

    /// A metric's value, if the workload reported it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// True when no operation failed and every check held.
    pub fn correct(&self) -> bool {
        self.oracle.failed == 0
    }

    /// The catalogue this run reports against.
    pub fn catalogue(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The contract's result object: one line of JSON with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`. An untraced
    /// run must carry every end-to-end metric; a traced run fills per-layer
    /// metrics the workload does not reach with 0.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.oracle.attempted.max(1),
            self.oracle.failed
        );
        for (i, def) in Self::catalogue(trace).iter().enumerate() {
            let value = match self.get(def.name) {
                Some(v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", def.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", def.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Human-readable listing: context, then every metric with its unit.
    pub fn listing(&self, trace: bool) -> String {
        let mut out = String::new();
        for (k, v) in &self.info {
            out.push_str(&format!("# {k}: {v}\n"));
        }
        for def in Self::catalogue(trace) {
            if let Some(v) = self.get(def.name) {
                out.push_str(&format!("{:<36} {:>16.4} {}\n", def.name, v, def.unit));
            }
        }
        for n in &self.oracle.notes {
            out.push_str(&format!("! {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn result_line_needs_every_end_to_end_metric() {
        let mut r = RunReport::default();
        r.oracle.attempt();
        assert!(r.result_line(false).is_err());
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        let line = r.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // A traced run zero-fills what the workload does not reach.
        let traced = RunReport::default().result_line(true).unwrap();
        assert!(traced.contains("\"net.shed_frac\": {\"value\": 0, \"unit\": \"ratio\"}"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = RunReport::default();
        r.oracle.check(true, || unreachable!());
        assert!(r.correct());
        r.oracle.check(false, || "checksum differs".into());
        assert!(!r.correct());
        assert_eq!((r.oracle.attempted, r.oracle.failed), (2, 1));
    }
}
