//! Observability foundations: a metrics registry and structured tracing.
//!
//! The paper's CloudViews analyzer (§5) is a feedback loop driven by
//! run-time statistics, and its evaluation (§7) is built on per-phase
//! latencies, hit rates, and storage behaviour. This module is the single
//! source of truth for those numbers:
//!
//! * [`MetricsRegistry`] — a registry of named counters,
//!   gauges, and log-scale histograms. Histograms carry a [`MetricUnit`] so
//!   **wall-clock** timings (`Instant`-based, real compute cost) and
//!   **simulated** timings ([`SimClock`](crate::time::SimClock)-based,
//!   modeled latency) are never mixed in one series.
//! * [`Tracer`] — lightweight structured tracing: per-job root spans with
//!   child spans for each phase of the job path, recorded into a bounded
//!   in-memory ring buffer with a JSON export.
//! * Exporters — Prometheus text format ([`MetricsRegistry::prometheus_text`])
//!   and JSON snapshots ([`MetricsSnapshot::to_json`],
//!   [`Tracer::json`]), plus a minimal JSON value parser ([`json`]) so
//!   round-trips can be asserted without external crates.
//!
//! Handles returned by the registry ([`Counter`], [`Gauge`], [`Histogram`])
//! are cheap `Arc`-backed clones over atomics: hot paths resolve a name once
//! and then pay one relaxed atomic RMW per event, which is why no site is
//! switchable: there is no "telemetry off" configuration to test or measure.
//!
//! ```
//! use scope_common::telemetry::{MetricUnit, Telemetry};
//!
//! let t = Telemetry::new();
//! t.metrics.counter("cv_jobs_total").inc();
//! t.metrics
//!     .histogram("cv_job_latency_sim_micros", MetricUnit::SimMicros)
//!     .record(15_000);
//! let text = t.metrics.prometheus_text();
//! assert!(text.contains("cv_jobs_total 1"));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::ids::JobId;
use crate::time::SimTime;

/// Ring-buffer capacity of a default [`Tracer`].
const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Histogram bucket count: bucket `i` (1-based) counts values in
/// `[2^(i-1), 2^i)`; bucket 0 counts zeros. 64 buckets cover all of `u64`.
const BUCKETS: usize = 65;

/// What a histogram's values measure. Kept explicit so wall-clock and
/// simulated timings are distinct series (the paper's modeled latencies must
/// never be conflated with real in-process compute time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricUnit {
    /// Dimensionless counts (vertices per stage, annotations per lookup).
    Count,
    /// Bytes (view files written, read, purged).
    Bytes,
    /// Simulated microseconds (SimClock-derived: modeled latencies).
    SimMicros,
    /// Wall-clock microseconds (Instant-derived: real compute cost).
    WallMicros,
}

impl MetricUnit {
    /// Stable identifier used by the JSON exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricUnit::Count => "count",
            MetricUnit::Bytes => "bytes",
            MetricUnit::SimMicros => "sim_micros",
            MetricUnit::WallMicros => "wall_micros",
        }
    }

    /// Parses the identifier written by [`MetricUnit::as_str`].
    pub fn parse(s: &str) -> Option<MetricUnit> {
        match s {
            "count" => Some(MetricUnit::Count),
            "bytes" => Some(MetricUnit::Bytes),
            "sim_micros" => Some(MetricUnit::SimMicros),
            "wall_micros" => Some(MetricUnit::WallMicros),
            _ => None,
        }
    }
}

impl fmt::Display for MetricUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a signed value that can move both ways (active locks,
/// live view-store bytes).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-scale histogram handle: power-of-two buckets over `u64` values.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    unit: MetricUnit,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Bucket index for a value: 0 for zero, else `floor(log2(v)) + 1`, so
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

impl Histogram {
    fn new(unit: MetricUnit) -> Histogram {
        Histogram(Arc::new(HistogramInner {
            unit,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// The unit declared at creation.
    pub fn unit(&self) -> MetricUnit {
        self.0.unit
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot for export (values may lag under
    /// concurrent writes but never go backwards).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            unit: self.0.unit,
            count: buckets.iter().sum(),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Declared unit.
    pub unit: MetricUnit,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Raw per-bucket counts (`buckets[0]` = zeros, `buckets[i]` = values in
    /// `[2^(i-1), 2^i)`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0..=1); a
    /// log-scale estimate, exact to within a factor of two.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Non-empty `(upper_bound, cumulative_count)` pairs, the Prometheus
    /// `le` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 {
                cum += b;
                out.push((bucket_upper_bound(i), cum));
            }
        }
        out
    }
}

/// Inclusive upper bound of bucket `i` (`0` for the zero bucket).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The registry's three name → handle maps.
#[derive(Default)]
struct Names {
    counters: HashMap<String, Counter>,
    gauges: HashMap<String, Gauge>,
    histograms: HashMap<String, Histogram>,
}

/// A registry of named metrics.
///
/// Resolution (`counter`/`gauge`/`histogram`) takes the registry's one
/// lock — callers resolve each name once at start-up and keep the handle;
/// the returned handles are lock-free. Names should be
/// Prometheus-compatible (`[a-zA-Z_][a-zA-Z0-9_]*`); the exporters sanitize
/// anything else.
#[derive(Default)]
pub struct MetricsRegistry {
    names: RwLock<Names>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Resolves (creating on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.names.read().counters.get(name) {
            return c.clone();
        }
        let mut names = self.names.write();
        names.counters.entry(name.to_string()).or_default().clone()
    }

    /// Resolves (creating on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.names.read().gauges.get(name) {
            return g.clone();
        }
        let mut names = self.names.write();
        names.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Resolves (creating on first use) the histogram `name` with `unit`.
    /// The unit is fixed at creation; later calls with a different unit get
    /// the original series (units are part of the contract, not a key).
    pub fn histogram(&self, name: &str, unit: MetricUnit) -> Histogram {
        if let Some(h) = self.names.read().histograms.get(name) {
            return h.clone();
        }
        let mut names = self.names.write();
        let slot = names.histograms.entry(name.to_string());
        slot.or_insert_with(|| Histogram::new(unit)).clone()
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.names.read().counters.get(name).map_or(0, Counter::get)
    }

    /// Current value of gauge `name` (0 when absent).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.names.read().gauges.get(name).map_or(0, Gauge::get)
    }

    /// Snapshot of histogram `name`, if present.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        let names = self.names.read();
        names.histograms.get(name).map(Histogram::snapshot)
    }

    /// A full, name-sorted snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let names = self.names.read();
        let mut counters: Vec<(String, u64)> = names
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut gauges: Vec<(String, i64)> = names
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = names
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        drop(names);
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Prometheus text exposition format (type comments + samples).
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text()
    }
}

/// A point-in-time, name-sorted copy of a whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Replaces characters Prometheus rejects in metric names.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| match c {
            'a'..='z' | 'A'..='Z' | '_' => c,
            '0'..='9' if i > 0 => c,
            _ => '_',
        })
        .collect()
}

impl MetricsSnapshot {
    /// Value of counter `name` in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Value of gauge `name` in this snapshot (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Histogram `name` in this snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = sanitize_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let name = sanitize_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let name = sanitize_name(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (le, cum) in h.cumulative_buckets() {
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }

    /// JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{"unit":..,"count":..,"sum":..,"buckets":[[i,count],..]}}}`.
    /// Histogram buckets are exported sparsely as `[index, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json::escape(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json::escape(name)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"unit\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
                json::escape(name),
                h.unit.as_str(),
                h.count,
                h.sum
            ));
            let mut first = true;
            for (idx, b) in h.buckets.iter().enumerate() {
                if *b > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!("[{idx},{b}]"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Parses a snapshot back from [`MetricsSnapshot::to_json`] output
    /// (the round-trip contract tested in `tests/telemetry.rs`).
    pub fn from_json(s: &str) -> Option<MetricsSnapshot> {
        let v = json::parse(s)?;
        let obj = v.as_object()?;
        let mut snap = MetricsSnapshot::default();
        for (name, v) in obj.get("counters")?.as_object()? {
            snap.counters.push((name.clone(), v.as_u64()?));
        }
        for (name, v) in obj.get("gauges")?.as_object()? {
            snap.gauges.push((name.clone(), v.as_i64()?));
        }
        for (name, h) in obj.get("histograms")?.as_object()? {
            let h = h.as_object()?;
            let mut buckets = vec![0u64; BUCKETS];
            for pair in h.get("buckets")?.as_array()? {
                let pair = pair.as_array()?;
                let idx = pair.first()?.as_u64()? as usize;
                *buckets.get_mut(idx)? = pair.get(1)?.as_u64()?;
            }
            snap.histograms.push((
                name.clone(),
                HistogramSnapshot {
                    unit: MetricUnit::parse(h.get("unit")?.as_str()?)?,
                    count: h.get("count")?.as_u64()?,
                    sum: h.get("sum")?.as_u64()?,
                    buckets,
                },
            ));
        }
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Some(snap)
    }
}

/// Identifier of a finished or in-flight span (unique within a tracer).
pub type SpanId = u64;

/// An in-flight span. Finish it with [`Tracer::finish`] (or
/// [`Tracer::finish_with`] to attach an outcome label); dropping it
/// unfinished records nothing.
#[derive(Debug)]
pub struct ActiveSpan {
    id: SpanId,
    parent: Option<SpanId>,
    job: Option<JobId>,
    name: &'static str,
    wall_start: Instant,
    sim_start: SimTime,
}

impl ActiveSpan {
    /// This span's id (use as `parent` for children).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// One finished span in the ring buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (unique within a tracer).
    pub id: SpanId,
    /// Parent span id, `None` for roots.
    pub parent: Option<SpanId>,
    /// Job the span belongs to, when attributable.
    pub job: Option<JobId>,
    /// Phase name (`"job"`, `"metadata_lookup"`, `"execute"`, ...).
    pub name: &'static str,
    /// Simulated start time.
    pub sim_start: SimTime,
    /// Simulated end time.
    pub sim_end: SimTime,
    /// Real (wall-clock) duration of the instrumented code, in microseconds.
    pub wall_micros: u64,
    /// Optional outcome label (`"reuse"`, `"build"`, `"baseline_fallback"`).
    pub outcome: Option<&'static str>,
}

/// Structured tracing into a bounded in-memory ring buffer.
///
/// When full, the oldest finished spans are dropped — tracing can never
/// grow without bound under sustained traffic.
pub struct Tracer {
    buf: Mutex<std::collections::VecDeque<SpanRecord>>,
    capacity: usize,
    next_id: AtomicU64,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl Tracer {
    /// A tracer retaining at most `capacity` finished spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            buf: Mutex::new(std::collections::VecDeque::with_capacity(
                capacity.clamp(1, DEFAULT_SPAN_CAPACITY),
            )),
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    fn start(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: Option<JobId>,
        sim_start: SimTime,
    ) -> ActiveSpan {
        ActiveSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            name,
            wall_start: Instant::now(),
            sim_start,
        }
    }

    /// Starts a root span (a per-job trace root).
    pub fn root(&self, name: &'static str, job: Option<JobId>, sim_start: SimTime) -> ActiveSpan {
        self.start(name, None, job, sim_start)
    }

    /// Starts a child of `parent`, inheriting its job attribution.
    pub fn child(&self, parent: &ActiveSpan, name: &'static str, sim_start: SimTime) -> ActiveSpan {
        self.start(name, Some(parent.id), parent.job, sim_start)
    }

    /// Finishes a span at simulated time `sim_end`.
    pub fn finish(&self, span: ActiveSpan, sim_end: SimTime) -> SpanId {
        self.finish_with(span, sim_end, None)
    }

    /// Finishes a span with an outcome label.
    pub fn finish_with(
        &self,
        span: ActiveSpan,
        sim_end: SimTime,
        outcome: Option<&'static str>,
    ) -> SpanId {
        let record = SpanRecord {
            id: span.id,
            parent: span.parent,
            job: span.job,
            name: span.name,
            sim_start: span.sim_start,
            sim_end: sim_end.max(span.sim_start),
            wall_micros: span.wall_start.elapsed().as_micros() as u64,
            outcome,
        };
        let mut buf = self.buf.lock();
        if buf.len() >= self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
        span.id
    }

    /// All retained finished spans, oldest first.
    pub fn finished(&self) -> Vec<SpanRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Retained spans attributed to `job`, oldest first.
    pub fn spans_for_job(&self, job: JobId) -> Vec<SpanRecord> {
        self.buf
            .lock()
            .iter()
            .filter(|s| s.job == Some(job))
            .cloned()
            .collect()
    }

    /// Spans evicted from the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears the buffer (tests and admin reset).
    pub fn clear(&self) {
        self.buf.lock().clear();
    }

    /// JSON array of the retained spans, oldest first:
    /// `[{"id":..,"parent":..,"job":..,"name":..,"sim_start_us":..,"sim_end_us":..,"wall_us":..,"outcome":..},..]`.
    pub fn json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.buf.lock().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":{},\"sim_start_us\":{},\"sim_end_us\":{},\"wall_us\":{},\"outcome\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job.map_or("null".to_string(), |j| j.raw().to_string()),
                json::escape(s.name),
                s.sim_start.micros(),
                s.sim_end.micros(),
                s.wall_micros,
                s.outcome.map_or("null".to_string(), json::escape),
            ));
        }
        out.push(']');
        out
    }
}

/// The telemetry sink every instrumented component shares: one metrics
/// registry plus one tracer. Always recording: every counter, histogram
/// and span site is unconditional.
#[derive(Default)]
pub struct Telemetry {
    /// Named counters, gauges, histograms.
    pub metrics: MetricsRegistry,
    /// Structured span recording.
    pub tracer: Tracer,
}

impl Telemetry {
    /// A telemetry sink behind an `Arc` (the shape every component stores).
    pub fn new() -> Arc<Telemetry> {
        Arc::new(Telemetry::default())
    }
}

pub mod json {
    //! A minimal JSON value model and recursive-descent parser, just enough
    //! to verify the exporters' output round-trips without external crates
    //! (the workspace's `serde` is a no-op shim).

    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum JsonValue {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number (stored as f64; integers round-trip exactly up
        /// to 2^53, far beyond any exported metric in practice).
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<JsonValue>),
        /// An object (sorted keys).
        Object(BTreeMap<String, JsonValue>),
    }

    impl JsonValue {
        /// Member lookup on objects; `None` on other variants or missing
        /// keys.
        pub fn get(&self, key: &str) -> Option<&JsonValue> {
            self.as_object()?.get(key)
        }

        /// The value as a number, if it is one.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a boolean, if it is one.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The value as an object, if it is one.
        pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
            match self {
                JsonValue::Object(m) => Some(m),
                _ => None,
            }
        }

        /// The value as an array, if it is one.
        pub fn as_array(&self) -> Option<&Vec<JsonValue>> {
            match self {
                JsonValue::Array(a) => Some(a),
                _ => None,
            }
        }

        /// The value as a string, if it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::String(s) => Some(s),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if it is one.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// The value as a signed integer, if it is one.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                JsonValue::Number(n) if n.fract() == 0.0 => Some(*n as i64),
                _ => None,
            }
        }
    }

    /// Escapes `s` as a JSON string literal (with quotes).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Parses one JSON document; `None` on any syntax error or trailing
    /// garbage.
    pub fn parse(s: &str) -> Option<JsonValue> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b'{' => parse_object(b, pos),
            b'[' => parse_array(b, pos),
            b'"' => parse_string(b, pos).map(JsonValue::String),
            b't' => parse_lit(b, pos, "true").map(|_| JsonValue::Bool(true)),
            b'f' => parse_lit(b, pos, "false").map(|_| JsonValue::Bool(false)),
            b'n' => parse_lit(b, pos, "null").map(|_| JsonValue::Null),
            _ => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
        let start = *pos;
        if *b.get(*pos)? == b'-' {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(JsonValue::Number)
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
        if *b.get(*pos)? != b'"' {
            return None;
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match *b.get(*pos)? {
                b'"' => {
                    *pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    *pos += 1;
                    match *b.get(*pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            *pos += 4;
                        }
                        _ => return None,
                    }
                    *pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
        *pos += 1; // consume '['
        let mut out = Vec::new();
        skip_ws(b, pos);
        if *b.get(*pos)? == b']' {
            *pos += 1;
            return Some(JsonValue::Array(out));
        }
        loop {
            out.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match *b.get(*pos)? {
                b',' => *pos += 1,
                b']' => {
                    *pos += 1;
                    return Some(JsonValue::Array(out));
                }
                _ => return None,
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
        *pos += 1; // consume '{'
        let mut out = BTreeMap::new();
        skip_ws(b, pos);
        if *b.get(*pos)? == b'}' {
            *pos += 1;
            return Some(JsonValue::Object(out));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            if *b.get(*pos)? != b':' {
                return None;
            }
            *pos += 1;
            out.insert(key, parse_value(b, pos)?);
            skip_ws(b, pos);
            match *b.get(*pos)? {
                b',' => *pos += 1,
                b'}' => {
                    *pos += 1;
                    return Some(JsonValue::Object(out));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn counters_gauges_and_histograms() {
        let m = MetricsRegistry::new();
        let c = m.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(m.counter_value("c_total"), 5);
        // Same name resolves to the same underlying atomic.
        m.counter("c_total").inc();
        assert_eq!(c.get(), 6);

        let g = m.gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(m.gauge_value("g"), 7);

        let h = m.histogram("h_us", MetricUnit::WallMicros);
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = m.histogram_snapshot("h_us").unwrap();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1_001_006);
        assert_eq!(snap.unit, MetricUnit::WallMicros);
        assert_eq!(snap.buckets[0], 1, "one zero");
        assert_eq!(snap.buckets[1], 1, "value 1");
        assert_eq!(snap.buckets[2], 2, "values 2..4");
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new(MetricUnit::Count);
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert!((snap.mean() - 50.5).abs() < 1e-9);
        // p50 of 1..=100 lands in [32,64): upper bound 63.
        assert_eq!(snap.quantile_upper_bound(0.5), 63);
        assert_eq!(snap.quantile_upper_bound(1.0), 127);
        assert_eq!(
            HistogramSnapshot::quantile_upper_bound(
                &Histogram::new(MetricUnit::Count).snapshot(),
                0.5
            ),
            0
        );
    }

    #[test]
    fn registry_is_thread_safe() {
        let m = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for j in 0..1000u64 {
                        m.counter("shared_total").inc();
                        m.counter(&format!("per_thread_{i}_total")).inc();
                        m.histogram("lat", MetricUnit::SimMicros).record(j);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter_value("shared_total"), 8000);
        assert_eq!(m.histogram_snapshot("lat").unwrap().count, 8000);
        for i in 0..8 {
            assert_eq!(m.counter_value(&format!("per_thread_{i}_total")), 1000);
        }
    }

    #[test]
    fn prometheus_text_format() {
        let m = MetricsRegistry::new();
        m.counter("jobs_total").add(3);
        m.gauge("active").set(-2);
        m.histogram("lat_us", MetricUnit::SimMicros).record(5);
        let text = m.prometheus_text();
        assert!(text.contains("# TYPE jobs_total counter\njobs_total 3\n"));
        assert!(text.contains("# TYPE active gauge\nactive -2\n"));
        assert!(text.contains("# TYPE lat_us histogram\n"));
        assert!(text.contains("lat_us_bucket{le=\"7\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_us_sum 5\n"));
        assert!(text.contains("lat_us_count 1\n"));
    }

    #[test]
    fn json_snapshot_round_trips() {
        let m = MetricsRegistry::new();
        m.counter("a_total").add(7);
        m.gauge("g").set(-5);
        let h = m.histogram("h", MetricUnit::Bytes);
        h.record(0);
        h.record(300);
        let snap = m.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn tracer_records_span_trees() {
        let t = Tracer::new(16);
        let root = t.root("job", Some(JobId::new(7)), SimTime::ZERO);
        let root_id = root.id();
        let child = t.child(&root, "execute", SimTime::ZERO);
        t.finish(child, SimTime::ZERO + SimDuration::from_secs(1));
        t.finish_with(
            root,
            SimTime::ZERO + SimDuration::from_secs(2),
            Some("reuse"),
        );
        let spans = t.spans_for_job(JobId::new(7));
        assert_eq!(spans.len(), 2);
        let exec = spans.iter().find(|s| s.name == "execute").unwrap();
        assert_eq!(exec.parent, Some(root_id));
        let root = spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(root.outcome, Some("reuse"));
        assert_eq!(root.sim_end.micros(), 2_000_000);
        // JSON export parses back as an array of 2 objects.
        let parsed = json::parse(&t.json()).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 2);
    }

    #[test]
    fn tracer_ring_buffer_bounds_memory() {
        let t = Tracer::new(4);
        for i in 0..10u64 {
            let s = t.root("job", Some(JobId::new(i)), SimTime::ZERO);
            t.finish(s, SimTime::ZERO);
        }
        assert_eq!(t.finished().len(), 4);
        assert_eq!(t.dropped(), 6);
        // Oldest evicted: the survivors are jobs 6..=9.
        assert_eq!(t.finished()[0].job, Some(JobId::new(6)));
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = json::parse(r#"{"a":[1,2.5,-3],"b":{"c":"x\"y\n"},"d":null,"e":true}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj["a"].as_array().unwrap().len(), 3);
        assert_eq!(
            obj["b"].as_object().unwrap()["c"].as_str().unwrap(),
            "x\"y\n"
        );
        assert_eq!(obj["d"], json::JsonValue::Null);
        assert_eq!(obj["e"], json::JsonValue::Bool(true));
        // By-key and typed accessors.
        assert_eq!(v.get("e").and_then(json::JsonValue::as_bool), Some(true));
        assert_eq!(v.get("d"), Some(&json::JsonValue::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(obj["a"].get("0"), None, "get is for objects only");
        assert_eq!(json::parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(json::parse("false").unwrap().as_bool(), Some(false));
        assert_eq!(json::parse("\"1\"").unwrap().as_f64(), None);
        assert_eq!(json::parse("[]").unwrap().as_array().unwrap().len(), 0);
        // Trailing garbage and malformed docs are rejected.
        for bad in [
            "{} x",
            "{\"a\":}",
            "{",
            "[1,]",
            "\"open",
            "true false",
            "{\"k\" 1}",
        ] {
            assert!(json::parse(bad).is_none(), "{bad}");
        }
        // escape() output parses back to the original.
        let s = "weird \"chars\"\t\\ \u{1}";
        assert_eq!(json::parse(&json::escape(s)).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn sanitize_names_for_prometheus() {
        assert_eq!(sanitize_name("ok_name_9"), "ok_name_9");
        assert_eq!(sanitize_name("bad-name.x"), "bad_name_x");
        assert_eq!(sanitize_name("9starts_with_digit"), "_starts_with_digit");
    }
}
