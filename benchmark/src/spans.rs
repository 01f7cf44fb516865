//! Bench-side spans: one per call into a layer's public function.
//!
//! The benchmark times the system from outside (the program carries no
//! spans of its own for most layers yet), so the traced run wraps every
//! call it makes in [`Recorder::time`]. Spans nest by call order on one
//! thread; they are kept in memory and written to
//! `out/trace-<workload>.json` when the run ends.
//!
//! A layer's **self time** is its span minus the part its direct children
//! cover, so the self times of one job's spans sum to the job span exactly
//! and a share can never be counted twice.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the per-job root span.
pub const JOB_SPAN: &str = "job";

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recorder (creation order).
    pub id: u32,
    /// Enclosing span, `None` for a job root.
    pub parent: Option<u32>,
    /// Job the span belongs to (shared by every span of one request).
    pub job: u64,
    /// `<layer>.<call>`, or [`JOB_SPAN`].
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
    job: u64,
}

/// Single-threaded span recorder. Disabled, [`Recorder::time`] is a plain
/// call — the same replay code runs traced and untraced, which is what
/// `trace.overhead_frac` compares.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    /// A recorder; `enabled: false` records nothing and reads no clock.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                job: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside the root span of `job`.
    pub fn job<R>(&self, job: u64, f: impl FnOnce() -> R) -> R {
        if self.enabled {
            self.inner.borrow_mut().job = job;
        }
        self.time(JOB_SPAN, f)
    }

    /// Runs `f` inside a span named `name`, child of whatever span is open.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len() as u32;
            let parent = inner.stack.last().copied();
            let job = inner.job;
            inner.spans.push(Span {
                id,
                parent,
                job,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            inner.stack.push(id);
            id
        };
        // Clock reads hug the call so bookkeeping lands in the parent.
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let span = &mut inner.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        inner.stack.pop();
        out
    }

    /// The spans recorded so far, in creation order.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Self time of every span: its length minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_sum)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// The layer a span is charged to: the part of its name before the first
/// `.`; the job root's own self time belongs to the pipeline driver.
pub fn layer_of(name: &'static str) -> &'static str {
    if name == JOB_SPAN {
        return "pipeline";
    }
    name.split('.').next().unwrap_or(name)
}

/// Per-name aggregate over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameAgg {
    /// Spans with this name.
    pub count: u64,
    /// Summed span lengths.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// What one traced pass adds up to.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Aggregates by span name.
    pub by_name: BTreeMap<&'static str, NameAgg>,
    /// Self time by layer.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Summed length of the job root spans.
    pub job_total_ns: u64,
    /// Number of job root spans.
    pub jobs: u64,
}

impl TraceSummary {
    /// Folds `spans` into per-name and per-layer sums.
    pub fn of(spans: &[Span]) -> TraceSummary {
        let selfs = self_times_ns(spans);
        let mut out = TraceSummary::default();
        // A span is background work (a snapshot no job waits for) when its
        // root is not a job: counted by name, never in a layer's share.
        let mut background = vec![false; spans.len()];
        for s in spans {
            background[s.id as usize] = match s.parent {
                None => s.name != JOB_SPAN,
                Some(p) => background[p as usize],
            };
        }
        for (s, self_ns) in spans.iter().zip(selfs) {
            let agg = out.by_name.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += s.dur_ns();
            agg.self_ns += self_ns;
            if background[s.id as usize] {
                continue;
            }
            *out.layer_self_ns.entry(layer_of(s.name)).or_default() += self_ns;
            if s.name == JOB_SPAN {
                out.job_total_ns += s.dur_ns();
                out.jobs += 1;
            }
        }
        out
    }

    /// `layer`'s self time as a share of the summed job spans.
    pub fn share(&self, layer: &str) -> f64 {
        if self.job_total_ns == 0 {
            return 0.0;
        }
        self.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 / self.job_total_ns as f64
    }

    /// Σ layer self time / Σ job span — 1.0 when every nanosecond of every
    /// job span is charged to exactly one layer.
    pub fn layer_sum_ratio(&self) -> f64 {
        if self.job_total_ns == 0 {
            return 0.0;
        }
        self.layer_self_ns.values().sum::<u64>() as f64 / self.job_total_ns as f64
    }

    /// Mean span length of `name` in microseconds per `per` units.
    pub fn us_per(&self, name: &str, per: u64) -> f64 {
        let total = self.by_name.get(name).map_or(0, |a| a.total_ns);
        total as f64 / 1e3 / per.max(1) as f64
    }
}

/// Lengths, in microseconds, of every span named `name` (ascending).
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    crate::stats::sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect(),
    )
}

/// Writes `spans` as a JSON array, one object per line.
pub fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.id, parent, s.job, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 7,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // job [0,100]: lookup [10,30], optimize [30,70] { propose [40,50],
        // propose [50,55] (adjacent) }, execute [70,95].
        let spans = vec![
            span(0, None, JOB_SPAN, 0, 100),
            span(1, Some(0), "meta.lookup", 10, 30),
            span(2, Some(0), "opt.optimize", 30, 70),
            span(3, Some(2), "meta.propose", 40, 50),
            span(4, Some(2), "meta.propose", 50, 55),
            span(5, Some(0), "exec.execute", 70, 95),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 20, 25, 10, 5, 25]);
        let t = TraceSummary::of(&spans);
        assert_eq!(t.job_total_ns, 100);
        assert_eq!(t.jobs, 1);
        // The grandchildren are charged to `meta`, not twice to `opt`.
        assert_eq!(t.layer_self_ns["meta"], 35);
        assert_eq!(t.layer_self_ns["opt"], 25);
        assert_eq!(t.layer_self_ns["exec"], 25);
        assert_eq!(t.layer_self_ns["pipeline"], 15);
        assert!((t.layer_sum_ratio() - 1.0).abs() < 1e-12);
        assert!((t.share("meta") - 0.35).abs() < 1e-12);
        assert_eq!(t.by_name["meta.propose"].count, 2);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_free_when_off() {
        let rec = Recorder::new(true);
        let v = rec.job(42, || {
            rec.time("a.x", || rec.time("b.y", || 1) + rec.time("b.z", || 2))
        });
        assert_eq!(v, 3);
        let spans = rec.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.job)).collect();
        assert_eq!(
            shape,
            vec![
                (JOB_SPAN, None, 42),
                ("a.x", Some(0), 42),
                ("b.y", Some(1), 42),
                ("b.z", Some(1), 42),
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[2].end_ns <= spans[3].start_ns);
        let t = TraceSummary::of(&spans);
        assert!((t.layer_sum_ratio() - 1.0).abs() < 1e-9);

        let off = Recorder::new(false);
        assert_eq!(off.job(1, || off.time("a.x", || 5)), 5);
        assert!(off.into_spans().is_empty());
    }
}
