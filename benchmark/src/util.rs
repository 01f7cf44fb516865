//! Run configuration and small process-level helpers.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use scope_common::hash::{sip128, Sig128};
use scope_engine::job::JobSpec;
use scope_signature::sign_graph;

/// Fixture size: `Full` is what `BENCHMARK.json` measures; `Tiny` runs the
/// same code over a few jobs for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured fixture.
    Full,
    /// Seconds-scale smoke fixture.
    Tiny,
}

/// One run's parameters, straight from the command line.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload-generation seed; the system under test never sees it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Fixture size.
    pub size: Size,
    /// Test hook: flip one recorded baseline checksum so the oracle must
    /// catch it.
    pub corrupt_one_checksum: bool,
}

impl Config {
    /// How many times set-up runs in an untraced run; `setup_s` is the
    /// median. A traced run sets up once (it does not report `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.size == Size::Tiny {
            1
        } else {
            3
        }
    }
}

/// A wall-clock budget for one phase.
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A budget of `seconds` starting now.
    pub fn after(seconds: f64) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    /// True once the budget is spent.
    pub fn passed(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to one logical CPU. Returns false where that is not possible.
///
/// `frontdoor_mixed` needs it: a closed-loop request/response pair on two
/// threads runs five times faster when the scheduler happens to place both
/// on one virtual CPU than when each wake-up crosses to the other, and
/// which of the two a run gets is decided at thread start. The two threads
/// never work at the same time, so one CPU loses nothing.
pub fn pin_to_cpu(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mask = [1u64 << (cpu % 64)];
        // SAFETY: `mask` is a live, properly aligned 8-byte buffer and
        // `cpusetsize` is its exact size; pid 0 addresses the calling
        // thread; the kernel only reads the buffer.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's output directory (`benchmark/out`): traces and the
/// scratch roots of durable services. Everything the benchmark writes is
/// inside its own checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under `out/tmp`, removed on drop — so also when a
/// panic unwinds through its owner.
pub struct TempRoot(PathBuf);

impl TempRoot {
    /// A fresh, empty directory whose name starts with `label`.
    pub fn new(label: &str) -> TempRoot {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory under benchmark/out");
        TempRoot(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every regular file under `dir`, and how many there are.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => {
                    bytes += m.len();
                    files += 1;
                }
                Err(_) => {}
            }
        }
    }
    (bytes, files)
}

/// Order-sensitive hash of a generated job list: job ids plus every plan
/// node's precise signature. Same seed ⇒ same hash; the smoke tests pin
/// that, and each run prints it so two runs can be shown to have measured
/// the same inputs.
pub fn job_list_hash(jobs: &[JobSpec]) -> Sig128 {
    let mut bytes = Vec::with_capacity(jobs.len() * 64);
    for j in jobs {
        bytes.extend_from_slice(&j.id.raw().to_le_bytes());
        let signed = sign_graph(&j.graph).expect("generated plans sign");
        for n in j.graph.nodes() {
            let p = signed.of(n.id).precise;
            bytes.extend_from_slice(&p.lo.to_le_bytes());
            bytes.extend_from_slice(&p.hi.to_le_bytes());
        }
    }
    sip128(&bytes)
}
