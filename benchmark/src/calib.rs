//! Host-speed normalisation of wall-clock samples.
//!
//! The sandbox this benchmark is cut on changes CPU speed in regimes that
//! last seconds: the same pure-ALU loop takes 25 ms, then 75 ms, then 28 ms
//! with nothing else running, and nothing in `/proc/stat` shows it. Raw
//! wall-clock throughput therefore moves ±10 % between two runs of the same
//! binary — more than the regression bound the benchmark has to enforce.
//!
//! So every timed stretch is bracketed by a fixed calibration kernel (a
//! dependent multiply-add chain plus a walk over a 64 KiB table; ~36 µs),
//! and the stretch's wall time is scaled by `REFERENCE_NS / kernel time`.
//! What is reported is the time the work would have taken had the host run
//! at the reference speed throughout — the speed of this sandbox's fast
//! regime, so numbers read like its good-case wall clock. Parent and change
//! are normalised by the same kernel, which no change outside `benchmark/`
//! can touch. The raw, unscaled throughput is printed beside the metrics.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in nanoseconds, that counts as scale 1.0.
pub const REFERENCE_NS: f64 = 36_000.0;

const TABLE_WORDS: usize = 8 * 1024;
const STEPS: u32 = 8_000;

/// Runs the calibration kernel and scales samples by how fast it ran.
pub struct Normalizer {
    table: Vec<u64>,
    /// Kernel time at the start of the open stretch.
    before_ns: f64,
    /// Every kernel time observed, for the printed context.
    observed_ns: Vec<f64>,
}

impl Normalizer {
    /// Builds the kernel's table and takes the first reading.
    pub fn start() -> Normalizer {
        let mut n = Normalizer {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
                .collect(),
            before_ns: 0.0,
            observed_ns: Vec::new(),
        };
        n.kernel_ns();
        n.before_ns = n.kernel_ns();
        n
    }

    /// One reading: the fastest of three runs, so an interrupt landing in
    /// one of them does not read as a slow host.
    fn kernel_ns(&mut self) -> f64 {
        let mut best = f64::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..STEPS {
                let slot = (x >> 40) as usize % TABLE_WORDS;
                x = x
                    .wrapping_mul(self.table[slot])
                    .wrapping_add(0x1405_7b7e_f767_814f);
                self.table[slot] ^= x >> 7 | 1;
            }
            black_box(x);
            best = best.min(t.elapsed().as_nanos() as f64);
        }
        self.observed_ns.push(best);
        best
    }

    /// Re-reads the host speed without closing a stretch (after untimed
    /// work, so the next stretch starts from a fresh reading).
    pub fn resync(&mut self) {
        self.before_ns = self.kernel_ns();
    }

    /// Closes the stretch that began at the previous reading: returns the
    /// factor its wall times are to be multiplied by.
    pub fn close(&mut self) -> f64 {
        let after = self.kernel_ns();
        let mean = (self.before_ns + after) / 2.0;
        self.before_ns = after;
        REFERENCE_NS / mean
    }

    /// Median kernel time seen so far, in nanoseconds.
    pub fn median_kernel_ns(&self) -> f64 {
        crate::stats::median(&self.observed_ns)
    }

    /// Readings taken.
    pub fn readings(&self) -> usize {
        self.observed_ns.len()
    }
}
