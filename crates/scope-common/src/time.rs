//! Simulated time.
//!
//! The cluster simulator, the metadata service's lock expiry, and view
//! expiry/purging all operate on a *simulated* clock so experiments are
//! deterministic and fast regardless of wall-clock speed. Time is measured in
//! integer microseconds since the start of the simulation.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// A point in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as "never expires".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Microseconds since the epoch.
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// Microseconds in the span.
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Seconds in the span, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the span by a non-negative factor, rounding to the nearest
    /// microsecond.
    pub fn mul_f64(self, factor: f64) -> Self {
        SimDuration((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{:.2}s", self.as_secs_f64())
        }
    }
}

/// A monotonically non-decreasing shared simulated clock.
///
/// Thread-safe: the concurrent-jobs tests advance it from several worker
/// threads. `advance_to` is a max-merge so out-of-order advances from
/// parallel jobs cannot move time backwards.
#[derive(Debug, Default)]
pub struct SimClock {
    now_us: AtomicU64,
}

impl SimClock {
    /// A clock starting at the epoch.
    pub fn new() -> Self {
        SimClock {
            now_us: AtomicU64::new(0),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_us.load(Ordering::SeqCst))
    }

    /// Moves the clock forward by `d` and returns the new time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        SimTime(self.now_us.fetch_add(d.0, Ordering::SeqCst) + d.0)
    }

    /// Moves the clock to at least `t` (no-op if already past it).
    pub fn advance_to(&self, t: SimTime) {
        self.now_us.fetch_max(t.0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        assert_eq!(t.micros(), 2_000_000);
        assert_eq!((t - SimTime::ZERO).as_secs_f64(), 2.0);
        assert_eq!(t.since(t + SimDuration::from_secs(1)), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn mul_scales() {
        let d = SimDuration::from_secs(10).mul_f64(0.25);
        assert_eq!(d, SimDuration::from_secs_f64(2.5));
        assert_eq!(SimDuration::from_secs(1).mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn clock_is_monotone() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_millis(5));
        c.advance_to(SimTime(2_000)); // behind: no-op
        assert_eq!(c.now().micros(), 5_000);
        c.advance_to(SimTime(9_000));
        assert_eq!(c.now().micros(), 9_000);
    }

    #[test]
    fn clock_concurrent_advance() {
        use std::sync::Arc;
        let c = Arc::new(SimClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(SimDuration::from_micros(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now().micros(), 8_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.00ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.00s");
        assert_eq!(SimTime(1_500_000).to_string(), "t+1.500s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
