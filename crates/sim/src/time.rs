//! Virtual time: [`Nanos`] durations/instants and the shared [`SimClock`].

use std::cell::Cell;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use std::rc::Rc;

/// A duration or instant in virtual time, measured in nanoseconds.
///
/// `Nanos` is used both as a point on the simulation timeline (the value of
/// [`SimClock::now`]) and as a span between two points. Addition and
/// multiplication saturate. Subtraction is checked: `a - b` with `b` later
/// than `a` is a reversed interval, a bug, so it panics and names both
/// operands. Where clamping a span to zero is what a caller means, it says
/// so with [`Nanos::saturating_sub`].
///
/// # Example
///
/// ```
/// use vampos_sim::Nanos;
///
/// let a = Nanos::from_micros(2);
/// let b = Nanos::from_nanos(500);
/// assert_eq!((a + b).as_nanos(), 2_500);
/// assert_eq!((a - b).as_nanos(), 1_500);
/// assert_eq!(b.saturating_sub(a), Nanos::ZERO);
/// assert!(std::panic::catch_unwind(|| b - a).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// One microsecond.
    pub const MICRO: Nanos = Nanos(1_000);
    /// One millisecond.
    pub const MILLI: Nanos = Nanos(1_000_000);
    /// One second.
    pub const SECOND: Nanos = Nanos(1_000_000_000);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Nanos((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds as a float (used by the reporting harness).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; never underflows.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Nanos) -> Option<Nanos> {
        self.0.checked_sub(other.0).map(Nanos)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;

    /// # Panics
    ///
    /// Panics when `rhs` is greater than `self`, naming both.
    #[track_caller]
    fn sub(self, rhs: Nanos) -> Nanos {
        match self.checked_sub(rhs) {
            Some(difference) => difference,
            None => panic!("Nanos subtraction underflow: {} ns - {} ns", self.0, rhs.0),
        }
    }
}

impl SubAssign for Nanos {
    /// # Panics
    ///
    /// Panics when `rhs` is greater than `self`, naming both.
    #[track_caller]
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// The clock is cheaply cloneable; all clones observe and advance the same
/// timeline. It is deliberately **not** thread-safe (`Rc<Cell<_>>`): the
/// simulation runs on a single thread, and keeping the clock `!Send` makes
/// accidental cross-thread use a compile error.
///
/// # Example
///
/// ```
/// use vampos_sim::{SimClock, Nanos};
///
/// let clock = SimClock::new();
/// let view = clock.clone();
/// clock.advance(Nanos::from_millis(5));
/// assert_eq!(view.now(), Nanos::from_millis(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current virtual instant.
    pub fn now(&self) -> Nanos {
        Nanos(self.now.get())
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&self, d: Nanos) -> Nanos {
        let next = self.now.get().saturating_add(d.as_nanos());
        self.now.set(next);
        Nanos(next)
    }

    /// Moves the clock forward to `t` if `t` is in the future; otherwise a
    /// no-op (the clock never goes backwards). Returns the current instant.
    pub fn advance_to(&self, t: Nanos) -> Nanos {
        if t.as_nanos() > self.now.get() {
            self.now.set(t.as_nanos());
        }
        self.now()
    }

    /// Measures the virtual time consumed by `f`.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, Nanos) {
        let start = self.now();
        let out = f();
        (out, self.now().saturating_sub(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors_round_trip() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_nanos(1_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos::SECOND);
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
        assert_eq!(Nanos::from_millis(2).as_millis_f64(), 2.0);
    }

    #[test]
    #[should_panic(expected = "Nanos subtraction underflow: 5 ns - 10 ns")]
    fn subtraction_panics_on_underflow_naming_both_operands() {
        let small = Nanos::from_nanos(5);
        let big = Nanos::from_nanos(10);
        assert_eq!(big - small, Nanos::from_nanos(5));
        assert_eq!(small.checked_sub(big), None);
        assert_eq!(small.saturating_sub(big), Nanos::ZERO);
        let _ = small - big;
    }

    #[test]
    #[should_panic(expected = "Nanos subtraction underflow: 0 ns - 1 ns")]
    fn subtract_assign_panics_on_underflow() {
        let mut t = Nanos::from_nanos(1);
        t -= Nanos::from_nanos(1);
        assert_eq!(t, Nanos::ZERO);
        t -= Nanos::from_nanos(1);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn clock_clones_share_a_timeline() {
        let clock = SimClock::new();
        let view = clock.clone();
        clock.advance(Nanos::from_nanos(7));
        view.advance(Nanos::from_nanos(3));
        assert_eq!(clock.now(), Nanos::from_nanos(10));
    }

    #[test]
    fn clock_never_goes_backwards() {
        let clock = SimClock::new();
        clock.advance(Nanos::from_millis(10));
        clock.advance_to(Nanos::from_millis(3));
        assert_eq!(clock.now(), Nanos::from_millis(10));
        clock.advance_to(Nanos::from_millis(30));
        assert_eq!(clock.now(), Nanos::from_millis(30));
    }

    #[test]
    fn measure_reports_elapsed_virtual_time() {
        let clock = SimClock::new();
        let (value, took) = clock.measure(|| {
            clock.advance(Nanos::from_micros(4));
            42
        });
        assert_eq!(value, 42);
        assert_eq!(took, Nanos::from_micros(4));
    }

    #[test]
    fn sum_of_nanos() {
        let total: Nanos = [1u64, 2, 3].into_iter().map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(6));
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        let _ = Nanos::from_secs_f64(-1.0);
    }
}
