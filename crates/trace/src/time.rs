//! Nanosecond-resolution virtual time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// The end of the time axis (DESIGN.md §5): instants and durations below
/// it are exact as `f64`s. Configurations that could carry an iteration
/// to it are refused where they enter, not checked per event.
pub const HORIZON_NS: u64 = 1 << 53;

/// A span of virtual time, in nanoseconds.
///
/// All simulator and oracle arithmetic is integral to keep results exactly
/// reproducible across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from seconds (fractional allowed).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid seconds {secs}");
        SimDuration(round_to_nanos(secs * 1e9))
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Multiplies by a non-negative float factor, saturating at the
    /// representable maximum instead of overflowing (used by exponential
    /// backoff, where late attempts can exceed any iteration horizon).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `factor` is negative or NaN.
    pub(crate) fn saturating_mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(!factor.is_nan() && factor >= 0.0, "invalid factor");
        SimDuration(round_to_nanos(self.0 as f64 * factor))
    }

    /// Multiplies by a non-negative float factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor.is_finite() && factor >= 0.0, "invalid factor");
        SimDuration(round_to_nanos(self.0 as f64 * factor))
    }
}

/// `x` rounded half away from zero to a nanosecond count, exactly as
/// `f64::round` followed by `as u64` gives it, without the call to a
/// software `round` that `f64::round` is on a baseline x86-64 target: the
/// truncation `t`, plus one when the dropped fraction `x − t` is at least a
/// half. Below 2^53 both `t` and `x − t` are exact; from 2^53 up every
/// double is an integer, so `x − t` is 0; and `as` sends NaN and negatives
/// to 0 and everything from 2^64 up to `u64::MAX`, as it does the rounded
/// value (hence the saturating add).
fn round_to_nanos(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An instant of virtual time (nanoseconds since iteration start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The time origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (debug builds overflow
    /// check).
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_conversions() {
        assert_eq!(SimDuration::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimDuration::from_nanos(500).as_secs_f64() - 5e-7).abs() < 1e-15);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.mul_f64(2.5).as_nanos(), 250);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: SimDuration = [a, b].into_iter().sum();
        assert_eq!(total.as_nanos(), 140);
    }

    #[test]
    fn time_and_duration_interact() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(5);
        assert_eq!(t1.as_nanos(), 5_000_000);
        assert_eq!(t1 - t0, SimDuration::from_millis(5));
        assert_eq!(t1.duration_since(t0).as_millis_f64(), 5.0);
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs_f64(1.25).to_string(), "1.250s");
        assert_eq!(SimTime::from_nanos(1_000).to_string(), "t+1.000us");
    }

    /// The reference: what the three rounding callers computed before
    /// they shared `round_to_nanos`.
    fn rounded(x: f64) -> u64 {
        f64::round(x) as u64
    }

    #[test]
    fn round_to_nanos_is_round_on_edge_values() {
        let two = 2f64;
        let below_half = f64::from_bits(0.5f64.to_bits() - 1);
        let edges = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            below_half,
            two.powi(52) - 0.5,
            two.powi(52) + 0.5,
            two.powi(53) - 1.0,
            two.powi(63),
            two.powi(64),
            1e300,
            -0.3,
            -0.7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in edges {
            assert_eq!(round_to_nanos(x), rounded(x), "{x:e}");
        }
        // Halves round away from zero, the largest double below a half
        // does not, and everything from 2^64 up saturates.
        assert_eq!(round_to_nanos(below_half), 0);
        assert_eq!(round_to_nanos(2.5), 3);
        assert_eq!(round_to_nanos(two.powi(52) - 0.5), 1 << 52);
        assert_eq!(round_to_nanos(two.powi(64)), u64::MAX);
        assert_eq!(round_to_nanos(f64::NAN), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Every bit pattern as drawn (most lie far outside `[0, 2^64)` or
        /// below one), and again with its exponent forced into
        /// `[2^-2, 2^65)`, where truncation, the half and saturation all
        /// happen.
        #[test]
        fn round_to_nanos_is_round_over_bit_patterns(bits in any::<u64>(), exp in 1021u64..1088) {
            let raw = f64::from_bits(bits);
            prop_assert_eq!(round_to_nanos(raw), rounded(raw), "{:e}", raw);
            let near = f64::from_bits((bits & !(0x7ff << 52)) | (exp << 52));
            prop_assert_eq!(round_to_nanos(near), rounded(near), "{:e}", near);
        }

        /// `mul_f64`, `saturating_mul_f64` and `from_secs_f64` against the
        /// expressions they replaced, over durations of every magnitude and
        /// factors in `[0, 4)`.
        #[test]
        fn round_to_nanos_keeps_scaled_durations(nanos in any::<u64>(), shift in 0u32..64, factor in 0.0f64..4.0) {
            let d = SimDuration::from_nanos(nanos >> shift);
            let product = d.as_nanos() as f64 * factor;
            prop_assert_eq!(d.mul_f64(factor).as_nanos(), rounded(product));
            let saturated = if product >= u64::MAX as f64 { u64::MAX } else { rounded(product) };
            prop_assert_eq!(d.saturating_mul_f64(factor).as_nanos(), saturated);
            let secs = d.as_secs_f64() * factor;
            prop_assert_eq!(SimDuration::from_secs_f64(secs).as_nanos(), rounded(secs * 1e9));
        }
    }
}
