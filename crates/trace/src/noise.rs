//! Runtime-variance models.
//!
//! The paper attributes iteration-time variance to two sources (§6.3):
//! per-op system noise and occasional system-level slowdowns of an entire
//! worker. Both are modelled here with a seeded RNG so simulations are
//! exactly reproducible.

use crate::time::SimDuration;
use rand::Rng;

/// Multiplicative log-normal per-op noise plus occasional whole-worker
/// slowdowns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of the underlying normal; a per-op duration is
    /// multiplied by `exp(sigma * z)`, `z ~ N(0,1)`.
    sigma: f64,
    /// Probability that a worker experiences a system-level slowdown in a
    /// given iteration.
    slowdown_prob: f64,
    /// Multiplicative factor applied to all ops of a slowed-down worker.
    slowdown_factor: f64,
}

impl NoiseModel {
    /// No noise at all: durations are exactly the oracle's predictions.
    pub fn none() -> Self {
        Self {
            sigma: 0.0,
            slowdown_prob: 0.0,
            slowdown_factor: 1.0,
        }
    }

    /// Default noise calibrated to the paper's observations: a few percent
    /// of per-op jitter, and a 1% chance per iteration that a worker is
    /// slowed by 1.15x (background interference on shared cloud hardware).
    ///
    /// The calibration keeps system-level variance *small relative to
    /// schedule-induced variance*, matching the paper's finding that "most
    /// of the variation in iteration time arises from random schedules in
    /// parameter transfers" (§6.2, R² = 0.98).
    pub fn realistic() -> Self {
        Self {
            sigma: 0.04,
            slowdown_prob: 0.01,
            slowdown_factor: 1.15,
        }
    }

    /// Noise for a dedicated (non-shared) cluster, like the paper's envC:
    /// half the jitter of [`NoiseModel::realistic`] and rare slowdowns.
    pub fn dedicated() -> Self {
        Self {
            sigma: 0.02,
            slowdown_prob: 0.005,
            slowdown_factor: 1.15,
        }
    }

    /// The per-op jitter parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The per-iteration whole-worker slowdown probability.
    pub fn slowdown_prob(&self) -> f64 {
        self.slowdown_prob
    }

    /// Draws a multiplicative per-op noise factor.
    pub(crate) fn op_factor(&self, rng: &mut impl Rng) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        (self.sigma * standard_normal(rng)).exp()
    }

    /// Applies per-op noise to a duration.
    pub fn apply(&self, rng: &mut impl Rng, base: SimDuration) -> SimDuration {
        base.mul_f64(self.op_factor(rng))
    }

    /// Draws this iteration's slowdown factor for one worker: either 1.0
    /// (typical) or the configured slowdown.
    pub fn worker_factor(&self, rng: &mut impl Rng) -> f64 {
        if self.slowdown_prob > 0.0 && rng.gen::<f64>() < self.slowdown_prob {
            self.slowdown_factor
        } else {
            1.0
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::realistic()
    }
}

/// Samples a standard normal via the Box–Muller transform (avoids an extra
/// dependency on `rand_distr`).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_identity() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = NoiseModel::none();
        let d = SimDuration::from_micros(100);
        assert_eq!(n.apply(&mut rng, d), d);
        assert_eq!(n.worker_factor(&mut rng), 1.0);
    }

    #[test]
    fn noise_is_seeded_and_reproducible() {
        let n = NoiseModel::realistic();
        let d = SimDuration::from_micros(100);
        let a: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(7);
            (0..5).map(|_| n.apply(&mut rng, d)).collect()
        };
        let b: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(7);
            (0..5).map(|_| n.apply(&mut rng, d)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn op_factor_distribution_is_sane() {
        let n = NoiseModel {
            sigma: 0.05,
            slowdown_prob: 0.0,
            slowdown_factor: 1.0,
        };
        let mut rng = SmallRng::seed_from_u64(42);
        let samples: Vec<f64> = (0..10_000).map(|_| n.op_factor(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // Log-normal with sigma=0.05 has mean exp(0.00125) ~ 1.00125.
        assert!((mean - 1.0).abs() < 0.01, "mean {mean} too far from 1");
        assert!(samples.iter().all(|&f| f > 0.5 && f < 2.0));
    }

    #[test]
    fn worker_slowdown_happens_at_configured_rate() {
        let n = NoiseModel {
            sigma: 0.0,
            slowdown_prob: 0.25,
            slowdown_factor: 2.0,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let slowed = (0..10_000)
            .filter(|_| n.worker_factor(&mut rng) > 1.0)
            .count();
        let rate = slowed as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }
}
