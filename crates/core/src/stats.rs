//! Statistics utilities for the evaluation harness.
//!
//! Small, dependency-free implementations of the analysis tools the paper's
//! figures need: summary statistics, percentiles and CDFs (Fig. 12b),
//! and ordinary least squares with `R²` (the regression of Fig. 12a).

/// Mean / spread / extrema of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (`std / mean`; 0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean
        }
    }
}

/// The `p`-th percentile (0 ≤ p ≤ 100) by linear interpolation between
/// order statistics.
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical CDF over a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the empirical CDF of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
        Self { sorted }
    }

    /// `F(x)`: fraction of the sample ≤ `x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (inverse CDF), `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        percentile(&self.sorted, q * 100.0)
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is over an empty sample (never true by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `(x, F(x))` points for plotting, one per sample.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }

    /// Renders the CDF as a fixed-width ASCII curve for terminal reports:
    /// one row per decile.
    pub fn to_ascii(&self, width: usize) -> String {
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let mut out = String::new();
        for decile in (0..=10).rev() {
            let q = decile as f64 / 10.0;
            let x = self.quantile(q);
            let pos = (((x - lo) / span) * (width.saturating_sub(1)) as f64).round() as usize;
            out.push_str(&format!("{:>4.0}% |", q * 100.0));
            for c in 0..width {
                out.push(if c == pos { '*' } else { ' ' });
            }
            out.push('\n');
        }
        out
    }
}

/// A fitted line `y = intercept + slope · x` with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlsFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination `R²`.
    pub r2: f64,
}

impl OlsFit {
    /// Predicts `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fits `y = a + b·x` by least squares.
///
/// # Panics
///
/// Panics if the series lengths differ, fewer than two points are given, or
/// all `x` are identical (degenerate design matrix).
pub fn ols(x: &[f64], y: &[f64]) -> OlsFit {
    assert_eq!(x.len(), y.len(), "series lengths differ");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|xi| (xi - mx).powi(2)).sum();
    assert!(sxx > 0.0, "all x identical");
    let sxy: f64 = x.iter().zip(y).map(|(xi, yi)| (xi - mx) * (yi - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;

    let ss_tot: f64 = y.iter().map(|yi| (yi - my).powi(2)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(xi, yi)| (yi - (intercept + slope * xi)).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    OlsFit {
        slope,
        intercept,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert!((s.std - 2.138).abs() < 0.001);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.cv() - 2.138 / 5.0).abs() < 0.001);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 3.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert!((percentile(&xs, 95.0) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_order_invariant() {
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }

    #[test]
    fn fraction_and_quantile_are_consistent() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(3.0), 0.6);
        assert_eq!(cdf.fraction_at(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
        assert_eq!(cdf.quantile(0.5), 3.0);
        assert_eq!(cdf.len(), 5);
        assert!(!cdf.is_empty());
    }

    #[test]
    fn points_are_monotone() {
        let cdf = Cdf::from_samples(&[3.0, 1.0, 2.0]);
        let pts: Vec<_> = cdf.points().collect();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn a_sharper_distribution_has_tighter_quantiles() {
        // The paper's Fig. 12b point: TAC's step-time CDF is sharp, the
        // baseline's is wide.
        let sharp = Cdf::from_samples(&[0.99, 1.0, 1.0, 1.01, 1.0]);
        let wide = Cdf::from_samples(&[0.5, 0.7, 0.9, 1.0, 0.6]);
        let spread = |c: &Cdf| c.quantile(0.95) - c.quantile(0.05);
        assert!(spread(&sharp) < spread(&wide));
    }

    #[test]
    fn ascii_rendering_has_eleven_rows() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0]);
        let art = cdf.to_ascii(20);
        assert_eq!(art.lines().count(), 11);
        assert!(art.contains('*'));
    }

    #[test]
    fn perfect_line_has_r2_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0]; // y = 1 + 2x
        let fit = ols(&x, &y);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert!((fit.predict(5.0) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_high_but_imperfect_r2() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&xi| {
                2.0 * xi
                    + 1.0
                    + if (xi as u64).is_multiple_of(2) {
                        0.5
                    } else {
                        -0.5
                    }
            })
            .collect();
        let fit = ols(&x, &y);
        assert!(fit.r2 > 0.99 && fit.r2 < 1.0, "r2 {}", fit.r2);
    }

    #[test]
    fn uncorrelated_data_has_low_r2() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let fit = ols(&x, &y);
        assert!(fit.r2 < 0.2, "r2 {}", fit.r2);
    }

    #[test]
    fn constant_y_is_perfectly_fit() {
        let fit = ols(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn degenerate_x_panics() {
        ols(&[2.0, 2.0], &[1.0, 3.0]);
    }
}
