//! Empirical cumulative distribution functions (Fig. 12b).

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
        crate::percentile(&self.sorted, q * 100.0)
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
