//! Ordinary least squares (the regression test of Fig. 12a).

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
