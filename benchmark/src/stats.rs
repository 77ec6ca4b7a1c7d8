//! The estimator every timing metric goes through: the median over
//! passes, reported with the sample count, minimum and maximum.

/// Median, extremes and count of one metric's per-pass samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Estimate {
    /// A value that is not a sample median: measured once, or exact.
    pub fn exact(value: f64) -> Self {
        Estimate {
            n: 1,
            median: value,
            min: value,
            max: value,
        }
    }
}

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Median/min/max over `samples`; `None` when empty.
pub fn estimate(samples: &[f64]) -> Option<Estimate> {
    Some(Estimate {
        n: samples.len(),
        median: median(samples)?,
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn estimate_reports_count_and_extremes() {
        let e = estimate(&[2.0, 9.0, 4.0, 1.0, 7.0]).unwrap();
        assert_eq!(
            e,
            Estimate {
                n: 5,
                median: 4.0,
                min: 1.0,
                max: 9.0
            }
        );
        assert_eq!(estimate(&[]), None);
    }

    #[test]
    fn one_outlier_does_not_move_the_median() {
        let calm = median(&[1.0, 1.1, 0.9, 1.05, 0.95]).unwrap();
        let spiked = median(&[1.0, 1.1, 0.9, 1.05, 30.0]).unwrap();
        assert!((calm - 1.0).abs() < 1e-12);
        assert!((spiked - 1.05).abs() < 1e-12);
    }
}
