//! The statistics the evaluation reports.
//!
//! * [`Ecdf`] — empirical CDF, used for the reading-time distribution
//!   (Fig. 7).
//! * [`pearson`] — Pearson correlation coefficient, reproducing Table 4.
//! * [`mean`] — the mean of a slice.

use serde::{Deserialize, Serialize};

/// Empirical cumulative distribution function over a sample.
///
/// # Example
///
/// ```
/// use ewb_simcore::stats::Ecdf;
///
/// let cdf = Ecdf::from_samples(vec![1.0, 2.0, 2.0, 8.0]);
/// assert!((cdf.fraction_at_or_below(2.0) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples, sorting them.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "ECDF needs at least one sample");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "ECDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Ecdf { sorted: samples }
    }

    /// P(X ≤ x) under the empirical distribution.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }
}

/// Pearson correlation coefficient between two equal-length series.
///
/// Returns 0.0 when either series is constant (the paper's Table 4 features
/// are never constant, but property tests feed degenerate inputs).
///
/// # Panics
///
/// Panics if the series lengths differ or are empty.
///
/// # Example
///
/// ```
/// use ewb_simcore::stats::pearson;
///
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    assert!(!x.is_empty(), "pearson: empty input");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
}

/// Mean of a slice; 0.0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_fractions() {
        let cdf = Ecdf::from_samples(vec![5.0, 1.0, 3.0, 3.0]);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.25);
        assert_eq!(cdf.fraction_at_or_below(3.0), 0.75);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn ecdf_rejects_empty() {
        Ecdf::from_samples(Vec::new());
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let z: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&x, &y), 0.0);
    }

    #[test]
    fn pearson_independent_is_near_zero() {
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(13);
        let x: Vec<f64> = (0..20_000).map(|_| rng.f64()).collect();
        let y: Vec<f64> = (0..20_000).map(|_| rng.f64()).collect();
        assert!(pearson(&x, &y).abs() < 0.03);
    }

    #[test]
    fn helper_functions() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((mean(&xs) - 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }
}
