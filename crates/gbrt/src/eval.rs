//! Model evaluation helpers.
//!
//! [`threshold_accuracy`] implements the paper's §5.6.1 accuracy metric:
//! "If the predicted reading time and the real reading time are both larger
//! or smaller than a given value (Td or Tp), the prediction is correct."

/// Root-mean-squared error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn rmse(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    assert!(!predictions.is_empty(), "empty evaluation");
    let n = predictions.len() as f64;
    (predictions
        .iter()
        .zip(targets)
        .map(|(&p, &y)| (p - y).powi(2))
        .sum::<f64>()
        / n)
        .sqrt()
}

/// The paper's prediction-accuracy metric: the fraction of samples where
/// prediction and truth fall on the *same side* of `threshold`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
///
/// # Example
///
/// ```
/// use ewb_gbrt::threshold_accuracy;
///
/// let pred = [5.0, 12.0, 30.0, 7.0];
/// let real = [3.0, 25.0, 22.0, 9.1];
/// // Sides vs 9 s: (below, above, above, below) vs (below, above, above, above)
/// assert!((threshold_accuracy(&pred, &real, 9.0) - 0.75).abs() < 1e-12);
/// ```
pub fn threshold_accuracy(predictions: &[f64], targets: &[f64], threshold: f64) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    assert!(!predictions.is_empty(), "empty evaluation");
    let correct = predictions
        .iter()
        .zip(targets)
        .filter(|&(&p, &y)| (p > threshold) == (y > threshold))
        .count();
    correct as f64 / predictions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_known_value() {
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn threshold_accuracy_extremes() {
        assert_eq!(threshold_accuracy(&[1.0, 20.0], &[2.0, 30.0], 9.0), 1.0);
        assert_eq!(threshold_accuracy(&[10.0, 1.0], &[1.0, 10.0], 9.0), 0.0);
    }

    #[test]
    fn threshold_accuracy_boundary_is_exclusive_above() {
        // A value exactly at the threshold counts as "not larger".
        assert_eq!(threshold_accuracy(&[9.0], &[9.0], 9.0), 1.0);
        assert_eq!(threshold_accuracy(&[9.0], &[9.1], 9.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}
