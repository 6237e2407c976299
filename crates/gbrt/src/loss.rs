//! The boosting loss: squared error.
//!
//! The paper trains with squared error (`L(y, F) = (y − F)²`, §4.3.3) but
//! initializes with the *median* — the least-absolute-deviation initial
//! value of Friedman's Algorithm 1. These four steps are the boosting
//! loop's whole use of the loss; [`Gbrt::fit_traced`](crate::Gbrt::fit_traced)
//! and the reference trainer call them in the same order.

/// The constant model `F0`: the **median** of `targets`, following the
/// paper's Algorithm 1 (`F0(x) = median{y_i}`).
///
/// # Panics
///
/// Panics if `targets` is empty.
pub(crate) fn initial_value(targets: &[f64]) -> f64 {
    assert!(
        !targets.is_empty(),
        "cannot initialize on an empty target set"
    );
    median(targets)
}

/// The pseudo-residuals (negative gradients) `ỹ_i = y_i − f_i` for
/// current predictions `f`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn negative_gradient(targets: &[f64], predictions: &[f64]) -> Vec<f64> {
    assert_eq!(targets.len(), predictions.len(), "length mismatch");
    targets
        .iter()
        .zip(predictions)
        .map(|(&y, &f)| y - f)
        .collect()
}

/// The optimal additive leaf value `γ` for the samples in a terminal
/// region: the mean residual, which minimizes `Σ (y_i − f_i − γ)²`.
///
/// # Panics
///
/// Panics if the region is empty or lengths mismatch.
pub(crate) fn leaf_value(targets: &[f64], predictions: &[f64]) -> f64 {
    assert!(!targets.is_empty(), "empty leaf region");
    assert_eq!(targets.len(), predictions.len(), "length mismatch");
    let residuals: Vec<f64> = targets
        .iter()
        .zip(predictions)
        .map(|(&y, &f)| y - f)
        .collect();
    residuals.iter().sum::<f64>() / residuals.len() as f64
}

/// Mean squared loss of `predictions` against `targets`.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub(crate) fn mean_loss(targets: &[f64], predictions: &[f64]) -> f64 {
    assert_eq!(targets.len(), predictions.len(), "length mismatch");
    assert!(!targets.is_empty(), "empty loss evaluation");
    let n = targets.len() as f64;
    targets
        .iter()
        .zip(predictions)
        .map(|(&y, &f)| (y - f).powi(2))
        .sum::<f64>()
        / n
}

/// Median of a non-empty slice (average of the two middle elements for an
/// even count).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_is_median() {
        assert_eq!(initial_value(&[1.0, 9.0, 2.0]), 2.0);
        assert_eq!(initial_value(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn l2_gradient_is_residual() {
        let g = negative_gradient(&[3.0, 5.0], &[1.0, 6.0]);
        assert_eq!(g, vec![2.0, -1.0]);
    }

    #[test]
    fn l2_leaf_is_mean_residual() {
        let v = leaf_value(&[4.0, 6.0], &[1.0, 1.0]);
        assert_eq!(v, 4.0);
    }

    #[test]
    fn mean_loss_values() {
        assert_eq!(mean_loss(&[1.0, 2.0], &[0.0, 4.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn initial_value_rejects_empty() {
        initial_value(&[]);
    }
}
