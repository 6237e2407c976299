//! The Fig. 15 prediction-accuracy experiment.
//!
//! §5.6.1: "If the predicted reading time and the real reading time are
//! both larger or smaller than a given value (Td or Tp), the prediction is
//! correct." The experiment compares training/evaluating on the raw trace
//! against training/evaluating with the interest threshold applied (all
//! sub-α visits excluded, since the user navigates away before the
//! predictor would even run) — the paper reports the threshold is worth
//! at least +10 accuracy points.

use crate::dataset::TraceDataset;
use ewb_gbrt::{threshold_accuracy, GbrtParams};
use ewb_simcore::{par_map, Xoshiro256};
use serde::{Deserialize, Serialize};

/// Accuracy measurement output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Decision threshold used (Tp = 9 s or Td = 20 s).
    pub decision_threshold_s: f64,
    /// Fraction of test visits classified to the correct side.
    pub accuracy: f64,
    /// Training-set size.
    pub train_size: usize,
    /// Test-set size.
    pub test_size: usize,
}

/// Default GBRT hyper-parameters for the reading-time model: forests of
/// 8-leaf trees, as the paper evaluates (Table 7).
pub fn reading_time_params() -> GbrtParams {
    GbrtParams {
        n_trees: 150,
        max_leaves: 8,
        learning_rate: 0.08,
        subsample: 0.8,
        min_samples_leaf: 8,
        ..GbrtParams::default()
    }
}

/// Trains on 70 % of the raw trace and evaluates threshold accuracy on
/// the rest — Fig. 15's "without interest threshold" bars.
pub fn accuracy_without_threshold(
    trace: &TraceDataset,
    decision_threshold_s: f64,
    seed: u64,
) -> AccuracyReport {
    evaluate(trace, decision_threshold_s, seed)
}

/// Excludes sub-α visits from both training and evaluation (the predictor
/// only runs after the user has stayed past α), then measures accuracy —
/// Fig. 15's "with interest threshold" bars.
///
/// # Panics
///
/// Panics if the threshold removes every visit.
pub fn accuracy_with_threshold(
    trace: &TraceDataset,
    alpha_s: f64,
    decision_threshold_s: f64,
    seed: u64,
) -> AccuracyReport {
    let engaged = trace.engaged_only(alpha_s);
    assert!(!engaged.is_empty(), "interest threshold removed all visits");
    evaluate(&engaged, decision_threshold_s, seed)
}

fn evaluate(trace: &TraceDataset, decision_threshold_s: f64, seed: u64) -> AccuracyReport {
    let data = trace.to_gbrt_dataset();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let (train, test) = data.split(0.7, &mut rng);
    let predictor =
        crate::predictor::ReadingTimePredictor::train_dataset(&train, &reading_time_params());
    let predictions: Vec<f64> = (0..test.len())
        .map(|i| predictor.predict_row(test.row(i)))
        .collect();
    let accuracy = threshold_accuracy(&predictions, test.targets(), decision_threshold_s);
    AccuracyReport {
        decision_threshold_s,
        accuracy,
        train_size: train.len(),
        test_size: test.len(),
    }
}

/// One cell of an accuracy-evaluation grid: an optional interest
/// threshold α, a decision threshold (Tp or Td), and a train/test split
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalCell {
    /// Interest threshold α in seconds; `None` evaluates the raw trace.
    pub alpha_s: Option<f64>,
    /// Decision threshold in seconds (Tp = 9 or Td = 20).
    pub decision_threshold_s: f64,
    /// Split seed.
    pub seed: u64,
}

/// Evaluates every cell of a grid, fanning the independent (α, T, seed)
/// cells out with [`par_map`]. Each cell trains its own model, so the
/// cells share nothing; results come back in `cells` order and are
/// identical to calling [`accuracy_without_threshold`] /
/// [`accuracy_with_threshold`] serially.
///
/// # Panics
///
/// Panics if any cell's interest threshold removes every visit.
pub fn accuracy_grid(trace: &TraceDataset, cells: &[EvalCell]) -> Vec<AccuracyReport> {
    par_map(cells, |cell| match cell.alpha_s {
        None => accuracy_without_threshold(trace, cell.decision_threshold_s, cell.seed),
        Some(alpha) => accuracy_with_threshold(trace, alpha, cell.decision_threshold_s, cell.seed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TraceConfig;

    fn trace() -> TraceDataset {
        TraceDataset::generate(&TraceConfig::paper())
    }

    #[test]
    fn grid_matches_serial_evaluation() {
        let t = TraceDataset::generate(&TraceConfig::small());
        let cells = [
            EvalCell {
                alpha_s: None,
                decision_threshold_s: 9.0,
                seed: 1,
            },
            EvalCell {
                alpha_s: Some(2.0),
                decision_threshold_s: 9.0,
                seed: 1,
            },
            EvalCell {
                alpha_s: Some(2.0),
                decision_threshold_s: 20.0,
                seed: 2,
            },
        ];
        let parallel = accuracy_grid(&t, &cells);
        let serial = [
            accuracy_without_threshold(&t, 9.0, 1),
            accuracy_with_threshold(&t, 2.0, 9.0, 1),
            accuracy_with_threshold(&t, 2.0, 20.0, 2),
        ];
        assert_eq!(parallel, serial);
    }

    #[test]
    fn threshold_improves_accuracy_by_ten_points() {
        let t = trace();
        for decision in [9.0, 20.0] {
            let without = accuracy_without_threshold(&t, decision, 1);
            let with = accuracy_with_threshold(&t, 2.0, decision, 1);
            println!(
                "T={decision}: without {:.3}, with {:.3}",
                without.accuracy, with.accuracy
            );
            assert!(
                with.accuracy >= without.accuracy + 0.08,
                "threshold should add ≈10 points at T={decision}: {} -> {}",
                without.accuracy,
                with.accuracy
            );
        }
    }

    #[test]
    fn with_threshold_accuracy_is_high() {
        let t = trace();
        let at9 = accuracy_with_threshold(&t, 2.0, 9.0, 2);
        let at20 = accuracy_with_threshold(&t, 2.0, 20.0, 2);
        assert!(at9.accuracy > 0.78, "Tp=9 accuracy {}", at9.accuracy);
        assert!(at20.accuracy > 0.78, "Td=20 accuracy {}", at20.accuracy);
    }

    #[test]
    fn report_sizes_are_consistent() {
        let t = TraceDataset::generate(&TraceConfig::small());
        let r = accuracy_without_threshold(&t, 9.0, 3);
        assert_eq!(r.train_size + r.test_size, t.len());
        assert!((0.0..=1.0).contains(&r.accuracy));
        assert_eq!(r.decision_threshold_s, 9.0);
    }
}

/// Cross-user generalization: train on the first `train_users` users,
/// evaluate on everyone else. The paper deploys one offline-trained model
/// and argues retraining should be rare ("the user behavior of web
/// browsing generally does not change too much", §4.3.3; §5.6.3 warns
/// that frequent retraining risks overfitting) — so a model trained on
/// *other* users' traces must hold up on unseen users.
///
/// # Panics
///
/// Panics if the split leaves either side empty.
pub fn cross_user_accuracy(
    trace: &TraceDataset,
    alpha_s: f64,
    decision_threshold_s: f64,
    train_users: u32,
) -> AccuracyReport {
    let engaged = trace.engaged_only(alpha_s);
    let train_visits: Vec<_> = engaged
        .visits()
        .iter()
        .filter(|v| v.user < train_users)
        .collect();
    let test_visits: Vec<_> = engaged
        .visits()
        .iter()
        .filter(|v| v.user >= train_users)
        .collect();
    assert!(
        !train_visits.is_empty() && !test_visits.is_empty(),
        "cross-user split must leave users on both sides"
    );
    let to_dataset = |visits: &[&crate::dataset::PageVisit]| {
        ewb_gbrt::Dataset::new(
            visits.iter().map(|v| v.features.to_vec()).collect(),
            visits.iter().map(|v| v.reading_time_s).collect(),
        )
        .expect("trace visits are valid")
    };
    let train = to_dataset(&train_visits);
    let test = to_dataset(&test_visits);
    let predictor =
        crate::predictor::ReadingTimePredictor::train_dataset(&train, &reading_time_params());
    let predictions: Vec<f64> = (0..test.len())
        .map(|i| predictor.predict_row(test.row(i)))
        .collect();
    AccuracyReport {
        decision_threshold_s,
        accuracy: threshold_accuracy(&predictions, test.targets(), decision_threshold_s),
        train_size: train.len(),
        test_size: test.len(),
    }
}

#[cfg(test)]
mod cross_user_tests {
    use super::*;
    use crate::dataset::TraceConfig;

    #[test]
    fn model_generalizes_to_unseen_users() {
        let trace = TraceDataset::generate(&TraceConfig::paper());
        let within = accuracy_with_threshold(&trace, 2.0, 9.0, 5);
        let across = cross_user_accuracy(&trace, 2.0, 9.0, 30);
        println!(
            "within-user {:.3}, cross-user {:.3}",
            within.accuracy, across.accuracy
        );
        // A model trained on 30 users must hold up on the other 10 —
        // within a few points of the mixed-split accuracy.
        assert!(
            across.accuracy > within.accuracy - 0.06,
            "cross-user {:.3} vs within {:.3}",
            across.accuracy,
            within.accuracy
        );
        assert!(across.accuracy > 0.72);
    }

    #[test]
    #[should_panic(expected = "both sides")]
    fn degenerate_split_panics() {
        let trace = TraceDataset::generate(&TraceConfig::small());
        cross_user_accuracy(&trace, 2.0, 9.0, 1000);
    }
}
