//! The deployable reading-time predictor.
//!
//! A GBRT over the Table 1 features, trained on `ln(1 + dwell)` — reading
//! times are heavy-tailed (a few multi-minute dwells dominate a squared
//! loss on raw seconds and drag every leaf mean upward), and the paper's
//! threshold decisions (`Tr > Tp`, `Tr > Td`) are invariant under the
//! monotone transform. Predictions are returned in seconds.

use crate::dataset::TraceDataset;
use crate::features::FeatureVector;
use ewb_gbrt::{Dataset, FlatForest, Gbrt, GbrtModel, GbrtParams};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A trained reading-time model (the artifact the paper "deploys to the
/// prediction program which is embedded in the web browser", §4.3.3).
///
/// Predictions run through a lazily compiled [`FlatForest`], the
/// prefix-table kernel the deployed device-side predictor would ship. It
/// is bit-identical to evaluating the enum model directly, NaN features
/// included.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadingTimePredictor {
    model: GbrtModel,
    /// Inference-compiled forest; rebuilt on demand after deserialization.
    #[serde(skip)]
    flat: OnceLock<FlatForest>,
}

impl PartialEq for ReadingTimePredictor {
    fn eq(&self, other: &Self) -> bool {
        // `flat` is a pure derivation of `model`.
        self.model == other.model
    }
}

impl ReadingTimePredictor {
    /// Trains on every visit of `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty or `params` are invalid.
    pub fn train(trace: &TraceDataset, params: &GbrtParams) -> Self {
        Self::train_dataset(&trace.to_gbrt_dataset(), params)
    }

    /// Trains with the paper's §4.3.4 interest-threshold filtering: visits
    /// shorter than `alpha_s` are excluded (the user leaves before the
    /// predictor would run).
    ///
    /// # Panics
    ///
    /// Panics if the filter removes every visit.
    pub fn train_with_interest_threshold(
        trace: &TraceDataset,
        alpha_s: f64,
        params: &GbrtParams,
    ) -> Self {
        let engaged = trace.engaged_only(alpha_s);
        assert!(!engaged.is_empty(), "interest threshold removed all visits");
        Self::train_dataset(&engaged.to_gbrt_dataset(), params)
    }

    /// Trains directly on a prepared GBRT dataset whose targets are raw
    /// reading times in seconds.
    pub fn train_dataset(data: &Dataset, params: &GbrtParams) -> Self {
        let log_targets: Vec<f64> = data.targets().iter().map(|&y| (1.0 + y).ln()).collect();
        let log_data = Dataset::new(data.rows().to_vec(), log_targets)
            .expect("log transform preserves validity");
        ReadingTimePredictor {
            model: Gbrt::fit(&log_data, params),
            flat: OnceLock::new(),
        }
    }

    /// Predicted reading time `Tr` in seconds.
    pub fn predict_seconds(&self, features: &FeatureVector) -> f64 {
        self.predict_row(&features.0)
    }

    /// Predicted reading time from a raw feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row has the wrong number of features.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        (self.flat().predict(row).exp() - 1.0).max(0.0)
    }

    /// Predicted reading times for a batch of row-major feature rows —
    /// the fleet simulator's hot-loop entry point. Runs the forest through
    /// [`FlatForest::predict_batch`], the same kernel as
    /// [`ReadingTimePredictor::predict_row`], and applies the seconds
    /// transform in place, so each result is bit-identical to
    /// `predict_row` on the same row. No heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len() * 10`.
    pub fn predict_rows(&self, rows: &[f64], out: &mut [f64]) {
        self.flat().predict_batch(rows, out);
        for y in out.iter_mut() {
            *y = (y.exp() - 1.0).max(0.0);
        }
    }

    /// The underlying forest.
    pub fn model(&self) -> &GbrtModel {
        &self.model
    }

    /// The inference-compiled forest, built on first use.
    pub fn flat(&self) -> &FlatForest {
        self.flat.get_or_init(|| self.model.flatten())
    }

    /// Serializes for deployment.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("predictor is always serializable")
    }

    /// Restores a deployed predictor.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TraceConfig;
    use crate::eval::reading_time_params;

    #[test]
    fn predicts_nonnegative_seconds() {
        let trace = TraceDataset::generate(&TraceConfig::small());
        let p = ReadingTimePredictor::train(&trace, &reading_time_params());
        for v in trace.visits().iter().take(50) {
            let pred = p.predict_seconds(&v.features);
            assert!((0.0..700.0).contains(&pred), "prediction {pred}");
        }
    }

    #[test]
    fn interest_threshold_training_raises_predictions() {
        let trace = TraceDataset::generate(&TraceConfig::small());
        let raw = ReadingTimePredictor::train(&trace, &reading_time_params());
        let engaged = ReadingTimePredictor::train_with_interest_threshold(
            &trace,
            2.0,
            &reading_time_params(),
        );
        // Bounces drag the raw model down; the filtered model predicts
        // longer dwell on average.
        let mean = |p: &ReadingTimePredictor| {
            let s: f64 = trace
                .visits()
                .iter()
                .take(200)
                .map(|v| p.predict_seconds(&v.features))
                .sum();
            s / 200.0
        };
        assert!(mean(&engaged) > mean(&raw));
    }

    #[test]
    fn flat_path_matches_enum_model() {
        let trace = TraceDataset::generate(&TraceConfig::small());
        let p = ReadingTimePredictor::train(&trace, &reading_time_params());
        for v in trace.visits().iter().take(100) {
            let row = v.features.to_vec();
            let via_flat = p.predict_row(&row);
            let via_model = (p.model().predict(&row).exp() - 1.0).max(0.0);
            assert_eq!(via_flat.to_bits(), via_model.to_bits());
        }
        assert_eq!(p.flat().n_trees(), p.model().n_trees());
    }

    #[test]
    fn batch_rows_match_single_rows_bitwise() {
        let trace = TraceDataset::generate(&TraceConfig::small());
        let p = ReadingTimePredictor::train(&trace, &reading_time_params());
        let visits: Vec<_> = trace.visits().iter().take(150).collect();
        let mut rows = Vec::new();
        for v in &visits {
            rows.extend_from_slice(&v.features.0);
        }
        let mut out = vec![0.0; visits.len()];
        p.predict_rows(&rows, &mut out);
        for (v, &y) in visits.iter().zip(&out) {
            assert_eq!(y.to_bits(), p.predict_seconds(&v.features).to_bits());
        }
    }

    #[test]
    fn json_roundtrip() {
        let trace = TraceDataset::generate(&TraceConfig::small());
        let p = ReadingTimePredictor::train(&trace, &reading_time_params());
        let restored = ReadingTimePredictor::from_json(&p.to_json()).unwrap();
        let v = &trace.visits()[0];
        assert_eq!(
            p.predict_seconds(&v.features),
            restored.predict_seconds(&v.features)
        );
    }
}
