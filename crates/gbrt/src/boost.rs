//! Gradient boosting (the paper's Algorithm 1, "Regression Tree Boost").
//!
//! ```text
//! F0(x) = median{y}
//! for m in 1..=M:
//!     ỹ_i   = -∂L(y_i, F_{m-1}(x_i)) / ∂F_{m-1}(x_i)       (pseudo-residuals)
//!     {R_jm} = J-terminal-node tree fitted to {ỹ_i, x_i}
//!     γ_jm  = argmin_γ Σ_{x_i ∈ R_jm} L(y_i, F_{m-1}(x_i) + γ)
//!     F_m(x) = F_{m-1}(x) + ν · Σ_j γ_jm · 1(x ∈ R_jm)
//! ```
//!
//! `ν` is the shrinkage (learning rate); the paper's Table 7 measures
//! prediction cost for forests of 1 000–20 000 trees of 8 nodes each.

use crate::data::Dataset;
use crate::flat::FlatForest;
use crate::loss;
use crate::splitter::{fit_presorted, Presorted};
use crate::tree::{RegressionTree, TreeParams};
use ewb_simcore::Xoshiro256;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbrtParams {
    /// Number of boosting iterations `M`.
    pub n_trees: usize,
    /// Terminal nodes per tree `J` (paper default: 8).
    pub max_leaves: usize,
    /// Shrinkage `ν` applied to every tree's contribution.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) per iteration;
    /// 1.0 disables subsampling (stochastic gradient boosting otherwise).
    pub subsample: f64,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Seed for the subsampling stream.
    pub seed: u64,
}

impl Default for GbrtParams {
    fn default() -> Self {
        GbrtParams {
            n_trees: 200,
            max_leaves: 8,
            learning_rate: 0.1,
            subsample: 1.0,
            min_samples_leaf: 2,
            seed: 0,
        }
    }
}

impl GbrtParams {
    /// Validates the hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_trees == 0 {
            return Err("n_trees must be at least 1".to_string());
        }
        if self.max_leaves < 2 {
            return Err("max_leaves must be at least 2".to_string());
        }
        if !(self.learning_rate.is_finite()
            && self.learning_rate > 0.0
            && self.learning_rate <= 1.0)
        {
            return Err(format!(
                "learning_rate must be in (0,1], got {}",
                self.learning_rate
            ));
        }
        if !(self.subsample.is_finite() && self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(format!(
                "subsample must be in (0,1], got {}",
                self.subsample
            ));
        }
        Ok(())
    }
}

/// A trained boosted forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbrtModel {
    pub(crate) init: f64,
    pub(crate) trees: Vec<RegressionTree>,
    pub(crate) n_features: usize,
}

/// The trainer. (A unit struct namespace: `Gbrt::fit` mirrors the paper's
/// "Regression Tree Boost" procedure name.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Gbrt;

impl Gbrt {
    /// Trains a model on `data` with `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`GbrtParams::validate`].
    pub fn fit(data: &Dataset, params: &GbrtParams) -> GbrtModel {
        Gbrt::fit_traced(data, params).0
    }

    /// Like [`Gbrt::fit`], additionally returning the training loss after
    /// each boosting stage (useful for convergence tests and the ablation
    /// benches).
    ///
    /// Each iteration fits its tree over pre-sorted feature columns
    /// (argsorted once per call, partitioned down each tree), then
    /// resolves every sample's leaf region in a single traversal reused
    /// for both the γ fit and the `F_m` update. Output is bit-identical
    /// to [`Gbrt::fit_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`GbrtParams::validate`].
    pub fn fit_traced(data: &Dataset, params: &GbrtParams) -> (GbrtModel, Vec<f64>) {
        if let Err(e) = params.validate() {
            panic!("invalid GbrtParams: {e}");
        }
        let n = data.len();
        let targets = data.targets();
        let cols = data.columns();
        let pre = Presorted::new(cols, n);
        let init = loss::initial_value(targets);
        let mut predictions = vec![init; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut loss_curve = Vec::with_capacity(params.n_trees);
        let mut rng = Xoshiro256::seed_from_u64(params.seed);
        let tree_params = TreeParams {
            max_leaves: params.max_leaves,
            min_samples_leaf: params.min_samples_leaf,
        };

        // Reusable per-iteration buffers: the subsample index list, each
        // sample's leaf region, the region-grouped sample ids (a counting
        // sort over the handful of node ids), and the per-leaf target /
        // prediction scratch handed to the loss.
        let mut indices_buf: Vec<usize> = Vec::with_capacity(n);
        let mut leaf_buf: Vec<u32> = vec![0; n];
        let mut members: Vec<u32> = vec![0; n];
        let mut ys: Vec<f64> = Vec::new();
        let mut fs: Vec<f64> = Vec::new();

        for _ in 0..params.n_trees {
            // Pseudo-residuals under the current model.
            let residuals = loss::negative_gradient(targets, &predictions);

            let mut tree = if params.subsample < 1.0 {
                // Stochastic subsample: shuffle the full id list (same RNG
                // stream as ever), keep the first k.
                let k = ((n as f64) * params.subsample).ceil().max(1.0) as usize;
                indices_buf.clear();
                indices_buf.extend(0..n);
                rng.shuffle(&mut indices_buf);
                indices_buf.truncate(k);
                fit_presorted(cols, &pre, &residuals, Some(&indices_buf), &tree_params)
            } else {
                fit_presorted(cols, &pre, &residuals, None, &tree_params)
            };

            // One traversal per sample; the leaf ids drive the γ fit and
            // the prediction update below.
            for (i, leaf) in leaf_buf.iter_mut().enumerate() {
                *leaf = tree.leaf_id(data.row(i)) as u32;
            }

            // Loss-optimal leaf values γ_jm over the *training* samples in
            // each region (all samples, not just the subsample — the
            // regions partition the whole space). Counting sort groups
            // samples by leaf; members stay in sample-id order.
            let n_nodes = tree.n_nodes();
            let mut offsets = vec![0u32; n_nodes + 1];
            for &l in leaf_buf.iter() {
                offsets[l as usize + 1] += 1;
            }
            for i in 0..n_nodes {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor = offsets.clone();
            for (i, &l) in leaf_buf.iter().enumerate() {
                members[cursor[l as usize] as usize] = i as u32;
                cursor[l as usize] += 1;
            }
            for leaf in 0..n_nodes {
                let (start, end) = (offsets[leaf] as usize, offsets[leaf + 1] as usize);
                if start == end {
                    continue;
                }
                ys.clear();
                fs.clear();
                for &i in &members[start..end] {
                    ys.push(targets[i as usize]);
                    fs.push(predictions[i as usize]);
                }
                let gamma = loss::leaf_value(&ys, &fs);
                tree.set_leaf_value(leaf, gamma * params.learning_rate);
            }

            // F_m = F_{m-1} + ν γ — reusing the cached leaf ids.
            for (i, &l) in leaf_buf.iter().enumerate() {
                predictions[i] += tree.node_leaf_value(l as usize);
            }
            loss_curve.push(loss::mean_loss(targets, &predictions));
            trees.push(tree);
        }

        (
            GbrtModel {
                init,
                trees,
                n_features: data.n_features(),
            },
            loss_curve,
        )
    }

    /// Trains with the original implementation (per-node re-sorting tree
    /// trainer, `HashMap` region map, per-sample tree walks) — see the
    /// crate's private `reference` module. Bit-identical to [`Gbrt::fit`]
    /// and kept as the baseline for golden tests and the training
    /// benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`GbrtParams::validate`].
    pub fn fit_reference(data: &Dataset, params: &GbrtParams) -> GbrtModel {
        crate::reference::fit_boosted(data, params).0
    }
}

impl GbrtModel {
    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.init + self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// Predicts every row of `data`.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// Prediction using only the first `m` trees — the staged model `F_m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the number of trees or `x` has the wrong
    /// width.
    pub fn predict_staged(&self, x: &[f64], m: usize) -> f64 {
        assert!(
            m <= self.trees.len(),
            "stage {m} > {} trees",
            self.trees.len()
        );
        self.init + self.trees[..m].iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// The constant initial model `F0`.
    pub fn initial_value(&self) -> f64 {
        self.init
    }

    /// Number of trees `M`.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Read access to the individual trees (for importance analysis).
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Compiles the forest for the bitvector inference kernel (see
    /// [`FlatForest`]).
    pub fn flatten(&self) -> FlatForest {
        FlatForest::from_model(self)
    }

    /// Serializes the model to JSON — the paper's "deploy the tree model
    /// to the prediction program" step (§4.3.3).
    ///
    /// # Panics
    ///
    /// Never panics for models produced by [`Gbrt::fit`] (all values are
    /// finite).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("GbrtModel is always serializable")
    }

    /// Deserializes a model from [`GbrtModel::to_json`] output.
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
    use crate::eval::rmse;

    /// A nonlinear, interaction-heavy synthetic regression problem.
    fn friedman_like(n: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..5).map(|_| rng.f64()).collect();
            let y = 10.0 * (std::f64::consts::PI * x[0] * x[1]).sin()
                + 20.0 * (x[2] - 0.5).powi(2)
                + 10.0 * x[3]
                + 5.0 * x[4];
            rows.push(x);
            ys.push(y);
        }
        Dataset::new(rows, ys).unwrap()
    }

    #[test]
    fn training_loss_is_nonincreasing_for_l2() {
        let data = friedman_like(300, 1);
        let (_, curve) = Gbrt::fit_traced(
            &data,
            &GbrtParams {
                n_trees: 60,
                ..GbrtParams::default()
            },
        );
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "loss increased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let data = friedman_like(500, 2);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 300,
                learning_rate: 0.1,
                ..GbrtParams::default()
            },
        );
        let err = rmse(&model.predict_all(&data), data.targets());
        let baseline = rmse(&vec![model.initial_value(); data.len()], data.targets());
        assert!(err < baseline * 0.25, "rmse {err} vs baseline {baseline}");
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let data = friedman_like(1200, 3);
        let mut rng = Xoshiro256::seed_from_u64(9);
        let (train, test) = data.split(0.7, &mut rng);
        let model = Gbrt::fit(
            &train,
            &GbrtParams {
                n_trees: 300,
                ..GbrtParams::default()
            },
        );
        let err = rmse(&model.predict_all(&test), test.targets());
        let baseline = rmse(&vec![model.initial_value(); test.len()], test.targets());
        assert!(
            err < baseline * 0.5,
            "test rmse {err} vs baseline {baseline}"
        );
    }

    #[test]
    fn initial_value_is_target_median() {
        let data =
            Dataset::new(vec![vec![0.0], vec![1.0], vec![2.0]], vec![1.0, 100.0, 3.0]).unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 1,
                ..GbrtParams::default()
            },
        );
        assert_eq!(model.initial_value(), 3.0);
    }

    #[test]
    fn staged_prediction_matches_full() {
        let data = friedman_like(200, 4);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 30,
                ..GbrtParams::default()
            },
        );
        let x = data.row(0);
        assert_eq!(model.predict_staged(x, 30), model.predict(x));
        assert_eq!(model.predict_staged(x, 0), model.initial_value());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = friedman_like(200, 5);
        let p = GbrtParams {
            n_trees: 20,
            subsample: 0.6,
            seed: 11,
            ..GbrtParams::default()
        };
        let a = Gbrt::fit(&data, &p);
        let b = Gbrt::fit(&data, &p);
        assert_eq!(a, b);
        let c = Gbrt::fit(&data, &GbrtParams { seed: 12, ..p });
        assert_ne!(a, c, "different seed should subsample differently");
    }

    #[test]
    fn subsampling_still_converges() {
        let data = friedman_like(400, 6);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 200,
                subsample: 0.5,
                ..GbrtParams::default()
            },
        );
        let err = rmse(&model.predict_all(&data), data.targets());
        let baseline = rmse(&vec![model.initial_value(); data.len()], data.targets());
        assert!(err < baseline * 0.5, "rmse {err} vs baseline {baseline}");
    }

    #[test]
    fn trees_have_at_most_j_leaves() {
        let data = friedman_like(300, 8);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 10,
                max_leaves: 8,
                ..GbrtParams::default()
            },
        );
        for t in model.trees() {
            assert!(t.n_leaves() <= 8);
        }
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let data = friedman_like(150, 9);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 15,
                ..GbrtParams::default()
            },
        );
        let restored = GbrtModel::from_json(&model.to_json()).unwrap();
        for i in 0..data.len() {
            assert_eq!(model.predict(data.row(i)), restored.predict(data.row(i)));
        }
        assert!(GbrtModel::from_json("not json").is_err());
    }

    #[test]
    #[should_panic(expected = "invalid GbrtParams")]
    fn rejects_zero_trees() {
        let data = friedman_like(10, 10);
        Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 0,
                ..GbrtParams::default()
            },
        );
    }

    #[test]
    fn params_validation() {
        assert!(GbrtParams::default().validate().is_ok());
        assert!(GbrtParams {
            max_leaves: 1,
            ..GbrtParams::default()
        }
        .validate()
        .is_err());
        assert!(GbrtParams {
            learning_rate: 0.0,
            ..GbrtParams::default()
        }
        .validate()
        .is_err());
        assert!(GbrtParams {
            learning_rate: 2.0,
            ..GbrtParams::default()
        }
        .validate()
        .is_err());
        assert!(GbrtParams {
            subsample: 0.0,
            ..GbrtParams::default()
        }
        .validate()
        .is_err());
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    #[test]
    fn single_row_dataset_trains_to_a_constant() {
        let data = Dataset::new(vec![vec![1.0, 2.0]], vec![7.0]).unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 5,
                ..GbrtParams::default()
            },
        );
        assert_eq!(model.predict(&[1.0, 2.0]), 7.0);
        assert_eq!(model.predict(&[100.0, -5.0]), 7.0, "no splits possible");
    }

    #[test]
    fn min_samples_leaf_larger_than_data_gives_constant_trees() {
        let data = Dataset::new(
            (0..6).map(|i| vec![i as f64]).collect(),
            (0..6).map(|i| i as f64 * 3.0).collect(),
        )
        .unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 10,
                min_samples_leaf: 10,
                ..GbrtParams::default()
            },
        );
        for t in model.trees() {
            assert_eq!(t.n_leaves(), 1);
        }
        // Prediction = median everywhere.
        assert_eq!(model.predict(&[0.0]), model.predict(&[5.0]));
    }

    #[test]
    fn duplicate_rows_with_conflicting_targets_average_out() {
        let data = Dataset::new(
            vec![vec![1.0]; 10],
            (0..10).map(|i| if i < 5 { 0.0 } else { 10.0 }).collect(),
        )
        .unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 50,
                ..GbrtParams::default()
            },
        );
        let p = model.predict(&[1.0]);
        assert!((4.0..6.0).contains(&p), "should settle near the mean: {p}");
    }

    #[test]
    fn extreme_learning_rate_one_still_converges_on_train() {
        let data = Dataset::new(
            (0..50).map(|i| vec![i as f64]).collect(),
            (0..50).map(|i| ((i / 10) * 10) as f64).collect(),
        )
        .unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 30,
                learning_rate: 1.0,
                ..GbrtParams::default()
            },
        );
        let err = crate::eval::rmse(&model.predict_all(&data), data.targets());
        assert!(err < 1.0, "rmse {err}");
    }
}
