//! Property-based tests for the GBRT implementation.

use ewb_gbrt::{Dataset, Gbrt, GbrtParams, RegressionTree, TreeParams};
use proptest::prelude::*;

/// Arbitrary small regression problems: 2 features, bounded values.
fn problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    proptest::collection::vec(
        ((-100.0f64..100.0), (-100.0f64..100.0), (-50.0f64..50.0)),
        4..80,
    )
    .prop_map(|triples| {
        let rows = triples.iter().map(|t| vec![t.0, t.1]).collect();
        let ys = triples.iter().map(|t| t.2).collect();
        (rows, ys)
    })
}

/// Like [`problem`], but with up to 199 rows (enough for 64-leaf trees)
/// whose features lie on an integer grid, so every split threshold a
/// tree can choose — the midpoint of two grid values, whichever rows a
/// subsample drew — is a multiple of 0.5 in [-20, 20].
fn grid_problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    proptest::collection::vec(((-20i32..21), (-20i32..21), (-50.0f64..50.0)), 4..200).prop_map(
        |triples| {
            let rows = triples
                .iter()
                .map(|t| vec![f64::from(t.0), f64::from(t.1)])
                .collect();
            let ys = triples.iter().map(|t| t.2).collect();
            (rows, ys)
        },
    )
}

proptest! {
    /// A single tree's predictions always lie within the target range
    /// (leaf values are means of target subsets).
    #[test]
    fn tree_predictions_within_target_range((rows, ys) in problem()) {
        let data = Dataset::new(rows.clone(), ys.clone()).unwrap();
        let tree = RegressionTree::fit_dataset(&data, &TreeParams::default());
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for r in &rows {
            let p = tree.predict(r);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }
    }

    /// Tree training-set SSE never exceeds the constant-mean baseline.
    #[test]
    fn tree_never_worse_than_mean((rows, ys) in problem()) {
        let data = Dataset::new(rows.clone(), ys.clone()).unwrap();
        let tree = RegressionTree::fit_dataset(&data, &TreeParams::default());
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let sse_tree: f64 = rows.iter().zip(&ys).map(|(r, &y)| (tree.predict(r) - y).powi(2)).sum();
        let sse_mean: f64 = ys.iter().map(|&y| (y - mean).powi(2)).sum();
        prop_assert!(sse_tree <= sse_mean + 1e-6);
    }

    /// Trees are binary: node count is exactly 2·leaves − 1.
    #[test]
    fn tree_shape_invariant((rows, ys) in problem(), j in 2usize..16) {
        let data = Dataset::new(rows, ys).unwrap();
        let tree = RegressionTree::fit_dataset(
            &data,
            &TreeParams { max_leaves: j, min_samples_leaf: 1 },
        );
        prop_assert_eq!(tree.n_nodes(), 2 * tree.n_leaves() - 1);
        prop_assert!(tree.n_leaves() <= j);
        prop_assert!(tree.depth() < tree.n_leaves().max(1));
    }

    /// L2 boosting training loss is non-increasing stage over stage for
    /// arbitrary data.
    #[test]
    fn boosting_loss_monotone((rows, ys) in problem()) {
        let data = Dataset::new(rows, ys).unwrap();
        let (_, curve) = Gbrt::fit_traced(
            &data,
            &GbrtParams { n_trees: 15, min_samples_leaf: 1, ..GbrtParams::default() },
        );
        for w in curve.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9, "{} -> {}", w[0], w[1]);
        }
    }

    /// Model serialization round-trips exactly.
    #[test]
    fn model_roundtrip((rows, ys) in problem()) {
        let data = Dataset::new(rows.clone(), ys).unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams { n_trees: 5, min_samples_leaf: 1, ..GbrtParams::default() },
        );
        let restored = ewb_gbrt::GbrtModel::from_json(&model.to_json()).unwrap();
        for r in &rows {
            prop_assert_eq!(model.predict(r), restored.predict(r));
        }
    }

    /// Staged predictions interpolate from F0 to the full model.
    #[test]
    fn staged_prediction_consistency((rows, ys) in problem()) {
        let data = Dataset::new(rows.clone(), ys).unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams { n_trees: 8, min_samples_leaf: 1, ..GbrtParams::default() },
        );
        let x = &rows[0];
        prop_assert_eq!(model.predict_staged(x, 0), model.initial_value());
        prop_assert_eq!(model.predict_staged(x, model.n_trees()), model.predict(x));
    }

    /// The compiled forest predicts bit-identically to the enum model it
    /// was compiled from — full, every staged `F_m`, and ragged batches —
    /// over 1- to 64-leaf trees, forests on both sides of 64 trees, rows
    /// on a split threshold, and non-finite features.
    #[test]
    fn flat_forest_matches_model(
        (rows, ys) in grid_problem(),
        subsample in prop_oneof![Just(1.0f64), Just(0.7f64)],
        max_leaves in prop_oneof![Just(1usize), Just(2usize), Just(8usize), Just(64usize)],
        n_trees in prop_oneof![1usize..64, 65usize..151],
        batch_sizes in proptest::collection::vec(1usize..9, 1..6),
    ) {
        let data = Dataset::new(rows.clone(), ys).unwrap();
        // `GbrtParams` asks for at least 2 leaves; a leaf minimum of every
        // row makes each tree a single leaf instead.
        let (max_leaves, min_samples_leaf) =
            if max_leaves == 1 { (2, rows.len()) } else { (max_leaves, 1) };
        let model = Gbrt::fit(
            &data,
            &GbrtParams { n_trees, max_leaves, subsample, min_samples_leaf, ..GbrtParams::default() },
        );
        if min_samples_leaf > 1 {
            prop_assert!(model.trees().iter().all(|t| t.n_leaves() == 1));
        }
        let flat = ewb_gbrt::FlatForest::from_model(&model);
        // Rows on every threshold a tree can have chosen, then rows with
        // a NaN or ±∞, which follow the `x <= t` rule.
        let mut probes = rows.clone();
        for f in 0..2 {
            for k in -40..=40 {
                let mut x = rows[0].clone();
                x[f] = f64::from(k) * 0.5;
                probes.push(x);
            }
            for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut x = rows[0].clone();
                x[f] = special;
                probes.push(x);
            }
        }
        probes.push(vec![f64::NAN; 2]);
        for x in &probes {
            prop_assert_eq!(flat.predict(x).to_bits(), model.predict(x).to_bits());
        }
        for m in 0..=n_trees {
            for x in probes.iter().step_by(7) {
                prop_assert_eq!(
                    flat.predict_staged(x, m).to_bits(),
                    model.predict_staged(x, m).to_bits()
                );
            }
        }
        // Ragged batches: sizes cycle through `batch_sizes`.
        let mut start = 0;
        for &size in batch_sizes.iter().cycle() {
            if start == probes.len() {
                break;
            }
            let chunk = &probes[start..(start + size).min(probes.len())];
            let mut out = vec![0.0; chunk.len()];
            flat.predict_batch(&chunk.concat(), &mut out);
            for (x, y) in chunk.iter().zip(&out) {
                prop_assert_eq!(y.to_bits(), model.predict(x).to_bits());
            }
            start += chunk.len();
        }
    }

    /// Feature importance is a probability vector (or all zeros).
    #[test]
    fn importance_is_normalized((rows, ys) in problem()) {
        let data = Dataset::new(rows, ys).unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams { n_trees: 5, min_samples_leaf: 1, ..GbrtParams::default() },
        );
        let imp = ewb_gbrt::feature_importance(&model);
        prop_assert_eq!(imp.len(), 2);
        prop_assert!(imp.iter().all(|&g| g >= 0.0));
        let total: f64 = imp.iter().sum();
        prop_assert!(total == 0.0 || (total - 1.0).abs() < 1e-9);
    }
}
