//! Golden equivalence tests: the pre-sorted fast trainer must reproduce
//! the original (reference) trainer **byte for byte** — same splits,
//! same thresholds, same leaf values, same serialized JSON — across
//! continuous data, tie-heavy discrete data, subsampling, deep trees
//! and min-leaf constraints. Serialized-string comparison is the
//! strictest check available: any ULP drift in a gain computation that
//! flipped a split would change the bytes.

use ewb_gbrt::{Dataset, Gbrt, GbrtParams, RegressionTree, TreeParams};
use ewb_simcore::Xoshiro256;

/// Continuous features — essentially tie-free.
fn continuous(n: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..5).map(|_| rng.f64()).collect())
        .collect();
    let ys: Vec<f64> = rows
        .iter()
        .map(|x| {
            10.0 * (std::f64::consts::PI * x[0] * x[1]).sin()
                + 20.0 * (x[2] - 0.5).powi(2)
                + 10.0 * x[3]
                + 5.0 * x[4]
        })
        .collect();
    Dataset::new(rows, ys).unwrap()
}

/// Tie-heavy discrete features: few distinct values per column, so every
/// node's scan crosses long runs of equal values — the case where the
/// partitioned arrays' tie order must exactly reproduce the reference
/// trainer's per-node stable re-sort.
fn tie_heavy(n: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            vec![
                (rng.next_u64() % 3) as f64,
                (rng.next_u64() % 5) as f64,
                (rng.next_u64() % 2) as f64,
                (rng.next_u64() % 7) as f64,
            ]
        })
        .collect();
    let ys: Vec<f64> = rows
        .iter()
        .map(|r| r[0] * 3.0 + r[1] * r[2] - r[3] * 0.5 + rng.f64() * 0.3)
        .collect();
    Dataset::new(rows, ys).unwrap()
}

fn assert_models_identical(data: &Dataset, params: &GbrtParams, label: &str) {
    let fast = Gbrt::fit(data, params);
    let reference = Gbrt::fit_reference(data, params);
    assert_eq!(
        fast, reference,
        "{label}: fast and reference models differ structurally"
    );
    assert_eq!(
        fast.to_json(),
        reference.to_json(),
        "{label}: serialized bytes differ"
    );
}

#[test]
fn continuous_data_default_params() {
    let data = continuous(400, 1);
    assert_models_identical(
        &data,
        &GbrtParams {
            n_trees: 40,
            ..GbrtParams::default()
        },
        "continuous/default",
    );
}

#[test]
fn continuous_data_with_subsampling() {
    let data = continuous(300, 2);
    assert_models_identical(
        &data,
        &GbrtParams {
            n_trees: 40,
            subsample: 0.6,
            seed: 17,
            ..GbrtParams::default()
        },
        "continuous/subsample",
    );
}

#[test]
fn tie_heavy_data_default_params() {
    let data = tie_heavy(500, 3);
    assert_models_identical(
        &data,
        &GbrtParams {
            n_trees: 50,
            ..GbrtParams::default()
        },
        "ties/default",
    );
}

#[test]
fn tie_heavy_data_with_subsampling_and_min_leaf() {
    let data = tie_heavy(400, 4);
    assert_models_identical(
        &data,
        &GbrtParams {
            n_trees: 50,
            subsample: 0.55,
            min_samples_leaf: 6,
            seed: 23,
            ..GbrtParams::default()
        },
        "ties/subsample+minleaf",
    );
}

#[test]
fn deep_trees_match() {
    let data = tie_heavy(600, 6);
    assert_models_identical(
        &data,
        &GbrtParams {
            n_trees: 20,
            max_leaves: 32,
            ..GbrtParams::default()
        },
        "ties/deep",
    );
}

#[test]
fn single_trees_match_on_shuffled_index_subsets() {
    // Exercises the Some(indices) root path (rank-based filter + tie
    // fix-up) directly at the tree level, with an adversarial incoming
    // order.
    let data = tie_heavy(300, 7);
    let mut rng = Xoshiro256::seed_from_u64(99);
    let mut idx: Vec<usize> = (0..data.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(180);
    let params = TreeParams {
        max_leaves: 16,
        min_samples_leaf: 2,
    };
    let residuals: Vec<f64> = data.targets().iter().map(|&y| y - 1.5).collect();
    let fast = RegressionTree::fit(data.rows(), &residuals, &idx, &params);
    let reference = RegressionTree::fit_reference(data.rows(), &residuals, &idx, &params);
    assert_eq!(fast, reference);
    assert_eq!(
        serde_json::to_string(&fast).unwrap(),
        serde_json::to_string(&reference).unwrap()
    );
}

/// Regression test for the historical `best_order = order.clone()`
/// hot-loop bug: with strictly increasing targets along one feature,
/// nearly every scan position improves on the last, which used to
/// trigger an `O(n)` clone per position. The fix (record `k`, re-sort
/// once at the end) must leave the chosen partition unchanged.
#[test]
fn monotone_targets_many_improvements_stay_identical() {
    let n = 512;
    let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i % 4) as f64]).collect();
    let ys: Vec<f64> = (0..n).map(|i| (i as f64).powf(1.3)).collect();
    let data = Dataset::new(rows, ys).unwrap();
    assert_models_identical(
        &data,
        &GbrtParams {
            n_trees: 10,
            max_leaves: 16,
            ..GbrtParams::default()
        },
        "monotone/many-improvements",
    );
    // The first split of a single tree must land at the gain-optimal
    // boundary, not wherever the last improvement happened to be.
    let tree = RegressionTree::fit_dataset(
        &data,
        &TreeParams {
            max_leaves: 2,
            min_samples_leaf: 1,
        },
    );
    assert_eq!(tree.n_leaves(), 2);
    assert_eq!(
        tree.split_gains()[0].0,
        0,
        "must split on the monotone feature"
    );
}
