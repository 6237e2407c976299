//! The original per-node re-sorting trainer, retained verbatim as the
//! behavioral reference for the pre-sorted fast path
//! ([`crate::splitter`]).
//!
//! [`RegressionTree::fit_reference`](crate::RegressionTree::fit_reference)
//! and [`Gbrt::fit_reference`](crate::Gbrt::fit_reference) run this
//! code; the golden tests assert the fast path serializes to the same
//! bytes, and the training benchmark measures the speedup against it.
//!
//! One change from the original: `best_split` used to clone the full
//! sorted index array on **every** improving candidate (`best_order =
//! order.clone()` inside the scan loop — up to `O(n)` clones of `O(n)`
//! data per feature). It now records only the winning `(feature, k)` and
//! re-sorts once at the end; a stable re-sort by the winning feature
//! reproduces the clone's contents exactly, so the output is unchanged.

use crate::data::Dataset;
use crate::loss;
use crate::tree::{Node, RegressionTree, TreeParams};
use crate::{GbrtModel, GbrtParams};
use ewb_simcore::Xoshiro256;
use std::collections::BTreeMap;

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
    left: Vec<usize>,
    right: Vec<usize>,
}

/// A grown-but-unexpanded leaf awaiting possible splitting.
struct Candidate {
    node: usize,
    split: BestSplit,
}

/// The original tree trainer: per-node, per-feature stable re-sort.
pub(crate) fn fit_tree(
    rows: &[Vec<f64>],
    targets: &[f64],
    indices: &[usize],
    params: &TreeParams,
) -> RegressionTree {
    assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
    assert!(params.max_leaves >= 1, "max_leaves must be at least 1");
    assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
    let n_features = rows.first().map_or(0, |r| r.len());

    let root_value = region_mean(targets, indices);
    let mut tree = RegressionTree {
        nodes: vec![Node::Leaf { value: root_value }],
        n_features,
        split_gains: Vec::new(),
    };
    let mut leaves = 1usize;
    let mut candidates: Vec<Candidate> = Vec::new();
    if let Some(split) = best_split(rows, targets, indices, params.min_samples_leaf) {
        candidates.push(Candidate { node: 0, split });
    }

    while leaves < params.max_leaves && !candidates.is_empty() {
        // Deterministic arg-max: largest gain, ties to the earliest
        // node (stable regardless of float noise in unrelated splits).
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate() {
            if c.split.gain > candidates[best].split.gain {
                best = i;
            }
        }
        let Candidate { node, split } = candidates.swap_remove(best);

        let left_value = region_mean(targets, &split.left);
        let right_value = region_mean(targets, &split.right);
        let left_id = tree.nodes.len();
        tree.nodes.push(Node::Leaf { value: left_value });
        let right_id = tree.nodes.len();
        tree.nodes.push(Node::Leaf { value: right_value });
        tree.nodes[node] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left: left_id,
            right: right_id,
        };
        tree.split_gains.push((split.feature, split.gain));
        leaves += 1;

        for (child, idx) in [(left_id, split.left), (right_id, split.right)] {
            if let Some(s) = best_split(rows, targets, &idx, params.min_samples_leaf) {
                candidates.push(Candidate {
                    node: child,
                    split: s,
                });
            }
        }
    }
    tree
}

fn region_mean(targets: &[f64], indices: &[usize]) -> f64 {
    indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64
}

/// Finds the squared-error-optimal split of `indices`, or `None` when no
/// split has positive gain (e.g. constant targets or too few samples).
fn best_split(
    rows: &[Vec<f64>],
    targets: &[f64],
    indices: &[usize],
    min_leaf: usize,
) -> Option<BestSplit> {
    let n = indices.len();
    if n < 2 * min_leaf.max(1) {
        return None;
    }
    let n_features = rows[indices[0]].len();
    let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();
    let parent_score = total_sum * total_sum / n as f64;

    let mut best: Option<(usize, f64, f64, usize)> = None; // (feature, threshold, gain, sorted_split_pos)

    let mut order: Vec<usize> = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // `feature` is a real feature index, not a rows iterator
    for feature in 0..n_features {
        order.clear();
        order.extend_from_slice(indices);
        order.sort_by(|&a, &b| {
            rows[a][feature]
                .partial_cmp(&rows[b][feature])
                .expect("finite feature values")
        });
        // Scan split positions: left = order[..k], right = order[k..].
        let mut left_sum = 0.0;
        for k in 1..n {
            left_sum += targets[order[k - 1]];
            // Cannot split between equal feature values.
            if rows[order[k - 1]][feature] == rows[order[k]][feature] {
                continue;
            }
            if k < min_leaf || n - k < min_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let score = left_sum * left_sum / k as f64 + right_sum * right_sum / (n - k) as f64;
            let gain = score - parent_score;
            if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.2) {
                let threshold = 0.5 * (rows[order[k - 1]][feature] + rows[order[k]][feature]);
                best = Some((feature, threshold, gain, k));
            }
        }
    }

    best.map(|(feature, threshold, gain, k)| {
        // One stable re-sort by the winning feature reconstructs the
        // order the scan saw when it recorded this candidate.
        order.clear();
        order.extend_from_slice(indices);
        order.sort_by(|&a, &b| {
            rows[a][feature]
                .partial_cmp(&rows[b][feature])
                .expect("finite feature values")
        });
        BestSplit {
            feature,
            threshold,
            gain,
            left: order[..k].to_vec(),
            right: order[k..].to_vec(),
        }
    })
}

/// The original boosting loop: re-derives every sample's leaf region
/// twice per iteration (once through a `BTreeMap` for the γ fit, once for
/// the prediction update) and clones the full index list each round.
pub(crate) fn fit_boosted(data: &Dataset, params: &GbrtParams) -> (GbrtModel, Vec<f64>) {
    if let Err(e) = params.validate() {
        panic!("invalid GbrtParams: {e}");
    }
    let n = data.len();
    let targets = data.targets();
    let init = loss::initial_value(targets);
    let mut predictions = vec![init; n];
    let mut trees = Vec::with_capacity(params.n_trees);
    let mut loss_curve = Vec::with_capacity(params.n_trees);
    let mut rng = Xoshiro256::seed_from_u64(params.seed);
    let tree_params = TreeParams {
        max_leaves: params.max_leaves,
        min_samples_leaf: params.min_samples_leaf,
    };

    let all_indices: Vec<usize> = (0..n).collect();
    for _ in 0..params.n_trees {
        // Pseudo-residuals under the current model.
        let residuals = loss::negative_gradient(targets, &predictions);

        // Optional stochastic subsample.
        let indices: Vec<usize> = if params.subsample < 1.0 {
            let k = ((n as f64) * params.subsample).ceil().max(1.0) as usize;
            let mut shuffled = all_indices.clone();
            rng.shuffle(&mut shuffled);
            shuffled.truncate(k);
            shuffled
        } else {
            all_indices.clone()
        };

        let mut tree = fit_tree(data.rows(), &residuals, &indices, &tree_params);

        // Loss-optimal leaf values γ_jm over the *training* samples in
        // each region (all samples, not just the subsample — the
        // regions partition the whole space).
        // Sorted by leaf id: per-leaf γ fits are independent, but the
        // trained model is serialized, so even visit order stays
        // deterministic by construction.
        let mut regions: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &i in &all_indices {
            regions
                .entry(tree.leaf_id(data.row(i)))
                .or_default()
                .push(i);
        }
        for (leaf, members) in &regions {
            let ys: Vec<f64> = members.iter().map(|&i| targets[i]).collect();
            let fs: Vec<f64> = members.iter().map(|&i| predictions[i]).collect();
            let gamma = loss::leaf_value(&ys, &fs);
            tree.set_leaf_value(*leaf, gamma * params.learning_rate);
        }

        // F_m = F_{m-1} + ν γ.
        for &i in &all_indices {
            predictions[i] += tree.predict(data.row(i));
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
