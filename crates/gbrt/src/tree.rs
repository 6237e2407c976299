//! CART-style regression trees with J terminal nodes.
//!
//! The paper's Algorithm 1 grows a `J-terminalnode tree` per boosting
//! iteration. We grow trees **best-first**: starting from the root, the
//! leaf whose best split yields the largest squared-error reduction is
//! expanded next, until the tree has `max_leaves` terminal nodes or no
//! split improves the fit. This produces exactly J terminal regions
//! `{R_j}` as in Eq. (7) of the paper.

use crate::data::Dataset;
use serde::{Deserialize, Serialize};

/// Tree growth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum number of terminal nodes (the paper's `J`). Table 7
    /// evaluates forests of 8-node trees.
    pub max_leaves: usize,
    /// Minimum number of training samples on each side of a split.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_leaves: 8,
            min_samples_leaf: 1,
        }
    }
}

/// A tree node: either a terminal value or a binary split
/// (`x[feature] <= threshold` goes left).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
///
/// # Example
///
/// ```
/// use ewb_gbrt::{Dataset, RegressionTree, TreeParams};
///
/// // A step function of the first feature.
/// let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
/// let y: Vec<f64> = (0..10).map(|i| if i < 5 { 1.0 } else { 9.0 }).collect();
/// let data = Dataset::new(rows, y).unwrap();
/// let tree = RegressionTree::fit_dataset(&data, &TreeParams::default());
/// assert_eq!(tree.predict(&[2.0]), 1.0);
/// assert_eq!(tree.predict(&[7.0]), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) n_features: usize,
    /// `(feature, gain)` for every split made — input to feature
    /// importance.
    pub(crate) split_gains: Vec<(usize, f64)>,
}

impl RegressionTree {
    /// Fits a tree to `targets[i]` for the samples `indices` drawn from
    /// `rows`. This is the boosting-internal entry point — each boosting
    /// stage fits a tree to pseudo-residuals over a (possibly subsampled)
    /// index set. Uses the pre-sorted exact-greedy trainer; the result is
    /// bit-identical to [`RegressionTree::fit_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains duplicates, any index is
    /// out of bounds, or `params.max_leaves == 0`.
    pub fn fit(rows: &[Vec<f64>], targets: &[f64], indices: &[usize], params: &TreeParams) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
        let n_features = rows.first().map_or(0, |r| r.len());
        let cols: Vec<Vec<f64>> = (0..n_features)
            .map(|f| rows.iter().map(|r| r[f]).collect())
            .collect();
        let pre = crate::splitter::Presorted::new(&cols, rows.len());
        crate::splitter::fit_presorted(&cols, &pre, targets, Some(indices), params)
    }

    /// Fits a tree directly to a [`Dataset`]'s targets.
    pub fn fit_dataset(data: &Dataset, params: &TreeParams) -> Self {
        let pre = crate::splitter::Presorted::new(data.columns(), data.len());
        crate::splitter::fit_presorted(data.columns(), &pre, data.targets(), None, params)
    }

    /// Fits a tree with the original per-node re-sorting trainer (see the
    /// docs of the crate's private `reference` module). Slower than
    /// [`RegressionTree::fit`] but produces bit-identical trees — kept as
    /// the baseline for equivalence tests and the training benchmark.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RegressionTree::fit`].
    pub fn fit_reference(
        rows: &[Vec<f64>],
        targets: &[f64],
        indices: &[usize],
        params: &TreeParams,
    ) -> Self {
        crate::reference::fit_tree(rows, targets, indices, params)
    }

    /// Predicts the value for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn predict(&self, x: &[f64]) -> f64 {
        match self.nodes[self.leaf_id(x)] {
            Node::Leaf { value } => value,
            Node::Split { .. } => unreachable!("leaf_id returns a leaf"),
        }
    }

    /// The node index of the terminal region `x` falls into.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn leaf_id(&self, x: &[f64]) -> usize {
        assert_eq!(
            x.len(),
            self.n_features,
            "expected {} features, got {}",
            self.n_features,
            x.len()
        );
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Overwrites the value of leaf `node` — used by the booster to install
    /// the loss-optimal `γ_jm` of the paper's Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a leaf or the value is not finite.
    pub fn set_leaf_value(&mut self, node: usize, value: f64) {
        assert!(value.is_finite(), "leaf value must be finite");
        match &mut self.nodes[node] {
            Node::Leaf { value: v } => *v = value,
            Node::Split { .. } => panic!("node {node} is not a leaf"),
        }
    }

    /// Number of terminal nodes.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Total number of nodes (terminal + internal).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Maximum root-to-leaf depth (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }

    /// `(feature, impurity_gain)` for each split made while growing.
    pub fn split_gains(&self) -> &[(usize, f64)] {
        &self.split_gains
    }

    /// The stored value of leaf `node` — the booster reads this instead
    /// of re-walking the tree for samples whose region is already known.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a leaf.
    pub(crate) fn node_leaf_value(&self, node: usize) -> f64 {
        match self.nodes[node] {
            Node::Leaf { value } => value,
            Node::Split { .. } => panic!("node {node} is not a leaf"),
        }
    }

    /// Compiles this tree for the bitvector kernel of
    /// [`crate::FlatForest`]: appends its leaf values left to right to
    /// `leaves`, and calls `split(feature, threshold, mask)` once per
    /// split node, where `mask` has a zero bit for every leaf (numbered
    /// left to right from bit 0) in the node's left subtree.
    ///
    /// # Panics
    ///
    /// Panics if the tree has more than 64 leaves.
    pub(crate) fn append_flat(
        &self,
        leaves: &mut Vec<f64>,
        split: &mut impl FnMut(usize, f64, u64),
    ) {
        fn walk(
            nodes: &[Node],
            id: usize,
            first: usize,
            leaves: &mut Vec<f64>,
            split: &mut impl FnMut(usize, f64, u64),
        ) {
            match nodes[id] {
                Node::Leaf { value } => leaves.push(value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let lo = leaves.len() - first;
                    walk(nodes, left, first, leaves, split);
                    let hi = leaves.len() - first;
                    // A left subtree holds at most 63 of the 64 leaves.
                    split(feature, threshold, !(((1u64 << (hi - lo)) - 1) << lo));
                    walk(nodes, right, first, leaves, split);
                }
            }
        }
        assert!(
            self.n_leaves() <= 64,
            "tree has {} leaves; flat inference supports at most 64 leaves per tree",
            self.n_leaves()
        );
        walk(&self.nodes, 0, leaves.len(), leaves, split);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(rows: Vec<Vec<f64>>, y: Vec<f64>) -> Dataset {
        Dataset::new(rows, y).unwrap()
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let d = dataset((0..10).map(|i| vec![i as f64]).collect(), vec![5.0; 10]);
        let t = RegressionTree::fit_dataset(&d, &TreeParams::default());
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[100.0]), 5.0);
    }

    #[test]
    fn step_function_recovered_exactly() {
        let d = dataset(
            (0..20).map(|i| vec![i as f64]).collect(),
            (0..20).map(|i| if i < 12 { -3.0 } else { 4.0 }).collect(),
        );
        let t = RegressionTree::fit_dataset(&d, &TreeParams::default());
        assert_eq!(t.predict(&[0.0]), -3.0);
        assert_eq!(t.predict(&[11.0]), -3.0);
        assert_eq!(t.predict(&[12.0]), 4.0);
        assert_eq!(t.predict(&[19.0]), 4.0);
    }

    #[test]
    fn respects_max_leaves() {
        let d = dataset(
            (0..100).map(|i| vec![i as f64]).collect(),
            (0..100).map(|i| (i as f64).sin() * 10.0).collect(),
        );
        for j in [1, 2, 4, 8, 16] {
            let t = RegressionTree::fit_dataset(
                &d,
                &TreeParams {
                    max_leaves: j,
                    min_samples_leaf: 1,
                },
            );
            assert!(t.n_leaves() <= j, "J={j} got {}", t.n_leaves());
            if j > 1 {
                assert!(t.n_leaves() >= 2);
            }
        }
    }

    #[test]
    fn splits_on_the_informative_feature() {
        // Feature 1 is pure noise; feature 0 determines y.
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64, ((i * 7919) % 13) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] < 5.0 { 0.0 } else { 10.0 })
            .collect();
        let t = RegressionTree::fit_dataset(
            &dataset(rows, y),
            &TreeParams {
                max_leaves: 2,
                min_samples_leaf: 1,
            },
        );
        assert_eq!(t.split_gains().len(), 1);
        assert_eq!(t.split_gains()[0].0, 0, "should split on feature 0");
    }

    #[test]
    fn interaction_needs_enough_leaves() {
        // XOR of two binary features (with a tiny marginal hint so the
        // greedy first split has positive gain — pure XOR has zero
        // marginal gain for any single split, a known CART limitation):
        // unlearnable with 2 leaves, essentially exact with 4.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 2) as f64, ((i / 2) % 2) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                let xor = if (r[0] as i64) ^ (r[1] as i64) == 1 {
                    1.0
                } else {
                    0.0
                };
                xor + 0.01 * r[0]
            })
            .collect();
        let d = dataset(rows.clone(), y.clone());
        let shallow = RegressionTree::fit_dataset(
            &d,
            &TreeParams {
                max_leaves: 2,
                min_samples_leaf: 1,
            },
        );
        let deep = RegressionTree::fit_dataset(
            &d,
            &TreeParams {
                max_leaves: 4,
                min_samples_leaf: 1,
            },
        );
        let sse = |t: &RegressionTree| -> f64 {
            rows.iter()
                .zip(&y)
                .map(|(r, &v)| (t.predict(r) - v).powi(2))
                .sum()
        };
        assert!(
            sse(&shallow) > 5.0,
            "2 leaves cannot capture XOR: {}",
            sse(&shallow)
        );
        for (r, target) in rows.iter().zip(&y) {
            assert!((deep.predict(r) - target).abs() < 0.02);
        }
    }

    #[test]
    fn min_samples_leaf_limits_splits() {
        let d = dataset(
            (0..10).map(|i| vec![i as f64]).collect(),
            (0..10).map(|i| i as f64).collect(),
        );
        let t = RegressionTree::fit_dataset(
            &d,
            &TreeParams {
                max_leaves: 16,
                min_samples_leaf: 5,
            },
        );
        // Only the middle split satisfies 5/5.
        assert_eq!(t.n_leaves(), 2);
    }

    #[test]
    fn leaf_ids_partition_samples() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).cos()).collect();
        let d = dataset(rows.clone(), y);
        let t = RegressionTree::fit_dataset(&d, &TreeParams::default());
        for r in &rows {
            let id = t.leaf_id(r);
            assert!(matches!(t.nodes[id], Node::Leaf { .. }));
        }
        assert_eq!(t.n_nodes(), 2 * t.n_leaves() - 1);
    }

    #[test]
    fn set_leaf_value_changes_prediction() {
        let d = dataset(vec![vec![0.0], vec![1.0]], vec![0.0, 10.0]);
        let mut t = RegressionTree::fit_dataset(&d, &TreeParams::default());
        let id = t.leaf_id(&[0.0]);
        t.set_leaf_value(id, -99.0);
        assert_eq!(t.predict(&[0.0]), -99.0);
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn set_leaf_value_rejects_internal_nodes() {
        let d = dataset(vec![vec![0.0], vec![1.0]], vec![0.0, 10.0]);
        let mut t = RegressionTree::fit_dataset(&d, &TreeParams::default());
        // Node 0 is the root split for this data.
        t.set_leaf_value(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "expected 1 features")]
    fn predict_rejects_wrong_width() {
        let d = dataset(vec![vec![0.0], vec![1.0]], vec![0.0, 1.0]);
        let t = RegressionTree::fit_dataset(&d, &TreeParams::default());
        t.predict(&[1.0, 2.0]);
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| (i % 5) as f64 * 2.0).collect();
        let d = dataset(rows.clone(), y);
        let t = RegressionTree::fit_dataset(&d, &TreeParams::default());
        let json = serde_json::to_string(&t).unwrap();
        let t2: RegressionTree = serde_json::from_str(&json).unwrap();
        for r in &rows {
            assert_eq!(t.predict(r), t2.predict(r));
        }
    }
}
