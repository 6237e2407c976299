//! Bitvector inference for boosted forests.
//!
//! [`GbrtModel`] stores each tree as a `Vec` of enum nodes and predicts
//! by walking every tree from its root: one data-dependent load and
//! branch per level. [`FlatForest`] compiles the forest for the
//! QuickScorer kernel (Lucchese et al., SIGIR 2015) instead. Leaves are
//! numbered left to right within each tree, so the leaves a row can
//! still reach form one 64-bit set per tree. Every split node becomes an
//! entry in a per-feature list sorted by threshold: (threshold, tree, a
//! mask that clears the node's left-subtree leaves). To score a row, the
//! kernel scans each feature's list from the smallest threshold for as
//! long as the test `x <= threshold` fails — the nodes that send the row
//! right — and ANDs each entry's mask into its tree's leaf set. Each
//! tree's lowest surviving leaf is the leaf the walk reaches.
//!
//! **Exactness.** Let `L` be the leaf the walk reaches. No mask clears
//! `L`: a mask clears `L` only if `L` lies in the node's left subtree,
//! so the node is on `L`'s path and the row goes left there. Every leaf
//! left of `L` is cleared: at its lowest common ancestor with `L` it
//! lies in the left subtree and the row goes right. So the lowest
//! surviving bit is `L`, whatever the masks of nodes off the path do.
//! A scan may stop at the first entry with `x <= threshold`, because
//! the nodes that send `x` right are exactly those with a threshold
//! below `x`: a prefix of the ascending list. Leaf values are summed in
//! tree order from the `-0.0` that `Iterator::sum` starts from, and
//! `init` is added last, so every prediction is `to_bits`-identical to
//! [`GbrtModel::predict`].
//!
//! **NaN.** The enum tree sends a row left when `x <= threshold`, so a
//! NaN feature goes right at every node. `NaN <= t` fails for every `t`,
//! so the scan applies every mask in a NaN's list: the same rule. `±∞`
//! needs no special case.
//!
//! **Limits.** A tree's leaf set is one `u64`, so a tree may have at
//! most 64 leaves. Trees are scored in blocks of `BLOCK` (256), whose
//! leaf sets sit in one stack array, so scoring allocates nothing at any
//! forest size and a block's leaf sets stay in L1 cache.

use crate::boost::GbrtModel;

/// Trees per block. A tree's index within its block fits a `u8`.
const BLOCK: usize = 256;

/// A boosted forest compiled for fast inference.
///
/// # Example
///
/// ```
/// use ewb_gbrt::{Dataset, FlatForest, Gbrt, GbrtParams};
///
/// let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
/// let y: Vec<f64> = (0..50).map(|i| if i < 25 { 0.0 } else { 8.0 }).collect();
/// let data = Dataset::new(rows, y).unwrap();
/// let model = Gbrt::fit(&data, &GbrtParams { n_trees: 20, ..GbrtParams::default() });
/// let flat = FlatForest::from_model(&model);
/// assert_eq!(flat.predict(&[10.0]), model.predict(&[10.0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    init: f64,
    n_features: usize,
    /// Entry range of each (block, feature) list: list `b * n_features +
    /// f` holds entries `lists[i]..lists[i + 1]`.
    lists: Vec<u32>,
    /// Split threshold of each entry, ascending within a list.
    thresholds: Vec<f64>,
    /// Tree of each entry, counted from the first tree of its block.
    trees: Vec<u8>,
    /// Leaf-set mask of each entry: zero bits for its left subtree.
    masks: Vec<u64>,
    /// Index into `leaves` of each tree's leftmost leaf.
    leaf_start: Vec<u32>,
    /// Leaf values, tree by tree, left to right within a tree.
    leaves: Vec<f64>,
}

impl FlatForest {
    /// Compiles a trained model into the bitvector layout.
    ///
    /// # Panics
    ///
    /// Panics if a tree has more than 64 leaves (a tree's leaf set is
    /// one `u64`), or if the forest exceeds `u32` leaf and split indices
    /// — far beyond any model this crate trains.
    pub fn from_model(model: &GbrtModel) -> Self {
        let n_features = model.n_features();
        let mut leaf_start = Vec::with_capacity(model.n_trees());
        let mut leaves = Vec::new();
        // (list, threshold, tree in block, mask) per split node.
        let mut entries: Vec<(usize, f64, u8, u64)> = Vec::new();
        for (t, tree) in model.trees().iter().enumerate() {
            leaf_start.push(leaves.len() as u32);
            let (list0, tree_in_block) = (t / BLOCK * n_features, (t % BLOCK) as u8);
            tree.append_flat(&mut leaves, &mut |feature, threshold, mask| {
                entries.push((list0 + feature, threshold, tree_in_block, mask));
            });
        }
        assert!(
            leaves.len() + entries.len() < u32::MAX as usize,
            "forest exceeds u32 leaf and split indices"
        );
        // Thresholds are midpoints of finite training values, so never
        // NaN, and `total_cmp` orders them the way `<=` does.
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let n_lists = model.n_trees().div_ceil(BLOCK) * n_features;
        let lists = (0..=n_lists)
            .map(|i| entries.partition_point(|e| e.0 < i) as u32)
            .collect();
        FlatForest {
            init: model.initial_value(),
            n_features,
            lists,
            thresholds: entries.iter().map(|e| e.1).collect(),
            trees: entries.iter().map(|e| e.2).collect(),
            masks: entries.iter().map(|e| e.3).collect(),
            leaf_start,
            leaves,
        }
    }

    /// The one evaluation loop: `x` scored through the first `m` trees.
    fn score(&self, x: &[f64], m: usize) -> f64 {
        let nf = self.n_features;
        let mut sets = [u64::MAX; BLOCK];
        let mut acc = -0.0;
        for (b, first) in (0..m).step_by(BLOCK).enumerate() {
            let lists = &self.lists[b * nf..=(b + 1) * nf];
            for (&v, span) in x.iter().zip(lists.windows(2)) {
                let (lo, hi) = (span[0] as usize, span[1] as usize);
                let entries = self.thresholds[lo..hi]
                    .iter()
                    .zip(&self.trees[lo..hi])
                    .zip(&self.masks[lo..hi]);
                for ((&t, &tree), &mask) in entries {
                    if v <= t {
                        break;
                    }
                    sets[tree as usize] &= mask;
                }
            }
            // Reset each set as it is read. Only the last block scored
            // can leave sets unread, and no block follows it.
            let scored = BLOCK.min(m - first);
            for (set, &start) in sets[..scored].iter_mut().zip(&self.leaf_start[first..]) {
                acc += self.leaves[start as usize + set.trailing_zeros() as usize];
                *set = u64::MAX;
            }
        }
        self.init + acc
    }

    /// Predicts the target for one feature vector; bit-identical to
    /// [`GbrtModel::predict`] on the source model.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.predict_staged(x, self.n_trees())
    }

    /// Predicts a batch of row-major feature rows (`rows.len() ==
    /// out.len() * n_features`) into `out`, each bit-identical to
    /// [`FlatForest::predict`] on its row. No heap allocation; the cost
    /// per row does not depend on the batch size.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len() * n_features`.
    pub fn predict_batch(&self, rows: &[f64], out: &mut [f64]) {
        let nf = self.n_features;
        assert_eq!(
            rows.len(),
            out.len() * nf,
            "expected {} x {nf} row-major features, got {}",
            out.len(),
            rows.len()
        );
        for (i, y) in out.iter_mut().enumerate() {
            *y = self.score(&rows[i * nf..(i + 1) * nf], self.n_trees());
        }
    }

    /// Prediction using only the first `m` trees — the staged model
    /// `F_m`; bit-identical to [`GbrtModel::predict_staged`].
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the number of trees or `x` has the wrong
    /// width.
    pub fn predict_staged(&self, x: &[f64], m: usize) -> f64 {
        assert!(m <= self.n_trees(), "stage {m} > {} trees", self.n_trees());
        assert_eq!(
            x.len(),
            self.n_features,
            "expected {} features, got {}",
            self.n_features,
            x.len()
        );
        self.score(x, m)
    }

    /// Number of trees `M`.
    pub fn n_trees(&self) -> usize {
        self.leaf_start.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, Gbrt, GbrtParams};
    use ewb_simcore::Xoshiro256;

    fn problem(n: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.f64() * 10.0).collect())
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| r[0] * 2.0 + (r[1] * 0.7).sin() * 5.0 + r[2] * r[3] * 0.1)
            .collect();
        Dataset::new(rows, ys).unwrap()
    }

    fn row_major(data: &Dataset) -> Vec<f64> {
        (0..data.len()).flat_map(|i| data.row(i).to_vec()).collect()
    }

    #[test]
    fn predictions_match_model_bitwise() {
        let data = problem(300, 1);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 40,
                subsample: 0.7,
                ..GbrtParams::default()
            },
        );
        let flat = FlatForest::from_model(&model);
        assert_eq!(flat.n_trees(), model.n_trees());
        // Every training row, then rows with a NaN or ±∞ in each feature
        // and rows made only of them: `x <= t` fails for NaN, so NaN goes
        // right at every node.
        let mut rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i).to_vec()).collect();
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for f in 0..4 {
                let mut x = data.row(f).to_vec();
                x[f] = special;
                rows.push(x);
            }
            rows.push(vec![special; 4]);
        }
        let mut batch = vec![0.0; rows.len()];
        flat.predict_batch(&rows.concat(), &mut batch);
        for (x, y) in rows.iter().zip(&batch) {
            let want = model.predict(x).to_bits();
            assert_eq!(flat.predict(x).to_bits(), want, "row {x:?}");
            assert_eq!(y.to_bits(), want, "batch row {x:?}");
        }
    }

    #[test]
    fn batch_matches_single_row_bitwise() {
        let data = problem(300, 9);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 60,
                subsample: 0.8,
                ..GbrtParams::default()
            },
        );
        let flat = FlatForest::from_model(&model);
        let mut out = vec![f64::NAN; data.len()];
        flat.predict_batch(&row_major(&data), &mut out);
        for (i, &y) in out.iter().enumerate() {
            assert_eq!(
                y.to_bits(),
                flat.predict(data.row(i)).to_bits(),
                "row {i} diverged from the single-row path"
            );
        }
    }

    #[test]
    fn blocks_of_trees_match_model_at_every_boundary() {
        // 600 trees span three blocks; score every stage around the
        // block boundaries.
        let data = problem(60, 12);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 600,
                subsample: 0.8,
                min_samples_leaf: 2,
                ..GbrtParams::default()
            },
        );
        let flat = FlatForest::from_model(&model);
        for m in [0, 1, 255, 256, 257, 511, 512, 513, 599, 600] {
            for i in 0..data.len() {
                let x = data.row(i);
                assert_eq!(
                    flat.predict_staged(x, m).to_bits(),
                    model.predict_staged(x, m).to_bits(),
                    "stage {m}, row {i}"
                );
            }
        }
        let mut out = vec![0.0; data.len()];
        flat.predict_batch(&row_major(&data), &mut out);
        for (i, &y) in out.iter().enumerate() {
            assert_eq!(y.to_bits(), model.predict(data.row(i)).to_bits());
        }
    }

    #[test]
    fn batch_handles_empty_and_single_row() {
        let data = problem(50, 10);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 3,
                ..GbrtParams::default()
            },
        );
        let flat = FlatForest::from_model(&model);
        flat.predict_batch(&[], &mut []);
        let mut one = [0.0];
        flat.predict_batch(data.row(7), &mut one);
        assert_eq!(one[0].to_bits(), flat.predict(data.row(7)).to_bits());
    }

    #[test]
    #[should_panic(expected = "row-major")]
    fn batch_rejects_mismatched_lengths() {
        let data = problem(20, 11);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 2,
                ..GbrtParams::default()
            },
        );
        let mut out = [0.0; 3];
        FlatForest::from_model(&model).predict_batch(&[1.0; 7], &mut out);
    }

    #[test]
    fn staged_matches_model() {
        let data = problem(120, 2);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 25,
                ..GbrtParams::default()
            },
        );
        let flat = FlatForest::from_model(&model);
        let x = data.row(7);
        for m in [0, 1, 12, 25] {
            assert_eq!(
                flat.predict_staged(x, m).to_bits(),
                model.predict_staged(x, m).to_bits()
            );
        }
        assert_eq!(flat.predict_staged(x, 0), model.initial_value());
    }

    #[test]
    #[should_panic(expected = "at most 64 leaves")]
    fn from_model_rejects_a_65_leaf_tree() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
        let model = Gbrt::fit(
            &Dataset::new(rows, ys).unwrap(),
            &GbrtParams {
                n_trees: 1,
                max_leaves: 65,
                min_samples_leaf: 1,
                ..GbrtParams::default()
            },
        );
        assert_eq!(model.trees()[0].n_leaves(), 65);
        FlatForest::from_model(&model);
    }

    #[test]
    #[should_panic(expected = "expected 4 features")]
    fn predict_rejects_wrong_width() {
        let data = problem(50, 4);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 2,
                ..GbrtParams::default()
            },
        );
        FlatForest::from_model(&model).predict(&[1.0]);
    }
}
