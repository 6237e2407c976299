//! Prefix-table inference for boosted forests.
//!
//! [`GbrtModel`] stores each tree as a `Vec` of enum nodes and predicts
//! by walking every tree from its root: one data-dependent load and
//! branch per level. [`FlatForest`] compiles the forest into bitvector
//! tables instead, after QuickScorer (Lucchese et al., SIGIR 2015).
//! Leaves are numbered left to right within each tree, so the leaves a
//! row can still reach form one bit set per tree, and each split node
//! has a mask that clears its left-subtree leaves. QuickScorer ANDs the
//! mask of every node that sends the row right into its tree's set, one
//! node at a time; here those ANDs are done when the forest is compiled.
//!
//! **Layout.** Trees are scored in blocks. Within a block, each feature
//! that has splits keeps its distinct split thresholds in ascending
//! order, `t_1 < … < t_n`, and `n + 1` table rows: row `r` holds every
//! tree's leaf set after ANDing the masks of the block's splits on that
//! feature whose threshold is among `t_1..=t_r` (row 0 is all ones). A
//! leaf set is `width` bytes, leaf `k` in bit `k % 8` of byte `k / 8`,
//! and every tree of the forest has the width of the largest, so a
//! block's row is `trees × width` bytes. To score a row `x`, the kernel
//! binary-searches each feature's thresholds for the count `r` of those
//! that send `x` right (`!(x <= t)`), ANDs row `r` bytewise into the
//! block's accumulator, and takes each tree's lowest surviving leaf.
//!
//! **Exactness.** Let `L` be the leaf the walk reaches. No mask clears
//! `L`: a mask clears `L` only if `L` lies in the node's left subtree,
//! so the node is on `L`'s path and the row goes left there. Every leaf
//! left of `L` is cleared by the mask of its lowest common ancestor with
//! `L`, where it lies in the left subtree and the row goes right. So
//! once a tree's set is the AND of the masks of exactly the nodes that
//! send the row right, its lowest surviving bit is `L`, whatever the
//! masks of nodes off the path do. The accumulator holds exactly that
//! AND: the nodes on feature `f` that send `x` right are those with a
//! threshold below `x`, a prefix of the ascending list, and row `r` is
//! the AND of that prefix's masks. Equal thresholds (by `==`, so `-0.0`
//! and `0.0` too) send every `x` the same way, so they share one rank.
//! Leaf values are summed in tree order from the `-0.0` that
//! `Iterator::sum` starts from, and `init` is added last, so every
//! prediction is `to_bits`-identical to [`GbrtModel::predict`].
//!
//! **NaN.** The enum tree sends a row left when `x <= threshold`, so a
//! NaN feature goes right at every node. `NaN <= t` fails for every `t`,
//! so a NaN's count is `n` and its row holds every mask of the list: the
//! same rule. `±∞` needs no special case.
//!
//! **Sizes.** A tree may have at most 64 leaves, so `width` is 1 to 8
//! bytes. A block holds as many trees as fit in a row of `ROW_BYTES`,
//! so its accumulator is one stack array and scoring allocates nothing
//! at any forest size. A block's table has one row per distinct
//! threshold and one per list, so it holds at most `ROW_BYTES` bytes per
//! split node and per list. The deployed forest (150 trees of 8 leaves
//! over 10 features) is one block of 150-byte rows.

use crate::boost::GbrtModel;

/// Bytes in a block's row: the trees of a block times the leaf-set
/// width. It sizes the scoring accumulator and so sets the block size.
const ROW_BYTES: usize = 256;

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
    /// Bytes of each tree's leaf set.
    width: usize,
    /// Trees per block; the last block may hold fewer.
    block: usize,
    /// List range of each block: block `b` owns `lists[blocks[b]..blocks[b + 1]]`.
    blocks: Vec<usize>,
    /// One per feature with splits in a block, in feature order.
    lists: Vec<List>,
    /// Distinct split thresholds of each list, ascending.
    thresholds: Vec<f64>,
    /// Prefix rows of each list, one more than its thresholds.
    rows: Vec<u8>,
    /// Leaf values, `8 × width` slots per tree: leaf `k` of tree `t` is
    /// slot `t × 8 × width + k`, and a tree's unused slots hold 0.
    leaves: Vec<f64>,
}

/// One feature's thresholds and prefix rows within a block.
#[derive(Debug, Clone, PartialEq)]
struct List {
    feature: usize,
    /// Its thresholds are `thresholds[lo..hi]`.
    lo: usize,
    hi: usize,
    /// Offset of its row 0 in `rows`.
    row0: usize,
}

impl FlatForest {
    /// Compiles a trained model into prefix tables.
    ///
    /// # Panics
    ///
    /// Panics if a tree has more than 64 leaves (a tree's leaf set is at
    /// most 8 bytes).
    pub fn from_model(model: &GbrtModel) -> Self {
        let n_trees = model.n_trees();
        let max_leaves = model.trees().iter().map(|t| t.n_leaves()).max();
        let width = max_leaves.unwrap_or(1).div_ceil(8);
        let (block, slots) = (ROW_BYTES / width, 8 * width);
        let mut leaves = Vec::with_capacity(n_trees * slots);
        // (block, feature, threshold, tree in block, mask) per split node.
        let mut splits = Vec::new();
        for (t, tree) in model.trees().iter().enumerate() {
            tree.append_flat(&mut leaves, &mut |feature, threshold, mask| {
                splits.push((t / block, feature, threshold, t % block, mask));
            });
            leaves.resize((t + 1) * slots, 0.0);
        }
        // Thresholds are midpoints of finite training values, so never
        // NaN, and `total_cmp` orders them the way `<=` does, except that
        // it puts `-0.0` just before `0.0`, which `==` then merges.
        splits.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        let mut lists = splits.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)).peekable();
        let (mut blocks, mut flat_lists) = (vec![0], Vec::new());
        let (mut thresholds, mut rows) = (Vec::new(), Vec::new());
        for (b, first) in (0..n_trees).step_by(block).enumerate() {
            let len = block.min(n_trees - first) * width;
            while let Some(list) = lists.next_if(|l| l[0].0 == b) {
                let (lo, row0) = (thresholds.len(), rows.len());
                rows.resize(row0 + len, u8::MAX);
                for rank in list.chunk_by(|a, b| a.2 == b.2) {
                    thresholds.push(rank[0].2);
                    let row = rows.len();
                    rows.extend_from_within(row - len..);
                    for &(.., tree, mask) in rank {
                        let set = &mut rows[row + tree * width..][..width];
                        for (byte, m) in set.iter_mut().zip(mask.to_le_bytes()) {
                            *byte &= m;
                        }
                    }
                }
                flat_lists.push(List {
                    feature: list[0].1,
                    lo,
                    hi: thresholds.len(),
                    row0,
                });
            }
            blocks.push(flat_lists.len());
        }
        FlatForest {
            init: model.initial_value(),
            n_features: model.n_features(),
            width,
            block,
            blocks,
            lists: flat_lists,
            thresholds,
            rows,
            leaves,
        }
    }

    /// The one evaluation loop: `x` scored through the first `m` trees.
    fn score(&self, x: &[f64], m: usize) -> f64 {
        let (width, slots) = (self.width, 8 * self.width);
        // Seven bytes past the longest row, so that every set can be read
        // as a `u64`.
        let mut acc = [0; ROW_BYTES + 7];
        let mut sum = -0.0;
        for (b, first) in (0..m).step_by(self.block).enumerate() {
            let len = self.block.min(self.n_trees() - first) * width;
            let sets = &mut acc[..len];
            sets.fill(u8::MAX);
            for list in &self.lists[self.blocks[b]..self.blocks[b + 1]] {
                let v = x[list.feature];
                // `!(v <= t)`, not `v > t`: a NaN goes right at every node.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let rank = self.thresholds[list.lo..list.hi].partition_point(|&t| !(v <= t));
                let row = &self.rows[list.row0 + rank * len..][..len];
                for (set, &r) in sets.iter_mut().zip(row) {
                    *set &= r;
                }
            }
            // A partial block (the last of stage `m`) sums only its first
            // trees. Past one byte, a tree's set is read as the low bytes
            // of a `u64`: its lowest set bit is in its own bytes, since no
            // mask clears the leaf the walk reaches.
            let trees = self.leaves[first * slots..].chunks_exact(slots);
            for (t, leaves) in trees.take(self.block.min(m - first)).enumerate() {
                let set = match width {
                    1 => u64::from(acc[t]),
                    _ => u64::from_le_bytes(acc[t * width..][..8].try_into().expect("8 bytes")),
                };
                sum += leaves[set.trailing_zeros() as usize];
            }
        }
        self.init + sum
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
        self.leaves.len() / (8 * self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Node;
    use crate::{Dataset, Gbrt, GbrtParams, RegressionTree};
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

    fn leaf(value: f64) -> Node {
        Node::Leaf { value }
    }

    fn split(feature: usize, threshold: f64, left: usize, right: usize) -> Node {
        Node::Split {
            feature,
            threshold,
            left,
            right,
        }
    }

    /// A model of hand-built trees, each given as its enum nodes.
    fn hand_built(n_features: usize, trees: Vec<Vec<Node>>) -> GbrtModel {
        let trees = trees
            .into_iter()
            .map(|nodes| RegressionTree {
                nodes,
                n_features,
                split_gains: Vec::new(),
            })
            .collect();
        GbrtModel {
            init: 0.25,
            trees,
            n_features,
        }
    }

    /// Asserts `flat` scores each row and every stage of it exactly as
    /// `model` does, one row at a time and as one batch.
    fn assert_exact(flat: &FlatForest, model: &GbrtModel, rows: &[Vec<f64>]) {
        let mut batch = vec![0.0; rows.len()];
        flat.predict_batch(&rows.concat(), &mut batch);
        for (x, y) in rows.iter().zip(&batch) {
            assert_eq!(y.to_bits(), model.predict(x).to_bits(), "batch row {x:?}");
            for m in 0..=model.n_trees() {
                assert_eq!(
                    flat.predict_staged(x, m).to_bits(),
                    model.predict_staged(x, m).to_bits(),
                    "stage {m}, row {x:?}"
                );
            }
        }
    }

    /// Every value of `x` on, just below and just above each of
    /// `thresholds`, plus NaN and ±∞, in feature `f` of a row of zeros.
    fn probes(n_features: usize, f: usize, thresholds: &[f64]) -> Vec<Vec<f64>> {
        let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for &t in thresholds {
            values.extend([t, t.next_down(), t.next_up()]);
        }
        values
            .iter()
            .map(|&v| {
                let mut x = vec![0.0; n_features];
                x[f] = v;
                x
            })
            .collect()
    }

    #[test]
    fn a_threshold_several_trees_share_is_one_rank() {
        // Three trees split feature 0 at 2.5, two of them at the root and
        // one below a split at 1.0; a row on 2.5 goes left at all three.
        let model = hand_built(
            1,
            vec![
                vec![split(0, 2.5, 1, 2), leaf(1.0), leaf(2.0)],
                vec![
                    split(0, 1.0, 1, 2),
                    leaf(-4.0),
                    split(0, 2.5, 3, 4),
                    leaf(8.0),
                    leaf(16.0),
                ],
                vec![
                    split(0, 2.5, 1, 2),
                    leaf(0.5),
                    split(0, 7.0, 3, 4),
                    leaf(0.125),
                    leaf(32.0),
                ],
            ],
        );
        let flat = FlatForest::from_model(&model);
        assert_eq!(flat.thresholds, [1.0, 2.5, 7.0]);
        assert_eq!(flat.predict(&[2.5]), 0.25 + (1.0 + 8.0 + 0.5));
        assert_exact(&flat, &model, &probes(1, 0, &[1.0, 2.5, 7.0]));
    }

    #[test]
    fn negative_and_positive_zero_thresholds_share_a_rank() {
        // `-0.0 <= t` and `0.0 <= t` agree for every `t`, so one list may
        // hold both zeros; they are one rank and `x = ±0.0` goes left at
        // both.
        let model = hand_built(
            2,
            vec![
                vec![split(0, -0.0, 1, 2), leaf(1.0), leaf(2.0)],
                vec![split(0, 0.0, 1, 2), leaf(4.0), leaf(8.0)],
                vec![
                    split(0, -1.0, 1, 2),
                    leaf(16.0),
                    split(0, 0.0, 3, 4),
                    leaf(32.0),
                    leaf(64.0),
                ],
            ],
        );
        let flat = FlatForest::from_model(&model);
        assert_eq!(flat.thresholds.len(), 2, "{:?}", flat.thresholds);
        for zero in [-0.0, 0.0] {
            assert_eq!(flat.predict(&[zero, 0.0]), 0.25 + (1.0 + 4.0 + 32.0));
        }
        assert_exact(&flat, &model, &probes(2, 0, &[-1.0, -0.0, 0.0]));
    }

    #[test]
    fn a_feature_with_no_splits_has_no_list() {
        let model = hand_built(
            3,
            vec![
                vec![
                    split(0, 1.5, 1, 2),
                    leaf(1.0),
                    split(2, -3.0, 3, 4),
                    leaf(2.0),
                    leaf(3.0),
                ],
                vec![split(2, 4.0, 1, 2), leaf(5.0), leaf(7.0)],
            ],
        );
        let flat = FlatForest::from_model(&model);
        let features: Vec<usize> = flat.lists.iter().map(|l| l.feature).collect();
        assert_eq!(features, [0, 2]);
        let mut rows = probes(3, 1, &[0.0]);
        rows.extend(probes(3, 0, &[1.5]));
        rows.extend(probes(3, 2, &[-3.0, 4.0]));
        for row in &mut rows[..6] {
            row[0] = 2.0;
        }
        assert_exact(&flat, &model, &rows);
    }

    #[test]
    fn a_16_leaf_forest_takes_two_bytes_per_tree() {
        let data = problem(300, 21);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 30,
                max_leaves: 16,
                min_samples_leaf: 1,
                ..GbrtParams::default()
            },
        );
        assert!(model.trees().iter().any(|t| t.n_leaves() > 8));
        let flat = FlatForest::from_model(&model);
        assert_eq!((flat.width, flat.blocks.len()), (2, 2));
        let mut rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i).to_vec()).collect();
        rows.extend(probes(4, 1, &flat.thresholds));
        assert_exact(&flat, &model, &rows);
    }

    #[test]
    fn a_64_leaf_forest_spans_blocks_at_every_stage() {
        // 32 trees of 8 bytes fill a 256-byte row, so 100 trees make four
        // blocks, the last of 4 trees.
        let data = problem(300, 22);
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 100,
                max_leaves: 64,
                subsample: 0.8,
                min_samples_leaf: 1,
                ..GbrtParams::default()
            },
        );
        assert!(model.trees().iter().any(|t| t.n_leaves() > 56));
        let flat = FlatForest::from_model(&model);
        assert_eq!((flat.width, flat.block, flat.blocks.len()), (8, 32, 5));
        // The cap holds: a block's row fits the accumulator, and its
        // table has one row per list and per distinct threshold.
        assert!(flat.block * flat.width <= ROW_BYTES);
        let mut bytes = 0;
        for (b, first) in (0..100).step_by(flat.block).enumerate() {
            let len = flat.block.min(100 - first) * flat.width;
            for list in &flat.lists[flat.blocks[b]..flat.blocks[b + 1]] {
                bytes += (list.hi - list.lo + 1) * len;
            }
        }
        assert_eq!(bytes, flat.rows.len());
        let rows: Vec<Vec<f64>> = (0..data.len())
            .step_by(5)
            .map(|i| data.row(i).to_vec())
            .collect();
        assert_exact(&flat, &model, &rows);
    }

    #[test]
    fn the_deployed_shape_is_one_block() {
        // 150 trees of 8 leaves over 10 features, as the reading-time
        // predictor: one block of 150-byte rows.
        let mut rng = Xoshiro256::seed_from_u64(23);
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|_| (0..10).map(|_| rng.f64() * 10.0).collect())
            .collect();
        let ys = rows
            .iter()
            .map(|r| r[0] * r[3] + (r[7] * 2.0).sin())
            .collect();
        let data = Dataset::new(rows, ys).unwrap();
        let model = Gbrt::fit(
            &data,
            &GbrtParams {
                n_trees: 150,
                max_leaves: 8,
                ..GbrtParams::default()
            },
        );
        let flat = FlatForest::from_model(&model);
        assert_eq!(
            (flat.width, &flat.blocks[..]),
            (1, &[0, flat.lists.len()][..])
        );
        assert_eq!(
            flat.rows.len(),
            (flat.thresholds.len() + flat.lists.len()) * 150
        );
        let rows: Vec<Vec<f64>> = (0..data.len())
            .step_by(10)
            .map(|i| data.row(i).to_vec())
            .collect();
        assert_exact(&flat, &model, &rows);
    }
}
