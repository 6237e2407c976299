//! Pre-sorted exact-greedy training — the fast path behind
//! [`RegressionTree::fit`](crate::RegressionTree::fit).
//!
//! The reference trainer ([`crate::reference`]) re-sorts every feature at
//! every node (`O(F · n log n)` per node) and, historically, cloned the
//! full index array for every improving split candidate. This module
//! instead argsorts each feature **once** per boosting run
//! ([`Presorted`]) and maintains per-node per-feature index arrays by
//! stable partition as the tree grows — `O(F · n)` per split — the
//! "exact greedy" layout popularized by XGBoost. Large nodes fan the
//! per-feature scan over scoped threads with a deterministic reduce.
//!
//! # Bit-identical results
//!
//! The reference scan visits a node's samples sorted by feature value
//! with ties in *incoming order* — the order the node's sample list was
//! passed in: the parent's winning-feature sort order, or the caller's
//! index list at the root. Floating-point accumulation makes that
//! summation order observable (ULP differences in gains can flip
//! splits), so the partitioned arrays must reproduce it exactly. Two
//! invariants guarantee that:
//!
//! 1. a child's incoming order is the winning feature's sorted array
//!    restricted to that side (exactly the slice the reference passes
//!    down), and
//! 2. every other feature array is rebuilt by a counting sort of the
//!    child's incoming order keyed on value runs ([`scatter_by_run`]) —
//!    value-ascending with ties in incoming order, exactly what a stable
//!    per-node re-sort would have produced, in linear time even on
//!    heavily tied (discrete) features.
//!
//! With those invariants every prefix sum, gain, threshold, and leaf
//! mean is computed over the exact float sequence the reference trainer
//! uses, so the grown trees match it bit for bit. The cross-feature
//! reduce keeps the reference's tie-breaking: strictly greater gain
//! wins, so exact ties go to the lowest feature index and, within a
//! feature, the earliest split position.

use crate::tree::{Node, RegressionTree, TreeParams};

/// Work threshold (node samples × features) above which the per-feature
/// scan fans out over scoped threads. Below it, thread spawn overhead
/// outweighs the scan.
const PARALLEL_WORK_THRESHOLD: usize = 1 << 16;

/// Per-feature argsort of a column matrix: `sorted[f]` lists every
/// sample id ascending by `cols[f]`, ties in id order. Computed once and
/// shared across all trees of a boosting run.
pub(crate) struct Presorted {
    sorted: Vec<Vec<u32>>,
    n_samples: usize,
}

impl Presorted {
    /// Argsorts every column. `n_samples` covers the case of a dataset
    /// with zero features, where `cols` is empty.
    pub(crate) fn new(cols: &[Vec<f64>], n_samples: usize) -> Self {
        assert!(
            n_samples < u32::MAX as usize,
            "sample count exceeds u32 index space"
        );
        let sorted = cols
            .iter()
            .map(|col| {
                let mut idx: Vec<u32> = (0..n_samples as u32).collect();
                idx.sort_by(|&a, &b| {
                    col[a as usize]
                        .partial_cmp(&col[b as usize])
                        .expect("finite feature values")
                });
                idx
            })
            .collect();
        Presorted { sorted, n_samples }
    }
}

/// One growable node's training state: its sample list in incoming order
/// plus per-feature sorted views of the same samples.
struct NodeArrays {
    /// Samples in incoming order (the order the reference trainer's
    /// index slice would arrive in): the caller's list at the root, the
    /// parent's winning-feature order restricted to this side below.
    order: Vec<u32>,
    /// `sorted[f]`: this node's samples ascending by feature `f`, ties
    /// in incoming order.
    sorted: Vec<Vec<u32>>,
}

/// A found split: the boundary sits between positions `k-1` and `k` of
/// `sorted[feature]`.
struct Split {
    feature: usize,
    threshold: f64,
    gain: f64,
    k: usize,
}

/// A grown-but-unexpanded leaf awaiting possible splitting.
struct Candidate {
    node: usize,
    arrays: NodeArrays,
    split: Split,
}

/// Reusable whole-dataset scratch, indexed by sample id (`run`) or by
/// value-run id (`counts`). `run` entries are only read for ids labeled
/// in the same step, so it needs no clearing; `counts` is resized and
/// zeroed per use.
struct Scratch {
    run: Vec<u32>,
    counts: Vec<u32>,
}

/// Labels each sample of a sorted-by-value array with its value-run id
/// (consecutive equal values share a run; runs are numbered ascending by
/// value). Returns the run count.
fn label_runs(col: &[f64], sorted: &[u32], run: &mut [u32]) -> usize {
    let mut id = 0u32;
    let mut prev = col[sorted[0] as usize];
    for &s in sorted {
        let v = col[s as usize];
        if v != prev {
            id += 1;
            prev = v;
        }
        run[s as usize] = id;
    }
    id as usize + 1
}

/// Stable counting sort of `order` by run label: the result lists
/// `order`'s samples ascending by feature value with ties in `order`
/// order — exactly the sorted-array invariant a child node needs, in
/// `O(n + runs)` with no comparisons.
fn scatter_by_run(order: &[u32], run: &[u32], counts: &mut Vec<u32>, n_runs: usize) -> Vec<u32> {
    counts.clear();
    counts.resize(n_runs, 0);
    for &id in order {
        counts[run[id as usize] as usize] += 1;
    }
    let mut acc = 0u32;
    for c in counts.iter_mut() {
        let k = *c;
        *c = acc;
        acc += k;
    }
    let mut out = vec![0u32; order.len()];
    for &id in order {
        let r = run[id as usize] as usize;
        out[counts[r] as usize] = id;
        counts[r] += 1;
    }
    out
}

fn mean(targets: &[f64], order: &[u32]) -> f64 {
    order.iter().map(|&i| targets[i as usize]).sum::<f64>() / order.len() as f64
}

/// Scans one feature's sorted array for the best split boundary.
/// Returns `(gain, k)` of the first position achieving the feature's
/// maximum gain, or `None` when no boundary clears the gain floor.
///
/// The prefix-sum sequence is identical to the reference trainer's scan
/// of its per-node re-sorted array (see module docs), so gains match it
/// bit for bit.
fn scan_feature(
    col: &[f64],
    sorted: &[u32],
    targets: &[f64],
    total_sum: f64,
    parent_score: f64,
    min_leaf: usize,
) -> Option<(f64, usize)> {
    let n = sorted.len();
    let mut left_sum = 0.0;
    let mut best: Option<(f64, usize)> = None;
    let mut prev = col[sorted[0] as usize];
    for k in 1..n {
        left_sum += targets[sorted[k - 1] as usize];
        let cur = col[sorted[k] as usize];
        // Cannot split between equal feature values.
        if prev == cur {
            continue;
        }
        prev = cur;
        if k < min_leaf || n - k < min_leaf {
            continue;
        }
        let right_sum = total_sum - left_sum;
        let score = left_sum * left_sum / k as f64 + right_sum * right_sum / (n - k) as f64;
        let gain = score - parent_score;
        if gain > 1e-12 && best.is_none_or(|b| gain > b.0) {
            best = Some((gain, k));
        }
    }
    best
}

/// Finds the squared-error-optimal split of a node, or `None` when no
/// split has positive gain. Fans features over scoped threads when the
/// node is large; the reduce is deterministic (highest gain wins, exact
/// ties to the lowest feature index) so the gate never changes results.
fn best_split(
    cols: &[Vec<f64>],
    targets: &[f64],
    arrays: &NodeArrays,
    min_leaf: usize,
) -> Option<Split> {
    let n = arrays.order.len();
    if n < 2 * min_leaf.max(1) {
        return None;
    }
    let n_features = cols.len();
    let total_sum: f64 = arrays.order.iter().map(|&i| targets[i as usize]).sum();
    let parent_score = total_sum * total_sum / n as f64;

    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n_features);
    let per_feature: Vec<Option<(f64, usize)>> =
        if workers > 1 && n * n_features >= PARALLEL_WORK_THRESHOLD {
            let chunk = n_features.div_ceil(workers);
            let sorted = &arrays.sorted;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n_features)
                    .step_by(chunk)
                    .map(|start| {
                        let end = (start + chunk).min(n_features);
                        s.spawn(move || {
                            (start..end)
                                .map(|f| {
                                    scan_feature(
                                        &cols[f],
                                        &sorted[f],
                                        targets,
                                        total_sum,
                                        parent_score,
                                        min_leaf,
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                // Join in spawn order: results land in feature order.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("feature scan worker panicked"))
                    .collect()
            })
        } else {
            (0..n_features)
                .map(|f| {
                    scan_feature(
                        &cols[f],
                        &arrays.sorted[f],
                        targets,
                        total_sum,
                        parent_score,
                        min_leaf,
                    )
                })
                .collect()
        };

    let mut best: Option<(usize, f64, usize)> = None;
    for (f, cand) in per_feature.iter().enumerate() {
        if let Some((gain, k)) = *cand {
            if best.is_none_or(|b| gain > b.1) {
                best = Some((f, gain, k));
            }
        }
    }
    best.map(|(feature, gain, k)| {
        let s = &arrays.sorted[feature];
        let threshold = 0.5 * (cols[feature][s[k - 1] as usize] + cols[feature][s[k] as usize]);
        Split {
            feature,
            threshold,
            gain,
            k,
        }
    })
}

/// Splits a node's arrays into its two children. The winning feature's
/// two halves are each child's incoming order; every other feature array
/// is rebuilt by a run-labeled counting sort of that order, which yields
/// value-ascending arrays with ties in incoming order (the invariant the
/// reference trainer's per-node stable re-sort produces) in `O(F · n)`
/// with no comparison sorts.
fn partition(
    arrays: NodeArrays,
    split: &Split,
    cols: &[Vec<f64>],
    scratch: &mut Scratch,
) -> (NodeArrays, NodeArrays) {
    let winner = &arrays.sorted[split.feature];
    let (left_ids, right_ids) = winner.split_at(split.k);
    let left_order = left_ids.to_vec();
    let right_order = right_ids.to_vec();

    let mut left_sorted = Vec::with_capacity(cols.len());
    let mut right_sorted = Vec::with_capacity(cols.len());
    for (f, arr) in arrays.sorted.iter().enumerate() {
        if f == split.feature {
            // The winning feature's partition IS each child's incoming
            // order: already sorted with ties in its own order.
            left_sorted.push(left_order.clone());
            right_sorted.push(right_order.clone());
            continue;
        }
        let n_runs = label_runs(&cols[f], arr, &mut scratch.run);
        left_sorted.push(scatter_by_run(
            &left_order,
            &scratch.run,
            &mut scratch.counts,
            n_runs,
        ));
        right_sorted.push(scatter_by_run(
            &right_order,
            &scratch.run,
            &mut scratch.counts,
            n_runs,
        ));
    }
    (
        NodeArrays {
            order: left_order,
            sorted: left_sorted,
        },
        NodeArrays {
            order: right_order,
            sorted: right_sorted,
        },
    )
}

/// Grows one best-first tree over pre-sorted columns.
///
/// `indices: None` trains on all samples in id order (the common
/// no-subsample case — the root reuses `pre`'s arrays directly).
/// `indices: Some(list)` trains on that subset in that order; the list's
/// entries must be distinct and in bounds.
pub(crate) fn fit_presorted(
    cols: &[Vec<f64>],
    pre: &Presorted,
    targets: &[f64],
    indices: Option<&[usize]>,
    params: &TreeParams,
) -> RegressionTree {
    assert!(params.max_leaves >= 1, "max_leaves must be at least 1");
    let n_samples = pre.n_samples;
    let mut scratch = Scratch {
        run: vec![0; n_samples],
        counts: Vec::new(),
    };
    let root = match indices {
        None => NodeArrays {
            order: (0..n_samples as u32).collect(),
            sorted: pre.sorted.clone(),
        },
        Some(idx) => {
            assert!(!idx.is_empty(), "cannot fit a tree on zero samples");
            let mut seen = vec![false; n_samples];
            let order: Vec<u32> = idx
                .iter()
                .map(|&i| {
                    assert!(i < n_samples, "sample index {i} out of bounds");
                    assert!(!seen[i], "duplicate sample index {i}");
                    seen[i] = true;
                    i as u32
                })
                .collect();
            let sorted = pre
                .sorted
                .iter()
                .enumerate()
                .map(|(f, arr)| {
                    let n_runs = label_runs(&cols[f], arr, &mut scratch.run);
                    scatter_by_run(&order, &scratch.run, &mut scratch.counts, n_runs)
                })
                .collect();
            NodeArrays { order, sorted }
        }
    };
    assert!(!root.order.is_empty(), "cannot fit a tree on zero samples");

    let root_value = mean(targets, &root.order);
    let mut tree = RegressionTree {
        nodes: vec![Node::Leaf { value: root_value }],
        n_features: cols.len(),
        split_gains: Vec::new(),
    };
    let mut leaves = 1usize;
    let mut candidates: Vec<Candidate> = Vec::new();
    if let Some(split) = best_split(cols, targets, &root, params.min_samples_leaf) {
        candidates.push(Candidate {
            node: 0,
            arrays: root,
            split,
        });
    }

    while leaves < params.max_leaves && !candidates.is_empty() {
        // Deterministic arg-max: largest gain, ties to the earliest
        // candidate (same policy as the reference trainer).
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate() {
            if c.split.gain > candidates[best].split.gain {
                best = i;
            }
        }
        let Candidate {
            node,
            arrays,
            split,
        } = candidates.swap_remove(best);
        let (left_arrays, right_arrays) = partition(arrays, &split, cols, &mut scratch);

        let left_value = mean(targets, &left_arrays.order);
        let right_value = mean(targets, &right_arrays.order);
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

        for (child, arr) in [(left_id, left_arrays), (right_id, right_arrays)] {
            if let Some(s) = best_split(cols, targets, &arr, params.min_samples_leaf) {
                candidates.push(Candidate {
                    node: child,
                    arrays: arr,
                    split: s,
                });
            }
        }
    }
    tree
}
