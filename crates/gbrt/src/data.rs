//! Validated training data.

use ewb_simcore::Xoshiro256;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Errors produced when constructing a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// No rows were supplied.
    Empty,
    /// A row's width differs from the first row's width.
    RaggedRow {
        /// Index of the offending row.
        row: usize,
        /// Expected number of features.
        expected: usize,
        /// Actual number of features.
        actual: usize,
    },
    /// The number of targets differs from the number of rows.
    TargetMismatch {
        /// Number of rows.
        rows: usize,
        /// Number of targets.
        targets: usize,
    },
    /// A feature value or target is NaN or infinite.
    NonFinite {
        /// Row index of the offending value.
        row: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "dataset has no rows"),
            DatasetError::RaggedRow {
                row,
                expected,
                actual,
            } => write!(f, "row {row} has {actual} features, expected {expected}"),
            DatasetError::TargetMismatch { rows, targets } => {
                write!(f, "{rows} rows but {targets} targets")
            }
            DatasetError::NonFinite { row } => {
                write!(f, "row {row} contains a non-finite value")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A feature matrix plus regression targets.
///
/// Rows are samples; all rows have the same width. Values must be finite
/// (trees split on comparisons, and NaN comparisons silently send every
/// sample one way).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
    n_features: usize,
    /// Column-major copy of `rows`, built on first use. The trainer scans
    /// one feature at a time; column access through `rows` strides across
    /// every row allocation, while a column copy is a contiguous read.
    #[serde(skip)]
    columns: OnceLock<Vec<Vec<f64>>>,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        // `columns` is derived data; identity is rows + targets.
        self.rows == other.rows
            && self.targets == other.targets
            && self.n_features == other.n_features
    }
}

impl Dataset {
    /// Builds a dataset, validating shape and finiteness.
    ///
    /// # Errors
    ///
    /// Returns a [`DatasetError`] describing the first problem found.
    pub fn new(rows: Vec<Vec<f64>>, targets: Vec<f64>) -> Result<Self, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        if rows.len() != targets.len() {
            return Err(DatasetError::TargetMismatch {
                rows: rows.len(),
                targets: targets.len(),
            });
        }
        let n_features = rows[0].len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_features {
                return Err(DatasetError::RaggedRow {
                    row: i,
                    expected: n_features,
                    actual: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) || !targets[i].is_finite() {
                return Err(DatasetError::NonFinite { row: i });
            }
        }
        Ok(Dataset {
            rows,
            targets,
            n_features,
            columns: OnceLock::new(),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The feature row of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// All regression targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The feature matrix in column-major form: `columns()[f][i]` is
    /// feature `f` of sample `i`. Built lazily and cached (also after
    /// deserialization, where the cache starts empty).
    pub fn columns(&self) -> &[Vec<f64>] {
        self.columns.get_or_init(|| {
            (0..self.n_features)
                .map(|f| self.rows.iter().map(|r| r[f]).collect())
                .collect()
        })
    }

    /// Splits into `(train, test)` with `train_fraction` of the rows in
    /// the training set, shuffled by `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `(0, 1)` or either side would
    /// be empty.
    pub fn split(&self, train_fraction: f64, rng: &mut Xoshiro256) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&train_fraction) && train_fraction > 0.0,
            "train_fraction must be in (0,1), got {train_fraction}"
        );
        let mut indices: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut indices);
        let n_train = ((self.len() as f64) * train_fraction).round() as usize;
        assert!(
            n_train >= 1 && n_train < self.len(),
            "split of {} rows at {train_fraction} leaves an empty side",
            self.len()
        );
        let take = |idx: &[usize]| Dataset {
            rows: idx.iter().map(|&i| self.rows[i].clone()).collect(),
            targets: idx.iter().map(|&i| self.targets[i]).collect(),
            n_features: self.n_features,
            columns: OnceLock::new(),
        };
        (take(&indices[..n_train]), take(&indices[n_train..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::new(
            vec![
                vec![1.0, 2.0],
                vec![3.0, 4.0],
                vec![5.0, 6.0],
                vec![7.0, 8.0],
            ],
            vec![10.0, 20.0, 30.0, 40.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let d = small();
        assert_eq!(d.len(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.targets()[2], 30.0);
        assert!(!d.is_empty());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Dataset::new(vec![], vec![]), Err(DatasetError::Empty));
    }

    #[test]
    fn rejects_ragged() {
        let err = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 0.0]).unwrap_err();
        assert_eq!(
            err,
            DatasetError::RaggedRow {
                row: 1,
                expected: 1,
                actual: 2
            }
        );
        assert!(err.to_string().contains("row 1"));
    }

    #[test]
    fn rejects_target_mismatch() {
        let err = Dataset::new(vec![vec![1.0]], vec![0.0, 1.0]).unwrap_err();
        assert_eq!(
            err,
            DatasetError::TargetMismatch {
                rows: 1,
                targets: 2
            }
        );
    }

    #[test]
    fn rejects_non_finite() {
        let err = Dataset::new(vec![vec![f64::NAN]], vec![0.0]).unwrap_err();
        assert_eq!(err, DatasetError::NonFinite { row: 0 });
        let err = Dataset::new(vec![vec![1.0]], vec![f64::INFINITY]).unwrap_err();
        assert_eq!(err, DatasetError::NonFinite { row: 0 });
    }

    #[test]
    fn columns_transpose_rows() {
        let d = small();
        assert_eq!(
            d.columns(),
            &[vec![1.0, 3.0, 5.0, 7.0], vec![2.0, 4.0, 6.0, 8.0]]
        );
        // Derived views survive cloning and splitting.
        let (train, _) = d.split(0.5, &mut Xoshiro256::seed_from_u64(3));
        assert_eq!(train.columns().len(), 2);
        assert_eq!(train.columns()[0].len(), train.len());
    }

    #[test]
    fn split_partitions_rows() {
        let d = small();
        let mut rng = Xoshiro256::seed_from_u64(1);
        let (train, test) = d.split(0.5, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(train.n_features(), 2);
        // Every original target appears exactly once across the split.
        let mut all: Vec<f64> = train
            .targets()
            .iter()
            .chain(test.targets())
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = small();
        let (a, _) = d.split(0.5, &mut Xoshiro256::seed_from_u64(7));
        let (b, _) = d.split(0.5, &mut Xoshiro256::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
