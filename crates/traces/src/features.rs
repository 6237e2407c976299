//! The Table 1 feature vector.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of predictor features (Table 1 lists ten inputs; "Reading Time"
/// is the target).
pub const N_FEATURES: usize = 10;

/// Table 1 feature names, in order.
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "Transmission Time",
    "Webpage Size",
    "Download Objects",
    "Download JavaScript files",
    "Download Figures",
    "Figure Size",
    "JavaScript Running Time",
    "Second URL",
    "Page Height",
    "Page Width",
];

/// One page visit's feature vector `x = {x1..x10}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector(pub [f64; N_FEATURES]);

impl FeatureVector {
    /// The vector as a GBRT input row.
    pub fn to_vec(&self) -> Vec<f64> {
        self.0.to_vec()
    }

    /// Builds from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not have exactly [`N_FEATURES`] elements.
    pub fn from_slice(values: &[f64]) -> Self {
        assert_eq!(
            values.len(),
            N_FEATURES,
            "expected {N_FEATURES} features, got {}",
            values.len()
        );
        let mut arr = [0.0; N_FEATURES];
        arr.copy_from_slice(values);
        FeatureVector(arr)
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, v)) in FEATURE_NAMES.iter().zip(self.0.iter()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={v:.2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_slice() {
        let fv = FeatureVector([0.5; N_FEATURES]);
        assert_eq!(FeatureVector::from_slice(&fv.to_vec()), fv);
    }

    #[test]
    #[should_panic(expected = "expected 10 features")]
    fn rejects_wrong_width() {
        FeatureVector::from_slice(&[1.0, 2.0]);
    }

    #[test]
    fn display_names_every_feature() {
        let fv = FeatureVector([1.0; N_FEATURES]);
        let s = fv.to_string();
        for name in FEATURE_NAMES {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
