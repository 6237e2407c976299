//! The paper's Table 6 policy cases.
//!
//! | Case | Description (paper wording) |
//! |---|---|
//! | Original | the stock browser, timers only (the baseline every saving is measured against) |
//! | Original Always-off | "After the webpage is opened by the original web browser" → switch to IDLE |
//! | Energy-aware Always-off | "After the webpage is opened in our approach where the computation sequence is reorganized" |
//! | Accurate-9 | "The reading time in the user trace is longer than Tp = 9 seconds in our approach" |
//! | Predict-9 | "The predicted reading time is longer than Tp = 9 seconds in our approach" |
//! | Accurate-20 | "The reading time in the user trace is longer than Td = 20 seconds in our approach" |
//! | Predict-20 | "The predicted reading time is longer than Td = 20 seconds in our approach" |

use ewb_browser::pipeline::PipelineMode;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Algorithm 2's power-driven threshold Tp = 9 s (the Fig. 3 break-even):
/// the power-driven mode releases when `Tr > Tp` (the -9 cases).
pub const TP_S: f64 = 9.0;

/// Algorithm 2's delay-driven threshold Td = T1 + T2 ≈ 20 s: the
/// delay-driven mode releases only when `Tr > Td`, where no delay penalty
/// is possible (the -20 cases).
pub const TD_S: f64 = 20.0;

const _: () = assert!(TP_S <= TD_S, "Tp must not exceed Td");

/// When (if ever) the radio is released to IDLE after a page opens.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReleasePolicy {
    /// Never release: let T1/T2 do their thing (the original browser).
    Never,
    /// Always release as soon as the page has opened.
    AfterLoad,
    /// Release at `opened + α` if the *actual* reading time exceeds the
    /// threshold (the paper's oracle upper bound, "Accurate-N").
    OracleThreshold {
        /// Release threshold in seconds (Tp or Td).
        threshold_s: f64,
    },
    /// Release at `opened + α` if the *predicted* reading time exceeds
    /// the threshold ("Predict-N").
    PredictedThreshold {
        /// Release threshold in seconds (Tp or Td).
        threshold_s: f64,
    },
}

/// One of the evaluation's seven configurations (the Original baseline
/// plus the six Table 6 cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Case {
    /// Stock browser, no early release — the baseline.
    Original,
    /// Stock browser, release right after every page opens.
    OriginalAlwaysOff,
    /// Reorganized browser, release right after every page opens.
    EnergyAwareAlwaysOff,
    /// Reorganized browser, oracle release at Tp = 9 s (power-driven
    /// upper bound).
    Accurate9,
    /// Reorganized browser, predicted release at Tp = 9 s.
    Predict9,
    /// Reorganized browser, oracle release at Td = 20 s (delay-driven
    /// upper bound).
    Accurate20,
    /// Reorganized browser, predicted release at Td = 20 s.
    Predict20,
}

impl Case {
    /// All six Table 6 cases (excluding the baseline), in figure order.
    pub const TABLE6: [Case; 6] = [
        Case::OriginalAlwaysOff,
        Case::EnergyAwareAlwaysOff,
        Case::Accurate9,
        Case::Predict9,
        Case::Accurate20,
        Case::Predict20,
    ];

    /// The browser pipeline this case runs.
    pub fn pipeline_mode(self) -> PipelineMode {
        match self {
            Case::Original | Case::OriginalAlwaysOff => PipelineMode::Original,
            _ => PipelineMode::EnergyAware,
        }
    }

    /// The release policy this case applies, at the paper's thresholds
    /// [`TP_S`] and [`TD_S`].
    pub fn release_policy(self) -> ReleasePolicy {
        match self {
            Case::Original => ReleasePolicy::Never,
            Case::OriginalAlwaysOff | Case::EnergyAwareAlwaysOff => ReleasePolicy::AfterLoad,
            Case::Accurate9 => ReleasePolicy::OracleThreshold { threshold_s: TP_S },
            Case::Predict9 => ReleasePolicy::PredictedThreshold { threshold_s: TP_S },
            Case::Accurate20 => ReleasePolicy::OracleThreshold { threshold_s: TD_S },
            Case::Predict20 => ReleasePolicy::PredictedThreshold { threshold_s: TD_S },
        }
    }

    /// Whether this case consults the trained predictor.
    pub fn needs_predictor(self) -> bool {
        matches!(self, Case::Predict9 | Case::Predict20)
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Case::Original => "Original",
            Case::OriginalAlwaysOff => "Original Always-off",
            Case::EnergyAwareAlwaysOff => "Energy-aware Always-off",
            Case::Accurate9 => "Accurate-9",
            Case::Predict9 => "Predict-9",
            Case::Accurate20 => "Accurate-20",
            Case::Predict20 => "Predict-20",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelines_match_table6() {
        assert_eq!(Case::Original.pipeline_mode(), PipelineMode::Original);
        assert_eq!(
            Case::OriginalAlwaysOff.pipeline_mode(),
            PipelineMode::Original
        );
        for c in [Case::EnergyAwareAlwaysOff, Case::Accurate9, Case::Predict20] {
            assert_eq!(c.pipeline_mode(), PipelineMode::EnergyAware);
        }
    }

    #[test]
    fn policies_carry_the_right_thresholds() {
        assert_eq!(Case::Original.release_policy(), ReleasePolicy::Never);
        assert_eq!(
            Case::Accurate9.release_policy(),
            ReleasePolicy::OracleThreshold { threshold_s: 9.0 }
        );
        assert_eq!(
            Case::Predict20.release_policy(),
            ReleasePolicy::PredictedThreshold { threshold_s: 20.0 }
        );
        assert_eq!(
            Case::EnergyAwareAlwaysOff.release_policy(),
            ReleasePolicy::AfterLoad
        );
    }

    #[test]
    fn predictor_requirement() {
        assert!(Case::Predict9.needs_predictor());
        assert!(Case::Predict20.needs_predictor());
        assert!(!Case::Accurate9.needs_predictor());
        assert!(!Case::Original.needs_predictor());
    }

    #[test]
    fn table6_lists_six_cases_with_names() {
        assert_eq!(Case::TABLE6.len(), 6);
        for c in Case::TABLE6 {
            assert!(!c.to_string().is_empty());
        }
        assert_eq!(Case::Accurate20.to_string(), "Accurate-20");
    }
}
