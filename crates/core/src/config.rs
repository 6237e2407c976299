//! Top-level configuration: the paper's Table 2 parameters plus the
//! substrate configurations.

use ewb_browser::CpuCostModel;
use ewb_net::NetConfig;
use ewb_rrc::RrcConfig;
use serde::{Deserialize, Serialize};

/// The settable Table 2 parameter. Tp and Td are
/// [`TP_S`](crate::cases::TP_S) and [`TD_S`](crate::cases::TD_S), and
/// Algorithm 2's mode is which of them a [`Case`](crate::cases::Case)
/// releases at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmParams {
    /// Interest threshold α: wait this long after the page opens before
    /// predicting (sub-α visits never reach the predictor). Paper: 2 s.
    pub alpha_s: f64,
}

impl AlgorithmParams {
    /// The paper's values.
    pub fn paper() -> Self {
        AlgorithmParams { alpha_s: 2.0 }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.alpha_s.is_finite() || self.alpha_s < 0.0 {
            return Err(format!(
                "alpha_s must be non-negative, got {}",
                self.alpha_s
            ));
        }
        Ok(())
    }
}

impl Default for AlgorithmParams {
    fn default() -> Self {
        AlgorithmParams::paper()
    }
}

/// All knobs of the reproduction in one place.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// UMTS radio (timers, power, promotions).
    pub rrc: RrcConfig,
    /// 3G link (goodput, RTT).
    pub net: NetConfig,
    /// Smartphone CPU cost model.
    pub cost: CpuCostModel,
    /// Algorithm 2 parameters.
    pub alg: AlgorithmParams,
}

impl CoreConfig {
    /// The paper's testbed configuration.
    pub fn paper() -> Self {
        CoreConfig {
            rrc: RrcConfig::paper(),
            net: NetConfig::paper(),
            cost: CpuCostModel::smartphone(),
            alg: AlgorithmParams::paper(),
        }
    }

    /// Validates every component.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), String> {
        self.rrc.validate()?;
        self.net.validate()?;
        self.alg.validate()
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::cases::{Case, ReleasePolicy, TD_S, TP_S};

    #[test]
    fn paper_params_match_table2() {
        let p = AlgorithmParams::paper();
        assert_eq!(p.alpha_s, 2.0);
        assert_eq!(TD_S, 20.0);
        assert_eq!(TP_S, 9.0);
        assert!(p.validate().is_ok());
    }

    /// Algorithm 2's power-driven mode is the Tp cases, its delay-driven
    /// mode the Td cases.
    #[test]
    fn mode_selects_threshold() {
        for (case, threshold_s) in [(Case::Accurate9, TP_S), (Case::Accurate20, TD_S)] {
            assert_eq!(
                case.release_policy(),
                ReleasePolicy::OracleThreshold { threshold_s }
            );
        }
        for (case, threshold_s) in [(Case::Predict9, TP_S), (Case::Predict20, TD_S)] {
            assert_eq!(
                case.release_policy(),
                ReleasePolicy::PredictedThreshold { threshold_s }
            );
        }
    }

    /// Tp above Td does not compile (the `const` assertion beside `TD_S`);
    /// α must be a non-negative number.
    #[test]
    fn validation_rejects_inverted_thresholds() {
        for alpha_s in [f64::NAN, -1.0, f64::INFINITY] {
            assert!(AlgorithmParams { alpha_s }.validate().is_err());
        }
    }

    #[test]
    fn core_config_validates() {
        assert!(CoreConfig::paper().validate().is_ok());
        assert_eq!(CoreConfig::default(), CoreConfig::paper());
    }
}
