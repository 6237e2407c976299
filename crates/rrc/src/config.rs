//! RRC protocol configuration: timers, promotion costs, FACH capability.

use crate::power::PowerModel;
use ewb_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Configuration of the RRC state machine.
///
/// Defaults reproduce the paper's testbed (T-Mobile UMTS, §2.1 and §5):
/// T1 = 4 s, T2 = 15 s, IDLE→DCH promotion 1.75 s (the extra delay the
/// paper measured for its "intuitive" approach in §3.1).
///
/// # Example
///
/// ```
/// use ewb_rrc::RrcConfig;
/// use ewb_simcore::SimDuration;
///
/// let cfg = RrcConfig::default();
/// assert_eq!(cfg.t1, SimDuration::from_secs(4));
/// assert_eq!(cfg.t2, SimDuration::from_secs(15));
///
/// // A carrier with a longer DCH tail:
/// let long_tail = RrcConfig { t1: SimDuration::from_secs(8), ..RrcConfig::default() };
/// assert_eq!(long_tail.t1, SimDuration::from_secs(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RrcConfig {
    /// DCH inactivity timer: dedicated channels are released (DCH→FACH)
    /// when no data has moved for this long. Paper: 4 s.
    pub t1: SimDuration,
    /// FACH inactivity timer: the signaling connection is released
    /// (FACH→IDLE) after this long without data. Paper: 15 s.
    pub t2: SimDuration,
    /// IDLE→DCH promotion latency (signaling-connection establishment plus
    /// dedicated-channel allocation). Paper §3.1 measures 1.75 s of extra
    /// delay for a cold transfer.
    pub idle_to_dch_latency: SimDuration,
    /// IDLE→FACH promotion latency (signaling connection only; used for
    /// small transfers that fit the shared channels).
    pub idle_to_fach_latency: SimDuration,
    /// FACH→DCH promotion latency (channels allocated on an existing
    /// signaling connection — cheaper than a cold start, per §2.1).
    pub fach_to_dch_latency: SimDuration,
    /// Time spent executing the fast-dormancy release procedure (the
    /// paper's RIL `state switch`, §4.4) before the radio actually reaches
    /// IDLE. Power during this window is the current state's level.
    pub release_latency: SimDuration,
    /// Largest transfer the FACH shared channels can carry. The paper puts
    /// FACH throughput at "a few hundred bytes/second"; anything bigger
    /// forces a DCH promotion.
    pub fach_capacity_bytes: u64,
    /// The handset power model (Table 5).
    pub power: PowerModel,
}

impl RrcConfig {
    /// The paper's testbed parameters.
    pub fn paper() -> Self {
        RrcConfig {
            t1: SimDuration::from_secs(4),
            t2: SimDuration::from_secs(15),
            idle_to_dch_latency: SimDuration::from_millis(1750),
            idle_to_fach_latency: SimDuration::from_millis(600),
            fach_to_dch_latency: SimDuration::from_millis(900),
            release_latency: SimDuration::from_millis(200),
            fach_capacity_bytes: 512,
            power: PowerModel::paper(),
        }
    }

    /// Whether a transfer of `bytes` requires dedicated channels (DCH)
    /// rather than the FACH shared channels.
    pub fn needs_dch(&self, bytes: u64) -> bool {
        bytes > self.fach_capacity_bytes
    }

    /// Validates timers and the power model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.t1.is_zero() {
            return Err("T1 must be positive".to_string());
        }
        if self.t2.is_zero() {
            return Err("T2 must be positive".to_string());
        }
        self.power.validate()
    }
}

impl Default for RrcConfig {
    fn default() -> Self {
        RrcConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = RrcConfig::paper();
        assert_eq!(cfg.t1, SimDuration::from_secs(4));
        assert_eq!(cfg.t2, SimDuration::from_secs(15));
        assert_eq!(cfg.idle_to_dch_latency, SimDuration::from_millis(1750));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn promotion_energy_is_calibrated_to_fig3() {
        // One IDLE→DCH promotion costs latency × promotion power = 7.0 J,
        // so the §3.1 intuitive approach breaks even at the paper's 9 s.
        let cfg = RrcConfig::paper();
        let joules = cfg.power.promotion_w * cfg.idle_to_dch_latency.as_secs_f64();
        assert!((joules - 7.0).abs() < 1e-9);
    }

    #[test]
    fn needs_dch_threshold() {
        let cfg = RrcConfig::paper();
        assert!(!cfg.needs_dch(100));
        assert!(!cfg.needs_dch(512));
        assert!(cfg.needs_dch(513));
        assert!(cfg.needs_dch(1024));
    }

    #[test]
    fn validate_rejects_zero_timers() {
        let mut cfg = RrcConfig::paper();
        cfg.t1 = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
        let mut cfg = RrcConfig::paper();
        cfg.t2 = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
    }
}
