//! Deterministic, seeded fault injection for the 3G link.
//!
//! The paper evaluates its energy-aware load reorganization on a clean
//! UMTS link; real cells lose packets, stall, jitter, and botch RRC
//! promotions. This module defines the composable fault models the
//! [`ThreeGFetcher`](crate::ThreeGFetcher) threads through its retry
//! machinery so the reproduction can answer "does the energy win survive
//! a bad cell?":
//!
//! * **packet loss / stalls** — with probability [`FaultConfig::loss_prob`]
//!   an attempt stalls: the radio stays active for
//!   [`FaultConfig::stall_timeout`], then the attempt is abandoned and the
//!   fetcher's backoff policy decides whether to retry;
//! * **RTT jitter spikes** — with probability [`FaultConfig::jitter_prob`]
//!   an attempt pays up to [`FaultConfig::jitter_max`] of extra round-trip
//!   latency (bufferbloat, cell handover);
//! * **truncated responses** — with probability
//!   [`FaultConfig::truncation_prob`] the response arrives but is cut
//!   short/corrupt; the bytes (and radio energy) are spent, the payload is
//!   unusable, and the attempt must be retried;
//! * **RRC promotion failures** — each promotion attempt independently
//!   fails with probability [`FaultConfig::promotion_failure_prob`]; a
//!   failed promotion is retried by the signaling layer, costing one more
//!   full promotion window of latency *and* promotion-level power (the
//!   paper's measured promotion costs, §2.1/Table 5);
//! * **signal-fade windows** — deterministic periodic windows
//!   ([`FadeWindows`]) during which goodput collapses by a configured
//!   factor (driving under a bridge, elevator, cell edge).
//!
//! Every stochastic choice is drawn from one seeded
//! [`Xoshiro256`] stream in a fixed per-attempt order,
//! so a (seed, config) pair replays byte-identically — the property the
//! `ewb-net` proptests and the robustness golden test pin down.

use ewb_simcore::{SimDuration, SimTime, Xoshiro256};
use serde::{Deserialize, Serialize};

/// Periodic deterministic goodput collapse (signal fade).
///
/// Windows start at `phase`, `phase + period`, `phase + 2*period`, … and
/// last `duration` each; inside a window goodput is multiplied by
/// `goodput_factor`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FadeWindows {
    /// Offset of the first fade window from t = 0.
    pub phase: SimDuration,
    /// Distance between window starts.
    pub period: SimDuration,
    /// How long each window lasts (must be < `period`).
    pub duration: SimDuration,
    /// Goodput multiplier inside a window, in `(0, 1]`.
    pub goodput_factor: f64,
}

impl FadeWindows {
    /// Whether `t` falls inside a fade window.
    pub fn is_faded(&self, t: SimTime) -> bool {
        let t_us = t.as_micros();
        let phase_us = self.phase.as_micros();
        if t_us < phase_us {
            return false;
        }
        let into_cycle = (t_us - phase_us) % self.period.as_micros().max(1);
        into_cycle < self.duration.as_micros()
    }

    /// Goodput multiplier at `t`: `goodput_factor` inside a window, 1.0
    /// outside.
    pub fn factor_at(&self, t: SimTime) -> f64 {
        if self.is_faded(t) {
            self.goodput_factor
        } else {
            1.0
        }
    }

    /// Validates the window geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.period.is_zero() {
            return Err("fade period must be positive".to_string());
        }
        if self.duration.is_zero() || self.duration >= self.period {
            return Err(format!(
                "fade duration must be in (0, period): {} vs {}",
                self.duration, self.period
            ));
        }
        if !(self.goodput_factor.is_finite()
            && self.goodput_factor > 0.0
            && self.goodput_factor <= 1.0)
        {
            return Err(format!(
                "fade goodput factor must be in (0, 1], got {}",
                self.goodput_factor
            ));
        }
        Ok(())
    }
}

/// The composable fault model. All probabilities are per *attempt*.
///
/// [`FaultConfig::none`] disables everything; the presets
/// ([`FaultConfig::lossy`], [`FaultConfig::jittery`],
/// [`FaultConfig::fading`]) are the profiles the robustness experiment
/// sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability an attempt stalls and is lost.
    pub loss_prob: f64,
    /// Radio-active time burned before a stalled attempt is abandoned.
    pub stall_timeout: SimDuration,
    /// Probability of an RTT jitter spike on an attempt.
    pub jitter_prob: f64,
    /// Maximum extra RTT of a spike (uniform in `[0, jitter_max)`).
    pub jitter_max: SimDuration,
    /// Probability the response arrives truncated/corrupt (time and
    /// energy spent, payload unusable).
    pub truncation_prob: f64,
    /// Probability each RRC promotion attempt fails and must be retried.
    pub promotion_failure_prob: f64,
    /// Cap on consecutive promotion retries per transfer.
    pub max_promotion_retries: u32,
    /// Optional periodic signal-fade windows.
    pub fade: Option<FadeWindows>,
}

impl FaultConfig {
    /// Everything off: the clean link. A stream of this config draws no
    /// randomness and scales goodput by exactly 1.0, so it is what every
    /// [`RadioFetcher`](crate::RadioFetcher) starts with
    /// ([`FaultStream::none`]) and what the clean fault tier attaches.
    pub fn none() -> Self {
        FaultConfig {
            loss_prob: 0.0,
            stall_timeout: SimDuration::from_secs(3),
            jitter_prob: 0.0,
            jitter_max: SimDuration::ZERO,
            truncation_prob: 0.0,
            promotion_failure_prob: 0.0,
            max_promotion_retries: 2,
            fade: None,
        }
    }

    /// Pure packet loss/stalls at rate `loss_prob`, with a small
    /// correlated truncation rate (a lossy cell corrupts some of what it
    /// does deliver).
    pub fn lossy(loss_prob: f64) -> Self {
        FaultConfig {
            loss_prob,
            truncation_prob: loss_prob / 4.0,
            ..FaultConfig::none()
        }
    }

    /// Loss plus RTT jitter spikes and promotion failures — the congested
    /// cell.
    pub fn jittery(loss_prob: f64) -> Self {
        FaultConfig {
            loss_prob,
            truncation_prob: loss_prob / 4.0,
            jitter_prob: 0.3,
            jitter_max: SimDuration::from_millis(1500),
            promotion_failure_prob: loss_prob,
            ..FaultConfig::none()
        }
    }

    /// Loss plus periodic deep fades (goodput collapses to 10 % for 4 s
    /// out of every 20 s) — the cell edge.
    pub fn fading(loss_prob: f64) -> Self {
        FaultConfig {
            loss_prob,
            truncation_prob: loss_prob / 4.0,
            fade: Some(FadeWindows {
                phase: SimDuration::from_secs(5),
                period: SimDuration::from_secs(20),
                duration: SimDuration::from_secs(4),
                goodput_factor: 0.1,
            }),
            ..FaultConfig::none()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss_prob", self.loss_prob),
            ("jitter_prob", self.jitter_prob),
            ("truncation_prob", self.truncation_prob),
            ("promotion_failure_prob", self.promotion_failure_prob),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        if self.loss_prob > 0.0 && self.stall_timeout.is_zero() {
            return Err("stall_timeout must be positive when loss_prob > 0".to_string());
        }
        if self.jitter_prob > 0.0 && self.jitter_max.is_zero() {
            return Err("jitter_max must be positive when jitter_prob > 0".to_string());
        }
        if let Some(fade) = &self.fade {
            fade.validate()?;
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// The faults drawn for one transfer attempt, in a fixed order so the
/// stream is replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptPlan {
    /// The attempt stalls and is abandoned after `stall_timeout`.
    pub lost: bool,
    /// The response arrives truncated/corrupt (only meaningful when the
    /// attempt is not lost).
    pub truncated: bool,
    /// Extra round-trip latency from a jitter spike.
    pub extra_rtt: SimDuration,
    /// Consecutive promotion failures to charge if this attempt needs a
    /// promotion.
    pub promotion_retries: u32,
}

/// A seeded stream of fault decisions.
///
/// One `FaultStream` belongs to one fetcher; attempts consume draws in
/// issue order, so (seed, config, request pattern) fully determines every
/// outcome.
#[derive(Debug, Clone)]
pub struct FaultStream {
    cfg: FaultConfig,
    rng: Xoshiro256,
}

/// The seed of [`FaultStream::none`]. A none stream never draws, so no
/// outcome depends on it.
const CLEAN_LINK_SEED: u64 = 0;

impl FaultStream {
    /// The clean link's stream: [`FaultConfig::none`], which injects no
    /// fault and never advances its generator.
    pub fn none() -> Self {
        FaultStream {
            cfg: FaultConfig::none(),
            rng: Xoshiro256::seed_from_u64(CLEAN_LINK_SEED),
        }
    }

    /// Creates a stream after validating `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the configuration's first validation failure.
    pub fn new(cfg: FaultConfig, seed: u64) -> Result<Self, String> {
        cfg.validate()?;
        Ok(FaultStream {
            cfg,
            rng: Xoshiro256::seed_from_u64(seed),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Draws the fault plan for the next transfer attempt. The draw order
    /// (loss, truncation, jitter, promotion retries) is part of the
    /// determinism contract — do not reorder.
    pub fn next_attempt(&mut self) -> AttemptPlan {
        let lost = self.cfg.loss_prob > 0.0 && self.rng.chance(self.cfg.loss_prob);
        let truncated = self.cfg.truncation_prob > 0.0 && self.rng.chance(self.cfg.truncation_prob);
        let extra_rtt = if self.cfg.jitter_prob > 0.0 && self.rng.chance(self.cfg.jitter_prob) {
            SimDuration::from_secs_f64(self.rng.f64() * self.cfg.jitter_max.as_secs_f64())
        } else {
            SimDuration::ZERO
        };
        let mut promotion_retries = 0;
        while promotion_retries < self.cfg.max_promotion_retries
            && self.cfg.promotion_failure_prob > 0.0
            && self.rng.chance(self.cfg.promotion_failure_prob)
        {
            promotion_retries += 1;
        }
        AttemptPlan {
            lost,
            truncated,
            extra_rtt,
            promotion_retries,
        }
    }

    /// Goodput multiplier at `t` from the fade model (1.0 when no fade is
    /// configured). Deterministic — consumes no randomness.
    pub fn goodput_factor(&self, t: SimTime) -> f64 {
        self.cfg.fade.map_or(1.0, |f| f.factor_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_config_draws_clean_plans() {
        let clean = AttemptPlan {
            lost: false,
            truncated: false,
            extra_rtt: SimDuration::ZERO,
            promotion_retries: 0,
        };
        for mut s in [
            FaultStream::new(FaultConfig::none(), 7).unwrap(),
            FaultStream::none(),
        ] {
            let untouched = s.rng.clone();
            for _ in 0..100 {
                assert_eq!(s.next_attempt(), clean);
            }
            assert_eq!(s.rng, untouched, "a none stream never draws");
            assert_eq!(s.goodput_factor(SimTime::from_secs(123)), 1.0);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = FaultConfig::jittery(0.2);
        let mut a = FaultStream::new(cfg, 42).unwrap();
        let mut b = FaultStream::new(cfg, 42).unwrap();
        for _ in 0..500 {
            assert_eq!(a.next_attempt(), b.next_attempt());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = FaultConfig::lossy(0.5);
        let mut a = FaultStream::new(cfg, 1).unwrap();
        let mut b = FaultStream::new(cfg, 2).unwrap();
        let plans_a: Vec<_> = (0..64).map(|_| a.next_attempt().lost).collect();
        let plans_b: Vec<_> = (0..64).map(|_| b.next_attempt().lost).collect();
        assert_ne!(plans_a, plans_b);
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let mut s = FaultStream::new(FaultConfig::lossy(0.1), 9).unwrap();
        let lost = (0..10_000).filter(|_| s.next_attempt().lost).count();
        assert!((800..1200).contains(&lost), "lost {lost}/10000 at p=0.1");
    }

    #[test]
    fn fade_windows_are_periodic() {
        let fade = FadeWindows {
            phase: SimDuration::from_secs(5),
            period: SimDuration::from_secs(20),
            duration: SimDuration::from_secs(4),
            goodput_factor: 0.1,
        };
        assert!(fade.validate().is_ok());
        assert!(!fade.is_faded(SimTime::ZERO));
        assert!(!fade.is_faded(SimTime::from_secs(4)));
        assert!(fade.is_faded(SimTime::from_secs(5)));
        assert!(fade.is_faded(SimTime::from_millis(8_999)));
        assert!(!fade.is_faded(SimTime::from_secs(9)));
        assert!(fade.is_faded(SimTime::from_secs(25)));
        assert!(!fade.is_faded(SimTime::from_secs(29)));
        assert_eq!(fade.factor_at(SimTime::from_secs(6)), 0.1);
        assert_eq!(fade.factor_at(SimTime::from_secs(15)), 1.0);
    }

    #[test]
    fn promotion_retries_are_capped() {
        let cfg = FaultConfig {
            promotion_failure_prob: 1.0,
            max_promotion_retries: 3,
            ..FaultConfig::none()
        };
        let mut s = FaultStream::new(cfg, 3).unwrap();
        for _ in 0..50 {
            assert_eq!(s.next_attempt().promotion_retries, 3);
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = FaultConfig::none();
        cfg.loss_prob = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::none();
        cfg.loss_prob = 0.1;
        cfg.stall_timeout = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::none();
        cfg.jitter_prob = 0.1;
        assert!(cfg.validate().is_err(), "jitter without jitter_max");
        let mut cfg = FaultConfig::none();
        cfg.fade = Some(FadeWindows {
            phase: SimDuration::ZERO,
            period: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(10),
            goodput_factor: 0.5,
        });
        assert!(cfg.validate().is_err(), "duration must be < period");
        assert!(FaultStream::new(cfg, 0).is_err());
    }

    #[test]
    fn presets_validate_and_compose() {
        for p in [0.0, 0.02, 0.05, 0.2, 1.0] {
            assert!(FaultConfig::lossy(p).validate().is_ok());
            assert!(FaultConfig::jittery(p).validate().is_ok());
            assert!(FaultConfig::fading(p).validate().is_ok());
        }
    }
}
