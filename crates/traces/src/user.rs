//! The dwell-time model: how long a user reads a page.
//!
//! Structure (calibrated to the paper's Fig. 7 anchors):
//!
//! * With probability ≈30 % the visit is a **quick bounce**: the user
//!   clicks through within the interest threshold (α = 2 s), independent
//!   of the page — this is the population the paper excludes from
//!   training (§4.3.4).
//! * Otherwise the visit is **engaged**: dwell is a Weibull quantile
//!   (Liu et al., the paper's \[12\], found web dwell is Weibull) whose
//!   quantile position depends on a *three-way interaction* of binarized
//!   page attributes plus the user's interest in the site's topic. The
//!   interaction is linearly invisible (Table 4) but an 8-leaf regression
//!   tree captures it exactly — the paper's design point.

use crate::synth::VisitLatents;
use ewb_simcore::Xoshiro256;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Weibull shape for engaged dwell, fitted to the paper's Fig. 7 anchors
/// (P(<9 s | engaged) = 0.33, P(<20 s | engaged) = 0.54).
pub const DWELL_SHAPE: f64 = 0.84;
/// Weibull scale for engaged dwell, seconds.
pub const DWELL_SCALE: f64 = 26.8;
/// Fraction of quick-bounce visits.
pub const BOUNCE_FRACTION: f64 = 0.30;
/// The paper discards dwells longer than 10 minutes.
pub const MAX_DWELL_S: f64 = 600.0;
/// A user's interest in each site is drawn uniformly from
/// `[INTEREST_LO, INTEREST_HI)`.
pub const INTEREST_LO: f64 = 0.15;
/// Upper bound (exclusive) of a user's interest in a site.
pub const INTEREST_HI: f64 = 0.85;

/// One simulated user's interest profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserProfile {
    /// User id.
    pub id: u32,
    /// Interest per site key, in `[0, 1]`. Sorted so serializing a
    /// profile is byte-deterministic (hash order leaked before ewb-lint).
    interests: BTreeMap<String, f64>,
}

impl UserProfile {
    /// Creates a profile with a random interest per benchmark site.
    pub fn generate(id: u32, site_keys: &[&str], rng: &mut Xoshiro256) -> Self {
        let interests = site_keys
            .iter()
            .map(|&k| (k.to_string(), rng.f64_range(INTEREST_LO, INTEREST_HI)))
            .collect();
        UserProfile { id, interests }
    }

    /// The user's interest in a site (0.5 for unknown sites).
    pub fn interest(&self, site: &str) -> f64 {
        self.interests.get(site).copied().unwrap_or(0.5)
    }
}

/// The engaged-dwell generator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DwellModel;

impl DwellModel {
    /// Draws a reading time for one visit.
    pub fn sample(&self, latents: VisitLatents, interest: f64, rng: &mut Xoshiro256) -> f64 {
        if rng.f64() < BOUNCE_FRACTION {
            // Quick bounce: feature-independent, below the α = 2 s
            // interest threshold.
            return rng.f64_range(0.2, 2.0);
        }
        // Majority of three outer-band bits: an "unusual page" signal.
        // Each carrier bit is a *symmetric* (banded) function of its
        // feature, so the linear correlations of Table 4 stay ≈0, yet the
        // majority has strong conditional effects a greedy tree climbs
        // (each bit shifts the majority probability by 0.5).
        let votes = u8::from(latents.tall_page)
            + u8::from(latents.link_rich)
            + u8::from(latents.script_heavy);
        let unusual = f64::from(votes >= 2);
        // Quantile position: mostly the interaction, shaded by interest,
        // plus irreducible noise. Coefficients are solved so the overall
        // dwell CDF passes through the paper's Fig. 7 anchors
        // (30 % < 2 s, 53 % < 9 s, 68 % < 20 s).
        let q = (0.127 + 0.438 * unusual + 0.16 * (interest - 0.5) + 0.28 * rng.f64())
            .clamp(1e-4, 1.0 - 1e-4);
        let dwell = DWELL_SCALE * (-(1.0 - q).ln()).powf(1.0 / DWELL_SHAPE);
        dwell.min(MAX_DWELL_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latents(a: bool, b: bool, c: bool) -> VisitLatents {
        VisitLatents {
            tall_page: a,
            link_rich: b,
            script_heavy: c,
        }
    }

    #[test]
    fn profiles_are_deterministic_per_seed() {
        let keys = ["espn", "cnn"];
        let a = UserProfile::generate(1, &keys, &mut Xoshiro256::seed_from_u64(9));
        let b = UserProfile::generate(1, &keys, &mut Xoshiro256::seed_from_u64(9));
        assert_eq!(a, b);
        assert!((0.15..0.85).contains(&a.interest("espn")));
        assert_eq!(a.interest("unknown"), 0.5);
    }

    #[test]
    fn bounce_fraction_is_about_thirty_percent() {
        let model = DwellModel;
        let mut rng = Xoshiro256::seed_from_u64(1);
        let n = 50_000;
        let bounces = (0..n)
            .filter(|_| model.sample(latents(true, false, false), 0.5, &mut rng) < 2.0)
            .count();
        let frac = bounces as f64 / n as f64;
        assert!((0.27..0.36).contains(&frac), "bounce fraction {frac}");
    }

    #[test]
    fn majority_signal_separates_dwell_populations() {
        let model = DwellModel;
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mean = |l: VisitLatents, rng: &mut Xoshiro256| {
            let xs: Vec<f64> = (0..20_000)
                .map(|_| model.sample(l, 0.5, rng))
                .filter(|&d| d >= 2.0)
                .collect();
            ewb_simcore::stats::mean(&xs)
        };
        let unusual = mean(latents(true, true, false), &mut rng);
        let typical = mean(latents(true, false, false), &mut rng);
        assert!(
            unusual > 2.0 * typical,
            "majority=1 dwell {unusual} should dwarf majority=0 dwell {typical}"
        );
    }

    #[test]
    fn interest_shifts_dwell() {
        let model = DwellModel;
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mean_for = |interest: f64, rng: &mut Xoshiro256| {
            let xs: Vec<f64> = (0..30_000)
                .map(|_| model.sample(latents(true, false, false), interest, rng))
                .filter(|&d| d >= 2.0)
                .collect();
            ewb_simcore::stats::mean(&xs)
        };
        let low = mean_for(0.2, &mut rng);
        let high = mean_for(0.8, &mut rng);
        assert!(
            high > low * 1.1,
            "interest should raise dwell: {low} vs {high}"
        );
    }

    #[test]
    fn dwell_is_bounded() {
        let model = DwellModel;
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..50_000 {
            let d = model.sample(latents(true, false, false), 0.9, &mut rng);
            assert!((0.0..=MAX_DWELL_S).contains(&d));
        }
    }
}
