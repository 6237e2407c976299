//! The two random laws the workload models sample.
//!
//! * [`Exponential`] — Poisson inter-arrival times for the capacity
//!   experiment (Fig. 11: each user generates sessions with mean interval
//!   25 s).
//! * [`LogNormal`] — object sizes in the synthetic corpus and the page
//!   features of the reading-time traces.
//!
//! Weibull reading times are drawn by `ewb-traces`' dwell model through
//! its own inverse CDF. Both samplers take the RNG by `&mut` so
//! independent model components can own independent [`Xoshiro256`]
//! streams. [`PolarPoint`] is the log-normal's normal draw on its own, for
//! a caller that consumes the stream before it needs the value.

use crate::rng::Xoshiro256;
use serde::{Deserialize, Serialize};

/// Exponential with the given mean (i.e. rate `1/mean`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not a positive finite number.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        Exponential { mean }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        // Inverse CDF; 1 - u avoids ln(0).
        -self.mean * (1.0 - rng.f64()).ln()
    }
}

/// Log-normal: `exp(N(mu, sigma))`. Parameterized either directly or via
/// the desired median.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given log-space parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid log-normal parameters: mu {mu}, sigma {sigma}"
        );
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal whose median is `median` with log-space spread
    /// `sigma` — the natural way to say "object sizes cluster around X KB".
    ///
    /// # Panics
    ///
    /// Panics if `median` is not a positive finite number or `sigma` is
    /// negative.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(
            median.is_finite() && median > 0.0,
            "log-normal median must be positive, got {median}"
        );
        LogNormal::new(median.ln(), sigma)
    }

    /// The value at standard-normal deviate `z`: `exp(mu + sigma * z)`.
    pub fn at(&self, z: f64) -> f64 {
        (self.mu + self.sigma * z).exp()
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        self.at(PolarPoint::draw(rng).deviate())
    }
}

/// One accepted point of the polar Box–Muller method: `(u, v)` uniform in
/// the unit disc without its centre, kept as `u` and `s = u² + v²`.
///
/// The deviate is a pure function of the point, so a caller can consume
/// the RNG stream now and take the deviate later, or never.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarPoint {
    u: f64,
    s: f64,
}

impl PolarPoint {
    /// Rejection-samples a point in the unit disc.
    pub fn draw(rng: &mut Xoshiro256) -> Self {
        loop {
            let u = rng.f64_range(-1.0, 1.0);
            let v = rng.f64_range(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return PolarPoint { u, s };
            }
        }
    }

    /// The point's standard-normal deviate.
    pub fn deviate(self) -> f64 {
        self.u * (-2.0 * self.s.ln() / self.s).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(mut draw: impl FnMut(&mut Xoshiro256) -> f64, n: usize, seed: u64) -> f64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n).map(|_| draw(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(25.0);
        assert!((sample_mean(|r| d.sample(r), 200_000, 3) - 25.0).abs() < 0.3);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::with_mean(1.0);
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| PolarPoint::draw(&mut rng).deviate())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.015, "mean {mean}");
        assert!((var - 1.0).abs() < 0.025, "var {var}");
    }

    #[test]
    fn lognormal_median_parameterization() {
        let d = LogNormal::with_median(50.0, 0.5);
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[50_000];
        assert!((median - 50.0).abs() / 50.0 < 0.05, "median {median}");
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        // The whole experiment pipeline leans on this: a distribution is a
        // pure function of (parameters, RNG stream).
        fn replay(draw: impl Fn(&mut Xoshiro256) -> f64) {
            let mut a = Xoshiro256::seed_from_u64(77);
            let mut b = Xoshiro256::seed_from_u64(77);
            for _ in 0..200 {
                assert_eq!(draw(&mut a).to_bits(), draw(&mut b).to_bits());
            }
        }
        replay(|r| Exponential::with_mean(25.0).sample(r));
        replay(|r| LogNormal::with_median(50.0, 0.5).sample(r));
    }

    #[test]
    fn positive_supports_stay_positive() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let ln = LogNormal::with_median(50.0, 1.0);
        for _ in 0..10_000 {
            assert!(ln.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        let (mu, sigma) = (1.0, 0.4);
        let d = LogNormal::new(mu, sigma);
        let closed_form = (mu + 0.5 * sigma * sigma).exp();
        let sampled = sample_mean(|r| d.sample(r), 400_000, 15);
        assert!((sampled - closed_form).abs() / closed_form < 0.02);
    }

    #[test]
    #[should_panic(expected = "exponential mean must be positive")]
    fn exponential_rejects_nonpositive_mean() {
        Exponential::with_mean(0.0);
    }
}
