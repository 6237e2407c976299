//! # ewb-capacity — network-capacity analysis (the paper's §5.4)
//!
//! "Suppose there are N pairs of dedicated transmission channels. The
//! problem can be modeled as a M/G/N multi-server queue, with the service
//! queue size of 0. We develop a program to simulate the M/G/N
//! multi-server queue" — this crate is that program.
//!
//! Arrivals are Poisson (each of `users` subscribers opens a page every
//! 25 s on average); service time is the page's **data transmission
//! time** (the interval the dedicated channels are held), drawn from an
//! empirical distribution measured by the browser pipelines; a session
//! arriving when all N channel pairs are busy is **dropped**. The paper
//! runs N = 200 channels for 4 hours and reports the session-dropping
//! probability as a function of the subscriber count (Fig. 11).
//!
//! # Example
//!
//! ```
//! use ewb_capacity::{simulate, CapacityConfig, ServiceTimes};
//!
//! let cfg = CapacityConfig { users: 450, ..CapacityConfig::paper() };
//! let service = ServiceTimes::empirical(vec![10.0, 12.0, 9.0, 15.0]).unwrap();
//! let result = simulate(&cfg, &service);
//! assert!(result.offered > 10_000);
//! assert!((0.0..=1.0).contains(&result.drop_probability()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ewb_simcore::dist::Exponential;
use ewb_simcore::{EventQueue, SimDuration, SimTime, Xoshiro256};
use serde::{Deserialize, Serialize};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityConfig {
    /// Dedicated channel pairs (paper: N = 200).
    pub channels: usize,
    /// Subscribers generating sessions.
    pub users: usize,
    /// Mean think time between one user's sessions (paper: λ = 25 s).
    pub mean_interarrival_s: f64,
    /// Simulated horizon (paper: 4 hours).
    pub horizon_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CapacityConfig {
    /// The paper's §5.4 setup (set `users` before simulating).
    pub fn paper() -> Self {
        CapacityConfig {
            channels: 200,
            users: 0,
            mean_interarrival_s: 25.0,
            horizon_s: 4.0 * 3600.0,
            seed: 54,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("need at least one channel".to_string());
        }
        if self.users == 0 {
            return Err("need at least one user".to_string());
        }
        if !(self.mean_interarrival_s.is_finite() && self.mean_interarrival_s > 0.0) {
            return Err("mean interarrival must be positive".to_string());
        }
        if !(self.horizon_s.is_finite() && self.horizon_s > 0.0) {
            return Err("horizon must be positive".to_string());
        }
        Ok(())
    }
}

/// The service-time distribution (how long a session holds its channels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceTimes {
    /// Draw uniformly from measured samples — the paper's approach
    /// ("the service time for a session is equal to the data transmission
    /// time for opening a webpage").
    Empirical(Vec<f64>),
    /// Exponential with the given mean (for Erlang-B validation).
    Exponential(f64),
    /// Every session takes exactly this long.
    Deterministic(f64),
}

impl ServiceTimes {
    /// Builds an empirical distribution.
    ///
    /// # Errors
    ///
    /// Errors if `samples` is empty or contains a non-positive value.
    pub fn empirical(samples: Vec<f64>) -> Result<Self, String> {
        if samples.is_empty() {
            return Err("empirical service times need at least one sample".to_string());
        }
        if samples.iter().any(|&s| !s.is_finite() || s <= 0.0) {
            return Err("service times must be positive".to_string());
        }
        Ok(ServiceTimes::Empirical(samples))
    }

    /// Mean service time.
    pub fn mean(&self) -> f64 {
        match self {
            ServiceTimes::Empirical(s) => s.iter().sum::<f64>() / s.len() as f64,
            ServiceTimes::Exponential(m) | ServiceTimes::Deterministic(m) => *m,
        }
    }

    fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        match self {
            ServiceTimes::Empirical(s) => *rng.choose(s),
            ServiceTimes::Exponential(m) => Exponential::with_mean(*m).sample(rng),
            ServiceTimes::Deterministic(m) => *m,
        }
    }
}

/// Simulation output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityResult {
    /// Sessions that arrived.
    pub offered: u64,
    /// Sessions dropped for lack of a free channel pair.
    pub dropped: u64,
    /// Peak simultaneous channel occupancy observed.
    pub peak_busy: usize,
}

impl CapacityResult {
    /// The session-dropping probability.
    pub fn drop_probability(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival,
    Departure,
}

/// Runs the M/G/N/N loss simulation.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn simulate(cfg: &CapacityConfig, service: &ServiceTimes) -> CapacityResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid CapacityConfig: {e}");
    }
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ (cfg.users as u64).wrapping_mul(0x9E37));
    // Superposition of `users` independent Poisson processes is Poisson
    // with the aggregate rate.
    let aggregate = Exponential::with_mean(cfg.mean_interarrival_s / cfg.users as f64);
    let horizon = SimTime::from_secs_f64(cfg.horizon_s);

    let mut queue: EventQueue<Event> = EventQueue::new();
    queue.push(
        SimTime::from_secs_f64(aggregate.sample(&mut rng)),
        Event::Arrival,
    );

    let mut busy = 0usize;
    let mut peak_busy = 0usize;
    let mut offered = 0u64;
    let mut dropped = 0u64;

    while let Some(entry) = queue.pop() {
        if entry.time > horizon {
            break;
        }
        match entry.event {
            Event::Arrival => {
                offered += 1;
                if busy < cfg.channels {
                    busy += 1;
                    peak_busy = peak_busy.max(busy);
                    let hold = SimDuration::from_secs_f64(service.sample(&mut rng).max(1e-9));
                    queue.push(entry.time + hold, Event::Departure);
                } else {
                    dropped += 1;
                }
                let next = SimDuration::from_secs_f64(aggregate.sample(&mut rng));
                queue.push(entry.time + next, Event::Arrival);
            }
            Event::Departure => {
                busy -= 1;
            }
        }
    }

    CapacityResult {
        offered,
        dropped,
        peak_busy,
    }
}

/// The Erlang-B blocking probability `B(N, a)` for offered load `a`
/// erlangs on `n` servers — the closed-form check for the simulator.
pub fn erlang_b(n: usize, a: f64) -> f64 {
    assert!(
        a >= 0.0 && a.is_finite(),
        "offered load must be non-negative"
    );
    let mut b = 1.0;
    for k in 1..=n {
        b = a * b / (k as f64 + a * b);
    }
    b
}

/// Finds the largest user count whose dropping probability stays at or
/// under `target` — "the capacity is the number of users that the network
/// can support with certain quality of service" (§5.4). Monotone
/// bisection over `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo >= hi` or the configuration is invalid.
pub fn supported_users(
    cfg: &CapacityConfig,
    service: &ServiceTimes,
    target: f64,
    lo: usize,
    hi: usize,
) -> usize {
    assert!(lo < hi, "need a non-empty search range");
    let drop_at = |users: usize| {
        let c = CapacityConfig { users, ..*cfg };
        simulate(&c, service).drop_probability()
    };
    let (mut lo, mut hi) = (lo, hi);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if drop_at(mid) <= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_b_known_values() {
        // Classic table values.
        assert!((erlang_b(1, 1.0) - 0.5).abs() < 1e-12);
        assert!((erlang_b(2, 1.0) - 0.2).abs() < 1e-12);
        assert!((erlang_b(10, 5.0) - 0.0184).abs() < 5e-4);
        assert!(erlang_b(100, 1.0) < 1e-12);
    }

    #[test]
    fn simulation_matches_erlang_b_for_exponential_service() {
        // a = users * mean_service / interarrival. Insensitivity: B(N,a)
        // holds for general service, but exponential is the cleanest.
        let cfg = CapacityConfig {
            channels: 20,
            users: 100,
            mean_interarrival_s: 25.0,
            horizon_s: 400_000.0,
            seed: 7,
        };
        let service = ServiceTimes::Exponential(4.0);
        let a = 100.0 * 4.0 / 25.0; // 16 erlangs
        let expected = erlang_b(20, a);
        let got = simulate(&cfg, &service).drop_probability();
        assert!(
            (got - expected).abs() < 0.015,
            "simulated {got} vs Erlang-B {expected}"
        );
    }

    #[test]
    fn insensitivity_to_service_distribution() {
        // Erlang loss systems depend on service only through its mean.
        let cfg = CapacityConfig {
            channels: 20,
            users: 100,
            mean_interarrival_s: 25.0,
            horizon_s: 400_000.0,
            seed: 8,
        };
        let expo = simulate(&cfg, &ServiceTimes::Exponential(4.0)).drop_probability();
        let det = simulate(&cfg, &ServiceTimes::Deterministic(4.0)).drop_probability();
        assert!((expo - det).abs() < 0.02, "expo {expo} vs det {det}");
    }

    #[test]
    fn dropping_increases_with_users() {
        let service = ServiceTimes::Exponential(10.0);
        let drop = |users| {
            let cfg = CapacityConfig {
                users,
                horizon_s: 40_000.0,
                ..CapacityConfig::paper()
            };
            simulate(&cfg, &service).drop_probability()
        };
        let low = drop(300);
        let mid = drop(500);
        let high = drop(800);
        assert!(
            low <= mid + 0.005 && mid <= high + 0.005,
            "{low} {mid} {high}"
        );
        assert!(high > low);
    }

    #[test]
    fn no_drops_with_huge_capacity() {
        let cfg = CapacityConfig {
            channels: 10_000,
            users: 100,
            mean_interarrival_s: 25.0,
            horizon_s: 10_000.0,
            seed: 9,
        };
        let r = simulate(&cfg, &ServiceTimes::Exponential(5.0));
        assert_eq!(r.dropped, 0);
        assert!(r.offered > 0);
        assert!(r.peak_busy < 200);
    }

    #[test]
    fn empirical_sampling_uses_all_samples() {
        let service = ServiceTimes::empirical(vec![2.0, 30.0]).unwrap();
        assert_eq!(service.mean(), 16.0);
        let cfg = CapacityConfig {
            channels: 50,
            users: 50,
            mean_interarrival_s: 25.0,
            horizon_s: 20_000.0,
            seed: 10,
        };
        let r = simulate(&cfg, &service);
        assert!(r.offered > 100);
    }

    #[test]
    fn empirical_rejects_bad_input() {
        assert!(ServiceTimes::empirical(vec![]).is_err());
        assert!(ServiceTimes::empirical(vec![1.0, -1.0]).is_err());
        assert!(ServiceTimes::empirical(vec![f64::NAN]).is_err());
    }

    #[test]
    fn shorter_service_supports_more_users() {
        // The heart of Fig. 11: cutting data-transmission time raises the
        // user count the network can carry at the same dropping rate.
        let cfg = CapacityConfig {
            horizon_s: 40_000.0,
            ..CapacityConfig::paper()
        };
        let slow = ServiceTimes::Deterministic(12.0);
        let fast = ServiceTimes::Deterministic(9.0);
        let slow_cap = supported_users(&cfg, &slow, 0.02, 100, 1500);
        let fast_cap = supported_users(&cfg, &fast, 0.02, 100, 1500);
        assert!(
            fast_cap as f64 > slow_cap as f64 * 1.15,
            "fast {fast_cap} vs slow {slow_cap}"
        );
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let cfg = CapacityConfig {
            users: 400,
            horizon_s: 10_000.0,
            ..CapacityConfig::paper()
        };
        let s = ServiceTimes::Exponential(10.0);
        assert_eq!(simulate(&cfg, &s), simulate(&cfg, &s));
    }

    #[test]
    #[should_panic(expected = "invalid CapacityConfig")]
    fn zero_users_panics() {
        simulate(&CapacityConfig::paper(), &ServiceTimes::Deterministic(1.0));
    }
}
