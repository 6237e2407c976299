//! Fig. 11 — network capacity under both browsers.
//!
//! The paper feeds the measured per-page data-transmission times into an
//! M/G/200/200 loss simulation (Poisson sessions, one per user every 25 s
//! on average, 4 h horizon) and reports the session-dropping probability
//! vs the subscriber count: the energy-aware browser supports 14.3 % more
//! users on the mobile benchmark and 19.6 % more on the full benchmark at
//! equal dropping probability.

use super::loadtime::{benchmark_load_times, LoadTimeRow};
use crate::config::CoreConfig;
use ewb_capacity::{simulate, supported_users, CapacityConfig, ServiceTimes};
use ewb_simcore::par_map;
use ewb_webpage::{Corpus, OriginServer, PageVersion};
use serde::{Deserialize, Serialize};

/// One capacity curve: dropping probability per user count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityCurve {
    /// User counts (x axis).
    pub users: Vec<usize>,
    /// Dropping probability per user count (y axis).
    pub drop_probability: Vec<f64>,
}

/// The Fig. 11 output for one benchmark version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityComparison {
    /// Which benchmark.
    pub version: PageVersion,
    /// Original browser curve.
    pub original: CapacityCurve,
    /// Energy-aware browser curve.
    pub energy_aware: CapacityCurve,
    /// Users supported at the target dropping probability, original.
    pub original_capacity: usize,
    /// Users supported at the target dropping probability, energy-aware.
    pub energy_aware_capacity: usize,
}

impl CapacityComparison {
    /// Fractional capacity gain of the energy-aware browser.
    pub fn capacity_gain(&self) -> f64 {
        self.energy_aware_capacity as f64 / self.original_capacity as f64 - 1.0
    }
}

/// Service-time distributions measured from the benchmark loads: the
/// channel-holding time of a session is the page's data-transmission
/// time (for the original browser, the whole load).
pub fn service_times(rows: &[LoadTimeRow]) -> (ServiceTimes, ServiceTimes) {
    let orig: Vec<f64> = rows.iter().map(|r| r.orig_load_s).collect();
    let ea: Vec<f64> = rows.iter().map(|r| r.ea_tx_s).collect();
    (
        ServiceTimes::empirical(orig).expect("load times are positive"),
        ServiceTimes::empirical(ea).expect("tx times are positive"),
    )
}

/// Runs the Fig. 11 experiment for one benchmark version over a user grid.
///
/// `horizon_s` lets tests shrink the 4 h default.
pub fn compare_capacity(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    version: PageVersion,
    users_grid: &[usize],
    target_drop: f64,
    horizon_s: f64,
) -> CapacityComparison {
    let rows = benchmark_load_times(corpus, server, cfg, version);
    let (orig_service, ea_service) = service_times(&rows);
    let base = CapacityConfig {
        horizon_s,
        ..CapacityConfig::paper()
    };
    // Every (user-count, service-time) cell is an independent loss
    // simulation with its own seeded RNG — fan the grid out, collecting
    // in grid order.
    let curve = |service: &ServiceTimes| {
        let drop_probability = par_map(users_grid, |&users| {
            simulate(&CapacityConfig { users, ..base }, service).drop_probability()
        });
        CapacityCurve {
            users: users_grid.to_vec(),
            drop_probability,
        }
    };
    let lo = users_grid.first().copied().unwrap_or(100).max(10) / 2;
    let hi = users_grid.last().copied().unwrap_or(1000) * 3;
    CapacityComparison {
        version,
        original: curve(&orig_service),
        energy_aware: curve(&ea_service),
        original_capacity: supported_users(&base, &orig_service, target_drop, lo, hi),
        energy_aware_capacity: supported_users(&base, &ea_service, target_drop, lo, hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::benchmark_corpus;

    #[test]
    fn energy_aware_supports_more_users() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let cmp = compare_capacity(
            &corpus,
            &server,
            &cfg,
            PageVersion::Full,
            &[200, 260, 320],
            0.02,
            20_000.0,
        );
        let gain = cmp.capacity_gain();
        assert!(
            (0.10..0.60).contains(&gain),
            "full capacity gain {gain:.3} (paper 0.196)"
        );
        // At every grid point the energy-aware curve is at or below the
        // original.
        for (o, e) in cmp
            .original
            .drop_probability
            .iter()
            .zip(&cmp.energy_aware.drop_probability)
        {
            assert!(e <= o, "ea {e} should not exceed orig {o}");
        }
    }

    #[test]
    fn dropping_probability_grows_along_the_grid() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let cmp = compare_capacity(
            &corpus,
            &server,
            &cfg,
            PageVersion::Mobile,
            &[400, 600, 800],
            0.02,
            20_000.0,
        );
        let d = &cmp.original.drop_probability;
        assert!(d[0] <= d[1] + 0.01 && d[1] <= d[2] + 0.01, "{d:?}");
    }
}
