//! Fig. 8 — data-transmission time and load time across the benchmark.
//!
//! Paper results: on the full-version benchmark the reorganized browser
//! cuts data-transmission time by 27 % and total loading time by 17 %;
//! on the mobile benchmark, 15 % and 2.5 %. For the original browser the
//! data-transmission time *is* the loading time (computations are mixed,
//! §5.2).

use super::single_visit;
use crate::cases::Case;
use crate::config::CoreConfig;
use ewb_simcore::par_map;
use ewb_webpage::{Corpus, OriginServer, PageVersion};
use serde::{Deserialize, Serialize};

/// Per-page timing comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadTimeRow {
    /// Site key.
    pub key: String,
    /// Mobile or full.
    pub version: PageVersion,
    /// Original browser: loading time (= its data transmission time), s.
    pub orig_load_s: f64,
    /// Energy-aware browser: data-transmission phase, s.
    pub ea_tx_s: f64,
    /// Energy-aware browser: layout phase, s.
    pub ea_layout_s: f64,
    /// Energy-aware browser: total loading time, s.
    pub ea_load_s: f64,
}

impl LoadTimeRow {
    /// Fraction of data-transmission time saved.
    pub fn tx_saving(&self) -> f64 {
        1.0 - self.ea_tx_s / self.orig_load_s
    }

    /// Fraction of total loading time saved.
    pub fn total_saving(&self) -> f64 {
        1.0 - self.ea_load_s / self.orig_load_s
    }
}

/// Benchmark-level means (one bar group of Fig. 8a).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig8Summary {
    /// Mean original loading time, s.
    pub orig_load_s: f64,
    /// Mean energy-aware transmission time, s.
    pub ea_tx_s: f64,
    /// Mean energy-aware loading time, s.
    pub ea_load_s: f64,
    /// Mean transmission-time saving (paper: 27 % full / 15 % mobile).
    pub tx_saving: f64,
    /// Mean total-time saving (paper: 17 % full / 2.5 % mobile).
    pub total_saving: f64,
}

/// Measures every benchmark page under both pipelines, fanning the
/// independent per-site simulations out with [`par_map`].
pub fn benchmark_load_times(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    version: PageVersion,
) -> Vec<LoadTimeRow> {
    par_map(corpus.sites(), |site| {
        let page = match version {
            PageVersion::Mobile => &site.mobile,
            PageVersion::Full => &site.full,
        };
        let orig = single_visit(server, page, Case::Original, cfg, 0.0);
        let ea = single_visit(server, page, Case::EnergyAwareAlwaysOff, cfg, 0.0);
        let op = &orig.pages[0];
        let ep = &ea.pages[0];
        LoadTimeRow {
            key: site.key.clone(),
            version,
            orig_load_s: op.load_time_s(),
            ea_tx_s: ep.tx_time_s(),
            ea_layout_s: ep.load_time_s() - ep.tx_time_s(),
            ea_load_s: ep.load_time_s(),
        }
    })
}

/// Aggregates rows into the Fig. 8(a) summary.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn summarize(rows: &[LoadTimeRow]) -> Fig8Summary {
    assert!(!rows.is_empty(), "no rows to summarize");
    let n = rows.len() as f64;
    let orig_load_s = rows.iter().map(|r| r.orig_load_s).sum::<f64>() / n;
    let ea_tx_s = rows.iter().map(|r| r.ea_tx_s).sum::<f64>() / n;
    let ea_load_s = rows.iter().map(|r| r.ea_load_s).sum::<f64>() / n;
    Fig8Summary {
        orig_load_s,
        ea_tx_s,
        ea_load_s,
        tx_saving: 1.0 - ea_tx_s / orig_load_s,
        total_saving: 1.0 - ea_load_s / orig_load_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::benchmark_corpus;

    #[test]
    fn full_benchmark_reproduces_fig8_shape() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = benchmark_load_times(&corpus, &server, &cfg, PageVersion::Full);
        assert_eq!(rows.len(), 10);
        let s = summarize(&rows);
        assert!(
            (0.18..0.45).contains(&s.tx_saving),
            "full tx saving {:.3} (paper 0.27)",
            s.tx_saving
        );
        assert!(
            (0.05..0.32).contains(&s.total_saving),
            "full total saving {:.3} (paper 0.17)",
            s.total_saving
        );
        // Every single site should improve on both axes.
        for r in &rows {
            assert!(r.tx_saving() > 0.0, "{}: {:?}", r.key, r);
            assert!(r.ea_layout_s > 0.0);
        }
    }

    #[test]
    fn mobile_benchmark_reproduces_fig8_shape() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = benchmark_load_times(&corpus, &server, &cfg, PageVersion::Mobile);
        let s = summarize(&rows);
        assert!(
            (0.03..0.40).contains(&s.tx_saving),
            "mobile tx saving {:.3} (paper 0.15)",
            s.tx_saving
        );
        assert!(
            s.total_saving > -0.08,
            "mobile total saving {:.3} (paper 0.025)",
            s.total_saving
        );
        assert!(
            s.orig_load_s
                < summarize(&benchmark_load_times(
                    &corpus,
                    &server,
                    &cfg,
                    PageVersion::Full
                ))
                .orig_load_s
        );
    }
}
