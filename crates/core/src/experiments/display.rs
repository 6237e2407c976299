//! Figs. 12–14 — intermediate and final display times.
//!
//! Paper results for espn full: intermediate display at 7 s (energy-aware)
//! vs 17.6 s (original); final display 28.6 s vs 34.5 s. Benchmark means
//! (Fig. 14): first display 45.5 % earlier, final display 16.8 % earlier
//! on the full benchmark; mobile pages skip the intermediate display.

use super::single_visit;
use crate::cases::Case;
use crate::config::CoreConfig;
use ewb_simcore::par_map;
use ewb_webpage::{Corpus, OriginServer, PageVersion};
use serde::{Deserialize, Serialize};

/// Per-page display timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisplayRow {
    /// Site key.
    pub key: String,
    /// Mobile or full.
    pub version: PageVersion,
    /// Original: first (intermediate) display, s — `None` if never drawn.
    pub orig_first_s: Option<f64>,
    /// Original: final display, s.
    pub orig_final_s: f64,
    /// Energy-aware: first display, s (`None` for mobile).
    pub ea_first_s: Option<f64>,
    /// Energy-aware: final display, s.
    pub ea_final_s: f64,
}

/// Measures display timings over one benchmark version, one scoped
/// worker per independent site.
pub fn benchmark_display_times(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    version: PageVersion,
) -> Vec<DisplayRow> {
    par_map(corpus.sites(), |site| {
        let page = match version {
            PageVersion::Mobile => &site.mobile,
            PageVersion::Full => &site.full,
        };
        let to_s = |t: Option<ewb_simcore::SimTime>| t.map(|x| x.as_secs_f64());
        let orig = single_visit(server, page, Case::Original, cfg, 0.0);
        let ea = single_visit(server, page, Case::EnergyAwareAlwaysOff, cfg, 0.0);
        DisplayRow {
            key: site.key.clone(),
            version,
            orig_first_s: to_s(orig.pages[0].first_display),
            orig_final_s: orig.pages[0].opened.as_secs_f64(),
            ea_first_s: to_s(ea.pages[0].first_display),
            ea_final_s: ea.pages[0].opened.as_secs_f64(),
        }
    })
}

/// Fig. 14 means: `(first_saving, final_saving)` fractions over rows that
/// have both first displays.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn fig14_savings(rows: &[DisplayRow]) -> (f64, f64) {
    assert!(!rows.is_empty(), "no rows");
    let firsts: Vec<(f64, f64)> = rows
        .iter()
        .filter_map(|r| Some((r.orig_first_s?, r.ea_first_s?)))
        .collect();
    let first_saving = if firsts.is_empty() {
        0.0
    } else {
        let o: f64 = firsts.iter().map(|p| p.0).sum();
        let e: f64 = firsts.iter().map(|p| p.1).sum();
        1.0 - e / o
    };
    let o: f64 = rows.iter().map(|r| r.orig_final_s).sum();
    let e: f64 = rows.iter().map(|r| r.ea_final_s).sum();
    (first_saving, 1.0 - e / o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::benchmark_corpus;

    #[test]
    fn espn_reproduces_fig12_and_13() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = benchmark_display_times(&corpus, &server, &cfg, PageVersion::Full);
        let espn = rows.iter().find(|r| r.key == "espn").unwrap();
        let of = espn.orig_first_s.unwrap();
        let ef = espn.ea_first_s.unwrap();
        // Paper: 17.6 s → 7 s intermediate; 34.5 s → 28.6 s final.
        assert!(ef < 0.6 * of, "first display: {ef} vs {of}");
        assert!(espn.ea_final_s < espn.orig_final_s);
        assert!((20.0..50.0).contains(&espn.orig_final_s));
    }

    #[test]
    fn fig14_savings_match_paper_shape() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = benchmark_display_times(&corpus, &server, &cfg, PageVersion::Full);
        let (first, final_) = fig14_savings(&rows);
        assert!(
            (0.30..0.90).contains(&first),
            "first saving {first:.3} (paper 0.455)"
        );
        assert!(
            (0.05..0.35).contains(&final_),
            "final saving {final_:.3} (paper 0.168)"
        );
    }

    #[test]
    fn mobile_skips_intermediate_display() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = benchmark_display_times(&corpus, &server, &cfg, PageVersion::Mobile);
        for r in &rows {
            assert!(
                r.ea_first_s.is_none(),
                "{}: mobile EA draws no intermediate",
                r.key
            );
        }
    }
}
