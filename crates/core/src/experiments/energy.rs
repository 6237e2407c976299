//! Fig. 10 — power consumption for opening a page plus a 20-second
//! reading period.
//!
//! Paper results: −35.7 % on the mobile benchmark, −30.8 % on the full
//! benchmark; m.cnn −35.5 %, espn full −43.6 %. The original browser
//! rides its timers through the whole reading window; the energy-aware
//! browser finishes transmissions earlier and drops to IDLE during
//! reading (reading time 20 s > Tp).

use super::single_visit;
use crate::cases::Case;
use crate::config::CoreConfig;
use ewb_simcore::par_map;
use ewb_webpage::{Corpus, OriginServer, PageVersion};
use serde::{Deserialize, Serialize};

/// The paper's fixed reading window for this figure.
pub const READING_S: f64 = 20.0;

/// Per-page energy comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyRow {
    /// Site key.
    pub key: String,
    /// Mobile or full.
    pub version: PageVersion,
    /// Original: energy to open the page, J.
    pub orig_open_j: f64,
    /// Original: energy over the 20 s reading window, J.
    pub orig_reading_j: f64,
    /// Energy-aware: energy to open the page, J.
    pub ea_open_j: f64,
    /// Energy-aware: energy over the reading window, J.
    pub ea_reading_j: f64,
}

impl EnergyRow {
    /// Original total, J.
    pub fn orig_total_j(&self) -> f64 {
        self.orig_open_j + self.orig_reading_j
    }

    /// Energy-aware total, J.
    pub fn ea_total_j(&self) -> f64 {
        self.ea_open_j + self.ea_reading_j
    }

    /// Fraction of energy saved.
    pub fn saving(&self) -> f64 {
        1.0 - self.ea_total_j() / self.orig_total_j()
    }
}

/// Measures every page of one benchmark version, one scoped worker per
/// independent site.
pub fn benchmark_energy(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    version: PageVersion,
) -> Vec<EnergyRow> {
    par_map(corpus.sites(), |site| {
        let page = match version {
            PageVersion::Mobile => &site.mobile,
            PageVersion::Full => &site.full,
        };
        let orig = single_visit(server, page, Case::Original, cfg, READING_S);
        // "Our approach": reorganized pipeline + release during the
        // reading window (20 s > Tp = 9 s, so the oracle releases).
        let ea = single_visit(server, page, Case::Accurate9, cfg, READING_S);
        EnergyRow {
            key: site.key.clone(),
            version,
            orig_open_j: orig.pages[0].load_joules,
            orig_reading_j: orig.pages[0].reading_joules,
            ea_open_j: ea.pages[0].load_joules,
            ea_reading_j: ea.pages[0].reading_joules,
        }
    })
}

/// Mean saving across rows.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn mean_saving(rows: &[EnergyRow]) -> f64 {
    assert!(!rows.is_empty(), "no rows");
    let orig: f64 = rows.iter().map(EnergyRow::orig_total_j).sum();
    let ea: f64 = rows.iter().map(EnergyRow::ea_total_j).sum();
    1.0 - ea / orig
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::benchmark_corpus;

    #[test]
    fn full_benchmark_saves_paper_scale_energy() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = benchmark_energy(&corpus, &server, &cfg, PageVersion::Full);
        let saving = mean_saving(&rows);
        assert!(
            (0.20..0.50).contains(&saving),
            "full energy saving {saving:.3} (paper 0.308)"
        );
        for r in &rows {
            assert!(r.saving() > 0.10, "{}: saving {:.3}", r.key, r.saving());
        }
    }

    #[test]
    fn mobile_benchmark_saves_paper_scale_energy() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = benchmark_energy(&corpus, &server, &cfg, PageVersion::Mobile);
        let saving = mean_saving(&rows);
        assert!(
            (0.20..0.55).contains(&saving),
            "mobile energy saving {saving:.3} (paper 0.357)"
        );
    }

    #[test]
    fn reading_energy_dominates_the_mobile_saving() {
        // The paper: "Most of this power saving comes from putting the
        // smartphone into IDLE during the reading time" (mobile).
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let rows = benchmark_energy(&corpus, &server, &cfg, PageVersion::Mobile);
        let read_saving: f64 = rows.iter().map(|r| r.orig_reading_j - r.ea_reading_j).sum();
        let open_saving: f64 = rows.iter().map(|r| r.orig_open_j - r.ea_open_j).sum();
        assert!(
            read_saving > open_saving,
            "reading {read_saving} vs open {open_saving}"
        );
    }
}
