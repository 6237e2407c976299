//! Fig. 9 — the 4 Hz power trace of loading espn.go.com/sports.
//!
//! Paper: the original browser finishes transmissions at sample 130
//! (32.5 s) and then burns ≈0.6 W in FACH for the following 20 s; the
//! energy-aware browser finishes at 100 (25 s) and switches to IDLE at
//! 110 (27.5 s), after which it draws almost nothing.

use crate::cases::Case;
use crate::config::CoreConfig;
use crate::session::{simulate_session, SessionOpts, Visit};
use ewb_obs::{ledger, Recorder};
use ewb_simcore::PowerTrace;
use ewb_webpage::{Corpus, OriginServer, PageVersion};

/// The two traces of Fig. 9, plus the page-open instants for aligning
/// the reading windows.
#[derive(Debug, Clone)]
pub struct PowerTraces {
    /// Original browser, 4 Hz samples.
    pub original: PowerTrace,
    /// When the original browser finished opening the page, s.
    pub original_opened_s: f64,
    /// Energy-aware browser (release during reading), 4 Hz samples.
    pub energy_aware: PowerTrace,
    /// When the energy-aware browser finished opening the page, s.
    pub energy_aware_opened_s: f64,
}

/// Produces both traces for one page with a fixed reading window, each
/// sampled from the energy ledger of its session's replayed radio.
pub fn espn_power_traces(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    reading_s: f64,
) -> PowerTraces {
    let page = corpus.page("espn", PageVersion::Full).expect("espn exists");
    let visit = [Visit {
        page,
        reading_s,
        features: None,
    }];
    let traced = |case: Case| {
        let recorder = Recorder::ledger(Recorder::disabled());
        let opts = SessionOpts {
            recorder: recorder.clone(),
            ..SessionOpts::three_g(cfg)
        };
        let opened = simulate_session(server, &visit, case, cfg, opts).pages[0].opened;
        let entries = ledger::entries(&recorder.events());
        let trace = ledger::power_trace(&entries, PowerTrace::PAPER_INTERVAL);
        (trace, opened.as_secs_f64())
    };
    let (original, original_opened_s) = traced(Case::Original);
    let (energy_aware, energy_aware_opened_s) = traced(Case::Accurate9);
    PowerTraces {
        original,
        original_opened_s,
        energy_aware,
        energy_aware_opened_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::benchmark_corpus;

    #[test]
    fn traces_show_the_fig9_contrast() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let t = espn_power_traces(&corpus, &server, &cfg, 25.0);

        // The energy-aware run ends the same session with less energy.
        assert!(t.energy_aware.estimated_joules() < t.original.estimated_joules());

        // Early-reading behavior (the paper's Fig. 9 window): between 5 s
        // and 15 s after the page opens, the original still rides its
        // DCH/FACH tail (≈0.6+ W) while the energy-aware radio has been
        // released to IDLE (≈0.15 W plus display).
        let window_mean = |tr: &PowerTrace, opened_s: f64| {
            let lo = ((opened_s + 5.0) / 0.25) as usize;
            let hi = (((opened_s + 15.0) / 0.25) as usize).min(tr.len());
            let s = &tr.samples()[lo..hi];
            s.iter().sum::<f64>() / s.len() as f64
        };
        let orig_read = window_mean(&t.original, t.original_opened_s);
        let ea_read = window_mean(&t.energy_aware, t.energy_aware_opened_s);
        assert!(
            orig_read > 0.5,
            "original should ride DCH/FACH during early reading: {orig_read:.2} W"
        );
        assert!(
            ea_read < 0.25,
            "energy-aware should be at IDLE during early reading: {ea_read:.2} W"
        );

        // Both traces peak at DCH transmission levels early on.
        assert!(t.original.samples().iter().copied().fold(0.0_f64, f64::max) >= 1.2);
        assert!(
            t.energy_aware
                .samples()
                .iter()
                .copied()
                .fold(0.0_f64, f64::max)
                >= 1.2
        );
    }
}
