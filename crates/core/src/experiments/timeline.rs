//! Reference session timeline — the fixed trace the golden timeline test
//! pins and `robustness_sweep` rewrites.
//!
//! One deterministic two-visit mobile browsing session (msn then aol,
//! energy-aware pipeline, lossy radio) is run with a memory recorder
//! attached, and the full cross-layer event stream — page visits,
//! transfers, retries, browser stage spans, RRC transitions, timers, and
//! the energy ledger — is returned in simulation-time order. Serialized
//! as JSON lines by [`ewb_obs::timeline::to_jsonl`] it becomes
//! `crates/core/tests/golden/timeline.jsonl`:
//! any change to the fault models, the fetcher, the pipelines, or the
//! RRC machine that shifts a single event shows up as a golden diff.

use crate::cases::Case;
use crate::config::CoreConfig;
use crate::session::{simulate_session, SessionFaults, SessionOpts, SessionOutcome, Visit};
use ewb_net::FaultConfig;
use ewb_obs::{timeline, Event, Recorder};
use ewb_webpage::{Corpus, OriginServer, PageVersion};

/// Per-attempt loss probability of the reference session's radio link —
/// high enough that the fixed seed draws at least one fault, so the
/// golden timeline exercises the retry path.
pub const TIMELINE_LOSS: f64 = 0.10;

/// Reading times of the two visits, seconds. The first is long enough
/// for a fast-dormancy release to pay off; the second is short.
pub const READING_S: [f64; 2] = [12.0, 6.0];

/// Site keys of the two visits, in order.
pub const SITES: [&str; 2] = ["msn", "aol"];

/// Runs the reference session and returns its event stream in
/// simulation-time order, together with the outcome it observed.
///
/// Deterministic in (`corpus`, `cfg`, `seed`): same inputs, same events,
/// bit for bit.
///
/// # Panics
///
/// Panics if the corpus lacks the [`SITES`] pages or the config is
/// invalid.
pub fn record_session_timeline(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    seed: u64,
) -> (Vec<Event>, SessionOutcome) {
    let pages: Vec<_> = SITES
        .iter()
        .map(|key| {
            corpus
                .page(key, PageVersion::Mobile)
                .unwrap_or_else(|| panic!("corpus has no mobile page for {key}"))
        })
        .collect();
    let visits: Vec<Visit<'_>> = pages
        .iter()
        .zip(READING_S)
        .map(|(page, reading_s)| Visit {
            page,
            reading_s,
            features: None,
        })
        .collect();
    let faults = SessionFaults::new(FaultConfig::lossy(TIMELINE_LOSS), seed);
    let recorder = Recorder::memory();
    let outcome = simulate_session(
        server,
        &visits,
        Case::Accurate9,
        cfg,
        SessionOpts {
            faults: Some(&faults),
            recorder: recorder.clone(),
            ..SessionOpts::three_g(cfg)
        },
    );
    (timeline::sorted(&recorder.events()), outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_obs::ledger;
    use ewb_webpage::benchmark_corpus;

    #[test]
    fn reference_timeline_is_deterministic() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let (a, _) = record_session_timeline(&corpus, &server, &cfg, 2013);
        let (b, _) = record_session_timeline(&corpus, &server, &cfg, 2013);
        assert_eq!(timeline::to_jsonl(&a), timeline::to_jsonl(&b));
    }

    #[test]
    fn reference_timeline_covers_every_layer_and_reconciles() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let (events, outcome) = record_session_timeline(&corpus, &server, &cfg, 2013);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::PageVisit { .. }))
                .count(),
            SITES.len()
        );
        for kind in [
            "state_transition",
            "energy_segment",
            "transfer_begin",
            "span",
        ] {
            assert!(
                events.iter().any(|e| e.kind() == kind),
                "timeline is missing any {kind} event"
            );
        }
        // The ledger carried by the timeline folds to the session energy
        // bit for bit.
        let entries = ledger::entries(&events);
        assert!(ledger::audit(&entries).is_empty(), "ledger is well-formed");
        assert_eq!(
            ledger::total(&entries).to_bits(),
            outcome.total_joules.to_bits()
        );
        // Sorted output: simulation time never goes backwards.
        for w in events.windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
    }
}
