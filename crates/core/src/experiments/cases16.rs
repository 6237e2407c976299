//! Fig. 16 — power and delay savings of the six Table 6 cases.
//!
//! Sessions are replayed from the generated user trace: each visit loads
//! its benchmark page over the shared radio, the user reads for the
//! trace's dwell time, and the case's policy decides the release. Savings
//! are measured against the Original baseline over the same visits.
//!
//! Paper's headline numbers: Accurate-9 saves the most power (26.1 %),
//! Accurate-20 the most delay (13.6 %); Original Always-off *increases*
//! delay by 1.47 %; the predicted variants land slightly below their
//! oracles.

use crate::cases::Case;
use crate::config::CoreConfig;
use crate::session::{simulate_session, SessionOpts, Visit};
use ewb_traces::{ReadingTimePredictor, TraceDataset};
use ewb_webpage::{Corpus, OriginServer};
use serde::{Deserialize, Serialize};

/// One bar pair of Fig. 16.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseOutcome {
    /// Case name.
    pub case: String,
    /// Total energy, J.
    pub joules: f64,
    /// Total page-load (user-waiting) time, s.
    pub load_time_s: f64,
    /// Energy saving vs the Original baseline (fraction).
    pub power_saving: f64,
    /// Delay saving vs the Original baseline (fraction; negative = worse).
    pub delay_saving: f64,
}

/// Selects the first `max_sessions` sessions of each of the first
/// `n_users` users, as visit groups.
pub fn select_sessions(
    trace: &TraceDataset,
    n_users: u32,
    max_sessions: u32,
) -> Vec<Vec<&ewb_traces::PageVisit>> {
    let mut sessions: Vec<Vec<&ewb_traces::PageVisit>> = Vec::new();
    for user in 0..n_users {
        let mut current: Option<u32> = None;
        let mut taken = 0u32;
        for v in trace.visits().iter().filter(|v| v.user == user) {
            if current != Some(v.session) {
                if taken >= max_sessions {
                    break;
                }
                current = Some(v.session);
                taken += 1;
                sessions.push(Vec::new());
            }
            sessions.last_mut().expect("just pushed").push(v);
        }
    }
    sessions
}

/// Runs one case over the selected sessions; returns
/// `(total_joules, total_load_time_s)`.
pub fn run_case(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    sessions: &[Vec<&ewb_traces::PageVisit>],
    case: Case,
    predictor: &ReadingTimePredictor,
) -> (f64, f64) {
    let mut joules = 0.0;
    let mut load_s = 0.0;
    for session in sessions {
        let visits: Vec<Visit<'_>> = session
            .iter()
            .map(|v| Visit {
                page: corpus
                    .page(&v.site, v.version)
                    .expect("trace sites come from the corpus"),
                reading_s: v.reading_time_s,
                features: Some(v.features),
            })
            .collect();
        let out = simulate_session(
            server,
            &visits,
            case,
            cfg,
            SessionOpts {
                predictor: Some(predictor),
                ..SessionOpts::three_g(cfg)
            },
        );
        joules += out.total_joules;
        load_s += out.total_load_time_s;
    }
    (joules, load_s)
}

/// Turns per-case totals (Original first) into the Fig. 16 rows.
///
/// # Panics
///
/// Panics if `totals` is empty or its first entry is not the baseline.
pub fn to_outcomes(totals: &[(Case, f64, f64)]) -> Vec<CaseOutcome> {
    assert!(!totals.is_empty(), "no case totals");
    assert_eq!(totals[0].0, Case::Original, "baseline must come first");
    let (_, base_j, base_s) = totals[0];
    totals
        .iter()
        .map(|&(case, joules, load_time_s)| CaseOutcome {
            case: case.to_string(),
            joules,
            load_time_s,
            power_saving: 1.0 - joules / base_j,
            delay_saving: 1.0 - load_time_s / base_s,
        })
        .collect()
}

/// Runs the Fig. 16 experiment over the first `n_users` users of `trace`,
/// capping each user at `max_sessions` sessions (runtime control).
///
/// # Panics
///
/// Panics if the selection yields no sessions.
pub fn run(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    trace: &TraceDataset,
    predictor: &ReadingTimePredictor,
    n_users: u32,
    max_sessions: u32,
) -> Vec<CaseOutcome> {
    let sessions = select_sessions(trace, n_users, max_sessions);
    assert!(!sessions.is_empty(), "no sessions selected for Fig. 16");

    let mut totals: Vec<(Case, f64, f64)> = Vec::new();
    for case in std::iter::once(Case::Original).chain(Case::TABLE6) {
        let (j, s) = run_case(corpus, server, cfg, &sessions, case, predictor);
        totals.push((case, j, s));
    }
    to_outcomes(&totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_traces::{reading_time_params, TraceConfig};
    use ewb_webpage::benchmark_corpus;

    /// A small but complete Fig. 16 run; the full-scale version lives in
    /// the bench harness.
    #[test]
    fn fig16_shape_holds_on_a_small_slice() {
        let trace_cfg = TraceConfig {
            seed: 2013,
            ..TraceConfig::small()
        };
        let trace = TraceDataset::generate(&trace_cfg);
        let corpus = benchmark_corpus(trace_cfg.seed);
        let server = OriginServer::from_corpus(&corpus);
        let cfg = CoreConfig::paper();
        let predictor = ReadingTimePredictor::train_with_interest_threshold(
            &trace,
            2.0,
            &reading_time_params(),
        );

        let rows = run(&corpus, &server, &cfg, &trace, &predictor, 2, 3);
        assert_eq!(rows.len(), 7);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.case == name)
                .unwrap_or_else(|| panic!("missing case {name}"))
                .clone()
        };

        let baseline = get("Original");
        assert_eq!(baseline.power_saving, 0.0);
        assert_eq!(baseline.delay_saving, 0.0);

        // Every non-baseline case saves power.
        for r in &rows {
            if r.case != "Original" {
                assert!(r.power_saving > 0.0, "{}: {:?}", r.case, r);
            }
        }

        // The paper's ordering relations.
        let acc9 = get("Accurate-9");
        let acc20 = get("Accurate-20");
        let orig_off = get("Original Always-off");
        let ea_off = get("Energy-aware Always-off");
        assert!(
            acc9.power_saving >= acc20.power_saving - 0.02,
            "Accurate-9 optimizes power: {acc9:?} vs {acc20:?}"
        );
        assert!(
            acc20.delay_saving >= acc9.delay_saving - 0.02,
            "Accurate-20 optimizes delay: {acc20:?} vs {acc9:?}"
        );
        assert!(
            orig_off.delay_saving < ea_off.delay_saving,
            "Original always-off has the worst delay: {orig_off:?} vs {ea_off:?}"
        );
        assert!(
            orig_off.power_saving < acc9.power_saving,
            "Original always-off saves the least power among release policies"
        );
    }
}
