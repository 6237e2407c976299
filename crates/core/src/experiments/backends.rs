//! Cross-backend headline experiment: does computation reorganization
//! still pay off when promotions are cheap?
//!
//! The paper's savings come from two properties of the 3G radio: an
//! expensive promotion (2 s, 4 W) that reorganization amortizes, and a
//! long high-power tail (4 s DCH + 15 s FACH) that early release cuts.
//! LTE, WiFi, and 5G shrink both. This sweep re-runs the paper's
//! policy cases over the mobile benchmark on every [`RadioModel`]
//! backend with identical visits and reading times, so the per-backend
//! savings are directly comparable. Every row, 3G included, comes from
//! the one generic session runner, so the 3G rows are the paper's
//! numbers.
//!
//! Deterministic in (`corpus`, `cfg`): no faults, no sampling — the
//! golden backends test compares the serialized output byte-for-byte.

use crate::cases::Case;
use crate::config::CoreConfig;
use crate::session::{simulate_session, SessionOpts, Visit};
use ewb_rrc::{
    FiveGConfig, FiveGMachine, LteConfig, LteMachine, RadioBackend, RadioModel, RrcMachine,
    WifiConfig, WifiMachine,
};
use ewb_webpage::{Corpus, OriginServer};
use serde::{Deserialize, Serialize};

/// Reading time per visit, seconds — long enough that the oracle
/// release policies fire (same dwell the robustness sweep uses).
pub const READING_S: f64 = 25.0;

/// The policy cases the sweep compares on every backend: the baseline,
/// both always-off variants (isolating the reorganization effect from
/// the release effect), and both oracle thresholds. The predicted
/// variants are excluded — they need a trained predictor and add
/// nothing to the cross-backend question.
pub const CASES: [Case; 5] = [
    Case::Original,
    Case::OriginalAlwaysOff,
    Case::EnergyAwareAlwaysOff,
    Case::Accurate9,
    Case::Accurate20,
];

/// One (backend, case) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendCaseRow {
    /// Radio technology name (`3g`, `lte`, `wifi`, `5g`).
    pub backend: String,
    /// Policy case name.
    pub case: String,
    /// Total energy over the benchmark, J.
    pub joules: f64,
    /// Total page-load (user-waiting) time, s.
    pub load_time_s: f64,
    /// Energy saving vs the same backend's Original baseline (fraction).
    pub power_saving: f64,
    /// Delay saving vs the same backend's Original baseline (fraction;
    /// negative = slower).
    pub delay_saving: f64,
}

/// Per-site session totals for one backend and case:
/// `(joules, load_time_s)` per site, in corpus order.
fn per_site_totals<R: RadioModel>(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    radio_cfg: R::Config,
    case: Case,
) -> Vec<(f64, f64)> {
    corpus
        .sites()
        .iter()
        .map(|site| {
            let visits = [Visit {
                page: &site.mobile,
                reading_s: READING_S,
                features: None,
            }];
            let out =
                simulate_session::<R>(server, &visits, case, cfg, SessionOpts::new(radio_cfg));
            (out.total_joules, out.total_load_time_s)
        })
        .collect()
}

fn backend_rows<R: RadioModel>(
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
    radio_cfg: R::Config,
) -> Vec<BackendCaseRow> {
    let totals: Vec<(Case, f64, f64)> = CASES
        .iter()
        .map(|&case| {
            let per_site = per_site_totals::<R>(corpus, server, cfg, radio_cfg, case);
            let j: f64 = per_site.iter().map(|(j, _)| j).sum();
            let s: f64 = per_site.iter().map(|(_, s)| s).sum();
            (case, j, s)
        })
        .collect();
    let (_, base_j, base_s) = totals[0];
    totals
        .iter()
        .map(|&(case, joules, load_time_s)| BackendCaseRow {
            backend: R::BACKEND.to_string(),
            case: case.to_string(),
            joules,
            load_time_s,
            power_saving: 1.0 - joules / base_j,
            delay_saving: 1.0 - load_time_s / base_s,
        })
        .collect()
}

/// Runs [`CASES`] over the mobile benchmark on all four backends (3G
/// from `cfg.rrc`, the others from their calibrated configs), baseline
/// first within each backend.
pub fn sweep(corpus: &Corpus, server: &OriginServer, cfg: &CoreConfig) -> Vec<BackendCaseRow> {
    let mut rows = Vec::with_capacity(4 * CASES.len());
    rows.extend(backend_rows::<RrcMachine>(corpus, server, cfg, cfg.rrc));
    rows.extend(backend_rows::<LteMachine>(
        corpus,
        server,
        cfg,
        LteConfig::calibrated(),
    ));
    rows.extend(backend_rows::<WifiMachine>(
        corpus,
        server,
        cfg,
        WifiConfig::calibrated(),
    ));
    rows.extend(backend_rows::<FiveGMachine>(
        corpus,
        server,
        cfg,
        FiveGConfig::calibrated(),
    ));
    rows
}

/// Serializes the sweep as the golden summary JSON the backends CI job
/// compares against.
pub fn summary_json(rows: &[BackendCaseRow]) -> String {
    serde_json::to_string(rows).expect("rows are always serializable")
}

/// The saving of `case` on `backend`, looked up from sweep rows.
///
/// # Panics
///
/// Panics if the cell is missing.
pub fn saving_of(rows: &[BackendCaseRow], backend: RadioBackend, case: Case) -> f64 {
    rows.iter()
        .find(|r| r.backend == backend.to_string() && r.case == case.to_string())
        .unwrap_or_else(|| panic!("missing sweep cell {backend}/{case}"))
        .power_saving
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::simulate_session;
    use ewb_webpage::benchmark_corpus;

    fn setup() -> (Corpus, OriginServer, CoreConfig) {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        (corpus, server, CoreConfig::paper())
    }

    /// The 3G rows are exactly the paper's default 3G sessions
    /// ([`SessionOpts::three_g`]) of every mobile page, summed in corpus
    /// order.
    #[test]
    fn three_g_rows_match_the_legacy_session_path() {
        let (corpus, server, cfg) = setup();
        let rows = sweep(&corpus, &server, &cfg);
        for case in CASES {
            let row = rows
                .iter()
                .find(|r| r.backend == "3g" && r.case == case.to_string())
                .expect("3g row present");
            let mut joules = 0.0;
            let mut load_s = 0.0;
            for site in corpus.sites() {
                let visits = [Visit {
                    page: &site.mobile,
                    reading_s: READING_S,
                    features: None,
                }];
                let out =
                    simulate_session(&server, &visits, case, &cfg, SessionOpts::three_g(&cfg));
                joules += out.total_joules;
                load_s += out.total_load_time_s;
            }
            assert_eq!(row.joules.to_bits(), joules.to_bits(), "{case}");
            assert_eq!(row.load_time_s.to_bits(), load_s.to_bits(), "{case}");
        }
    }

    /// The cross-backend story: reorganization keeps paying off
    /// everywhere (always-off beats always-off), but the release-policy
    /// saving shrinks as promotions get cheap and tails get short —
    /// 3G saves the biggest fraction, 5G the smallest.
    #[test]
    fn savings_shrink_as_promotions_get_cheap() {
        let (corpus, server, cfg) = setup();
        let rows = sweep(&corpus, &server, &cfg);
        assert_eq!(rows.len(), 4 * CASES.len());
        for backend in RadioBackend::ALL {
            let base = saving_of(&rows, backend, Case::Original);
            assert_eq!(base, 0.0, "{backend}: baseline saves nothing");
            let ea = saving_of(&rows, backend, Case::EnergyAwareAlwaysOff);
            let orig_off = saving_of(&rows, backend, Case::OriginalAlwaysOff);
            assert!(
                ea > orig_off,
                "{backend}: reorganization must add savings on top of the release \
                 ({ea:.4} vs {orig_off:.4})"
            );
            assert!(ea > 0.0, "{backend}: energy-aware always-off must save");
        }
        let acc9_3g = saving_of(&rows, RadioBackend::ThreeG, Case::Accurate9);
        let acc9_5g = saving_of(&rows, RadioBackend::FiveG, Case::Accurate9);
        let acc9_wifi = saving_of(&rows, RadioBackend::Wifi, Case::Accurate9);
        assert!(
            acc9_3g > acc9_5g,
            "3G has the most tail to cut: {acc9_3g:.4} vs 5G {acc9_5g:.4}"
        );
        assert!(
            acc9_3g > acc9_wifi,
            "3G has the most tail to cut: {acc9_3g:.4} vs WiFi {acc9_wifi:.4}"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let (corpus, server, cfg) = setup();
        let a = sweep(&corpus, &server, &cfg);
        let b = sweep(&corpus, &server, &cfg);
        assert_eq!(summary_json(&a), summary_json(&b));
    }
}
