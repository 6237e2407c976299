//! Drivers that regenerate every figure and table of the paper's
//! evaluation (§5). Each submodule owns one experiment; the `ewb-bench`
//! binaries print their outputs in the paper's format.

pub mod backends;
pub mod capacity_exp;
pub mod cases16;
pub mod display;
pub mod energy;
pub mod loadtime;
pub mod parallel;
pub mod power_trace;
pub mod robustness;
pub mod timeline;
pub mod traffic;

use crate::cases::Case;
use crate::config::CoreConfig;
use crate::session::{simulate_session, SessionOpts, SessionOutcome, Visit};
use ewb_webpage::{OriginServer, Page};

/// Runs a single-page session (fresh radio, one visit) — the building
/// block of the per-benchmark experiments.
pub fn single_visit(
    server: &OriginServer,
    page: &Page,
    case: Case,
    cfg: &CoreConfig,
    reading_s: f64,
) -> SessionOutcome {
    let visits = [Visit {
        page,
        reading_s,
        features: None,
    }];
    simulate_session(server, &visits, case, cfg, SessionOpts::three_g(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::{benchmark_corpus, PageVersion};

    #[test]
    fn single_visit_smoke() {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let page = corpus.page("bbc", PageVersion::Mobile).unwrap();
        let out = single_visit(&server, page, Case::Original, &CoreConfig::paper(), 5.0);
        assert_eq!(out.pages.len(), 1);
        assert!(out.total_joules > 0.0);
    }
}
