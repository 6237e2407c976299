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
use ewb_webpage::{Corpus, OriginServer, Page, Site};

/// Fans an independent per-site measurement over scoped threads, one
/// worker per benchmark site, and collects results in site order. Every
/// per-site experiment here is a pure function of (site, config), so the
/// output is identical to a serial `sites().iter().map(...)`.
///
/// # Panics
///
/// Propagates any worker panic.
pub(crate) fn par_map_sites<T, F>(corpus: &Corpus, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Site) -> T + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = corpus
            .sites()
            .iter()
            .map(|site| scope.spawn(move || f(site)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("site worker panicked"))
            .collect()
    })
}

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
