//! Plan-invariance oracle for intra-page parallelism: a
//! [`ParallelismPlan`] may move *when* a page load's work happens, and
//! with it time and energy, but never *what* the load delivers. On a
//! clean link every plan of the grid must fetch the same bytes and the
//! same object set, fail nothing, and decode the same units as the
//! sequential plan ([`check_plan_invariance`]).
//!
//! The host runs a plan's stage units on the calling thread, in unit
//! order, so a plan has one execution path and nothing to diff it
//! against. What a plan does to time and energy is pinned instead:
//! planned sessions on clean and lossy links, on all four radio
//! backends, to the bit in `crates/core/tests/parallel_pins.rs`, and the
//! clean 3G plan sweep in `crates/core/tests/golden_parallel.rs`.

use crate::run::Violation;
use ewb_browser::parallel::ParallelismPlan;
use ewb_browser::pipeline::{load_page, LoadMetrics, PipelineConfig, PipelineMode};
use ewb_browser::CpuCostModel;
use ewb_net::{NetConfig, ThreeGFetcher};
use ewb_obs::{Event, Recorder};
use ewb_rrc::{RrcConfig, RrcMachine};
use ewb_simcore::SimTime;
use ewb_webpage::{benchmark_corpus, Corpus, OriginServer, PageVersion};
use std::collections::BTreeSet;

/// The thread grid the oracle sweeps: matched decode/style fan-out.
pub const GRID_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Every plan of the differential grid: the sequential anchor plus each
/// grid width with and without the CSS-scan overlap.
pub fn grid_plans() -> Vec<ParallelismPlan> {
    let mut plans = Vec::new();
    for threads in GRID_THREADS {
        for overlap in [false, true] {
            plans.push(ParallelismPlan::new(threads, threads, overlap));
        }
    }
    plans
}

/// One clean-link load: its metrics and the URLs that began a transfer.
struct ParallelLoad {
    metrics: LoadMetrics,
    urls: BTreeSet<String>,
}

fn load_with(
    corpus: &Corpus,
    server: &OriginServer,
    site: &str,
    version: PageVersion,
    mode: PipelineMode,
    plan: ParallelismPlan,
) -> ParallelLoad {
    let page = corpus
        .page(site, version)
        .unwrap_or_else(|| panic!("unknown site {site}"));
    let recorder = Recorder::memory();
    let machine = RrcMachine::new(RrcConfig::paper(), SimTime::ZERO);
    let mut fetcher = ThreeGFetcher::with_machine(NetConfig::paper(), machine, server)
        .with_recorder(recorder.clone());
    let mut pipe_cfg = PipelineConfig::new(mode);
    pipe_cfg.plan = plan;
    let metrics = load_page(
        &mut fetcher,
        page.root_url(),
        SimTime::ZERO,
        &pipe_cfg,
        &CpuCostModel::smartphone(),
    );
    let urls = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::TransferBegin { url, .. } => Some(url.clone()),
            _ => None,
        })
        .collect();
    ParallelLoad { metrics, urls }
}

fn push(violations: &mut Vec<Violation>, invariant: &'static str, detail: String) {
    violations.push(Violation { invariant, detail });
}

/// Checks that on a clean link, *what* a page load delivers is
/// plan-independent: every plan in the grid fetches the same bytes, the
/// same object set, fails nothing, and decodes the same units.
pub fn check_plan_invariance(
    seed: u64,
    site: &str,
    version: PageVersion,
    mode: PipelineMode,
) -> Vec<Violation> {
    let corpus = benchmark_corpus(seed);
    let server = OriginServer::from_corpus(&corpus);
    let mut violations = Vec::new();
    let base = load_with(
        &corpus,
        &server,
        site,
        version,
        mode,
        ParallelismPlan::SEQUENTIAL,
    );
    for plan in grid_plans() {
        let load = load_with(&corpus, &server, site, version, mode, plan);
        let label = format!("{site}/{version:?}/{mode:?}/{plan}");
        let (ma, mb) = (&base.metrics, &load.metrics);
        if ma.bytes_fetched != mb.bytes_fetched {
            push(
                &mut violations,
                "parallel-plan-invariance",
                format!(
                    "{label}: bytes differ: {} vs {}",
                    ma.bytes_fetched, mb.bytes_fetched
                ),
            );
        }
        if ma.objects_fetched != mb.objects_fetched
            || ma.js_objects != mb.js_objects
            || ma.image_objects != mb.image_objects
        {
            push(
                &mut violations,
                "parallel-plan-invariance",
                format!("{label}: object counts differ"),
            );
        }
        if mb.failed_objects != 0 || mb.degraded {
            push(
                &mut violations,
                "parallel-plan-invariance",
                format!(
                    "{label}: clean-link load failed {} objects",
                    mb.failed_objects
                ),
            );
        }
        if ma.decode_jobs != mb.decode_jobs || ma.decoded_bytes != mb.decoded_bytes {
            push(
                &mut violations,
                "parallel-plan-invariance",
                format!(
                    "{label}: decode accounting differs: {}x{} vs {}x{}",
                    ma.decode_jobs, ma.decoded_bytes, mb.decode_jobs, mb.decoded_bytes
                ),
            );
        }
        if base.urls != load.urls {
            push(
                &mut violations,
                "parallel-plan-invariance",
                format!("{label}: fetched URL sets differ"),
            );
        }
    }
    violations
}

/// The pages [`check_parallel_all`] loads: two full pages and a mobile
/// one.
const PAGES: [(&str, PageVersion); 3] = [
    ("espn", PageVersion::Full),
    ("cnn", PageVersion::Mobile),
    ("ebay", PageVersion::Full),
];

/// Runs the parallel oracle at one seed: plan invariance over
/// representative pages in both pipeline modes. Empty result = no plan
/// changes what a load delivers.
pub fn check_parallel_all(seed: u64) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (site, version) in PAGES {
        for mode in [PipelineMode::Original, PipelineMode::EnergyAware] {
            violations.extend(check_plan_invariance(seed, site, version, mode));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_invariance_holds() {
        for mode in [PipelineMode::Original, PipelineMode::EnergyAware] {
            let v = check_plan_invariance(2013, "espn", PageVersion::Full, mode);
            assert!(v.is_empty(), "{mode:?}: {v:?}");
        }
    }
}
