//! The page-load oracle: one instrumented load and one diff of what two
//! loads delivered.
//!
//! The paper's reorganization changes *when* a page's objects are fetched
//! and processed, never *which* (§4.1), and a [`ParallelismPlan`] moves
//! stage work over simulated cores under the same promise. Both promises
//! are checked the same way, end to end through `browser` × `net` × `rrc`:
//!
//! * **One instrumented load** (`load`): a page load on the paper's clean
//!   3G link with a memory recorder on both the fetcher and the machine.
//!   The radio invariants of [`crate::run`] are re-checked on the machine
//!   it drove, and the load must fetch every object of the page.
//! * **One diff** (`diff`): what two loads delivered — bytes, objects, JS
//!   and image objects, image bytes, decode jobs and bytes, stylesheet
//!   rules parsed, failed objects and degradation, DOM nodes, secondary
//!   URLs, page geometry, and the set of URLs that began a transfer. Any
//!   field that differs is one violation naming it.
//!
//! **Mode agreement** ([`check_mode_agreement`]) is that diff between the
//! Original and energy-aware schedules, on every page of the benchmark
//! corpus ([`check_all_sites`], `check_all`'s stage 5). **Plan
//! invariance** ([`check_plan_invariance`]) is that diff between the
//! sequential plan and each plan of [`grid_plans`], on three pages in
//! both pipeline modes ([`check_parallel_all`], the `parallel_sweep`
//! gate).
//!
//! The host runs a plan's stage units on the calling thread, in unit
//! order, so a plan has one execution path and nothing to diff it
//! against. What a plan does to time and energy is pinned instead:
//! planned sessions on clean and lossy links, on all four radio backends,
//! to the bit in `crates/core/tests/parallel_pins.rs`, and the clean 3G
//! plan sweep in `crates/core/tests/golden_parallel.rs`.

use crate::run::{check_machine_invariants, Violation};
use ewb_browser::parallel::ParallelismPlan;
use ewb_browser::pipeline::{load_page, LoadMetrics, PipelineConfig, PipelineMode};
use ewb_browser::CpuCostModel;
use ewb_net::{NetConfig, ThreeGFetcher};
use ewb_obs::{Event, Recorder};
use ewb_rrc::{RrcConfig, RrcMachine};
use ewb_simcore::SimTime;
use ewb_webpage::{benchmark_corpus, Corpus, OriginServer, PageVersion};
use std::collections::BTreeSet;

/// The thread grid plan invariance sweeps: matched decode/style fan-out.
pub const GRID_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Every plan of the grid: each width with and without the CSS-scan
/// overlap.
pub fn grid_plans() -> Vec<ParallelismPlan> {
    let mut plans = Vec::new();
    for threads in GRID_THREADS {
        for overlap in [false, true] {
            plans.push(ParallelismPlan::new(threads, threads, overlap));
        }
    }
    plans
}

/// The schedule and plan a load runs under.
type Variant = (PipelineMode, ParallelismPlan);

/// One delivered field: the name the diff reports and the field's value,
/// rendered.
type Field = (&'static str, fn(&LoadMetrics) -> String);

/// What a load delivered, field by field.
const DELIVERED: [Field; 13] = [
    ("bytes_fetched", |m| m.bytes_fetched.to_string()),
    ("objects_fetched", |m| m.objects_fetched.to_string()),
    ("js_objects", |m| m.js_objects.to_string()),
    ("image_objects", |m| m.image_objects.to_string()),
    ("image_bytes", |m| m.image_bytes.to_string()),
    ("decode_jobs", |m| m.decode_jobs.to_string()),
    ("decoded_bytes", |m| m.decoded_bytes.to_string()),
    ("css_rules", |m| m.css_rules.to_string()),
    ("failed_objects", |m| m.failed_objects.to_string()),
    ("degraded", |m| m.degraded.to_string()),
    ("dom_nodes", |m| m.dom_nodes.to_string()),
    ("secondary_urls", |m| m.secondary_urls.to_string()),
    ("page_geometry", |m| {
        format!("{}x{}", m.page_width, m.page_height)
    }),
];

/// One instrumented page load: its metrics and the URLs that began a
/// transfer over the radio.
#[derive(Clone)]
struct Load {
    metrics: LoadMetrics,
    urls: BTreeSet<String>,
}

/// Loads `site`/`version` under `variant` on the paper's clean 3G link,
/// pushing a violation for every radio invariant the load breaks and one
/// if it does not fetch every object of the page.
fn load(
    corpus: &Corpus,
    server: &OriginServer,
    site: &str,
    version: PageVersion,
    (mode, plan): Variant,
    violations: &mut Vec<Violation>,
) -> Load {
    let page = corpus
        .page(site, version)
        .unwrap_or_else(|| panic!("unknown site {site}"));
    let recorder = Recorder::memory();
    // The recorder must ride on the *machine*, not just the fetcher, so
    // the event stream carries the energy ledger the invariants audit.
    let machine = RrcMachine::with_recorder(RrcConfig::paper(), SimTime::ZERO, recorder.clone());
    let mut fetcher = ThreeGFetcher::with_machine(NetConfig::paper(), machine, server)
        .with_recorder(recorder.clone());
    let mut cfg = PipelineConfig::new(mode);
    cfg.plan = plan;
    let metrics = load_page(
        &mut fetcher,
        page.root_url(),
        SimTime::ZERO,
        &cfg,
        &CpuCostModel::smartphone(),
    );

    let events = recorder.events();
    let urls = events
        .iter()
        .filter_map(|e| match e {
            Event::TransferBegin { url, .. } => Some(url.clone()),
            _ => None,
        })
        .collect();
    let windows: Vec<(SimTime, SimTime)> = fetcher
        .transfers()
        .iter()
        .map(|t| (t.data_start, t.end))
        .collect();
    let label = format!("{site}/{version:?}/{mode:?}/{plan}");
    check_machine_invariants(fetcher.machine(), &events, &windows, &mut |inv, d| {
        violations.push(Violation {
            invariant: inv,
            detail: format!("{label}: {d}"),
        });
    });
    if metrics.failed_objects != 0 || metrics.objects_fetched != page.object_count() {
        violations.push(Violation {
            invariant: "clean-link-fetch",
            detail: format!(
                "{label}: fetched {} of {} objects, {} failed",
                metrics.objects_fetched,
                page.object_count(),
                metrics.failed_objects
            ),
        });
    }
    Load { metrics, urls }
}

/// Pushes one `invariant` violation for each delivered field, and one for
/// the fetched URL set, on which loads `a` and `b` differ.
fn diff(invariant: &'static str, label: &str, a: &Load, b: &Load, out: &mut Vec<Violation>) {
    for (field, value) in DELIVERED {
        let (x, y) = (value(&a.metrics), value(&b.metrics));
        if x != y {
            out.push(Violation {
                invariant,
                detail: format!("{label}: {field} differs: {x} vs {y}"),
            });
        }
    }
    if a.urls != b.urls {
        let only_a: Vec<_> = a.urls.difference(&b.urls).collect();
        let only_b: Vec<_> = b.urls.difference(&a.urls).collect();
        out.push(Violation {
            invariant,
            detail: format!("{label}: fetched_urls differ: only {only_a:?} vs only {only_b:?}"),
        });
    }
}

/// Loads one page of the seed's corpus under `base` and under each of
/// `others`, and diffs every other load against the base load.
fn check_against(
    seed: u64,
    site: &str,
    version: PageVersion,
    invariant: &'static str,
    base: Variant,
    others: &[Variant],
) -> Vec<Violation> {
    let corpus = benchmark_corpus(seed);
    let server = OriginServer::from_corpus(&corpus);
    let mut violations = Vec::new();
    let a = load(&corpus, &server, site, version, base, &mut violations);
    for &other in others {
        let b = load(&corpus, &server, site, version, other, &mut violations);
        let label = format!(
            "{site}/{version:?}: {:?}/{} vs {:?}/{}",
            base.0, base.1, other.0, other.1
        );
        diff(invariant, &label, &a, &b, &mut violations);
    }
    violations
}

/// Checks that both pipeline modes deliver the same page, and that each
/// load keeps the radio invariants and fetches every object. Returns all
/// violations found (empty = agreement).
pub fn check_mode_agreement(seed: u64, site: &str, version: PageVersion) -> Vec<Violation> {
    let seq = ParallelismPlan::SEQUENTIAL;
    check_against(
        seed,
        site,
        version,
        "pipeline-mode-agreement",
        (PipelineMode::Original, seq),
        &[(PipelineMode::EnergyAware, seq)],
    )
}

/// Checks that every plan of [`grid_plans`] delivers what the sequential
/// plan delivers in `mode`, and that each load keeps the radio invariants
/// and fetches every object. Returns all violations found.
pub fn check_plan_invariance(
    seed: u64,
    site: &str,
    version: PageVersion,
    mode: PipelineMode,
) -> Vec<Violation> {
    let plans: Vec<Variant> = grid_plans().into_iter().map(|p| (mode, p)).collect();
    check_against(
        seed,
        site,
        version,
        "parallel-plan-invariance",
        (mode, ParallelismPlan::SEQUENTIAL),
        &plans,
    )
}

/// Mode agreement over every site of the benchmark corpus in both
/// versions — `check_all`'s stage 5.
pub fn check_all_sites(seed: u64) -> Vec<Violation> {
    let corpus = benchmark_corpus(seed);
    let mut violations = Vec::new();
    for site in corpus.sites() {
        for version in [PageVersion::Mobile, PageVersion::Full] {
            violations.extend(check_mode_agreement(seed, &site.key, version));
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

/// Plan invariance on three representative pages in both pipeline modes
/// — the `parallel_sweep` gate. Empty result = no plan changes what a
/// load delivers.
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

    fn first_site() -> String {
        benchmark_corpus(7).sites()[0].key.clone()
    }

    #[test]
    fn modes_agree_on_the_first_site() {
        let site = first_site();
        for version in [PageVersion::Mobile, PageVersion::Full] {
            let v = check_mode_agreement(7, &site, version);
            assert!(v.is_empty(), "{version:?}: {v:?}");
        }
    }

    #[test]
    fn full_corpus_sweep_is_clean() {
        let v = check_all_sites(7);
        assert!(v.is_empty(), "{} violations, first: {}", v.len(), v[0]);
    }

    /// The pages and modes `parallel_sweep`'s gate loads, at its seed.
    #[test]
    fn parallel_plan_invariance_holds() {
        let v = check_parallel_all(2013);
        assert!(v.is_empty(), "{} violations, first: {}", v.len(), v[0]);
    }

    /// The diff reports exactly the field that differs, for every field
    /// it compares and for a URL only one load fetched.
    #[test]
    fn diff_names_each_differing_field() {
        let corpus = benchmark_corpus(7);
        let server = OriginServer::from_corpus(&corpus);
        let mut violations = Vec::new();
        let variant = (PipelineMode::EnergyAware, ParallelismPlan::SEQUENTIAL);
        let a = load(
            &corpus,
            &server,
            "cnn",
            PageVersion::Mobile,
            variant,
            &mut violations,
        );
        assert!(violations.is_empty(), "{violations:?}");
        diff("t", "same", &a, &a.clone(), &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
        let names = DELIVERED.iter().map(|(name, _)| *name);
        for name in names.chain(["fetched_urls"]) {
            let mut b = a.clone();
            let m = &mut b.metrics;
            match name {
                "bytes_fetched" => m.bytes_fetched += 1,
                "objects_fetched" => m.objects_fetched += 1,
                "js_objects" => m.js_objects += 1,
                "image_objects" => m.image_objects += 1,
                "image_bytes" => m.image_bytes += 1,
                "decode_jobs" => m.decode_jobs += 1,
                "decoded_bytes" => m.decoded_bytes += 1,
                "css_rules" => m.css_rules += 1,
                "failed_objects" => m.failed_objects += 1,
                "degraded" => m.degraded = !m.degraded,
                "dom_nodes" => m.dom_nodes += 1,
                "secondary_urls" => m.secondary_urls += 1,
                "page_geometry" => m.page_height += 1.0,
                "fetched_urls" => {
                    b.urls.insert("http://elsewhere.example/x.png".to_string());
                }
                other => panic!("no edit for field {other}"),
            }
            let mut out = Vec::new();
            diff("t", "case", &a, &b, &mut out);
            assert_eq!(out.len(), 1, "{name}: {out:?}");
            assert!(out[0].detail.contains(name), "{name}: {}", out[0]);
        }
    }
}
