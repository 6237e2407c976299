//! Parallel-vs-sequential differential oracle — the proof that host
//! parallelism is *pure implementation*: executing a page load's
//! fanned-out stage units on real threads must produce bit-identical
//! simulation output to executing the very same plan on the calling
//! thread, for every plan, under clean and faulted streams, on every
//! radio backend.
//!
//! Three layers of checks:
//!
//! * **Host identity** ([`check_host_identity`]) — one page load, same
//!   [`ParallelismPlan`], `host_parallel` true vs false: the full
//!   [`LoadMetrics`] (loaded bytes, object counts, CPU/aux busy
//!   intervals, decode-unit accounting, per-stage work/span), the
//!   per-stage observability spans after a canonical reorder, the
//!   transfer log, and the radio's `energy_j()` (compared via
//!   [`f64::to_bits`]) must all agree exactly.
//! * **Plan invariance** ([`check_plan_invariance`]) — across *different*
//!   plans on a clean link, the plan may move time and energy but never
//!   content: loaded bytes, object set, failure count, decode-unit count
//!   and decoded bytes are plan-independent.
//! * **Session grid** ([`check_session_grid`]) — whole sessions through
//!   `ewb-core` on a {1,2,4,8}-thread plan grid × {clean, lossy-10%} ×
//!   {3G, LTE, WiFi, 5G}: host-parallel and host-sequential execution of
//!   each cell must agree on every page record and on session energy to
//!   the last bit.
//!
//! The seeded executor mutants (`ewb_browser::parallel::ParallelMutant`,
//! behind the `sabotage` feature) break only the host-parallel code
//! path, so this oracle is exactly the net that must catch them — the
//! teeth tests in this module's test suite prove it does, within a
//! single page load each.

use crate::run::Violation;
use ewb_browser::parallel::ParallelismPlan;
use ewb_browser::pipeline::{load_page, LoadMetrics, PipelineConfig, PipelineMode};
use ewb_browser::CpuCostModel;
use ewb_core::cases::Case;
use ewb_core::session::{simulate_session, SessionFaults, SessionOpts, Visit};
use ewb_core::CoreConfig;
use ewb_net::{FaultConfig, NetConfig, RetryPolicy, ThreeGFetcher, TransferRecord};
use ewb_obs::{Event, Recorder};
use ewb_rrc::{
    FiveGConfig, FiveGMachine, LteConfig, LteMachine, RadioModel, RrcConfig, RrcMachine,
    WifiConfig, WifiMachine,
};
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

/// One instrumented load: everything the differential compares.
struct ParallelLoad {
    metrics: LoadMetrics,
    /// Browser stage spans in canonical `(start, end, name)` order —
    /// host-parallel execution may *record* per-core spans in any core
    /// order, but after the reorder the set must be identical.
    spans: Vec<(SimTime, SimTime, &'static str)>,
    /// URLs that began a transfer, from the observability stream.
    urls: BTreeSet<String>,
    transfers: Vec<TransferRecord>,
    energy_bits: u64,
}

#[allow(clippy::too_many_arguments)]
fn load_with(
    corpus: &Corpus,
    server: &OriginServer,
    site: &str,
    version: PageVersion,
    mode: PipelineMode,
    plan: ParallelismPlan,
    host_parallel: bool,
    faults: Option<(FaultConfig, u64)>,
) -> ParallelLoad {
    let page = corpus
        .page(site, version)
        .unwrap_or_else(|| panic!("unknown site {site}"));
    let recorder = Recorder::memory();
    let machine = RrcMachine::new(RrcConfig::paper(), SimTime::ZERO);
    let mut fetcher = ThreeGFetcher::with_machine(NetConfig::paper(), machine, server)
        .with_recorder(recorder.clone());
    if let Some((cfg, seed)) = faults {
        fetcher = fetcher
            .try_with_faults(cfg, seed, RetryPolicy::standard())
            .expect("valid fault config");
    }
    let mut pipe_cfg = PipelineConfig::new(mode);
    pipe_cfg.plan = plan;
    pipe_cfg.host_parallel = host_parallel;
    let metrics = load_page(
        &mut fetcher,
        page.root_url(),
        SimTime::ZERO,
        &pipe_cfg,
        &CpuCostModel::smartphone(),
    );
    let events = recorder.events();
    let mut spans: Vec<(SimTime, SimTime, &'static str)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span {
                start, end, name, ..
            } => Some((*start, *end, *name)),
            _ => None,
        })
        .collect();
    spans.sort();
    let urls: BTreeSet<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::TransferBegin { url, .. } => Some(url.clone()),
            _ => None,
        })
        .collect();
    ParallelLoad {
        metrics,
        spans,
        urls,
        transfers: fetcher.transfers().to_vec(),
        energy_bits: fetcher.machine().energy_j().to_bits(),
    }
}

fn push(violations: &mut Vec<Violation>, invariant: &'static str, detail: String) {
    violations.push(Violation { invariant, detail });
}

/// Field-by-field bitwise comparison of two loads of the *same* plan.
fn diff_loads(label: &str, a: &ParallelLoad, b: &ParallelLoad, violations: &mut Vec<Violation>) {
    let (ma, mb) = (&a.metrics, &b.metrics);
    // f64 fields compare via to_bits; everything else in LoadMetrics is
    // integral/enum and `Debug` prints it exactly, so the formatted
    // struct is a faithful bitwise fingerprint of the whole record.
    if format!("{ma:?}") != format!("{mb:?}") {
        push(
            violations,
            "parallel-host-identity",
            format!("{label}: LoadMetrics differ:\n  par={ma:?}\n  seq={mb:?}"),
        );
    }
    if (ma.page_height.to_bits(), ma.page_width.to_bits())
        != (mb.page_height.to_bits(), mb.page_width.to_bits())
    {
        push(
            violations,
            "parallel-host-identity",
            format!("{label}: page geometry bits differ"),
        );
    }
    if a.spans != b.spans {
        push(
            violations,
            "parallel-host-identity",
            format!(
                "{label}: canonical span sets differ ({} vs {} spans)",
                a.spans.len(),
                b.spans.len()
            ),
        );
    }
    if a.urls != b.urls {
        push(
            violations,
            "parallel-host-identity",
            format!("{label}: fetched URL sets differ"),
        );
    }
    if a.transfers != b.transfers {
        push(
            violations,
            "parallel-host-identity",
            format!("{label}: transfer logs differ"),
        );
    }
    if a.energy_bits != b.energy_bits {
        push(
            violations,
            "parallel-host-identity",
            format!(
                "{label}: radio energy differs: {} vs {}",
                f64::from_bits(a.energy_bits),
                f64::from_bits(b.energy_bits)
            ),
        );
    }
}

/// Checks that one page load under `plan` is bit-identical whether the
/// engine work runs on host threads or on the calling thread. Faults
/// (if any) use the same stream seed on both sides.
pub fn check_host_identity(
    seed: u64,
    site: &str,
    version: PageVersion,
    mode: PipelineMode,
    plan: ParallelismPlan,
    faults: Option<(FaultConfig, u64)>,
) -> Vec<Violation> {
    let corpus = benchmark_corpus(seed);
    let server = OriginServer::from_corpus(&corpus);
    let mut violations = Vec::new();
    let par = load_with(&corpus, &server, site, version, mode, plan, true, faults);
    let seq = load_with(&corpus, &server, site, version, mode, plan, false, faults);
    let label = format!("{site}/{version:?}/{mode:?}/{plan}");
    diff_loads(&label, &par, &seq, &mut violations);
    violations
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
        true,
        None,
    );
    for plan in grid_plans() {
        let load = load_with(&corpus, &server, site, version, mode, plan, true, None);
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

/// Reading times that drag the radio through DCH, FACH, and IDLE clicks.
const SESSION_READING_S: [f64; 3] = [2.0, 6.0, 30.0];

fn session_sites() -> [(&'static str, PageVersion); 3] {
    [
        ("espn", PageVersion::Full),
        ("cnn", PageVersion::Mobile),
        ("ebay", PageVersion::Full),
    ]
}

fn session_fingerprint<R: RadioModel>(
    server: &OriginServer,
    visits: &[Visit<'_>],
    cfg: &CoreConfig,
    opts: SessionOpts<'_, R>,
) -> (u64, u64, String) {
    let out = simulate_session(server, visits, Case::EnergyAwareAlwaysOff, cfg, opts);
    (
        out.total_joules.to_bits(),
        out.total_load_time_s.to_bits(),
        format!("{:?}|{:?}|{:?}", out.pages, out.duration, out.counters),
    )
}

/// Runs one grid cell host-parallel and host-sequential (`opts`'
/// `host_parallel` is overridden both ways) and reports any difference.
fn session_cell<R: RadioModel + Clone>(
    label: &str,
    server: &OriginServer,
    visits: &[Visit<'_>],
    cfg: &CoreConfig,
    opts: SessionOpts<'_, R>,
    violations: &mut Vec<Violation>,
) {
    let par = session_fingerprint(
        server,
        visits,
        cfg,
        SessionOpts {
            host_parallel: true,
            ..opts.clone()
        },
    );
    let seq = session_fingerprint(
        server,
        visits,
        cfg,
        SessionOpts {
            host_parallel: false,
            ..opts
        },
    );
    if par.0 != seq.0 {
        push(
            violations,
            "parallel-session-energy",
            format!(
                "{label}: session energy differs: {} vs {}",
                f64::from_bits(par.0),
                f64::from_bits(seq.0)
            ),
        );
    }
    if par.1 != seq.1 {
        push(
            violations,
            "parallel-session-identity",
            format!("{label}: load-time bits differ"),
        );
    }
    if par.2 != seq.2 {
        push(
            violations,
            "parallel-session-identity",
            format!("{label}: page records differ"),
        );
    }
}

/// The headline grid: every plan × {clean, lossy-10%} × every radio
/// backend, host-parallel vs host-sequential, bit-identical sessions.
pub fn check_session_grid(seed: u64) -> Vec<Violation> {
    let corpus = benchmark_corpus(seed);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let visits: Vec<Visit<'_>> = session_sites()
        .iter()
        .zip(SESSION_READING_S)
        .map(|(&(site, version), reading_s)| Visit {
            page: corpus.page(site, version).expect("known site"),
            reading_s,
            features: None,
        })
        .collect();
    let lossy = SessionFaults::new(FaultConfig::lossy(0.10), seed);
    let mut violations = Vec::new();
    for plan in grid_plans() {
        for faults in [None, Some(&lossy)] {
            let stream = if faults.is_some() { "lossy10" } else { "clean" };
            let label = |backend: &str| format!("{backend}/{stream}/{plan}");
            session_cell::<RrcMachine>(
                &label("3g"),
                &server,
                &visits,
                &cfg,
                SessionOpts {
                    faults,
                    plan,
                    ..SessionOpts::new(cfg.rrc)
                },
                &mut violations,
            );
            session_cell::<LteMachine>(
                &label("lte"),
                &server,
                &visits,
                &cfg,
                SessionOpts {
                    faults,
                    plan,
                    ..SessionOpts::new(LteConfig::calibrated())
                },
                &mut violations,
            );
            session_cell::<WifiMachine>(
                &label("wifi"),
                &server,
                &visits,
                &cfg,
                SessionOpts {
                    faults,
                    plan,
                    ..SessionOpts::new(WifiConfig::calibrated())
                },
                &mut violations,
            );
            session_cell::<FiveGMachine>(
                &label("5g"),
                &server,
                &visits,
                &cfg,
                SessionOpts {
                    faults,
                    plan,
                    ..SessionOpts::new(FiveGConfig::calibrated())
                },
                &mut violations,
            );
        }
    }
    violations
}

/// Runs the whole parallel oracle at one seed: page-level host identity
/// over representative pages × modes × the plan grid (clean and
/// lossy-10%), plan invariance on clean links, and the full session
/// grid. Empty result = the parallel executor is pure implementation.
pub fn check_parallel_all(seed: u64) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (site, version) in session_sites() {
        for mode in [PipelineMode::Original, PipelineMode::EnergyAware] {
            violations.extend(check_plan_invariance(seed, site, version, mode));
            for plan in grid_plans() {
                violations.extend(check_host_identity(seed, site, version, mode, plan, None));
                violations.extend(check_host_identity(
                    seed,
                    site,
                    version,
                    mode,
                    plan,
                    Some((FaultConfig::lossy(0.10), seed ^ plan.key())),
                ));
            }
        }
    }
    violations.extend(check_session_grid(seed));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_identity_holds_on_the_grid() {
        for plan in grid_plans() {
            let v = check_host_identity(
                2013,
                "espn",
                PageVersion::Full,
                PipelineMode::EnergyAware,
                plan,
                None,
            );
            assert!(v.is_empty(), "{plan}: {v:?}");
        }
    }

    #[test]
    fn host_identity_holds_under_faults() {
        for plan in [
            ParallelismPlan::new(4, 4, true),
            ParallelismPlan::new(8, 8, false),
        ] {
            let v = check_host_identity(
                2013,
                "cnn",
                PageVersion::Mobile,
                PipelineMode::EnergyAware,
                plan,
                Some((FaultConfig::lossy(0.10), 7)),
            );
            assert!(v.is_empty(), "{plan}: {v:?}");
        }
    }

    #[test]
    fn plan_invariance_holds() {
        for mode in [PipelineMode::Original, PipelineMode::EnergyAware] {
            let v = check_plan_invariance(2013, "espn", PageVersion::Full, mode);
            assert!(v.is_empty(), "{mode:?}: {v:?}");
        }
    }

    #[test]
    fn session_grid_is_bit_identical() {
        let v = check_session_grid(2013);
        assert!(
            v.is_empty(),
            "{} violations: {:?}",
            v.len(),
            &v[..v.len().min(3)]
        );
    }

    /// Teeth: the unordered-join mutant scrambles which worker's result
    /// lands in which slot — the host-parallel load must diverge from
    /// the host-sequential one within a single page.
    #[test]
    fn oracle_kills_the_unordered_join_mutant() {
        use ewb_browser::parallel::{sabotage, ParallelMutant};
        sabotage::set(ParallelMutant::UnorderedJoin);
        let v = check_host_identity(
            2013,
            "espn",
            PageVersion::Full,
            PipelineMode::EnergyAware,
            ParallelismPlan::new(4, 4, false),
            None,
        );
        sabotage::set(ParallelMutant::None);
        assert!(
            !v.is_empty(),
            "the oracle must catch an unordered join within one page"
        );
    }

    /// Teeth: the racy-counter mutant merges per-worker byte counts with
    /// `max` instead of `+` — decode accounting diverges immediately.
    #[test]
    fn oracle_kills_the_racy_decode_counter_mutant() {
        use ewb_browser::parallel::{sabotage, ParallelMutant};
        sabotage::set(ParallelMutant::RacyDecodeCounter);
        let v = check_host_identity(
            2013,
            "espn",
            PageVersion::Full,
            PipelineMode::EnergyAware,
            ParallelismPlan::new(4, 4, false),
            None,
        );
        sabotage::set(ParallelMutant::None);
        assert!(
            !v.is_empty(),
            "the oracle must catch a racy decode counter within one page"
        );
    }

    /// The mutants must not bite the host-sequential path: with a mutant
    /// armed, sequential-vs-sequential of the *sequential plan* stays
    /// clean (the oracle's divergence really is the parallel executor).
    #[test]
    fn mutants_do_not_touch_the_sequential_plan() {
        use ewb_browser::parallel::{sabotage, ParallelMutant};
        sabotage::set(ParallelMutant::UnorderedJoin);
        let v = check_host_identity(
            2013,
            "espn",
            PageVersion::Full,
            PipelineMode::EnergyAware,
            ParallelismPlan::SEQUENTIAL,
            None,
        );
        sabotage::set(ParallelMutant::None);
        assert!(v.is_empty(), "{v:?}");
    }
}
