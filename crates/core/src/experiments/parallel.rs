//! Intra-page parallelism experiment: what does fanning the browser's
//! layout-phase stages over simulated cores buy, and what does it cost?
//!
//! Sweeps every controller candidate plan ([`CANDIDATE_PLANS`]) over the
//! image-heavy **full** benchmark pages under the energy-aware pipeline,
//! reporting per-plan energy, load time, and the aggregate pipeline
//! speedup (parallelizable stage work ÷ actual stage span). A final
//! `learned` row runs the trained [`PlanChooser`] per page — the
//! controller's never-lose property is visible right in the table: its
//! energy saving is ≥ 0 and ≥ every fixed plan's.
//!
//! Deterministic in (`corpus`, `cfg`): no faults, no sampling, and the
//! GBRT trains with `subsample = 1.0` — the golden parallel test pins
//! the serialized output byte-for-byte.

use crate::cases::Case;
use crate::config::CoreConfig;
use crate::planner::{training_samples, PlanChooser, PlanFeatures, CANDIDATE_PLANS};
use crate::session::{simulate_session, SessionOpts, Visit};
use ewb_browser::parallel::ParallelismPlan;
use ewb_browser::pipeline::{load_page, PipelineConfig};
use ewb_net::ThreeGFetcher;
use ewb_rrc::RrcMachine;
use ewb_simcore::SimTime;
use ewb_webpage::{Corpus, OriginServer, Page};
use serde::{Deserialize, Serialize};

/// Reading time per visit, seconds (same dwell as the backends sweep).
pub const READING_S: f64 = 25.0;

/// The policy case the sweep runs: the energy-aware pipeline without a
/// predictor, where all three plan knobs (decode fan-out, style fan-out,
/// CSS-scan overlap) are live.
pub const CASE: Case = Case::EnergyAwareAlwaysOff;

/// One plan's row of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRow {
    /// Plan id (`seq`, `d4s4o1`, ... or `learned`).
    pub plan: String,
    /// Total energy over the full-page benchmark, J.
    pub joules: f64,
    /// Total page-load (user-waiting) time, s.
    pub load_time_s: f64,
    /// Aggregate pipeline speedup: parallelizable stage work ÷ stage
    /// span, summed over all pages. 1.0 for the sequential plan.
    pub pipeline_speedup: f64,
    /// Energy saving vs the sequential plan (fraction; negative = the
    /// plan costs energy).
    pub energy_saving: f64,
    /// Delay saving vs the sequential plan (fraction).
    pub delay_saving: f64,
}

/// One page's learned choice — the feature→plan table the golden test
/// pins the trained controller against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanChoice {
    /// Site key + version (`espn/full`).
    pub page: String,
    /// Chosen plan id.
    pub plan: String,
    /// Predicted energy delta of the choice, J (0 for sequential).
    pub predicted_delta_j: f64,
}

/// The image-heavy experiment pages: every site's full version, corpus
/// order.
pub fn full_pages(corpus: &Corpus) -> Vec<&Page> {
    corpus.sites().iter().map(|s| &s.full).collect()
}

/// `(joules, load_time_s)` of a one-visit session per page under `plan`.
pub fn per_page_totals(
    pages: &[&Page],
    server: &OriginServer,
    cfg: &CoreConfig,
    plan: ParallelismPlan,
) -> Vec<(f64, f64)> {
    pages
        .iter()
        .map(|page| {
            let visits = [Visit {
                page,
                reading_s: READING_S,
                features: None,
            }];
            let out = simulate_session(
                server,
                &visits,
                CASE,
                cfg,
                SessionOpts {
                    plan,
                    ..SessionOpts::three_g(cfg)
                },
            );
            (out.total_joules, out.total_load_time_s)
        })
        .collect()
}

/// Aggregate pipeline speedup of `plan` over `pages`: total
/// parallelizable stage work ÷ total stage span, from direct page loads
/// (the session path does not expose per-load metrics).
pub fn pipeline_speedup(
    pages: &[&Page],
    server: &OriginServer,
    cfg: &CoreConfig,
    plan: ParallelismPlan,
) -> f64 {
    let (mut work, mut span) = (0.0f64, 0.0f64);
    for page in pages {
        let (w, sp) = work_and_span(page, server, cfg, plan);
        work += w;
        span += sp;
    }
    if span == 0.0 {
        1.0
    } else {
        work / span
    }
}

/// `(parallelizable stage work, stage span)` of one page load under
/// `plan`, seconds.
fn work_and_span(
    page: &Page,
    server: &OriginServer,
    cfg: &CoreConfig,
    plan: ParallelismPlan,
) -> (f64, f64) {
    let mut pipe_cfg = PipelineConfig::new(CASE.pipeline_mode());
    pipe_cfg.plan = plan;
    let machine = RrcMachine::new(cfg.rrc, SimTime::ZERO);
    let mut fetcher = ThreeGFetcher::with_machine(cfg.net, machine, server);
    let m = load_page(
        &mut fetcher,
        page.root_url(),
        SimTime::ZERO,
        &pipe_cfg,
        &cfg.cost,
    );
    (m.parallel_work.as_secs_f64(), m.parallel_span.as_secs_f64())
}

/// Runs every candidate plan plus the learned controller over the full
/// benchmark pages. The sequential plan is row 0; `learned` is last.
pub fn sweep(corpus: &Corpus, server: &OriginServer, cfg: &CoreConfig) -> Vec<PlanRow> {
    let pages = full_pages(corpus);
    let mut rows = Vec::with_capacity(CANDIDATE_PLANS.len() + 1);
    let mut base = (0.0, 0.0);
    for plan in CANDIDATE_PLANS {
        let per_page = per_page_totals(&pages, server, cfg, plan);
        let joules: f64 = per_page.iter().map(|(j, _)| j).sum();
        let load_s: f64 = per_page.iter().map(|(_, s)| s).sum();
        if plan.is_sequential() {
            base = (joules, load_s);
        }
        rows.push(PlanRow {
            plan: plan.id(),
            joules,
            load_time_s: load_s,
            pipeline_speedup: pipeline_speedup(&pages, server, cfg, plan),
            energy_saving: 1.0 - joules / base.0,
            delay_saving: 1.0 - load_s / base.1,
        });
    }

    let chooser = trained_chooser(corpus, server, cfg);
    let (mut joules, mut load_s, mut work, mut span) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for page in &pages {
        let plan = chooser.choose(&PlanFeatures::of_page(page));
        let (j, s) = per_page_totals(&[page], server, cfg, plan)[0];
        joules += j;
        load_s += s;
        let (w, sp) = work_and_span(page, server, cfg, plan);
        work += w;
        span += sp;
    }
    rows.push(PlanRow {
        plan: "learned".to_string(),
        joules,
        load_time_s: load_s,
        pipeline_speedup: if span == 0.0 { 1.0 } else { work / span },
        energy_saving: 1.0 - joules / base.0,
        delay_saving: 1.0 - load_s / base.1,
    });
    rows
}

/// Trains the controller exactly as the sweep and golden test do: on
/// every corpus page (both versions) under [`CASE`] with the default
/// deterministic parameters.
pub fn trained_chooser(corpus: &Corpus, server: &OriginServer, cfg: &CoreConfig) -> PlanChooser {
    let pages: Vec<&Page> = corpus
        .sites()
        .iter()
        .flat_map(|s| [&s.mobile, &s.full])
        .collect();
    PlanChooser::train(&training_samples(&pages, server, cfg, CASE))
}

/// The trained controller's per-page choices over the whole corpus
/// (mobile and full), corpus order — the golden plan table.
pub fn plan_table(corpus: &Corpus, server: &OriginServer, cfg: &CoreConfig) -> Vec<PlanChoice> {
    let chooser = trained_chooser(corpus, server, cfg);
    let mut out = Vec::with_capacity(corpus.sites().len() * 2);
    for site in corpus.sites() {
        for (version, page) in [("mobile", &site.mobile), ("full", &site.full)] {
            let features = PlanFeatures::of_page(page);
            let plan = chooser.choose(&features);
            out.push(PlanChoice {
                page: format!("{}/{version}", site.key),
                plan: plan.id(),
                predicted_delta_j: chooser.predicted_delta_j(&features, plan),
            });
        }
    }
    out
}

/// The serialized golden summary: sweep rows plus the learned plan
/// table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelSummary {
    /// Per-plan sweep rows ([`sweep`] order).
    pub rows: Vec<PlanRow>,
    /// The trained controller's per-page choices ([`plan_table`] order).
    pub plan_table: Vec<PlanChoice>,
}

/// Serializes the sweep and plan table as the golden summary JSON.
pub fn summary_json(rows: &[PlanRow], choices: &[PlanChoice]) -> String {
    serde_json::to_string(&ParallelSummary {
        rows: rows.to_vec(),
        plan_table: choices.to_vec(),
    })
    .expect("rows are always serializable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::benchmark_corpus;

    fn setup() -> (Corpus, OriginServer, CoreConfig) {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        (corpus, server, CoreConfig::paper())
    }

    #[test]
    fn sweep_reports_speedup_and_the_learned_row_never_loses() {
        let (corpus, server, cfg) = setup();
        let rows = sweep(&corpus, &server, &cfg);
        assert_eq!(rows.len(), CANDIDATE_PLANS.len() + 1);
        assert_eq!(rows[0].plan, "seq");
        assert_eq!(rows[0].energy_saving, 0.0);
        assert_eq!(rows[0].pipeline_speedup, 1.0);

        let d4 = rows
            .iter()
            .find(|r| r.plan == "d4s4o1")
            .expect("4-thread row");
        assert!(
            d4.pipeline_speedup >= 1.5,
            "4-thread plan must reach 1.5x pipeline speedup on the image-heavy \
             corpus, got {:.3}",
            d4.pipeline_speedup
        );
        assert!(d4.delay_saving > 0.0, "parallel layout opens pages sooner");

        let learned = rows.last().expect("learned row");
        assert_eq!(learned.plan, "learned");
        assert!(
            learned.energy_saving >= 0.0,
            "the controller must never lose energy vs always-sequential, got {:.6}",
            learned.energy_saving
        );
        for row in &rows {
            assert!(
                learned.joules <= row.joules + 1e-9,
                "learned ({:.6} J) must be at least as good as fixed plan {} ({:.6} J)",
                learned.joules,
                row.plan,
                row.joules
            );
        }
    }

    #[test]
    fn sweep_and_plan_table_are_deterministic() {
        let (corpus, server, cfg) = setup();
        let a = summary_json(
            &sweep(&corpus, &server, &cfg),
            &plan_table(&corpus, &server, &cfg),
        );
        let b = summary_json(
            &sweep(&corpus, &server, &cfg),
            &plan_table(&corpus, &server, &cfg),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn plan_table_covers_the_corpus_and_stays_on_candidates() {
        let (corpus, server, cfg) = setup();
        let table = plan_table(&corpus, &server, &cfg);
        assert_eq!(table.len(), corpus.sites().len() * 2);
        let ids: Vec<String> = CANDIDATE_PLANS.iter().map(|p| p.id()).collect();
        for choice in &table {
            assert!(
                ids.contains(&choice.plan),
                "{}: {} is not a candidate",
                choice.page,
                choice.plan
            );
            if choice.plan == "seq" {
                assert_eq!(choice.predicted_delta_j, 0.0);
            } else {
                assert!(choice.predicted_delta_j < 0.0, "{}", choice.page);
            }
        }
    }
}
