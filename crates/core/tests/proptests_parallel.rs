//! Property-based tests of the intra-page parallelism layer: over
//! arbitrary visit schedules, parallelism plans and policies, the plan
//! is a pure timing/energy knob — it never changes what the browser
//! fetches or whether objects fail.

use ewb_core::browser::parallel::ParallelismPlan;
use ewb_core::cases::Case;
use ewb_core::session::{simulate_session, SessionOpts, SessionOutcome, Visit};
use ewb_core::webpage::{benchmark_corpus, Corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;
use proptest::prelude::*;

fn corpus() -> &'static (Corpus, OriginServer) {
    use std::sync::OnceLock;
    static CTX: OnceLock<(Corpus, OriginServer)> = OnceLock::new();
    CTX.get_or_init(|| {
        let corpus = benchmark_corpus(77);
        let server = OriginServer::from_corpus(&corpus);
        (corpus, server)
    })
}

/// (site index, mobile?, reading seconds) visit descriptors.
fn visit_plan() -> impl Strategy<Value = Vec<(usize, bool, f64)>> {
    proptest::collection::vec((0usize..10, any::<bool>(), 0.0f64..60.0), 1..4)
}

/// An arbitrary valid parallelism plan on the controller's grid.
fn parallelism_plan() -> impl Strategy<Value = ParallelismPlan> {
    (0usize..4, 0usize..4, any::<bool>()).prop_map(|(d, s, overlap)| {
        const THREADS: [usize; 4] = [1, 2, 4, 8];
        ParallelismPlan::new(THREADS[d], THREADS[s], overlap)
    })
}

fn build_visits(plan: &[(usize, bool, f64)]) -> Vec<Visit<'static>> {
    let (corpus, _) = corpus();
    plan.iter()
        .map(|&(site, mobile, reading_s)| {
            let key = ewb_core::webpage::BENCHMARK_SITES[site].0;
            let version = if mobile {
                PageVersion::Mobile
            } else {
                PageVersion::Full
            };
            Visit {
                page: corpus.page(key, version).expect("benchmark site"),
                reading_s,
                features: None,
            }
        })
        .collect()
}

fn pick_case(case_idx: usize) -> Option<Case> {
    let case = std::iter::once(Case::Original)
        .chain(Case::TABLE6)
        .nth(case_idx)
        .expect("7 cases");
    // Predictor-backed cases need a trained GBRT; the concrete
    // integration tests cover them.
    (!case.needs_predictor()).then_some(case)
}

fn run(visits: &[Visit<'_>], case: Case, plan: ParallelismPlan) -> SessionOutcome {
    let (_, server) = corpus();
    let cfg = CoreConfig::paper();
    simulate_session(
        server,
        visits,
        case,
        &cfg,
        SessionOpts {
            plan,
            ..SessionOpts::three_g(&cfg)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On clean links the parallelism plan is a pure timing/energy knob:
    /// whatever plan runs, every visit fetches the same bytes and fails
    /// zero objects — exactly like the sequential baseline.
    #[test]
    fn plan_choice_never_changes_what_loads(
        plan in visit_plan(),
        par in parallelism_plan(),
        case_idx in 0usize..7,
    ) {
        let Some(case) = pick_case(case_idx) else { return Ok(()) };
        let visits = build_visits(&plan);
        let planned = run(&visits, case, par);
        let sequential = run(&visits, case, ParallelismPlan::SEQUENTIAL);
        prop_assert_eq!(planned.pages.len(), sequential.pages.len());
        for (pa, pb) in planned.pages.iter().zip(&sequential.pages) {
            prop_assert_eq!(&pa.url, &pb.url);
            prop_assert_eq!(pa.bytes, pb.bytes, "plan {} changed bytes on {}", par.id(), pa.url);
            prop_assert_eq!(pa.failed_objects, 0, "clean link failed objects on {}", pa.url);
            prop_assert_eq!(pb.failed_objects, 0);
        }
    }
}
