//! Property-based tests of the observability substrate: over arbitrary
//! visit schedules, policies, and fault seeds, the emitted energy ledger
//! reconciles with the reported session energy bit for bit, and the
//! recorder never perturbs the simulation it observes.

use ewb_core::cases::Case;
use ewb_core::net::FaultConfig;
use ewb_core::obs::{ledger, Recorder};
use ewb_core::session::{simulate_session, SessionFaults, SessionOpts, SessionOutcome, Visit};
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

/// None, or a lossy fault model with the given seed.
fn fault_plan() -> impl Strategy<Value = Option<(f64, u64)>> {
    (any::<bool>(), 0.0f64..0.3, any::<u64>())
        .prop_map(|(on, loss, seed)| on.then_some((loss, seed)))
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

fn run(
    visits: &[Visit<'_>],
    case: Case,
    faults: Option<&SessionFaults>,
    recorder: &Recorder,
) -> SessionOutcome {
    let (_, server) = corpus();
    let cfg = CoreConfig::paper();
    simulate_session(
        server,
        visits,
        case,
        &cfg,
        SessionOpts {
            faults,
            recorder: recorder.clone(),
            ..SessionOpts::three_g(&cfg)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any schedule, policy, and fault stream, the emitted ledger is
    /// well-formed and folds to the reported session energy with f64 bit
    /// identity.
    #[test]
    fn ledger_identity_never_breaks(
        plan in visit_plan(),
        case_idx in 0usize..7,
        faults in fault_plan(),
    ) {
        let Some(case) = pick_case(case_idx) else { return Ok(()) };
        let visits = build_visits(&plan);
        let sf = faults.map(|(loss, seed)| SessionFaults::new(FaultConfig::lossy(loss), seed));
        let recorder = Recorder::memory();
        let out = run(&visits, case, sf.as_ref(), &recorder);
        let entries = ledger::entries(&recorder.events());
        prop_assert!(!entries.is_empty());
        let audit = ledger::audit(&entries);
        prop_assert!(audit.is_empty(), "ledger audit failed: {:?}", audit);
        prop_assert_eq!(
            ledger::total(&entries).to_bits(),
            out.total_joules.to_bits(),
            "ledger {} != reported {}",
            ledger::total(&entries),
            out.total_joules
        );
    }

    /// Observer effect is zero: any session runs bit-identically with the
    /// recorder enabled and disabled.
    #[test]
    fn recorder_never_perturbs_the_session(
        plan in visit_plan(),
        case_idx in 0usize..7,
        faults in fault_plan(),
    ) {
        let Some(case) = pick_case(case_idx) else { return Ok(()) };
        let visits = build_visits(&plan);
        let sf = faults.map(|(loss, seed)| SessionFaults::new(FaultConfig::lossy(loss), seed));
        let observed = run(&visits, case, sf.as_ref(), &Recorder::memory());
        let plain = run(&visits, case, sf.as_ref(), &Recorder::disabled());
        prop_assert_eq!(observed.total_joules.to_bits(), plain.total_joules.to_bits());
        prop_assert_eq!(
            observed.total_load_time_s.to_bits(),
            plain.total_load_time_s.to_bits()
        );
        prop_assert_eq!(observed.duration, plain.duration);
        prop_assert_eq!(observed.counters, plain.counters);
        prop_assert_eq!(observed.pages.len(), plain.pages.len());
        for (a, b) in observed.pages.iter().zip(&plain.pages) {
            prop_assert_eq!(&a.url, &b.url);
            prop_assert_eq!(a.opened, b.opened);
            prop_assert_eq!(a.released_at, b.released_at);
            prop_assert_eq!(a.load_joules.to_bits(), b.load_joules.to_bits());
            prop_assert_eq!(a.reading_joules.to_bits(), b.reading_joules.to_bits());
            prop_assert_eq!(a.bytes, b.bytes);
            prop_assert_eq!(a.failed_objects, b.failed_objects);
        }
    }
}
