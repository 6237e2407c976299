//! Property-based tests for the session simulator: energy conservation
//! and policy dominance over arbitrary visit schedules.

use ewb_core::cases::Case;
use ewb_core::session::{simulate_session, PageRecord, SessionOpts, Visit};
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
    proptest::collection::vec((0usize..10, any::<bool>(), 0.0f64..90.0), 1..5)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-page energy always partitions the session total, and timing
    /// fields are ordered, for any schedule and policy.
    #[test]
    fn energy_partition_and_ordering(plan in visit_plan(), case_idx in 0usize..7) {
        let (_, server) = corpus();
        let cfg = CoreConfig::paper();
        let case = std::iter::once(Case::Original)
            .chain(Case::TABLE6)
            .nth(case_idx)
            .expect("7 cases");
        if case.needs_predictor() {
            // Predictor-backed cases are covered by integration tests;
            // skip here to keep the property run cheap.
            return Ok(());
        }
        let visits = build_visits(&plan);
        let out = simulate_session(server, &visits, case, &cfg, SessionOpts::three_g(&cfg));
        let sum: f64 = out.pages.iter().map(PageRecord::total_joules).sum();
        prop_assert!((sum - out.total_joules).abs() < 1e-6);
        let mut prev_end = ewb_core::simcore::SimTime::ZERO;
        for p in &out.pages {
            prop_assert!(p.start >= prev_end);
            prop_assert!(p.start < p.tx_end);
            prop_assert!(p.tx_end <= p.opened);
            prev_end = p.opened;
        }
        prop_assert!(out.total_joules > 0.0);
    }

    /// The oracle-released case never costs more energy than Original
    /// when every read is long (above the Fig. 3 break-even).
    #[test]
    fn oracle_dominates_on_long_reads(
        plan in proptest::collection::vec((0usize..10, any::<bool>(), 25.0f64..90.0), 1..4)
    ) {
        let (_, server) = corpus();
        let cfg = CoreConfig::paper();
        let visits = build_visits(&plan);
        let base = simulate_session(server, &visits, Case::Original, &cfg, SessionOpts::three_g(&cfg));
        let ours = simulate_session(server, &visits, Case::Accurate20, &cfg, SessionOpts::three_g(&cfg));
        prop_assert!(
            ours.total_joules < base.total_joules,
            "oracle {} vs original {}",
            ours.total_joules,
            base.total_joules
        );
        // And it never slows the session down on long reads (the radio is
        // IDLE anyway when the next click comes).
        prop_assert!(ours.total_load_time_s <= base.total_load_time_s + 1e-9);
    }

    /// Sessions are deterministic.
    #[test]
    fn sessions_are_deterministic(plan in visit_plan()) {
        let (_, server) = corpus();
        let cfg = CoreConfig::paper();
        let visits = build_visits(&plan);
        let a = simulate_session(server, &visits, Case::EnergyAwareAlwaysOff, &cfg, SessionOpts::three_g(&cfg));
        let b = simulate_session(server, &visits, Case::EnergyAwareAlwaysOff, &cfg, SessionOpts::three_g(&cfg));
        prop_assert_eq!(a.total_joules, b.total_joules);
        prop_assert_eq!(a.total_load_time_s, b.total_load_time_s);
    }
}
