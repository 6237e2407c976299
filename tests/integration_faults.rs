//! Cross-crate integration of the fault-injection substrate: the
//! zero-fault bit-identity guarantee, and graceful degradation of both
//! browser pipelines on a lossy radio.

use ewb_core::browser::pipeline::{load_page, PipelineConfig, PipelineMode};
use ewb_core::cases::Case;
use ewb_core::net::{FaultConfig, RetryPolicy, ThreeGFetcher};
use ewb_core::session::{simulate_session, SessionFaults, SessionOpts, Visit};
use ewb_core::simcore::SimTime;
use ewb_core::webpage::{benchmark_corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

/// Under a zero-probability fault stream, a full pipeline-driven page
/// load is bit-identical to one through the plain fetcher: same transfer
/// records, same metrics, same radio energy bits.
#[test]
fn zero_fault_page_load_is_bit_identical() {
    let corpus = benchmark_corpus(31);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    for (site, version) in [
        ("espn", PageVersion::Full),
        ("cnn", PageVersion::Mobile),
        ("amazon", PageVersion::Full),
    ] {
        let page = corpus.page(site, version).unwrap();
        for mode in [PipelineMode::Original, PipelineMode::EnergyAware] {
            let pipe = PipelineConfig::new(mode);
            let mut plain = ThreeGFetcher::new(cfg.net, cfg.rrc, &server, SimTime::ZERO);
            let m_plain = load_page(&mut plain, page.root_url(), SimTime::ZERO, &pipe, &cfg.cost);
            let mut faulted = ThreeGFetcher::new(cfg.net, cfg.rrc, &server, SimTime::ZERO)
                .try_with_faults(FaultConfig::none(), 0xBAD_CE11, RetryPolicy::standard())
                .unwrap();
            let m_faulted = load_page(
                &mut faulted,
                page.root_url(),
                SimTime::ZERO,
                &pipe,
                &cfg.cost,
            );
            assert_eq!(plain.transfers(), faulted.transfers(), "{site} {mode:?}");
            assert_eq!(
                plain.machine().energy_j().to_bits(),
                faulted.machine().energy_j().to_bits(),
                "{site} {mode:?}: radio energy must match to the last bit"
            );
            assert_eq!(m_plain.final_display_at, m_faulted.final_display_at);
            assert_eq!(m_plain.bytes_fetched, m_faulted.bytes_fetched);
            assert_eq!(m_faulted.failed_objects, 0);
            assert!(!m_faulted.degraded);
        }
    }
}

/// At a fixed seed and 5 % loss, both pipeline modes complete every
/// benchmark page — no panics, no wedged loads — and report their
/// degraded-load counts and the energy delta against the clean link.
#[test]
fn five_percent_loss_degrades_gracefully_in_both_modes() {
    let corpus = benchmark_corpus(31);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let sf = SessionFaults::new(FaultConfig::lossy(0.05), 2013);
    for case in [Case::Original, Case::Accurate9] {
        let mut clean_total = 0.0;
        let mut faulty_total = 0.0;
        let mut degraded = 0usize;
        let mut failed_objects = 0usize;
        for site in corpus.sites() {
            let visits = [Visit {
                page: &site.mobile,
                reading_s: 20.0,
                features: None,
            }];
            let clean = simulate_session(&server, &visits, case, &cfg, SessionOpts::three_g(&cfg));
            let faulty = simulate_session(
                &server,
                &visits,
                case,
                &cfg,
                SessionOpts {
                    faults: Some(&sf),
                    ..SessionOpts::three_g(&cfg)
                },
            );
            assert_eq!(faulty.pages.len(), 1, "{}: load completed", site.key);
            assert!(faulty.total_joules.is_finite() && faulty.total_joules > 0.0);
            clean_total += clean.total_joules;
            faulty_total += faulty.total_joules;
            degraded += faulty.degraded_pages();
            failed_objects += faulty.failed_objects();
        }
        // The benchmark has hundreds of objects: at 5 % per-attempt loss
        // with 4 attempts, the vast majority of loads recover fully, but
        // retries still cost energy.
        assert!(
            faulty_total >= clean_total,
            "case {case}: lossy link cannot be cheaper ({faulty_total} vs {clean_total})"
        );
        // Graceful degradation is *reported*, never a wedge: every
        // errored object is accounted, and degraded pages carry them.
        assert!(
            degraded <= corpus.sites().len(),
            "case {case}: degraded count bounded by page count"
        );
        if failed_objects == 0 {
            assert_eq!(degraded, 0, "case {case}: no failures ⇒ no degradation");
        }
    }
}

/// Certain loss on every attempt still terminates: the page degrades to
/// whatever the root exchange could learn and the session completes with
/// every object accounted as failed.
#[test]
fn total_loss_never_wedges_a_load() {
    let corpus = benchmark_corpus(31);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let mut fc = FaultConfig::lossy(1.0);
    fc.truncation_prob = 0.0;
    let sf = SessionFaults::new(fc, 5);
    let site = &corpus.sites()[0];
    for case in [Case::Original, Case::Accurate9] {
        let visits = [Visit {
            page: &site.mobile,
            reading_s: 10.0,
            features: None,
        }];
        let out = simulate_session(
            &server,
            &visits,
            case,
            &cfg,
            SessionOpts {
                faults: Some(&sf),
                ..SessionOpts::three_g(&cfg)
            },
        );
        assert_eq!(out.pages.len(), 1);
        assert!(out.pages[0].degraded, "nothing arrived: page is degraded");
        assert!(out.pages[0].failed_objects >= 1, "root must be accounted");
        assert!(out.total_joules > 0.0, "the stalled radio burned energy");
    }
}
