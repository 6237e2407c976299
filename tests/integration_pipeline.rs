//! Cross-crate integration: browser pipelines driving the 3G network
//! against the synthetic corpus.

use ewb_core::browser::pipeline::{load_page, PipelineConfig, PipelineMode};
use ewb_core::net::ThreeGFetcher;
use ewb_core::rrc::RrcState;
use ewb_core::simcore::SimTime;
use ewb_core::webpage::{benchmark_corpus, ObjectKind, OriginServer, PageVersion};
use ewb_core::CoreConfig;

fn run(
    mode: PipelineMode,
    key: &str,
    version: PageVersion,
) -> (
    ewb_core::browser::pipeline::LoadMetrics,
    ewb_core::rrc::RrcMachine,
) {
    let corpus = benchmark_corpus(99);
    let server = OriginServer::from_corpus(&corpus);
    let page = corpus.page(key, version).unwrap();
    let cfg = CoreConfig::paper();
    let mut fetcher = ThreeGFetcher::new(cfg.net, cfg.rrc, &server, SimTime::ZERO);
    let metrics = load_page(
        &mut fetcher,
        page.root_url(),
        SimTime::ZERO,
        &PipelineConfig::new(mode),
        &cfg.cost,
    );
    (metrics, fetcher.into_machine())
}

#[test]
fn both_pipelines_fetch_the_complete_page_over_3g() {
    let corpus = benchmark_corpus(99);
    let espn = corpus.page("espn", PageVersion::Full).unwrap();
    for mode in [PipelineMode::Original, PipelineMode::EnergyAware] {
        let (metrics, machine) = run(mode, "espn", PageVersion::Full);
        assert_eq!(metrics.objects_fetched, espn.object_count(), "{mode:?}");
        assert_eq!(metrics.bytes_fetched, espn.total_bytes(), "{mode:?}");
        assert_eq!(metrics.fetch_failures, 0);
        // The radio promoted exactly once (cold start) and is connected.
        assert_eq!(machine.counters().idle_to_dch, 1);
        assert_ne!(machine.state(), RrcState::Idle);
    }
}

#[test]
fn energy_aware_phases_are_ordered_and_radio_idle_capable() {
    let (metrics, machine) = run(PipelineMode::EnergyAware, "ebay", PageVersion::Full);
    // Transmission phase strictly precedes the layout phase.
    assert!(metrics.data_transmission_end < metrics.final_display_at);
    // No transfer is still running at the end of the transmission phase:
    // the radio *could* be released right there (the paper's §4.1 claim).
    assert!(!machine.is_transferring());
    assert!(machine.now() <= metrics.data_transmission_end);
}

#[test]
fn js_and_css_discovered_resources_flow_through_the_network() {
    let corpus = benchmark_corpus(99);
    let espn = corpus.page("espn", PageVersion::Full).unwrap();
    let spec = espn.spec();
    assert!(spec.js_fetches > 0 && spec.css_image_refs > 0);
    let (metrics, _) = run(PipelineMode::EnergyAware, "espn", PageVersion::Full);
    // All objects fetched implies the JS-computed and CSS-scanned URLs
    // were found — they only exist behind execution/scanning.
    assert_eq!(metrics.objects_fetched, espn.object_count());
    let images = espn.count_kind(ObjectKind::Image);
    assert_eq!(metrics.image_objects, images);
}

#[test]
fn loads_are_deterministic() {
    let (a, ma) = run(PipelineMode::Original, "cnn", PageVersion::Mobile);
    let (b, mb) = run(PipelineMode::Original, "cnn", PageVersion::Mobile);
    assert_eq!(a.final_display_at, b.final_display_at);
    assert_eq!(a.bytes_fetched, b.bytes_fetched);
    assert_eq!(ma.energy_j(), mb.energy_j());
}

#[test]
fn radio_settles_to_idle_after_the_load() {
    let (metrics, mut machine) = run(PipelineMode::Original, "bbc", PageVersion::Mobile);
    machine.advance_to(metrics.final_display_at + ewb_core::simcore::SimDuration::from_secs(30));
    assert_eq!(machine.state(), RrcState::Idle);
    assert_eq!(machine.counters().t1_expirations, 1);
    assert_eq!(machine.counters().t2_expirations, 1);
}

#[test]
fn mobile_loads_are_much_faster_than_full_loads() {
    let (mobile, _) = run(PipelineMode::Original, "espn", PageVersion::Mobile);
    let (full, _) = run(PipelineMode::Original, "espn", PageVersion::Full);
    assert!(
        full.load_time().as_secs_f64() > 2.5 * mobile.load_time().as_secs_f64(),
        "full {} vs mobile {}",
        full.load_time(),
        mobile.load_time()
    );
}
