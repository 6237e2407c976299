//! Cross-crate integration: the fetcher contract between the browser and
//! the 3G network, and the energy-replay equivalence.

use ewb_core::browser::fetch::ResourceFetcher;
use ewb_core::browser::pipeline::{load_page, PipelineConfig, PipelineMode};
use ewb_core::net::replay::{events_of_load_parallel, replay};
use ewb_core::net::ThreeGFetcher;
use ewb_core::obs::Recorder;
use ewb_core::rrc::{RrcMachine, RrcState};
use ewb_core::simcore::SimTime;
use ewb_core::webpage::{benchmark_corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

#[test]
fn completions_are_monotone_under_pipeline_driving() {
    let corpus = benchmark_corpus(31);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let page = corpus.page("myspace", PageVersion::Full).unwrap();
    let mut fetcher = ThreeGFetcher::new(cfg.net, cfg.rrc, &server, SimTime::ZERO);
    let _ = load_page(
        &mut fetcher,
        page.root_url(),
        SimTime::ZERO,
        &PipelineConfig::new(PipelineMode::Original),
        &cfg.cost,
    );
    let transfers = fetcher.transfers();
    assert_eq!(transfers.len(), page.object_count());
    for w in transfers.windows(2) {
        assert!(w[0].end <= w[1].end, "completion order violated");
    }
    for t in transfers {
        assert!(t.requested_at <= t.data_start && t.data_start < t.end);
    }
}

#[test]
fn replayed_energy_equals_live_radio_energy_without_cpu() {
    let corpus = benchmark_corpus(31);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let page = corpus.page("amazon", PageVersion::Full).unwrap();
    let mut fetcher = ThreeGFetcher::new(cfg.net, cfg.rrc, &server, SimTime::ZERO);
    let metrics = load_page(
        &mut fetcher,
        page.root_url(),
        SimTime::ZERO,
        &PipelineConfig::new(PipelineMode::EnergyAware),
        &cfg.cost,
    );
    let transfers = fetcher.transfers().to_vec();
    let machine = fetcher.into_machine();
    let replayed = replay::<RrcMachine>(
        cfg.rrc,
        SimTime::ZERO,
        events_of_load_parallel(&transfers, &[], &[]),
        machine.now(),
        Recorder::disabled(),
    );
    assert!(
        (replayed.energy_j() - machine.energy_j()).abs() < 1e-6,
        "replay {} vs live {}",
        replayed.energy_j(),
        machine.energy_j()
    );
    assert_eq!(replayed.residency(), machine.residency());
    let _ = metrics;
}

#[test]
fn cpu_replay_adds_exactly_the_browser_compute_energy() {
    let corpus = benchmark_corpus(31);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let page = corpus.page("msn", PageVersion::Mobile).unwrap();
    let mut fetcher = ThreeGFetcher::new(cfg.net, cfg.rrc, &server, SimTime::ZERO);
    let metrics = load_page(
        &mut fetcher,
        page.root_url(),
        SimTime::ZERO,
        &PipelineConfig::new(PipelineMode::Original),
        &cfg.cost,
    );
    let transfers = fetcher.transfers().to_vec();
    let end = metrics.final_display_at;
    let without = replay::<RrcMachine>(
        cfg.rrc,
        SimTime::ZERO,
        events_of_load_parallel(&transfers, &[], &[]),
        end,
        Recorder::disabled(),
    );
    let with = replay::<RrcMachine>(
        cfg.rrc,
        SimTime::ZERO,
        events_of_load_parallel(&transfers, &metrics.cpu_busy, &[]),
        end,
        Recorder::disabled(),
    );
    let cpu_secs = metrics.work.total().as_secs_f64();
    let delta = with.energy_j() - without.energy_j();
    assert!(
        (delta - cpu_secs * 0.45).abs() < 1e-6,
        "CPU energy delta {delta} vs {cpu_secs} s x 0.45 W"
    );
}

#[test]
fn small_objects_can_ride_fach() {
    // A 404 exchange is tiny: from FACH it must not force a DCH promotion.
    let corpus = benchmark_corpus(31);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let mut fetcher = ThreeGFetcher::new(cfg.net, cfg.rrc, &server, SimTime::ZERO);
    fetcher.request("http://nowhere/a", SimTime::ZERO);
    let c = fetcher.next_completion().unwrap();
    assert!(c.object.is_none());
    assert_eq!(fetcher.machine().state(), RrcState::Fach);
    assert_eq!(fetcher.machine().counters().idle_to_fach, 1);
    assert_eq!(fetcher.machine().counters().idle_to_dch, 0);
}
