//! Property-based tests for the 3G fetcher and the energy replay.

use ewb_browser::fetch::ResourceFetcher;
use ewb_net::replay::{events_of_load_parallel, replay};
use ewb_net::{FaultConfig, NetConfig, RetryPolicy, ThreeGFetcher};
use ewb_obs::Recorder;
use ewb_rrc::{RrcConfig, RrcMachine};
use ewb_simcore::{SimDuration, SimTime};
use ewb_webpage::{OriginServer, Page, PageSpec, PageVersion};
use proptest::prelude::*;

/// A small fixed corpus page whose URLs the tests request in arbitrary
/// patterns.
fn fixture() -> (OriginServer, Vec<String>) {
    let page = Page::generate(&PageSpec {
        site: "net".into(),
        version: PageVersion::Mobile,
        html_kb: 2.0,
        n_css: 1,
        css_kb: 1.0,
        n_scripts: 1,
        js_kb: 1.0,
        js_fetches: 0,
        js_work: 10,
        n_images: 3,
        image_kb: 4.0,
        css_image_refs: 0,
        n_links: 0,
        text_paragraphs: 2,
        seed: 1,
    });
    let mut server = OriginServer::new();
    server.add_page(&page);
    let urls = page.objects().map(|o| o.url.clone()).collect();
    (server, urls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Completions are monotone in time and 1:1 with requests, for any
    /// request timing pattern (including bursts and long silences).
    #[test]
    fn completions_monotone_and_total(
        gaps in proptest::collection::vec(0u64..5_000_000, 1..30),
    ) {
        let (server, urls) = fixture();
        let mut fetcher =
            ThreeGFetcher::new(NetConfig::paper(), RrcConfig::paper(), &server, SimTime::ZERO);
        let mut t = SimTime::ZERO;
        let mut drained = 0usize;
        for (i, gap) in gaps.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            fetcher.request(&urls[i % urls.len()], t);
            // Interleave: drain one completion every other request, the
            // way the connection-limited pipeline does.
            if i % 2 == 1 {
                let c = fetcher.next_completion().expect("owed a completion");
                t = t.max(c.at);
                drained += 1;
            }
        }
        let mut last = SimTime::ZERO;
        let mut completions = drained;
        while let Some(c) = fetcher.next_completion() {
            prop_assert!(c.at >= last, "completion went backwards");
            last = c.at;
            completions += 1;
        }
        prop_assert_eq!(completions, gaps.len());
        prop_assert_eq!(fetcher.transfers().len(), gaps.len());
    }

    /// Transfer records are internally consistent for any pattern.
    #[test]
    fn records_are_well_formed(
        gaps in proptest::collection::vec(0u64..30_000_000, 1..20),
    ) {
        let (server, urls) = fixture();
        let mut fetcher =
            ThreeGFetcher::new(NetConfig::paper(), RrcConfig::paper(), &server, SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for (i, gap) in gaps.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            fetcher.request(&urls[i % urls.len()], t);
            let c = fetcher.next_completion().expect("owed");
            t = t.max(c.at);
        }
        for r in fetcher.transfers() {
            prop_assert!(r.requested_at <= r.data_start);
            prop_assert!(r.data_start <= r.end);
            prop_assert!(r.bytes > 0, "all fixture URLs exist");
        }
    }

    /// Replay invariance: replaying the recorded transfers yields the
    /// exact same radio energy, residency, and promotion counts.
    #[test]
    fn replay_is_exact(
        gaps in proptest::collection::vec(0u64..20_000_000, 1..15),
    ) {
        let (server, urls) = fixture();
        let mut fetcher =
            ThreeGFetcher::new(NetConfig::paper(), RrcConfig::paper(), &server, SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for (i, gap) in gaps.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            fetcher.request(&urls[i % urls.len()], t);
            let c = fetcher.next_completion().expect("owed");
            t = t.max(c.at);
        }
        let transfers = fetcher.transfers().to_vec();
        let machine = fetcher.into_machine();
        let replayed = replay::<RrcMachine>(RrcConfig::paper(), SimTime::ZERO, events_of_load_parallel(&transfers, &[], &[]), machine.now(), Recorder::disabled());
        prop_assert!((replayed.energy_j() - machine.energy_j()).abs() < 1e-6);
        prop_assert_eq!(replayed.residency(), machine.residency());
        prop_assert_eq!(
            replayed.counters().idle_to_dch,
            machine.counters().idle_to_dch
        );
        prop_assert_eq!(
            replayed.counters().fach_to_dch,
            machine.counters().fach_to_dch
        );
    }
}

/// One of the three named fault profiles at a sampled loss rate.
fn profile(kind: u8, loss: f64) -> FaultConfig {
    match kind % 3 {
        0 => FaultConfig::lossy(loss),
        1 => FaultConfig::jittery(loss),
        _ => FaultConfig::fading(loss),
    }
}

/// Drives a faulted fetcher over the fixture with the given request
/// gaps, draining after every request, and returns the serialized
/// transfer records plus the exact radio energy bits.
fn run_faulted(cfg: FaultConfig, seed: u64, gaps: &[u64]) -> (String, u64) {
    let (server, urls) = fixture();
    let mut fetcher = ThreeGFetcher::new(
        NetConfig::paper(),
        RrcConfig::paper(),
        &server,
        SimTime::ZERO,
    )
    .try_with_faults(cfg, seed, RetryPolicy::standard())
    .expect("valid fault setup");
    let mut t = SimTime::ZERO;
    for (i, gap) in gaps.iter().enumerate() {
        t += SimDuration::from_micros(*gap);
        fetcher.request(&urls[i % urls.len()], t);
        let c = fetcher.next_completion().expect("owed a completion");
        t = t.max(c.at);
    }
    let json = serde_json::to_string(&fetcher.transfers().to_vec()).expect("serializable");
    (json, fetcher.machine().energy_j().to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault-injection determinism: the same (seed, config, request
    /// pattern) produces byte-identical transfer records and the exact
    /// same energy, every time.
    #[test]
    fn faulted_runs_replay_byte_identically(
        seed in any::<u64>(),
        kind in 0u8..3,
        loss in 0.0f64..0.5,
        gaps in proptest::collection::vec(0u64..10_000_000, 1..12),
    ) {
        let cfg = profile(kind, loss);
        let (json_a, energy_a) = run_faulted(cfg, seed, &gaps);
        let (json_b, energy_b) = run_faulted(cfg, seed, &gaps);
        prop_assert_eq!(json_a, json_b, "transfer records diverged");
        prop_assert_eq!(energy_a, energy_b, "energy bits diverged");
    }

    /// A zero-probability fault stream is byte-identical to no fault
    /// layer at all, for any request pattern.
    #[test]
    fn zero_faults_match_the_plain_fetcher(
        seed in any::<u64>(),
        gaps in proptest::collection::vec(0u64..10_000_000, 1..12),
    ) {
        let (server, urls) = fixture();
        let mut plain =
            ThreeGFetcher::new(NetConfig::paper(), RrcConfig::paper(), &server, SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for (i, gap) in gaps.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            plain.request(&urls[i % urls.len()], t);
            let c = plain.next_completion().expect("owed");
            t = t.max(c.at);
        }
        let plain_json = serde_json::to_string(&plain.transfers().to_vec()).unwrap();
        let (faulted_json, faulted_energy) = run_faulted(FaultConfig::none(), seed, &gaps);
        prop_assert_eq!(plain_json, faulted_json);
        prop_assert_eq!(plain.machine().energy_j().to_bits(), faulted_energy);
    }

    /// Refcount honesty under faults: every attempt's begin is matched by
    /// an end, the radio always drains, and failed attempts carry no
    /// payload bytes.
    #[test]
    fn faulted_refcounts_always_drain(
        seed in any::<u64>(),
        kind in 0u8..3,
        loss in 0.0f64..0.9,
        gaps in proptest::collection::vec(0u64..10_000_000, 1..12),
    ) {
        let (server, urls) = fixture();
        let cfg = profile(kind, loss);
        let mut fetcher =
            ThreeGFetcher::new(NetConfig::paper(), RrcConfig::paper(), &server, SimTime::ZERO)
                .try_with_faults(cfg, seed, RetryPolicy::standard())
                .expect("valid fault setup");
        let mut t = SimTime::ZERO;
        for (i, gap) in gaps.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            fetcher.request(&urls[i % urls.len()], t);
        }
        while fetcher.next_completion().is_some() {}
        prop_assert!(!fetcher.machine().is_transferring(), "refcount leaked");
        prop_assert_eq!(
            fetcher.machine().counters().transfers,
            fetcher.transfers().len() as u64,
            "every attempt must begin and end exactly once"
        );
        for r in fetcher.transfers() {
            prop_assert!(r.requested_at <= r.data_start);
            prop_assert!(r.data_start <= r.end);
            if !r.completed {
                prop_assert!(r.bytes == 0 || r.end > r.data_start, "failed attempts spend time");
            }
        }
        // Replay fidelity holds under faults too.
        let transfers = fetcher.transfers().to_vec();
        let machine = fetcher.into_machine();
        let replayed = replay::<RrcMachine>(RrcConfig::paper(), SimTime::ZERO, events_of_load_parallel(&transfers, &[], &[]), machine.now(), Recorder::disabled());
        prop_assert!((replayed.energy_j() - machine.energy_j()).abs() < 1e-6);
        prop_assert_eq!(replayed.residency(), machine.residency());
    }
}
