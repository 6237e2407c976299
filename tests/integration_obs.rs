//! Cross-layer invariants of the observability substrate: the energy
//! ledger reconciles with the session's reported energy bit for bit, the
//! event stream respects the radio physics (no data outside FACH/DCH,
//! timers fire in the state that armed them), the recorder never
//! perturbs what it observes, and a live faulted fetcher agrees with its
//! energy replay event by event.

use ewb_core::cases::Case;
use ewb_core::net::replay::{events_of_load_parallel, replay};
use ewb_core::net::{FaultConfig, NetConfig, RetryPolicy, ThreeGFetcher};
use ewb_core::obs::{ledger, timeline, Event, RadioState, Recorder, Timer};
use ewb_core::rrc::{RrcConfig, RrcMachine};
use ewb_core::session::{simulate_session, SessionFaults, SessionOpts, SessionOutcome, Visit};
use ewb_core::simcore::SimTime;
use ewb_core::webpage::{benchmark_corpus, Corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

fn setup() -> (Corpus, OriginServer, CoreConfig) {
    let corpus = benchmark_corpus(2013);
    let server = OriginServer::from_corpus(&corpus);
    (corpus, server, CoreConfig::paper())
}

fn visits<'a>(corpus: &'a Corpus) -> Vec<Visit<'a>> {
    [("msn", 12.0), ("bbc", 30.0), ("aol", 4.0)]
        .into_iter()
        .map(|(key, reading_s)| Visit {
            page: corpus.page(key, PageVersion::Mobile).unwrap(),
            reading_s,
            features: None,
        })
        .collect()
}

/// Every scenario the suite sweeps: both pipelines, clean and faulted.
fn scenarios() -> Vec<(Case, Option<SessionFaults>)> {
    vec![
        (Case::Original, None),
        (Case::Accurate9, None),
        (
            Case::Original,
            Some(SessionFaults::new(FaultConfig::lossy(0.10), 99)),
        ),
        (
            Case::Accurate9,
            Some(SessionFaults::new(FaultConfig::jittery(0.10), 99)),
        ),
    ]
}

fn run_recorded(
    case: Case,
    faults: Option<&SessionFaults>,
    recorder: &Recorder,
) -> (SessionOutcome, Vec<Event>) {
    let (corpus, server, cfg) = setup();
    let visits = visits(&corpus);
    let out = simulate_session(
        &server,
        &visits,
        case,
        &cfg,
        SessionOpts {
            faults,
            recorder: recorder.clone(),
            ..SessionOpts::three_g(&cfg)
        },
    );
    (out, recorder.events())
}

/// The energy ledger carried by the event stream is well-formed and
/// folds — in emission order — to the session's reported `total_joules`
/// with f64 bit identity, in every scenario.
#[test]
fn ledger_folds_to_reported_energy_bit_for_bit() {
    for (case, faults) in scenarios() {
        let recorder = Recorder::memory();
        let (out, events) = run_recorded(case, faults.as_ref(), &recorder);
        let entries = ledger::entries(&events);
        assert!(!entries.is_empty(), "{case}: session emitted no ledger");
        let audit = ledger::audit(&entries);
        assert!(
            audit.is_empty(),
            "{case} (faults: {}): ledger audit failed: {audit:?}",
            faults.is_some()
        );
        assert_eq!(
            ledger::total(&entries).to_bits(),
            out.total_joules.to_bits(),
            "{case} (faults: {}): ledger fold {} != reported {}",
            faults.is_some(),
            ledger::total(&entries),
            out.total_joules
        );
    }
}

/// No data transfer ever rides the radio outside FACH or DCH: every
/// ledger segment inside a transfer's data window `[data_start, end]`
/// is at FACH or DCH power, never IDLE or promotion signaling.
#[test]
fn transfers_only_ride_fach_or_dch() {
    for (case, faults) in scenarios() {
        let recorder = Recorder::memory();
        let (_, events) = run_recorded(case, faults.as_ref(), &recorder);
        // Pair each transfer id's data window.
        let mut windows: Vec<(u64, SimTime, Option<SimTime>)> = Vec::new();
        for e in &events {
            match e {
                Event::TransferBegin { id, data_start, .. } => {
                    windows.push((*id, *data_start, None));
                }
                Event::TransferEnd { id, at, .. } => {
                    let w = windows
                        .iter_mut()
                        .rev()
                        .find(|(wid, _, end)| wid == id && end.is_none())
                        .unwrap_or_else(|| panic!("{case}: TransferEnd {id} without begin"));
                    w.2 = Some(*at);
                }
                _ => {}
            }
        }
        assert!(!windows.is_empty(), "{case}: no transfers recorded");
        let entries = ledger::entries(&events);
        let mut covered = 0usize;
        for (id, data_start, end) in windows {
            let end = end.unwrap_or_else(|| panic!("{case}: transfer {id} never ended"));
            for seg in entries
                .iter()
                .filter(|s| s.start >= data_start && s.end <= end && s.end > s.start)
            {
                assert!(
                    matches!(seg.state, RadioState::Fach | RadioState::Dch),
                    "{case}: transfer {id} data rode {:?} during [{}, {}]",
                    seg.state,
                    seg.start,
                    seg.end
                );
                covered += 1;
            }
        }
        assert!(covered > 0, "{case}: no ledger segment inside any transfer");
    }
}

/// Inactivity timers fire in the state that armed them and drive the
/// paper's demotion chain: T1 only in DCH (dropping to FACH), T2 only in
/// FACH (dropping to IDLE) — so on the DCH tail, T1 always precedes T2.
#[test]
fn timers_fire_in_the_state_that_armed_them() {
    for (case, faults) in scenarios() {
        let recorder = Recorder::memory();
        let (_, events) = run_recorded(case, faults.as_ref(), &recorder);
        let ordered = timeline::sorted(&events);
        let mut state = RadioState::Idle;
        let mut saw_t2 = false;
        for e in &ordered {
            match e {
                Event::TimerExpired { at, timer } => match timer {
                    Timer::T1 => assert_eq!(
                        state,
                        RadioState::Dch,
                        "{case}: T1 fired at {at} outside DCH"
                    ),
                    Timer::T2 => {
                        saw_t2 = true;
                        assert_eq!(
                            state,
                            RadioState::Fach,
                            "{case}: T2 fired at {at} outside FACH"
                        );
                    }
                    Timer::Dwell => {
                        panic!("{case}: ladder Dwell timer fired at {at} on a 3G session")
                    }
                },
                Event::StateTransition { to, .. } => state = *to,
                _ => {}
            }
        }
        // Original never releases, and the 30 s read is long enough to
        // walk the full T1 → T2 demotion chain. (Accurate-9 releases on
        // the long reads instead, so its chain legitimately may not run.)
        if case == Case::Original {
            assert!(saw_t2, "{case}: no T2 expiry — schedule never went idle");
        }
    }
}

/// The recorder only observes: a session run with a memory recorder is
/// bit-identical — energies, timings, counters, per-page records — to
/// the same session run with the recorder disabled.
#[test]
fn recorder_has_zero_observer_effect() {
    for (case, faults) in scenarios() {
        let recorded = Recorder::memory();
        let (with_rec, _) = run_recorded(case, faults.as_ref(), &recorded);
        let (without, _) = run_recorded(case, faults.as_ref(), &Recorder::disabled());
        assert_eq!(
            with_rec.total_joules.to_bits(),
            without.total_joules.to_bits()
        );
        assert_eq!(
            with_rec.total_load_time_s.to_bits(),
            without.total_load_time_s.to_bits()
        );
        assert_eq!(with_rec.duration, without.duration);
        assert_eq!(with_rec.counters, without.counters);
        assert_eq!(with_rec.pages.len(), without.pages.len());
        for (a, b) in with_rec.pages.iter().zip(&without.pages) {
            assert_eq!(a.url, b.url);
            assert_eq!(a.opened, b.opened);
            assert_eq!(a.tx_end, b.tx_end);
            assert_eq!(a.released_at, b.released_at);
            assert_eq!(a.load_joules.to_bits(), b.load_joules.to_bits());
            assert_eq!(a.reading_joules.to_bits(), b.reading_joules.to_bits());
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.failed_objects, b.failed_objects);
            assert_eq!(a.degraded, b.degraded);
        }
    }
}

/// Differential: a live faulted fetcher with an instrumented machine and
/// the energy replay of its transfer records emit the *same* RRC event
/// stream — transitions, promotions, timers, and every ledger segment —
/// event by event, and agree on each transfer's energy bit for bit.
#[test]
fn live_and_replayed_faulted_runs_agree_event_by_event() {
    let (corpus, server, _) = setup();
    let page = corpus.page("espn", PageVersion::Full).unwrap();
    let mut fc = FaultConfig::jittery(0.3);
    fc.promotion_failure_prob = 0.5;

    let live_rec = Recorder::memory();
    let live_machine =
        RrcMachine::with_recorder(RrcConfig::paper(), SimTime::ZERO, live_rec.clone());
    let mut fetcher = ThreeGFetcher::with_machine(NetConfig::paper(), live_machine, &server)
        .try_with_faults(fc, 99, RetryPolicy::standard())
        .unwrap();
    for o in page.objects() {
        use ewb_core::browser::fetch::ResourceFetcher;
        fetcher.request(&o.url, SimTime::ZERO);
    }
    while {
        use ewb_core::browser::fetch::ResourceFetcher;
        fetcher.next_completion().is_some()
    } {}
    assert!(
        fetcher
            .transfers()
            .iter()
            .any(|t| !t.completed || t.promotion_retries > 0),
        "seed 99 should exercise at least one fault"
    );
    let end = fetcher.machine().now();

    let replay_rec = Recorder::memory();
    let replayed = replay::<RrcMachine>(
        RrcConfig::paper(),
        SimTime::ZERO,
        events_of_load_parallel(fetcher.transfers(), &[], &[]),
        end,
        replay_rec.clone(),
    );

    // The RRC layers of both streams are identical, event by event.
    let rrc_only = |events: Vec<Event>| -> Vec<Event> {
        events
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::StateTransition { .. }
                        | Event::PromotionStart { .. }
                        | Event::TimerExpired { .. }
                        | Event::FastDormancy { .. }
                        | Event::EnergySegment { .. }
                )
            })
            .collect()
    };
    let live = rrc_only(live_rec.events());
    let replay = rrc_only(replay_rec.events());
    assert_eq!(live.len(), replay.len(), "event streams differ in length");
    for (i, (a, b)) in live.iter().zip(&replay).enumerate() {
        assert_eq!(a, b, "live and replayed streams diverge at event {i}");
    }

    // And per-transfer energy reconciles bit for bit between the two.
    let live_entries = ledger::entries(&live);
    let replay_entries = ledger::entries(&replay);
    for t in fetcher.transfers() {
        let live_j = ledger::joules_between(&live_entries, t.data_start, t.end);
        let replay_j = ledger::joules_between(&replay_entries, t.data_start, t.end);
        assert_eq!(
            live_j.to_bits(),
            replay_j.to_bits(),
            "transfer [{}, {}]: live {live_j} vs replayed {replay_j}",
            t.data_start,
            t.end
        );
    }
    assert_eq!(
        ledger::total(&live_entries).to_bits(),
        replayed.energy_j().to_bits()
    );
}
