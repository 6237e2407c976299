//! Energy replay: radio events + CPU-busy intervals → exact handset energy.
//!
//! The [`ThreeGFetcher`](crate::ThreeGFetcher) computes transfer timing on
//! a radio whose CPU load is zero (the browser engine is network-agnostic
//! and doesn't know about the radio). To get the *handset* energy — radio
//! plus CPU plus display, as the paper's Agilent rig measures it — the
//! session's events are replayed chronologically onto a fresh machine with
//! the CPU intervals interleaved.

use crate::fetcher::TransferRecord;
use ewb_obs::Recorder;
use ewb_rrc::RadioModel;
use ewb_simcore::{SimDuration, SimTime};

/// One radio-relevant event of a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RadioEvent {
    /// A transfer begins (request issued).
    BeginTransfer {
        /// Request time.
        at: SimTime,
        /// Whether dedicated channels are needed.
        needs_dch: bool,
        /// Failed promotion attempts charged to this transfer's promotion
        /// (fault injection); 0 on a clean link.
        promotion_retries: u32,
    },
    /// A transfer ends (last byte).
    EndTransfer {
        /// Completion time.
        at: SimTime,
    },
    /// Application-initiated fast-dormancy release (Algorithm 2's "switch
    /// to IDLE state").
    Release {
        /// When the release is requested.
        at: SimTime,
    },
    /// CPU load change (browser computation starting or stopping).
    CpuLoad {
        /// When the load changes.
        at: SimTime,
        /// New load: the number of busy CPU cores (fractional values
        /// allowed). Single-core loads use `{0, 1}`; parallel plans
        /// step through higher counts, clamped by the power model to
        /// `ewb_rrc::MAX_CPU_CORES`.
        load: f64,
    },
}

impl RadioEvent {
    /// Event time.
    pub fn at(&self) -> SimTime {
        match self {
            RadioEvent::BeginTransfer { at, .. }
            | RadioEvent::EndTransfer { at }
            | RadioEvent::Release { at }
            | RadioEvent::CpuLoad { at, .. } => *at,
        }
    }

    /// Applies the event to `machine`, `offset` later than its own time —
    /// the one mapping from events to machine calls, shared by [`replay`]
    /// and by compiled load tapes (`ewb-core`'s memoized profiles).
    ///
    /// # Panics
    ///
    /// Panics as the machine call does (e.g. an `EndTransfer` without a
    /// matching begin, or an instant in the machine's past).
    pub fn apply<R: RadioModel>(&self, machine: &mut R, offset: SimDuration) {
        match *self {
            RadioEvent::BeginTransfer {
                at,
                needs_dch,
                promotion_retries,
            } => {
                let _ = machine.begin_transfer_with_promotion_retries(
                    at + offset,
                    needs_dch,
                    promotion_retries,
                );
            }
            RadioEvent::EndTransfer { at } => machine.end_transfer(at + offset),
            RadioEvent::Release { at } => {
                let _ = machine.release_to_idle(at + offset);
            }
            RadioEvent::CpuLoad { at, load } => machine.set_cpu_load(at + offset, load),
        }
    }
}

/// Builds the event list for one page load: its transfers plus the
/// browser's CPU-busy intervals on the main core (`cpu_busy`) and on
/// helper cores (`aux_busy`, `LoadMetrics::aux_busy` under a parallel
/// plan).
///
/// Without helper intervals every main-core interval becomes a `CpuLoad`
/// step to 1 and back to 0. Otherwise the main and helper intervals are
/// merged into a single active-core-count step function: one `CpuLoad`
/// event per time the count changes, carrying the new count, so
/// concurrent cores draw concurrent CPU power during replay.
pub fn events_of_load_parallel(
    transfers: &[TransferRecord],
    cpu_busy: &[(SimTime, SimTime)],
    aux_busy: &[(SimTime, SimTime)],
) -> Vec<RadioEvent> {
    let mut events = Vec::with_capacity(transfers.len() * 2 + cpu_busy.len() * 2);
    for t in transfers {
        events.push(RadioEvent::BeginTransfer {
            at: t.requested_at,
            needs_dch: t.needs_dch,
            promotion_retries: t.promotion_retries,
        });
        events.push(RadioEvent::EndTransfer { at: t.end });
    }
    if aux_busy.is_empty() {
        for &(s, e) in cpu_busy {
            events.push(RadioEvent::CpuLoad { at: s, load: 1.0 });
            events.push(RadioEvent::CpuLoad { at: e, load: 0.0 });
        }
        return events;
    }
    // Net +1/-1 deltas per boundary instant; BTreeMap both merges
    // same-time boundaries and yields them in time order.
    let mut deltas: std::collections::BTreeMap<SimTime, i64> = std::collections::BTreeMap::new();
    for &(s, e) in cpu_busy.iter().chain(aux_busy) {
        if s == e {
            continue;
        }
        *deltas.entry(s).or_insert(0) += 1;
        *deltas.entry(e).or_insert(0) -= 1;
    }
    let mut active = 0i64;
    for (at, delta) in deltas {
        if delta == 0 {
            continue;
        }
        active += delta;
        debug_assert!(active >= 0, "unbalanced CPU interval at {at}");
        events.push(RadioEvent::CpuLoad {
            at,
            load: active as f64,
        });
    }
    events
}

/// Sorts radio events into replay order: stable by time, with exact-time
/// ties broken by kind — CPU changes first (they never interact with
/// refcounts), then transfer ends, then begins, then releases (a release
/// always follows the transfers that triggered the decision). This is the
/// canonical order both [`replay`] and the memoized load profiles
/// (`ewb-core`) apply events in, so the two paths stay bit-identical.
pub fn sort_radio_events(events: &mut [RadioEvent]) {
    fn rank(e: &RadioEvent) -> u8 {
        match e {
            RadioEvent::CpuLoad { .. } => 0,
            RadioEvent::EndTransfer { .. } => 1,
            RadioEvent::BeginTransfer { .. } => 2,
            RadioEvent::Release { .. } => 3,
        }
    }
    events.sort_by(|a, b| a.at().cmp(&b.at()).then(rank(a).cmp(&rank(b))));
}

/// Replays `events` onto a fresh machine of any [`RadioModel`], then
/// advances it to `until`. The events are applied in the canonical
/// [`sort_radio_events`] order, so refcounts match the original timeline.
///
/// The machine carries `recorder`, so with an enabled recorder the replay
/// emits the session's full radio event stream: state transitions,
/// timers, promotions, and the energy ledger, whose fold is bit-identical
/// to the returned machine's `energy_j()`.
///
/// # Panics
///
/// Panics if the event sequence is inconsistent (e.g. an `EndTransfer`
/// without a matching begin), which indicates a session-assembly bug.
pub fn replay<R: RadioModel>(
    radio_cfg: R::Config,
    start: SimTime,
    mut events: Vec<RadioEvent>,
    until: SimTime,
    recorder: Recorder,
) -> R {
    sort_radio_events(&mut events);

    let mut machine = R::with_recorder(radio_cfg, start, recorder);
    for e in &events {
        e.apply(&mut machine, SimDuration::ZERO);
    }
    machine.advance_to(until.max(machine.now()));
    machine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::fetcher::ThreeGFetcher;
    use ewb_browser::fetch::ResourceFetcher;
    use ewb_rrc::{RrcConfig, RrcMachine};

    /// Replays `events` from time zero on the paper's 3G radio.
    fn replay_3g(events: Vec<RadioEvent>, until: SimTime) -> RrcMachine {
        replay(
            RrcConfig::paper(),
            SimTime::ZERO,
            events,
            until,
            Recorder::disabled(),
        )
    }
    use ewb_webpage::{benchmark_corpus, OriginServer, PageVersion};

    #[test]
    fn replay_matches_fetcher_radio_energy_without_cpu() {
        let corpus = benchmark_corpus(3);
        let server = OriginServer::from_corpus(&corpus);
        let espn = corpus.page("espn", PageVersion::Full).unwrap();
        let mut f = ThreeGFetcher::new(
            NetConfig::paper(),
            RrcConfig::paper(),
            &server,
            SimTime::ZERO,
        );
        for o in espn.objects() {
            f.request(&o.url, SimTime::ZERO);
        }
        while f.next_completion().is_some() {}
        let end = f.machine().now();
        let original_energy = f.machine().energy_j();

        let events = events_of_load_parallel(f.transfers(), &[], &[]);
        let replayed = replay_3g(events, end);
        assert!(
            (replayed.energy_j() - original_energy).abs() < 1e-6,
            "replayed {} vs original {original_energy}",
            replayed.energy_j()
        );
        assert_eq!(replayed.residency(), f.machine().residency());
    }

    #[test]
    fn parallel_events_without_aux_match_the_legacy_builder() {
        let s = SimTime::from_secs;
        let transfer = TransferRecord {
            requested_at: s(0),
            data_start: s(1),
            end: s(2),
            bytes: 10_000,
            needs_dch: true,
            promotion_retries: 1,
            completed: true,
        };
        let cpu = vec![(s(0), s(1)), (s(2), s(3))];
        // Transfers first, then one 1 → 0 step per main-core interval: the
        // sequential plan's events, which the timeline golden pins.
        assert_eq!(
            events_of_load_parallel(&[transfer], &cpu, &[]),
            vec![
                RadioEvent::BeginTransfer {
                    at: s(0),
                    needs_dch: true,
                    promotion_retries: 1,
                },
                RadioEvent::EndTransfer { at: s(2) },
                RadioEvent::CpuLoad {
                    at: s(0),
                    load: 1.0
                },
                RadioEvent::CpuLoad {
                    at: s(1),
                    load: 0.0
                },
                RadioEvent::CpuLoad {
                    at: s(2),
                    load: 1.0
                },
                RadioEvent::CpuLoad {
                    at: s(3),
                    load: 0.0
                },
            ]
        );
    }

    #[test]
    fn parallel_events_form_a_core_count_step_function() {
        let s = SimTime::from_secs;
        // Main core [0,2] and [3,4]; helper core [1,3]: counts are
        // 1, 2, 1, 1, 0 — the 3 s boundary cancels (one ends as the
        // other begins) so no event is emitted there.
        let cpu = vec![(s(0), s(2)), (s(3), s(4))];
        let aux = vec![(s(1), s(3))];
        let got: Vec<(SimTime, f64)> = events_of_load_parallel(&[], &cpu, &aux)
            .into_iter()
            .map(|e| match e {
                RadioEvent::CpuLoad { at, load } => (at, load),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            vec![(s(0), 1.0), (s(1), 2.0), (s(2), 1.0), (s(4), 0.0)]
        );
        // Core-seconds under the step function match the interval sums.
        let mut core_s = 0.0;
        let mut last = (s(0), 0.0);
        for &(at, load) in &got {
            core_s += last.1 * (at - last.0).as_secs_f64();
            last = (at, load);
        }
        assert_eq!(core_s, 5.0);
    }

    #[test]
    fn cpu_intervals_add_energy() {
        let transfers = [TransferRecord {
            requested_at: SimTime::ZERO,
            data_start: SimTime::from_millis(1750),
            end: SimTime::from_secs(4),
            bytes: 100_000,
            needs_dch: true,
            promotion_retries: 0,
            completed: true,
        }];
        let no_cpu = replay_3g(
            events_of_load_parallel(&transfers, &[], &[]),
            SimTime::from_secs(10),
        );
        let cpu = vec![(SimTime::from_secs(4), SimTime::from_secs(6))];
        let with_cpu = replay_3g(
            events_of_load_parallel(&transfers, &cpu, &[]),
            SimTime::from_secs(10),
        );
        let delta = with_cpu.energy_j() - no_cpu.energy_j();
        assert!((delta - 2.0 * 0.45).abs() < 1e-6, "delta {delta}");
    }

    #[test]
    fn release_event_cuts_the_tail() {
        let transfers = [TransferRecord {
            requested_at: SimTime::ZERO,
            data_start: SimTime::from_millis(1750),
            end: SimTime::from_secs(4),
            bytes: 100_000,
            needs_dch: true,
            promotion_retries: 0,
            completed: true,
        }];
        let mut events = events_of_load_parallel(&transfers, &[], &[]);
        events.push(RadioEvent::Release {
            at: SimTime::from_secs(4),
        });
        let released = replay_3g(events, SimTime::from_secs(30));
        let kept = replay_3g(
            events_of_load_parallel(&transfers, &[], &[]),
            SimTime::from_secs(30),
        );
        assert!(released.energy_j() < kept.energy_j());
        assert_eq!(released.counters().fast_dormancy_releases, 1);
    }

    #[test]
    fn tie_breaking_keeps_refcounts_consistent() {
        // Two transfers where one ends exactly when another begins.
        let t = |a: u64, b: u64| TransferRecord {
            requested_at: SimTime::from_secs(a),
            data_start: SimTime::from_secs(a),
            end: SimTime::from_secs(b),
            bytes: 10_000,
            needs_dch: true,
            promotion_retries: 0,
            completed: true,
        };
        let transfers = [t(0, 5), t(5, 9)];
        let m = replay_3g(
            events_of_load_parallel(&transfers, &[], &[]),
            SimTime::from_secs(40),
        );
        assert_eq!(m.counters().transfers, 2);
        assert!(!m.is_transferring());
        // T1 armed from the second end only.
        assert_eq!(m.counters().t1_expirations, 1);
    }

    /// Replay fidelity under faults: a lossy session's records — including
    /// stalled attempts and promotion retries — replay to the exact radio
    /// energy the live fetcher accumulated.
    #[test]
    fn replay_matches_faulted_fetcher_energy() {
        use crate::faults::FaultConfig;
        use crate::fetcher::RetryPolicy;
        let corpus = benchmark_corpus(3);
        let server = OriginServer::from_corpus(&corpus);
        let espn = corpus.page("espn", PageVersion::Full).unwrap();
        let mut cfg = FaultConfig::jittery(0.3);
        cfg.promotion_failure_prob = 0.5;
        let mut f = ThreeGFetcher::new(
            NetConfig::paper(),
            RrcConfig::paper(),
            &server,
            SimTime::ZERO,
        )
        .try_with_faults(cfg, 99, RetryPolicy::standard())
        .unwrap();
        for o in espn.objects() {
            f.request(&o.url, SimTime::ZERO);
        }
        while f.next_completion().is_some() {}
        assert!(
            f.transfers()
                .iter()
                .any(|t| !t.completed || t.promotion_retries > 0),
            "seed 99 should exercise at least one fault"
        );
        let end = f.machine().now();
        let original_energy = f.machine().energy_j();
        let events = events_of_load_parallel(f.transfers(), &[], &[]);
        let replayed = replay_3g(events, end);
        assert!(
            (replayed.energy_j() - original_energy).abs() < 1e-6,
            "replayed {} vs original {original_energy}",
            replayed.energy_j()
        );
        assert_eq!(replayed.residency(), f.machine().residency());
        assert_eq!(
            replayed.counters().promotion_retries,
            f.machine().counters().promotion_retries
        );
    }

    #[test]
    fn until_extends_idle_accounting() {
        let m = replay_3g(Vec::new(), SimTime::from_secs(20));
        assert!((m.energy_j() - 20.0 * 0.15).abs() < 1e-9);
        assert_eq!(m.residency().idle, SimDuration::from_secs(20));
    }
}
