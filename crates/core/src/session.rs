//! End-to-end browsing-session simulation.
//!
//! A session is a sequence of page visits: each page is loaded through the
//! radio by the case's browser pipeline, the user reads for the visit's
//! dwell time, and Algorithm 2 (parameterized by the case's
//! [`ReleasePolicy`]) decides whether to
//! switch the radio to IDLE during the reading period. The radio state
//! carries across visits, so delay penalties (a released radio must be
//! re-promoted for the next click) and energy effects are both emergent
//! rather than assumed.
//!
//! [`simulate_session`] is the one runner. Its [`SessionOpts`] select the
//! radio backend (the paper's 3G [`RrcMachine`] by default, any
//! [`RadioModel`] otherwise), the predictor, fault injection and its
//! per-visit seeds, the intra-page [`ParallelismPlan`], and a recorder.
//!
//! Energy is computed by replaying the session's radio events together
//! with the browser's CPU-busy intervals onto a fresh radio machine —
//! exactly what the paper's Agilent rig integrates at the handset's power
//! pins.

use crate::cases::{Case, ReleasePolicy};
use crate::config::CoreConfig;
use ewb_browser::parallel::ParallelismPlan;
use ewb_browser::pipeline::{load_page_with, PipelineConfig};
use ewb_browser::CpuWork;
use ewb_net::replay::{events_of_load_parallel, replay, RadioEvent};
use ewb_net::{FaultConfig, RadioFetcher, RetryPolicy};
use ewb_obs::{ledger, Event as ObsEvent, Recorder};
use ewb_rrc::{RadioModel, RrcMachine};
use ewb_simcore::{SimDuration, SimTime, SplitMix64};
use ewb_traces::{FeatureVector, ReadingTimePredictor};
use ewb_webpage::{OriginServer, Page, PageVersion};

/// One visit of a session: which page, how long the user reads it, and
/// (optionally) the feature vector the predictor should see for it. With
/// `features: None`, Predict-N cases use the features the browser itself
/// measured during the load.
#[derive(Debug, Clone)]
pub struct Visit<'a> {
    /// The page to load.
    pub page: &'a Page,
    /// Actual reading time after the page opens, seconds.
    pub reading_s: f64,
    /// Prediction input override (e.g. the trace's features).
    pub features: Option<FeatureVector>,
}

/// Fault injection applied to every visit of a session.
///
/// Each visit gets its own deterministic fault stream, seeded from
/// `seed` mixed with the visit index, so inserting a visit does not
/// shift the fault pattern of the visits before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionFaults {
    /// The fault model for the radio link.
    pub faults: FaultConfig,
    /// Base seed of the session's fault streams.
    pub seed: u64,
    /// The fetcher's retry/timeout/backoff policy under faults.
    pub retry: RetryPolicy,
}

impl SessionFaults {
    /// A fault setup with the standard retry policy.
    pub fn new(faults: FaultConfig, seed: u64) -> Self {
        SessionFaults {
            faults,
            seed,
            retry: RetryPolicy::standard(),
        }
    }
}

/// Everything measured for one visit.
#[derive(Debug, Clone)]
pub struct PageRecord {
    /// The page's root URL.
    pub url: String,
    /// Mobile or full version.
    pub version: PageVersion,
    /// When the click happened.
    pub start: SimTime,
    /// End of the data-transmission phase.
    pub tx_end: SimTime,
    /// When the page finished opening (final display).
    pub opened: SimTime,
    /// First (intermediate) display, if drawn.
    pub first_display: Option<SimTime>,
    /// When the radio was released to IDLE, if it was.
    pub released_at: Option<SimTime>,
    /// Actual reading time, seconds.
    pub reading_s: f64,
    /// Predicted reading time, when a predictor ran.
    pub predicted_s: Option<f64>,
    /// Handset energy from click to page-open, joules.
    pub load_joules: f64,
    /// Handset energy over the reading period, joules.
    pub reading_joules: f64,
    /// CPU work breakdown of the load.
    pub work: CpuWork,
    /// Bytes fetched.
    pub bytes: u64,
    /// Objects fetched.
    pub objects: usize,
    /// Objects whose transfers errored out (retries/deadline exhausted on
    /// a faulty link); 0 on a clean link.
    pub failed_objects: usize,
    /// Whether the page rendered without some of its objects.
    pub degraded: bool,
}

impl PageRecord {
    /// Page-load duration (click → open), seconds.
    pub fn load_time_s(&self) -> f64 {
        (self.opened - self.start).as_secs_f64()
    }

    /// Transmission-phase duration, seconds.
    pub fn tx_time_s(&self) -> f64 {
        (self.tx_end - self.start).as_secs_f64()
    }

    /// Total energy of the visit (load + reading), joules.
    pub fn total_joules(&self) -> f64 {
        self.load_joules + self.reading_joules
    }
}

/// The outcome of a simulated session on any radio backend.
#[derive(Debug, Clone)]
pub struct RadioSessionOutcome<R: RadioModel> {
    /// Per-visit records, in order.
    pub pages: Vec<PageRecord>,
    /// Total handset energy over the session, joules.
    pub total_joules: f64,
    /// Sum of page-load durations, seconds (the Fig. 16 delay metric).
    pub total_load_time_s: f64,
    /// Session duration.
    pub duration: SimDuration,
    /// Radio event counters from the energy replay.
    pub counters: R::Counters,
    /// The replayed radio at the session's end. Its history is the energy
    /// ledger of a recorder passed in [`SessionOpts::recorder`].
    pub radio: R,
}

/// The paper's outcome: a session on the UMTS 3G [`RrcMachine`].
pub type SessionOutcome = RadioSessionOutcome<RrcMachine>;

impl<R: RadioModel> RadioSessionOutcome<R> {
    /// Visits that rendered without some of their objects (faulty link).
    pub fn degraded_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.degraded).count()
    }

    /// Objects that errored out across the session (faulty link).
    pub fn failed_objects(&self) -> usize {
        self.pages.iter().map(|p| p.failed_objects).sum()
    }
}

/// The fetcher fault-stream seed of visit `visit_idx` in a session whose
/// [`SessionFaults::seed`] is `base`. Mixing the visit index in keeps the
/// per-visit streams independent: inserting a visit does not shift the
/// fault pattern of the visits before it.
pub fn visit_fault_seed(base: u64, visit_idx: usize) -> u64 {
    SplitMix64::mix(base ^ (visit_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Algorithm 2's per-visit release decision: whether (and when) to switch
/// the radio to IDLE after a page opens, given the case's policy. Returns
/// the proposed release instant — before the "does the release finish
/// before the next click" filter — plus the predicted reading time when a
/// predictor ran. `predict` is only invoked for predicted policies on
/// engaged (`reading_s > alpha_s`) visits, so callers can defer feature
/// assembly. Shared by the full browser-pipeline session path and the
/// memoized fleet path so the two stay decision-identical.
pub fn release_decision(
    policy: ReleasePolicy,
    alpha_s: f64,
    opened: SimTime,
    reading_s: f64,
    predict: impl FnOnce() -> f64,
) -> (Option<SimTime>, Option<f64>) {
    match policy {
        ReleasePolicy::Never => (None, None),
        ReleasePolicy::AfterLoad => (Some(opened), None),
        ReleasePolicy::OracleThreshold { threshold_s } => {
            let at = opened + SimDuration::from_secs_f64(alpha_s);
            (
                (reading_s > alpha_s && reading_s > threshold_s).then_some(at),
                None,
            )
        }
        ReleasePolicy::PredictedThreshold { threshold_s } => {
            // The user must stay past α for the prediction to run.
            if reading_s <= alpha_s {
                (None, None)
            } else {
                let tr = predict();
                let at = opened + SimDuration::from_secs_f64(alpha_s);
                ((tr > threshold_s).then_some(at), Some(tr))
            }
        }
    }
}

/// The settings of a [`simulate_session`] run beyond its pages, case and
/// configuration.
///
/// [`SessionOpts::three_g`] is the paper's setup; override single fields
/// with struct update syntax, e.g.
/// `SessionOpts { predictor: Some(&p), ..SessionOpts::three_g(&cfg) }`.
#[derive(Debug, Clone)]
pub struct SessionOpts<'a, R: RadioModel = RrcMachine> {
    /// The radio's configuration. The release gate uses this backend's
    /// own release latency.
    pub radio: R::Config,
    /// The trained reading-time predictor; Predict-N cases need one.
    pub predictor: Option<&'a ReadingTimePredictor>,
    /// Fault injection on the radio link. Failed objects degrade pages
    /// instead of wedging the load, every retry attempt's radio time rides
    /// into the energy replay, and the page records report
    /// `failed_objects`/`degraded`.
    pub faults: Option<&'a SessionFaults>,
    /// One fault-stream seed per visit, used instead of the seeds
    /// [`visit_fault_seed`] derives from [`SessionFaults::seed`]. A
    /// fault-tier profile is captured under one fixed seed per
    /// (page, mode, click-state, tier, plan) key
    /// ([`FaultTier::capture_seed_planned`](crate::profile::FaultTier::capture_seed_planned)),
    /// so the full session that must match a profiled one bit for bit
    /// drives each visit's fetcher with that key's seed. Needs `faults`.
    pub visit_seeds: Option<&'a [u64]>,
    /// The intra-page [`ParallelismPlan`] every load runs under (see
    /// [`ewb_browser::parallel`]): decode/style stage units fan out over
    /// simulated cores, and helper-core CPU power rides into the energy
    /// replay.
    pub plan: ParallelismPlan,
    /// Receives the cross-layer event stream: one
    /// [`PageVisit`](ewb_obs::Event::PageVisit) per visit, transfer
    /// events from the fetcher, per-stage browser spans, and, from the
    /// energy replay, the radio transitions, timers, and the energy
    /// ledger, which folds to the outcome's `total_joules` bit for bit.
    /// The recorder only observes: the outcome is identical with it
    /// enabled or disabled.
    pub recorder: Recorder,
}

impl<R: RadioModel> SessionOpts<'_, R> {
    /// A session on the radio `radio` configures, otherwise as
    /// [`SessionOpts::three_g`].
    pub fn new(radio: R::Config) -> Self {
        SessionOpts {
            radio,
            predictor: None,
            faults: None,
            visit_seeds: None,
            plan: ParallelismPlan::SEQUENTIAL,
            recorder: Recorder::disabled(),
        }
    }
}

impl SessionOpts<'_> {
    /// The paper's setup: the 3G radio as `cfg.rrc` configures it, no
    /// predictor, a clean link, the sequential plan, and no recorder.
    pub fn three_g(cfg: &CoreConfig) -> Self {
        SessionOpts::new(cfg.rrc)
    }
}

/// Simulates a session under `case` on the radio, link, plan and
/// predictor `opts` selects.
///
/// # Panics
///
/// Panics if `visits` is empty, a reading time is negative or not
/// finite, `case` needs a predictor and `opts` has none, the
/// configuration, radio config, plan, fault configuration or retry policy
/// is invalid, or `opts.visit_seeds` is set without `opts.faults` or does
/// not hold one seed per visit.
pub fn simulate_session<R: RadioModel>(
    server: &OriginServer,
    visits: &[Visit<'_>],
    case: Case,
    cfg: &CoreConfig,
    opts: SessionOpts<'_, R>,
) -> RadioSessionOutcome<R> {
    let SessionOpts {
        radio: radio_cfg,
        predictor,
        faults,
        visit_seeds,
        plan,
        recorder,
    } = opts;
    if let Some(seeds) = visit_seeds {
        assert!(faults.is_some(), "per-visit fault seeds need SessionFaults");
        assert_eq!(
            seeds.len(),
            visits.len(),
            "one fault seed per visit ({} seeds, {} visits)",
            seeds.len(),
            visits.len()
        );
    }
    assert!(!visits.is_empty(), "a session needs at least one visit");
    if let Err(e) = plan.validate() {
        panic!("invalid ParallelismPlan: {e}");
    }
    if let Err(e) = cfg.validate() {
        panic!("invalid CoreConfig: {e}");
    }
    assert!(
        !case.needs_predictor() || predictor.is_some(),
        "case {case} requires a trained ReadingTimePredictor"
    );

    let start = SimTime::ZERO;
    let mut machine = R::new(radio_cfg, start);
    let mut events: Vec<RadioEvent> = Vec::new();
    let mut boundaries: Vec<(SimTime, SimTime)> = Vec::new(); // (start, opened)
    let mut partial: Vec<PageRecord> = Vec::new();
    let mut t = start;

    for (visit_idx, visit) in visits.iter().enumerate() {
        assert!(
            visit.reading_s.is_finite() && visit.reading_s >= 0.0,
            "reading time must be non-negative"
        );
        let mut pipe_cfg = PipelineConfig::new(case.pipeline_mode());
        pipe_cfg.plan = plan;
        if visit.page.spec().version == PageVersion::Mobile {
            // §4.2: mobile pages get no intermediate display.
            pipe_cfg.draw_intermediate = false;
        }
        let mut fetcher =
            RadioFetcher::with_machine(cfg.net, machine, server).with_recorder(recorder.clone());
        if let Some(sf) = faults {
            let seed = visit_seeds.map_or_else(
                || visit_fault_seed(sf.seed, visit_idx),
                |seeds| seeds[visit_idx],
            );
            fetcher = fetcher
                .try_with_faults(sf.faults, seed, sf.retry)
                .unwrap_or_else(|e| panic!("invalid SessionFaults: {e}"));
        }
        let metrics = load_page_with(
            &mut fetcher,
            visit.page.root_url(),
            t,
            &pipe_cfg,
            &cfg.cost,
            None,
            recorder.clone(),
        );
        events.extend(events_of_load_parallel(
            fetcher.transfers(),
            &metrics.cpu_busy,
            &metrics.aux_busy,
        ));
        machine = fetcher.into_machine();

        let opened = metrics.final_display_at;
        let next_start = opened + SimDuration::from_secs_f64(visit.reading_s);

        // Algorithm 2: decide at `opened + α` (or immediately for the
        // always-off policies) whether to switch to IDLE.
        let (decision, predicted_s) = release_decision(
            case.release_policy(),
            cfg.alg.alpha_s,
            opened,
            visit.reading_s,
            || {
                let features = visit
                    .features
                    .unwrap_or_else(|| FeatureVector(metrics.features()));
                predictor.expect("checked above").predict_seconds(&features)
            },
        );
        // Only release if the release procedure completes before the next
        // click; otherwise the user is already navigating away.
        let released_at = decision.filter(|&at| at + R::release_latency(&radio_cfg) <= next_start);
        if let Some(at) = released_at {
            machine.release_to_idle(at);
            events.push(RadioEvent::Release { at });
        }
        machine.advance_to(next_start);

        recorder.emit_with(|| ObsEvent::PageVisit {
            at: t,
            index: visit_idx as u32,
            url: visit.page.root_url().to_string(),
            opened,
            end: next_start,
            released_at,
        });
        boundaries.push((t, opened));
        partial.push(PageRecord {
            url: visit.page.root_url().to_string(),
            version: visit.page.spec().version,
            start: t,
            tx_end: metrics.data_transmission_end,
            opened,
            first_display: metrics.first_display_at,
            released_at,
            reading_s: visit.reading_s,
            predicted_s,
            load_joules: 0.0,    // filled from the replay below
            reading_joules: 0.0, // filled from the replay below
            work: metrics.work,
            bytes: metrics.bytes_fetched,
            objects: metrics.objects_fetched,
            failed_objects: metrics.failed_objects,
            degraded: metrics.degraded,
        });
        t = next_start;
    }

    // Exact energy: replay radio + CPU events on a fresh machine. The
    // ledger recorder rides on the *replay* machine — the one whose energy
    // is reported — and passes every event on to the caller's recorder,
    // so the emitted ledger folds to `total_joules` exactly and the
    // per-visit windows are read off the same ledger.
    let ledger_recorder = Recorder::ledger(recorder.clone());
    let mut radio: R = replay(radio_cfg, start, events, t, ledger_recorder.clone());
    // The outcome's radio keeps the caller's recorder; the ledger goes
    // with `ledger_recorder` once the windows are read.
    radio.set_recorder(recorder);
    let entries = ledger::entries(&ledger_recorder.events());
    for (i, record) in partial.iter_mut().enumerate() {
        let (page_start, opened) = boundaries[i];
        let next = boundaries.get(i + 1).map_or(t, |b| b.0);
        record.load_joules = ledger::joules_between(&entries, page_start, opened);
        record.reading_joules = ledger::joules_between(&entries, opened, next);
    }

    RadioSessionOutcome {
        total_joules: radio.energy_j(),
        total_load_time_s: partial.iter().map(PageRecord::load_time_s).sum(),
        duration: t - start,
        counters: radio.counters(),
        pages: partial,
        radio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewb_webpage::{benchmark_corpus, Corpus};

    fn setup() -> (Corpus, OriginServer, CoreConfig) {
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        (corpus, server, CoreConfig::paper())
    }

    /// A session with the paper's default options.
    pub(super) fn run(
        server: &OriginServer,
        visits: &[Visit<'_>],
        case: Case,
        cfg: &CoreConfig,
    ) -> SessionOutcome {
        simulate_session(server, visits, case, cfg, SessionOpts::three_g(cfg))
    }

    fn visit<'a>(corpus: &'a Corpus, key: &str, version: PageVersion, reading: f64) -> Visit<'a> {
        Visit {
            page: corpus.page(key, version).unwrap(),
            reading_s: reading,
            features: None,
        }
    }

    #[test]
    fn energy_aware_saves_energy_on_long_reads() {
        let (corpus, server, cfg) = setup();
        let visits = vec![visit(&corpus, "espn", PageVersion::Full, 20.0)];
        let base = run(&server, &visits, Case::Original, &cfg);
        let ours = run(&server, &visits, Case::Accurate9, &cfg);
        let saving = 1.0 - ours.total_joules / base.total_joules;
        assert!(
            (0.15..0.60).contains(&saving),
            "espn full + 20 s reading should save paper-scale energy (43.6%), got {saving:.3}"
        );
    }

    #[test]
    fn oracle_respects_the_threshold() {
        let (corpus, server, cfg) = setup();
        let long = vec![visit(&corpus, "cnn", PageVersion::Mobile, 30.0)];
        let short = vec![visit(&corpus, "cnn", PageVersion::Mobile, 5.0)];
        let released = run(&server, &long, Case::Accurate9, &cfg);
        let kept = run(&server, &short, Case::Accurate9, &cfg);
        assert!(released.pages[0].released_at.is_some());
        assert!(kept.pages[0].released_at.is_none());
        assert_eq!(released.counters.fast_dormancy_releases, 1);
        assert_eq!(kept.counters.fast_dormancy_releases, 0);
    }

    #[test]
    fn always_off_pays_a_delay_penalty_on_quick_clicks() {
        let (corpus, server, cfg) = setup();
        // Two quick visits: releasing after page 1 forces a cold
        // promotion for page 2.
        let visits = vec![
            visit(&corpus, "cnn", PageVersion::Mobile, 3.0),
            visit(&corpus, "bbc", PageVersion::Mobile, 3.0),
        ];
        let base = run(&server, &visits, Case::Original, &cfg);
        let off = run(&server, &visits, Case::OriginalAlwaysOff, &cfg);
        assert!(
            off.total_load_time_s > base.total_load_time_s,
            "always-off should add promotion delay: {} vs {}",
            off.total_load_time_s,
            base.total_load_time_s
        );
        assert!(off.counters.idle_to_dch > base.counters.idle_to_dch);
    }

    #[test]
    fn radio_state_carries_across_visits() {
        let (corpus, server, cfg) = setup();
        let visits = vec![
            visit(&corpus, "cnn", PageVersion::Mobile, 2.0),
            visit(&corpus, "cnn", PageVersion::Mobile, 2.0),
        ];
        let out = run(&server, &visits, Case::Original, &cfg);
        // Second load starts in DCH/FACH: strictly faster than the cold
        // first load of the same page.
        assert!(
            out.pages[1].load_time_s() < out.pages[0].load_time_s(),
            "warm load {} should beat cold load {}",
            out.pages[1].load_time_s(),
            out.pages[0].load_time_s()
        );
        assert_eq!(
            out.counters.idle_to_dch, 1,
            "only the first load promotes cold"
        );
    }

    #[test]
    fn per_page_energy_sums_to_total() {
        let (corpus, server, cfg) = setup();
        let visits = vec![
            visit(&corpus, "msn", PageVersion::Mobile, 10.0),
            visit(&corpus, "aol", PageVersion::Mobile, 25.0),
        ];
        let out = run(&server, &visits, Case::Accurate20, &cfg);
        let per_page: f64 = out.pages.iter().map(PageRecord::total_joules).sum();
        assert!(
            (per_page - out.total_joules).abs() < 1e-6,
            "{per_page} vs {out:?}",
            out = out.total_joules
        );
    }

    #[test]
    fn predicted_case_uses_the_predictor() {
        let (corpus, server, cfg) = setup();
        let trace = ewb_traces::TraceDataset::generate(&ewb_traces::TraceConfig::small());
        let predictor = ReadingTimePredictor::train_with_interest_threshold(
            &trace,
            2.0,
            &ewb_traces::reading_time_params(),
        );
        let visits = vec![visit(&corpus, "espn", PageVersion::Full, 30.0)];
        let out = simulate_session(
            &server,
            &visits,
            Case::Predict9,
            &cfg,
            SessionOpts {
                predictor: Some(&predictor),
                ..SessionOpts::three_g(&cfg)
            },
        );
        assert!(out.pages[0].predicted_s.is_some());
    }

    #[test]
    #[should_panic(expected = "requires a trained")]
    fn predicted_case_without_predictor_panics() {
        let (corpus, server, cfg) = setup();
        let visits = vec![visit(&corpus, "cnn", PageVersion::Mobile, 5.0)];
        run(&server, &visits, Case::Predict9, &cfg);
    }

    /// The per-visit seeds are indexed by visit: a short list must be
    /// refused before any visit reads past its end.
    #[test]
    #[should_panic(expected = "one fault seed per visit")]
    fn visit_seed_count_must_match_the_visits() {
        let (corpus, server, cfg) = setup();
        let visits = vec![
            visit(&corpus, "cnn", PageVersion::Mobile, 5.0),
            visit(&corpus, "bbc", PageVersion::Mobile, 5.0),
        ];
        let sf = SessionFaults::new(FaultConfig::lossy(0.1), 7);
        let opts = SessionOpts {
            faults: Some(&sf),
            visit_seeds: Some(&[1]),
            ..SessionOpts::three_g(&cfg)
        };
        simulate_session(&server, &visits, Case::Original, &cfg, opts);
    }

    #[test]
    #[should_panic(expected = "per-visit fault seeds need SessionFaults")]
    fn visit_seeds_without_faults_panic() {
        let (corpus, server, cfg) = setup();
        let visits = vec![visit(&corpus, "cnn", PageVersion::Mobile, 5.0)];
        let opts = SessionOpts {
            visit_seeds: Some(&[1]),
            ..SessionOpts::three_g(&cfg)
        };
        simulate_session(&server, &visits, Case::Original, &cfg, opts);
    }

    #[test]
    fn sub_alpha_visits_never_release() {
        let (corpus, server, cfg) = setup();
        let visits = vec![visit(&corpus, "cnn", PageVersion::Mobile, 1.0)];
        let out = run(&server, &visits, Case::Accurate9, &cfg);
        assert!(out.pages[0].released_at.is_none());
    }

    #[test]
    fn zero_fault_session_is_bit_identical_to_plain() {
        let (corpus, server, cfg) = setup();
        let visits = vec![
            visit(&corpus, "espn", PageVersion::Full, 20.0),
            visit(&corpus, "cnn", PageVersion::Mobile, 5.0),
        ];
        let sf = SessionFaults::new(FaultConfig::none(), 42);
        for case in [Case::Original, Case::Accurate9] {
            let plain = run(&server, &visits, case, &cfg);
            let faulted = simulate_session(
                &server,
                &visits,
                case,
                &cfg,
                SessionOpts {
                    faults: Some(&sf),
                    ..SessionOpts::three_g(&cfg)
                },
            );
            assert_eq!(
                plain.total_joules.to_bits(),
                faulted.total_joules.to_bits(),
                "case {case}: energy must match to the last bit"
            );
            assert_eq!(plain.total_load_time_s, faulted.total_load_time_s);
            assert_eq!(plain.counters, faulted.counters);
            assert_eq!(faulted.degraded_pages(), 0);
            assert_eq!(faulted.failed_objects(), 0);
        }
    }

    #[test]
    fn lossy_sessions_complete_in_both_modes() {
        let (corpus, server, cfg) = setup();
        let visits = vec![
            visit(&corpus, "cnn", PageVersion::Mobile, 10.0),
            visit(&corpus, "bbc", PageVersion::Mobile, 10.0),
        ];
        let sf = SessionFaults::new(FaultConfig::lossy(0.3), 2013);
        for case in [Case::Original, Case::Accurate9] {
            let clean = run(&server, &visits, case, &cfg);
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
            assert_eq!(out.pages.len(), 2, "case {case}: both visits complete");
            assert!(
                out.total_joules >= clean.total_joules,
                "case {case}: retries cannot make the session cheaper"
            );
            // Determinism: the same seed replays the same session.
            let again = simulate_session(
                &server,
                &visits,
                case,
                &cfg,
                SessionOpts {
                    faults: Some(&sf),
                    ..SessionOpts::three_g(&cfg)
                },
            );
            assert_eq!(out.total_joules.to_bits(), again.total_joules.to_bits());
            assert_eq!(out.failed_objects(), again.failed_objects());
        }
    }

    #[test]
    fn record_timing_fields_are_consistent() {
        let (corpus, server, cfg) = setup();
        let visits = vec![visit(&corpus, "ebay", PageVersion::Full, 20.0)];
        let out = run(&server, &visits, Case::Accurate20, &cfg);
        let p = &out.pages[0];
        assert!(p.start < p.tx_end);
        assert!(p.tx_end <= p.opened);
        assert!(p.load_time_s() > p.tx_time_s() - 1e-9);
        assert!(p.bytes > 100_000);
        assert!(p.objects > 40);
        assert_eq!(out.duration.as_secs_f64(), p.load_time_s() + 20.0);
    }
}

#[cfg(test)]
mod algorithm_mode_tests {
    use super::tests::run;
    use super::*;
    use ewb_webpage::benchmark_corpus;

    /// Algorithm 2's two modes differ exactly in the release threshold:
    /// power-driven (Tp, the -9 cases) releases for reads in (Tp, Td] that
    /// delay-driven (Td, the -20 cases) keeps.
    #[test]
    fn power_driven_releases_where_delay_driven_does_not() {
        let corpus = benchmark_corpus(6);
        let server = OriginServer::from_corpus(&corpus);
        let visits = [Visit {
            page: corpus.page("msn", PageVersion::Mobile).unwrap(),
            reading_s: 14.0, // between Tp=9 and Td=20
            features: None,
        }];
        let cfg = CoreConfig::paper();
        let released = run(&server, &visits, Case::Accurate9, &cfg);
        let kept = run(&server, &visits, Case::Accurate20, &cfg);
        assert!(
            released.pages[0].released_at.is_some(),
            "power mode releases at 14 s"
        );
        assert!(
            kept.pages[0].released_at.is_none(),
            "delay mode keeps at 14 s"
        );
    }

    /// Releasing on a 14 s read is power-positive but costs the next
    /// click a promotion — the Table 2 trade-off in one scenario.
    #[test]
    fn the_power_delay_tradeoff_is_real() {
        let corpus = benchmark_corpus(6);
        let server = OriginServer::from_corpus(&corpus);
        let visits: Vec<Visit<'_>> = vec![
            Visit {
                page: corpus.page("msn", PageVersion::Mobile).unwrap(),
                reading_s: 16.0,
                features: None,
            },
            Visit {
                page: corpus.page("aol", PageVersion::Mobile).unwrap(),
                reading_s: 16.0,
                features: None,
            },
        ];
        let cfg = CoreConfig::paper();
        let power = run(&server, &visits, Case::Accurate9, &cfg);
        let delay = run(&server, &visits, Case::Accurate20, &cfg);
        // Power-driven: releases (reading > 9), second load pays promotion.
        assert_eq!(power.counters.fast_dormancy_releases, 2);
        assert_eq!(delay.counters.fast_dormancy_releases, 0);
        assert!(
            power.total_load_time_s > delay.total_load_time_s,
            "power mode trades delay: {} vs {}",
            power.total_load_time_s,
            delay.total_load_time_s
        );
    }
}
