//! The fleet driver: deterministic per-user planning, shard scheduling,
//! and the supervised (failure-tolerant) run loop.
//!
//! # Determinism
//!
//! Every user's entire input stream derives from `fork`s of one root
//! generator: `Xoshiro256::seed_from_u64(seed).fork(user_id)` is the
//! user's stream, with sub-forks for interests (0), visits (1), and the
//! predictor-outage draw (2). A user's sessions therefore depend on
//! `(seed, user_id)` alone — not on which shard the user lands in, which
//! thread runs the shard, or what any other user did. Combined with the
//! integer-only [`FleetSummary`](crate::FleetSummary) merge, the
//! population summary is bit-identical for every shard count and thread
//! count — and, because shards fold users in id order and commit at user
//! boundaries, for every kill/resume point and worker-failure recovery
//! too.
//!
//! # Supervision
//!
//! [`run_fleet_supervised`] tracks every shard on a shared board:
//! `Pending → Claimed → Done`, with the committed cursor and committed
//! summary updated only at user boundaries. A panicking worker marks its
//! shard `Pending` again (at most [`MAX_SHARD_ATTEMPTS`] claims per
//! shard); whoever re-claims it restarts from the last committed user
//! with the last committed summary, so no user is ever folded twice. With a checkpoint path configured, every
//! commit also persists the board atomically — a `kill -9` at any
//! instant leaves a loadable file, and `--resume` continues to the
//! bit-identical population summary.
//!
//! # Memory
//!
//! Workers reuse one [`WorkerScratch`] across all their users (vectors
//! keep their capacity), and each shard folds straight into its own
//! summary: peak heap is O(shards + threads), independent of the user
//! count.

use crate::chaos::{should_panic, PanicPoint, MAX_SHARD_ATTEMPTS};
use crate::checkpoint::{Checkpoint, CheckpointError, RunIdentity, ShardProgress};
use crate::summary::FleetSummary;
use ewb_core::cases::Case;
use ewb_core::profile::{
    run_profiled_session_with, FaultTier, ProfileTable, ProfiledSessionOpts, ProfiledVisit,
};
use ewb_core::CoreConfig;
use ewb_simcore::Xoshiro256;
use ewb_traces::{
    DwellModel, FeatureVector, ReadingTimePredictor, VisitDraw, VisitSynthesizer, INTEREST_HI,
    INTEREST_LO, N_FEATURES,
};
use ewb_webpage::{benchmark_corpus, Corpus, OriginServer};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A fleet run's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Users to simulate (one baseline + one optimized session each).
    pub users: u64,
    /// Shards the users are partitioned into (contiguous, near-equal).
    pub shards: usize,
    /// Worker threads stealing shards from a shared queue.
    pub threads: usize,
    /// Root seed of every per-user stream.
    pub seed: u64,
    /// The baseline case (energy denominator).
    pub baseline: Case,
    /// The optimized case under evaluation.
    pub optimized: Case,
    /// Link-quality tier the whole population browses under. Faulted
    /// tiers need an environment prepared with
    /// [`FleetEnv::prepare_tiered`].
    pub tier: FaultTier,
    /// Probability that a user's day suffers a predictor outage (drawn
    /// from the user's sub-fork 2); an affected user falls back to the
    /// intuitive release-after-load policy from a uniformly-drawn visit
    /// onward, counted in
    /// [`FleetSummary::degraded_policy_visits`](crate::FleetSummary).
    pub predictor_outage_prob: f64,
}

impl FleetConfig {
    /// The paper-anchored population: Original vs Predict-9 (the
    /// power-driven deployed configuration), 5–30 page visits per user
    /// per day, clean link, no outages.
    pub fn paper(users: u64) -> Self {
        FleetConfig {
            users,
            shards: 64,
            threads: 1,
            seed: 2013,
            baseline: Case::Original,
            optimized: Case::Predict9,
            tier: FaultTier::Clean,
            predictor_outage_prob: 0.0,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.users == 0 {
            return Err("a fleet needs at least one user".to_string());
        }
        if self.shards == 0 {
            return Err("shard count must be positive".to_string());
        }
        if self.threads == 0 {
            return Err("thread count must be positive".to_string());
        }
        if !self.predictor_outage_prob.is_finite()
            || !(0.0..=1.0).contains(&self.predictor_outage_prob)
        {
            return Err(format!(
                "predictor outage probability {} must be in [0, 1]",
                self.predictor_outage_prob
            ));
        }
        Ok(())
    }
}

/// The shared read-only world every worker borrows: corpus, origin
/// server, captured load profiles, visit synthesizer, and the trained
/// predictor (flat forest pre-compiled). Built once per process; sessions
/// themselves allocate nothing from it.
#[derive(Debug)]
pub struct FleetEnv {
    /// The benchmark corpus the profiles were captured from.
    pub corpus: Corpus,
    /// The origin server (owns every object body).
    pub server: OriginServer,
    /// The paper's configuration.
    pub cfg: CoreConfig,
    /// Memoized load profiles: (page, mode, click-state) → the load's
    /// radio events and the load tape compiled from them, which sessions
    /// play at each click.
    pub table: ProfileTable,
    /// Per-visit feature synthesizer (base order = profile page order).
    pub synth: VisitSynthesizer,
    /// The trained reading-time predictor.
    pub predictor: ReadingTimePredictor,
}

impl FleetEnv {
    /// Builds the world: generates the corpus (seed 1, the workspace
    /// benchmark seed), captures all 120 load profiles through the full
    /// browser pipeline, trains the predictor, and pre-compiles its flat
    /// forest so no worker hits the lazy-init path.
    pub fn prepare() -> Self {
        Self::prepare_tiered(&[FaultTier::Clean])
    }

    /// [`prepare`](FleetEnv::prepare) with the profile table captured
    /// across `tiers` (which must include [`FaultTier::Clean`]) — the
    /// environment a fleet running at a faulted tier needs. Capture cost
    /// scales linearly with the tier count (120 full-pipeline loads per
    /// tier).
    pub fn prepare_tiered(tiers: &[FaultTier]) -> Self {
        let cfg = CoreConfig::paper();
        let corpus = benchmark_corpus(1);
        let server = OriginServer::from_corpus(&corpus);
        let table = ProfileTable::capture_tiered(&corpus, &server, &cfg, tiers);
        let synth = VisitSynthesizer::from_corpus(&corpus);
        let trace = ewb_traces::TraceDataset::generate(&ewb_traces::TraceConfig::small());
        let predictor = ReadingTimePredictor::train_with_interest_threshold(
            &trace,
            cfg.alg.alpha_s,
            &ewb_traces::reading_time_params(),
        );
        let _ = predictor.flat(); // compile before workers fan out
        FleetEnv {
            corpus,
            server,
            cfg,
            table,
            synth,
            predictor,
        }
    }
}

/// Reusable per-worker buffers. Capacities stabilize after the first few
/// users, making the steady-state per-session heap growth zero. `draws`
/// holds every visit's draw; `rows` only the rows a session predicts.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    interests: Vec<f64>,
    draws: Vec<VisitDraw>,
    rows: Vec<f64>,
    preds: Vec<f64>,
    visits: Vec<ProfiledVisit>,
}

impl WorkerScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        WorkerScratch::default()
    }
}

/// One planned visit of a user's day — the test-visible form of the plan
/// (the hot path keeps each visit's draw in [`WorkerScratch`] and
/// synthesizes only the feature rows it predicts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedVisit {
    /// Page index in synthesizer-base / profile-table order.
    pub page_idx: usize,
    /// The visit's synthesized feature vector (what the predictor sees).
    pub features: FeatureVector,
    /// The user's actual reading time, seconds.
    pub reading_s: f64,
}

/// Page visits in a user's day, drawn uniformly from the user's visit
/// stream (sub-fork 1).
const VISITS: std::ops::RangeInclusive<u64> = 5..=30;

/// Fills `scratch` with user `user_id`'s day: visit draws, pages and
/// reading times. Returns the visit count. No feature row is synthesized
/// and predictions are left `None`; [`simulate_user`] synthesizes and
/// batches the rows a session reads.
fn fill_plan(env: &FleetEnv, cfg: &FleetConfig, user_id: u64, scratch: &mut WorkerScratch) -> u64 {
    let user_rng = Xoshiro256::seed_from_u64(cfg.seed).fork(user_id);

    // Interests per site, in corpus (Table 3) order — the same
    // distribution `UserProfile::generate` draws.
    let mut interest_rng = user_rng.fork(0);
    scratch.interests.clear();
    for _ in 0..env.corpus.sites().len() {
        scratch
            .interests
            .push(interest_rng.f64_range(INTEREST_LO, INTEREST_HI));
    }

    let mut visit_rng = user_rng.fork(1);
    let n = visit_rng.u64_range_inclusive(*VISITS.start(), *VISITS.end());
    scratch.visits.clear();
    scratch.draws.clear();
    let dwell = DwellModel;
    for _ in 0..n {
        let draw = env.synth.draw(&mut visit_rng);
        let page_idx = draw.base();
        let interest = scratch.interests[page_idx / 2]; // 2 versions per site
        let reading_s = dwell.sample(draw.latents(), interest, &mut visit_rng);
        scratch.draws.push(draw);
        scratch.visits.push(ProfiledVisit {
            page_idx,
            reading_s,
            predicted_s: None,
        });
    }
    n
}

/// User `user_id`'s full day as an owned plan, every visit's feature row
/// synthesized — what the equivalence tests replay through the full
/// browser-pipeline session path.
pub fn plan_user(env: &FleetEnv, cfg: &FleetConfig, user_id: u64) -> Vec<PlannedVisit> {
    let mut scratch = WorkerScratch::new();
    fill_plan(env, cfg, user_id, &mut scratch);
    scratch
        .draws
        .iter()
        .zip(&scratch.visits)
        .map(|(draw, visit)| PlannedVisit {
            page_idx: visit.page_idx,
            features: env.synth.features(draw),
            reading_s: visit.reading_s,
        })
        .collect()
}

/// The visit index from which user `user_id`'s on-device predictor is
/// down, if this day is one of the `predictor_outage_prob` fraction that
/// suffers an outage. Drawn from the user's sub-fork 2 — independent of
/// the interest (0) and visit (1) streams, so enabling outages never
/// reshuffles anyone's browsing day.
pub fn predictor_outage_from(cfg: &FleetConfig, user_id: u64, visits: u64) -> Option<usize> {
    if cfg.predictor_outage_prob <= 0.0 {
        return None;
    }
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed).fork(user_id).fork(2);
    let hit = rng.f64_range(0.0, 1.0) < cfg.predictor_outage_prob;
    hit.then(|| rng.u64_range_inclusive(0, visits - 1) as usize)
}

/// Simulates one user's baseline and optimized sessions and folds both
/// into `summary`. The plan lives in `scratch`, predictions run as one
/// batch, and the sessions play memoized load tapes (of the config's
/// [`FaultTier`]). Once `scratch` has held the longest day so far, a
/// user allocates nothing: the sessions' radio machines keep no history
/// (see [`run_profiled_session_with`]), and `tests/bounded_memory.rs`
/// counts the allocations of warm users under Predict-9 and Accurate-9.
///
/// Only the visits whose prediction a session reads get a feature row
/// and a prediction: the engaged ones (`reading_s > alpha_s`) before the
/// user's predictor outage, if any (see
/// [`release_decision`](ewb_core::session::release_decision)), and only
/// when a case consults the predictor. The others keep
/// `predicted_s = None`.
pub fn simulate_user(
    env: &FleetEnv,
    cfg: &FleetConfig,
    user_id: u64,
    scratch: &mut WorkerScratch,
    summary: &mut FleetSummary,
) {
    let n = fill_plan(env, cfg, user_id, scratch) as usize;
    let outage_from = predictor_outage_from(cfg, user_id, n as u64);

    if cfg.baseline.needs_predictor() || cfg.optimized.needs_predictor() {
        let alpha_s = env.cfg.alg.alpha_s;
        let reads = |i: usize, visit: &ProfiledVisit| {
            visit.reading_s > alpha_s && outage_from.is_none_or(|from| i < from)
        };
        // Synthesize the rows that are read, in visit order.
        scratch.rows.clear();
        for (i, (draw, visit)) in scratch.draws.iter().zip(&scratch.visits).enumerate() {
            if reads(i, visit) {
                scratch.rows.extend_from_slice(&env.synth.features(draw).0);
            }
        }
        scratch.preds.clear();
        scratch.preds.resize(scratch.rows.len() / N_FEATURES, 0.0);
        env.predictor
            .predict_rows(&scratch.rows, &mut scratch.preds);
        let mut preds = scratch.preds.iter();
        for (i, visit) in scratch.visits.iter_mut().enumerate() {
            if reads(i, visit) {
                visit.predicted_s = preds.next().copied();
            }
        }
    }

    let opts = ProfiledSessionOpts {
        tier: cfg.tier,
        predictor_outage_from: outage_from,
        ..ProfiledSessionOpts::default()
    };
    let baseline = run_profiled_session_with(
        &env.table,
        &env.cfg,
        cfg.baseline,
        opts,
        &scratch.visits,
        |v| summary.fold_baseline_load(v.load),
    );
    let optimized = run_profiled_session_with(
        &env.table,
        &env.cfg,
        cfg.optimized,
        opts,
        &scratch.visits,
        |v| summary.fold_optimized_load(v.load),
    );
    summary.fold_user(&baseline, &optimized, n as u64);
}

/// The contiguous user range of shard `shard` (near-equal partition).
pub fn shard_range(users: u64, shards: usize, shard: usize) -> std::ops::Range<u64> {
    let users = u128::from(users);
    let shards = shards as u128;
    let lo = (users * shard as u128 / shards) as u64;
    let hi = (users * (shard as u128 + 1) / shards) as u64;
    lo..hi
}

/// Why a supervised fleet run did not return a summary.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet, chaos, or supervisor configuration is invalid.
    InvalidConfig(String),
    /// A checkpoint could not be loaded, verified, or saved.
    Checkpoint(CheckpointError),
    /// A shard burned every allowed attempt ([`MAX_SHARD_ATTEMPTS`]).
    ShardFailed {
        /// The shard that kept dying.
        shard: usize,
        /// Attempts it burned.
        attempts: u32,
        /// The last panic's message.
        panic: String,
    },
    /// The run stopped at the configured kill point
    /// ([`SupervisorOptions::kill_after_users`]); the last commit is on
    /// disk when a checkpoint path is configured.
    Interrupted {
        /// Users committed when the run stopped.
        committed_users: u64,
        /// The checkpoint file holding the committed state, if any.
        checkpoint: Option<PathBuf>,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidConfig(e) => write!(f, "invalid fleet configuration: {e}"),
            FleetError::Checkpoint(e) => write!(f, "{e}"),
            FleetError::ShardFailed {
                shard,
                attempts,
                panic,
            } => write!(
                f,
                "shard {shard} failed {attempts} attempt(s); last panic: {panic}"
            ),
            FleetError::Interrupted {
                committed_users,
                checkpoint,
            } => match checkpoint {
                Some(path) => write!(
                    f,
                    "run interrupted with {committed_users} users committed to {}",
                    path.display()
                ),
                None => write!(f, "run interrupted with {committed_users} users committed"),
            },
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        FleetError::Checkpoint(e)
    }
}

/// Crash-safety knobs of [`run_fleet_supervised`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorOptions {
    /// Persist every commit to this checkpoint file (atomic tmp+rename).
    pub checkpoint_path: Option<PathBuf>,
    /// Start from the checkpoint file instead of from scratch. Requires
    /// `checkpoint_path`; the file must exist, verify, and match the
    /// run's [`RunIdentity`].
    pub resume: bool,
    /// Users a worker folds between commits. Commits happen at user
    /// boundaries, so resume points are always exact; smaller intervals
    /// bound lost work at the cost of more board traffic.
    pub commit_every_users: u64,
    /// Deterministic kill switch: stop the run (as
    /// [`FleetError::Interrupted`]) at the first commit that reaches
    /// this many committed users — the test harness's `kill -9`.
    pub kill_after_users: Option<u64>,
}

impl SupervisorOptions {
    /// No checkpointing, no kill switch, commit every 256 users.
    pub fn none() -> Self {
        SupervisorOptions {
            checkpoint_path: None,
            resume: false,
            commit_every_users: 256,
            kill_after_users: None,
        }
    }
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions::none()
    }
}

/// What a successful supervised run reports: the population summary plus
/// the recovery story. Only `summary` is deterministic across schedules;
/// the counters depend on which worker hit which injected fault first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// The merged population summary — bit-identical to an undisturbed
    /// [`run_fleet`] of the same config.
    pub summary: FleetSummary,
    /// Users whose work was restored from the checkpoint instead of
    /// simulated.
    pub users_resumed: u64,
    /// Shards already complete in the loaded checkpoint.
    pub shards_resumed_done: u32,
    /// Worker panics absorbed during the run.
    pub worker_panics: u32,
    /// Failed shards that were re-claimed and completed.
    pub shards_reclaimed: u32,
    /// Commits persisted to the checkpoint file (0 without one).
    pub checkpoint_commits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotStatus {
    Pending,
    Claimed,
    Done,
}

/// One shard's supervised state. `next_user`/`committed` only ever
/// advance at user boundaries, under the board lock.
#[derive(Debug)]
struct ShardSlot {
    next_user: u64,
    committed: FleetSummary,
    status: SlotStatus,
    attempts: u32,
}

#[derive(Debug)]
struct Board {
    slots: Vec<ShardSlot>,
    fatal: Option<FleetError>,
    interrupted: bool,
    committed_users: u64,
    worker_panics: u32,
    shards_reclaimed: u32,
    checkpoint_commits: u64,
}

impl Board {
    fn checkpoint(&self, cfg: &FleetConfig) -> Checkpoint {
        Checkpoint {
            identity: RunIdentity::of(cfg),
            shards: self
                .slots
                .iter()
                .map(|slot| ShardProgress {
                    next_user: slot.next_user,
                    summary: slot.committed.clone(),
                })
                .collect(),
        }
    }
}

fn lock_board<'a>(board: &'a Mutex<Board>) -> std::sync::MutexGuard<'a, Board> {
    // A worker can only panic inside catch_unwind, never while holding
    // the lock — a poisoned mutex means the supervisor itself is broken.
    board.lock().expect("fleet board mutex poisoned")
}

/// Commits `summary` (covering the shard's users up to `next_user`) to
/// the board, persists the checkpoint if configured, and trips the kill
/// switch when the commit crosses it. Returns `false` when the worker
/// should stop (kill tripped or a checkpoint save failed).
#[allow(clippy::too_many_arguments)]
fn commit_progress(
    board: &Mutex<Board>,
    cfg: &FleetConfig,
    options: &SupervisorOptions,
    stop: &AtomicBool,
    shard: usize,
    next_user: u64,
    summary: &FleetSummary,
    done: bool,
) -> bool {
    let mut b = lock_board(board);
    let slot = &mut b.slots[shard];
    assert_eq!(
        slot.status,
        SlotStatus::Claimed,
        "shard {shard} committed without a claim — supervision invariant broken"
    );
    assert!(
        next_user >= slot.next_user,
        "shard {shard} commit moved its cursor backwards ({} -> {next_user})",
        slot.next_user
    );
    let delta = next_user - slot.next_user;
    slot.next_user = next_user;
    slot.committed = summary.clone();
    if done {
        slot.status = SlotStatus::Done;
    }
    b.committed_users += delta;

    if let Some(path) = &options.checkpoint_path {
        let ck = b.checkpoint(cfg);
        match ck.save(path) {
            Ok(()) => b.checkpoint_commits += 1,
            Err(e) => {
                if b.fatal.is_none() {
                    b.fatal = Some(e.into());
                }
                stop.store(true, Ordering::Relaxed);
                return false;
            }
        }
    }
    if let Some(kill_after) = options.kill_after_users {
        if b.committed_users >= kill_after {
            b.interrupted = true;
            stop.store(true, Ordering::Relaxed);
            return false;
        }
    }
    true
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker: claim a pending shard, fold its remaining users from the
/// committed cursor, commit at the configured interval, absorb panics.
fn supervised_worker(
    env: &FleetEnv,
    cfg: &FleetConfig,
    panics: &[PanicPoint],
    options: &SupervisorOptions,
    board: &Mutex<Board>,
    stop: &AtomicBool,
) {
    let mut scratch = WorkerScratch::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let claim = {
            let mut b = lock_board(board);
            let mut found = None;
            for (shard, slot) in b.slots.iter_mut().enumerate() {
                if slot.status == SlotStatus::Pending {
                    slot.status = SlotStatus::Claimed;
                    let attempt = slot.attempts;
                    slot.attempts += 1;
                    found = Some((shard, attempt, slot.next_user, slot.committed.clone()));
                    break;
                }
            }
            found
        };
        let Some((shard, attempt, start_user, summary)) = claim else {
            return; // every shard claimed or done — nothing left to steal
        };
        let range = shard_range(cfg.users, cfg.shards, shard);

        let scratch_ref = &mut scratch;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut summary = summary;
            let mut user = start_user;
            let mut uncommitted = 0u64;
            while user < range.end {
                if stop.load(Ordering::Relaxed) {
                    // Another worker tripped the kill switch or hit a
                    // fatal error: drop uncommitted work, exactly like
                    // the crash the kill switch emulates.
                    return None;
                }
                if should_panic(panics, shard, user, attempt) {
                    panic!(
                        "chaos injection: shard {shard} dies at user {user} (attempt {attempt})"
                    );
                }
                simulate_user(env, cfg, user, scratch_ref, &mut summary);
                user += 1;
                uncommitted += 1;
                if uncommitted >= options.commit_every_users && user < range.end {
                    if !commit_progress(board, cfg, options, stop, shard, user, &summary, false) {
                        return None;
                    }
                    uncommitted = 0;
                }
            }
            Some(summary)
        }));

        match run {
            Ok(Some(summary)) => {
                if !commit_progress(board, cfg, options, stop, shard, range.end, &summary, true) {
                    return;
                }
            }
            Ok(None) => return, // stopped mid-shard; the run is ending
            Err(payload) => {
                let message = panic_message(payload);
                let mut b = lock_board(board);
                b.worker_panics += 1;
                let attempts = b.slots[shard].attempts;
                if attempts >= MAX_SHARD_ATTEMPTS {
                    if b.fatal.is_none() {
                        b.fatal = Some(FleetError::ShardFailed {
                            shard,
                            attempts,
                            panic: message,
                        });
                    }
                    stop.store(true, Ordering::Relaxed);
                    return;
                }
                // Back to the pool: whoever claims it next (possibly
                // this very worker) restarts from the committed cursor
                // with the committed summary — nothing double-counts.
                b.slots[shard].status = SlotStatus::Pending;
                b.shards_reclaimed += 1;
            }
        }
    }
}

/// Refuses a run that [`run_fleet_supervised`] cannot carry out as asked,
/// before any work: an invalid config ([`FleetConfig::validate`]), a zero
/// commit interval, `resume` without a checkpoint path, or a panic point
/// that can never fire. A point can fire when its shard is below
/// `cfg.shards`, its user lies in that shard's [`shard_range`], and its
/// attempt is below [`MAX_SHARD_ATTEMPTS`]; the plan is checked against
/// the run, not a checkpoint, so a point on a user that a resumed
/// checkpoint already committed passes. The one check left to the runner
/// is that the environment captured `cfg.tier`.
///
/// # Errors
///
/// Returns the first violated constraint.
pub fn validate_run(
    cfg: &FleetConfig,
    panics: &[PanicPoint],
    options: &SupervisorOptions,
) -> Result<(), String> {
    cfg.validate()?;
    if options.commit_every_users == 0 {
        return Err("commit interval must be positive".to_string());
    }
    if options.resume && options.checkpoint_path.is_none() {
        return Err("--resume needs a checkpoint path".to_string());
    }
    for p in panics {
        if p.shard >= cfg.shards {
            return Err(format!(
                "chaos panic at shard {} can never fire: the run has {} shard(s)",
                p.shard, cfg.shards
            ));
        }
        let range = shard_range(cfg.users, cfg.shards, p.shard);
        if !range.contains(&p.user_id) {
            return Err(format!(
                "chaos panic at user {} can never fire: shard {} holds users {range:?}",
                p.user_id, p.shard
            ));
        }
        if p.on_attempt >= MAX_SHARD_ATTEMPTS {
            return Err(format!(
                "chaos panic on attempt {} can never fire: a shard gets {MAX_SHARD_ATTEMPTS} attempts",
                p.on_attempt
            ));
        }
    }
    Ok(())
}

/// Runs the whole fleet under supervision: shards tracked on a shared
/// board, worker panics absorbed and re-claimed (at most
/// [`MAX_SHARD_ATTEMPTS`] claims per shard), progress committed — and,
/// with a checkpoint path, persisted atomically — at user boundaries.
/// `panics` injects worker failures. The summary of a successful run is
/// bit-identical to an undisturbed [`run_fleet`] for every shard count,
/// thread count, kill/resume point, and injected-panic plan.
///
/// # Errors
///
/// [`FleetError::InvalidConfig`] for a run [`validate_run`] refuses or an
/// environment without the run's fault tier,
/// [`FleetError::Checkpoint`] when checkpoint IO or verification fails,
/// [`FleetError::ShardFailed`] when a shard exhausts its attempts, and
/// [`FleetError::Interrupted`] when the configured kill switch trips.
pub fn run_fleet_supervised(
    env: &FleetEnv,
    cfg: &FleetConfig,
    panics: &[PanicPoint],
    options: &SupervisorOptions,
) -> Result<FleetReport, FleetError> {
    validate_run(cfg, panics, options).map_err(FleetError::InvalidConfig)?;
    if !env.table.has_tier(cfg.tier) {
        return Err(FleetError::InvalidConfig(format!(
            "fault tier {} was not captured into the environment's profile table \
             (prepare it with FleetEnv::prepare_tiered)",
            cfg.tier
        )));
    }

    let mut users_resumed = 0u64;
    let mut shards_resumed_done = 0u32;
    let slots: Vec<ShardSlot> = match (&options.checkpoint_path, options.resume) {
        (Some(path), true) => {
            let ck = Checkpoint::load(path)?;
            ck.check_matches(cfg)?;
            ck.shards
                .into_iter()
                .enumerate()
                .map(|(shard, progress)| {
                    let range = shard_range(cfg.users, cfg.shards, shard);
                    users_resumed += progress.next_user - range.start;
                    let done = progress.next_user == range.end;
                    shards_resumed_done += u32::from(done);
                    ShardSlot {
                        next_user: progress.next_user,
                        committed: progress.summary,
                        status: if done {
                            SlotStatus::Done
                        } else {
                            SlotStatus::Pending
                        },
                        attempts: 0,
                    }
                })
                .collect()
        }
        _ => (0..cfg.shards)
            .map(|shard| ShardSlot {
                next_user: shard_range(cfg.users, cfg.shards, shard).start,
                committed: FleetSummary::default(),
                status: SlotStatus::Pending,
                attempts: 0,
            })
            .collect(),
    };

    let board = Mutex::new(Board {
        slots,
        fatal: None,
        interrupted: false,
        committed_users: users_resumed,
        worker_panics: 0,
        shards_reclaimed: 0,
        checkpoint_commits: 0,
    });
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..cfg.threads {
            let board = &board;
            let stop = &stop;
            scope.spawn(move || supervised_worker(env, cfg, panics, options, board, stop));
        }
    });

    let board = board.into_inner().expect("fleet board mutex poisoned");
    if let Some(fatal) = board.fatal {
        return Err(fatal);
    }
    if board.interrupted {
        return Err(FleetError::Interrupted {
            committed_users: board.committed_users,
            checkpoint: options.checkpoint_path.clone(),
        });
    }

    // Deterministic join: merge committed shard summaries in index
    // order, refusing any shard whose accounting is off (the
    // double-count guard — a shard absorbed after a panic must cover
    // each of its users exactly once).
    let mut merged = FleetSummary::default();
    for (shard, slot) in board.slots.iter().enumerate() {
        let range = shard_range(cfg.users, cfg.shards, shard);
        assert_eq!(
            slot.status,
            SlotStatus::Done,
            "shard {shard} unfinished after a clean join"
        );
        assert_eq!(
            slot.next_user, range.end,
            "shard {shard} cursor short of its range"
        );
        assert_eq!(
            slot.committed.users,
            range.end - range.start,
            "shard {shard} summary user count off for range {range:?} — double-count guard"
        );
        merged.merge(&slot.committed);
    }
    assert_eq!(merged.users, cfg.users, "merged population incomplete");

    Ok(FleetReport {
        summary: merged,
        users_resumed,
        shards_resumed_done,
        worker_panics: board.worker_panics,
        shards_reclaimed: board.shards_reclaimed,
        checkpoint_commits: board.checkpoint_commits,
    })
}

/// Runs the whole fleet: shards claimed by idle threads from the shared
/// board, per-shard summaries merged in shard-index order. The result is
/// bit-identical for every `shards`/`threads` combination. This is
/// [`run_fleet_supervised`] with no chaos, no checkpointing, and no kill
/// switch.
///
/// # Panics
///
/// Panics if the configuration is invalid or a worker panics past the
/// attempt budget.
pub fn run_fleet(env: &FleetEnv, cfg: &FleetConfig) -> FleetSummary {
    match run_fleet_supervised(env, cfg, &[], &SupervisorOptions::none()) {
        Ok(report) => report.summary,
        Err(e) => panic!("fleet run failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_users() {
        for (users, shards) in [(10u64, 3usize), (7, 7), (5, 8), (1_000, 64), (1, 1)] {
            let mut covered = 0u64;
            let mut next = 0u64;
            for s in 0..shards {
                let r = shard_range(users, shards, s);
                assert_eq!(r.start, next, "contiguous at shard {s}");
                next = r.end;
                covered += r.end - r.start;
            }
            assert_eq!(next, users);
            assert_eq!(covered, users);
        }
    }

    #[test]
    fn config_validation_catches_degenerate_setups() {
        let ok = FleetConfig::paper(10);
        assert!(ok.validate().is_ok());
        assert!(FleetConfig { users: 0, ..ok }.validate().is_err());
        assert!(FleetConfig { shards: 0, ..ok }.validate().is_err());
        assert!(FleetConfig { threads: 0, ..ok }.validate().is_err());
    }

    #[test]
    fn runs_that_cannot_happen_are_refused_before_work() {
        let cfg = FleetConfig {
            shards: 4,
            ..FleetConfig::paper(2_000)
        };
        let options = SupervisorOptions::none();
        let point = |shard, user_id, on_attempt| PanicPoint {
            shard,
            user_id,
            on_attempt,
        };
        let last = point(3, 1_999, MAX_SHARD_ATTEMPTS - 1);
        assert_eq!(
            validate_run(&cfg, &[point(0, 0, 0), last], &options),
            Ok(())
        );
        for unreachable in [
            point(4, 0, 0),                  // shard past the last
            point(0, 500, 0),                // user of shard 1
            point(1, 499, 0),                // user of shard 0
            point(3, 2_000, 0),              // user past the population
            point(0, 0, MAX_SHARD_ATTEMPTS), // attempt past the budget
        ] {
            let e = validate_run(&cfg, &[point(0, 0, 0), unreachable], &options);
            assert!(
                e.is_err_and(|e| e.contains("never fire")),
                "{unreachable:?}"
            );
        }
        let resume_alone = SupervisorOptions {
            resume: true,
            ..SupervisorOptions::none()
        };
        assert!(validate_run(&cfg, &[], &resume_alone).is_err());
        let no_commits = SupervisorOptions {
            commit_every_users: 0,
            ..SupervisorOptions::none()
        };
        assert!(validate_run(&cfg, &[], &no_commits).is_err());
        assert!(validate_run(&FleetConfig { users: 0, ..cfg }, &[], &options).is_err());
    }

    #[test]
    fn plans_are_a_pure_function_of_seed_and_user() {
        let env = crate::test_env();
        let cfg = FleetConfig::paper(4);
        let a = plan_user(env, &cfg, 3);
        let b = plan_user(env, &cfg, 3);
        assert_eq!(a, b);
        let other_user = plan_user(env, &cfg, 2);
        assert_ne!(a, other_user);
        let other_seed = plan_user(env, &FleetConfig { seed: 99, ..cfg }, 3);
        assert_ne!(a, other_seed);
        for v in &a {
            assert!(v.page_idx < env.table.n_pages());
            assert!((0.0..=600.0).contains(&v.reading_s));
        }
        assert!(VISITS.contains(&(a.len() as u64)));
    }
}
