//! # ewb-fleet — fleet-scale population simulation
//!
//! The paper (Zhao, Zheng & Cao, ICDCS 2013) measures one user at a time;
//! a carrier cares about the population: what does energy-aware browsing
//! save across 10⁴–10⁶ users of a cell, and how are the savings and the
//! delay penalty distributed? This crate answers that by making session
//! simulation cheap enough to run in bulk:
//!
//! * **Memoized loads** — every (page, pipeline mode, RRC click-state)
//!   combination is driven through the full browser pipeline exactly once
//!   ([`ewb_core::profile::ProfileTable`]) and compiled into a load tape
//!   of its exact energy addends, deltas and end state; fleet sessions
//!   play one tape per click, bit-identical to the full path.
//! * **Deterministic users** — each user's interests, visit sequence, and
//!   reading times derive from a forked RNG stream keyed by `(seed,
//!   user_id)` alone, so results never depend on scheduling.
//! * **Sharded work stealing** — users are partitioned into shards;
//!   threads claim shards from a shared board and fold each shard into
//!   its own [`FleetSummary`]; shard summaries (integer-only: µJ, µs,
//!   histogram counts) merge in index order. Peak memory is O(shards),
//!   and the merged summary is bit-identical for every shard count and
//!   thread count.
//! * **Crash-safe execution** — [`run_fleet_supervised`] absorbs worker
//!   panics (surviving workers re-claim the failed shard from its last
//!   committed state, at most [`MAX_SHARD_ATTEMPTS`] claims per shard) and
//!   persists per-shard progress to a CRC-checked [`Checkpoint`] file via
//!   atomic tmp+rename, so a killed run resumes to a summary bit-identical
//!   to an uninterrupted one. Torn, corrupt, or mismatched checkpoints are
//!   rejected with typed [`CheckpointError`]s, never silently merged, and
//!   [`validate_run`] refuses an injected panic that can never fire
//!   before any work.
//! * **Population-scale chaos** — [`FleetConfig::tier`] runs every user's
//!   sessions on a faulted network tier
//!   ([`ewb_core::profile::FaultTier`]), and
//!   [`FleetConfig::predictor_outage_prob`] drops the predictor
//!   mid-session for a deterministic subset of users, falling back to the
//!   intuitive policy ([`FleetSummary::degraded_policy_visits`] counts the
//!   affected visits).
//!
//! ```no_run
//! use ewb_fleet::{run_fleet, FleetConfig, FleetEnv};
//!
//! let env = FleetEnv::prepare();
//! let summary = run_fleet(&env, &FleetConfig::paper(10_000));
//! println!(
//!     "saved {:.1} J/user/day (p50 {:.1} J), optimized p95 load {:.1} s",
//!     summary.saved_mean_j(),
//!     summary.saved_quantile_j(0.5),
//!     summary.load_quantile_s(true, 0.95),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod checkpoint;
mod sim;
mod summary;

pub use chaos::{PanicPoint, MAX_SHARD_ATTEMPTS};
pub use checkpoint::{
    crc32, summary_fingerprint, Checkpoint, CheckpointError, RunIdentity, ShardProgress,
};
pub use sim::{
    plan_user, predictor_outage_from, run_fleet, run_fleet_supervised, shard_range, simulate_user,
    validate_run, FleetConfig, FleetEnv, FleetError, FleetReport, PlannedVisit, SupervisorOptions,
    WorkerScratch,
};
pub use summary::{
    FleetSummary, LOAD_BINS, LOAD_BIN_US, SAVED_BINS, SAVED_BIN_UJ, SAVED_OFFSET_UJ, SHARE_BINS,
};

/// The shared environment for this crate's unit tests ([`FleetEnv`]
/// preparation captures 120 full-pipeline page loads — too slow to repeat
/// per test).
#[cfg(test)]
pub(crate) fn test_env() -> &'static FleetEnv {
    static ENV: std::sync::OnceLock<FleetEnv> = std::sync::OnceLock::new();
    ENV.get_or_init(FleetEnv::prepare)
}
