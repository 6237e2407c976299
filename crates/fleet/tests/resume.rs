//! Crash-safety invariants of the supervised fleet runner:
//!
//! 1. **Kill/resume bit-identity** — a run killed at *any* committed user
//!    count and resumed from its checkpoint merges to a summary
//!    bit-identical to an uninterrupted run, across the acceptance grid
//!    (shards {1, 2, 7} × threads {1, 8}).
//! 2. **Worker-failure recovery** — injected panics are absorbed, the
//!    failed shard is re-claimed from its last committed state, nothing
//!    double-counts, and a shard that exhausts its attempts is a typed
//!    error.
//! 3. **Checkpoint rejection** — torn, corrupt, truncated, stale-version
//!    or wrong-run checkpoints are rejected with typed errors, never
//!    silently merged.
//! 4. **Population chaos** — faulted-tier and predictor-outage fleets are
//!    as scheduling-invariant as clean ones.

use ewb_core::profile::FaultTier;
use ewb_fleet::{
    run_fleet, run_fleet_supervised, shard_range, summary_fingerprint, Checkpoint, CheckpointError,
    FleetConfig, FleetEnv, FleetError, FleetSummary, PanicPoint, ShardProgress, SupervisorOptions,
    MAX_SHARD_ATTEMPTS,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One shared environment for the whole suite. Capturing [Clean, Lossy10]
/// serves both the crash tests (clean tier) and the population-chaos
/// tests without a second 120-load capture.
fn env() -> &'static FleetEnv {
    static ENV: OnceLock<FleetEnv> = OnceLock::new();
    ENV.get_or_init(|| FleetEnv::prepare_tiered(&[FaultTier::Clean, FaultTier::Lossy10]))
}

/// A unique checkpoint path in the system temp dir (no wall clock: pid +
/// a process-wide counter keep parallel test binaries apart).
fn temp_ckpt(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ewb-fleet-{}-{tag}-{n}.ckpt", std::process::id()))
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut tmp = self.0.as_os_str().to_os_string();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(PathBuf::from(tmp));
    }
}

fn cfg_grid(users: u64, shards: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        shards,
        threads,
        ..FleetConfig::paper(users)
    }
}

/// Runs `cfg` to a checkpoint, killing once `kill_after` users are
/// committed, then resumes to completion. Returns the resumed summary.
fn kill_then_resume(cfg: &FleetConfig, kill_after: u64, tag: &str) -> FleetSummary {
    let file = TempFile(temp_ckpt(tag));
    let killed = run_fleet_supervised(
        env(),
        cfg,
        &[],
        &SupervisorOptions {
            checkpoint_path: Some(file.0.clone()),
            resume: false,
            commit_every_users: 1,
            kill_after_users: Some(kill_after),
        },
    );
    match killed {
        Err(FleetError::Interrupted {
            committed_users,
            checkpoint: Some(path),
        }) => {
            assert!(committed_users >= kill_after, "kill fired early");
            assert_eq!(path, file.0);
        }
        other => panic!("expected Interrupted at {kill_after} users, got {other:?}"),
    }
    // The checkpoint on disk is always a valid, loadable snapshot.
    let ck = Checkpoint::load(&file.0).expect("checkpoint after kill parses");
    ck.check_matches(cfg)
        .expect("checkpoint after kill verifies");

    let report = run_fleet_supervised(
        env(),
        cfg,
        &[],
        &SupervisorOptions {
            checkpoint_path: Some(file.0.clone()),
            resume: true,
            commit_every_users: 1,
            kill_after_users: None,
        },
    )
    .expect("resume completes");
    assert!(
        report.users_resumed >= kill_after,
        "resume restored {} users, kill committed at least {kill_after}",
        report.users_resumed
    );
    report.summary
}

/// The ISSUE's acceptance grid: kill at every 3rd user across shards
/// {1, 2, 7} × threads {1, 8}; every resumed summary must be
/// bit-identical to the uninterrupted reference.
#[test]
fn kill_and_resume_is_bit_identical_across_the_grid() {
    const USERS: u64 = 36;
    let reference = run_fleet(env(), &cfg_grid(USERS, 1, 1));
    let reference_fp = summary_fingerprint(&reference);
    for shards in [1usize, 2, 7] {
        for threads in [1usize, 8] {
            let cfg = cfg_grid(USERS, shards, threads);
            assert_eq!(
                run_fleet(env(), &cfg),
                reference,
                "clean grid run diverged (shards {shards}, threads {threads})"
            );
            let mut kill_after = 3;
            while kill_after <= USERS {
                let resumed = kill_then_resume(
                    &cfg,
                    kill_after,
                    &format!("grid-s{shards}-t{threads}-k{kill_after}"),
                );
                assert_eq!(
                    resumed, reference,
                    "kill at {kill_after} users diverged \
                     (shards {shards}, threads {threads})"
                );
                assert_eq!(summary_fingerprint(&resumed), reference_fp);
                kill_after += 3;
            }
        }
    }
}

/// An injected worker panic is absorbed in-memory: the shard is
/// re-claimed from its last committed state and the merged summary is
/// untouched. No checkpoint file involved.
#[test]
fn injected_panic_is_absorbed_and_the_shard_reclaimed() {
    let cfg = cfg_grid(20, 2, 2);
    let reference = run_fleet(env(), &cfg);
    let victim = shard_range(cfg.users, cfg.shards, 1).start + 5;
    for threads in [1usize, 2, 8] {
        let cfg = FleetConfig { threads, ..cfg };
        let chaos = [PanicPoint {
            shard: 1,
            user_id: victim,
            on_attempt: 0,
        }];
        let report = run_fleet_supervised(env(), &cfg, &chaos, &SupervisorOptions::none())
            .expect("the retry absorbs the panic");
        assert_eq!(report.worker_panics, 1, "threads {threads}");
        assert_eq!(report.shards_reclaimed, 1, "threads {threads}");
        assert_eq!(
            report.summary, reference,
            "a reclaimed shard must not double-count (threads {threads})"
        );
    }
}

/// The full gauntlet: a panic on the first attempt AND a kill mid-run,
/// then a resume (with the chaos plan still active). Still bit-identical.
#[test]
fn panic_plus_kill_plus_resume_is_still_bit_identical() {
    let cfg = cfg_grid(24, 3, 2);
    let reference = run_fleet(env(), &cfg);
    let chaos = [PanicPoint {
        shard: 2,
        user_id: shard_range(cfg.users, cfg.shards, 2).start + 2,
        on_attempt: 0,
    }];
    let file = TempFile(temp_ckpt("gauntlet"));
    let killed = run_fleet_supervised(
        env(),
        &cfg,
        &chaos,
        &SupervisorOptions {
            checkpoint_path: Some(file.0.clone()),
            resume: false,
            commit_every_users: 1,
            kill_after_users: Some(10),
        },
    );
    assert!(
        matches!(killed, Err(FleetError::Interrupted { .. })),
        "expected Interrupted, got {killed:?}"
    );
    let report = run_fleet_supervised(
        env(),
        &cfg,
        &chaos,
        &SupervisorOptions {
            checkpoint_path: Some(file.0.clone()),
            resume: true,
            commit_every_users: 1,
            kill_after_users: None,
        },
    )
    .expect("resume survives the chaos plan");
    assert_eq!(report.summary, reference);
}

/// A shard that dies on every allowed attempt is a typed error, not a
/// hang or a silent hole in the population.
#[test]
fn shard_exhaustion_is_a_typed_error() {
    let cfg = cfg_grid(10, 2, 2);
    let victim = shard_range(cfg.users, cfg.shards, 0).start;
    let chaos: Vec<PanicPoint> = (0..MAX_SHARD_ATTEMPTS)
        .map(|attempt| PanicPoint {
            shard: 0,
            user_id: victim,
            on_attempt: attempt,
        })
        .collect();
    match run_fleet_supervised(env(), &cfg, &chaos, &SupervisorOptions::none()) {
        Err(FleetError::ShardFailed {
            shard: 0,
            attempts: 3,
            panic,
        }) => assert!(panic.contains("chaos injection"), "panic message: {panic}"),
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}

/// An uncaptured fault tier is refused up front with a typed error.
#[test]
fn uncaptured_tier_is_an_invalid_config() {
    let cfg = FleetConfig {
        tier: FaultTier::Jittery10,
        ..cfg_grid(4, 1, 1)
    };
    match run_fleet_supervised(env(), &cfg, &[], &SupervisorOptions::none()) {
        Err(FleetError::InvalidConfig(msg)) => {
            assert!(msg.contains("jittery-10%"), "message: {msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Checkpoint rejection: every way a file can lie must be a typed error.
// ---------------------------------------------------------------------

/// A real mid-run checkpoint to mutilate.
fn killed_checkpoint(cfg: &FleetConfig, tag: &str) -> (TempFile, Vec<u8>) {
    let file = TempFile(temp_ckpt(tag));
    let killed = run_fleet_supervised(
        env(),
        cfg,
        &[],
        &SupervisorOptions {
            checkpoint_path: Some(file.0.clone()),
            resume: false,
            commit_every_users: 1,
            kill_after_users: Some(cfg.users / 2),
        },
    );
    assert!(matches!(killed, Err(FleetError::Interrupted { .. })));
    let bytes = std::fs::read(&file.0).expect("checkpoint written");
    (file, bytes)
}

fn resume_with_bytes(cfg: &FleetConfig, bytes: &[u8], tag: &str) -> Result<(), FleetError> {
    let file = TempFile(temp_ckpt(tag));
    std::fs::write(&file.0, bytes).expect("write mutated checkpoint");
    run_fleet_supervised(
        env(),
        cfg,
        &[],
        &SupervisorOptions {
            checkpoint_path: Some(file.0.clone()),
            resume: true,
            commit_every_users: 1,
            kill_after_users: None,
        },
    )
    .map(|_| ())
}

#[test]
fn mutilated_checkpoints_are_rejected_with_typed_errors() {
    let cfg = cfg_grid(12, 2, 1);
    let (_file, bytes) = killed_checkpoint(&cfg, "mutilate");

    // Truncation anywhere past the magic dies inside a named structure.
    let truncated = &bytes[..bytes.len() - 7];
    match Checkpoint::from_bytes(truncated) {
        Err(CheckpointError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }

    // A flipped payload byte fails its record's CRC.
    let mut flipped = bytes.clone();
    let payload_byte = 8 + 4 + 4 + 2; // inside the identity payload
    flipped[payload_byte] ^= 0x40;
    match Checkpoint::from_bytes(&flipped) {
        Err(CheckpointError::Corrupt { what, .. }) => {
            assert_eq!(what, "identity record");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A future format version is refused before any payload is trusted.
    let mut versioned = bytes.clone();
    versioned[8..12].copy_from_slice(&99u32.to_le_bytes());
    match Checkpoint::from_bytes(&versioned) {
        Err(CheckpointError::UnsupportedVersion { found: 99 }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // A wrong magic is not a checkpoint at all.
    let mut unmagical = bytes.clone();
    unmagical[0..8].copy_from_slice(b"NOTAFLTC");
    match Checkpoint::from_bytes(&unmagical) {
        Err(CheckpointError::BadMagic { found }) => assert_eq!(&found, b"NOTAFLTC"),
        other => panic!("expected BadMagic, got {other:?}"),
    }

    // Trailing garbage means the writer and reader disagree — reject.
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&[0xAB; 5]);
    match Checkpoint::from_bytes(&trailing) {
        Err(CheckpointError::Malformed { what }) => {
            assert!(what.contains("trailing"), "what: {what}")
        }
        other => panic!("expected Malformed, got {other:?}"),
    }

    // And the whole rejection path surfaces through the supervisor as a
    // typed FleetError — a resume never starts from a lying file.
    match resume_with_bytes(&cfg, &flipped, "resume-corrupt") {
        Err(FleetError::Checkpoint(CheckpointError::Corrupt { .. })) => {}
        other => panic!("expected Checkpoint(Corrupt), got {other:?}"),
    }
}

/// A checkpoint from a different run (other seed, other population, other
/// shard layout) is rejected field by field, never merged.
#[test]
fn checkpoints_from_a_different_run_are_rejected() {
    let cfg = cfg_grid(12, 2, 1);
    let (_file, bytes) = killed_checkpoint(&cfg, "other-run");
    let cases: [(FleetConfig, &str); 3] = [
        (FleetConfig { seed: 999, ..cfg }, "seed"),
        (FleetConfig { users: 13, ..cfg }, "users"),
        (FleetConfig { shards: 3, ..cfg }, "shards"),
    ];
    for (other, field) in cases {
        match resume_with_bytes(&other, &bytes, &format!("mismatch-{field}")) {
            Err(FleetError::Checkpoint(CheckpointError::RunMismatch { field: f, .. })) => {
                assert_eq!(f, field)
            }
            other => panic!("expected RunMismatch on {field}, got {other:?}"),
        }
    }
}

/// A checkpoint whose shard summary disagrees with its own cursor — the
/// double-count hazard — is refused before any merge.
#[test]
fn inconsistent_shard_accounting_is_refused() {
    let cfg = cfg_grid(12, 2, 1);
    let mut ck = Checkpoint::new(&cfg);
    ck.shards[0] = ShardProgress {
        next_user: 3,
        summary: FleetSummary::default(), // counts 0 users, cursor says 3
    };
    match ck.check_matches(&cfg) {
        Err(CheckpointError::Malformed { what }) => {
            assert!(what.contains("double-count"), "what: {what}")
        }
        other => panic!("expected the double-count guard, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Population-scale chaos: faulted tiers and predictor outages stay
// scheduling-invariant and kill/resume-safe.
// ---------------------------------------------------------------------

#[test]
fn faulted_tier_fleets_are_scheduling_invariant_and_resumable() {
    let base = FleetConfig {
        tier: FaultTier::Lossy10,
        predictor_outage_prob: 0.3,
        ..cfg_grid(30, 1, 1)
    };
    let reference = run_fleet(env(), &base);
    assert!(
        reference.degraded_policy_visits > 0,
        "a 30% outage across 30 users should degrade someone"
    );
    assert!(
        reference.degraded_policy_visits < reference.visits,
        "an outage must not degrade every visit"
    );
    for (shards, threads) in [(2usize, 8usize), (7, 8)] {
        let cfg = FleetConfig {
            shards,
            threads,
            ..base
        };
        assert_eq!(run_fleet(env(), &cfg), reference);
        let resumed = kill_then_resume(&cfg, 10, &format!("tier-s{shards}-t{threads}"));
        assert_eq!(
            resumed, reference,
            "faulted-tier kill/resume diverged (shards {shards}, threads {threads})"
        );
    }
    // The tier genuinely changes the population's physics.
    let clean = run_fleet(
        env(),
        &FleetConfig {
            tier: FaultTier::Clean,
            predictor_outage_prob: 0.0,
            ..base
        },
    );
    assert_ne!(clean.baseline_uj, reference.baseline_uj);
    assert_eq!(clean.degraded_policy_visits, 0);
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

/// A pseudo-random — but deterministic in `seed` — summary with junk in
/// every field class (u64 counters, u128 ledgers, all four histograms).
fn junk_summary(seed: u64) -> FleetSummary {
    let mut x = seed;
    let mut next = move || {
        // SplitMix64 step: plain wrapping math, no RNG dependency.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut s = FleetSummary {
        users: next() % 1000,
        sessions: next() % 2000,
        visits: next() % 10_000,
        releases: next() % 10_000,
        degraded_policy_visits: next() % 500,
        baseline_uj: u128::from(next()) << 32,
        optimized_uj: u128::from(next()),
        baseline_load_us: u128::from(next()),
        optimized_load_us: u128::from(next()),
        ..FleetSummary::default()
    };
    for v in &mut s.baseline_residency_us {
        *v = u128::from(next());
    }
    for v in &mut s.optimized_residency_us {
        *v = u128::from(next());
    }
    for bin in &mut s.saved_hist {
        *bin = next() & 0xFFFF;
    }
    for bin in &mut s.baseline_load_hist {
        *bin = next() & 0xFF;
    }
    for bin in &mut s.optimized_load_hist {
        *bin = next() & 0xFF;
    }
    for bin in &mut s.dch_share_hist {
        *bin = next() & 0xFF;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialization is lossless for arbitrary summaries: a checkpoint
    /// round-trips to_bytes → from_bytes bit-identically.
    #[test]
    fn checkpoint_round_trip_is_lossless(
        seed in any::<u64>(),
        shard_seeds in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let shards = shard_seeds.len();
        let cfg = FleetConfig {
            seed,
            shards,
            ..FleetConfig::paper(10_000)
        };
        let mut ck = Checkpoint::new(&cfg);
        for (shard, &shard_seed) in shard_seeds.iter().enumerate() {
            let summary = junk_summary(shard_seed);
            let range = shard_range(cfg.users, shards, shard);
            ck.shards[shard] = ShardProgress {
                next_user: (range.start + summary.users).min(range.end),
                summary,
            };
        }
        let back = Checkpoint::from_bytes(&ck.to_bytes()).expect("round trip");
        prop_assert_eq!(back, ck);
    }

    /// No single flipped bit survives parsing: every mutation of a valid
    /// checkpoint is rejected with a typed error.
    #[test]
    fn any_single_bit_flip_is_rejected(
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let cfg = FleetConfig { shards: 2, ..FleetConfig::paper(100) };
        let mut bytes = Checkpoint::new(&cfg).to_bytes();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let idx = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        prop_assert!(
            Checkpoint::from_bytes(&bytes).is_err(),
            "flipping bit {bit} of byte {idx} went undetected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random kill points over random fleet shapes: resume is always
    /// bit-identical to the uninterrupted run.
    #[test]
    fn random_kill_points_resume_bit_identically(
        users in 10u64..28,
        shards in 1usize..5,
        threads in 1usize..4,
        kill_frac in 0.1f64..0.9,
    ) {
        let cfg = cfg_grid(users, shards, threads);
        let reference = run_fleet(env(), &cfg);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let kill_after = ((kill_frac * users as f64) as u64).max(1);
        let resumed = kill_then_resume(&cfg, kill_after, "prop-kill");
        prop_assert_eq!(resumed, reference);
    }
}
