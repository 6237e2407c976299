//! Deterministic chaos injection for the supervised fleet runner.
//!
//! Chaos here is reproducible by construction: a list of [`PanicPoint`]s
//! names exact (shard, user, attempt) coordinates at which a worker
//! panics, so a failure scenario is a test vector, not a coin flip. The
//! supervisor ([`run_fleet_supervised`](crate::run_fleet_supervised))
//! must absorb every injected panic — surviving workers re-claim the
//! failed shard from its last committed state, at most
//! [`MAX_SHARD_ATTEMPTS`] claims per shard — and still produce a
//! population summary bit-identical to an undisturbed run.

/// Claims a shard may burn before the run fails with
/// [`FleetError::ShardFailed`](crate::FleetError::ShardFailed).
pub const MAX_SHARD_ATTEMPTS: u32 = 3;

/// One injected worker failure: panic when `shard` reaches `user_id`
/// on its `on_attempt`-th claim (0 = the first).
///
/// Keying on the attempt makes recovery testable: a point with
/// `on_attempt: 0` fires once, and the shard's retry — attempt 1 — sails
/// past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicPoint {
    /// Shard to fail.
    pub shard: usize,
    /// User id at which the worker panics (before simulating the user).
    pub user_id: u64,
    /// Which claim of the shard the panic fires on.
    pub on_attempt: u32,
}

/// Whether a worker at (`shard`, `user_id`, `attempt`) must panic.
pub(crate) fn should_panic(
    panics: &[PanicPoint],
    shard: usize,
    user_id: u64,
    attempt: u32,
) -> bool {
    panics
        .iter()
        .any(|p| p.shard == shard && p.user_id == user_id && p.on_attempt == attempt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_points_key_on_all_three_coordinates() {
        let panics = [PanicPoint {
            shard: 2,
            user_id: 17,
            on_attempt: 0,
        }];
        assert!(should_panic(&panics, 2, 17, 0));
        assert!(!should_panic(&panics, 2, 17, 1), "the retry must survive");
        assert!(!should_panic(&panics, 2, 16, 0));
        assert!(!should_panic(&panics, 1, 17, 0));
    }
}
