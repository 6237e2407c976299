//! The O(shards) memory claim, measured: a counting global allocator
//! shows that (a) growing the population does not grow peak heap — only
//! shard summaries and worker scratch are live, never per-user state —
//! (b) a fleet run returns the heap to its starting level, i.e. the
//! steady-state per-session heap growth is zero, and (c) a warm user
//! makes no allocation at all.

use ewb_core::cases::Case;
use ewb_fleet::{run_fleet, simulate_user, FleetConfig, FleetEnv, FleetSummary, WorkerScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, OnceLock};

static CURRENT: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The tests share the byte ledger, so they run one at a time.
static LEDGER: Mutex<()> = Mutex::new(());

/// Wraps the system allocator with a byte ledger (current + peak) and a
/// per-thread allocation count.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let p = System.alloc(layout);
        if !p.is_null() {
            let now = CURRENT.fetch_add(layout.size() as isize, Ordering::SeqCst)
                + layout.size() as isize;
            PEAK.fetch_max(now, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        CURRENT.fetch_sub(layout.size() as isize, Ordering::SeqCst);
    }
    // realloc/alloc_zeroed fall back to the defaults, which route through
    // alloc/dealloc above, so the ledger stays exact.
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn current() -> isize {
    CURRENT.load(Ordering::SeqCst)
}

/// Resets the high-water mark to the present level.
fn reset_peak() {
    PEAK.store(current(), Ordering::SeqCst);
}

/// Peak bytes above `baseline` since the last reset.
fn peak_above(baseline: isize) -> isize {
    PEAK.load(Ordering::SeqCst) - baseline
}

fn env() -> &'static FleetEnv {
    static ENV: OnceLock<FleetEnv> = OnceLock::new();
    ENV.get_or_init(FleetEnv::prepare)
}

fn cfg(users: u64) -> FleetConfig {
    FleetConfig {
        shards: 4,
        threads: 1,
        ..FleetConfig::paper(users)
    }
}

#[test]
fn peak_memory_is_o_shards_and_sessions_leak_nothing() {
    let _ledger = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    let env = env();
    // Warm up: scratch capacities, lazy std/runtime allocations.
    run_fleet(env, &cfg(100));

    let baseline = current();
    reset_peak();
    let small = run_fleet(env, &cfg(200));
    let small_peak = peak_above(baseline);
    drop(small);

    let after_small = current();
    assert!(
        (after_small - baseline).abs() <= 1024,
        "a fleet run must return the heap to its starting level \
         (leaked {} bytes over 400 sessions)",
        after_small - baseline
    );

    reset_peak();
    let big = run_fleet(env, &cfg(1600)); // 8× the users
    let big_peak = peak_above(baseline);
    drop(big);

    assert!(
        small_peak > 0 && big_peak > 0,
        "the ledger should observe the run ({small_peak} / {big_peak})"
    );
    // O(shards): same shards + threads ⇒ same live set, whatever the
    // population. Allow small allocator-noise slack, nowhere near the 8×
    // user ratio.
    assert!(
        big_peak <= small_peak + small_peak / 4 + 16 * 1024,
        "peak heap grew with the population: {small_peak} bytes at 200 users \
         vs {big_peak} bytes at 1600 users"
    );
}

/// Allocations made by this thread so far.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_warm_user_makes_no_allocation() {
    let _ledger = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    let env = env();
    for optimized in [Case::Predict9, Case::Accurate9] {
        let cfg = FleetConfig {
            optimized,
            ..cfg(0)
        };
        let mut scratch = WorkerScratch::new();
        let mut summary = FleetSummary::default();
        // Warm-up: the scratch grows to the longest day among these.
        for user in 0..200 {
            simulate_user(env, &cfg, user, &mut scratch, &mut summary);
        }
        let before = thread_allocs();
        for user in 200..2_200 {
            simulate_user(env, &cfg, user, &mut scratch, &mut summary);
        }
        let allocs = thread_allocs() - before;
        assert_eq!(
            allocs, 0,
            "{optimized:?}: {allocs} allocations over 2 000 warm users"
        );
        assert_eq!(summary.users, 2_200, "{optimized:?}");
    }
}
