//! Intra-page parallelism: the [`ParallelismPlan`] knob and a
//! deterministic multi-core stage scheduler.
//!
//! The paper reorganizes *when* computation happens relative to the
//! radio; the pipeline stages themselves still run one after another.
//! This module adds the missing dimension (ROADMAP item 3): independent
//! stage units — per-object image decodes, per-subtree style
//! resolution, CSS scans — can be fanned out over the simulated device's
//! cores, shortening the critical path at the price of extra concurrent
//! CPU draw and a per-worker fork overhead.
//!
//! The parallelism is simulated only. Stage units are placed on `k`
//! simulated cores by [`schedule_jobs`], a deterministic
//! earliest-free-core list scheduler. The main core's interval extends
//! the ordinary `cpu_busy` stream; helper-core intervals land in
//! `LoadMetrics::aux_busy` and raise the CPU power draw concurrently
//! (see `ewb_net::replay::events_of_load_parallel`). The host runs a
//! plan's units (real CSS parsing, real selector matching) on the
//! calling thread, in unit order. A unit takes from nanoseconds to a few
//! hundred microseconds; host threads around such units cost more CPU
//! and wall time than they saved.

use ewb_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Upper bound on per-stage threads a plan may request. Matches
/// `ewb_rrc::MAX_CPU_CORES`, the ceiling the power model clamps
/// concurrent CPU load to.
pub const MAX_THREADS: usize = 8;

/// Fork/join handoff overhead charged on the forking core per worker
/// (2009-era smartphone thread wakeup + cache migration). This is what
/// makes over-parallelizing a small page *lose* energy: the overhead is
/// paid even when the fanned-out work is tiny.
pub const FORK_US_PER_WORKER: f64 = 1500.0;

/// How a page load fans its independent stage units out over the
/// simulated cores.
///
/// `ParallelismPlan::SEQUENTIAL` reproduces the legacy single-core
/// pipeline bit-for-bit; every golden in the repo pins that path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelismPlan {
    /// Simulated cores decoding deferred images (energy-aware layout
    /// phase). `1` = the legacy single summed decode.
    pub decode_threads: usize,
    /// Simulated cores for deferred CSS rule extraction and chunked
    /// style resolution. `1` = legacy sequential.
    pub style_threads: usize,
    /// Energy-aware mode: run the cheap CSS URL scan on a helper core,
    /// concurrent with HTML parsing and the transfer wait, instead of on
    /// the critical path.
    pub overlap_css: bool,
}

impl ParallelismPlan {
    /// The legacy single-core schedule (the before-this-PR behavior).
    pub const SEQUENTIAL: ParallelismPlan = ParallelismPlan {
        decode_threads: 1,
        style_threads: 1,
        overlap_css: false,
    };

    /// A plan with the given knob settings.
    pub fn new(decode_threads: usize, style_threads: usize, overlap_css: bool) -> Self {
        ParallelismPlan {
            decode_threads,
            style_threads,
            overlap_css,
        }
    }

    /// `true` when this plan is exactly the legacy sequential schedule.
    pub fn is_sequential(&self) -> bool {
        *self == ParallelismPlan::SEQUENTIAL
    }

    /// Validates thread counts are in `1..=MAX_THREADS`.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        for (name, n) in [
            ("decode_threads", self.decode_threads),
            ("style_threads", self.style_threads),
        ] {
            if n == 0 || n > MAX_THREADS {
                return Err(format!("{name} must be in 1..={MAX_THREADS}, got {n}"));
            }
        }
        Ok(())
    }

    /// Stable short identifier: `seq` for the sequential plan, else
    /// e.g. `d4s4o1`.
    pub fn id(&self) -> String {
        if self.is_sequential() {
            return "seq".to_string();
        }
        format!(
            "d{}s{}o{}",
            self.decode_threads,
            self.style_threads,
            u8::from(self.overlap_css)
        )
    }

    /// Stable numeric key for seed mixing (profile capture, proptests).
    /// Zero iff sequential, so pre-existing sequential capture seeds are
    /// unchanged.
    pub fn key(&self) -> u64 {
        if self.is_sequential() {
            return 0;
        }
        ((self.decode_threads as u64) << 9)
            | ((self.style_threads as u64) << 1)
            | u64::from(self.overlap_css)
    }
}

impl Default for ParallelismPlan {
    fn default() -> Self {
        ParallelismPlan::SEQUENTIAL
    }
}

impl std::fmt::Display for ParallelismPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id())
    }
}

/// The placement [`schedule_jobs`] computes for one fanned-out stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSchedule {
    /// Total busy time per core (cores run their units back-to-back from
    /// the stage start; core 0 is the forking main core).
    pub core_busy: Vec<SimDuration>,
    /// Stage critical path: the largest per-core busy time.
    pub makespan: SimDuration,
    /// Core index each unit was placed on, in unit order.
    pub assignment: Vec<usize>,
}

/// Deterministic earliest-free-core list scheduler: units are placed in
/// input order on the core with the least accumulated work (ties to the
/// lowest core index). Purely a function of `(durations, cores)` — no
/// host timing enters.
pub fn schedule_jobs(durations: &[SimDuration], cores: usize) -> StageSchedule {
    let cores = cores.clamp(1, MAX_THREADS).min(durations.len().max(1));
    let mut core_busy = vec![SimDuration::ZERO; cores];
    let mut assignment = Vec::with_capacity(durations.len());
    for &d in durations {
        let mut best = 0usize;
        for (c, b) in core_busy.iter().enumerate().skip(1) {
            if *b < core_busy[best] {
                best = c;
            }
        }
        assignment.push(best);
        core_busy[best] += d;
    }
    let makespan = core_busy
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max);
    StageSchedule {
        core_busy,
        makespan,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn sequential_plan_roundtrip() {
        let p = ParallelismPlan::SEQUENTIAL;
        assert!(p.is_sequential());
        assert_eq!(p.key(), 0);
        assert_eq!(p.id(), "seq");
        assert_eq!(p, ParallelismPlan::default());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn plan_keys_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for d in 1..=MAX_THREADS {
            for s in 1..=MAX_THREADS {
                for o in [false, true] {
                    let p = ParallelismPlan::new(d, s, o);
                    assert!(p.validate().is_ok());
                    assert!(seen.insert(p.key()), "duplicate key for {p}");
                }
            }
        }
    }

    #[test]
    fn validate_rejects_out_of_range() {
        assert!(ParallelismPlan::new(0, 1, false).validate().is_err());
        assert!(ParallelismPlan::new(1, 9, false).validate().is_err());
    }

    #[test]
    fn scheduler_is_earliest_free_core() {
        // Units 10, 8, 6, 4, 2 on 2 cores: c0={10,4,2}=16? No —
        // placement: 10→c0, 8→c1, 6→c1 (8<10? no: c1 has 8 < c0's 10),
        // then c0=10 vs c1=14 → 4→c0, c0=14 vs c1=14 → tie → 2→c0.
        let s = schedule_jobs(&[us(10), us(8), us(6), us(4), us(2)], 2);
        assert_eq!(s.assignment, vec![0, 1, 1, 0, 0]);
        assert_eq!(s.core_busy, vec![us(16), us(14)]);
        assert_eq!(s.makespan, us(16));
    }

    #[test]
    fn scheduler_never_uses_more_cores_than_units() {
        let s = schedule_jobs(&[us(5)], 8);
        assert_eq!(s.core_busy.len(), 1);
        assert_eq!(s.makespan, us(5));
    }

    #[test]
    fn scheduler_on_one_core_is_the_sum() {
        let s = schedule_jobs(&[us(3), us(4), us(5)], 1);
        assert_eq!(s.makespan, us(12));
        assert_eq!(s.assignment, vec![0, 0, 0]);
    }
}
