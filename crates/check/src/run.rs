//! The scenario driver: runs one [`Scenario`] through a real radio
//! machine and its backend's reference interpreter in lock-step, then
//! checks the declarative invariant set over the machine's recorded
//! event stream and diffs the two implementations' observable surfaces.
//! One driver and one invariant routine serve every backend; what
//! differs between backends is stated by [`CheckedRadio`].
//!
//! The invariants are the harness's ground truth:
//!
//! 1. **legal-transitions** — every state change is an edge of the
//!    backend's transition matrix (Fig. 2 for 3G), each starts in the
//!    state the previous one ended in, and none comes before the
//!    previous one;
//! 2. **timer-arming** — a timer fires only in a state it runs down in
//!    (3G: T1 in DCH, T2 in FACH; ladders: a dwell in any level but the
//!    bottom), checked against the energy segment that precedes the
//!    expiry;
//! 3. **energy-monotone** — reported energy never decreases and no
//!    ledger segment carries negative power or joules;
//! 4. **ledger-bit-identity** — folding the emitted energy ledger in
//!    order reproduces `energy_j()` bit-for-bit, and the ledger passes
//!    the structural audit;
//! 5. **transfer-connected** — no data flows outside the backend's
//!    transmit-capable states (3G: FACH/DCH; ladders: the top level);
//! 6. **residency-accounts-time** — per-state residency sums to elapsed
//!    time.
//!
//! The machines keep no transition list of their own: invariant 1 reads
//! the `StateTransition` events of the stream.
//!
//! The differential layer then compares state, clock, transition log,
//! counters, residency, per-transfer `data_start`, and total energy
//! (exact for integers, 1 nJ/J relative tolerance for the f64 energy,
//! whose summation order legitimately differs).

use crate::backend::{CheckedRadio, Reference};
use crate::mutant::Mutant;
use crate::scenario::{Scenario, Step};
use ewb_obs::{ledger, Event, Recorder};
use ewb_simcore::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::fmt;

/// Relative tolerance for comparing the two implementations' energies.
/// Everything else is integer-exact; energy alone is an f64 sum whose
/// association order differs between the two interpreters.
pub const ENERGY_REL_TOL: f64 = 1e-9;

/// Cap on violations collected per run (the first one is what matters;
/// the rest are context).
const MAX_VIOLATIONS: usize = 8;

/// One invariant or differential failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant (stable kebab-case key).
    pub invariant: &'static str,
    /// Human-readable detail: where and how it failed.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// The outcome of driving one scenario.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// All violations found (empty = clean run).
    pub violations: Vec<Violation>,
    /// Behavioural coverage keys the run exercised (states entered,
    /// transitions taken, counters bumped) — the fuzzer's guidance
    /// signal.
    pub coverage: BTreeSet<String>,
    /// The machine's total energy at the end of the run, joules.
    pub energy_j: f64,
    /// The machine's final clock.
    pub end: SimTime,
}

impl RunReport {
    /// Whether the run was violation-free.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `scenario` against a machine of backend `M` built from
/// `M::doctor(cfg, mutant)` and the backend's reference interpreter
/// built from the true `cfg`, returning every invariant/differential
/// violation found.
///
/// # Panics
///
/// Panics if the doctored config fails validation.
pub fn check_scenario<M: CheckedRadio>(
    cfg: &M::Config,
    scenario: &Scenario,
    mutant: Mutant,
) -> RunReport {
    let recorder = Recorder::memory();
    let mut m = M::with_recorder(M::doctor(cfg, mutant), SimTime::ZERO, recorder.clone());
    let mut r = M::Reference::new(*cfg);

    let mut violations: Vec<Violation> = Vec::new();
    let mut coverage: BTreeSet<String> = BTreeSet::new();
    let mut transfer_windows: Vec<(SimTime, SimTime)> = Vec::new();
    let mut last_energy = 0.0_f64;

    let push = |violations: &mut Vec<Violation>, invariant: &'static str, detail: String| {
        if violations.len() < MAX_VIOLATIONS {
            violations.push(Violation { invariant, detail });
        }
    };

    for (i, step) in scenario.steps.iter().enumerate() {
        let step_no = i + 1;
        match step {
            Step::Wait { micros } => {
                let d = SimDuration::from_micros(*micros);
                m.advance_to(m.now() + d);
                r.wait(d);
            }
            Step::Transfer {
                needs_dch,
                micros,
                retries,
            } => {
                let ds = m.begin_transfer_with_promotion_retries(m.now(), *needs_dch, *retries);
                let end = ds + SimDuration::from_micros(*micros);
                m.end_transfer(end);
                transfer_windows.push((ds, end));
                let ds_ref = r.transfer(*needs_dch, SimDuration::from_micros(*micros), *retries);
                if ds != ds_ref {
                    push(
                        &mut violations,
                        "differential-data-start",
                        format!(
                            "step {step_no} ({step}): machine data_start {ds}, reference {ds_ref}"
                        ),
                    );
                }
                coverage.insert(format!(
                    "{}{}",
                    M::transfer_key(*needs_dch),
                    if *micros == 0 { ":zero" } else { "" }
                ));
                if *retries > 0 {
                    coverage.insert("transfer:retries".to_string());
                }
            }
            Step::Release => {
                // Click state 0 is the deepest sleep state.
                if m.state_label() == M::click_state_name(0) {
                    coverage.insert("release:noop".to_string());
                }
                if !mutant.drops_release() {
                    m.release_to_idle(m.now());
                }
                r.release();
            }
            Step::CpuLoad { load } => {
                m.set_cpu_load(m.now(), *load);
                r.set_cpu_load(*load);
                coverage.insert("cpu_load".to_string());
            }
        }

        // Per-step differential surface.
        if m.state_label() != r.state_label() {
            push(
                &mut violations,
                "differential-state",
                format!(
                    "step {step_no} ({step}): machine in {}, reference in {}",
                    m.state_label(),
                    r.state_label()
                ),
            );
        }
        if m.now() != r.now() {
            push(
                &mut violations,
                "differential-clock",
                format!(
                    "step {step_no} ({step}): machine at {}, reference at {}",
                    m.now(),
                    r.now()
                ),
            );
        }
        // Invariant 3 (driver half): energy never decreases.
        if m.energy_j() < last_energy {
            push(
                &mut violations,
                "energy-monotone",
                format!(
                    "step {step_no} ({step}): energy fell from {last_energy} to {}",
                    m.energy_j()
                ),
            );
        }
        last_energy = m.energy_j();
    }

    // ---- differential: whole-run observables --------------------------
    let me = m.energy_j();
    let re = r.energy_j();
    if (me - re).abs() > ENERGY_REL_TOL * (1.0 + me.abs()) {
        push(
            &mut violations,
            "differential-energy",
            format!("machine accrued {me} J, reference {re} J"),
        );
    }
    if m.counters() != r.counters() {
        push(
            &mut violations,
            "differential-counters",
            format!("machine {:?}, reference {:?}", m.counters(), r.counters()),
        );
    }
    let residency = m.reference_residency();
    if residency != r.residency() {
        push(
            &mut violations,
            "differential-residency",
            format!("machine {residency:?}, reference {:?}", r.residency()),
        );
    }
    let events = recorder.events();
    let transitions = ledger::transitions(&events);
    if transitions != r.transitions() {
        push(
            &mut violations,
            "differential-transitions",
            format!(
                "machine took {transitions:?}, reference {:?}",
                r.transitions()
            ),
        );
    }

    // ---- invariants over the machine's own record ---------------------
    check_machine_invariants(&m, &events, &transfer_windows, &mut |inv, d| {
        push(&mut violations, inv, d)
    });

    // Coverage from the machine's own record.
    coverage.insert(format!("state:{}", m.state_label()));
    for (_, from, to) in transitions {
        coverage.insert(format!("trans:{from}->{to}"));
    }
    for (key, v) in m.counter_keys() {
        if v > 0 {
            coverage.insert(key.to_string());
        }
    }

    RunReport {
        scenario: scenario.clone(),
        violations,
        coverage,
        energy_j: me,
        end: m.now(),
    }
}

/// Invariants 1–6 over a finished machine, its event stream, and the
/// transfer windows the driver observed. Factored out so the pipeline
/// oracle can reuse it on fetcher-driven machines.
pub fn check_machine_invariants<M: CheckedRadio>(
    m: &M,
    events: &[Event],
    transfer_windows: &[(SimTime, SimTime)],
    push: &mut dyn FnMut(&'static str, String),
) {
    // 1. Legal-transition matrix, continuity, and time ordering.
    let legal = m.legal_edges();
    let transitions = ledger::transitions(events);
    for (i, &(at, from, to)) in transitions.iter().enumerate() {
        if !legal.contains(&(from, to)) {
            push(
                "legal-transitions",
                format!("illegal transition #{i}: {from} -> {to} at {at}"),
            );
        }
    }
    for (i, w) in transitions.windows(2).enumerate() {
        if w[0].2 != w[1].1 {
            push(
                "legal-transitions",
                format!(
                    "discontinuous transition chain at #{}: ... -> {} then {} -> ...",
                    i + 1,
                    w[0].2,
                    w[1].1
                ),
            );
        }
        if w[0].0 > w[1].0 {
            push(
                "legal-transitions",
                format!("transitions out of order at #{}", i + 1),
            );
        }
    }

    // 2. Timers fire only in their arming states. The energy segment
    // ending at the expiry instant shows the state the radio was in
    // while the timer ran down.
    let mut last_segment = None;
    for e in events {
        match e {
            Event::EnergySegment {
                start, end, state, ..
            } => {
                last_segment = Some((*start, *end, *state));
            }
            Event::TimerExpired { at, timer } => match (m.arming_states(*timer), last_segment) {
                ([], _) => push(
                    "timer-arming",
                    format!("{timer:?} fired on a {} machine at {at}", M::BACKEND),
                ),
                (arming, Some((_, end, state))) if end == *at && arming.contains(&state) => {}
                (arming, other) => push(
                    "timer-arming",
                    format!(
                        "{timer:?} fired at {at} but the radio was not in {arming:?} \
                         up to that instant (last segment: {other:?})"
                    ),
                ),
            },
            _ => {}
        }
    }

    // 3. (stream half) No ledger segment carries negative power/energy.
    let entries = ledger::entries(events);
    for (i, e) in entries.iter().enumerate() {
        if e.joules < 0.0 || e.watts < 0.0 {
            push(
                "energy-monotone",
                format!("ledger entry #{i} has negative power/energy: {e:?}"),
            );
        }
    }

    // 4. Ledger audit + bit-identical fold.
    for err in ledger::audit(&entries) {
        push("ledger-bit-identity", format!("ledger audit: {err:?}"));
    }
    let folded = ledger::total(&entries);
    if folded.to_bits() != m.energy_j().to_bits() {
        push(
            "ledger-bit-identity",
            format!(
                "ledger folds to {folded} but the machine reports {} \
                 (bit patterns differ)",
                m.energy_j()
            ),
        );
    }

    // 5. No transfer outside the transmit-capable states.
    let transmit = m.transmit_states();
    for (i, &(ds, end)) in transfer_windows.iter().enumerate() {
        for e in &entries {
            let lo = e.start.max(ds);
            let hi = e.end.min(end);
            if lo < hi && !transmit.contains(&e.state) {
                push(
                    "transfer-connected",
                    format!(
                        "transfer #{i} ({ds}..{end}) overlaps a {:?} segment \
                         ({}..{})",
                        e.state, e.start, e.end
                    ),
                );
            }
        }
    }

    // 6. Residency accounts for all elapsed time.
    let elapsed = m.now() - SimTime::ZERO;
    if m.residency_total() != elapsed {
        push(
            "residency-accounts-time",
            format!(
                "residency sums to {} but {} elapsed",
                m.residency_total(),
                elapsed
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_alphabet;
    use ewb_rrc::{RrcConfig, RrcMachine};

    fn cfg() -> RrcConfig {
        RrcConfig::paper()
    }

    #[test]
    fn clean_machine_passes_every_alphabet_symbol() {
        for (i, step) in default_alphabet().into_iter().enumerate() {
            let s = Scenario::new(format!("sym-{i}"), vec![step]);
            let r = check_scenario::<RrcMachine>(&cfg(), &s, Mutant::None);
            assert!(r.ok(), "symbol {i} failed: {:?}", r.violations);
        }
    }

    #[test]
    fn canonical_cascade_is_clean_and_covered() {
        let s = Scenario::new(
            "cascade",
            vec![
                Step::Transfer {
                    needs_dch: true,
                    micros: 500_000,
                    retries: 0,
                },
                Step::Wait { micros: 19_500_000 },
            ],
        );
        let r = check_scenario::<RrcMachine>(&cfg(), &s, Mutant::None);
        assert!(r.ok(), "{:?}", r.violations);
        assert!(r.coverage.contains("ctr:t1_expirations"));
        assert!(r.coverage.contains("ctr:t2_expirations"));
        assert!(r.coverage.contains("trans:DCH->FACH"));
        assert!(r.coverage.contains("state:IDLE"));
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn swapped_timers_mutant_is_caught_by_state_diff() {
        // Transfer then wait past the true T1: the real semantics demote
        // to FACH, the mutant (T1=15 s) is still holding DCH.
        let s = Scenario::new(
            "t1-straddle",
            vec![
                Step::Transfer {
                    needs_dch: true,
                    micros: 500_000,
                    retries: 0,
                },
                Step::Wait { micros: 4_500_000 },
            ],
        );
        let r = check_scenario::<RrcMachine>(&cfg(), &s, Mutant::SwappedTimers);
        assert!(!r.ok(), "mutant must be caught");
        assert!(
            r.violations
                .iter()
                .any(|v| v.invariant.starts_with("differential")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn ignored_dormancy_mutant_is_caught() {
        let s = Scenario::new(
            "dormancy",
            vec![
                Step::Transfer {
                    needs_dch: true,
                    micros: 500_000,
                    retries: 0,
                },
                Step::Release,
            ],
        );
        let r = check_scenario::<RrcMachine>(&cfg(), &s, Mutant::IgnoredDormancy);
        assert!(!r.ok(), "mutant must be caught");
    }

    #[test]
    fn eager_promotion_mutant_is_caught_on_one_step() {
        let s = Scenario::new(
            "cold-start",
            vec![Step::Transfer {
                needs_dch: true,
                micros: 0,
                retries: 0,
            }],
        );
        let r = check_scenario::<RrcMachine>(&cfg(), &s, Mutant::EagerPromotion);
        assert!(!r.ok(), "mutant must be caught");
        assert_eq!(r.violations[0].invariant, "differential-data-start");
    }

    #[test]
    fn violations_are_capped() {
        // A long scenario against a gross mutant must not collect
        // unbounded violation text.
        let steps: Vec<Step> = (0..50)
            .map(|_| Step::Transfer {
                needs_dch: true,
                micros: 100_000,
                retries: 0,
            })
            .collect();
        let s = Scenario::new("flood", steps);
        let r = check_scenario::<RrcMachine>(&cfg(), &s, Mutant::EagerPromotion);
        assert!(!r.ok());
        assert!(r.violations.len() <= 8, "{}", r.violations.len());
    }
}
