//! # ewb-check — deterministic model-checking & differential oracles
//!
//! The correctness harness for the radio/pipeline stack, with three
//! engines:
//!
//! 1. **Exhaustive small-scope model checking** ([`explore`]) — every
//!    bounded schedule over a discretized stimulus alphabet is run
//!    against a radio machine — the paper's [`ewb_rrc::RrcMachine`] or
//!    one of the LTE, WiFi and 5G [`ewb_rrc::LadderMachine`]s — and
//!    checked for the declarative invariant set in [`run`]: legal
//!    transition matrix, timers fire only in their arming states,
//!    monotone energy, bit-identical ledger folds, no transfer outside
//!    the transmit-capable states, residency accounting.
//! 2. **Differential oracles** — every scenario is simultaneously
//!    interpreted by the backend's reference interpreter ([`backend`]:
//!    [`ReferenceRrc`], a straight-line reimplementation of the paper's
//!    Fig. 2 semantics, and one each for the ladder radios), and any
//!    disagreement in state, clock, counters, transitions, residency, or
//!    energy is a violation. At the page-load layer ([`pipeline`]), one
//!    instrumented load (radio invariants re-checked, every object
//!    fetched) and one diff of what two loads delivered check that the
//!    Original and energy-aware schedules agree on *what* was loaded,
//!    and that no [`ParallelismPlan`](ewb_browser::parallel::ParallelismPlan)
//!    of the grid changes it.
//! 3. **A scenario corpus runner** ([`corpus`]) — counterexamples are
//!    replayable JSONL lines; the seed corpus under
//!    `crates/check/corpus/` replays green on every CI run.
//!
//! One lock-step driver ([`check_scenario`]) and one invariant routine
//! serve every backend; [`CheckedRadio`] states what differs between
//! them. Failing scenarios are shrunk ([`shrink`]) to a minimal
//! replayable trace. Seeded defects ([`Mutant`]) prove the harness has
//! teeth: the classic swapped-T1/T2 wiring bug is caught by a two-step
//! counterexample —
//!
//! ```
//! use ewb_check::{default_alphabet, exhaustive, Mutant};
//! use ewb_rrc::{RrcConfig, RrcMachine};
//!
//! let cfg = RrcConfig::paper();
//! // Exhaustive depth-3 sweep against a machine whose T1/T2 wiring is
//! // swapped; the reference interpreter uses the true timers.
//! let report = exhaustive::<RrcMachine>(&cfg, &default_alphabet(), 3, Mutant::SwappedTimers);
//! let cex = report.counterexample.expect("the harness must catch the mutant");
//! // Shrunk to its essence: one DCH transfer, then a wait that crosses
//! // the true T1 deadline (4 s) — the mutant radio is still in DCH when
//! // the reference has demoted to FACH.
//! assert!(cex.scenario.steps.len() <= 8, "teeth: {}", cex.scenario);
//! assert!(!cex.violations.is_empty());
//!
//! // The true machine passes the same sweep with zero violations.
//! let clean = exhaustive::<RrcMachine>(&cfg, &default_alphabet(), 3, Mutant::None);
//! assert!(clean.ok());
//! ```
//!
//! `cargo run -p ewb-bench --bin check_all` drives all three engines
//! on the 3G machine from the command line (`--depth`, `--seeds`,
//! `--corpus`); the ladder backends run through the same sweep in the
//! unit tests and `tests/harness_pins.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod corpus;
pub mod explore;
pub mod fuzz;
pub mod mutant;
pub mod pipeline;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use backend::{
    ladder_alphabet, CheckedLadder, CheckedRadio, Reference, ReferenceFiveG, ReferenceLte,
    ReferenceRrc, ReferenceWifi,
};
pub use explore::{exhaustive, Counterexample, ExploreReport};
pub use fuzz::{fuzz, FuzzReport};
pub use mutant::Mutant;
pub use run::{check_scenario, RunReport, Violation};
pub use scenario::{default_alphabet, extended_alphabet, Scenario, Step};
pub use shrink::shrink_scenario;
