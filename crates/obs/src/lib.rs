//! # ewb-obs — sim-clock event tracing and energy-ledger audit
//!
//! A zero-overhead-when-disabled observability layer for the simulator.
//! Layers hold a cloneable [`Recorder`] and emit structured [`Event`]s
//! stamped with [`SimTime`](ewb_simcore::SimTime) only — no wall clock —
//! so a fixed-seed run always produces the identical stream.
//!
//! ## Event model
//!
//! - **RRC** ([`Layer::Rrc`]): state transitions, promotion windows,
//!   T1/T2 expiries, fast-dormancy releases, and [`Event::EnergySegment`]
//!   entries forming the **energy ledger** — the only record of a
//!   radio's power and state over time. The machines keep just a clock
//!   and a running total; Figs. 1, 3 and 9, Table 5, a session's
//!   per-visit joules and the model checker all attach a recorder and
//!   read the ledger ([`ledger`]).
//! - **Net** ([`Layer::Net`]): transfer begin/end, injected faults,
//!   retry scheduling.
//! - **Browser** ([`Layer::Browser`]): per-stage computation [`Event::Span`]s
//!   for both pipeline orders, plus per-load [`Event::Counter`] samples.
//! - **Session** ([`Layer::Session`]): one [`Event::PageVisit`] per visit.
//!
//! ## Ledger reconciliation
//!
//! Each `EnergySegment` is emitted at the instant the RRC machine
//! advances its energy meter, computing `joules` with the same
//! arithmetic on the same operands as the meter itself. Folding the
//! ledger in emission order therefore reproduces the machine's reported
//! total energy **bit-for-bit** (exact f64 identity, not approximate) —
//! see [`ledger::total`] and [`ledger::audit`].
//!
//! ## Sinks
//!
//! [`Recorder::memory`] retains everything (tests, timeline export),
//! [`Recorder::ledger`] keeps the energy ledger while passing every
//! event on to another recorder, [`Recorder::custom`] takes any
//! [`Sink`], and [`Recorder::disabled`] is free: a single branch per
//! emit, with [`Recorder::emit_with`] skipping event construction
//! entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod ledger;
mod recorder;
pub mod timeline;

pub use event::{Event, FaultKind, Layer, RadioState, Timer};
pub use ledger::LedgerEntry;
pub use recorder::{MemorySink, Recorder, Sink};
