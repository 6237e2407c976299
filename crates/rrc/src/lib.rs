//! # ewb-rrc — UMTS 3G Radio Resource Control substrate
//!
//! The paper's energy savings come entirely from *when* the handset's radio
//! occupies each RRC state. This crate models that state machine exactly as
//! §2.1 of the paper describes it:
//!
//! * **IDLE** — no signaling connection; the radio draws almost nothing.
//! * **DCH** — dedicated uplink/downlink channels; high power; the backbone
//!   releases the channels when inactivity timer **T1** (4 s) expires.
//! * **FACH** — shared channels only (a few hundred bytes/s); about half
//!   the DCH power; the signaling connection is released when timer **T2**
//!   (15 s) expires, returning the handset to IDLE.
//!
//! Promotions (IDLE→DCH, IDLE→FACH, FACH→DCH) cost both latency and energy;
//! the paper's *fast dormancy* (its RIL-based "state switch" component,
//! §4.4) lets the application force FACH/DCH→IDLE early.
//!
//! [`RrcMachine`] is an exact discrete-event model of all of the above with
//! built-in energy metering (its history of states and powers is the
//! `ewb-obs` energy ledger its recorder receives); [`PowerModel`] carries the paper's Table 5
//! measurements; [`intuitive`] reproduces the §3.1 motivation experiment
//! (Fig. 3); [`scenario`] generates the Fig. 1 state-tour power trace.
//!
//! # Example
//!
//! ```
//! use ewb_rrc::{RrcConfig, RrcMachine, RrcState};
//! use ewb_simcore::{SimDuration, SimTime};
//!
//! let mut radio = RrcMachine::new(RrcConfig::default(), SimTime::ZERO);
//! // Request a large transfer from IDLE: the radio must first be promoted.
//! let data_start = radio.begin_transfer(SimTime::ZERO, true);
//! assert!(data_start > SimTime::ZERO); // promotion latency
//! radio.end_transfer(data_start + SimDuration::from_secs(2));
//! // Let the inactivity timers run their course.
//! radio.advance_to(data_start + SimDuration::from_secs(30));
//! assert_eq!(radio.state(), RrcState::Idle);
//! assert!(radio.energy_j() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod machine;
mod power;
mod state;

pub mod backend;
pub mod intuitive;
pub mod ladder;
pub mod scenario;
pub mod tape;

pub use backend::{RadioBackend, RadioModel};
pub use config::RrcConfig;
pub use ladder::{
    FiveG, FiveGConfig, FiveGMachine, LadderBackend, LadderCounters, LadderLoadEnd, LadderMachine,
    LadderResidency, LadderSpec, Lte, LteConfig, LteMachine, Wifi, WifiConfig, WifiMachine,
};
pub use machine::{RrcCounters, RrcLoadEnd, RrcMachine, StateResidency};
pub use power::{PowerModel, MAX_CPU_CORES};
pub use state::RrcState;
pub use tape::LoadTape;
