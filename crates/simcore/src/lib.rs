//! # ewb-simcore — discrete-event simulation kernel
//!
//! This crate is the foundation of the Energy-Aware Web Browsing
//! reproduction. Every other crate in the workspace simulates *something* —
//! a 3G radio, a browser CPU, a user reading a page, a pool of dedicated
//! transmission channels — and they all share the primitives defined here:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond virtual time, so
//!   event ordering is exact and reproducible (no floating-point drift in
//!   comparisons).
//! * [`EventQueue`] — a deterministic future-event list with FIFO
//!   tie-breaking for simultaneous events.
//! * [`Xoshiro256`] and [`dist`] — a small, self-contained PRNG and the
//!   exponential and log-normal samplers the workload models need. Using
//!   our own generator keeps every experiment bit-for-bit reproducible
//!   regardless of `rand`-crate version churn.
//! * [`stats`] — the empirical CDF of Fig. 7 and the Pearson correlation
//!   of Table 4.
//! * [`EnergyMeter`] and [`PowerTrace`] — exact integration of a
//!   piecewise-constant power function over virtual time, plus the 4 Hz
//!   sampled traces the paper's Agilent testbed produced (Figs. 1 and 9).
//! * [`par_map`] — the scoped-thread fan-out of independent experiment
//!   cells, results in item order.
//!
//! # Example
//!
//! ```
//! use ewb_simcore::{EnergyMeter, SimDuration, SimTime};
//!
//! let mut meter = EnergyMeter::new(SimTime::ZERO);
//! // 2 s at 1.25 W (a DCH data transfer), then 4 s at 1.15 W (DCH tail).
//! meter.advance_to(SimTime::from_secs_f64(2.0), 1.25);
//! meter.advance_to(SimTime::from_secs_f64(6.0), 1.15);
//! assert!((meter.total_joules() - (2.0 * 1.25 + 4.0 * 1.15)).abs() < 1e-9);
//! assert_eq!(meter.now(), SimTime::ZERO + SimDuration::from_secs_f64(6.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy;
mod events;
mod par;
mod rng;
mod series;
mod time;

pub mod dist;
pub mod stats;

pub use energy::{EnergyMeter, MeterTape};
pub use events::{EventEntry, EventQueue};
pub use par::par_map;
pub use rng::{SplitMix64, Xoshiro256};
pub use series::{PowerTrace, TimeSeries};
pub use time::{SimDuration, SimTime};
