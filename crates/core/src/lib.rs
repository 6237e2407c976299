//! # ewb-core — Energy-Aware Web Browsing in 3G Based Smartphones
//!
//! A from-scratch reproduction of Zhao, Zheng & Cao (ICDCS 2013). The
//! paper cuts smartphone web-browsing energy by more than 30 % with two
//! techniques, both implemented here on top of the workspace substrates:
//!
//! 1. **Computation-sequence reorganization** — run every computation
//!    that can generate data transmissions first, batch-fetch everything,
//!    drop the radio, then do the layout work
//!    ([`ewb_browser::pipeline`]).
//! 2. **Reading-time prediction** — a GBRT over ten page features decides
//!    whether the radio should be released to IDLE while the user reads
//!    ([`ewb_traces::ReadingTimePredictor`], applied by Algorithm 2 in
//!    [`session`]).
//!
//! This crate is the integration layer: [`CoreConfig`] bundles the radio,
//! link, CPU-cost, and algorithm parameters; [`cases::Case`] enumerates
//! the paper's Table 6 policies; [`session`] simulates complete browsing
//! sessions (page loads over the 3G radio, reading periods, release
//! decisions, exact energy accounting); and [`experiments`] regenerates
//! every figure and table of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use ewb_core::cases::Case;
//! use ewb_core::session::{simulate_session, SessionOpts, Visit};
//! use ewb_core::CoreConfig;
//! use ewb_webpage::{benchmark_corpus, OriginServer, PageVersion};
//!
//! let corpus = benchmark_corpus(1);
//! let server = OriginServer::from_corpus(&corpus);
//! let espn = corpus.page("espn", PageVersion::Full).unwrap();
//! let cfg = CoreConfig::paper();
//!
//! let visits = vec![Visit { page: espn, reading_s: 25.0, features: None }];
//! let run = |case| simulate_session(&server, &visits, case, &cfg, SessionOpts::three_g(&cfg));
//! let baseline = run(Case::Original);
//! let ours = run(Case::Accurate9);
//! assert!(ours.total_joules < baseline.total_joules);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;

pub mod cases;
pub mod experiments;
pub mod planner;
pub mod profile;
pub mod session;

pub use config::{AlgorithmParams, CoreConfig};

// Re-export the substrate crates so downstream users need only ewb-core.
pub use ewb_browser as browser;
pub use ewb_capacity as capacity;
pub use ewb_gbrt as gbrt;
pub use ewb_net as net;
pub use ewb_obs as obs;
pub use ewb_rrc as rrc;
pub use ewb_simcore as simcore;
pub use ewb_traces as traces;
pub use ewb_webpage as webpage;
