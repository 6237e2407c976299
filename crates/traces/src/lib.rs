//! # ewb-traces — the user-behavior substrate
//!
//! The paper collects browsing traces from 40 students (≥2 h each),
//! organized into sessions, and uses them to train and evaluate the
//! GBRT reading-time predictor. Those traces are long gone, so this crate
//! *generates* traces whose measurable properties match what the paper
//! reports:
//!
//! * **Fig. 7's dwell CDF** — 30 % of reading times under 2 s (the
//!   quick-bounce population behind the 2 s *interest threshold*), 53 %
//!   under Tp = 9 s, 68 % under Td = 20 s; dwells over 10 min discarded;
//! * **Table 4's Pearson row** — no *linear* correlation between reading
//!   time and any of the ten features (engaged dwell is driven by a
//!   three-way interaction of binarized features plus per-user interest,
//!   which is linearly invisible but tree-learnable — exactly why the
//!   paper reaches for GBRT over "simple linear models");
//! * **Fig. 15's learnability** — a GBRT trained on the trace reaches
//!   ≈70–80 % threshold accuracy on the raw data and ≥10 points more once
//!   the sub-α bounces are excluded.
//!
//! # Example
//!
//! ```
//! use ewb_traces::{TraceConfig, TraceDataset};
//!
//! let trace = TraceDataset::generate(&TraceConfig::paper());
//! assert_eq!(trace.users(), 40);
//! let cdf = trace.reading_time_cdf();
//! let under_2s = cdf.fraction_at_or_below(2.0);
//! assert!((0.25..0.36).contains(&under_2s), "{under_2s}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod eval;
mod features;
mod predictor;
mod synth;
mod user;

pub use dataset::{PageVisit, TraceConfig, TraceDataset};
pub use eval::{
    accuracy_grid, accuracy_with_threshold, accuracy_without_threshold, cross_user_accuracy,
    reading_time_params, AccuracyReport, EvalCell,
};
pub use features::{FeatureVector, FEATURE_NAMES, N_FEATURES};
pub use predictor::ReadingTimePredictor;
pub use synth::{VisitDraw, VisitLatents, VisitSynthesizer};
pub use user::{DwellModel, UserProfile, INTEREST_HI, INTEREST_LO};
