//! # ewb-gbrt — Gradient Boosted Regression Trees, from scratch
//!
//! The paper's second technique (§4.3) predicts how long the user will
//! read a page using Gradient Boosted Regression Trees (Friedman 1999),
//! chosen because prediction with a forest of small decision trees is
//! cheap enough for a smartphone. This crate is a complete, dependency-free
//! implementation of the algorithm the paper describes:
//!
//! * [`RegressionTree`] — CART-style regression trees with **J terminal
//!   nodes** (grown best-first by impurity reduction, exactly the
//!   `J-terminalnode tree` of the paper's Algorithm 1);
//! * [`Gbrt`] / [`GbrtModel`] — stagewise gradient boosting with squared
//!   loss from a median start (§4.3.3), shrinkage, and optional row
//!   subsampling;
//! * [`Dataset`] — a validated feature matrix with train/test splitting;
//! * feature importance, loss curves, and JSON model serialization
//!   (models are "trained offline on a PC ... then deploy the tree model
//!   to the prediction program", §4.3.3 — serialization is that deploy
//!   step).
//!
//! # Example
//!
//! ```
//! use ewb_gbrt::{Dataset, Gbrt, GbrtParams};
//!
//! // y = x0 * 10 + noise-free interaction
//! let rows: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![(i % 20) as f64, (i % 3) as f64])
//!     .collect();
//! let targets: Vec<f64> = rows.iter().map(|r| r[0] * 10.0 + r[1] * r[1]).collect();
//! let data = Dataset::new(rows, targets).unwrap();
//!
//! let params = GbrtParams { n_trees: 50, ..GbrtParams::default() };
//! let model = Gbrt::fit(&data, &params);
//! let err = ewb_gbrt::rmse(&model.predict_all(&data), data.targets());
//! assert!(err < 2.0, "rmse {err}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boost;
mod data;
mod eval;
mod flat;
mod importance;
mod loss;
mod reference;
mod splitter;
mod tree;

pub use boost::{Gbrt, GbrtModel, GbrtParams};
pub use data::{Dataset, DatasetError};
pub use eval::{rmse, threshold_accuracy};
pub use flat::FlatForest;
pub use importance::feature_importance;
pub use tree::{RegressionTree, TreeParams};
