//! # ewb-lint — determinism & units static analysis for this workspace
//!
//! Every number this reproduction publishes — the energy-saving tables,
//! the golden timelines, the bit-identical ledger folds — rests on two
//! invariants the compiler cannot check:
//!
//! 1. **determinism**: simulation output is a pure function of
//!    (config, seed) — no wall clock, no `HashMap` iteration order in
//!    serialized paths, no ambient randomness;
//! 2. **unit discipline**: joules, seconds, milliseconds, watts, and
//!    bytes never mix silently (every quantity is a bare `f64`, so names
//!    carry the units).
//!
//! `ewb-lint` enforces both statically, from scratch: a hand-rolled Rust
//! [`lexer`] (raw strings, lifetimes, nested block comments) feeds a
//! total recursive-descent parser ([`ast`]), the one structural model of
//! a file. Its items carry the file's single definition of test code,
//! and its expression trees power the [`dataflow`] passes (dimensional
//! analysis, division-guard proofs, seed provenance) and a crate-level
//! serialization-taint approximation ([`callgraph`]); eleven [`rules`]
//! across five families (determinism, units, parallel, rng, API hygiene)
//! run over the AST and the lexer's tokens. Findings can be suppressed
//! *only* with an in-source justification
//! ([`allow`]: `// lint:allow(<rule>) <why>`) or scoped by crate in the
//! workspace [`config`] (`lint.toml`: the crates that may read the wall
//! clock, the crates that must stay f64-only).
//!
//! The `lint_all` binary runs the pass over the workspace:
//!
//! ```text
//! cargo run -p ewb-lint --release -- --deny-all --json
//! ```
//!
//! CI gates on `--deny-all` (any finding fails the build) and on the
//! `--json` report counting zero parse errors, and the crate's own test
//! suite proves the rules have teeth: every rule must fire on its
//! known-bad fixture and stay silent on the known-good one, and the
//! workspace itself must lint clean.
//!
//! ```
//! use ewb_lint::engine::{lint_files, SourceFile};
//! use ewb_lint::config::Policy;
//!
//! let files = vec![SourceFile {
//!     rel_path: "crates/core/src/x.rs".into(),
//!     text: "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n".into(),
//! }];
//! let out = lint_files(&files, &Policy::builtin());
//! assert_eq!(out.diagnostics.len(), 1);
//! assert_eq!(out.diagnostics[0].rule, "api/no-unwrap");
//! ```

pub mod allow;
pub mod ast;
pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use config::Policy;
pub use diag::Diagnostic;
pub use engine::{count_lines, lint_files, lint_root, LineCount, Outcome, SourceFile};
pub use rules::ALL_RULES;
