//! # ewb-bench — the evaluation harness
//!
//! One reporting function per paper figure/table, each returning the
//! formatted report [`REPORTS`] names it by. `cargo run -p ewb-bench
//! --release --bin all_figures` prints them all (that output is the basis
//! of EXPERIMENTS.md); `-- --only <name>` regenerates a single artifact.
//! The other binaries run the sweeps, fleet runs and checks; each sweep
//! rewrites its golden files and `fleet_bench` its BENCH file on every
//! run. Every binary parses its flags through [`cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod reports;

use ewb_core::webpage::{benchmark_corpus, Corpus, OriginServer};
use ewb_core::CoreConfig;

/// The seed every report uses, so EXPERIMENTS.md is reproducible.
pub const REPORT_SEED: u64 = 2013;

/// Shared experiment context.
pub struct Context {
    /// The Table 3 corpus.
    pub corpus: Corpus,
    /// The origin server holding it.
    pub server: OriginServer,
    /// The paper configuration.
    pub cfg: CoreConfig,
}

impl Context {
    /// Builds the standard context.
    pub fn new() -> Self {
        let corpus = benchmark_corpus(REPORT_SEED);
        let server = OriginServer::from_corpus(&corpus);
        Context {
            corpus,
            server,
            cfg: CoreConfig::paper(),
        }
    }
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

/// A report `all_figures` prints: the name `--only` selects it by, and
/// the function that formats it given whether `--quick` was passed.
pub type Report = (&'static str, fn(&Context, bool) -> String);

/// Every report, in the order `all_figures` prints them. `--quick`
/// shortens the Fig. 11 horizon and the Fig. 16 slice.
pub const REPORTS: [Report; 25] = [
    ("fig01_power_states", |ctx, _| reports::fig01(ctx)),
    ("fig03_intuitive", |ctx, _| reports::fig03(ctx)),
    ("fig04_traffic", |ctx, _| reports::fig04(ctx)),
    ("fig05_sequence", |ctx, _| reports::fig05(ctx)),
    ("fig07_reading_cdf", |_, _| reports::fig07()),
    ("fig08_transmission", |ctx, _| reports::fig08(ctx)),
    ("fig09_power_trace", |ctx, _| reports::fig09(ctx)),
    ("fig10_power", |ctx, _| reports::fig10(ctx)),
    ("fig11_capacity", |ctx, quick| {
        reports::fig11(ctx, if quick { 20_000.0 } else { 4.0 * 3600.0 })
    }),
    ("fig1213_display", |ctx, _| reports::fig1213(ctx)),
    ("fig14_display_avg", |ctx, _| reports::fig14(ctx)),
    ("fig15_accuracy", |_, _| reports::fig15()),
    ("fig16_cases", |ctx, quick| {
        let (users, sessions) = if quick { (2, 4) } else { (6, 10) };
        reports::fig16(ctx, users, sessions)
    }),
    ("table3_benchmark", |ctx, _| reports::table3(ctx)),
    ("table4_pearson", |_, _| reports::table4()),
    ("table5_power_states", |ctx, _| reports::table5(ctx)),
    ("table7_prediction_cost", |_, _| reports::table7()),
    ("ablate_promotion", |_, _| ablations::promotion_energy()),
    ("ablate_interest_threshold", |_, _| {
        ablations::interest_threshold()
    }),
    ("ablate_gbrt_size", |_, _| ablations::gbrt_size()),
    ("ablate_timers", |_, _| ablations::timers()),
    ("ablate_saving_breakdown", |ctx, _| {
        ablations::saving_breakdown(ctx)
    }),
    ("baseline_proxy", |ctx, _| ablations::proxy_baseline(ctx)),
    ("ablate_layout_cache", |ctx, _| ablations::layout_cache(ctx)),
    ("ablate_connection_pool", |ctx, _| {
        ablations::connection_pool(ctx)
    }),
];

/// Writes `contents` to `path` atomically: stages into `<path>.tmp`, then
/// renames over `path`. A crash (or a concurrent reader) never observes a
/// torn artifact — the same discipline the fleet checkpoint uses.
///
/// # Panics
///
/// Panics if the staging write or the rename fails.
pub fn write_atomic(path: &str, contents: impl AsRef<[u8]>) {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).unwrap_or_else(|e| panic!("write {tmp}: {e}"));
    std::fs::rename(&tmp, path).unwrap_or_else(|e| panic!("rename {tmp} -> {path}: {e}"));
}

/// Rewrites the golden file `name` under `crates/core/tests/golden/`, the
/// record a tier-1 test pins byte for byte, via [`write_atomic`].
///
/// # Panics
///
/// Panics if the file is not writable.
pub fn write_golden(name: &str, contents: impl AsRef<[u8]>) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/tests/golden");
    write_atomic(&format!("{dir}/{name}"), contents);
    println!("wrote crates/core/tests/golden/{name}");
}

/// Formats a fraction as a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Report header with the paper reference.
pub fn header(title: &str, paper: &str) -> String {
    format!(
        "================================================================\n\
         {title}\n  paper reference: {paper}\n\
         ================================================================\n"
    )
}
