//! Robustness loss sweep (fault profile × loss rate, both browsers).
//! `--write-golden` refreshes the golden artifacts the CI jobs pin
//! (`crates/core/tests/golden/robustness.json` and the observability
//! timeline `crates/core/tests/golden/timeline.jsonl`).
fn main() {
    let args = ewb_bench::cli::Args::parse(&[("--write-golden", "")]);
    let ctx = ewb_bench::Context::new();
    print!("{}", ewb_bench::reports::robustness_report(&ctx));
    if args.has("--write-golden") {
        let rows = ewb_core::experiments::robustness::sweep(
            &ctx.corpus,
            &ctx.server,
            &ctx.cfg,
            ewb_bench::REPORT_SEED,
        );
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../core/tests/golden/robustness.json"
        );
        ewb_bench::write_atomic(path, ewb_core::experiments::robustness::summary_json(&rows));
        eprintln!("wrote {path}");
        let timeline_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../core/tests/golden/timeline.jsonl"
        );
        ewb_bench::write_timeline(&ctx, timeline_path);
    }
}
