//! Robustness loss sweep (fault profile × loss rate, both browsers).
//!
//! Usage: `robustness_sweep`
//!
//! Prints the sweep table, then rewrites the two goldens the tier-1
//! tests pin byte for byte: the sweep summary
//! `crates/core/tests/golden/robustness.json` and the reference
//! session's observability timeline
//! `crates/core/tests/golden/timeline.jsonl`
//! ([`ewb_core::experiments::timeline`]).

use ewb_bench::REPORT_SEED;
use ewb_core::experiments::{robustness, timeline};

fn main() {
    ewb_bench::cli::Args::parse(&[]);
    let ctx = ewb_bench::Context::new();
    let rows = robustness::sweep(&ctx.corpus, &ctx.server, &ctx.cfg, REPORT_SEED);
    print!("{}", ewb_bench::reports::robustness_report(&rows));
    ewb_bench::write_golden("robustness.json", robustness::summary_json(&rows));
    let (events, _) =
        timeline::record_session_timeline(&ctx.corpus, &ctx.server, &ctx.cfg, REPORT_SEED);
    ewb_bench::write_golden("timeline.jsonl", ewb_core::obs::timeline::to_jsonl(&events));
}
