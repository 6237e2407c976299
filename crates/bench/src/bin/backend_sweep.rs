//! Cross-backend policy sweep: re-runs the paper's headline cases on
//! every radio backend (3G RRC, LTE DRX, WiFi PSM, 5G cDRX) and
//! tabulates per-backend power/delay savings — does computation
//! reorganization still pay off when promotions are cheap?
//!
//! Usage: `backend_sweep`
//!
//! Every run rewrites `crates/core/tests/golden/backends.json`, the
//! summary the `golden_backends` test pins byte for byte, so a run that
//! leaves `git status` clean reproduced the committed sweep.

use ewb_core::cases::Case;
use ewb_core::experiments::backends;
use ewb_core::rrc::RadioBackend;

fn main() {
    ewb_bench::cli::Args::parse(&[]);
    let ctx = ewb_bench::Context::new();
    let rows = backends::sweep(&ctx.corpus, &ctx.server, &ctx.cfg);

    print!(
        "{}",
        ewb_bench::header(
            "Cross-backend policy savings (radio generalization)",
            "Table 6 cases re-run per radio backend; 3G = paper",
        )
    );
    println!(
        "{:<6} {:>24} {:>12} {:>12} {:>9} {:>9}",
        "radio", "case", "energy (J)", "load (s)", "power", "delay"
    );
    for r in &rows {
        println!(
            "{:<6} {:>24} {:>12.2} {:>12.2} {:>9} {:>9}",
            r.backend,
            r.case,
            r.joules,
            r.load_time_s,
            ewb_bench::pct(r.power_saving),
            ewb_bench::pct(r.delay_saving),
        );
    }
    let acc9 = |b: RadioBackend| backends::saving_of(&rows, b, Case::Accurate9);
    println!(
        "\nAccurate-9 power saving by backend: 3G {} > LTE {} / WiFi {} / 5G {} — \
         reorganization still pays everywhere, but the release win shrinks \
         with the tail.",
        ewb_bench::pct(acc9(RadioBackend::ThreeG)),
        ewb_bench::pct(acc9(RadioBackend::Lte)),
        ewb_bench::pct(acc9(RadioBackend::Wifi)),
        ewb_bench::pct(acc9(RadioBackend::FiveG)),
    );

    ewb_bench::write_golden("backends.json", backends::summary_json(&rows));
}
