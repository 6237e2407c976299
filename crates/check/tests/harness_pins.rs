//! Pins what the model checker finds on every radio backend, as
//! literals: the depth-3 exhaustive sweep of the 3G default alphabet and
//! of each ladder alphabet (runs, failing runs, sorted coverage keys),
//! each seeded mutant's depth-3 sweep (failing runs, shrunk
//! counterexample, violated invariants in report order), and a 64-seed
//! 3G fuzz campaign (seeds, failures, coverage keys, retained corpus).
//!
//! The unit tests check a few coverage keys and short counterexamples;
//! these pins hold the harness's whole observable result fixed, so a
//! change to how it is built may change how the helpers below call it,
//! never a literal.

use ewb_check::{default_alphabet, exhaustive, fuzz, ladder_alphabet, ExploreReport, Mutant};
use ewb_rrc::{
    FiveG, FiveGConfig, FiveGMachine, LadderBackend, Lte, LteConfig, LteMachine, RrcConfig,
    RrcMachine, Wifi, WifiConfig, WifiMachine,
};

const DEPTH: usize = 3;

fn three_g(mutant: Mutant) -> ExploreReport {
    exhaustive::<RrcMachine>(&RrcConfig::paper(), &default_alphabet(), DEPTH, mutant)
}

fn lte(mutant: Mutant) -> ExploreReport {
    let cfg = LteConfig::calibrated();
    exhaustive::<LteMachine>(&cfg, &ladder_alphabet(&Lte::spec(&cfg)), DEPTH, mutant)
}

fn wifi(mutant: Mutant) -> ExploreReport {
    let cfg = WifiConfig::calibrated();
    exhaustive::<WifiMachine>(&cfg, &ladder_alphabet(&Wifi::spec(&cfg)), DEPTH, mutant)
}

fn five_g(mutant: Mutant) -> ExploreReport {
    let cfg = FiveGConfig::calibrated();
    exhaustive::<FiveGMachine>(&cfg, &ladder_alphabet(&FiveG::spec(&cfg)), DEPTH, mutant)
}

fn keys(coverage: &std::collections::BTreeSet<String>) -> Vec<&str> {
    coverage.iter().map(String::as_str).collect()
}

fn assert_clean(r: &ExploreReport, runs: u64, coverage: &[&str]) {
    assert_eq!(r.runs, runs);
    assert_eq!(r.failing_runs, 0, "{:?}", r.counterexample);
    assert!(r.counterexample.is_none());
    assert_eq!(keys(&r.coverage), coverage);
}

fn assert_caught(r: &ExploreReport, failing_runs: u64, counterexample: &str, violated: &[&str]) {
    assert_eq!(r.failing_runs, failing_runs);
    let cex = r
        .counterexample
        .as_ref()
        .expect("the mutant must be caught");
    assert_eq!(cex.scenario.to_json_line(), counterexample);
    let invariants: Vec<&str> = cex.violations.iter().map(|v| v.invariant).collect();
    assert_eq!(invariants, violated);
}

#[test]
fn three_g_sweep() {
    assert_clean(
        &three_g(Mutant::None),
        399,
        &[
            "ctr:fach_to_dch",
            "ctr:fast_dormancy_releases",
            "ctr:idle_to_dch",
            "ctr:idle_to_fach",
            "ctr:t1_expirations",
            "ctr:t2_expirations",
            "release:noop",
            "state:DCH",
            "state:FACH",
            "state:IDLE",
            "trans:DCH->FACH",
            "trans:DCH->IDLE",
            "trans:FACH->IDLE",
            "trans:FACH->PROMOTING",
            "trans:IDLE->PROMOTING",
            "trans:PROMOTING->DCH",
            "trans:PROMOTING->FACH",
            "transfer:dch",
            "transfer:dch:zero",
            "transfer:fach",
        ],
    );
}

#[test]
fn lte_sweep() {
    assert_clean(
        &lte(Mutant::None),
        584,
        &[
            "ctr:dwell_expirations",
            "ctr:promotion_retries",
            "ctr:promotions",
            "ctr:releases",
            "release:noop",
            "state:CONNECTED",
            "state:IDLE",
            "state:LONG_DRX",
            "state:SHORT_DRX",
            "trans:CONNECTED->IDLE",
            "trans:CONNECTED->SHORT_DRX",
            "trans:IDLE->PROMOTING",
            "trans:LONG_DRX->IDLE",
            "trans:LONG_DRX->PROMOTING",
            "trans:PROMOTING->CONNECTED",
            "trans:SHORT_DRX->IDLE",
            "trans:SHORT_DRX->LONG_DRX",
            "trans:SHORT_DRX->PROMOTING",
            "transfer",
            "transfer:retries",
            "transfer:zero",
        ],
    );
}

#[test]
fn wifi_sweep() {
    assert_clean(
        &wifi(Mutant::None),
        258,
        &[
            "ctr:dwell_expirations",
            "ctr:promotion_retries",
            "ctr:promotions",
            "ctr:releases",
            "release:noop",
            "state:ACTIVE",
            "state:PSM",
            "trans:CONNECTED->PSM",
            "trans:PROMOTING->CONNECTED",
            "trans:PSM->PROMOTING",
            "transfer",
            "transfer:retries",
            "transfer:zero",
        ],
    );
}

#[test]
fn five_g_sweep() {
    assert_clean(
        &five_g(Mutant::None),
        399,
        &[
            "ctr:dwell_expirations",
            "ctr:promotion_retries",
            "ctr:promotions",
            "ctr:releases",
            "release:noop",
            "state:CDRX",
            "state:CONNECTED",
            "state:IDLE",
            "trans:CDRX->IDLE",
            "trans:CDRX->PROMOTING",
            "trans:CONNECTED->CDRX",
            "trans:CONNECTED->IDLE",
            "trans:IDLE->PROMOTING",
            "trans:PROMOTING->CONNECTED",
            "transfer",
            "transfer:retries",
            "transfer:zero",
        ],
    );
}

#[test]
fn swapped_timers() {
    assert_caught(
        &three_g(Mutant::SwappedTimers),
        96,
        r#"{"name":"exhaustive-d2-3.1.shrunk","steps":[{"Transfer":{"needs_dch":true,"micros":0,"retries":0}},{"Wait":{"micros":4500000}}]}"#,
        &[
            "differential-state",
            "differential-energy",
            "differential-counters",
            "differential-residency",
            "differential-transitions",
        ],
    );
}

#[test]
fn ignored_dormancy() {
    assert_caught(
        &three_g(Mutant::IgnoredDormancy),
        51,
        r#"{"name":"exhaustive-d2-3.6.shrunk","steps":[{"Transfer":{"needs_dch":true,"micros":0,"retries":0}},"Release"]}"#,
        &[
            "differential-state",
            "differential-clock",
            "differential-energy",
            "differential-counters",
            "differential-residency",
            "differential-transitions",
        ],
    );
}

#[test]
fn eager_promotion() {
    assert_caught(
        &three_g(Mutant::EagerPromotion),
        214,
        r#"{"name":"exhaustive-d1-3.shrunk","steps":[{"Transfer":{"needs_dch":true,"micros":0,"retries":0}}]}"#,
        &[
            "differential-data-start",
            "differential-clock",
            "differential-energy",
            "differential-residency",
            "differential-transitions",
        ],
    );
}

#[test]
fn swapped_drx_cycles() {
    assert_caught(
        &lte(Mutant::SwappedDrxCycles),
        117,
        r#"{"name":"exhaustive-d2-4.2.shrunk","steps":[{"Transfer":{"needs_dch":true,"micros":0,"retries":0}},{"Wait":{"micros":1171875}}]}"#,
        &[
            "differential-state",
            "differential-energy",
            "differential-counters",
            "differential-residency",
            "differential-transitions",
        ],
    );
}

#[test]
fn ignored_psm_beacon() {
    assert_caught(
        &wifi(Mutant::IgnoredPsmBeacon),
        144,
        r#"{"name":"exhaustive-d1-0.shrunk","steps":[{"Wait":{"micros":1}}]}"#,
        &["differential-energy"],
    );
}

#[test]
fn eager_five_g_release() {
    assert_caught(
        &five_g(Mutant::EagerFiveGRelease),
        96,
        r#"{"name":"exhaustive-d2-3.1.shrunk","steps":[{"Transfer":{"needs_dch":true,"micros":0,"retries":0}},{"Wait":{"micros":618750}}]}"#,
        &[
            "differential-state",
            "differential-energy",
            "differential-counters",
            "differential-residency",
            "differential-transitions",
        ],
    );
}

#[test]
fn three_g_fuzz_campaign() {
    let r = fuzz(&RrcConfig::paper(), 64, 12, Mutant::None);
    assert_eq!(r.seeds_run, 64);
    assert_eq!(r.failing_seeds, 0, "{:?}", r.counterexample);
    assert_eq!(
        keys(&r.coverage),
        [
            "cpu_load",
            "ctr:fach_to_dch",
            "ctr:fast_dormancy_releases",
            "ctr:idle_to_dch",
            "ctr:idle_to_fach",
            "ctr:promotion_retries",
            "ctr:t1_expirations",
            "ctr:t2_expirations",
            "release:noop",
            "state:DCH",
            "state:FACH",
            "state:IDLE",
            "trans:DCH->FACH",
            "trans:DCH->IDLE",
            "trans:FACH->IDLE",
            "trans:FACH->PROMOTING",
            "trans:IDLE->PROMOTING",
            "trans:PROMOTING->DCH",
            "trans:PROMOTING->FACH",
            "transfer:dch",
            "transfer:fach",
            "transfer:retries",
        ]
    );
    assert_eq!(r.corpus.len(), 7);
}
