//! Bit pins of planned sessions: `total_joules` and `total_load_time_s`
//! of one three-visit session under two parallelism plans, on a clean
//! and a lossy-10 % link, on each of the four radio backends.
//!
//! `golden_parallel` pins the clean 3G sweep only. These pins cover what
//! it does not: a faulted link under a plan (retries land between the
//! fanned-out stages) and the helper-core CPU power of a plan riding
//! into the LTE, WiFi and 5G replays. A change to how a plan's stage
//! units run, or to how their busy intervals are priced, moves these
//! bits even where every clean 3G golden stays put.

use ewb_core::browser::parallel::ParallelismPlan;
use ewb_core::cases::Case;
use ewb_core::net::FaultConfig;
use ewb_core::rrc::{
    FiveGConfig, FiveGMachine, LteConfig, LteMachine, RadioModel, RrcMachine, WifiConfig,
    WifiMachine,
};
use ewb_core::session::{simulate_session, SessionFaults, SessionOpts, Visit};
use ewb_core::webpage::{benchmark_corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

/// Matches `ewb_bench::REPORT_SEED`; also the fault stream's seed.
const SEED: u64 = 2013;

/// The session: `(site, version, reading seconds)`. The readings drag
/// the radio through DCH, FACH and IDLE clicks.
const VISITS: [(&str, PageVersion, f64); 3] = [
    ("espn", PageVersion::Full, 2.0),
    ("cnn", PageVersion::Mobile, 6.0),
    ("ebay", PageVersion::Full, 30.0),
];

/// `(link, plan, total_joules bits, total_load_time_s bits)`.
type Pin = (&'static str, &'static str, u64, u64);

const THREE_G: [Pin; 4] = [
    ("clean", "d2s2o1", 0x40584a4b0a1f3db5, 0x4049c94a2b9d3cbc),
    ("clean", "d8s8o0", 0x40578ce922a398f7, 0x40487b3b7d84901d),
    ("lossy10", "d2s2o1", 0x4066411489748867, 0x405d53168f8e7ddd),
    ("lossy10", "d8s8o0", 0x4065e23537d55962, 0x405cac0f3882278d),
];
const LTE: [Pin; 4] = [
    ("clean", "d2s2o1", 0x404a1ef008e4de9f, 0x404799ee02a77a2d),
    ("clean", "d8s8o0", 0x404a3045ca10040c, 0x40464bdf548ecd8e),
    ("lossy10", "d2s2o1", 0x405ed8a63aba103c, 0x405c5a20ccff21b4),
    ("lossy10", "d8s8o0", 0x405edcf6ea1644ff, 0x405bb31975f2cb64),
];
const WIFI: [Pin; 4] = [
    ("clean", "d2s2o1", 0x40474f6e18a4919e, 0x40475c7d5ed06ff0),
    ("clean", "d8s8o0", 0x4047597310667f94, 0x40460e6eb0b7c350),
    ("lossy10", "d2s2o1", 0x4059f37179e06bc6, 0x405c697cf5f4e443),
    ("lossy10", "d8s8o0", 0x4059f50b6571f4c9, 0x405bc2759ee88df3),
];
const FIVE_G: [Pin; 4] = [
    ("clean", "d2s2o1", 0x405019372a891ccc, 0x404738027d88c1db),
    ("clean", "d8s8o0", 0x405029e1cc198838, 0x4045e9f3cf70153c),
    ("lossy10", "d2s2o1", 0x40645b5d84f3951f, 0x405c16bc72e275ac),
    ("lossy10", "d8s8o0", 0x406460919ecb8d89, 0x405b6fb51bd61f5c),
];

/// The pinned plans under their [`ParallelismPlan::id`]s.
const PLANS: [(&str, ParallelismPlan); 2] = [
    (
        "d2s2o1",
        ParallelismPlan {
            decode_threads: 2,
            style_threads: 2,
            overlap_css: true,
        },
    ),
    (
        "d8s8o0",
        ParallelismPlan {
            decode_threads: 8,
            style_threads: 8,
            overlap_css: false,
        },
    ),
];

/// Every pinned cell of one backend, in table order.
fn backend_pins<R: RadioModel>(radio: R::Config) -> Vec<Pin> {
    let corpus = benchmark_corpus(SEED);
    let server = OriginServer::from_corpus(&corpus);
    let cfg = CoreConfig::paper();
    let visits: Vec<Visit<'_>> = VISITS
        .iter()
        .map(|&(site, version, reading_s)| Visit {
            page: corpus.page(site, version).expect("corpus page"),
            reading_s,
            features: None,
        })
        .collect();
    let lossy = SessionFaults::new(FaultConfig::lossy(0.10), SEED);
    let mut pins = Vec::new();
    for (link, faults) in [("clean", None), ("lossy10", Some(&lossy))] {
        for (plan_id, plan) in PLANS {
            let opts = SessionOpts::<R> {
                faults,
                plan,
                ..SessionOpts::new(radio)
            };
            let out = simulate_session(&server, &visits, Case::EnergyAwareAlwaysOff, &cfg, opts);
            pins.push((
                link,
                plan_id,
                out.total_joules.to_bits(),
                out.total_load_time_s.to_bits(),
            ));
        }
    }
    pins
}

#[track_caller]
fn assert_pins(backend: &str, actual: &[Pin], expected: &[Pin]) {
    let rows = |pins: &[Pin]| {
        pins.iter()
            .map(|(l, p, j, t)| format!("    ({l:?}, {p:?}, 0x{j:016x}, 0x{t:016x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        actual,
        expected,
        "{backend}: planned-session bits moved\n  actual:\n{}\n  expected:\n{}",
        rows(actual),
        rows(expected)
    );
}

#[test]
fn plan_ids_name_the_pinned_plans() {
    for (id, plan) in PLANS {
        assert_eq!(plan.id(), id);
    }
}

#[test]
fn three_g_planned_sessions_keep_their_bits() {
    let cfg = CoreConfig::paper();
    assert_pins("3G", &backend_pins::<RrcMachine>(cfg.rrc), &THREE_G);
}

#[test]
fn lte_planned_sessions_keep_their_bits() {
    let actual = backend_pins::<LteMachine>(LteConfig::calibrated());
    assert_pins("LTE", &actual, &LTE);
}

#[test]
fn wifi_planned_sessions_keep_their_bits() {
    let actual = backend_pins::<WifiMachine>(WifiConfig::calibrated());
    assert_pins("WiFi", &actual, &WIFI);
}

#[test]
fn five_g_planned_sessions_keep_their_bits() {
    let actual = backend_pins::<FiveGMachine>(FiveGConfig::calibrated());
    assert_pins("5G", &actual, &FIVE_G);
}
