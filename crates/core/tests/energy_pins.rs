//! Bit pins of every windowed energy figure: the per-visit `load_joules`
//! and `reading_joules` of a session on 3G and on LTE, the five Table 5
//! rows, and two Fig. 3 cycles.
//!
//! Each of these integrates power over a window `[from, to)` rather than
//! folding a machine's total. The window integral merges contiguous
//! equal-power spans before it multiplies, and `w·(d1 + d2)` is not
//! bitwise `w·d1 + w·d2`, so an implementation that splits or merges
//! differently moves these bits while every total, golden and fingerprint
//! stays put. The literals below were taken from the segment-list meter
//! these figures were first computed with.

use ewb_core::cases::Case;
use ewb_core::obs::{ledger, Recorder};
use ewb_core::rrc::{intuitive, scenario, LteConfig, LteMachine, RadioModel, RrcConfig};
use ewb_core::session::{simulate_session, SessionOpts, Visit};
use ewb_core::simcore::{SimDuration, SimTime};
use ewb_core::webpage::{benchmark_corpus, OriginServer, PageVersion};
use ewb_core::CoreConfig;

/// Matches `ewb_bench::REPORT_SEED`, the seed every report uses.
const SEED: u64 = 2013;

/// The session: `(site, version, reading seconds)`. The readings put the
/// clicks of visits 1–4 in DCH (1 s read, inside T1), FACH (8 s, past T1
/// and short of Accurate-9's 9 s threshold), IDLE (30 s, past T1 + T2
/// without a release, released under Accurate-9) and then FACH or IDLE
/// (12 s: FACH under Original, released under Accurate-9).
const VISITS: [(&str, PageVersion, f64); 5] = [
    ("espn", PageVersion::Mobile, 1.0),
    ("cnn", PageVersion::Mobile, 8.0),
    ("bbc", PageVersion::Mobile, 30.0),
    ("msn", PageVersion::Full, 12.0),
    ("aol", PageVersion::Mobile, 5.0),
];

/// `(load_joules, reading_joules)` bits per visit.
type VisitBits = [(u64, u64); 5];

fn session_bits<R: RadioModel>(opts: SessionOpts<'_, R>, case: Case) -> (VisitBits, Recorder) {
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
    let recorder = opts.recorder.clone();
    let out = simulate_session(&server, &visits, case, &cfg, opts);
    let bits: Vec<(u64, u64)> = out
        .pages
        .iter()
        .map(|p| (p.load_joules.to_bits(), p.reading_joules.to_bits()))
        .collect();
    (bits.try_into().expect("one record per visit"), recorder)
}

fn three_g(case: Case) -> VisitBits {
    let cfg = CoreConfig::paper();
    session_bits(SessionOpts::three_g(&cfg), case).0
}

fn lte(case: Case) -> VisitBits {
    session_bits(
        SessionOpts::<LteMachine>::new(LteConfig::calibrated()),
        case,
    )
    .0
}

#[track_caller]
fn assert_bits(label: &str, actual: &[(u64, u64)], expected: &[(u64, u64)]) {
    assert_eq!(
        actual,
        expected,
        "{label}: windowed joules moved\n  actual:   {}\n  expected: {}",
        hex_pairs(actual),
        hex_pairs(expected)
    );
}

fn hex_pairs(pairs: &[(u64, u64)]) -> String {
    pairs
        .iter()
        .map(|(a, b)| format!("(0x{a:016x}, 0x{b:016x})"))
        .collect::<Vec<_>>()
        .join(", ")
}

const THREE_G_ORIGINAL: VisitBits = [
    (0x4029090161290fc2, 0x3ff2666666666666),
    (0x4013cb2d864b083c, 0x401c1a5787506bd3),
    (0x4014c7b5bc0f0f68, 0x402f33a8826aa8eb),
    (0x4043576d81e39a70, 0x4022b44fb5cad2a2),
    (0x40169de3509cd088, 0x4014b6b65d49b225),
];
const THREE_G_ACCURATE9: VisitBits = [
    (0x4027a1071674b689, 0x3ff2666666666666),
    (0x40108e9336a90979, 0x401bb97f6565e059),
    (0x4012d3c05d52c16e, 0x401acccccccccccc),
    (0x4040784df2d21a13, 0x400ce9a5bb65f222),
    (0x40260ff4a4822ae7, 0x4014383e5a83af21),
];
const LTE_ORIGINAL: VisitBits = [
    (0x4014b350cb4994f4, 0x3fb3fa759829fa46),
    (0x401111624cc8a7f2, 0x3fdff309c7654005),
    (0x400c3603faa53bfd, 0x3fef652c823f0a00),
    (0x40395a13dec2baf1, 0x3fe5ce32108498bc),
    (0x401122e1d60d2c26, 0x3fd483843025e292),
];
const LTE_ACCURATE9: VisitBits = [
    (0x4010ba4ece21ea13, 0x3fb283e779291454),
    (0x400a492be140886d, 0x3fdfbcd7b85a9c50),
    (0x4006d2c74545d1be, 0x3fe1d31d2d2ed9a9),
    (0x4031a7ceedc971a4, 0x3fd1770a3d70a3d6),
    (0x400bf1100c815c7c, 0x3fd43041ad5210cc),
];

#[test]
fn three_g_session_windows_keep_their_bits() {
    assert_bits("3G Original", &three_g(Case::Original), &THREE_G_ORIGINAL);
    assert_bits(
        "3G Accurate-9",
        &three_g(Case::Accurate9),
        &THREE_G_ACCURATE9,
    );
}

#[test]
fn lte_session_windows_keep_their_bits() {
    assert_bits("LTE Original", &lte(Case::Original), &LTE_ORIGINAL);
    assert_bits("LTE Accurate-9", &lte(Case::Accurate9), &LTE_ACCURATE9);
}

/// The pinned 3G session covers every click state and a release: the
/// state the radio is in just before each click is read off the ledger
/// entry that ends there.
#[test]
fn the_pinned_session_clicks_in_every_state_and_releases() {
    let cfg = CoreConfig::paper();
    for (case, want) in [
        (Case::Original, ["IDLE", "DCH", "FACH", "IDLE", "FACH"]),
        (Case::Accurate9, ["IDLE", "DCH", "FACH", "IDLE", "IDLE"]),
    ] {
        let opts = SessionOpts {
            recorder: Recorder::memory(),
            ..SessionOpts::three_g(&cfg)
        };
        let (_, recorder) = session_bits(opts, case);
        let events = recorder.events();
        let entries = ledger::entries(&events);
        let clicks: Vec<SimTime> = events
            .iter()
            .filter_map(|e| match e {
                ewb_core::obs::Event::PageVisit { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        let states: Vec<String> = clicks
            .iter()
            .map(|&click| match entries.iter().find(|e| e.end == click) {
                Some(e) => e.state.to_string(),
                None => "IDLE".to_string(),
            })
            .collect();
        assert_eq!(states, want, "{case:?} click states");
        let releases = events
            .iter()
            .filter(|e| matches!(e, ewb_core::obs::Event::FastDormancy { .. }))
            .count();
        assert_eq!(
            releases,
            usize::from(case == Case::Accurate9) * 2,
            "{case:?}"
        );
    }
}

#[test]
fn table5_rows_keep_their_bits() {
    let rows: Vec<(String, u64)> = scenario::measured_state_powers(&RrcConfig::paper())
        .into_iter()
        .map(|(name, watts)| (name, watts.to_bits()))
        .collect();
    let expected: Vec<(String, u64)> = [
        ("IDLE state", 0x3fc3333333333333),
        ("DCH state with transmission", 0x3ff4000000000000),
        ("DCH state without transmission", 0x3ff2666666666666),
        ("FACH state", 0x3fe428f5c28f5c29),
        ("Fully running CPU (IDLE state)", 0x3fe3333333333333),
    ]
    .into_iter()
    .map(|(name, bits)| (name.to_string(), bits))
    .collect();
    assert_eq!(rows, expected, "{rows:#x?}");
}

#[test]
fn fig3_cycles_keep_their_bits() {
    let cfg = RrcConfig::paper();
    let transfer = SimDuration::from_millis(500);
    let bits: Vec<(u64, u64)> = [3, 15]
        .into_iter()
        .map(|s| {
            let p = intuitive::compare_at_interval(&cfg, SimDuration::from_secs(s), transfer);
            (p.original_j.to_bits(), p.intuitive_j.to_bits())
        })
        .collect();
    assert_bits(
        "Fig. 3 at 3 s and 15 s",
        &bits,
        &[
            (0x400c000000000000, 0x4020666666666667),
            (0x4029c00000000000, 0x4024000000000000),
        ],
    );
}
