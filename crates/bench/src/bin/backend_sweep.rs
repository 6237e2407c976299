//! Cross-backend policy sweep: re-runs the paper's headline cases on
//! every radio backend (3G RRC, LTE DRX, WiFi PSM, 5G cDRX) and
//! tabulates per-backend power/delay savings — does computation
//! reorganization still pay off when promotions are cheap?
//!
//! Usage: `backend_sweep [--write-golden]`
//!
//! Before printing anything the binary asserts the per-backend fleet
//! determinism grid: the per-site energy totals of the Accurate-9 case
//! are sharded over {1, 2, 7} shards × {1, 8} worker threads and the
//! merged integer-microjoule totals must be identical on every grid
//! point, for every backend. A red determinism bit can never ship
//! inside a green sweep.
//!
//! The sweep writes `BENCH_backends.json` into the working directory.
//! `--write-golden` also refreshes
//! `crates/core/tests/golden/backends.json`, the summary the
//! `golden_backends` test pins byte-for-byte.

use ewb_core::cases::Case;
use ewb_core::experiments::backends::{self, BackendCaseRow, CASES};
use ewb_core::rrc::{
    FiveGConfig, FiveGMachine, LteConfig, LteMachine, RadioBackend, RrcMachine, WifiConfig,
    WifiMachine,
};
use serde::Serialize;

/// Integer microjoules of one per-site total — the associative merge
/// unit of the determinism grid (f64 summation is not associative;
/// integer addition is, so shard merges cannot depend on the split).
fn micro_j(joules: f64) -> u64 {
    let uj = (joules * 1e6).round();
    assert!(
        uj.is_finite() && (0.0..=u64::MAX as f64).contains(&uj),
        "energy {joules} J out of microjoule range"
    );
    uj as u64
}

/// Shards `per_site_uj` round-robin over `shards` shards, sums each
/// shard on its own scoped worker (up to `threads` running at once),
/// then merges shard subtotals in shard order.
fn sharded_total(per_site_uj: &[u64], shards: usize, threads: usize) -> u64 {
    let mut shard_totals = vec![0u64; shards];
    std::thread::scope(|scope| {
        for chunk in shard_totals.chunks_mut(threads).zip(0usize..) {
            let (chunk, chunk_idx) = chunk;
            let base = chunk_idx * threads;
            let mut workers = Vec::new();
            for (k, slot) in chunk.iter_mut().enumerate() {
                let shard = base + k;
                workers.push((
                    slot,
                    scope.spawn(move || {
                        per_site_uj
                            .iter()
                            .enumerate()
                            .filter(|(site, _)| site % shards == shard)
                            .map(|(_, &uj)| uj)
                            .sum::<u64>()
                    }),
                ));
            }
            for (slot, worker) in workers {
                *slot = worker.join().expect("shard worker panicked");
            }
        }
    });
    shard_totals.iter().sum()
}

/// Asserts the determinism grid for one backend's per-site totals.
fn assert_determinism_grid(backend: RadioBackend, per_site: &[(f64, f64)]) {
    let per_site_uj: Vec<u64> = per_site.iter().map(|&(j, _)| micro_j(j)).collect();
    let reference = sharded_total(&per_site_uj, 1, 1);
    for shards in [1usize, 2, 7] {
        for threads in [1usize, 8] {
            let total = sharded_total(&per_site_uj, shards, threads);
            assert_eq!(
                total, reference,
                "{backend}: merged µJ total differs at shards {shards}, threads {threads}"
            );
        }
    }
}

fn main() {
    let args = ewb_bench::cli::Args::parse(&[("--write-golden", "")]);
    let ctx = ewb_bench::Context::new();

    // -- Determinism grid, per backend, before any reporting. -----------
    let grids = [
        (
            RadioBackend::ThreeG,
            backends::per_site_totals::<RrcMachine>(
                &ctx.corpus,
                &ctx.server,
                &ctx.cfg,
                ctx.cfg.rrc,
                Case::Accurate9,
            ),
        ),
        (
            RadioBackend::Lte,
            backends::per_site_totals::<LteMachine>(
                &ctx.corpus,
                &ctx.server,
                &ctx.cfg,
                LteConfig::calibrated(),
                Case::Accurate9,
            ),
        ),
        (
            RadioBackend::Wifi,
            backends::per_site_totals::<WifiMachine>(
                &ctx.corpus,
                &ctx.server,
                &ctx.cfg,
                WifiConfig::calibrated(),
                Case::Accurate9,
            ),
        ),
        (
            RadioBackend::FiveG,
            backends::per_site_totals::<FiveGMachine>(
                &ctx.corpus,
                &ctx.server,
                &ctx.cfg,
                FiveGConfig::calibrated(),
                Case::Accurate9,
            ),
        ),
    ];
    for (backend, per_site) in &grids {
        assert_determinism_grid(*backend, per_site);
    }
    println!(
        "determinism: merged µJ totals identical across shards {{1,2,7}} x threads {{1,8}} \
         on all {} backends",
        grids.len()
    );

    // -- The sweep. ------------------------------------------------------
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

    // -- Artifacts. ------------------------------------------------------
    let bench = Bench {
        determinism_grid_ok: true,
        backends: RadioBackend::ALL.len(),
        cases: CASES.len(),
        rows: rows.clone(),
    };
    let json = serde_json::to_string(&bench).expect("the BENCH record is always serializable");
    ewb_bench::write_atomic("BENCH_backends.json", json);
    println!("wrote BENCH_backends.json");

    if args.has("--write-golden") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../core/tests/golden/backends.json"
        );
        ewb_bench::write_atomic(path, backends::summary_json(&rows));
        eprintln!("wrote {path}");
    }
}

/// The tracked benchmark artifact: grid verdict plus every sweep cell.
#[derive(Serialize)]
struct Bench {
    determinism_grid_ok: bool,
    backends: usize,
    cases: usize,
    rows: Vec<BackendCaseRow>,
}
