//! Ablations of the design choices DESIGN.md calls out.

use crate::{header, pct, Context};
use ewb_core::cases::Case;
use ewb_core::experiments::{energy, single_visit};
use ewb_core::gbrt::GbrtParams;
use ewb_core::rrc::{intuitive, PowerModel, RrcConfig};
use ewb_core::simcore::{par_map, SimDuration};
use ewb_core::traces::{
    accuracy_grid, reading_time_params, EvalCell, ReadingTimePredictor, TraceConfig, TraceDataset,
};
use ewb_core::webpage::PageVersion;
use ewb_core::CoreConfig;
use std::fmt::Write as _;

/// Ablation 1 — sweep the calibrated promotion energy and watch the
/// Fig. 3 break-even move through the paper's 9 s.
pub fn promotion_energy() -> String {
    let mut out = header(
        "Ablation — IDLE->DCH promotion energy vs Fig. 3 break-even",
        "DESIGN.md: default 7.0 J calibrated to the 9 s break-even",
    );
    let _ = writeln!(out, "{:>14} {:>14}", "promotion J", "break-even s");
    // The calibrated promotion draw spreads the aggregate energy over
    // the 1.75 s IDLE->DCH promotion latency (see `PowerModel::paper`).
    let promotion_latency_s = 1.75;
    for promo_j in [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0] {
        let cfg = RrcConfig {
            power: PowerModel {
                promotion_w: promo_j / promotion_latency_s,
                ..PowerModel::paper()
            },
            ..RrcConfig::paper()
        };
        let be = intuitive::break_even(&cfg, SimDuration::from_millis(500));
        let _ = writeln!(out, "{promo_j:>14.1} {be:>14.2}");
    }
    out
}

/// Ablation 2 — the interest threshold α vs prediction accuracy.
pub fn interest_threshold() -> String {
    let mut out = header(
        "Ablation — interest threshold α vs prediction accuracy (Tp=9)",
        "the paper sets α = 2 s from the 30% quick-bounce knee",
    );
    let trace = TraceDataset::generate(&TraceConfig::paper());
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12}",
        "alpha s", "accuracy", "train frac"
    );
    let alphas = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0];
    // Six independent α cells, each training its own model — one scoped
    // worker per cell.
    let cells: Vec<EvalCell> = alphas
        .iter()
        .map(|&alpha| EvalCell {
            alpha_s: (alpha > 0.0).then_some(alpha),
            decision_threshold_s: 9.0,
            seed: crate::REPORT_SEED,
        })
        .collect();
    for (alpha, report) in alphas.iter().zip(accuracy_grid(&trace, &cells)) {
        let frac = report.train_size + report.test_size;
        let _ = writeln!(
            out,
            "{alpha:>8.1} {:>11.1}% {:>11.1}%",
            report.accuracy * 100.0,
            frac as f64 / trace.len() as f64 * 100.0
        );
    }
    out
}

/// Train/test split seed for the GBRT-size ablation. Fixed and named so
/// its provenance is documented: the ablation table is a standalone
/// artifact, deliberately detached from the sweep's root seed (changing
/// the root must not re-roll this split), which is exactly the situation
/// the seed-provenance rule wants recorded in a named binding.
const GBRT_SPLIT_SEED: u64 = 3;

/// Ablation 3 — GBRT forest size: accuracy vs prediction cost frontier.
pub fn gbrt_size() -> String {
    let mut out = header(
        "Ablation — GBRT size (trees x leaves) vs accuracy at Tp=9",
        "the paper runs 8-node trees; Table 7 prices 1k-20k of them",
    );
    let trace = TraceDataset::generate(&TraceConfig::paper()).engaged_only(2.0);
    let data = trace.to_gbrt_dataset();
    let mut rng = ewb_core::simcore::Xoshiro256::seed_from_u64(GBRT_SPLIT_SEED);
    let (train, test) = data.split(0.7, &mut rng);
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>12} {:>14}",
        "trees", "leaves", "accuracy", "predict µs"
    );
    let grid = [(25, 8), (50, 8), (150, 8), (400, 8), (150, 4), (150, 16)];
    // Training the six forests is the expensive part and every cell is
    // independent — fan it out; the timing measurements stay serial so
    // the workers don't contend for cores while the clock runs.
    let predictors = par_map(&grid, |&(n_trees, leaves)| {
        let params = GbrtParams {
            n_trees,
            max_leaves: leaves,
            ..reading_time_params()
        };
        ReadingTimePredictor::train_dataset(&train, &params)
    });
    for ((n_trees, leaves), p) in grid.iter().zip(&predictors) {
        // Compile the forest before the clock starts.
        let _ = p.flat();
        let start = std::time::Instant::now();
        let preds: Vec<f64> = (0..test.len())
            .map(|i| p.predict_row(test.row(i)))
            .collect();
        let us = start.elapsed().as_secs_f64() / test.len() as f64 * 1e6;
        let acc = ewb_core::gbrt::threshold_accuracy(&preds, test.targets(), 9.0);
        let _ = writeln!(
            out,
            "{n_trees:>8} {leaves:>8} {:>11.1}% {us:>14.2}",
            acc * 100.0
        );
    }
    out
}

/// Ablation 4 — the timers T1/T2 vs whole-session energy.
pub fn timers() -> String {
    let mut out = header(
        "Ablation — inactivity timers T1/T2 vs energy (espn + 20 s read)",
        "longer tails inflate the original's cost; the energy-aware\n  approach is insensitive because it releases early",
    );
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>12} {:>12} {:>10}",
        "T1 s", "T2 s", "orig J", "ea J", "saving"
    );
    for (t1, t2) in [(2u64, 8u64), (4, 15), (6, 20), (8, 30)] {
        let mut cfg = CoreConfig::paper();
        cfg.rrc.t1 = SimDuration::from_secs(t1);
        cfg.rrc.t2 = SimDuration::from_secs(t2);
        let ctx = Context::new();
        let espn = ctx.corpus.page("espn", PageVersion::Full).expect("espn");
        let orig = single_visit(&ctx.server, espn, Case::Original, &cfg, 20.0);
        let ea = single_visit(&ctx.server, espn, Case::Accurate9, &cfg, 20.0);
        let _ = writeln!(
            out,
            "{t1:>6} {t2:>6} {:>12.1} {:>12.1} {:>10}",
            orig.total_joules,
            ea.total_joules,
            pct(1.0 - ea.total_joules / orig.total_joules)
        );
    }
    out
}

/// Ablation 5 — energy split: where does the saving come from?
/// (reading-period release vs transmission shortening), per version.
pub fn saving_breakdown(ctx: &Context) -> String {
    let mut out = header(
        "Ablation — saving decomposition (load-side vs reading-side)",
        "paper: mobile saving mostly from reading IDLE; full mostly from tx",
    );
    for version in [PageVersion::Mobile, PageVersion::Full] {
        let rows = energy::benchmark_energy(&ctx.corpus, &ctx.server, &ctx.cfg, version);
        let open: f64 = rows.iter().map(|r| r.orig_open_j - r.ea_open_j).sum();
        let read: f64 = rows.iter().map(|r| r.orig_reading_j - r.ea_reading_j).sum();
        let _ = writeln!(
            out,
            "{version}: open-side saving {open:.1} J, reading-side saving {read:.1} J"
        );
    }
    out
}

/// Related-work baseline — a transcoding proxy (Opera Mini-style, §6 of
/// the paper): fast and light on bytes, but requires server
/// infrastructure and loses content fidelity, which is exactly why the
/// paper pursues an on-device technique instead.
pub fn proxy_baseline(ctx: &Context) -> String {
    use ewb_core::net::proxy::{proxy_load, ProxyConfig};
    use ewb_core::simcore::SimTime;
    let mut out = header(
        "Baseline — remote transcoding proxy vs on-device approaches",
        "§6: proxies cut load time but 'need additional remote devices'",
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "site", "orig load", "ea load", "proxy load", "ea J", "proxy J"
    );
    for site in ctx.corpus.sites() {
        let page = &site.full;
        let orig = single_visit(&ctx.server, page, Case::Original, &ctx.cfg, 0.0);
        let ea = single_visit(&ctx.server, page, Case::EnergyAwareAlwaysOff, &ctx.cfg, 0.0);
        let proxy = proxy_load(
            &ctx.cfg.net,
            &ctx.cfg.rrc,
            &ProxyConfig::paper_era(),
            page,
            SimTime::ZERO,
        );
        let _ = writeln!(
            out,
            "{:<10} {:>11.1}s {:>11.1}s {:>11.1}s {:>11.1} {:>11.1}",
            site.key,
            orig.pages[0].load_time_s(),
            ea.pages[0].load_time_s(),
            proxy.load_time.as_secs_f64(),
            ea.pages[0].load_joules,
            proxy.energy_j,
        );
    }
    let _ = writeln!(
        out,
        "\nThe proxy wins on wall-clock (it ships ~45% of the bytes after a\n\
         server-side render) — and still loses the *architecture* argument:\n\
         it needs deployed infrastructure, breaks end-to-end content, and\n\
         its savings vanish when the bundle is large. The paper's approach\n\
         needs only a browser change."
    );
    out
}

/// Extension — layout caching (Zhang et al., §6): repeat-visit loading
/// time with and without the cache, stacked on the energy-aware pipeline.
pub fn layout_cache(ctx: &Context) -> String {
    use ewb_core::browser::cache::LayoutCache;
    use ewb_core::browser::pipeline::{load_page_with, PipelineConfig, PipelineMode};
    use ewb_core::net::ThreeGFetcher;
    use ewb_core::obs::Recorder;
    use ewb_core::simcore::SimTime;
    let mut out = header(
        "Extension — layout caching on repeat visits (Zhang et al.)",
        "cached revisits skip rule extraction, style, and layout",
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>12}",
        "site", "cold load s", "cached load s", "saving"
    );
    for site in ctx.corpus.sites() {
        let page = &site.full;
        let mut cache = LayoutCache::new();
        let run = |cache: &mut LayoutCache| {
            let mut fetcher =
                ThreeGFetcher::new(ctx.cfg.net, ctx.cfg.rrc, &ctx.server, SimTime::ZERO);
            load_page_with(
                &mut fetcher,
                page.root_url(),
                SimTime::ZERO,
                &PipelineConfig::new(PipelineMode::EnergyAware),
                &ctx.cfg.cost,
                Some(cache),
                Recorder::disabled(),
            )
        };
        let cold = run(&mut cache).load_time().as_secs_f64();
        let warm = run(&mut cache).load_time().as_secs_f64();
        let _ = writeln!(
            out,
            "{:<10} {:>13.1} {:>14.1} {:>12}",
            site.key,
            cold,
            warm,
            pct(1.0 - warm / cold)
        );
    }
    let _ = writeln!(
        out,
        "\n(transfers are not cached — only the layout computation; an HTTP\n\
         cache would compound with this, but is outside the paper's scope)"
    );
    out
}

/// Ablation — the energy-aware browser's connection-pool depth, the
/// mechanism behind "group all data transmissions together" (§3.1). Too
/// shallow and the cheap scan-phase still starves the link; deeper pools
/// approach the socket profile of Fig. 4.
pub fn connection_pool(ctx: &Context) -> String {
    use ewb_core::browser::pipeline::{load_page, PipelineConfig, PipelineMode};
    use ewb_core::net::ThreeGFetcher;
    use ewb_core::simcore::SimTime;
    let mut out = header(
        "Ablation — energy-aware connection pool vs transmission time",
        "default 3 connections; the original browser keeps the era-typical 2",
    );
    let espn = ctx
        .corpus
        .page("espn", ewb_core::webpage::PageVersion::Full)
        .expect("espn");
    let _ = writeln!(out, "{:>8} {:>14} {:>12}", "pool", "ea tx s", "ea load s");
    for pool in [1usize, 2, 3, 4, 6, 8] {
        let mut cfg = PipelineConfig::new(PipelineMode::EnergyAware);
        cfg.max_parallel = pool;
        let mut fetcher = ThreeGFetcher::new(ctx.cfg.net, ctx.cfg.rrc, &ctx.server, SimTime::ZERO);
        let m = load_page(
            &mut fetcher,
            espn.root_url(),
            SimTime::ZERO,
            &cfg,
            &ctx.cfg.cost,
        );
        let _ = writeln!(
            out,
            "{pool:>8} {:>14.1} {:>12.1}",
            m.transmission_time().as_secs_f64(),
            m.load_time().as_secs_f64()
        );
    }
    out
}
