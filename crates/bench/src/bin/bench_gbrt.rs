//! GBRT engine micro-benchmark: training throughput of the pre-sorted
//! trainer vs the original per-node re-sorting trainer; prediction
//! latency of the compiled bitvector forest vs the enum-node walk at
//! Table 7 scale (20 000 trees of 8 leaves, one row); and the deployed
//! 150-tree reading-time predictor scored in fleet-sized batches. Prints
//! a summary and writes `BENCH_gbrt.json` for tracking.

use ewb_core::gbrt::{FlatForest, Gbrt, GbrtModel, GbrtParams};
use ewb_core::traces::{reading_time_params, ReadingTimePredictor, TraceConfig, TraceDataset};
use ewb_core::CoreConfig;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Minimum of `reps` timed runs, seconds.
fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    ewb_bench::cli::Args::parse(&[]);
    // Training throughput on the paper-scale trace (40 users × 240
    // visits) — the dataset the Fig. 15 model actually trains on.
    let trace = TraceDataset::generate(&TraceConfig::paper());
    let data = trace.to_gbrt_dataset();
    let n_rows = data.len();

    // -- Training: 100 trees of 8 leaves, the Fig. 15 model shape. -----
    let train_params = GbrtParams {
        n_trees: 100,
        max_leaves: 8,
        min_samples_leaf: 8,
        ..GbrtParams::default()
    };
    // Warm up once, then take the best of three.
    let _ = Gbrt::fit(&data, &train_params);
    let fast_s = time_min(3, || Gbrt::fit(&data, &train_params));
    let reference_s = time_min(3, || Gbrt::fit_reference(&data, &train_params));
    let effective_rows = n_rows * train_params.n_trees;
    let train_speedup = reference_s / fast_s;

    // -- Prediction: one row through a 20 000-tree forest (Table 7). ---
    // Prediction cost depends only on forest size, so a small training
    // set keeps the 20 000-tree fit quick.
    let small = TraceDataset::generate(&TraceConfig {
        users: 4,
        visits_per_user: 150,
        ..TraceConfig::paper()
    });
    let data = small.to_gbrt_dataset();
    let forest_params = GbrtParams {
        n_trees: 20_000,
        max_leaves: 8,
        learning_rate: 0.05,
        min_samples_leaf: 8,
        ..GbrtParams::default()
    };
    let model: GbrtModel = Gbrt::fit(&data, &forest_params);
    let flat = FlatForest::from_model(&model);
    let row = data.row(0).to_vec();
    assert_eq!(flat.predict(&row).to_bits(), model.predict(&row).to_bits());
    // Each measured run performs `calls` predictions to swamp timer noise.
    let calls = 200;
    let enum_s = time_min(5, || {
        let mut acc = 0.0;
        for _ in 0..calls {
            acc += model.predict(black_box(&row));
        }
        acc
    }) / calls as f64;
    let flat_s = time_min(5, || {
        let mut acc = 0.0;
        for _ in 0..calls {
            acc += flat.predict(black_box(&row));
        }
        acc
    }) / calls as f64;
    let ns_per_tree = |s: f64| s * 1e9 / forest_params.n_trees as f64;
    let predict_speedup = enum_s / flat_s;

    // -- Deployed predictor: the fleet's hot loop. ----------------------
    // The 150-tree, 8-leaf reading-time model, trained the way
    // `FleetEnv::prepare` trains it, scored through `predict_batch` in
    // batches of 18 rows (a fleet user's mean day of 5-30 visits).
    let trace = TraceDataset::generate(&TraceConfig::small());
    let predictor = ReadingTimePredictor::train_with_interest_threshold(
        &trace,
        CoreConfig::paper().alg.alpha_s,
        &reading_time_params(),
    );
    let deployed = predictor.model();
    let kernel = predictor.flat();
    let batch_rows = 18;
    let n_features = deployed.n_features();
    let rows: Vec<f64> = trace.visits().iter().flat_map(|v| v.features.0).collect();
    let n_rows_deployed = rows.len() / n_features;
    let mut batch_out = vec![0.0; batch_rows];
    for (b, chunk) in rows.chunks(batch_rows * n_features).enumerate() {
        let out = &mut batch_out[..chunk.len() / n_features];
        kernel.predict_batch(chunk, out);
        for (i, (&y, x)) in out.iter().zip(chunk.chunks(n_features)).enumerate() {
            assert_eq!(
                y.to_bits(),
                deployed.predict(x).to_bits(),
                "batch {b} row {i}"
            );
        }
    }
    let kernel_rows_s = time_min(9, || {
        for chunk in rows.chunks(batch_rows * n_features) {
            kernel.predict_batch(black_box(chunk), &mut batch_out[..chunk.len() / n_features]);
        }
        batch_out[0]
    });
    let enum_rows_s = time_min(9, || {
        let mut acc = 0.0;
        for x in rows.chunks(n_features) {
            acc += deployed.predict(black_box(x));
        }
        acc
    });
    let ns_per_row = |s: f64| s * 1e9 / n_rows_deployed as f64;
    let deployed_speedup = enum_rows_s / kernel_rows_s;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"train\": {{");
    let _ = writeln!(json, "    \"n_rows\": {n_rows},");
    let _ = writeln!(json, "    \"n_trees\": {},", train_params.n_trees);
    let _ = writeln!(json, "    \"reference_s\": {reference_s:.4},");
    let _ = writeln!(json, "    \"fast_s\": {fast_s:.4},");
    let _ = writeln!(
        json,
        "    \"reference_rows_per_s\": {:.0},",
        effective_rows as f64 / reference_s
    );
    let _ = writeln!(
        json,
        "    \"fast_rows_per_s\": {:.0},",
        effective_rows as f64 / fast_s
    );
    let _ = writeln!(json, "    \"speedup\": {train_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"predict\": {{");
    let _ = writeln!(json, "    \"n_trees\": {},", forest_params.n_trees);
    let _ = writeln!(
        json,
        "    \"enum_ns_per_tree\": {:.2},",
        ns_per_tree(enum_s)
    );
    let _ = writeln!(
        json,
        "    \"flat_ns_per_tree\": {:.2},",
        ns_per_tree(flat_s)
    );
    let _ = writeln!(json, "    \"speedup\": {predict_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"predict_deployed\": {{");
    let _ = writeln!(json, "    \"n_trees\": {},", deployed.n_trees());
    let _ = writeln!(
        json,
        "    \"max_leaves\": {},",
        reading_time_params().max_leaves
    );
    let _ = writeln!(json, "    \"rows\": {n_rows_deployed},");
    let _ = writeln!(json, "    \"batch_rows\": {batch_rows},");
    let _ = writeln!(
        json,
        "    \"enum_ns_per_row\": {:.0},",
        ns_per_row(enum_rows_s)
    );
    let _ = writeln!(
        json,
        "    \"flat_ns_per_row\": {:.0},",
        ns_per_row(kernel_rows_s)
    );
    let _ = writeln!(json, "    \"speedup\": {deployed_speedup:.2}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    println!(
        "train  ({} rows x {} trees): reference {reference_s:.3} s, fast {fast_s:.3} s  \
         = {train_speedup:.2}x",
        n_rows, train_params.n_trees
    );
    println!(
        "predict ({} trees, one row): enum {:.1} ns/tree, flat {:.1} ns/tree  = {predict_speedup:.2}x",
        forest_params.n_trees,
        ns_per_tree(enum_s),
        ns_per_tree(flat_s)
    );
    println!(
        "deployed ({} trees, {n_rows_deployed} rows in batches of {batch_rows}): \
         enum {:.0} ns/row, flat {:.0} ns/row  = {deployed_speedup:.2}x",
        deployed.n_trees(),
        ns_per_row(enum_rows_s),
        ns_per_row(kernel_rows_s)
    );
    ewb_bench::write_atomic("BENCH_gbrt.json", &json);
    println!("wrote BENCH_gbrt.json");
}
