//! End-to-end golden test: on the fixed-seed synthetic trace, the
//! refactored pre-sorted GBRT engine must train a model byte-identical
//! to the original per-node re-sorting trainer — same splits, same
//! thresholds, same serialized JSON — through the full reading-time
//! pipeline (feature extraction, log transform, subsampled boosting).
//! The trace it trains on is pinned to the bit as well.

use ewb_gbrt::{Dataset, Gbrt};
use ewb_traces::{reading_time_params, ReadingTimePredictor, TraceConfig, TraceDataset};

#[test]
fn predictor_training_is_byte_identical_to_reference() {
    let trace = TraceDataset::generate(&TraceConfig::small());
    let predictor = ReadingTimePredictor::train(&trace, &reading_time_params());

    // Replicate the predictor's log transform, then train through the
    // retained reference implementation.
    let data = trace.to_gbrt_dataset();
    let log_targets: Vec<f64> = data.targets().iter().map(|&y| (1.0 + y).ln()).collect();
    let log_data = Dataset::new(data.rows().to_vec(), log_targets).unwrap();
    let reference = Gbrt::fit_reference(&log_data, &reading_time_params());

    assert_eq!(
        predictor.model(),
        &reference,
        "fast and reference trainers disagree on the trace model"
    );
    assert_eq!(
        predictor.model().to_json(),
        reference.to_json(),
        "serialized model bytes differ"
    );

    // And the deployed flat forest walks that exact model.
    for v in trace.visits().iter().take(50) {
        let row = v.features.to_vec();
        assert_eq!(
            predictor.flat().predict(&row).to_bits(),
            reference.predict(&row).to_bits()
        );
    }
}

#[test]
fn interest_threshold_training_is_byte_identical_to_reference() {
    let trace = TraceDataset::generate(&TraceConfig::small());
    let predictor =
        ReadingTimePredictor::train_with_interest_threshold(&trace, 2.0, &reading_time_params());

    let data = trace.engaged_only(2.0).to_gbrt_dataset();
    let log_targets: Vec<f64> = data.targets().iter().map(|&y| (1.0 + y).ln()).collect();
    let log_data = Dataset::new(data.rows().to_vec(), log_targets).unwrap();
    let reference = Gbrt::fit_reference(&log_data, &reading_time_params());

    assert_eq!(predictor.model().to_json(), reference.to_json());
}

/// 64-bit FNV-1a over the `to_bits` of each value, one word per step:
/// a change to any one value changes the fold.
fn fold_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every feature and reading time of the small trace, in visit order:
/// the visit sampler's stream and arithmetic, pinned to the bit.
#[test]
fn small_trace_is_pinned() {
    let trace = TraceDataset::generate(&TraceConfig::small());
    let values = trace
        .visits()
        .iter()
        .flat_map(|v| v.features.0.into_iter().chain([v.reading_time_s]));
    assert_eq!(fold_bits(values), 0xb9d3_4c45_48b5_cde3);
}
