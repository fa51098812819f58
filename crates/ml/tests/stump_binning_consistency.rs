//! Property test for the invariant the whole training loop leans on: the
//! binned representation used inside boosting and the raw-value scoring
//! used at prediction time must agree on every row.
//!
//! The boosting weight update scores training rows from bin ids (`bin <=
//! split_bin` → `s_le`, through its per-slot factor table), while
//! `Stump::score` compares the raw value with the threshold
//! (`v <= threshold` → `s_le`). Rows whose value equals the
//! threshold exactly and rows with missing (`NaN`) values are the edge
//! cases; the generator forces plenty of both by drawing from a coarse
//! value grid and injecting `NaN`s.

use nevermind_ml::stump::{best_stump_for_feature, BinnedFeature, MISSING_BIN};
use proptest::prelude::*;

/// One example row: a feature value (grid-quantized, continuous, or
/// missing), a label, and a raw weight.
fn row_strategy() -> impl Strategy<Value = (f32, bool, u8)> {
    (
        prop_oneof![
            1 => Just(f32::NAN),
            4 => (0u32..8).prop_map(|g| g as f32 / 8.0),
            2 => -1.0f32..2.0,
        ],
        proptest::prelude::any::<bool>(),
        (0u32..=255).prop_map(|w| w as u8),
    )
}

proptest! {
    #[test]
    fn binned_and_raw_stump_scores_agree_on_every_row(
        rows in proptest::collection::vec(row_strategy(), 2..150),
        n_bins in (2u16..40),
    ) {
        let values: Vec<f32> = rows.iter().map(|r| r.0).collect();
        let labels: Vec<bool> = rows.iter().map(|r| r.1).collect();
        // Weights must be non-negative and not all zero.
        let weights: Vec<f64> =
            rows.iter().map(|r| (f64::from(r.2) + 1.0) / 256.0).collect();

        let feature = BinnedFeature::from_column(&values, n_bins as usize);

        // Bin ids must bracket their raw values exactly.
        for (i, &v) in values.iter().enumerate() {
            let bin = feature.bin_of_row[i];
            if v.is_nan() {
                prop_assert_eq!(bin, MISSING_BIN);
            } else {
                let b = bin as usize;
                prop_assert!(v <= feature.edges[b], "row {}: {} above edge", i, v);
                if b > 0 {
                    prop_assert!(v > feature.edges[b - 1], "row {}: {} below bin", i, v);
                }
            }
        }

        if let Some(res) = best_stump_for_feature(0, &feature, &labels, &weights, 1e-6) {
            // The threshold is always one of the bin edges, and the weight
            // update recovers the split bin from it by partition point.
            let split_bin =
                feature.edges.partition_point(|&e| e < res.stump.threshold) as u16;
            prop_assert_eq!(feature.edges[split_bin as usize], res.stump.threshold);

            for (i, &v) in values.iter().enumerate() {
                let raw = res.stump.score(&[v]);
                let bin = feature.bin_of_row[i];
                let binned = if bin == MISSING_BIN {
                    0.0
                } else if bin <= split_bin {
                    res.stump.s_le
                } else {
                    res.stump.s_gt
                };
                prop_assert_eq!(
                    raw.to_bits(),
                    binned.to_bits(),
                    "row {}: raw {} vs binned {} (value {}, bin {}, split {})",
                    i, raw, binned, v, bin, split_bin
                );
            }
        }
    }
}
