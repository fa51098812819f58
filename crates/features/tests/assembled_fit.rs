//! The column-fed fit of an assembled feature space is the matrix fit.
//!
//! `BStump::fit_columns` fed by `AssembledColumns` trains the ticket
//! predictor's final model without building the assembled matrix. It must
//! train the very model `BStump::fit(&assemble(base, cols, derived))`
//! trains, down to the serialized bytes: the same column values in the
//! same order, the same binning, the same boosting loop.

use nevermind_dslsim::LineId;
use nevermind_features::encode::{assemble, AssembledColumns, EncodedDataset, RowKey};
use nevermind_features::{DerivedFeature, FeatureClass};
use nevermind_ml::boost::{uniform_weights, BStump, BoostConfig};
use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};
use proptest::prelude::*;

/// SplitMix64: the test draws its data from a seed without an RNG crate.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// A base column of one of several shapes, each with its own rate of
/// `NaN` holes: continuous, a coarse grid with both zeros (ties, and
/// `-0.0` next to `0.0`), binary, constant or all-missing.
fn base_column(draw: &mut Draw, n: usize) -> Vec<f32> {
    let missing = [0.0, 0.05, 0.3, 0.9][draw.below(4) as usize];
    let shape = draw.below(5);
    (0..n)
        .map(|_| {
            if shape == 4 || (missing > 0.0 && draw.chance(missing)) {
                return f32::NAN;
            }
            match shape {
                0 => (draw.below(1 << 20) as f32 / 4096.0) - 128.0,
                1 => [-0.0, 0.0, 0.5, -1.5, 2.0][draw.below(5) as usize],
                2 => draw.below(2) as f32,
                _ => 7.0,
            }
        })
        .collect()
}

/// A base encoding of `n` rows and `n_base` columns.
fn base_encoding(draw: &mut Draw, n: usize, n_base: usize) -> EncodedDataset {
    let columns: Vec<Vec<f32>> = (0..n_base).map(|_| base_column(draw, n)).collect();
    let values = (0..n).flat_map(|r| columns.iter().map(move |c| c[r])).collect();
    let meta = (0..n_base).map(|c| FeatureMeta::continuous(format!("b{c}"))).collect();
    let positives = [0.02, 0.2, 0.5][draw.below(3) as usize];
    let labels = (0..n).map(|_| draw.chance(positives)).collect();
    EncodedDataset {
        data: Dataset::new(FeatureMatrix::new(n, meta, values), labels),
        rows: (0..n).map(|r| RowKey { line: LineId(r as u32), day: 6 }).collect(),
        classes: vec![FeatureClass::Basic; n_base],
    }
}

/// Every stump field's bit pattern.
fn bits(model: &BStump) -> Vec<(usize, u32, u64, u64)> {
    model
        .stumps()
        .iter()
        .map(|s| (s.feature, s.threshold.to_bits(), s.s_le.to_bits(), s.s_gt.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn column_fed_fit_is_the_assembled_matrix_fit(
        seed in any::<u64>(),
        n in 1usize..300,
        n_base in 1usize..7,
        n_cols in 0usize..8,
        n_derived in 0usize..6,
        n_bins in 2usize..=256,
        iterations in 0usize..60,
        parallel in any::<bool>(),
    ) {
        let mut draw = Draw(seed);
        let base = base_encoding(&mut draw, n, n_base);
        let nb = n_base as u64;
        // Base columns in any order, repeats allowed.
        let cols: Vec<usize> = (0..n_cols).map(|_| draw.below(nb) as usize).collect();
        let derived: Vec<DerivedFeature> = (0..n_derived)
            .map(|_| match draw.below(2) {
                0 => DerivedFeature::Quadratic { col: draw.below(nb) as usize },
                _ => DerivedFeature::Product {
                    a: draw.below(nb) as usize,
                    b: draw.below(nb) as usize,
                },
            })
            .collect();
        let config = BoostConfig { iterations, n_bins, smoothing: None, parallel };

        let matrix_fit = BStump::fit(&assemble(&base, &cols, &derived), &config);
        let columns = AssembledColumns::new(&base, &cols, &derived);
        let y = &base.data.y;
        let column_fit =
            BStump::fit_columns(columns.n_cols(), y, &uniform_weights(n), &config, |j, out| {
                columns.write(j, out)
            });

        prop_assert_eq!(bits(&column_fit), bits(&matrix_fit));
        prop_assert_eq!(
            serde_json::to_string(&column_fit).expect("model serializes"),
            serde_json::to_string(&matrix_fit).expect("model serializes")
        );
    }
}

/// The gather writes, column for column and bit for bit, the matrix
/// `assemble` builds.
#[test]
fn gathered_columns_are_the_assembled_columns() {
    let mut draw = Draw(0xA55E);
    let base = base_encoding(&mut draw, 257, 5);
    let cols = [4, 0, 0, 2];
    let derived = [
        DerivedFeature::Quadratic { col: 1 },
        DerivedFeature::Product { a: 0, b: 3 },
        DerivedFeature::Product { a: 2, b: 2 },
    ];
    let assembled = assemble(&base, &cols, &derived);
    let columns = AssembledColumns::new(&base, &cols, &derived);
    assert_eq!(columns.n_cols(), assembled.x.n_cols());
    let mut out = vec![0.0f32; base.data.len()];
    for j in 0..columns.n_cols() {
        columns.write(j, &mut out);
        let want: Vec<u32> = assembled.x.column(j).map(f32::to_bits).collect();
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "column {j}");
    }
}
