//! Batch margin evaluation for trained [`BStump`] ensembles.
//!
//! [`BStump::margins`] walks every stump for every row: each stump fetches
//! its feature value again, re-checks `NaN`, and branches on the threshold.
//! The weekly population re-ranking evaluates a ~300-stump model over the
//! whole plant every Saturday, and the ensemble references only a few dozen
//! distinct features, so almost all of that work is redundant.
//!
//! [`BatchScorer`] compiles the ensemble once:
//!
//! * the distinct features used by any stump, each with its sorted list of
//!   distinct stump thresholds — a row is reduced to one small *bin index*
//!   per used feature (the count of thresholds below the value, taken a
//!   row block at a time with one branch-free vectorized pass per
//!   threshold; `NaN` → a dedicated missing bin);
//! * per stump, a bin→score lookup table over that feature's bins:
//!   `lut[bin]` is `s_le` for bins at or below the stump's own threshold,
//!   `s_gt` above it, and `0` (abstain) for the missing bin.
//!
//! Scoring a row is then one table load per stump, added **in boosting
//! order** — the same left-to-right summation as [`BStump::margin`], so the
//! result is bit-identical to the per-row path. The walk takes four rows
//! at a time: one pass over the stumps feeds four independent add chains,
//! each starting at `0.0` and adding its own row's entries in boosting
//! order, so the adds overlap instead of waiting on one chain and every
//! margin keeps its bytes. Rows are independent, which lets
//! [`BatchScorer::margins_gather_parallel`] spread row ranges over
//! [`nevermind_obs::par`] parts with no effect on the output.

use crate::boost::BStump;

/// Cache-sized row block the scoring loop works in.
const BLOCK: usize = 256;

/// Bins a block of one slot's values against its sorted, distinct
/// thresholds `ts`: a present value's bin is the number of thresholds
/// below it, a `NaN`'s (any payload) the missing bin `ts.len() + 1`.
///
/// One branch-free pass over the block per threshold, `bin += (t < v)`,
/// which the compiler vectorizes across the block; the `NaN`s, below no
/// threshold, are moved to the missing bin after. Because `t < v` holds
/// for a prefix of the sorted thresholds, the count is the
/// `partition_point(|t| t < v)` of a binary search.
fn bin_block(ts: &[f32], vals: &[f32], bins: &mut [u32]) {
    bins.fill(0);
    for &t in ts {
        for (b, &v) in bins.iter_mut().zip(vals) {
            *b += u32::from(t < v);
        }
    }
    let missing = ts.len() as u32 + 1; // the last LUT entry
    for (b, &v) in bins.iter_mut().zip(vals) {
        *b = if v.is_nan() { missing } else { *b };
    }
}

/// One compiled stump: which reduced feature it reads and its bin→score
/// table.
#[derive(Debug, Clone)]
struct CompiledStump {
    /// Index into [`BatchScorer::features`] (not the raw column index).
    slot: u32,
    /// Score per bin of that feature; the last entry is the missing bin's
    /// zero, so scoring needs no branch at all.
    lut: Vec<f64>,
}

/// A [`BStump`] compiled into per-feature threshold grids and per-stump
/// bin→score lookup tables for fast batch evaluation.
#[derive(Debug, Clone)]
pub struct BatchScorer {
    /// Distinct feature columns used by the ensemble, with each feature's
    /// sorted distinct thresholds.
    features: Vec<(usize, Vec<f32>)>,
    /// Compiled stumps in boosting order.
    stumps: Vec<CompiledStump>,
}

impl BatchScorer {
    /// Compiles a trained ensemble.
    pub fn new(model: &BStump) -> Self {
        // Distinct (feature, thresholds) grids, in first-use order.
        let mut features: Vec<(usize, Vec<f32>)> = Vec::new();
        for s in model.stumps() {
            match features.iter_mut().find(|(f, _)| *f == s.feature) {
                Some((_, ts)) => {
                    if let Err(pos) = ts.binary_search_by(|t| t.total_cmp(&s.threshold)) {
                        ts.insert(pos, s.threshold);
                    }
                }
                None => features.push((s.feature, vec![s.threshold])),
            }
        }

        // bin(v) = #thresholds < v, so `v <= thresholds[p]` ⟺ `bin(v) <= p`.
        let stumps = model
            .stumps()
            .iter()
            .map(|s| {
                // lint:allow(no-panic-in-lib) -- features was compiled from this very stump list
                let slot = features.iter().position(|(f, _)| *f == s.feature).expect("compiled");
                let ts = &features[slot].1;
                let p = ts
                    .binary_search_by(|t| t.total_cmp(&s.threshold))
                    // lint:allow(no-panic-in-lib) -- the threshold was inserted into ts during compilation above
                    .expect("own threshold present");
                let mut lut: Vec<f64> =
                    (0..=ts.len()).map(|b| if b <= p { s.s_le } else { s.s_gt }).collect();
                lut.push(0.0); // missing bin
                CompiledStump { slot: slot as u32, lut }
            })
            .collect();

        Self { features, stumps }
    }

    /// Margins gathered straight from a columnar source, with no
    /// materialized matrix at all: for each used feature (slot order) and
    /// each row block, `fill(slot, rows, out)` writes the feature's values
    /// for those rows into `out` (`NaN` = missing, any payload). This is
    /// how the weekly engine scores a `FeatureStore` week — the closure
    /// reads borrowed lane slices and computes derived features on the fly.
    ///
    /// Row ranges are spread over [`nevermind_obs::par`] parts (`n_threads`
    /// as its part count, `0` = every core); each part gathers and scores a
    /// disjoint range. Bit-identical to [`BStump::margins`] over a matrix
    /// carrying the same values, for any part count: binning is per-value,
    /// and the per-row LUT accumulation runs in boosting order.
    pub fn margins_gather_parallel<F>(&self, n_rows: usize, n_threads: usize, fill: &F) -> Vec<f64>
    where
        F: Fn(usize, std::ops::Range<usize>, &mut [f32]) + Sync,
    {
        let mut out = vec![0.0f64; n_rows];
        let ranges = nevermind_obs::par::bounds(n_rows, n_threads);
        let parts = nevermind_obs::par::split_mut(&mut out, &ranges, 1);
        nevermind_obs::par::run(ranges.iter().zip(parts), |(rows, out)| {
            self.score_rows(rows.start, out, fill);
        });
        out
    }

    /// Scores rows `first_row..first_row + out.len()` into `out`, pulling
    /// feature values through `fill` one (slot, block) at a time.
    fn score_rows<F>(&self, first_row: usize, out: &mut [f64], fill: &F)
    where
        F: Fn(usize, std::ops::Range<usize>, &mut [f32]),
    {
        let n_feat = self.features.len();
        let mut bins = vec![0u32; BLOCK * n_feat];
        let mut vals = vec![0.0f32; BLOCK];
        let mut slot_bins = vec![0u32; BLOCK];
        for (block_idx, block) in out.chunks_mut(BLOCK).enumerate() {
            let base = first_row + block_idx * BLOCK;
            let n = block.len();
            for (slot, (_, ts)) in self.features.iter().enumerate() {
                let vals = &mut vals[..n];
                fill(slot, base..base + n, vals);
                let slot_bins = &mut slot_bins[..n];
                bin_block(ts, vals, slot_bins);
                for (i, &b) in slot_bins.iter().enumerate() {
                    bins[i * n_feat + slot] = b;
                }
            }
            let mut quads = block.chunks_exact_mut(4);
            for (q, acc) in (&mut quads).enumerate() {
                acc.copy_from_slice(&self.walk(&bins[4 * q * n_feat..4 * (q + 1) * n_feat]));
            }
            let done = n - quads.into_remainder().len();
            for (i, acc) in block.iter_mut().enumerate().skip(done) {
                let row_bins = &bins[i * n_feat..(i + 1) * n_feat];
                let mut m = 0.0f64;
                for s in &self.stumps {
                    m += s.lut[row_bins[s.slot as usize] as usize];
                }
                *acc = m;
            }
        }
    }

    /// The margins of four consecutive rows (`bins` holds their bin rows
    /// back to back): one walk over the stumps feeds four independent add
    /// chains, each starting at `0.0` and adding its row's LUT entries in
    /// boosting order, exactly as the one-row walk does.
    #[inline]
    fn walk(&self, bins: &[u32]) -> [f64; 4] {
        let n_feat = bins.len() / 4;
        let (b0, rest) = bins.split_at(n_feat);
        let (b1, rest) = rest.split_at(n_feat);
        let (b2, b3) = rest.split_at(n_feat);
        let mut m = [0.0f64; 4];
        for s in &self.stumps {
            let slot = s.slot as usize;
            m[0] += s.lut[b0[slot] as usize];
            m[1] += s.lut[b1[slot] as usize];
            m[2] += s.lut[b2[slot] as usize];
            m[3] += s.lut[b3[slot] as usize];
        }
        m
    }

    /// The distinct (training-space) columns the ensemble reads, in slot
    /// order — what `fill`'s slot argument indexes.
    pub fn used_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.features.iter().map(|(col, _)| *col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boost::BoostConfig;
    use crate::data::{Dataset, FeatureMatrix, FeatureMeta};
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Random dataset with NaN holes and deliberate threshold-equal values.
    fn noisy_dataset(n: usize, n_cols: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let meta = (0..n_cols).map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
        let mut values = Vec::with_capacity(n * n_cols);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let mut signal = 0.0f32;
            for c in 0..n_cols {
                // Coarse grid: many values land exactly on stump thresholds.
                let v = if rng.random_bool(0.15) {
                    f32::NAN
                } else {
                    (rng.random_range(0..32u32) as f32) / 32.0
                };
                if c < 2 && !v.is_nan() {
                    signal += v;
                }
                values.push(v);
            }
            labels.push(signal + rng.random_range(-0.3..0.3f32) > 1.0);
        }
        Dataset::new(FeatureMatrix::new(n, meta, values), labels)
    }

    /// Gathers every used column of `x` (slot order) for the scorer.
    fn matrix_fill<'a>(
        scorer: &BatchScorer,
        x: &'a FeatureMatrix,
    ) -> impl Fn(usize, std::ops::Range<usize>, &mut [f32]) + Sync + 'a {
        let cols: Vec<usize> = scorer.used_columns().collect();
        move |slot, rows, out| {
            for (o, r) in out.iter_mut().zip(rows) {
                *o = x.row(r)[cols[slot]];
            }
        }
    }

    fn assert_bits_eq(expected: &[f64], got: &[f64], label: &str) {
        assert_eq!(expected.len(), got.len(), "{label}: length");
        for (r, (a, b)) in expected.iter().zip(got).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label} row {r}: {a} vs {b}");
        }
    }

    #[test]
    fn compiled_margins_are_bit_identical_to_model() {
        let train = noisy_dataset(1500, 6, 42);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(120));
        assert!(model.stumps().len() > 20, "model should be non-trivial");
        let scorer = BatchScorer::new(&model);
        assert!(scorer.used_columns().count() <= 6);

        let test = noisy_dataset(700, 6, 43);
        let compiled =
            scorer.margins_gather_parallel(test.len(), 1, &matrix_fill(&scorer, &test.x));
        assert_bits_eq(&model.margins(&test.x), &compiled, "one part");
    }

    #[test]
    fn parallel_margins_are_bit_identical_for_any_thread_count() {
        let train = noisy_dataset(1200, 5, 44);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(80));
        let scorer = BatchScorer::new(&model);
        let test = noisy_dataset(997, 5, 45); // odd count: uneven parts
        let reference = model.margins(&test.x);
        let fill = matrix_fill(&scorer, &test.x);
        for threads in [0, 1, 2, 3, 7, 64] {
            let parallel = scorer.margins_gather_parallel(test.len(), threads, &fill);
            assert_bits_eq(&reference, &parallel, &format!("{threads} threads"));
        }
    }

    #[test]
    fn compact_margins_match_full_matrix() {
        let train = noisy_dataset(1000, 6, 47);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(90));
        let scorer = BatchScorer::new(&model);
        let test = noisy_dataset(431, 6, 48);

        // A narrow matrix of only the used columns, in slot order: slot `j`
        // reads column `j` — the layout the weekly engine's plan produces.
        let cols: Vec<usize> = scorer.used_columns().collect();
        let meta = cols.iter().map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
        let mut values = Vec::with_capacity(test.len() * cols.len());
        for r in 0..test.len() {
            let row = test.x.row(r);
            values.extend(cols.iter().map(|&c| row[c]));
        }
        let narrow = FeatureMatrix::new(test.len(), meta, values);
        let fill = |slot: usize, rows: std::ops::Range<usize>, out: &mut [f32]| {
            for (o, r) in out.iter_mut().zip(rows) {
                *o = narrow.row(r)[slot];
            }
        };
        let reference = model.margins(&test.x);
        for threads in [1, 3] {
            let compact = scorer.margins_gather_parallel(test.len(), threads, &fill);
            assert_bits_eq(&reference, &compact, &format!("{threads} threads"));
        }
    }

    #[test]
    fn gather_margins_match_full_matrix_for_any_thread_count() {
        let train = noisy_dataset(1100, 6, 49);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(100));
        let scorer = BatchScorer::new(&model);
        let test = noisy_dataset(733, 6, 50); // odd count: uneven parts
        let reference = model.margins(&test.x);

        // Columnar source: one lane per used feature, NaNs re-canonicalized
        // to the default payload — gather scoring must not care which NaN
        // the encoder produced.
        let cols: Vec<usize> = scorer.used_columns().collect();
        let lanes: Vec<Vec<f32>> = cols
            .iter()
            .map(|&c| {
                (0..test.len())
                    .map(|r| {
                        let v = test.x.row(r)[c];
                        if v.is_nan() {
                            f32::NAN
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        let fill = |slot: usize, rows: std::ops::Range<usize>, out: &mut [f32]| {
            out.copy_from_slice(&lanes[slot][rows]);
        };
        for threads in [0, 1, 2, 3, 7, 64] {
            let gathered = scorer.margins_gather_parallel(test.len(), threads, &fill);
            assert_bits_eq(&reference, &gathered, &format!("{threads} threads"));
        }
    }

    #[test]
    fn four_row_walk_matches_the_model_at_every_remainder() {
        // Whole quads, every remainder 0..=3, and blocks past the 256-row
        // block edge, split into 1-3 parts (parts start mid-quad too).
        let train = noisy_dataset(1200, 6, 51);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(100));
        let scorer = BatchScorer::new(&model);
        let test = noisy_dataset(513, 6, 52);
        let reference = model.margins(&test.x);
        let fill = matrix_fill(&scorer, &test.x);
        for n in (0..=9).chain([255, 257, 513]) {
            for parts in 1..=3 {
                let margins = scorer.margins_gather_parallel(n, parts, &fill);
                assert_bits_eq(&reference[..n], &margins, &format!("{n} rows, {parts} parts"));
            }
        }
    }

    #[test]
    fn all_missing_rows_abstain_to_zero() {
        let train = noisy_dataset(600, 4, 46);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(40));
        let scorer = BatchScorer::new(&model);
        let meta = (0..4).map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
        let x = FeatureMatrix::new(3, meta, vec![f32::NAN; 12]);
        let fill = matrix_fill(&scorer, &x);
        for threads in [1, 2] {
            let margins = scorer.margins_gather_parallel(3, threads, &fill);
            assert_eq!(margins, model.margins(&x), "{threads} threads");
            assert!(margins.iter().all(|&m| m == 0.0));
        }
    }

    /// Values that sit on the edges of binning: every threshold exactly,
    /// its neighbours one ulp away, ±0.0, ±inf, the extremes and `NaN`s
    /// with assorted payloads and signs.
    fn edge_values(ts: &[f32]) -> Vec<f32> {
        let mut vals = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_1234),
            f32::from_bits(0x7f80_0001), // signaling payload
        ];
        for &t in ts {
            vals.extend([t, f32::from_bits(t.to_bits().wrapping_add(1)), t - 0.5, t + 0.5]);
        }
        vals
    }

    /// 40 sorted, distinct thresholds around zero, with both zeros (total
    /// order keeps `-0.0` and `0.0` apart) and an infinite end.
    fn many_thresholds() -> Vec<f32> {
        let mut ts: Vec<f32> = (-19..=19).map(|i| i as f32 * 0.75).collect();
        ts.extend([-0.0, f32::INFINITY]);
        ts.sort_by(f32::total_cmp);
        ts.dedup_by(|a, b| a.to_bits() == b.to_bits());
        ts
    }

    #[test]
    fn block_bins_match_a_binary_search() {
        let ts = many_thresholds();
        assert!(ts.len() >= 32, "{} thresholds", ts.len());
        let vals = edge_values(&ts);
        for ts in [&ts[..], &ts[..1], &ts[..2], &ts[7..9], &[][..]] {
            for n in [1, 3, vals.len().min(BLOCK)] {
                for chunk in vals.chunks(n) {
                    let mut bins = vec![u32::MAX; chunk.len()];
                    bin_block(ts, chunk, &mut bins);
                    for (&v, &b) in chunk.iter().zip(&bins) {
                        let want = if v.is_nan() {
                            ts.len() as u32 + 1
                        } else {
                            ts.partition_point(|&t| t < v) as u32
                        };
                        assert_eq!(b, want, "value {v:?} ({:#x}) over {ts:?}", v.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn margins_match_the_model_on_edge_values() {
        // A slot with 40 thresholds (both zeros and +inf among them) and a
        // slot with one, written as a model file: training never cuts at
        // `-0.0` and `0.0` both.
        let ts = many_thresholds();
        let mut stumps: Vec<String> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let t = if t.is_infinite() { "3.4028235e38".into() } else { format!("{t:?}") };
                format!(
                    r#"{{"feature":1,"threshold":{t},"s_le":{},"s_gt":{}}}"#,
                    0.01 * i as f64,
                    -0.03 * i as f64
                )
            })
            .collect();
        stumps.insert(3, r#"{"feature":0,"threshold":-0.0,"s_le":0.5,"s_gt":-0.25}"#.into());
        let json = format!(r#"{{"stumps":[{}],"n_features":2}}"#, stumps.join(","));
        let model: BStump = serde_json::from_str(&json).expect("model parses");
        let scorer = BatchScorer::new(&model);
        assert_eq!(scorer.used_columns().collect::<Vec<_>>(), [1, 0]);

        let vals = edge_values(&ts);
        let meta = vec![FeatureMeta::continuous("a"), FeatureMeta::continuous("b")];
        let values = vals.iter().zip(vals.iter().rev()).flat_map(|(&a, &b)| [a, b]).collect();
        let x = FeatureMatrix::new(vals.len(), meta, values);
        let reference = model.margins(&x);
        for threads in [1, 3] {
            let margins =
                scorer.margins_gather_parallel(x.n_rows(), threads, &matrix_fill(&scorer, &x));
            assert_bits_eq(&reference, &margins, &format!("{threads} threads"));
        }
    }

    #[test]
    fn empty_model_scores_zero() {
        // A dataset no stump can split trains zero stumps.
        let meta = vec![FeatureMeta::continuous("f")];
        let x = FeatureMatrix::new(4, meta.clone(), vec![0.0, 0.0, 1.0, 1.0]);
        let y = vec![true, false, true, false];
        let cfg = BoostConfig { parallel: false, ..BoostConfig::with_iterations(10) };
        let model = BStump::fit_weighted(&x, &y, &[0.25; 4], &cfg);
        assert!(model.stumps().is_empty());
        let scorer = BatchScorer::new(&model);
        let probe = FeatureMatrix::new(2, meta, vec![0.3, 0.9]);
        let margins = scorer.margins_gather_parallel(2, 0, &matrix_fill(&scorer, &probe));
        assert_eq!(margins, vec![0.0, 0.0]);
        assert_eq!(margins, model.margins(&probe));
    }
}
