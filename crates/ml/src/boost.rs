//! **BStump**: confidence-rated AdaBoost over decision stumps.
//!
//! This is the paper's classifier (Sec. 4.4, Fig. 5): at each of `T`
//! iterations the algorithm picks the single feature/threshold stump that
//! minimizes the Schapire–Singer `Z` objective under the current example
//! weights, adds its real-valued scores to the ensemble, and reweights the
//! examples by `exp(-y·g_t(x))`. The final model is linear in the stump
//! outputs — the property the paper relies on for robustness to the heavy
//! label noise in ticket data (unreported problems are mislabelled
//! negatives).
//!
//! A fit's labels never change, so each fit folds them into one `u16`
//! *slot code* per row and candidate column before the first round:
//! `2·bin + y` for a present value, `2·k` for a missing one (`k` = the
//! column's bin count). Each round then fills the slot histograms of
//! four candidates per pass over the rows with a branch-free
//! `h[code] += w`, hands each histogram to the one split scan
//! ([`crate::stump`]), and reweights the rows through a `2k + 1`-entry
//! factor table indexed by the winner's codes — no per-row branch and no
//! per-row `exp`. Every slot sums its rows in row order, so the stumps are
//! bit-identical to [`crate::stump::best_stump`]'s row-by-row search
//! (DESIGN.md, "Stump search kernel").
//!
//! The per-iteration stump search fans the candidate groups out over
//! [`nevermind_obs::par`] parts; the model is bit-identical for any part
//! count because the per-part winners reduce under the total order
//! `(Z, feature index)`.

use crate::data::{Dataset, FeatureMatrix};
use crate::stump::{
    best_split, BinnedDataset, BinnedFeature, SortBuffers, Stump, StumpSearchResult, MAX_BINS,
    MISSING_BIN,
};
use serde::{Deserialize, Serialize};

/// Training configuration for [`BStump`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoostConfig {
    /// Number of boosting iterations `T` (the paper uses 800 for the ticket
    /// predictor and 200 for the trouble locator, both via cross-validation).
    pub iterations: usize,
    /// Maximum number of quantile bins per feature for the threshold search.
    pub n_bins: usize,
    /// Score-smoothing ε; `None` uses the Schapire–Singer default `1/(2n)`.
    pub smoothing: Option<f64>,
    /// Whether the per-iteration stump search spreads the features over
    /// every core (it does so only from 8 candidate features up).
    pub parallel: bool,
}

impl Default for BoostConfig {
    fn default() -> Self {
        Self { iterations: 200, n_bins: 64, smoothing: None, parallel: true }
    }
}

impl BoostConfig {
    /// Config with a given iteration count and defaults elsewhere.
    pub fn with_iterations(iterations: usize) -> Self {
        Self { iterations, ..Self::default() }
    }
}

/// A trained boosted-stump ensemble.
///
/// The model's raw output is the *margin* `f(x) = Σ_t g_t(x)`; positive
/// margins vote for the positive class (a future ticket). Use
/// [`crate::calibrate::PlattScale`] to map margins to probabilities.
///
/// ```
/// use nevermind_ml::boost::{BStump, BoostConfig};
/// use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};
///
/// // A one-feature problem: positives live above 2.5.
/// let x = FeatureMatrix::new(
///     4,
///     vec![FeatureMeta::continuous("f")],
///     vec![1.0, 2.0, 3.0, 4.0],
/// );
/// let data = Dataset::new(x, vec![false, false, true, true]);
/// let model = BStump::fit(&data, &BoostConfig::with_iterations(5));
/// assert!(model.margin(&[4.0]) > 0.0);
/// assert!(model.margin(&[1.0]) < 0.0);
/// assert_eq!(model.margin(&[f32::NAN]), 0.0); // abstains on missing
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BStump {
    stumps: Vec<Stump>,
    n_features: usize,
}

impl BStump {
    /// Trains on a dataset with uniform initial weights.
    pub fn fit(data: &Dataset, config: &BoostConfig) -> Self {
        Self::fit_weighted(&data.x, &data.y, &uniform_weights(data.len()), config)
    }

    /// Trains with caller-supplied initial weights (they are normalized
    /// internally): [`Self::fit_columns`] fed from the matrix's columns.
    ///
    /// # Panics
    /// Panics if the label or weight slices do not match the matrix rows, or
    /// if the dataset is empty.
    pub fn fit_weighted(
        x: &FeatureMatrix,
        y: &[bool],
        initial_weights: &[f64],
        config: &BoostConfig,
    ) -> Self {
        assert_eq!(x.n_rows(), y.len(), "label/row mismatch");
        Self::fit_columns(x.n_cols(), y, initial_weights, config, |c, column| {
            for (r, v) in column.iter_mut().enumerate() {
                *v = x.get(r, c);
            }
        })
    }

    /// Trains on `n_cols` feature columns that `write_column(c, column)`
    /// writes on demand, one value per row into `column` (`NaN` =
    /// missing), with caller-supplied initial weights (normalized
    /// internally).
    ///
    /// Each column is written into one reused buffer, binned and coded
    /// before the next is asked for, so the fit holds its slot codes
    /// (2 bytes per cell) and one column of values, never a whole matrix:
    /// a caller can derive its columns from a narrower source without
    /// building the matrix it describes. The model is the one
    /// [`Self::fit_weighted`] trains on a matrix holding the same values.
    ///
    /// # Panics
    /// Panics if the weight slice does not match the labels, or if there
    /// are no rows.
    pub fn fit_columns(
        n_cols: usize,
        y: &[bool],
        initial_weights: &[f64],
        config: &BoostConfig,
        mut write_column: impl FnMut(usize, &mut [f32]),
    ) -> Self {
        assert_eq!(y.len(), initial_weights.len(), "weight/row mismatch");
        assert!(!y.is_empty(), "cannot train on an empty dataset");

        let mut buffers = SortBuffers::default();
        let mut column = vec![0.0f32; y.len()];
        let columns: Vec<CodedColumn> = (0..n_cols)
            .map(|c| {
                write_column(c, &mut column);
                let values = column.iter().copied();
                let binned = BinnedFeature::quantize(values, config.n_bins, &mut buffers);
                CodedColumn::new(c, &binned, y)
            })
            .collect();
        Self::boost(&columns, initial_weights, config, n_cols)
    }

    /// Trains from an already-binned dataset, restricted to the given
    /// candidate feature columns (lets callers amortize binning across many
    /// models — e.g. the per-feature selection models train one single-column
    /// model per candidate from one shared binning).
    ///
    /// The fit holds 2 bytes per row and candidate of slot codes while it
    /// runs.
    ///
    /// # Panics
    /// Panics if the label or weight slices do not match the dataset rows,
    /// or if the weights sum to zero.
    pub fn fit_binned(
        binned: &BinnedDataset,
        y: &[bool],
        initial_weights: &[f64],
        config: &BoostConfig,
        candidate_features: &[usize],
    ) -> Self {
        assert_eq!(binned.n_rows(), y.len(), "label/row mismatch");
        assert_eq!(binned.n_rows(), initial_weights.len(), "weight/row mismatch");
        let columns: Vec<CodedColumn> =
            candidate_features.iter().map(|&f| CodedColumn::new(f, binned.feature(f), y)).collect();
        Self::boost(&columns, initial_weights, config, binned.n_features())
    }

    /// The boosting rounds over a fit's coded candidate columns.
    fn boost(
        columns: &[CodedColumn],
        initial_weights: &[f64],
        config: &BoostConfig,
        n_features: usize,
    ) -> Self {
        let _span = nevermind_obs::span!("ml/bstump_fit");
        let n = initial_weights.len();
        let smoothing = config.smoothing.unwrap_or(1.0 / (2.0 * n as f64));
        let mut weights: Vec<f64> = initial_weights.to_vec();
        normalize(&mut weights);

        let threads = if config.parallel && columns.len() >= 8 { 0 } else { 1 };
        // Grown round by round: `iterations` is a budget, not a size, and
        // may be far above the rounds a fit runs before it stops early.
        let mut stumps = Vec::new();

        for _t in 0..config.iterations {
            let Some((c, res)) = search(columns, &weights, smoothing, threads) else { break };
            // Z >= 1 means the stump no longer reduces training loss; any
            // further rounds would just oscillate.
            if res.z >= 1.0 - 1e-12 {
                break;
            }

            columns[c].reweight(&res.stump, &mut weights);
            stumps.push(res.stump);
        }
        nevermind_obs::counter_add!("ml/boost_rounds", stumps.len());

        Self { stumps, n_features }
    }

    /// Raw margin `Σ_t g_t(x)` for one feature row.
    pub fn margin(&self, row: &[f32]) -> f64 {
        self.stumps.iter().map(|s| s.score(row)).sum()
    }

    /// Margins for every row of a matrix.
    ///
    /// # Panics
    /// Panics if the matrix has fewer columns than the training data.
    pub fn margins(&self, x: &FeatureMatrix) -> Vec<f64> {
        assert!(
            x.n_cols() >= self.n_features,
            "matrix has {} columns, model expects {}",
            x.n_cols(),
            self.n_features
        );
        (0..x.n_rows()).map(|r| self.margin(x.row(r))).collect()
    }

    /// Margins of every row after each of the requested iteration
    /// checkpoints (ascending). Returned as one margin vector per
    /// checkpoint; checkpoints beyond the trained length are clamped.
    ///
    /// This is what cross-validated iteration-count selection uses: train
    /// once with the maximum `T`, then evaluate every candidate `T` from the
    /// staged margins instead of retraining.
    pub fn staged_margins(&self, x: &FeatureMatrix, checkpoints: &[usize]) -> Vec<Vec<f64>> {
        let mut acc = vec![0.0f64; x.n_rows()];
        let mut out = Vec::with_capacity(checkpoints.len());
        let mut next_stump = 0usize;
        for &cp in checkpoints {
            let cp = cp.min(self.stumps.len());
            while next_stump < cp {
                let s = &self.stumps[next_stump];
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot += s.score(x.row(r));
                }
                next_stump += 1;
            }
            out.push(acc.clone());
        }
        out
    }

    /// The trained weak learners, in boosting order.
    pub fn stumps(&self) -> &[Stump] {
        &self.stumps
    }

    /// Number of feature columns the model was trained against.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// The initial weights [`BStump::fit`] starts from: `1/n` per row.
pub fn uniform_weights(n: usize) -> Vec<f64> {
    vec![1.0 / n.max(1) as f64; n]
}

fn normalize(weights: &mut [f64]) {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    for w in weights.iter_mut() {
        *w /= total;
    }
}

/// Candidates whose histograms one pass over the rows fills. Four
/// independent `h[code] += w` chains keep the adds from waiting on each
/// other's stores; eight measured no faster (DESIGN.md §14).
const LANES: usize = 4;

/// One candidate column of a fit with the fit's labels folded in: a `u16`
/// slot code per row, `2·bin + y` for a present value and `2·k` for a
/// missing one (`k` = the column's bin count), so slot `code` of the
/// column's histogram collects the row's weight.
struct CodedColumn {
    /// The column's feature index.
    feature: usize,
    /// Its bin edges.
    edges: Vec<f32>,
    /// One slot code per row.
    codes: Vec<u16>,
}

impl CodedColumn {
    fn new(feature: usize, column: &BinnedFeature, y: &[bool]) -> Self {
        let k = column.n_bins();
        assert!(
            k <= MAX_BINS + 1,
            "feature {feature}: {k} bins; slot codes allow {}",
            MAX_BINS + 1
        );
        assert_eq!(column.bin_of_row.len(), y.len(), "feature {feature}: bin/label mismatch");
        let missing = (2 * k) as u16;
        let codes = column
            .bin_of_row
            .iter()
            .zip(y)
            .map(|(&bin, &label)| match bin {
                MISSING_BIN => missing,
                _ => 2 * bin + u16::from(label),
            })
            .collect();
        Self { feature, edges: column.edges.clone(), codes }
    }

    /// Applies the AdaBoost update `w_i ← w_i·exp(-y_i·g(x_i))` for a
    /// stump on this column, then renormalizes. Every row with the same
    /// slot code gets the same factor, so the `exp` runs once per slot,
    /// not once per row.
    fn reweight(&self, stump: &Stump, weights: &mut [f64]) {
        let k = self.edges.len();
        // The stump threshold is always one of the bin edges; rows in bins
        // up to and including that edge go left.
        let split_bin = self.edges.partition_point(|&e| e < stump.threshold);
        let factor: Vec<f64> = (0..=2 * k)
            .map(|code| {
                let bin = code / 2;
                let g = if bin == k {
                    0.0
                } else if bin <= split_bin {
                    stump.s_le
                } else {
                    stump.s_gt
                };
                let signed = if code % 2 == 1 { g } else { -g };
                (-signed).exp()
            })
            .collect();
        for (w, &code) in weights.iter_mut().zip(&self.codes) {
            *w *= factor[usize::from(code)];
        }
        normalize(weights);
    }
}

/// The best stump over every column under `weights`, with the winner's
/// position in `columns`. Groups of [`LANES`] columns are spread over
/// `threads` [`nevermind_obs::par`] parts.
fn search(
    columns: &[CodedColumn],
    weights: &[f64],
    smoothing: f64,
    threads: usize,
) -> Option<(usize, StumpSearchResult)> {
    let n_groups = columns.len().div_ceil(LANES);
    let per_part = nevermind_obs::par::map(n_groups, threads, |groups| {
        let mut hists = Default::default();
        groups
            .flat_map(|g| group_splits(columns, g, weights, smoothing, &mut hists))
            .fold(None, best_of)
    });
    per_part.into_iter().flatten().fold(None, best_of)
}

/// The best split of each column in group `g` (positions `g·LANES..`, at
/// most [`LANES`] of them) that admits one, with its position — all from
/// one pass over the rows. `hists` is scratch space.
fn group_splits(
    columns: &[CodedColumn],
    g: usize,
    weights: &[f64],
    smoothing: f64,
    hists: &mut [Vec<f64>; LANES],
) -> Vec<(usize, StumpSearchResult)> {
    let lanes = g * LANES..((g + 1) * LANES).min(columns.len());
    let group = &columns[lanes.clone()];
    let hists = &mut hists[..group.len()];
    for (h, column) in hists.iter_mut().zip(group) {
        h.clear();
        h.resize(2 * column.edges.len() + 1, 0.0);
    }
    let codes: Vec<&[u16]> = group.iter().map(|column| column.codes.as_slice()).collect();
    fill_histograms(&codes, weights, hists);
    lanes
        .zip(group.iter().zip(hists.iter()))
        .filter_map(|(c, (column, h))| {
            best_split(column.feature, &column.edges, h, smoothing).map(|res| (c, res))
        })
        .collect()
}

/// Adds each row's weight to slot `codes[j][row]` of `hists[j]`, for every
/// lane `j` (one to [`LANES`]) in one pass over the rows.
fn fill_histograms(codes: &[&[u16]], weights: &[f64], hists: &mut [Vec<f64>]) {
    match (codes, hists) {
        ([a, b, c, d], [ha, hb, hc, hd]) => fill([a, b, c, d], weights, [ha, hb, hc, hd]),
        ([a, b, c], [ha, hb, hc]) => fill([a, b, c], weights, [ha, hb, hc]),
        ([a, b], [ha, hb]) => fill([a, b], weights, [ha, hb]),
        ([a], [ha]) => fill([a], weights, [ha]),
        _ => {}
    }
}

/// The branch-free histogram kernel: `N` independent scatters per row.
#[inline(always)]
fn fill<const N: usize>(codes: [&[u16]; N], weights: &[f64], hists: [&mut Vec<f64>; N]) {
    let n = weights.len();
    let codes = codes.map(|c| &c[..n]);
    let mut hists = hists.map(|h| h.as_mut_slice());
    for (r, &w) in weights.iter().enumerate() {
        for (h, c) in hists.iter_mut().zip(&codes) {
            h[usize::from(c[r])] += w;
        }
    }
}

/// Folds a candidate (with its candidate position) into the running best
/// under the total order `(Z, feature index)`: ties break on the lowest
/// feature index, so the winner does not depend on how the features were
/// partitioned.
fn best_of(
    incumbent: Option<(usize, StumpSearchResult)>,
    candidate: (usize, StumpSearchResult),
) -> Option<(usize, StumpSearchResult)> {
    match incumbent {
        Some(inc) if !better(&candidate.1, &inc.1) => Some(inc),
        _ => Some(candidate),
    }
}

/// Whether `candidate` beats `incumbent` under `(Z, feature index)` order.
fn better(candidate: &StumpSearchResult, incumbent: &StumpSearchResult) -> bool {
    candidate.z < incumbent.z
        || (candidate.z == incumbent.z && candidate.stump.feature < incumbent.stump.feature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureMeta;
    use crate::stump::best_stump_for_feature;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Synthetic problem: positives live in the corner x0 > 0.5 AND x1 > 0.5,
    /// with optional label noise. Two noise features are included.
    fn corner_dataset(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let meta = vec![
            FeatureMeta::continuous("x0"),
            FeatureMeta::continuous("x1"),
            FeatureMeta::continuous("n0"),
            FeatureMeta::continuous("n1"),
        ];
        let mut values = Vec::with_capacity(n * 4);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f32 = rng.random();
            let x1: f32 = rng.random();
            values.extend_from_slice(&[x0, x1, rng.random(), rng.random()]);
            let mut y = x0 > 0.5 && x1 > 0.5;
            if rng.random_bool(noise) {
                y = !y;
            }
            labels.push(y);
        }
        Dataset::new(FeatureMatrix::new(n, meta, values), labels)
    }

    fn accuracy(model: &BStump, data: &Dataset) -> f64 {
        let margins = model.margins(&data.x);
        let correct = margins.iter().zip(&data.y).filter(|(&m, &y)| (m > 0.0) == y).count();
        correct as f64 / data.len() as f64
    }

    #[test]
    fn learns_conjunction() {
        let train = corner_dataset(2000, 0.0, 1);
        let test = corner_dataset(1000, 0.0, 2);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(60));
        let acc = accuracy(&model, &test);
        assert!(acc > 0.95, "test accuracy {acc}");
    }

    #[test]
    fn tolerates_label_noise() {
        let train = corner_dataset(3000, 0.15, 3);
        let test = corner_dataset(1000, 0.0, 4); // evaluate on clean labels
        let model = BStump::fit(&train, &BoostConfig::with_iterations(60));
        let acc = accuracy(&model, &test);
        assert!(acc > 0.85, "noisy-label test accuracy {acc}");
    }

    #[test]
    fn margin_is_sum_of_stump_scores() {
        let train = corner_dataset(500, 0.0, 5);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(10));
        let row = train.x.row(0);
        let manual: f64 = model.stumps().iter().map(|s| s.score(row)).sum();
        assert!((model.margin(row) - manual).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_serial() {
        let train = corner_dataset(800, 0.05, 6);
        let mut cfg = BoostConfig::with_iterations(25);
        cfg.parallel = false;
        let serial = BStump::fit(&train, &cfg);
        cfg.parallel = true;
        let parallel = BStump::fit(&train, &cfg);
        assert_eq!(serial.stumps(), parallel.stumps());

        // Ten columns clear the eight-feature floor, so the search really
        // fans out; repeated columns force exact `Z` ties across parts.
        let wide = train.select_columns(&[0, 1, 2, 3, 0, 1, 2, 3, 1, 0]);
        cfg.parallel = false;
        let serial = BStump::fit(&wide, &cfg);
        cfg.parallel = true;
        let parallel = BStump::fit(&wide, &cfg);
        assert_eq!(serial.stumps(), parallel.stumps());
    }

    #[test]
    fn deterministic_across_runs() {
        let train = corner_dataset(800, 0.05, 7);
        let cfg = BoostConfig::with_iterations(25);
        let a = BStump::fit(&train, &cfg);
        let b = BStump::fit(&train, &cfg);
        assert_eq!(a.stumps(), b.stumps());
    }

    #[test]
    fn handles_missing_values() {
        // Half the signal column is missing; the model should still learn.
        let mut train = corner_dataset(2000, 0.0, 8);
        for r in (0..train.len()).step_by(2) {
            train.x.set(r, 0, f32::NAN);
        }
        let test = corner_dataset(1000, 0.0, 9);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(80));
        let acc = accuracy(&model, &test);
        assert!(acc > 0.85, "accuracy with missing data {acc}");
    }

    #[test]
    fn stops_early_when_no_progress() {
        // A binary feature with perfectly balanced labels on each side has
        // Z = 1 exactly: no stump can reduce the loss, so training stops
        // immediately instead of burning through the iteration budget.
        let meta = vec![FeatureMeta::continuous("f")];
        let x = FeatureMatrix::new(4, meta, vec![0.0, 0.0, 1.0, 1.0]);
        let y = vec![true, false, true, false];
        let cfg = BoostConfig { iterations: 5000, parallel: false, ..BoostConfig::default() };
        let model = BStump::fit_weighted(&x, &y, &[0.25; 4], &cfg);
        assert!(model.stumps().is_empty(), "trained {} stumps", model.stumps().len());
    }

    #[test]
    fn an_unbounded_budget_reserves_nothing_up_front() {
        // A constant column admits no split, so the fit stops before its
        // first round, whatever its budget.
        let meta = vec![FeatureMeta::continuous("f")];
        let x = FeatureMatrix::new(3, meta, vec![7.0; 3]);
        let cfg = BoostConfig { iterations: usize::MAX, ..BoostConfig::default() };
        let model = BStump::fit(&Dataset::new(x, vec![true, false, true]), &cfg);
        assert!(model.stumps().is_empty(), "trained {} stumps", model.stumps().len());
    }

    #[test]
    fn weighted_fit_respects_weights() {
        // Two contradictory points; the heavier one dictates the sign.
        let meta = vec![FeatureMeta::continuous("f")];
        let x = FeatureMatrix::new(2, meta, vec![1.0, 2.0]);
        let y = vec![true, false];
        let cfg = BoostConfig { iterations: 5, n_bins: 4, smoothing: Some(1e-3), parallel: false };
        let model = BStump::fit_weighted(&x, &y, &[0.9, 0.1], &cfg);
        assert!(model.margin(&[1.0]) > 0.0);
        let model2 = BStump::fit_weighted(&x, &y, &[0.1, 0.9], &cfg);
        assert!(model2.margin(&[2.0]) < 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let train = corner_dataset(300, 0.0, 12);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(10));
        let json = serde_json::to_string(&model).expect("serialize");
        let back: BStump = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(model.stumps(), back.stumps());
        assert_eq!(model.n_features(), back.n_features());
    }

    #[test]
    fn feature_usage_counts() {
        let train = corner_dataset(1000, 0.0, 13);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(30));
        let mut usage = [0usize; 4];
        for s in model.stumps() {
            usage[s.feature] += 1;
        }
        // The two signal features should dominate usage.
        assert!(usage[0] + usage[1] > usage[2] + usage[3], "{usage:?}");
    }

    /// A column drawn from one of several shapes: continuous, a coarse grid
    /// (forces tied values), binary, constant or all-missing, each with its
    /// own missing rate from 0 to 100%.
    fn random_column(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
        let missing = [0.0, 0.05, 0.3, 0.9, 1.0][rng.random_range(0..5usize)];
        let shape = rng.random_range(0..5u32);
        (0..n)
            .map(|_| {
                if rng.random_bool(missing) {
                    return f32::NAN;
                }
                match shape {
                    0 => rng.random::<f32>() * 100.0 - 50.0,
                    1 => rng.random_range(0..6u32) as f32 / 4.0,
                    2 => rng.random_range(0..2u32) as f32,
                    3 => 7.0,
                    _ => f32::NAN,
                }
            })
            .collect()
    }

    fn random_dataset(rng: &mut ChaCha8Rng, n: usize, n_cols: usize) -> Dataset {
        let cols: Vec<Vec<f32>> = (0..n_cols).map(|_| random_column(rng, n)).collect();
        let values = (0..n).flat_map(|r| cols.iter().map(move |c| c[r])).collect();
        let meta = (0..n_cols).map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
        let positives = rng.random_range(0.05..0.5);
        let labels = (0..n).map(|_| rng.random_bool(positives)).collect();
        Dataset::new(FeatureMatrix::new(n, meta, values), labels)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Each candidate's split from the four-wide code kernel equals
        /// the row-by-row reference bit for bit, for every remainder of
        /// the four-wide pass (1–9 candidates) and every bin count the
        /// ablations use.
        #[test]
        fn kernel_splits_match_the_row_by_row_reference(
            seed in 0u64..u64::MAX,
            n in 1usize..400,
            n_cols in 1usize..10,
            n_bins in 2usize..257,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let data = random_dataset(&mut rng, n, n_cols);
            let weights: Vec<f64> = (0..n).map(|_| rng.random_range(0.01..1.0)).collect();
            let smoothing = 1.0 / (2.0 * n as f64);
            let binned = BinnedDataset::from_matrix(&data.x, n_bins);
            // Candidates out of column order, so positions and feature
            // indices differ.
            let candidates: Vec<usize> = (0..n_cols).rev().collect();
            let columns: Vec<CodedColumn> = candidates
                .iter()
                .map(|&f| CodedColumn::new(f, binned.feature(f), &data.y))
                .collect();
            let mut hists = Default::default();
            let mut kernel = vec![None; n_cols];
            for g in 0..n_cols.div_ceil(LANES) {
                for (c, res) in group_splits(&columns, g, &weights, smoothing, &mut hists) {
                    kernel[c] = Some(res);
                }
            }
            for (c, &f) in candidates.iter().enumerate() {
                let feature = binned.feature(f);
                let reference = best_stump_for_feature(f, feature, &data.y, &weights, smoothing);
                let present: Vec<f32> =
                    data.x.column(f).filter(|v| !v.is_nan()).collect();
                if present.iter().all(|&v| v == present.first().copied().unwrap_or(0.0)) {
                    // Constant and all-missing columns admit no split.
                    proptest::prop_assert!(kernel[c].is_none() && reference.is_none());
                }
                match (&kernel[c], &reference) {
                    (None, None) => {}
                    (Some(k), Some(r)) => {
                        proptest::prop_assert_eq!(k.stump.feature, r.stump.feature);
                        proptest::prop_assert_eq!(
                            k.stump.threshold.to_bits(),
                            r.stump.threshold.to_bits()
                        );
                        proptest::prop_assert_eq!(k.stump.s_le.to_bits(), r.stump.s_le.to_bits());
                        proptest::prop_assert_eq!(k.stump.s_gt.to_bits(), r.stump.s_gt.to_bits());
                        proptest::prop_assert_eq!(k.z.to_bits(), r.z.to_bits());
                    }
                    (k, r) => panic!("candidate {c}: kernel {k:?} vs reference {r:?}"),
                }
            }
        }
    }

    /// The boosting loop as it ran before slot codes: a row-by-row stump
    /// search over all columns and a per-row `exp` weight update.
    fn reference_fit(data: &Dataset, config: &BoostConfig) -> Vec<Stump> {
        let n = data.len();
        let binned = BinnedDataset::from_matrix(&data.x, config.n_bins);
        let candidates: Vec<usize> = (0..data.x.n_cols()).collect();
        let smoothing = config.smoothing.unwrap_or(1.0 / (2.0 * n as f64));
        let mut weights = vec![1.0 / n as f64; n];
        normalize(&mut weights);
        let mut stumps = Vec::new();
        for _ in 0..config.iterations {
            let Some(res) =
                crate::stump::best_stump(&binned, &candidates, &data.y, &weights, smoothing)
            else {
                break;
            };
            if res.z >= 1.0 - 1e-12 {
                break;
            }
            let feature = binned.feature(res.stump.feature);
            let split_bin = feature.edges.partition_point(|&e| e < res.stump.threshold) as u16;
            for ((&bin, &label), w) in feature.bin_of_row.iter().zip(&data.y).zip(&mut weights) {
                let g = if bin == MISSING_BIN {
                    0.0
                } else if bin <= split_bin {
                    res.stump.s_le
                } else {
                    res.stump.s_gt
                };
                let signed = if label { g } else { -g };
                *w *= (-signed).exp();
            }
            normalize(&mut weights);
            stumps.push(res.stump);
        }
        stumps
    }

    /// Every stump field's bit pattern.
    fn bits(stumps: &[Stump]) -> Vec<(usize, u32, u64, u64)> {
        stumps
            .iter()
            .map(|s| (s.feature, s.threshold.to_bits(), s.s_le.to_bits(), s.s_gt.to_bits()))
            .collect()
    }

    #[test]
    fn fit_matches_the_reference_loop_stump_for_stump() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut corner = corner_dataset(700, 0.1, 22);
        for r in (0..corner.len()).step_by(3) {
            corner.x.set(r, (r / 3) % 4, f32::NAN);
        }
        // Balanced labels on both sides of a binary feature: Z = 1 at once.
        let meta = vec![FeatureMeta::continuous("f")];
        let balanced = Dataset::new(
            FeatureMatrix::new(4, meta, vec![0.0, 0.0, 1.0, 1.0]),
            vec![true, false, true, false],
        );
        let datasets = [
            corner.clone(),
            corner.select_columns(&[0, 1, 2, 3, 0, 1, 2, 3, 1, 0]),
            random_dataset(&mut rng, 900, 11),
            random_dataset(&mut rng, 300, 9),
            balanced,
        ];
        let mut early_stops = 0;
        for data in &datasets {
            for n_bins in [4, 64, 256] {
                for parallel in [false, true] {
                    let cfg = BoostConfig { iterations: 40, n_bins, smoothing: None, parallel };
                    let fitted = BStump::fit(data, &cfg);
                    let reference = reference_fit(data, &cfg);
                    assert_eq!(
                        bits(fitted.stumps()),
                        bits(&reference),
                        "{n_bins} bins, parallel {parallel}"
                    );
                    early_stops += usize::from(reference.len() < cfg.iterations);
                }
            }
        }
        assert!(early_stops > 0, "some fit must stop before its budget");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let x = FeatureMatrix::new(0, vec![FeatureMeta::continuous("f")], vec![]);
        let _ = BStump::fit_weighted(&x, &[], &[], &BoostConfig::default());
    }
}
