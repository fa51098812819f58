//! Deterministic cross-validation utilities.
//!
//! The paper fixes its boosting iteration counts "based on cross-validation"
//! (800 for the ticket predictor, 200 for the locator). [`select_iterations`]
//! reproduces that procedure: train once per fold at the maximum candidate
//! `T`, then score every candidate from staged margins.

use crate::boost::{BStump, BoostConfig};
use crate::data::Dataset;
use crate::metrics::top_n_average_precision;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One train/validation split (row indices into the source dataset).
#[derive(Debug, Clone)]
pub struct Fold {
    /// Training row indices.
    pub train: Vec<usize>,
    /// Validation row indices.
    pub validation: Vec<usize>,
}

/// Produces `k` deterministic folds over `n` rows.
///
/// # Panics
/// Panics if `k < 2` or `k > n`.
pub fn k_folds(n: usize, k: usize, seed: u64) -> Vec<Fold> {
    assert!(k >= 2, "need at least two folds");
    assert!(k <= n, "more folds than rows");
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let lo = f * n / k;
        let hi = (f + 1) * n / k;
        let validation: Vec<usize> = order[lo..hi].to_vec();
        let train: Vec<usize> = order[..lo].iter().chain(order[hi..].iter()).copied().collect();
        folds.push(Fold { train, validation });
    }
    folds
}

/// Cross-validated selection of the boosting iteration count.
///
/// Trains one model per fold at `max(candidates)` iterations and evaluates
/// every candidate from staged margins using `AP(budget)` on the validation
/// fold — the same criterion the predictor is ultimately judged by. Returns
/// the candidate with the highest mean validation score.
pub fn select_iterations(
    data: &Dataset,
    candidates: &[usize],
    k: usize,
    budget_fraction: f64,
    base_config: &BoostConfig,
    seed: u64,
) -> usize {
    assert!(!candidates.is_empty(), "no candidate iteration counts");
    let mut sorted: Vec<usize> = candidates.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    // lint:allow(no-panic-in-lib) -- guarded by the assert on candidates above
    let max_t = *sorted.last().expect("non-empty");

    let folds = k_folds(data.len(), k, seed);
    let mut mean_scores = vec![0.0f64; sorted.len()];
    for fold in &folds {
        let train = data.select_rows(&fold.train);
        let val = data.select_rows(&fold.validation);
        let budget = ((val.len() as f64) * budget_fraction).ceil().max(1.0) as usize;

        let mut cfg = base_config.clone();
        cfg.iterations = max_t;
        let model = BStump::fit(&train, &cfg);
        let staged = model.staged_margins(&val.x, &sorted);
        for (ci, margins) in staged.iter().enumerate() {
            mean_scores[ci] += top_n_average_precision(margins, &val.y, budget);
        }
    }

    let best = mean_scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        // lint:allow(no-panic-in-lib) -- scores has one entry per candidate and candidates is non-empty
        .expect("non-empty");
    sorted[best]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{FeatureMatrix, FeatureMeta};
    use rand::{RngExt, SeedableRng};

    #[test]
    fn folds_partition_all_rows() {
        let folds = k_folds(103, 5, 7);
        assert_eq!(folds.len(), 5);
        let mut seen = [false; 103];
        for f in &folds {
            for &i in &f.validation {
                assert!(!seen[i], "row {i} validated twice");
                seen[i] = true;
            }
            assert_eq!(f.train.len() + f.validation.len(), 103);
        }
        assert!(seen.iter().all(|&s| s), "every row validates exactly once");
    }

    #[test]
    fn folds_are_deterministic() {
        let a = k_folds(50, 4, 11);
        let b = k_folds(50, 4, 11);
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.train, fb.train);
            assert_eq!(fa.validation, fb.validation);
        }
        let c = k_folds(50, 4, 12);
        assert_ne!(a[0].validation, c[0].validation, "different seed, different split");
    }

    #[test]
    fn train_is_disjoint_from_validation() {
        for fold in k_folds(60, 3, 1) {
            for &i in &fold.validation {
                assert!(!fold.train.contains(&i));
            }
        }
    }

    #[test]
    fn iteration_selection_prefers_enough_rounds() {
        // A conjunction target needs several stumps; T=1 must lose to a
        // larger candidate.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let n = 1500;
        let meta = vec![FeatureMeta::continuous("a"), FeatureMeta::continuous("b")];
        let mut values = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.random();
            let b: f32 = rng.random();
            values.extend_from_slice(&[a, b]);
            labels.push(a > 0.6 && b > 0.6);
        }
        let data = Dataset::new(FeatureMatrix::new(n, meta, values), labels);
        let cfg = BoostConfig { parallel: false, ..BoostConfig::default() };
        let best = select_iterations(&data, &[1, 40], 3, 0.2, &cfg, 9);
        assert_eq!(best, 40);
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn rejects_single_fold() {
        let _ = k_folds(10, 1, 0);
    }
}
