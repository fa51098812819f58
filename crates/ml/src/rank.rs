//! Ranking utilities: deterministic, `NaN`-tolerant argsorts used by the
//! metrics, the predictor's top-`B` budget selection, and the locator's
//! disposition lists.

/// Indices that sort `scores` in descending order.
///
/// The sort is stable, so ties keep their original order (deterministic
/// rankings for the budgeted top-`B` selection). `NaN` scores sort last.
pub fn argsort_desc(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| cmp_desc(scores[a], scores[b]));
    idx
}

/// Indices of the `k` highest scores, best first. `k` larger than the input
/// is clamped.
///
/// Equivalent to truncating [`argsort_desc`], including stable tie order and
/// `NaN`-last, but computed by partial selection: an `O(n)`
/// `select_nth_unstable_by` partition followed by a sort of only the top
/// `k`. The weekly budgeted ranking asks for ~1% of the population, so this
/// replaces the dominant `O(n log n)` full sort with `O(n + k log k)`.
pub fn top_k(scores: &[f64], k: usize) -> Vec<usize> {
    top_k_sharded(scores, k, 1)
}

/// [`top_k`] spread over [`nevermind_obs::par`] parts (`n_shards` as its
/// part count, `0` = every core): each contiguous part selects its local
/// top `k`, then the merged candidate pool is selected again under the
/// same total order.
///
/// Bit-identical to [`top_k`] for every `n_shards` (any global top-`k`
/// index is necessarily in its own part's top `k`, and the final selection
/// applies the identical index-augmented comparator), so the weekly
/// budgeted ranking can scale with the plant shards without perturbing a
/// single rank.
pub fn top_k_sharded(scores: &[f64], k: usize, n_shards: usize) -> Vec<usize> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    // Augmenting the descending comparator with the original index yields a
    // total order whose sorted prefix coincides with the *stable* sort's
    // prefix — so unstable selection/sorting is safe.
    let total = |&a: &usize, &b: &usize| cmp_desc(scores[a], scores[b]).then(a.cmp(&b));
    let select = |mut idx: Vec<usize>| {
        if k < idx.len() {
            idx.select_nth_unstable_by(k - 1, total);
            idx.truncate(k);
        }
        idx
    };
    let per_part = nevermind_obs::par::map(scores.len(), n_shards, |r| select(r.collect()));
    let mut candidates = select(per_part.concat());
    candidates.sort_unstable_by(total);
    candidates
}

/// 1-based rank of item `i` (rank 1 = best): its position in the order
/// [`argsort_desc`] sorts and [`top_k`] selects in, so ties take distinct
/// ranks in original order. Counted in `O(n)` without sorting: one plus
/// the items that score higher, plus the earlier items that tie.
pub fn rank_of(scores: &[f64], i: usize) -> usize {
    let p = scores[i];
    1 + scores.iter().enumerate().filter(|&(j, &q)| cmp_desc(q, p).then(j.cmp(&i)).is_lt()).count()
}

/// The descending ranking order: higher scores first, `NaN` last.
pub(crate) fn cmp_desc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater, // NaN after b
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_descends() {
        let s = [0.1, 0.9, 0.5];
        assert_eq!(argsort_desc(&s), vec![1, 2, 0]);
    }

    #[test]
    fn argsort_stable_on_ties() {
        let s = [0.5, 0.9, 0.5, 0.5];
        assert_eq!(argsort_desc(&s), vec![1, 0, 2, 3]);
    }

    #[test]
    fn nan_sorts_last() {
        let s = [f64::NAN, 0.2, 0.8];
        assert_eq!(argsort_desc(&s), vec![2, 1, 0]);
    }

    #[test]
    fn top_k_clamps() {
        let s = [0.3, 0.7];
        assert_eq!(top_k(&s, 10), vec![1, 0]);
        assert_eq!(top_k(&s, 1), vec![1]);
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn ranks_are_one_based_inverse_of_argsort() {
        let ranks = |s: &[f64]| (0..s.len()).map(|i| rank_of(s, i)).collect::<Vec<_>>();
        assert_eq!(ranks(&[0.1, 0.9, 0.5]), vec![3, 1, 2]);
        // Ties take distinct ranks in original order; NaN ranks last.
        let s = [0.5, f64::NAN, 0.9, 0.5, 0.1, 0.9, f64::NAN, 0.5];
        assert_eq!(ranks(&s), vec![3, 7, 1, 4, 6, 2, 8, 5]);
    }

    #[test]
    fn top_k_is_argsort_prefix_with_stable_ties() {
        // Heavy ties: partial selection must reproduce the stable sort's
        // original-order tie breaking at every cutoff.
        let s = [0.5, 0.9, 0.5, 0.5, 0.9, 0.1, 0.5];
        let full = argsort_desc(&s);
        for k in 0..=s.len() + 2 {
            assert_eq!(top_k(&s, k), full[..k.min(s.len())], "k = {k}");
        }
    }

    #[test]
    fn top_k_puts_nan_last_like_argsort() {
        let s = [f64::NAN, 0.2, f64::NAN, 0.8, 0.2];
        let full = argsort_desc(&s);
        for k in 0..=s.len() {
            assert_eq!(top_k(&s, k), full[..k], "k = {k}");
        }
    }

    #[test]
    fn top_k_sharded_matches_top_k_exactly() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB22);
        for trial in 0..30 {
            let n = rng.random_range(1..500usize);
            let scores: Vec<f64> = (0..n)
                .map(|_| match rng.random_range(0..5u32) {
                    0 => f64::NAN,
                    // Coarse grid forces plenty of exact ties.
                    _ => f64::from(rng.random_range(0..6u32)) / 6.0,
                })
                .collect();
            let k = rng.random_range(0..=n);
            let serial = top_k(&scores, k);
            assert_eq!(serial, argsort_desc(&scores)[..k], "trial {trial}, k = {k}");
            for shards in [1usize, 2, 7, 16, 64] {
                assert_eq!(
                    top_k_sharded(&scores, k, shards),
                    serial,
                    "trial {trial}, k = {k}, shards = {shards}"
                );
            }
        }
    }

    #[test]
    fn top_k_sharded_handles_edges() {
        assert!(top_k_sharded(&[], 3, 4).is_empty());
        assert!(top_k_sharded(&[0.5], 0, 4).is_empty());
        assert_eq!(top_k_sharded(&[0.5], 9, 9), vec![0]);
    }

    #[test]
    fn top_k_matches_argsort_on_seeded_random_vectors() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xA11);
        for trial in 0..50 {
            let n = rng.random_range(1..200usize);
            let scores: Vec<f64> = (0..n)
                .map(|_| match rng.random_range(0..4u32) {
                    0 => f64::NAN,
                    // Coarse grid forces plenty of exact ties.
                    _ => f64::from(rng.random_range(0..8u32)) / 8.0,
                })
                .collect();
            let full = argsort_desc(&scores);
            let k = rng.random_range(0..=n);
            assert_eq!(top_k(&scores, k), full[..k], "trial {trial}, k = {k}");
        }
    }
}
