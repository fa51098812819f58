//! Ranking metrics, including the paper's top-N average precision.
//!
//! The paper evaluates the ticket predictor almost entirely through ranking
//! curves: *accuracy* (their term for precision within the top-x
//! predictions, Fig. 6/7), ROC AUC and classic average precision as baseline
//! feature-selection criteria (Table 4), and the novel `AP(N)` (Sec. 4.3)
//! that focuses a selection criterion on the top of the ranking where the
//! 20K ATDS budget lives.
//!
//! The tie-averaged `AP(N)` needs only the ranking's tie groups — their
//! sizes and positive counts, in descending score order — so its walk over
//! them is its own function. [`expected_top_n_average_precision`] finds the
//! groups by ranking the scores; feature selection counts them per bin of
//! a single-feature model and feeds the same walk.

use crate::rank::argsort_desc;

/// Area under the ROC curve via the rank-sum (Mann–Whitney) statistic, with
/// the standard midrank correction for tied scores.
///
/// Returns `NaN` when either class is absent (AUC is undefined then).
///
/// ```
/// use nevermind_ml::metrics::auc;
/// let scores = [0.9, 0.4, 0.6, 0.1];
/// let labels = [true, false, true, false];
/// assert_eq!(auc(&scores, &labels), 1.0); // perfect ranking
/// ```
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "score/label mismatch");
    let n_pos = labels.iter().filter(|&&y| y).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return f64::NAN;
    }

    // Ascending order; assign midranks to tied blocks.
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        // Ranks are 1-based; the tied block [i..=j] shares the midrank.
        let midrank = (i + 1 + j + 1) as f64 / 2.0;
        for &k in &idx[i..=j] {
            if labels[k] {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let n_pos_f = n_pos as f64;
    let n_neg_f = n_neg as f64;
    (rank_sum_pos - n_pos_f * (n_pos_f + 1.0) / 2.0) / (n_pos_f * n_neg_f)
}

/// Classic average precision: `AP = (1/P) Σ_r Prec(r)·y_(r)` where `P` is the
/// number of positives and the sum runs over the full descending ranking.
///
/// Returns `NaN` when there are no positives.
pub fn average_precision(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "score/label mismatch");
    let order = argsort_desc(scores);
    let n_pos = labels.iter().filter(|&&y| y).count();
    if n_pos == 0 {
        return f64::NAN;
    }
    let mut hits = 0usize;
    let mut sum = 0.0f64;
    for (r, &i) in order.iter().enumerate() {
        if labels[i] {
            hits += 1;
            sum += hits as f64 / (r + 1) as f64;
        }
    }
    sum / n_pos as f64
}

/// The paper's **top-N average precision** (Sec. 4.3):
///
/// `AP(N) = (1/N) Σ_{r=1..N} Prec(r) · Tkt(u_r)`
///
/// i.e. the sum of precisions at every true prediction within the top `N`,
/// averaged by `N` (not by the number of positives). It rewards rankings
/// that pack true tickets into the top of the list — exactly what the
/// 20K-capacity ATDS constraint demands.
///
/// ```
/// use nevermind_ml::metrics::top_n_average_precision;
/// // Ranking: hit, miss, hit — AP(3) = (1/1 + 2/3) / 3.
/// let scores = [0.9, 0.5, 0.4];
/// let labels = [true, false, true];
/// let ap = top_n_average_precision(&scores, &labels, 3);
/// assert!((ap - (1.0 + 2.0 / 3.0) / 3.0).abs() < 1e-12);
/// ```
pub fn top_n_average_precision(scores: &[f64], labels: &[bool], n: usize) -> f64 {
    assert_eq!(scores.len(), labels.len(), "score/label mismatch");
    if n == 0 {
        return 0.0;
    }
    let order = argsort_desc(scores);
    let n_eval = n.min(order.len());
    let mut hits = 0usize;
    let mut sum = 0.0f64;
    for (r, &i) in order.iter().take(n_eval).enumerate() {
        if labels[i] {
            hits += 1;
            sum += hits as f64 / (r + 1) as f64;
        }
    }
    sum / n as f64
}

/// Tie-averaged **top-N average precision**: the expectation of `AP(N)`
/// over a uniformly random ordering of tied scores.
///
/// Single-feature stump models emit only a handful of distinct scores, so
/// the plain [`top_n_average_precision`] of such a ranking is dominated by
/// the arbitrary order *within* a tie group straddling the cut — exactly
/// the regime feature selection runs in. This variant spreads each tie
/// group's positives uniformly across its ranks (the expected cumulative
/// hit curve is piecewise linear), giving a deterministic, permutation-fair
/// criterion. For a ranking with no ties it coincides with the exact
/// definition up to floating-point error.
pub fn expected_top_n_average_precision(scores: &[f64], labels: &[bool], n: usize) -> f64 {
    assert_eq!(scores.len(), labels.len(), "score/label mismatch");
    let order = argsort_desc(scores);
    let mut i = 0usize;
    let tie_groups = std::iter::from_fn(|| {
        let tie_score = scores[*order.get(i)?];
        let mut j = i;
        while j + 1 < order.len() && same_score(scores[order[j + 1]], tie_score) {
            j += 1;
        }
        let k = order[i..=j].iter().filter(|&&idx| labels[idx]).count();
        let group = (j - i + 1, k);
        i = j + 1;
        Some(group)
    });
    expected_top_n_ap_of_tie_groups(tie_groups, scores.len(), n)
}

/// Whether two scores tie in a ranking: equal under `==` (so `+0.0` ties
/// `-0.0`), or both `NaN`.
pub(crate) fn same_score(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

/// The walk behind [`expected_top_n_average_precision`]: the expected
/// `AP(N)` of a ranking of `n_rows` rows given as its tie groups in
/// descending score order, each as `(rows, positives)`. Feature selection
/// feeds it tie groups it counted without ranking any rows
/// ([`crate::select`]).
pub(crate) fn expected_top_n_ap_of_tie_groups(
    tie_groups: impl IntoIterator<Item = (usize, usize)>,
    n_rows: usize,
    n: usize,
) -> f64 {
    if n == 0 || n_rows == 0 {
        return 0.0;
    }
    let n_eval = n.min(n_rows);

    // Within a group of size g holding k positives, the expected positive
    // density is k/g per rank.
    let mut sum = 0.0f64; // Σ E[Prec(r) · y_r]
    let mut cum = 0.0f64; // expected positives seen so far
    let mut rank = 0usize; // 0-based rank consumed
    let mut tie_groups = tie_groups.into_iter();
    while rank < n_eval {
        let Some((g, k)) = tie_groups.next() else { break };
        let density = k as f64 / g as f64;
        for _ in 0..g {
            if rank >= n_eval {
                break;
            }
            // E[Prec(r)·y_r] ≈ density · (cum + density·(within-rank share)) / r
            let expected_cum_at_r = cum + density;
            sum += density * expected_cum_at_r / (rank + 1) as f64;
            cum = expected_cum_at_r;
            rank += 1;
        }
    }
    sum / n as f64
}

/// Precision within the top `k` of the descending ranking — the paper's
/// "accuracy" for the top-k predictions.
pub fn precision_at_k(scores: &[f64], labels: &[bool], k: usize) -> f64 {
    assert_eq!(scores.len(), labels.len(), "score/label mismatch");
    let k = k.min(scores.len());
    if k == 0 {
        return f64::NAN;
    }
    let order = argsort_desc(scores);
    let hits = order.iter().take(k).filter(|&&i| labels[i]).count();
    hits as f64 / k as f64
}

/// Precision@k evaluated on a grid of cutoffs — the Fig. 6 / Fig. 7 curves.
///
/// Cutoffs beyond the number of examples are clamped; the returned pairs are
/// `(requested_cutoff, precision_at_clamped_cutoff)`.
pub fn precision_curve(scores: &[f64], labels: &[bool], cutoffs: &[usize]) -> Vec<(usize, f64)> {
    assert_eq!(scores.len(), labels.len(), "score/label mismatch");
    let order = argsort_desc(scores);
    let mut result = Vec::with_capacity(cutoffs.len());
    // Precompute cumulative hits so arbitrary cutoffs are O(1).
    let mut cum = Vec::with_capacity(order.len() + 1);
    cum.push(0usize);
    for &i in &order {
        // lint:allow(no-panic-in-lib) -- cum is seeded with a 0 before the loop
        cum.push(cum.last().expect("non-empty") + usize::from(labels[i]));
    }
    for &k in cutoffs {
        let kk = k.min(order.len());
        let p = if kk == 0 { f64::NAN } else { cum[kk] as f64 / kk as f64 };
        result.push((k, p));
    }
    result
}

/// Number of true positives within the top `k` of the ranking.
pub fn hits_at_k(scores: &[f64], labels: &[bool], k: usize) -> usize {
    let order = argsort_desc(scores);
    order.iter().take(k.min(order.len())).filter(|&&i| labels[i]).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_ranking() {
        let s = [0.9, 0.8, 0.2, 0.1];
        let y = [true, true, false, false];
        assert!((auc(&s, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_inverted_ranking() {
        let s = [0.1, 0.2, 0.8, 0.9];
        let y = [true, true, false, false];
        assert!((auc(&s, &y)).abs() < 1e-12);
    }

    #[test]
    fn auc_random_is_half() {
        let s = [0.5, 0.5, 0.5, 0.5];
        let y = [true, false, true, false];
        assert!((auc(&s, &y) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_ties_use_midranks() {
        // One positive tied with one negative, one clear negative below.
        let s = [0.7, 0.7, 0.1];
        let y = [true, false, false];
        // P(pos > neg) + 0.5 P(tie) = (1 + 0.5) / 2 = 0.75
        assert!((auc(&s, &y) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn auc_undefined_single_class() {
        assert!(auc(&[0.3, 0.4], &[true, true]).is_nan());
        assert!(auc(&[0.3, 0.4], &[false, false]).is_nan());
    }

    #[test]
    fn ap_perfect_is_one() {
        let s = [0.9, 0.8, 0.2, 0.1];
        let y = [true, true, false, false];
        assert!((average_precision(&s, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ap_hand_computed() {
        // Ranking: pos, neg, pos → precisions at hits: 1/1, 2/3; AP = (1 + 2/3)/2.
        let s = [0.9, 0.5, 0.4];
        let y = [true, false, true];
        let expected = (1.0 + 2.0 / 3.0) / 2.0;
        assert!((average_precision(&s, &y) - expected).abs() < 1e-12);
    }

    #[test]
    fn top_n_ap_matches_paper_definition() {
        // Ranking: pos, neg, pos, neg; N = 3.
        // AP(3) = (Prec(1)·1 + Prec(3)·1) / 3 = (1 + 2/3)/3.
        let s = [0.9, 0.8, 0.7, 0.6];
        let y = [true, false, true, false];
        let expected = (1.0 + 2.0 / 3.0) / 3.0;
        assert!((top_n_average_precision(&s, &y, 3) - expected).abs() < 1e-12);
    }

    #[test]
    fn top_n_ap_rewards_front_loading() {
        // Same #positives in top-4, but packed at the front vs at the back.
        let y = [true, true, false, false];
        let front = [0.9, 0.8, 0.2, 0.1];
        let y2 = [false, false, true, true];
        let back = [0.9, 0.8, 0.2, 0.1];
        assert!(top_n_average_precision(&front, &y, 4) > top_n_average_precision(&back, &y2, 4));
    }

    #[test]
    fn top_n_ap_zero_when_no_hits_in_top() {
        let s = [0.9, 0.8, 0.1];
        let y = [false, false, true];
        assert_eq!(top_n_average_precision(&s, &y, 2), 0.0);
    }

    #[test]
    fn top_n_ap_divides_by_n_not_population() {
        // Perfect top-1 with N=2 gives 1/2, not 1.
        let s = [0.9, 0.1];
        let y = [true, false];
        assert!((top_n_average_precision(&s, &y, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expected_ap_matches_exact_without_ties() {
        let s = [0.9, 0.8, 0.7, 0.6, 0.5];
        let y = [true, false, true, false, true];
        for n in 1..=5 {
            let exact = top_n_average_precision(&s, &y, n);
            let expected = expected_top_n_average_precision(&s, &y, n);
            assert!((exact - expected).abs() < 1e-12, "n={n}: {exact} vs {expected}");
        }
    }

    #[test]
    fn expected_ap_is_tie_order_invariant() {
        // Two positives and two negatives all tied: any concrete ordering
        // gives a different exact AP, but the expected version must not
        // depend on the row order.
        let y1 = [true, true, false, false];
        let y2 = [false, false, true, true];
        let s = [0.5; 4];
        let a = expected_top_n_average_precision(&s, &y1, 2);
        let b = expected_top_n_average_precision(&s, &y2, 2);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        // Density 0.5 per rank: E[AP(2)] = (0.5·(0.5/1) + 0.5·(1.0/2)) / 2.
        let expected = (0.5 * 0.5 + 0.5 * 0.5) / 2.0;
        assert!((a - expected).abs() < 1e-12, "{a}");
    }

    #[test]
    fn expected_ap_prefers_truly_better_tied_ranker() {
        // Ranker A: one informative plateau (80% positive) above the rest;
        // ranker B: everything in one tie at base rate. A must score higher.
        let n = 100;
        let mut labels = vec![false; n];
        let mut scores_a = vec![0.0f64; n];
        for (i, l) in labels.iter_mut().enumerate().take(20) {
            *l = i % 5 != 4; // 16 of top-20 positive
        }
        for s in scores_a.iter_mut().take(20) {
            *s = 1.0;
        }
        let scores_b = vec![0.0f64; n];
        let a = expected_top_n_average_precision(&scores_a, &labels, 10);
        let b = expected_top_n_average_precision(&scores_b, &labels, 10);
        assert!(a > b, "{a} vs {b}");
    }

    #[test]
    fn precision_at_k_basic() {
        let s = [0.9, 0.8, 0.7, 0.6];
        let y = [true, false, true, false];
        assert!((precision_at_k(&s, &y, 1) - 1.0).abs() < 1e-12);
        assert!((precision_at_k(&s, &y, 2) - 0.5).abs() < 1e-12);
        assert!((precision_at_k(&s, &y, 4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn precision_curve_matches_pointwise() {
        let s = [0.9, 0.8, 0.7, 0.6, 0.5];
        let y = [true, false, true, false, true];
        let curve = precision_curve(&s, &y, &[1, 3, 5, 100]);
        assert_eq!(curve.len(), 4);
        for &(k, p) in &curve {
            let expected = precision_at_k(&s, &y, k);
            assert!((p - expected).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn hits_at_k_counts() {
        let s = [0.9, 0.8, 0.7];
        let y = [true, false, true];
        assert_eq!(hits_at_k(&s, &y, 1), 1);
        assert_eq!(hits_at_k(&s, &y, 3), 2);
        assert_eq!(hits_at_k(&s, &y, 50), 2);
    }
}
