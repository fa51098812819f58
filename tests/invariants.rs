//! Property-based invariants spanning the ml / features crates, checked
//! with proptest on randomized inputs.

use nevermind_ml::boost::{BStump, BoostConfig};
use nevermind_ml::calibrate::PlattScale;
use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};
use nevermind_ml::metrics::{auc, average_precision, precision_at_k, top_n_average_precision};
use nevermind_ml::rank::{argsort_desc, rank_of, top_k};
use nevermind_ml::stats::{normal_cdf, quantile, sigmoid, Ecdf};
use proptest::prelude::*;

/// Strategy producing paired score/label vectors.
fn scores_and_labels() -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    prop::collection::vec((-100.0f64..100.0, any::<bool>()), 1..200)
        .prop_map(|v| v.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metrics_stay_in_unit_interval((scores, labels) in scores_and_labels()) {
        let n = scores.len();
        for k in [1usize, n / 2 + 1, n] {
            let p = precision_at_k(&scores, &labels, k);
            prop_assert!(p.is_nan() || (0.0..=1.0).contains(&p));
            let ap = top_n_average_precision(&scores, &labels, k);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ap));
        }
        let a = auc(&scores, &labels);
        prop_assert!(a.is_nan() || (0.0..=1.0).contains(&a));
        let ap = average_precision(&scores, &labels);
        prop_assert!(ap.is_nan() || (0.0..=1.0 + 1e-12).contains(&ap));
    }

    #[test]
    fn top_n_ap_bounded_by_precision_definition((scores, labels) in scores_and_labels()) {
        // AP(N) is an average of ≤N precisions each ≤1, so AP(N) ≤ hits/N ≤ 1.
        let n = scores.len().max(1);
        let ap = top_n_average_precision(&scores, &labels, n);
        let hits = nevermind_ml::metrics::hits_at_k(&scores, &labels, n) as f64;
        prop_assert!(ap <= hits / n as f64 + 1e-12);
    }

    #[test]
    fn perfect_ranking_maximizes_top_n_ap(labels in prop::collection::vec(any::<bool>(), 1..100)) {
        // Scores equal to labels give the best possible ranking.
        let perfect: Vec<f64> = labels.iter().map(|&y| f64::from(u8::from(y))).collect();
        let n = labels.len();
        let ap_perfect = top_n_average_precision(&perfect, &labels, n);
        // Any other scoring cannot beat it.
        let reversed: Vec<f64> = perfect.iter().map(|v| -v).collect();
        let ap_reversed = top_n_average_precision(&reversed, &labels, n);
        prop_assert!(ap_perfect >= ap_reversed - 1e-12);
    }

    #[test]
    fn argsort_is_a_permutation(scores in prop::collection::vec(-1e6f64..1e6, 0..300)) {
        let order = argsort_desc(&scores);
        let mut seen = order.clone();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..scores.len()).collect::<Vec<_>>());
        // Descending order.
        for w in order.windows(2) {
            prop_assert!(scores[w[0]] >= scores[w[1]]);
        }
        // rank_of is the inverse mapping.
        for (r, &i) in order.iter().enumerate() {
            prop_assert_eq!(rank_of(&scores, i), r + 1);
        }
        // top_k is a prefix of the argsort.
        let k = scores.len() / 2;
        prop_assert_eq!(&top_k(&scores, k)[..], &order[..k]);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        mut xs in prop::collection::vec(-1e4f64..1e4, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let v_lo = quantile(&xs, lo);
        let v_hi = quantile(&xs, hi);
        prop_assert!(v_lo <= v_hi + 1e-9);
        xs.sort_by(f64::total_cmp);
        prop_assert!(v_lo >= xs[0] - 1e-9 && v_hi <= xs[xs.len() - 1] + 1e-9);
    }

    #[test]
    fn ecdf_is_monotone(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let e = Ecdf::new(xs.clone());
        let mut grid: Vec<f64> = xs.clone();
        grid.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &x in &grid {
            let v = e.eval(x);
            prop_assert!(v >= prev - 1e-12);
            prop_assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
        prop_assert!((e.eval(f64::INFINITY) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_and_normal_cdf_are_monotone(a in -50.0f64..50.0, b in -50.0f64..50.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(sigmoid(lo) <= sigmoid(hi) + 1e-15);
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
    }

    #[test]
    fn platt_calibration_is_monotone_when_signal_is_positive(
        seedlike in 0u64..1000,
    ) {
        // Margins positively associated with labels → fitted slope ≥ 0 →
        // probability monotone in margin.
        let n = 200;
        let margins: Vec<f64> = (0..n).map(|i| (i as f64) / 10.0 - 10.0).collect();
        let labels: Vec<bool> = margins
            .iter()
            .enumerate()
            .map(|(i, &m)| m + ((i as u64 * 31 + seedlike) % 7) as f64 - 3.0 > 0.0)
            .collect();
        if labels.iter().any(|&y| y) && labels.iter().any(|&y| !y) {
            let platt = PlattScale::fit(&margins, &labels).expect("finite synthetic margins");
            prop_assert!(platt.a >= 0.0, "slope {}", platt.a);
            prop_assert!(platt.probability(-5.0) <= platt.probability(5.0) + 1e-12);
        }
    }
}

/// Boosting margins must be invariant to row order at inference time and
/// the model must never output NaN, even with missing features.
#[test]
fn boosting_handles_missing_without_nan() {
    let n = 400;
    let meta = vec![FeatureMeta::continuous("a"), FeatureMeta::continuous("b")];
    let mut values = Vec::with_capacity(n * 2);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let a = if i % 3 == 0 { f32::NAN } else { (i % 17) as f32 };
        let b = (i % 5) as f32;
        values.extend_from_slice(&[a, b]);
        labels.push((i % 17) > 8);
    }
    let data = Dataset::new(FeatureMatrix::new(n, meta, values), labels);
    let cfg = BoostConfig { iterations: 40, parallel: false, ..BoostConfig::default() };
    let model = BStump::fit(&data, &cfg);
    for r in 0..n {
        let m = model.margin(data.x.row(r));
        assert!(m.is_finite(), "margin at row {r} = {m}");
    }
    let all_missing = [f32::NAN, f32::NAN];
    assert_eq!(model.margin(&all_missing), 0.0, "full abstention sums to zero");
}

/// Derived features must propagate NaN (never fabricate values for
/// missing measurements).
#[test]
fn derived_features_propagate_nan() {
    use nevermind_dslsim::LineId;
    use nevermind_features::encode::{assemble, EncodedDataset, RowKey};
    use nevermind_features::registry::{DerivedFeature, FeatureClass};

    let meta = vec![FeatureMeta::continuous("x"), FeatureMeta::continuous("y")];
    let x = FeatureMatrix::new(3, meta, vec![1.0, 2.0, f32::NAN, 3.0, 4.0, f32::NAN]);
    let base = EncodedDataset {
        data: Dataset::new(x, vec![false, true, false]),
        rows: (0..3).map(|i| RowKey { line: LineId(i), day: 6 }).collect(),
        classes: vec![FeatureClass::Basic, FeatureClass::Basic],
    };
    let der = assemble(
        &base,
        &[],
        &[DerivedFeature::Quadratic { col: 0 }, DerivedFeature::Product { a: 0, b: 1 }],
    );
    assert_eq!(der.x.get(0, 0), 1.0);
    assert_eq!(der.x.get(0, 1), 2.0);
    assert!(der.x.get(1, 0).is_nan(), "NaN² must stay NaN");
    assert!(der.x.get(1, 1).is_nan(), "NaN·y must stay NaN");
    assert_eq!(der.x.get(2, 0), 16.0);
    assert!(der.x.get(2, 1).is_nan());
}
