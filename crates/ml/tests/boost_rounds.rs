//! `ml/boost_rounds` counts the boosting rounds a fit actually ran, not its
//! iteration budget: a fit stops early when no split exists or `Z ≥ 1`.
//! This file holds one test: the registry is process-global, and a
//! concurrently running test could otherwise add its own rounds while this
//! one reads the counter.

use nevermind_ml::boost::{BStump, BoostConfig};
use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rounds() -> u64 {
    nevermind_obs::global().snapshot().counters.get("ml/boost_rounds").copied().unwrap_or(0)
}

/// Rounds the counter gained while `fit` ran, and the stumps it trained.
fn counted(fit: impl FnOnce() -> BStump) -> (u64, usize) {
    let before = rounds();
    let model = fit();
    (rounds() - before, model.stumps().len())
}

#[test]
fn boost_rounds_counts_the_rounds_run() {
    let cfg = BoostConfig { iterations: 40, parallel: false, ..BoostConfig::default() };
    nevermind_obs::set_enabled(true);

    // A constant column admits no split: the fit ends before its first round.
    let meta = vec![FeatureMeta::continuous("c")];
    let constant =
        Dataset::new(FeatureMatrix::new(4, meta, vec![3.0; 4]), vec![true, false, true, false]);
    assert_eq!(counted(|| BStump::fit(&constant, &cfg)), (0, 0));

    // A noisy two-feature problem runs its rounds; the counter gains its
    // stump count.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let meta = vec![FeatureMeta::continuous("x"), FeatureMeta::continuous("n")];
    let (mut values, mut labels) = (Vec::new(), Vec::new());
    for _ in 0..500 {
        let x: f32 = rng.random();
        values.extend_from_slice(&[x, rng.random()]);
        labels.push((x > 0.6) != rng.random_bool(0.1));
    }
    let noisy = Dataset::new(FeatureMatrix::new(500, meta, values), labels);
    let (added, stumps) = counted(|| BStump::fit(&noisy, &cfg));
    nevermind_obs::set_enabled(false);
    assert!(stumps > 0, "the noisy fit trains stumps");
    assert_eq!(added, stumps as u64);
}
