//! Feature-selection workers record their spans under the caller's path.
//!
//! The selection models train on `nevermind_obs::par` workers; each worker's
//! span stack starts from the caller's open spans, so the metrics dump
//! holds no orphan root-level `ml/...` paths. This file holds one test: the
//! registry is process-global, and a concurrently running test could
//! otherwise record its own root spans while this one is recording.

use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};
use nevermind_ml::select::{score_features, SelectConfig, SelectionCriterion};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

const N_COLS: usize = 8;

fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let meta = (0..N_COLS).map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
    let mut values = Vec::with_capacity(n * N_COLS);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let y = rng.random_bool(0.3);
        for c in 0..N_COLS {
            let shift = if y && c % 2 == 0 { 0.3 } else { 0.0 };
            values.push(rng.random::<f32>() + shift);
        }
        labels.push(y);
    }
    Dataset::new(FeatureMatrix::new(n, meta, values), labels)
}

#[test]
fn selection_worker_spans_nest_under_the_caller() {
    let train = dataset(400, 1);
    let eval = dataset(200, 2);
    let cfg = SelectConfig { model_iterations: 3, ..SelectConfig::default() };
    nevermind_obs::set_enabled(true);
    {
        let _caller = nevermind_obs::span!("selection_caller");
        // On a multi-core host the selection itself fans out.
        score_features(&train, &eval, SelectionCriterion::Auc, &cfg);
        // Called from both parts of a two-part fan-out, one of them a
        // spawned worker — seeded on any host, whatever its core count.
        nevermind_obs::par::map(2, 2, |_| {
            score_features(&train, &eval, SelectionCriterion::Auc, &cfg);
        });
    }
    nevermind_obs::set_enabled(false);
    let spans = nevermind_obs::global().snapshot().spans;
    let orphans: Vec<&String> = spans.keys().filter(|k| k.starts_with("ml/")).collect();
    assert!(orphans.is_empty(), "worker spans escaped their caller: {orphans:?}");
    // The single-feature models boost in lockstep, four per fit span:
    // two spans for the eight features of each call.
    let fits = &spans["selection_caller/ml/score_features/ml/bstump_fit"];
    assert_eq!(fits.count, 3 * 2, "one fit span per four features per call");
    assert_eq!(spans["selection_caller/ml/score_features"].count, 3);
}
