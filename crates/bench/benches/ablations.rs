//! Ablation benches for three `BStump` training choices DESIGN.md calls
//! out: quantile-grid resolution for the stump search (bin count),
//! boosting iteration count, and the score smoothing ε.
//!
//! Criterion measures the *cost* of each choice; the matching *quality*
//! numbers come from the `experiments` harness (fig6/fig7/fig10), so a
//! cost/quality trade-off can be read off together.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nevermind_ml::boost::{BStump, BoostConfig};
use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn synth(n_rows: usize, n_cols: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let meta: Vec<FeatureMeta> =
        (0..n_cols).map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
    let mut values = Vec::with_capacity(n_rows * n_cols);
    let mut labels = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let s: f32 = rng.random();
        for c in 0..n_cols {
            values.push(if c < 3 { s + rng.random::<f32>() * 0.5 } else { rng.random() });
        }
        labels.push(s > 0.75);
    }
    Dataset::new(FeatureMatrix::new(n_rows, meta, values), labels)
}

/// Quantile-grid resolution: coarser grids are cheaper per round but less
/// precise thresholds. The harness's fig7 precision barely moves between
/// 64 and 256 bins, which justifies the 64-bin default.
fn bench_bin_resolution(c: &mut Criterion) {
    let data = synth(20_000, 30, 1);
    let mut g = c.benchmark_group("ablation_bins");
    g.sample_size(10);
    for &bins in &[16usize, 64, 256] {
        let cfg =
            BoostConfig { iterations: 60, n_bins: bins, parallel: false, ..BoostConfig::default() };
        g.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, _| {
            b.iter(|| black_box(BStump::fit(&data, &cfg)))
        });
    }
    g.finish();
}

/// Iteration count: the paper fixes 800 by cross-validation; cost is
/// linear in T, so this bench pins the unit price of one extra round.
fn bench_iteration_count(c: &mut Criterion) {
    let data = synth(20_000, 30, 2);
    let mut g = c.benchmark_group("ablation_iterations");
    g.sample_size(10);
    for &iters in &[25usize, 100, 400] {
        let cfg = BoostConfig { iterations: iters, parallel: false, ..BoostConfig::default() };
        g.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, _| {
            b.iter(|| black_box(BStump::fit(&data, &cfg)))
        });
    }
    g.finish();
}

/// Smoothing choice: the Schapire–Singer ε barely costs anything but
/// prevents infinite scores; this pins the (absence of) overhead.
fn bench_smoothing(c: &mut Criterion) {
    let data = synth(20_000, 30, 3);
    let mut g = c.benchmark_group("ablation_smoothing");
    g.sample_size(10);
    for (name, smoothing) in [("default_1_over_2n", None), ("fixed_1e-3", Some(1e-3))] {
        let cfg =
            BoostConfig { iterations: 60, smoothing, parallel: false, ..BoostConfig::default() };
        g.bench_function(name, |b| b.iter(|| black_box(BStump::fit(&data, &cfg))));
    }
    g.finish();
}

criterion_group!(benches, bench_bin_resolution, bench_iteration_count, bench_smoothing);
criterion_main!(benches);
