//! Criterion benches for the BStump training path: quantile binning,
//! one production boosting round, and full training throughput.
//!
//! The paper trains 800 iterations on 1M records in ~2h on a 2009 server;
//! these benches track the per-iteration cost that claim scales from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nevermind_ml::boost::{BStump, BoostConfig};
use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};
use nevermind_ml::stump::BinnedDataset;
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
        let signal: f32 = rng.random();
        for c in 0..n_cols {
            let v = if c == 0 { signal } else { rng.random() };
            values.push(if rng.random_bool(0.05) { f32::NAN } else { v });
        }
        labels.push(signal > 0.8 && rng.random_bool(0.9));
    }
    Dataset::new(FeatureMatrix::new(n_rows, meta, values), labels)
}

/// A matrix of `n_cols` low-cardinality columns: each value drawn from
/// `0..values` (2 for binary flags like `basic:state`, 31 for error
/// counters like the `*cnt*` features), 5% missing.
fn synth_levels(n_rows: usize, n_cols: usize, values: u32, seed: u64) -> FeatureMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let meta: Vec<FeatureMeta> =
        (0..n_cols).map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
    let values = (0..n_rows * n_cols)
        .map(|_| if rng.random_bool(0.05) { f32::NAN } else { rng.random_range(0..values) as f32 })
        .collect();
    FeatureMatrix::new(n_rows, meta, values)
}

/// Quantile binning of 25 columns of three shapes: uniform continuous
/// values, binary flags and small 0–30 counts. The low-cardinality shapes
/// share most key digits across rows, the case where a radix pass bumps
/// one counter per row.
fn bench_binning(c: &mut Criterion) {
    let mut g = c.benchmark_group("binning");
    g.sample_size(10);
    for &n in &[10_000usize, 50_000] {
        let shapes = [
            ("bin_25_cols", synth(n, 25, 1).x),
            ("bin_25_binary_cols", synth_levels(n, 25, 2, 4)),
            ("bin_25_count_cols", synth_levels(n, 25, 31, 5)),
        ];
        for (name, x) in &shapes {
            g.bench_with_input(BenchmarkId::new(*name, n), &n, |b, _| {
                b.iter(|| black_box(BinnedDataset::from_matrix(x, 64)))
            });
        }
    }
    g.finish();
}

/// One production boosting round over 25 binned columns:
/// [`BStump::fit_binned`] with `iterations: 1`. The time includes the
/// fit's one-off slot-code build (one pass over every row and candidate)
/// next to the round's histogram pass, split scans and weight update.
fn bench_stump_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("stump_search");
    g.sample_size(20);
    for &n in &[10_000usize, 50_000] {
        let data = synth(n, 25, 2);
        let binned = BinnedDataset::from_matrix(&data.x, 64);
        let features: Vec<usize> = (0..25).collect();
        let w = vec![1.0 / n as f64; n];
        let cfg = BoostConfig { iterations: 1, parallel: false, ..BoostConfig::default() };
        g.bench_with_input(BenchmarkId::new("one_round_25_cols", n), &n, |b, _| {
            b.iter(|| black_box(BStump::fit_binned(&binned, &data.y, &w, &cfg, &features)))
        });
    }
    g.finish();
}

fn bench_training(c: &mut Criterion) {
    let mut g = c.benchmark_group("training");
    g.sample_size(10);
    let data = synth(20_000, 40, 3);
    for &iters in &[50usize, 200] {
        let cfg = BoostConfig { iterations: iters, parallel: false, ..BoostConfig::default() };
        g.bench_with_input(BenchmarkId::new("bstump_20k_rows_40_cols", iters), &iters, |b, _| {
            b.iter(|| black_box(BStump::fit(&data, &cfg)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_binning, bench_stump_search, bench_training);
criterion_main!(benches);
