//! Criterion benches for the Table-3 feature encoder: base encoding
//! throughput (rows/sec) and derived-feature assembly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nevermind::pipeline::ExperimentData;
use nevermind_dslsim::SimConfig;
use nevermind_features::encode::{all_products, assemble, EncoderConfig};
use std::hint::black_box;

fn data() -> ExperimentData {
    let mut cfg = SimConfig::small(7);
    cfg.n_lines = 4_000;
    cfg.days = 270;
    ExperimentData::simulate(cfg)
}

fn bench_encode(c: &mut Criterion) {
    let data = data();
    let encoder = data.encoder(EncoderConfig::default());
    let day = 30 * 7 + 6;

    let mut g = c.benchmark_group("encode_base");
    g.sample_size(10);
    g.throughput(Throughput::Elements(data.config.n_lines as u64));
    g.bench_function("one_saturday_4k_lines", |b| b.iter(|| black_box(encoder.encode(&[day]))));
    g.finish();
}

fn bench_derive(c: &mut Criterion) {
    let data = data();
    let encoder = data.encoder(EncoderConfig::default());
    let base = encoder.encode(&[30 * 7 + 6]);
    let products = all_products(&base);
    let chunk = &products[..256.min(products.len())];

    let mut g = c.benchmark_group("derive_products");
    g.sample_size(10);
    g.throughput(Throughput::Elements((base.data.len() * chunk.len()) as u64));
    g.bench_function("256_products_4k_rows", |b| b.iter(|| black_box(assemble(&base, &[], chunk))));
    g.finish();
}

criterion_group!(benches, bench_encode, bench_derive);
criterion_main!(benches);
