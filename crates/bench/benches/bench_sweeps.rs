//! Criterion benches for the Fig. 6–10 sweeps: GS-NC / GS-T / LS-NC / LS-T at
//! the Table III defaults and at the extreme k values, on a small
//! SF+Slashdot-like dataset, served through a prepared engine with one
//! reused session per benchmark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsn_bench::runner::QuerySpec;
use rsn_core::{AlgorithmChoice, MacEngine};
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};

fn bench_mac_algorithms(c: &mut Criterion) {
    let dataset = build_preset_scaled(
        PresetName::SfSlashdot,
        PresetScale {
            social: 0.12,
            road: 0.12,
        },
        0,
    );
    let engine = MacEngine::build(dataset.rsn.clone());
    let mut group = c.benchmark_group("fig6_sweep_k");
    group.sample_size(10);
    for &k in &[8u32, 16, 32] {
        let spec = QuerySpec::defaults(&dataset, k, dataset.default_t, 10, 0.01, 3);
        let global = spec.to_query().with_algorithm(AlgorithmChoice::Global);
        let local = spec.to_query().with_algorithm(AlgorithmChoice::Local);
        // j = 1 asks for the non-contained MAC (Problem 2).
        let global_nc = global.clone().with_top_j(1);
        let local_nc = local.clone().with_top_j(1);
        group.bench_with_input(BenchmarkId::new("GS-NC", k), &k, |b, _| {
            let mut session = engine.session();
            b.iter(|| session.execute(&global_nc).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("GS-T", k), &k, |b, _| {
            let mut session = engine.session();
            b.iter(|| session.execute(&global).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("LS-NC", k), &k, |b, _| {
            let mut session = engine.session();
            b.iter(|| session.execute(&local_nc).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("LS-T", k), &k, |b, _| {
            let mut session = engine.session();
            b.iter(|| session.execute(&local).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig6_sweep_sigma");
    group.sample_size(10);
    for &sigma in &[0.001f64, 0.01, 0.05] {
        let spec = QuerySpec::defaults(&dataset, 16, dataset.default_t, 1, sigma, 3);
        let global = spec.to_query().with_algorithm(AlgorithmChoice::Global);
        let local = spec.to_query().with_algorithm(AlgorithmChoice::Local);
        group.bench_with_input(
            BenchmarkId::new("GS-NC", format!("{sigma}")),
            &sigma,
            |b, _| {
                let mut session = engine.session();
                b.iter(|| session.execute(&global).unwrap())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("LS-NC", format!("{sigma}")),
            &sigma,
            |b, _| {
                let mut session = engine.session();
                b.iter(|| session.execute(&local).unwrap())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mac_algorithms);
criterion_main!(benches);
