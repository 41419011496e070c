//! Criterion benches for the Fig. 13/14 comparison: the MAC algorithms versus
//! the Influ/Influ+/Sky/Sky+ baselines on the same (k,t)-core.

use criterion::{criterion_group, criterion_main, Criterion};
use rsn_baselines::influ::{Influ, InfluPlus};
use rsn_baselines::sky::{skyline_communities, skyline_communities_pruned};
use rsn_bench::runner::QuerySpec;
use rsn_core::{AlgorithmChoice, MacEngine, SearchContext};
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};

fn bench_comparison(c: &mut Criterion) {
    let dataset = build_preset_scaled(
        PresetName::SfDelicious,
        PresetScale {
            social: 0.12,
            road: 0.12,
        },
        0,
    );
    let spec = QuerySpec::defaults(&dataset, 16, dataset.default_t, 1, 0.01, 3);
    let query = spec.to_query();
    let engine = MacEngine::build(dataset.rsn.clone());
    let ctx = SearchContext::build(&dataset.rsn, &query)
        .unwrap()
        .expect("the default query must have a (k,t)-core");
    let pivot = query.region.pivot();

    let mut group = c.benchmark_group("fig13_comparison");
    group.sample_size(10);
    group.bench_function("GS-NC", |b| {
        let mut session = engine.session();
        let query = query.clone().with_algorithm(AlgorithmChoice::Global);
        b.iter(move || session.execute(&query).unwrap())
    });
    group.bench_function("LS-NC", |b| {
        let mut session = engine.session();
        let query = query.clone().with_algorithm(AlgorithmChoice::Local);
        b.iter(move || session.execute(&query).unwrap())
    });
    group.bench_function("Influ", |b| {
        let algo = Influ::new(&ctx.local_graph, &ctx.attrs);
        b.iter(|| algo.top_r(16, 10, pivot.reduced()))
    });
    group.bench_function("Influ+", |b| {
        b.iter(|| {
            let idx = InfluPlus::build(&ctx.local_graph, &ctx.attrs, 16, pivot.reduced());
            idx.top_r(10)
        })
    });
    group.bench_function("Sky", |b| {
        b.iter(|| skyline_communities(&ctx.local_graph, &ctx.attrs, 16))
    });
    group.bench_function("Sky+", |b| {
        b.iter(|| skyline_communities_pruned(&ctx.local_graph, &ctx.attrs, 16))
    });
    group.finish();
}

criterion_group!(benches, bench_comparison);
criterion_main!(benches);
