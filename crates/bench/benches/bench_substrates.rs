//! Criterion benches for the substrates that the MAC algorithms rely on:
//! k-core decomposition, the Lemma-1 range filter (bounded Dijkstra), G-tree
//! construction/queries, and r-dominance graph construction (Fig. 11(c)/(d)
//! supporting measurements).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsn_datagen::attrs::{generate_attrs, AttrDistribution};
use rsn_datagen::road::{generate_road, RoadConfig};
use rsn_datagen::social::{generate_social, PlantedGroup, SocialConfig};
use rsn_dom::dominance::DominanceGraph;
use rsn_geom::region::PrefRegion;
use rsn_road::dijkstra::bounded_sssp;
use rsn_road::gtree::GTree;
use rsn_road::network::Location;
use rsn_road::rangefilter::RangeFilter;

fn bench_substrates(c: &mut Criterion) {
    // k-core decomposition
    let social = generate_social(&SocialConfig {
        n: 20_000,
        attach_m: 4,
        planted: vec![PlantedGroup {
            size: 80,
            degree: 40,
        }],
        seed: 1,
    });
    let mut group = c.benchmark_group("substrates");
    group.sample_size(10);
    group.bench_function("core_decomposition_20k", |b| {
        b.iter(|| rsn_graph::core_decomp::core_numbers(&social.graph))
    });

    // bounded Dijkstra range filter
    let road = generate_road(&RoadConfig::with_size(10_000, 2));
    group.bench_function("bounded_dijkstra_range_t30", |b| {
        b.iter(|| bounded_sssp(&road, 0, 30.0))
    });

    // G-tree build + distance queries
    let small_road = generate_road(&RoadConfig::with_size(1_000, 3));
    group.bench_function("gtree_build_1k", |b| {
        b.iter(|| GTree::build_with_capacity(&small_road, 32))
    });
    let gtree = GTree::build_with_capacity(&small_road, 32);
    group.bench_function("gtree_dist_query", |b| {
        let n = small_road.num_vertices() as u32;
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 97) % n;
            gtree.dist(i, (i * 31 + 7) % n)
        })
    });

    // Lemma-1 range filter strategies: the same set question ("which of the
    // users are within t of every query location") under the sweep and the
    // multi-seed batched walk.
    {
        let road = generate_road(&RoadConfig::with_size(10_000, 7));
        let tree = GTree::build(&road);
        let n = road.num_vertices() as u32;
        let users: Vec<Location> = (0..256u32).map(|i| Location::vertex(i * 37 % n)).collect();
        let q: Vec<Location> = (0..4u32)
            .map(|i| Location::vertex((500 + i * 3) % n))
            .collect();
        let t = 60.0;
        for filter in [
            RangeFilter::DijkstraSweep,
            RangeFilter::GTreeMultiSeedBatched(&tree),
        ] {
            group.bench_function(format!("rangefilter_10k_{}", filter.name()), |b| {
                b.iter(|| filter.users_within(&road, &q, t, &users))
            });
        }
    }

    // r-dominance graph construction for increasing d (Fig. 11(d) driver)
    for &d in &[2usize, 4, 6] {
        let attrs = generate_attrs(400, d, AttrDistribution::Independent, 10.0, 5);
        let ids: Vec<u32> = (0..400).collect();
        let ranges: Vec<(f64, f64)> = (0..d - 1)
            .map(|_| (1.0 / d as f64 - 0.005, 1.0 / d as f64 + 0.005))
            .collect();
        let region = PrefRegion::from_ranges(&ranges).unwrap();
        group.bench_with_input(BenchmarkId::new("dominance_graph_400", d), &d, |b, _| {
            b.iter(|| DominanceGraph::build(&ids, &attrs, &region))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
