//! Structural property tests for the G-tree build.
//!
//! The multi-seed batched walk leans entirely on build-time structure: the
//! partition hierarchy, the border sets, the per-node distance matrices, and
//! the precomputed border-index arrays that replaced the hot-loop hash
//! lookups. These tests pin the invariants that make the walk exact:
//!
//! * every node's region is the disjoint union of its children's regions,
//!   and the leaves partition the vertex set;
//! * border sets are supersets of the child cut vertices — any vertex with a
//!   road edge leaving its (child) region is a border of that child, and a
//!   parent's borders all appear among its children's borders (the union
//!   border space), so entry vectors can always be extended downwards;
//! * distance matrices are symmetric with a zero diagonal (the road network
//!   is undirected), and matrix values never beat the global shortest path;
//! * every union-border space is duplicate-free, and the precomputed index
//!   arrays (`border_rows`, `child_border_rows`, `leaf_pos`) round-trip
//!   through an independent linear-scan lookup (`GTree::ub_position_of`).
//!
//! Beyond the structure, the suite pins that a multiway index serves the
//! same query answers as the binary-bisection reference, fresh and after an
//! update, and (optimized builds only) that a 40k-vertex grid builds within
//! its wall-clock budget.

mod common;

use common::assert_results_identical;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use road_social_mac::core::{
    AlgorithmChoice, MacEngine, MacQuery, NetworkDelta, RoadSocialNetwork,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use road_social_mac::road::{sssp, EdgeUpdate, GTree, Location, RangeFilterChoice, RoadNetwork};
use std::time::Instant;

fn check_invariants(net: &RoadNetwork, tree: &GTree) {
    let n = net.num_vertices();

    // Leaves partition the vertex set, and leaf_pos round-trips.
    let mut seen = vec![false; n];
    for id in 0..tree.num_nodes() {
        if !tree.children_of(id).is_empty() {
            continue;
        }
        for &v in tree.vertices_of(id) {
            prop_assert!(!seen[v as usize], "vertex {v} in two leaves");
            seen[v as usize] = true;
            prop_assert_eq!(tree.leaf_id_of(v), id);
            prop_assert_eq!(tree.union_borders_of(id)[tree.leaf_position_of(v)], v);
        }
    }
    prop_assert!(seen.iter().all(|&b| b), "some vertex is in no leaf");

    let mut in_region = vec![false; n];
    for id in 0..tree.num_nodes() {
        let children = tree.children_of(id);

        // A node's region is the disjoint union of its children's regions.
        if !children.is_empty() {
            let child_total: usize = children.iter().map(|&c| tree.vertices_of(c).len()).sum();
            prop_assert_eq!(child_total, tree.vertices_of(id).len());
            for &c in children {
                prop_assert_eq!(tree.parent_of(c), Some(id));
                for &v in tree.vertices_of(c) {
                    prop_assert!(!in_region[v as usize]);
                    in_region[v as usize] = true;
                }
            }
            for &v in tree.vertices_of(id) {
                prop_assert!(in_region[v as usize], "child regions miss vertex {v}");
                in_region[v as usize] = false;
            }
        }

        // Border supersets: every vertex with an edge leaving the region is a
        // border (in particular every cut vertex towards a sibling child).
        for &v in tree.vertices_of(id) {
            in_region[v as usize] = true;
        }
        for &v in tree.vertices_of(id) {
            let leaves_region = net
                .neighbors(v)
                .iter()
                .any(|&(u, _)| !in_region[u as usize]);
            if leaves_region {
                prop_assert!(
                    tree.borders_of(id).contains(&v),
                    "cut vertex {v} missing from borders of node {id}"
                );
            }
        }
        for &v in tree.vertices_of(id) {
            in_region[v as usize] = false;
        }

        // A parent's borders all appear in its union-border space (they are
        // borders of some child), so entry vectors extend downwards.
        for &b in tree.borders_of(id) {
            prop_assert!(
                tree.ub_position_of(id, b).is_some(),
                "border {b} of node {id} missing from its union borders"
            );
        }

        // Matrices: symmetric, zero diagonal, never better than the global
        // shortest path (within-region distances are restrictions).
        let ub = tree.union_borders_of(id);
        for i in 0..ub.len() {
            prop_assert_eq!(tree.matrix_entry(id, i, i), 0.0);
            for j in (i + 1)..ub.len() {
                let a = tree.matrix_entry(id, i, j);
                let b = tree.matrix_entry(id, j, i);
                prop_assert!(
                    (a == b) || (a - b).abs() < 1e-9,
                    "matrix of node {id} not symmetric at ({i},{j}): {a} vs {b}"
                );
                let global = tree.dist(ub[i], ub[j]);
                prop_assert!(
                    a >= global - 1e-9,
                    "within-region distance {a} beats global {global} for node {id}"
                );
            }
        }

        // The union-border space has no duplicates, and the precomputed
        // border-index arrays round-trip through a linear-scan lookup.
        let mut distinct = ub.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(
            distinct.len(),
            ub.len(),
            "node {} repeats a union border",
            id
        );
        for (i, &b) in tree.borders_of(id).iter().enumerate() {
            prop_assert_eq!(
                tree.border_rows_of(id)[i],
                tree.ub_position_of(id, b).unwrap()
            );
        }
        for (k, &c) in children.iter().enumerate() {
            for (i, &b) in tree.borders_of(c).iter().enumerate() {
                prop_assert_eq!(
                    tree.child_border_rows_of(id, k)[i],
                    tree.ub_position_of(id, b).unwrap()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 8 } else { 24 },
        .. ProptestConfig::default()
    })]

    /// The invariants hold on generated road networks across sizes, leaf
    /// capacities, and partition fanouts (2 is the binary-bisection
    /// reference; higher fanouts exercise the multiway splitter).
    #[test]
    fn gtree_build_invariants_on_generated_networks(
        seed in 0u64..10_000,
        road_n in 40usize..260,
        leaf_capacity in 4usize..40,
        fanout in 2usize..9,
    ) {
        let net = generate_road(&RoadConfig::with_size(road_n, seed));
        let tree = GTree::build_with_params(&net, leaf_capacity, fanout);
        check_invariants(&net, &tree);
    }

    /// Incremental maintenance preserves every build invariant: after random
    /// reweight batches, the updated tree still satisfies the full structural
    /// suite (in particular, the precomputed `border_rows`/`leaf_pos` arrays
    /// stay consistent with the linear-scan reference lookup — updates must
    /// never touch the index structure), its matrices match a from-scratch
    /// build on the updated network node for node, and distances match
    /// Dijkstra.
    #[test]
    fn gtree_incremental_updates_preserve_invariants(
        seed in 0u64..10_000,
        road_n in 40usize..180,
        leaf_capacity in 4usize..32,
        fanout in 2usize..9,
    ) {
        let net0 = generate_road(&RoadConfig::with_size(road_n, seed));
        let mut edges: Vec<(u32, u32, f64)> = net0.edges().collect();
        prop_assert!(!edges.is_empty(), "generated road networks are non-trivial");
        let mut tree = GTree::build_with_params(&net0, leaf_capacity, fanout);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD9);
        for _round in 0..3 {
            let mut batch = Vec::new();
            for _ in 0..rng.random_range(1..5usize) {
                let idx = rng.random_range(0..edges.len());
                let w = rng.random_range(0.25..8.0);
                edges[idx].2 = w;
                batch.push(EdgeUpdate::new(edges[idx].0, edges[idx].1, w));
            }
            let net = RoadNetwork::from_edges(net0.num_vertices(), &edges);
            let stats = tree.apply_edge_updates(&net, &batch);
            prop_assert!(stats.dirty_leaves + stats.dirty_internal <= stats.total_nodes);
            check_invariants(&net, &tree);
            let fresh = GTree::build_with_params(&net, leaf_capacity, fanout);
            prop_assert_eq!(tree.num_nodes(), fresh.num_nodes());
            for id in 0..tree.num_nodes() {
                let ub = tree.union_borders_of(id).len();
                prop_assert_eq!(fresh.union_borders_of(id).len(), ub);
                for i in 0..ub {
                    for j in 0..ub {
                        let a = tree.matrix_entry(id, i, j);
                        let b = fresh.matrix_entry(id, i, j);
                        prop_assert!(
                            a == b || (a - b).abs() < 1e-9,
                            "node {} matrix diverged from fresh build at ({}, {}): {} vs {}",
                            id, i, j, a, b
                        );
                    }
                }
            }
            let s = rng.random_range(0..net.num_vertices() as u32);
            let d = sssp(&net, s);
            for v in 0..net.num_vertices() as u32 {
                let got = d[v as usize];
                let want = tree.dist(s, v);
                prop_assert!(
                    got == want || (got - want).abs() < 1e-9,
                    "updated tree distance {} -> {} is {} but Dijkstra says {}",
                    s, v, want, got
                );
            }
        }
    }

    /// A multiway tree answers exactly the same distance queries as the
    /// binary-bisection reference — the trees differ in shape and matrix
    /// sizes but never in answers — before and after reweight batches, and
    /// both agree with Dijkstra.
    #[test]
    fn multiway_tree_is_query_identical_to_binary_reference(
        seed in 0u64..10_000,
        road_n in 40usize..220,
        leaf_capacity in 4usize..32,
        fanout in 3usize..9,
    ) {
        let net0 = generate_road(&RoadConfig::with_size(road_n, seed));
        let mut edges: Vec<(u32, u32, f64)> = net0.edges().collect();
        let mut multi = GTree::build_with_params(&net0, leaf_capacity, fanout);
        let mut binary = GTree::build_binary_reference(&net0, leaf_capacity);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA0);
        check_distances_identical(&net0, &multi, &binary, &mut rng);
        for _round in 0..2 {
            let mut batch = Vec::new();
            for _ in 0..rng.random_range(1..5usize) {
                let idx = rng.random_range(0..edges.len());
                let w = rng.random_range(0.25..8.0);
                edges[idx].2 = w;
                batch.push(EdgeUpdate::new(edges[idx].0, edges[idx].1, w));
            }
            let net = RoadNetwork::from_edges(net0.num_vertices(), &edges);
            multi.apply_edge_updates(&net, &batch);
            binary.apply_edge_updates(&net, &batch);
            check_distances_identical(&net, &multi, &binary, &mut rng);
        }
    }
}

/// Samples sources and checks every `dist` answer of the multiway tree
/// against the binary reference and Dijkstra.
fn check_distances_identical(net: &RoadNetwork, multi: &GTree, binary: &GTree, rng: &mut StdRng) {
    for _ in 0..6 {
        let s = rng.random_range(0..net.num_vertices() as u32);
        let d = sssp(net, s);
        for v in 0..net.num_vertices() as u32 {
            let a = multi.dist(s, v);
            let b = binary.dist(s, v);
            prop_assert!(
                a == b || (a - b).abs() < 1e-9,
                "fanout tree disagrees with binary reference on {s} -> {v}: {a} vs {b}"
            );
            let want = d[v as usize];
            prop_assert!(
                a == want || (a - want).abs() < 1e-9,
                "tree distance {s} -> {v} is {a} but Dijkstra says {want}"
            );
        }
    }
}

/// Invariants also hold on a disconnected network (infinite matrix entries
/// stay symmetric; unreachable borders stay consistent).
#[test]
fn gtree_build_invariants_on_disconnected_network() {
    let net = RoadNetwork::from_edges(
        10,
        &[
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.5),
            (5, 6, 1.0),
            (6, 7, 3.0),
            (8, 9, 0.5),
        ],
    );
    let tree = GTree::build_with_capacity(&net, 4);
    check_invariants(&net, &tree);
}

/// A single-leaf tree (capacity covering the whole network) satisfies the
/// same invariants degenerately.
#[test]
fn gtree_build_invariants_single_leaf() {
    let net = generate_road(&RoadConfig::with_size(30, 3));
    let tree = GTree::build_with_capacity(&net, 64);
    assert_eq!(tree.num_nodes(), 1);
    assert_eq!(tree.num_leaves(), 1);
    check_invariants(&net, &tree);
}

/// End-to-end serving identity: an engine whose network is indexed with a
/// multiway G-tree returns the same cells, communities, sample weights, and
/// core sizes as one indexed with the binary-bisection reference tree,
/// across the sweep, the multi-seed walk, and `Auto` — on the fresh build
/// and again after both engines absorb the same reweight + user-move delta,
/// so the incremental path keeps the trees equivalent, not just the
/// builders. Together with the distance-level proptest above this pins the
/// contract that fanout is a build-cost knob only.
#[test]
fn multiway_index_serves_identical_queries_to_binary() {
    for (seed, fanout) in [(11u64, 4usize), (29, 8)] {
        let n_users = 220;
        let social = generate_social(&SocialConfig {
            n: n_users,
            attach_m: 3,
            planted: vec![PlantedGroup {
                size: 18,
                degree: 6,
            }],
            seed,
        });
        let road = generate_road(&RoadConfig::with_size(n_users / 2, seed ^ 0x5EED));
        let attrs = generate_attrs(
            n_users,
            3,
            AttrDistribution::Independent,
            10.0,
            seed ^ 0xA77,
        );
        let locations = assign_locations(
            &road,
            n_users,
            &social.groups,
            &LocationConfig {
                clusters: 8,
                radius: 5,
                seed: seed ^ 0x10C,
            },
        );
        let group = social.groups[0].clone();
        let rsn = RoadSocialNetwork::new(social.graph, road, locations, attrs).unwrap();
        let multi = MacEngine::build(rsn.clone().with_gtree_index_params(16, fanout));
        let binary = MacEngine::build(rsn.clone().with_gtree_index_params(16, 2));

        let region = PrefRegion::from_ranges(&[(0.2, 0.5), (0.2, 0.5)]).unwrap();
        let filters = [
            RangeFilterChoice::DijkstraSweep,
            RangeFilterChoice::GTreeMultiSeedBatched,
            RangeFilterChoice::Auto,
        ];
        let queries: Vec<MacQuery> = (0..6usize)
            .map(|i| {
                let q: Vec<u32> = group.iter().copied().take(1 + i % 3).collect();
                MacQuery::new(
                    q,
                    4 + (i % 2) as u32,
                    [30.0, 55.0, 85.0][i % 3],
                    region.clone(),
                )
                .with_algorithm(AlgorithmChoice::Global)
                .with_range_filter(filters[i % filters.len()])
            })
            .collect();
        let check = |stage: &str| {
            let (mut sm, mut sb) = (multi.session(), binary.session());
            for (i, query) in queries.iter().enumerate() {
                let a = sm.execute(query).unwrap();
                let b = sb.execute(query).unwrap();
                let label = format!("fanout {fanout} seed {seed} {stage} query {i}");
                assert_results_identical(&label, &a, &b);
                assert_eq!(
                    a.stats.kt_core_vertices, b.stats.kt_core_vertices,
                    "{label}: core size"
                );
            }
        };
        check("fresh");

        // One mixed delta on both engines: a dozen reweights, up and down,
        // and eight user moves, half of them query users.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
        let edges: Vec<(u32, u32, f64)> = rsn.road().edges().collect();
        let road_n = rsn.road().num_vertices() as u32;
        let mut delta = NetworkDelta::new();
        for _ in 0..12 {
            let (u, v, w) = edges[rng.random_range(0..edges.len())];
            delta = delta.reweight_edge(u, v, w * rng.random_range(0.3..3.0));
        }
        for k in 0..8usize {
            let user = if k % 2 == 0 {
                group[k / 2]
            } else {
                rng.random_range(0..n_users as u32)
            };
            delta = delta.move_user(user, Location::vertex(rng.random_range(0..road_n)));
        }
        multi.apply_updates(&delta).unwrap();
        binary.apply_updates(&delta).unwrap();
        check("after an update");
    }
}

/// The continental-scale build budget: a 40k-vertex grid builds its G-tree
/// (leaf capacity 128) within 30 s of wall clock. It takes about 2 s on a
/// 2-vCPU host, so the budget separates a regression from noise. Sampled
/// distances of the built tree are checked against Dijkstra. Optimized
/// builds only: the debug profile times nothing a user runs.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock budget of an optimized build; runs under --release"
)]
fn continental_grid_gtree_builds_within_budget() {
    const BUDGET_SECONDS: f64 = 30.0;
    let net = generate_road(&RoadConfig::with_size(40_000, 7));
    let start = Instant::now();
    let tree = GTree::build_with_capacity(&net, 128);
    let seconds = start.elapsed().as_secs_f64();
    assert!(
        seconds <= BUDGET_SECONDS,
        "40k grid G-tree build took {seconds:.1} s, budget is {BUDGET_SECONDS:.0} s"
    );
    let mut rng = StdRng::seed_from_u64(7);
    let n = net.num_vertices() as u32;
    for _ in 0..3 {
        let s = rng.random_range(0..n);
        let d = sssp(&net, s);
        for _ in 0..64 {
            let v = rng.random_range(0..n);
            let (got, want) = (tree.dist(s, v), d[v as usize]);
            assert!(
                got == want || (got - want).abs() < 1e-9,
                "tree distance {s} -> {v} is {got} but Dijkstra says {want}"
            );
        }
    }
}
