//! Property tests for the range-filter layer: the bounded Dijkstra sweep and
//! the multi-seed batched G-tree walk are two implementations of the same
//! exact set operation — "which users have `D_Q(v) <= t`" — and must return
//! identical user sets on every input, including users located on the same
//! edge as a query location, users at distance exactly `t`, larger query sets
//! (|Q| up to 6, every location contributing its own entry columns to the
//! multi-seed walk), and thresholds yielding empty results.
//!
//! Both filters are also checked, on every fuzz case, against an
//! independent reference ([`reference_within`]): a textbook Dijkstra on the
//! road graph with every on-edge location split into a vertex of its own.
//! It shares no code with the filters — no seed derivation, no along-edge
//! shortcut — so a bug in a helper the two filters share cannot pass.
//!
//! The full fuzz sweep is heavy for debug builds, so the case counts scale
//! with the profile: the debug CI job runs a reduced deterministic grid, the
//! release CI job (`cargo test --release`) runs the full one.

mod common;

use common::reference_within;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::road::dijkstra::sssp;
use road_social_mac::road::rangefilter::RangeFilter;
use road_social_mac::road::{GTree, Location, RoadNetwork};

fn fuzz_cases(full: u32) -> u32 {
    if cfg!(debug_assertions) {
        (full / 4).max(4)
    } else {
        full
    }
}

/// Random locations over a road network: a mix of vertex locations and
/// on-edge locations with offsets drawn inside the edge length (edge
/// endpoints inclusive, so "exactly at a vertex" shows up too).
fn random_locations(net: &RoadNetwork, count: usize, rng: &mut StdRng) -> Vec<Location> {
    let n = net.num_vertices() as u32;
    (0..count)
        .map(|_| {
            let v = rng.random_range(0..n);
            let neighbors = net.neighbors(v);
            if neighbors.is_empty() || rng.random_range(0.0..1.0) < 0.4 {
                Location::vertex(v)
            } else {
                let (u, w) = neighbors[rng.random_range(0..neighbors.len())];
                Location::OnEdge {
                    u: v,
                    v: u,
                    offset: rng.random_range(0.0..=w),
                }
            }
        })
        .collect()
}

fn gtree_filters(tree: &GTree) -> [RangeFilter<'_>; 1] {
    [RangeFilter::GTreeMultiSeedBatched(tree)]
}

fn assert_filters_agree(
    net: &RoadNetwork,
    tree: &GTree,
    q: &[Location],
    t: f64,
    users: &[Location],
) {
    let reference = RangeFilter::DijkstraSweep.users_within(net, q, t, users);
    prop_assert_eq!(
        &reference,
        &reference_within(net, q, t, users),
        "the Dijkstra sweep disagrees with the split-graph reference at t = {}",
        t
    );
    for filter in gtree_filters(tree) {
        let got = filter.users_within(net, q, t, users);
        prop_assert_eq!(
            &got,
            &reference,
            "{} disagrees with the Dijkstra sweep at t = {}",
            filter.name(),
            t
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases(24), .. ProptestConfig::default() })]

    /// On generated road networks with arbitrary query/user placements, both
    /// strategies return the same user set for every threshold.
    #[test]
    fn filters_agree_on_random_networks(
        seed in 0u64..10_000,
        road_n in 60usize..220,
        leaf_capacity in 4usize..24,
        t in 0.0f64..80.0,
    ) {
        let net = generate_road(&RoadConfig::with_size(road_n, seed));
        let tree = GTree::build_with_capacity(&net, leaf_capacity);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF117E5);
        let q = random_locations(&net, rng.random_range(1..4), &mut rng);
        let users = random_locations(&net, 120, &mut rng);
        assert_filters_agree(&net, &tree, &q, t, &users);
    }

    /// Larger query sets: |Q| swept through 1..6, so the multi-seed walk
    /// carries up to a dozen entry columns whose intersection must match the
    /// per-location intersection of the sweep exactly.
    #[test]
    fn filters_agree_for_larger_query_sets(
        seed in 0u64..10_000,
        q_count in 1usize..6,
        leaf_capacity in 4usize..20,
        t in 0.0f64..60.0,
    ) {
        let net = generate_road(&RoadConfig::with_size(150, seed));
        let tree = GTree::build_with_capacity(&net, leaf_capacity);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF ^ q_count as u64);
        let q = random_locations(&net, q_count, &mut rng);
        let users = random_locations(&net, 100, &mut rng);
        assert_filters_agree(&net, &tree, &q, t, &users);
    }

    /// Same-edge placements: every user shares an edge with the (on-edge)
    /// query location, so the along-edge shortcut decides most memberships.
    #[test]
    fn filters_agree_for_users_on_the_query_edge(
        seed in 0u64..10_000,
        edge_weight in 2.0f64..40.0,
        q_offset in 0.0f64..1.0,
        t in 0.0f64..20.0,
    ) {
        // A heavy edge 0-1 inside a small ring, so the along-edge path and the
        // detour through the ring compete.
        let net = RoadNetwork::from_edges(
            5,
            &[
                (0, 1, edge_weight),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
            ],
        );
        let tree = GTree::build_with_capacity(&net, 4);
        let q = [Location::OnEdge { u: 0, v: 1, offset: q_offset * edge_weight }];
        let mut users: Vec<Location> = (0..=10)
            .map(|i| Location::OnEdge { u: 0, v: 1, offset: edge_weight * (i as f64) / 10.0 })
            .collect();
        // ...and the same points named from the other end of the edge.
        users.extend((0..=10).map(|i| Location::OnEdge {
            u: 1,
            v: 0,
            offset: edge_weight * (10 - i) as f64 / 10.0,
        }));
        users.extend((0..5).map(Location::vertex));
        assert_filters_agree(&net, &tree, &q, t, &users);
        let _ = seed;
    }

    /// All query locations on the same edge: the multi-seed walk then holds
    /// several columns whose seeds sit on the same two vertices with
    /// different offsets — a worst case for column bookkeeping.
    #[test]
    fn filters_agree_for_query_seeds_on_one_edge(
        seed in 0u64..10_000,
        q_count in 2usize..6,
        t in 0.0f64..40.0,
    ) {
        let net = generate_road(&RoadConfig::with_size(120, seed));
        let tree = GTree::build_with_capacity(&net, 8);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        // Pick one edge and spread all query locations along it.
        let (eu, ev, ew) = {
            let n = net.num_vertices() as u32;
            let mut edge = None;
            for _ in 0..64 {
                let v = rng.random_range(0..n);
                let nbrs = net.neighbors(v);
                if !nbrs.is_empty() {
                    let (u, w) = nbrs[rng.random_range(0..nbrs.len())];
                    edge = Some((v, u, w));
                    break;
                }
            }
            match edge {
                Some(e) => e,
                None => return, // fully disconnected sample; nothing to test
            }
        };
        let q: Vec<Location> = (0..q_count)
            .map(|i| Location::OnEdge {
                u: eu.min(ev),
                v: eu.max(ev),
                offset: ew * (i as f64 + 0.5) / q_count as f64,
            })
            .collect();
        let mut users = random_locations(&net, 80, &mut rng);
        // ...including users on the very same edge, named from either end.
        users.extend((0..=6).map(|i| Location::OnEdge {
            u: eu.min(ev),
            v: eu.max(ev),
            offset: ew * (i as f64) / 6.0,
        }));
        users.extend((0..=6).map(|i| Location::OnEdge {
            u: eu.max(ev),
            v: eu.min(ev),
            offset: ew * (i as f64) / 6.0,
        }));
        assert_filters_agree(&net, &tree, &q, t, &users);
    }

    /// `t` exactly equal to a shortest-path distance: the threshold predicate
    /// is `<= t`, and on **integer-weighted** networks every strategy
    /// assembles path sums exactly (f64 adds integers below 2^53 without
    /// rounding, in any association order), so boundary users must be kept by
    /// every strategy with no tolerance to hide behind. Continuous weights
    /// are excluded deliberately: there, differently-associated sums of the
    /// same path legitimately differ in the last ulp.
    #[test]
    fn filters_agree_at_exact_shortest_path_thresholds(
        seed in 0u64..10_000,
        leaf_capacity in 4usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD157);
        // Random integer-weighted network: a ring plus chords.
        let n = rng.random_range(60..140usize) as u32;
        let mut edges: Vec<(u32, u32, f64)> = (0..n)
            .map(|v| (v, (v + 1) % n, rng.random_range(1..9u32) as f64))
            .collect();
        for _ in 0..n {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            edges.push((u, v, rng.random_range(1..15u32) as f64));
        }
        let net = RoadNetwork::from_edges(n as usize, &edges);
        let tree = GTree::build_with_capacity(&net, leaf_capacity);
        let qv = rng.random_range(0..n);
        let dists = sssp(&net, qv);
        // Use a reachable vertex's exact distance as t (preferring a far one
        // so the boundary is non-trivial).
        let mut t = 0.0f64;
        for _ in 0..32 {
            let v = rng.random_range(0..n) as usize;
            if dists[v].is_finite() && dists[v] > t {
                t = dists[v];
            }
        }
        let q = [Location::vertex(qv)];
        let users: Vec<Location> = (0..n).map(Location::vertex).collect();
        assert_filters_agree(&net, &tree, &q, t, &users);
    }

    /// Thresholds below every distance: both strategies must agree on the
    /// empty result (and on the singleton result at the query vertex itself).
    #[test]
    fn filters_agree_on_empty_results(
        seed in 0u64..10_000,
        leaf_capacity in 4usize..20,
    ) {
        let net = generate_road(&RoadConfig::with_size(100, seed));
        let tree = GTree::build_with_capacity(&net, leaf_capacity);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE397);
        let n = net.num_vertices() as u32;
        let qv = rng.random_range(0..n);
        let q = [Location::vertex(qv)];
        // Users strictly away from the query vertex, t = 0: nobody qualifies.
        let users: Vec<Location> = (0..n).filter(|&v| v != qv).map(Location::vertex).collect();
        let reference = RangeFilter::DijkstraSweep.users_within(&net, &q, 0.0, &users);
        prop_assert!(
            reference.iter().all(|&w| !w),
            "t = 0 with users off the query vertex must filter everyone"
        );
        prop_assert_eq!(&reference, &reference_within(&net, &q, 0.0, &users));
        for filter in gtree_filters(&tree) {
            prop_assert_eq!(
                filter.users_within(&net, &q, 0.0, &users),
                reference.clone(),
                "{} disagrees on the empty result",
                filter.name()
            );
        }
    }
}

fn all_filters(tree: &GTree) -> [RangeFilter<'_>; 2] {
    [
        RangeFilter::DijkstraSweep,
        RangeFilter::GTreeMultiSeedBatched(tree),
    ]
}

/// Users at distance **exactly** `t` must be kept by every strategy: the
/// threshold predicate is `<= t`, and with integer edge weights all assembled
/// distances are exact, so there is no tolerance to hide behind.
#[test]
fn users_exactly_at_distance_t_are_kept_by_all_filters() {
    // A line 0-1-2-...-7 with unit weights plus a long chord 0-7.
    let mut edges: Vec<(u32, u32, f64)> = (0..7).map(|i| (i, i + 1, 1.0)).collect();
    edges.push((0, 7, 16.0));
    let net = RoadNetwork::from_edges(8, &edges);
    let tree = GTree::build_with_capacity(&net, 4);
    let q = [Location::vertex(0)];
    let t = 3.0;
    let users = vec![
        Location::vertex(0), // 0
        Location::vertex(3), // exactly t
        Location::OnEdge {
            u: 2,
            v: 3,
            offset: 1.0,
        }, // exactly t (edge endpoint)
        Location::OnEdge {
            u: 3,
            v: 4,
            offset: 0.0,
        }, // exactly t (edge start)
        Location::OnEdge {
            u: 2,
            v: 3,
            offset: 0.5,
        }, // 2.5 < t
        Location::OnEdge {
            u: 3,
            v: 4,
            offset: 0.5,
        }, // 3.5 > t
        Location::vertex(4), // 4 > t
        Location::vertex(7), // 7 > t (chord longer)
    ];
    let expected = vec![true, true, true, true, true, false, false, false];
    assert_eq!(reference_within(&net, &q, t, &users), expected);
    for filter in all_filters(&tree) {
        assert_eq!(
            filter.users_within(&net, &q, t, &users),
            expected,
            "{} broke the boundary-exact membership",
            filter.name()
        );
    }
}

/// Multi-location queries intersect the per-location predicates; a user
/// exactly at distance t from one query location and within t of the other
/// stays, a user beyond t from either goes.
#[test]
fn multi_query_intersection_is_identical_across_filters() {
    let edges: Vec<(u32, u32, f64)> = (0..9).map(|i| (i, i + 1, 1.0)).collect();
    let net = RoadNetwork::from_edges(10, &edges);
    let tree = GTree::build_with_capacity(&net, 4);
    let q = [Location::vertex(2), Location::vertex(6)];
    let t = 4.0;
    // D_Q(v) = max(dist to 2, dist to 6) <= 4 keeps vertices 2..=6; vertex 0
    // is 6 away from vertex 6; vertices at the exact boundary stay.
    let users: Vec<Location> = (0..10).map(Location::vertex).collect();
    let expected: Vec<bool> = (0..10u32)
        .map(|v| (v as i64 - 2).abs().max((v as i64 - 6).abs()) <= 4)
        .collect();
    for filter in all_filters(&tree) {
        assert_eq!(
            filter.users_within(&net, &q, t, &users),
            expected,
            "{} broke the multi-query intersection",
            filter.name()
        );
    }
}

/// A location on edge `u–v` may name the edge from either end:
/// `OnEdge { u: 1, v: 0, offset: o }` is the point `w − o` from vertex 0.
/// Two users on the query's edge are then joined straight along it, whichever
/// way each is named, and every filter must see that shortcut.
#[test]
fn same_edge_users_named_from_the_other_end_keep_the_along_edge_path() {
    // The path 0-1-2 with unit weights.
    let net = RoadNetwork::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
    let tree = GTree::build_with_capacity(&net, 2);
    let t = 0.125;
    let users = vec![
        Location::OnEdge {
            u: 1,
            v: 0,
            offset: 0.625,
        }, // 0.375 from vertex 0: exactly t
        Location::OnEdge {
            u: 0,
            v: 1,
            offset: 0.375,
        }, // the same point, named from vertex 0
        Location::OnEdge {
            u: 1,
            v: 0,
            offset: 0.5,
        }, // 0.25 > t
        Location::vertex(0), // 0.25 > t
        Location::OnEdge {
            u: 1,
            v: 2,
            offset: 0.0,
        }, // vertex 1: 0.75 > t
    ];
    let expected = vec![true, true, false, false, false];
    // The query point 0.25 from vertex 0, named from either end.
    for q in [
        Location::OnEdge {
            u: 0,
            v: 1,
            offset: 0.25,
        },
        Location::OnEdge {
            u: 1,
            v: 0,
            offset: 0.75,
        },
    ] {
        assert_eq!(reference_within(&net, &[q], t, &users), expected);
    }
    for q in [
        Location::OnEdge {
            u: 0,
            v: 1,
            offset: 0.25,
        },
        Location::OnEdge {
            u: 1,
            v: 0,
            offset: 0.75,
        },
    ] {
        for filter in all_filters(&tree) {
            assert_eq!(
                filter.users_within(&net, &[q], t, &users),
                expected,
                "{} missed a same-edge user for the query {q:?}",
                filter.name()
            );
        }
    }
}
