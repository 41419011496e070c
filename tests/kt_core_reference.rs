//! Independent reference for the maximal (k,t)-core: `maximal_kt_core` is
//! checked against Definition 7 computed the slow way, not against another
//! run of the pipeline.
//!
//! The reference takes each query user's distance field from plain
//! `sssp_from_location`, keeps the users within `t` of every query user,
//! removes vertices of degree `< k` from the induced subgraph one at a time
//! until none is left, and returns the BFS component of `Q`. It uses no
//! `KtScratch`, `SubgraphView`, peel scratch or range-filter code.
//!
//! Weights are multiples of 0.5 and offsets multiples of 0.25, so every
//! distance is exact and users at exactly distance `t` are common: the
//! sweep and the G-tree walk must agree with the reference on them too.
//! Inputs cover query users outside `t`, query users in different
//! components, duplicate query users, `k` above the maximum core, `k = 1`,
//! filters that keep nobody, and on-edge users named from either end of
//! their edge (`OnEdge { u, v, .. }` and `OnEdge { u: v, v: u, .. }`) next
//! to a query user on the same edge.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use road_social_mac::graph::{Graph, GraphBuilder};
use road_social_mac::prelude::*;
use road_social_mac::road::dijkstra::sssp_from_location;
use road_social_mac::road::network::Location;
use road_social_mac::road::rangefilter::RangeFilterChoice;

fn fuzz_cases(full: u32) -> u32 {
    if cfg!(debug_assertions) {
        (full / 4).max(4)
    } else {
        full
    }
}

/// A random road-social network drawn from `rng`. The road has 1 to 12
/// vertices and may be disconnected; about a third of the users sit on an
/// edge, named in either orientation.
fn random_network(rng: &mut StdRng) -> RoadSocialNetwork {
    let n_road = rng.random_range(1..=12u32);
    let road_edges: Vec<(u32, u32, f64)> = (0..rng.random_range(0..=2 * n_road as usize))
        .map(|_| {
            let u = rng.random_range(0..n_road);
            let v = rng.random_range(0..n_road);
            (u, v, rng.random_range(0..=6) as f64 * 0.5)
        })
        .collect();
    let road = RoadNetwork::from_edges(n_road as usize, &road_edges);
    let segments: Vec<(u32, u32, f64)> = road.edges().collect();

    let n = rng.random_range(1..=30u32);
    let density = rng.random_range(0.05..0.6);
    let mut social_edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(density) {
                social_edges.push((u, v));
            }
        }
    }
    let social = Graph::from_edges(n as usize, &social_edges);
    let locations = (0..n)
        .map(|_| {
            if !segments.is_empty() && rng.random_range(0..3) == 0 {
                let (u, v, w) = segments[rng.random_range(0..segments.len())];
                let (u, v) = if rng.random_bool(0.5) { (v, u) } else { (u, v) };
                let quarters = (w * 4.0) as u32;
                Location::OnEdge {
                    u,
                    v,
                    offset: rng.random_range(0..=quarters) as f64 * 0.25,
                }
            } else {
                Location::vertex(rng.random_range(0..n_road))
            }
        })
        .collect();
    let attrs = vec![vec![1.0, 1.0]; n as usize];
    RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
}

/// `dist(p, p')` from `p`'s plain Dijkstra field: the best way in through
/// either endpoint of `p'`, or straight along the edge both share, whichever
/// end of it each location is measured from.
fn location_distance(
    rsn: &RoadSocialNetwork,
    field: &[f64],
    from: &Location,
    to: &Location,
) -> f64 {
    match (*from, *to) {
        (_, Location::Vertex(v)) => field[v as usize],
        (from, Location::OnEdge { u, v, offset }) => {
            let w = rsn.road().edge_weight(u, v).unwrap();
            let mut best = (field[u as usize] + offset).min(field[v as usize] + (w - offset));
            if let Location::OnEdge {
                u: fu,
                v: fv,
                offset: foff,
            } = from
            {
                if (fu, fv) == (u, v) {
                    best = best.min((foff - offset).abs());
                } else if (fu, fv) == (v, u) {
                    best = best.min((foff - (w - offset)).abs());
                }
            }
            best
        }
    }
}

/// The users whose query distance `D_Q` is at most `t`, as a mask.
fn users_within(rsn: &RoadSocialNetwork, q: &[u32], t: f64) -> Vec<bool> {
    let mut within = vec![true; rsn.num_users()];
    for &qv in q {
        let from = rsn.location(qv);
        let field = sssp_from_location(rsn.road(), from, None);
        for (x, keep) in within.iter_mut().enumerate() {
            if location_distance(rsn, &field, from, rsn.location(x as u32)) > t {
                *keep = false;
            }
        }
    }
    within
}

/// The maximal (k,t)-core of Definition 7, sorted, or `None`.
fn reference_kt_core(rsn: &RoadSocialNetwork, q: &[u32], k: u32, t: f64) -> Option<Vec<u32>> {
    let g = rsn.social();
    let n = g.num_vertices();
    let mut alive = users_within(rsn, q, t);
    let degree = |alive: &[bool], v: usize| {
        g.neighbors(v as u32)
            .iter()
            .filter(|&&u| alive[u as usize])
            .count()
    };
    while let Some(v) = (0..n).find(|&v| alive[v] && degree(&alive, v) < k as usize) {
        alive[v] = false;
    }
    if q.iter().any(|&v| !alive[v as usize]) {
        return None;
    }
    let mut reached = vec![false; n];
    reached[q[0] as usize] = true;
    let mut queue = vec![q[0]];
    while let Some(v) = queue.pop() {
        for &u in g.neighbors(v) {
            if alive[u as usize] && !reached[u as usize] {
                reached[u as usize] = true;
                queue.push(u);
            }
        }
    }
    if q.iter().any(|&v| !reached[v as usize]) {
        return None;
    }
    Some((0..n as u32).filter(|&v| reached[v as usize]).collect())
}

/// What the queries of one input exercised, summed over all inputs.
#[derive(Default)]
struct Coverage {
    cores: usize,
    empty_filters: usize,
    q_outside_t: usize,
    split_q: usize,
    k_above_max: usize,
    k_one: usize,
    duplicate_q: usize,
    reversed_edge_pairs: usize,
}

fn check_against_reference(seed: u64, coverage: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let plain = random_network(&mut rng);
    let indexed = plain
        .clone()
        .with_gtree_index_capacity(rng.random_range(2..=5));
    let n = plain.num_users() as u32;
    let max_core = road_social_mac::graph::core_decomp::max_core_number(plain.social());
    let region = PrefRegion::from_ranges(&[(0.2, 0.6)]).unwrap();

    for _ in 0..12 {
        let mut q: Vec<u32> = (0..rng.random_range(1..=3))
            .map(|_| rng.random_range(0..n))
            .collect();
        if rng.random_range(0..4) == 0 {
            q.push(q[0]);
        }
        let k = match rng.random_range(0..4) {
            0 => 1,
            1 => max_core + 1,
            _ => rng.random_range(1..=max_core.max(1) + 1),
        };
        let t = rng.random_range(0..=16) as f64 * 0.25;
        let expected = reference_kt_core(&plain, &q, k, t);

        for (rsn, filter) in [
            (&plain, RangeFilterChoice::DijkstraSweep),
            (&indexed, RangeFilterChoice::DijkstraSweep),
            (&indexed, RangeFilterChoice::GTreeMultiSeedBatched),
            (&indexed, RangeFilterChoice::Auto),
        ] {
            let query = MacQuery::new(q.clone(), k, t, region.clone()).with_range_filter(filter);
            let got = maximal_kt_core(rsn, &query).unwrap().map(|c| c.vertices);
            assert_eq!(
                got, expected,
                "seed {seed}: q {q:?}, k {k}, t {t}, filter {filter:?}"
            );
        }

        // Classify the query by the reference's own intermediate sets.
        let within = users_within(&plain, &q, t);
        coverage.cores += usize::from(expected.is_some());
        coverage.empty_filters += usize::from(!within.contains(&true));
        coverage.q_outside_t += usize::from(q.iter().any(|&v| !within[v as usize]));
        // Q spans two components of G_s (or has an isolated member).
        coverage.split_q += usize::from(
            q.iter().any(|&v| v != q[0])
                && reference_kt_core(&plain, &q, 1, f64::INFINITY).is_none(),
        );
        coverage.k_above_max += usize::from(k > max_core);
        coverage.k_one += usize::from(k == 1);
        coverage.duplicate_q += usize::from(q.len() > 1 && q.last() == q.first());
        // A user on a query user's edge, named from the other end.
        coverage.reversed_edge_pairs += usize::from(q.iter().any(|&qv| {
            (0..n).any(|x| match (*plain.location(qv), *plain.location(x)) {
                (Location::OnEdge { u: a, v: b, .. }, Location::OnEdge { u: c, v: d, .. }) => {
                    (a, b) == (d, c)
                }
                _ => false,
            })
        }));
    }
}

/// The induced subgraph of `vertices` built through a `GraphBuilder` edge
/// list, with new ids in order of first occurrence.
fn reference_induced(g: &Graph, vertices: &[u32]) -> (Graph, Vec<u32>) {
    let mut new_to_old: Vec<u32> = Vec::new();
    for &v in vertices {
        if !new_to_old.contains(&v) {
            new_to_old.push(v);
        }
    }
    let mut builder = GraphBuilder::new(new_to_old.len());
    for (a, &u) in new_to_old.iter().enumerate() {
        for (b, &v) in new_to_old.iter().enumerate() {
            if g.has_edge(u, v) {
                builder.add_edge(a as u32, b as u32);
            }
        }
    }
    (builder.build(), new_to_old)
}

fn check_induced_subgraph(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..=40u32);
    let density = rng.random_range(0.0..0.5);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(density) {
                edges.push((u, v));
            }
        }
    }
    let g = Graph::from_edges(n as usize, &edges);
    let mut vertices: Vec<u32> = (0..rng.random_range(0..=n + 5))
        .map(|_| rng.random_range(0..n))
        .collect();
    if rng.random_bool(0.5) {
        vertices.sort_unstable();
    }
    let (sub, map) = g.induced_subgraph(&vertices);
    let (want, want_map) = reference_induced(&g, &vertices);
    assert_eq!(map, want_map, "seed {seed}: id map of {vertices:?}");
    assert_eq!(sub.num_vertices(), want.num_vertices(), "seed {seed}");
    assert_eq!(sub.num_edges(), want.num_edges(), "seed {seed}");
    for v in want.vertices() {
        assert_eq!(
            sub.neighbors(v),
            want.neighbors(v),
            "seed {seed}: neighbours of {v} for {vertices:?}"
        );
    }
}

#[test]
fn kt_core_reference_covers_every_case() {
    let mut coverage = Coverage::default();
    for seed in 0..u64::from(fuzz_cases(200)) {
        check_against_reference(seed, &mut coverage);
    }
    let Coverage {
        cores,
        empty_filters,
        q_outside_t,
        split_q,
        k_above_max,
        k_one,
        duplicate_q,
        reversed_edge_pairs,
    } = coverage;
    for (name, count) in [
        ("non-empty cores", cores),
        ("empty filters", empty_filters),
        ("query users outside t", q_outside_t),
        ("query users in different components", split_q),
        ("k above the maximum core", k_above_max),
        ("k = 1", k_one),
        ("duplicate query users", duplicate_q),
        (
            "users on a query user's edge in the other orientation",
            reversed_edge_pairs,
        ),
    ] {
        assert!(count > 0, "no query exercised {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases(400), .. ProptestConfig::default() })]

    #[test]
    fn kt_core_matches_definition_7(seed in 0u64..1_000_000) {
        check_against_reference(seed, &mut Coverage::default());
    }

    #[test]
    fn induced_subgraph_matches_a_graph_builder_reference(seed in 0u64..1_000_000) {
        check_induced_subgraph(seed);
    }
}
