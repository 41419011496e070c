//! Context-cache coherence under dynamic updates: a long-lived session with
//! a [`ContextCache`](road_social_mac::core::ContextCache) must answer every
//! query **identically** to a fresh cache-less session on the same engine
//! epoch — across repeated serving passes (which hit the cache, and its
//! stored answers) interleaved with
//! [`apply_updates`](road_social_mac::core::MacEngine::apply_updates)
//! batches. An entry survives a batch only while the batch provably cannot
//! change its kept set: the batches include random traffic, reweights
//! sized to the hot query's distance slack, and a move across `t`. The
//! fresh session is opened per pass, so any stale entry the cache wrongly
//! reused would diverge immediately.

mod common;

use common::assert_results_identical;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use road_social_mac::core::{
    AlgorithmChoice, MacEngine, MacQuery, MacSearchResult, NetworkDelta, QueryBudget,
    RoadSocialNetwork,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use road_social_mac::road::dijkstra::location_distance;
use road_social_mac::road::rangefilter::RangeFilterChoice;
use road_social_mac::road::{Location, RoadNetwork};

const GTREE_LEAF_CAPACITY: usize = 16;

/// Builds a small random road-social network from a seed; the returned group
/// holds co-located high-coreness users to query from.
fn random_network(seed: u64, n_users: usize, indexed: bool) -> (RoadSocialNetwork, Vec<u32>) {
    let d = 3;
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
        d,
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
    let rsn = if indexed {
        rsn.with_gtree_index_capacity(GTREE_LEAF_CAPACITY)
    } else {
        rsn
    };
    (rsn, group)
}

fn region_for(sigma: f64) -> PrefRegion {
    let ranges: Vec<(f64, f64)> = (0..2)
        .map(|_| {
            (
                (1.0 / 3.0 - sigma / 2.0).max(0.0),
                (1.0 / 3.0 + sigma / 2.0).min(1.0),
            )
        })
        .collect();
    PrefRegion::from_ranges(&ranges).unwrap()
}

/// A few hot queries, shaped so several share a context signature (same
/// users/k/t/region, different j) — exactly what the cache is for.
fn workload(group: &[u32]) -> Vec<MacQuery> {
    let mut queries = Vec::new();
    for i in 0..3usize {
        let q: Vec<u32> = group.iter().copied().take(1 + i).collect();
        let k = 4 + (i % 2) as u32;
        let t = [35.0, 60.0, 85.0][i];
        let base = MacQuery::new(q, k, t, region_for(0.1)).with_algorithm(AlgorithmChoice::Global);
        queries.push(base.clone().with_top_j(2));
        queries.push(base);
    }
    queries
}

/// One randomized update batch against independently tracked shadow state
/// (same shape as tests/engine_updates.rs).
fn random_delta(
    rng: &mut StdRng,
    edges: &mut [(u32, u32, f64)],
    locations: &mut [Location],
) -> NetworkDelta {
    let mut delta = NetworkDelta::new();
    for _ in 0..rng.random_range(1..5usize) {
        let idx = rng.random_range(0..edges.len());
        let (u, v, _) = edges[idx];
        let min_allowed = locations
            .iter()
            .filter_map(|loc| match *loc {
                Location::OnEdge {
                    u: lu,
                    v: lv,
                    offset,
                } if (lu, lv) == (u, v) => Some(offset),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        let w = rng.random_range(0.25..9.0f64).max(min_allowed);
        edges[idx].2 = w;
        delta = delta.reweight_edge(u, v, w);
    }
    for _ in 0..rng.random_range(1..5usize) {
        let user = rng.random_range(0..locations.len()) as u32;
        let loc = if rng.random_range(0.0..1.0) < 0.5 {
            let (u, v, w) = edges[rng.random_range(0..edges.len())];
            Location::on_edge(u, v, rng.random_range(0.0..1.0) * w, w)
        } else {
            Location::Vertex(rng.random_range(0..locations.len() as u32 / 2))
        };
        locations[user as usize] = loc;
        delta = delta.move_user(user, loc);
    }
    delta
}

/// `D_Q` of `loc` for the query users `q` at their current locations.
fn query_distance(road: &RoadNetwork, locations: &[Location], q: &[u32], loc: &Location) -> f64 {
    q.iter()
        .map(|&u| location_distance(road, &locations[u as usize], loc))
        .fold(0.0, f64::max)
}

/// The distance slack `min_u |t - D_Q(u)|` of `query` over all users.
fn slack(road: &RoadNetwork, locations: &[Location], query: &MacQuery) -> f64 {
    locations
        .iter()
        .map(|loc| (query.t - query_distance(road, locations, &query.q, loc)).abs())
        .fold(f64::INFINITY, f64::min)
}

/// A reweight of an edge no user sits on, by exactly `drift` up or down —
/// down only while the weight stays positive — (or `None` when every
/// candidate edge is occupied).
fn reweight_by(
    edges: &mut [(u32, u32, f64)],
    locations: &[Location],
    rng: &mut StdRng,
    drift: f64,
) -> Option<NetworkDelta> {
    let occupied = |u: u32, v: u32| {
        locations
            .iter()
            .any(|loc| matches!(*loc, Location::OnEdge { u: lu, v: lv, .. } if (lu, lv) == (u, v)))
    };
    for _ in 0..32 {
        let idx = rng.random_range(0..edges.len());
        let (u, v, w) = edges[idx];
        if !occupied(u, v) {
            let to = if w > drift && rng.random_bool(0.5) {
                w - drift
            } else {
                w + drift
            };
            edges[idx].2 = to;
            return Some(NetworkDelta::new().reweight_edge(u, v, to));
        }
    }
    None
}

/// Moves one non-query user of `query` across `t`: outward, the farthest
/// kept user onto the road vertex farthest from the query; inward, the
/// farthest dropped user onto a vertex at the first query user's location
/// (its edge's first endpoint when it sits on an edge). Returns the delta
/// and whether the move really crosses `t`.
fn move_across_t(
    road: &RoadNetwork,
    locations: &mut [Location],
    query: &MacQuery,
    outward: bool,
) -> Option<(NetworkDelta, bool)> {
    let d_q =
        |locations: &[Location], loc: &Location| query_distance(road, locations, &query.q, loc);
    let (user, _) = (0..locations.len() as u32)
        .filter(|u| !query.q.contains(u))
        .map(|u| (u, d_q(locations, &locations[u as usize])))
        .filter(|&(_, d)| (d <= query.t) == outward)
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    let target = if outward {
        (0..road.num_vertices() as u32)
            .map(|v| (v, d_q(locations, &Location::vertex(v))))
            .max_by(|a, b| a.1.total_cmp(&b.1))?
            .0
    } else {
        match locations[query.q[0] as usize] {
            Location::Vertex(v) | Location::OnEdge { u: v, .. } => v,
        }
    };
    let to = Location::vertex(target);
    let crosses = (d_q(locations, &to) <= query.t) != outward;
    locations[user as usize] = to;
    Some((NetworkDelta::new().move_user(user, to), crosses))
}

/// Reduced deterministic grid under the debug profile; the full grid runs in
/// the release CI job (same convention as the other fuzz harnesses).
const FUZZ_CASES: u32 = if cfg!(debug_assertions) { 3 } else { 8 };

proptest! {
    #![proptest_config(ProptestConfig { cases: FUZZ_CASES, .. ProptestConfig::default() })]

    /// Interleaves cached serving with update batches: on every epoch, two
    /// passes over the workload (the second pass served from the cache) must
    /// both equal a fresh cache-less session opened on the same epoch. The
    /// batches cycle through random traffic, a reweight (up or down) of a
    /// quarter of the hot query's slack, one of exactly its slack, and moves
    /// of one of its users across `t`, outward and inward, each of which
    /// must drop its entry.
    #[test]
    fn cached_queries_equal_fresh_rebuilds_across_update_interleavings(seed in 0u64..200) {
        let indexed = seed % 2 == 0;
        let (rsn0, group) = random_network(seed, 100, indexed);
        let mut edges: Vec<(u32, u32, f64)> = rsn0.road().edges().collect();
        let mut locations: Vec<Location> = rsn0.locations().to_vec();

        let engine = MacEngine::build(rsn0);
        let mut cached = engine.session().with_context_cache(8);
        let queries = workload(&group);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAC4E);
        let unlimited = QueryBudget::new();

        let batches = 6u64;
        for batch in 0..batches {
            let mut hot_answered = false;
            for pass in 0..2u32 {
                // Fresh session per pass: no cache, same engine epoch.
                let mut fresh = engine.session();
                for (i, query) in queries.iter().enumerate() {
                    let label = format!("seed {seed}, batch {batch}, pass {pass}, query {i}");
                    let hot = cached.execute(query).unwrap();
                    let cold = fresh.execute(query).unwrap();
                    assert_results_identical(&label, &hot, &cold);
                    hot_answered |= i == 0 && !hot.is_empty();
                }
            }
            // The budgeted path shares the same cache entries.
            let outcome = cached.execute_with_budget(&queries[0], &unlimited).unwrap();
            prop_assert!(outcome.is_complete());
            let mut fresh = engine.session();
            assert_results_identical(
                &format!("seed {seed}, batch {batch}, budgeted"),
                outcome.result(),
                &fresh.execute(&queries[0]).unwrap(),
            );

            let road = engine.epoch().network().road().clone();
            let hot_slack = slack(&road, &locations, &queries[0]);
            let drops_before = cached.context_cache_stats().expect("cache enabled").move_drops;
            let mut crosses_t = false;
            let delta = match batch % 5 {
                1 if hot_slack.is_finite() => {
                    reweight_by(&mut edges, &locations, &mut rng, hot_slack / 4.0)
                }
                2 if hot_slack.is_finite() => {
                    reweight_by(&mut edges, &locations, &mut rng, hot_slack)
                }
                kind @ (3 | 4) => move_across_t(&road, &mut locations, &queries[0], kind == 3)
                    .map(|(delta, crosses)| {
                        crosses_t = crosses;
                        delta
                    }),
                _ => None,
            }
            .unwrap_or_else(|| random_delta(&mut rng, &mut edges, &mut locations));
            let stats = engine.apply_updates(&delta).unwrap();
            prop_assert_eq!(stats.epoch, batch + 1);
            if crosses_t && hot_answered {
                // The next lookup syncs the cache; the hot query's entry
                // must not survive a user crossing the edge of its ball.
                cached.execute(&queries[0]).unwrap();
                let drops = cached.context_cache_stats().expect("cache enabled").move_drops;
                prop_assert!(drops > drops_before, "a move across t kept the entry");
            }
        }

        // One more serving pass on the final epoch.
        let mut fresh = engine.session();
        let mut any_nonempty = false;
        for (i, query) in queries.iter().enumerate() {
            let label = format!("seed {seed}, final epoch, query {i}");
            let hot = cached.execute(query).unwrap();
            any_nonempty |= !hot.is_empty();
            assert_results_identical(&label, &hot, &fresh.execute(query).unwrap());
        }

        let stats = cached.stats();
        // Empty-core queries build no context and so cannot hit; only demand
        // hits when the workload actually answered something.
        prop_assert!(
            stats.context_cache_hits > 0 || !any_nonempty,
            "cache never hit: {}",
            stats
        );
        prop_assert_eq!(stats.errors, 0);
        // Every entry an update dropped is counted once, by its cause.
        let cache_stats = cached.context_cache_stats().expect("cache enabled");
        prop_assert_eq!(
            cache_stats.epoch_invalidations,
            cache_stats.drift_expiries + cache_stats.move_drops
        );
    }
}

/// The new coherence contract on a generated network: an update far below
/// the hot query's distance slack keeps its entry (the repeat is answered
/// from the stored answer), while a reweight that moves the query's users
/// across `t` drops it — and every answer equals a fresh session's.
#[test]
fn sub_slack_updates_keep_entries_and_updates_across_t_drop_them() {
    let (rsn, group) = random_network(7, 100, true);
    let mut edges: Vec<(u32, u32, f64)> = rsn.road().edges().collect();
    let locations: Vec<Location> = rsn.locations().to_vec();
    // A radius 8 past the farthest user: every user is kept, so the slack
    // is exactly 8 and the sweep settles every user's distance. (The G-tree
    // walk records no distance field, so its entries drop on any update.)
    let q = vec![group[0]];
    let farthest = locations
        .iter()
        .map(|loc| query_distance(rsn.road(), &locations, &q, loc))
        .fold(0.0, f64::max);
    assert!(farthest.is_finite(), "the fixture's road is connected");
    let query = MacQuery::new(q, 4, farthest + 8.0, region_for(0.1))
        .with_algorithm(AlgorithmChoice::Global)
        .with_range_filter(RangeFilterChoice::DijkstraSweep);
    let engine = MacEngine::build(rsn);
    let mut cached = engine.session().with_context_cache(8);
    let first = cached.execute(&query).unwrap();
    assert!(!first.is_empty(), "the planted group answers the query");

    let mut rng = StdRng::seed_from_u64(7);
    let tiny = reweight_by(&mut edges, &locations, &mut rng, 0.5).expect("a user-free edge");
    engine.apply_updates(&tiny).unwrap();
    let fresh = engine.session().execute(&query).unwrap();
    let kept = cached.execute(&query).unwrap();
    assert_results_identical("after a sub-slack reweight", &kept, &fresh);
    let stats = cached.context_cache_stats().unwrap();
    assert_eq!(stats.epoch_invalidations, 0, "{stats:?}");
    assert_eq!(
        stats.outcome_hits, 1,
        "the entry answers from its stored answer"
    );

    // Scale every edge up: the query's farthest users leave the ball.
    let mut across = NetworkDelta::new();
    for &(u, v, w) in &edges {
        across = across.reweight_edge(u, v, w * 4.0);
    }
    engine.apply_updates(&across).unwrap();
    let fresh = engine.session().execute(&query).unwrap();
    let after = cached.execute(&query).unwrap();
    assert_results_identical("after a reweight across t", &after, &fresh);
    let stats = cached.context_cache_stats().unwrap();
    assert_eq!(
        (stats.drift_expiries, stats.epoch_invalidations),
        (1, 1),
        "{stats:?}"
    );
}

/// A dropped on-edge user whose near endpoint lies inside `t` and whose far
/// endpoint the bounded sweep leaves unsettled: the filter reads the user's
/// distance through the near endpoint, far above the true one. A cut on the
/// far endpoint's route, well below the kept users' slack but above the
/// dropped user's true slack, brings it inside `t` — the entry must drop and
/// the answer must change with it.
#[test]
fn a_cut_behind_an_unsettled_endpoint_drops_the_entry() {
    // Road: 0 -1.875- 1 -5.125- 2 and 0 -1- 3 -1.0625- 2, so vertex 2 lies
    // at 2.0625 > t = 2. Users 0..3 sit at vertex 0; user 4 sits 0.125 short
    // of vertex 2 on edge 1-2, at true distance 2.1875 (6.875 through 1).
    let road = RoadNetwork::from_edges(
        4,
        &[(0, 1, 1.875), (1, 2, 5.125), (0, 3, 1.0), (3, 2, 1.0625)],
    );
    // K5 on users 0..4: with user 4 kept the 3-core grows by one.
    let pairs: Vec<(u32, u32)> = (0..5u32)
        .flat_map(|a| (a + 1..5).map(move |b| (a, b)))
        .collect();
    let social = road_social_mac::graph::graph::Graph::from_edges(5, &pairs);
    let mut locations = vec![Location::vertex(0); 5];
    locations[4] = Location::OnEdge {
        u: 1,
        v: 2,
        offset: 5.0,
    };
    let attrs = vec![
        vec![5.0, 1.0],
        vec![4.0, 2.0],
        vec![3.0, 3.0],
        vec![2.0, 4.0],
        vec![9.0, 9.0],
    ];
    let rsn = RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
    let region = PrefRegion::from_ranges(&[(0.3, 0.7)]).unwrap();
    let query = MacQuery::new(vec![0], 3, 2.0, region)
        .with_algorithm(AlgorithmChoice::Global)
        .with_range_filter(RangeFilterChoice::DijkstraSweep);
    let engine = MacEngine::build(rsn);
    let mut cached = engine.session().with_context_cache(4);
    let before = cached.execute(&query).unwrap();
    assert!(!before.is_empty());

    // A cut of 0.25 on the user-free edge 3-2: drift 0.25, below the kept
    // users' slack of 2; user 4 ends at 1.9375 <= t.
    engine
        .apply_updates(&NetworkDelta::new().reweight_edge(3, 2, 0.8125))
        .unwrap();
    let fresh = engine.session().execute(&query).unwrap();
    let members = |r: &MacSearchResult| {
        r.cells
            .iter()
            .flat_map(|c| c.communities.iter().flat_map(|m| m.vertices.clone()))
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert!(
        members(&fresh).contains(&4),
        "user 4 is inside t after the cut"
    );
    assert_ne!(
        members(&before),
        members(&fresh),
        "the cut changes the answer"
    );
    let after = cached.execute(&query).unwrap();
    assert_results_identical("after a cut behind an unsettled endpoint", &after, &fresh);
    let stats = cached.context_cache_stats().unwrap();
    assert_eq!(
        (stats.drift_expiries, stats.outcome_hits),
        (1, 0),
        "{stats:?}"
    );
}
