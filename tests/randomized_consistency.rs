//! Property-based cross-crate consistency tests: on randomly generated
//! road-social networks, the global search must agree with the fixed-weight
//! peeling oracle on every reported cell, the local search must be sound with
//! respect to the global search, and every reported community must satisfy
//! the structural (k,t)-core constraints of Definition 5.

use proptest::prelude::*;
use road_social_mac::core::peel::peel_at_weight;
use road_social_mac::core::{
    AlgorithmChoice, MacEngine, MacQuery, MacSearchResult, RoadSocialNetwork, SearchContext,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use road_social_mac::road::dijkstra::location_distance;

/// Builds a small random road-social network from a seed.
fn random_network(seed: u64, n_users: usize, d: usize) -> (RoadSocialNetwork, Vec<u32>) {
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
    (
        RoadSocialNetwork::new(social.graph, road, locations, attrs).unwrap(),
        group,
    )
}

fn region_for(d: usize, sigma: f64) -> PrefRegion {
    let center = 1.0 / d as f64;
    let ranges: Vec<(f64, f64)> = (0..d - 1)
        .map(|_| {
            (
                (center - sigma / 2.0).max(0.0),
                (center + sigma / 2.0).min(1.0),
            )
        })
        .collect();
    PrefRegion::from_ranges(&ranges).unwrap()
}

/// `query` answered by `algorithm` on a fresh session of a throwaway engine.
fn search(
    rsn: &RoadSocialNetwork,
    query: &MacQuery,
    algorithm: AlgorithmChoice,
) -> MacSearchResult {
    MacEngine::build(rsn.clone())
        .session()
        .execute(&query.clone().with_algorithm(algorithm))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn global_search_matches_peeling_oracle(seed in 0u64..500, sigma in 0.02f64..0.3) {
        let d = 3;
        let (rsn, group) = random_network(seed, 150, d);
        let q: Vec<u32> = group.iter().copied().take(2).collect();
        let query = MacQuery::new(q, 4, 60.0, region_for(d, sigma));
        let result = search(&rsn, &query, AlgorithmChoice::Global);
        if let Some(ctx) = SearchContext::build(&rsn, &query).unwrap() {
            for cell in &result.cells {
                let oracle = peel_at_weight(&ctx, &cell.sample_weight);
                let expected = ctx.community_from_locals(&oracle.final_vertices);
                prop_assert_eq!(&cell.communities[0].vertices, &expected.vertices);
            }
        }
    }

    #[test]
    fn reported_communities_satisfy_definition_5_structure(seed in 500u64..900) {
        let d = 3;
        let (rsn, group) = random_network(seed, 120, d);
        let q: Vec<u32> = group.iter().copied().take(3).collect();
        let k = 4u32;
        let t = 60.0;
        let query = MacQuery::new(q.clone(), k, t, region_for(d, 0.1));
        let result = search(&rsn, &query, AlgorithmChoice::Global);
        for cell in &result.cells {
            let community = &cell.communities[0];
            // contains the query users
            for &qv in &q {
                prop_assert!(community.contains(qv));
            }
            // minimum internal degree >= k (k-core condition)
            let (sub, _) = rsn.social().induced_subgraph(&community.vertices);
            let min_deg = (0..sub.num_vertices() as u32).map(|v| sub.degree(v)).min().unwrap();
            prop_assert!(min_deg as u32 >= k, "min degree {} < k {}", min_deg, k);
            // query distance <= t (communication-cost condition)
            let dq = community
                .vertices
                .iter()
                .flat_map(|&m| q.iter().map(move |&qv| (m, qv)))
                .map(|(m, qv)| location_distance(rsn.road(), rsn.location(qv), rsn.location(m)))
                .fold(0.0_f64, f64::max);
            prop_assert!(dq <= t + 1e-9, "D_Q(H) = {} > t = {}", dq, t);
        }
    }

    #[test]
    fn local_search_is_sound_on_random_networks(seed in 900u64..1200) {
        let d = 3;
        let (rsn, group) = random_network(seed, 120, d);
        let q: Vec<u32> = group.iter().copied().take(2).collect();
        let query = MacQuery::new(q, 4, 60.0, region_for(d, 0.1));
        let global = search(&rsn, &query, AlgorithmChoice::Global);
        let local = search(&rsn, &query, AlgorithmChoice::Local);
        let global_set: Vec<Vec<u32>> = global
            .distinct_communities()
            .iter()
            .map(|c| c.vertices.clone())
            .collect();
        for c in local.distinct_communities() {
            prop_assert!(global_set.contains(&c.vertices));
        }
    }
}
