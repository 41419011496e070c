//! Parallel execution is an implementation detail, never an answer change:
//! the work-stealing global search — the one parallel path inside a query —
//! must be cell-identical to the serial DFS at every worker count, on
//! indexed and unindexed networks, across engine epochs separated by live
//! updates, and for both problems (non-contained and top-j). These tests pin
//! that contract with seeded random networks; timing may differ between
//! runs, answers may not.

mod common;

use common::assert_results_identical;
use road_social_mac::core::{
    AlgorithmChoice, ExecutionPolicy, ExhaustionCause, MacEngine, MacQuery, NetworkDelta,
    QueryBudget, QueryOutcome, RoadSocialNetwork,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use std::time::Duration;

fn random_network(seed: u64, n_users: usize, indexed: bool) -> (RoadSocialNetwork, Vec<u32>) {
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
    let rsn = if indexed {
        rsn.with_gtree_index_capacity(16)
    } else {
        rsn
    };
    (rsn, group)
}

fn region() -> PrefRegion {
    PrefRegion::from_ranges(&[(0.25, 0.40), (0.25, 0.40)]).unwrap()
}

/// A mixed workload exercising both problems and both algorithms, with exact
/// signature repeats.
fn workload(group: &[u32]) -> Vec<MacQuery> {
    let q2: Vec<u32> = group.iter().copied().take(2).collect();
    vec![
        MacQuery::new(vec![group[0]], 4, 50.0, region()),
        MacQuery::new(q2.clone(), 5, 50.0, region()).with_top_j(2),
        MacQuery::new(vec![group[0]], 4, 50.0, region()),
        MacQuery::new(q2.clone(), 4, 80.0, region()).with_algorithm(AlgorithmChoice::Local),
        MacQuery::new(q2, 5, 50.0, region()).with_top_j(2),
    ]
}

/// The work-stealing parallel global search, at several worker counts,
/// reports exactly the serial DFS's cells, in the serial DFS's order, for
/// both problems, on indexed and unindexed networks, and again on the epoch
/// an `apply_updates` reweight publishes.
#[test]
fn parallel_global_search_matches_serial() {
    for seed in [11u64, 42, 77] {
        for indexed in [false, true] {
            let (rsn, group) = random_network(seed, 130, indexed);
            let engine = MacEngine::build(rsn);
            let q2: Vec<u32> = group.iter().copied().take(2).collect();
            for epoch in 0..2 {
                for (query, top_j) in [
                    (MacQuery::new(q2.clone(), 4, 60.0, region()), false),
                    (
                        MacQuery::new(q2.clone(), 4, 60.0, region()).with_top_j(3),
                        true,
                    ),
                ] {
                    let query = query.with_algorithm(AlgorithmChoice::Global);
                    let serial = engine.session().execute(&query).unwrap();
                    for workers in [2usize, 3] {
                        let policy = ExecutionPolicy::new().with_parallelism(workers);
                        let got = engine.session().with_policy(policy).execute(&query);
                        assert_results_identical(
                            &format!(
                                "seed {seed}, indexed {indexed}, epoch {epoch}, \
                                 top_j {top_j}, workers {workers}"
                            ),
                            &serial,
                            &got.unwrap(),
                        );
                    }
                }
                // Nudge one road edge and repeat on the new epoch.
                if epoch == 0 {
                    let (v, w) = engine.epoch().network().road().neighbors(0)[0];
                    engine
                        .apply_updates(&NetworkDelta::new().reweight_edge(0, v, w * 1.5))
                        .expect("update applies");
                }
            }
        }
    }
}

/// A zero deadline degrades **every** query to `Partial` even when the
/// session's policy asks for parallel execution: the shared-budget latch
/// stops all workers, the merge yields a coherent (empty) prefix, and no
/// worker panics or leaks a stale result into the next query.
#[test]
fn zero_deadline_under_parallelism_is_partial_per_query() {
    let (rsn, group) = random_network(3, 120, true);
    let policy = ExecutionPolicy::new().with_parallelism(3);
    let engine = MacEngine::build_with_policy(rsn, policy);
    let mut session = engine.session();
    let budget = QueryBudget::new().with_deadline(Duration::ZERO);

    let queries = workload(&group);
    for (i, query) in queries.iter().enumerate() {
        let outcome = session.execute_with_budget(query, &budget).unwrap();
        let QueryOutcome::Partial(partial) = outcome else {
            panic!("query {i}: zero deadline under parallelism must be partial");
        };
        assert_eq!(partial.cause, ExhaustionCause::Deadline, "query {i}");
        assert!(
            partial.result.cells.is_empty(),
            "query {i}: nothing can complete under a zero deadline"
        );
    }
    // A budgeted batch — one budgeted call per slot — reports the same.
    let outcomes: Vec<_> = queries
        .iter()
        .map(|query| session.execute_with_budget(query, &budget))
        .collect();
    assert_eq!(outcomes.len(), queries.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(QueryOutcome::Partial(partial)) => {
                assert_eq!(partial.cause, ExhaustionCause::Deadline, "slot {i}")
            }
            other => panic!("slot {i}: expected a partial outcome, got {other:?}"),
        }
    }
    // The session is still clean: an unbudgeted query now completes and
    // matches a fresh serial session.
    let fresh = engine
        .session()
        .with_policy(ExecutionPolicy::new())
        .execute(&queries[0])
        .unwrap();
    let after = session.execute(&queries[0]).unwrap();
    assert_results_identical("post-exhaustion query", &fresh, &after);
}
