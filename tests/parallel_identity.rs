//! Parallel execution is an implementation detail, never an answer change:
//! every parallel configuration — the work-stealing global search, the
//! fan-out local verification, the multi-worker batch — must be
//! cell-identical to its serial counterpart, on indexed and unindexed
//! networks, across engine epochs separated by live updates, and for both
//! problems (non-contained and top-j). These tests pin that contract with
//! seeded random networks; timing may differ between runs, answers may not.

mod common;

use common::assert_results_identical;
use road_social_mac::core::{
    AlgorithmChoice, ExecutionPolicy, ExhaustionCause, MacEngine, MacQuery, MacSearchResult,
    NetworkDelta, QueryBudget, QueryOutcome, RoadSocialNetwork,
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
/// signature repeats so batch deduplication has something to do.
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

/// `query` answered by `algorithm` on a fresh session (cache off, fresh
/// scratch) of a new engine under `policy`.
fn run_fresh(
    rsn: &RoadSocialNetwork,
    query: &MacQuery,
    algorithm: AlgorithmChoice,
    policy: ExecutionPolicy,
) -> MacSearchResult {
    MacEngine::build_with_policy(rsn.clone(), policy)
        .session()
        .execute(&query.clone().with_algorithm(algorithm))
        .unwrap()
}

/// The work-stealing parallel global search, at several worker counts,
/// reports exactly the serial DFS's cells, in the serial DFS's order, for
/// both problems, on indexed and unindexed networks.
#[test]
fn parallel_global_search_matches_serial() {
    for seed in [11u64, 42, 77] {
        for indexed in [false, true] {
            let (rsn, group) = random_network(seed, 130, indexed);
            let q2: Vec<u32> = group.iter().copied().take(2).collect();
            for (query, top_j) in [
                (MacQuery::new(q2.clone(), 4, 60.0, region()), false),
                (
                    MacQuery::new(q2.clone(), 4, 60.0, region()).with_top_j(3),
                    true,
                ),
            ] {
                let global = AlgorithmChoice::Global;
                let serial = run_fresh(&rsn, &query, global, ExecutionPolicy::new());
                for workers in [2usize, 3] {
                    let policy = ExecutionPolicy::new().with_parallelism(workers);
                    let got = run_fresh(&rsn, &query, global, policy);
                    assert_results_identical(
                        &format!(
                            "seed {seed}, indexed {indexed}, top_j {top_j}, workers {workers}"
                        ),
                        &serial,
                        &got,
                    );
                }
            }
        }
    }
}

/// The local framework's parallel candidate verification reports exactly the
/// serial verification's cells, for both problems.
#[test]
fn parallel_local_search_matches_serial() {
    for seed in [5u64, 23, 61] {
        let (rsn, group) = random_network(seed, 130, seed % 2 == 0);
        let q2: Vec<u32> = group.iter().copied().take(2).collect();
        for (query, top_j) in [
            (MacQuery::new(q2.clone(), 4, 70.0, region()), false),
            (
                MacQuery::new(q2.clone(), 4, 70.0, region()).with_top_j(2),
                true,
            ),
        ] {
            let local = AlgorithmChoice::Local;
            let serial_policy = ExecutionPolicy::new().with_max_candidates(16);
            let serial = run_fresh(&rsn, &query, local, serial_policy);
            for workers in [2usize, 4] {
                let policy = ExecutionPolicy::new()
                    .with_parallelism(workers)
                    .with_max_candidates(16);
                let got = run_fresh(&rsn, &query, local, policy);
                assert_results_identical(
                    &format!("seed {seed}, top_j {top_j}, workers {workers}"),
                    &serial,
                    &got,
                );
            }

            // The session path fans verification out under an unlimited
            // budget and keeps it serial under a limited one (a partial
            // answer must be a prefix), answering identically either way.
            let policy = ExecutionPolicy::new()
                .with_parallelism(3)
                .with_max_candidates(16);
            let engine = MacEngine::build_with_policy(rsn.clone(), policy);
            let mut session = engine.session();
            let local = query.clone().with_algorithm(AlgorithmChoice::Local);
            let fanned = session.execute(&local).unwrap();
            let label = format!("seed {seed}, top_j {top_j}, session");
            assert_results_identical(&label, &serial, &fanned);
            assert!(
                fanned.stats.parallel_workers > 1,
                "{label}: unbudgeted session LS did not fan out"
            );
            let generous = QueryBudget::new().with_work_limit(u64::MAX);
            let limited = session.execute_with_budget(&local, &generous).unwrap();
            assert!(limited.is_complete(), "{label}: generous budget exhausted");
            assert_results_identical(&label, &serial, limited.result());
            assert_eq!(
                limited.result().stats.parallel_workers,
                0,
                "{label}: budgeted session LS must verify serially"
            );
        }
    }
}

/// The multi-worker batch returns, slot for slot, the results a serial
/// session produces — including the deduplicated repeats — and stays
/// identical across an `apply_updates` epoch change.
#[test]
fn parallel_batch_matches_serial_across_epochs() {
    for indexed in [false, true] {
        let (rsn, group) = random_network(7, 130, indexed);
        let engine = MacEngine::build(rsn);
        let queries = workload(&group);

        let parallel_policy = engine.policy().clone().with_parallelism(3);
        for epoch in 0..2 {
            let serial = engine
                .session()
                .execute_batch(&queries)
                .expect("serial batch");
            let parallel = engine
                .session()
                .with_policy(parallel_policy.clone())
                .execute_batch(&queries)
                .expect("parallel batch");
            assert_eq!(
                serial.stats.deduplicated, parallel.stats.deduplicated,
                "indexed {indexed}, epoch {epoch}: dedup count"
            );
            assert_eq!(serial.results.len(), parallel.results.len());
            for (i, (a, b)) in serial.results.iter().zip(&parallel.results).enumerate() {
                assert_results_identical(
                    &format!("indexed {indexed}, epoch {epoch}, slot {i}"),
                    a,
                    b,
                );
            }

            // Nudge one road edge and repeat on the new epoch.
            if epoch == 0 {
                let (u, v, w) = {
                    let net = engine.epoch();
                    let road = net.network().road();
                    let (v, w) = road.neighbors(0)[0];
                    (0u32, v, w)
                };
                engine
                    .apply_updates(&NetworkDelta::new().reweight_edge(u, v, w * 1.5))
                    .expect("update applies");
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
