//! End-to-end tests of the `rsn-serve` front-end: responses through the
//! threaded server (queue + coalescing + per-worker caches) must be
//! identical to direct single-session execution; deadlines measured from
//! submission must degrade to valid partial prefixes; shutdown must answer
//! every accepted request; and a concurrent updater must never produce an
//! error or a torn answer.

mod common;

use common::{assert_results_identical, assert_valid_prefix};
use road_social_mac::core::{
    AlgorithmChoice, MacEngine, MacQuery, MacSearchResult, NetworkDelta, QueryBudget, QueryOutcome,
    RoadSocialNetwork,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use road_social_mac::serve::{MacServer, ServeConfig, SubmitError};
use std::sync::Arc;
use std::time::Duration;

fn random_network(seed: u64, n_users: usize) -> (RoadSocialNetwork, Vec<u32>) {
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
    (rsn.with_gtree_index_capacity(16), group)
}

fn region() -> PrefRegion {
    PrefRegion::from_ranges(&[(0.28, 0.38), (0.28, 0.38)]).unwrap()
}

fn workload(group: &[u32]) -> Vec<MacQuery> {
    let mut queries = Vec::new();
    for i in 0..4usize {
        let q: Vec<u32> = group.iter().copied().take(1 + i % 3).collect();
        let k = 4 + (i % 2) as u32;
        let t = [40.0, 65.0, 90.0][i % 3];
        let mut query = MacQuery::new(q, k, t, region()).with_algorithm(AlgorithmChoice::Global);
        if i % 2 == 1 {
            query = query.with_top_j(2);
        }
        queries.push(query);
    }
    queries
}

/// Served responses — through the queue, workers, coalescing, and caches —
/// equal direct session execution, for every worker-count/coalescing/cache
/// combination.
#[test]
fn served_responses_match_direct_execution() {
    let (rsn, group) = random_network(21, 120);
    let engine = MacEngine::build(rsn);
    let queries = workload(&group);
    let mut direct = engine.session();
    let expected: Vec<MacSearchResult> =
        queries.iter().map(|q| direct.execute(q).unwrap()).collect();

    for (workers, coalescing, cache) in [(1, false, 0), (1, true, 8), (4, false, 0), (4, true, 8)] {
        let server = MacServer::start(
            engine.clone(),
            ServeConfig {
                workers,
                queue_capacity: 64,
                coalescing,
                context_cache_capacity: cache,
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.workers(), workers);
        // Several rounds of the same workload: exercises coalescing (same
        // query in flight) and the answer cache (repeats across rounds).
        let handles: Vec<(usize, _)> = (0..3)
            .flat_map(|_| queries.iter().enumerate())
            .map(|(i, q)| (i, server.submit(q.clone()).unwrap()))
            .collect();
        for (i, handle) in &handles {
            let response = handle.wait();
            let outcome = response
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
            let label =
                format!("workers {workers}, coalescing {coalescing}, cache {cache}, query {i}");
            assert_results_identical(&label, outcome.result(), &expected[*i]);
        }
        // Every request was answered, so none is still queued.
        assert_eq!(server.queue_depth(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.submitted, (queries.len() * 3) as u64);
        assert_eq!(stats.sessions.errors, 0);
        // Every accepted request was answered exactly once, by execution or
        // by fan-out.
        assert_eq!(
            stats.sessions.served + stats.coalesced_joins,
            stats.submitted
        );
        if !coalescing {
            assert_eq!(stats.coalesced_joins, 0);
        }
        // A server without caches hits nothing, and the shutdown line
        // reports the hits.
        if cache == 0 {
            assert_eq!(stats.sessions.context_cache_hits, 0);
        }
        let hits = format!("cache {}/", stats.sessions.context_cache_hits);
        assert!(stats.to_string().contains(&hits), "{stats}");
    }
}

/// With one worker and a deep queue, identical requests pile up behind a
/// slow first one and must coalesce into a single execution.
#[test]
fn identical_inflight_requests_coalesce() {
    let (rsn, group) = random_network(33, 120);
    let engine = MacEngine::build(rsn);
    let query = workload(&group).remove(0);
    let server = MacServer::start(
        engine.clone(),
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            coalescing: true,
            context_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let handles: Vec<_> = (0..16)
        .map(|_| server.submit(query.clone()).unwrap())
        .collect();
    let first = handles[0].wait();
    let first_outcome = first.outcome.as_ref().unwrap();
    for handle in &handles[1..] {
        let response = handle.wait();
        let outcome = response.outcome.as_ref().unwrap();
        assert_results_identical("coalesced waiter", outcome.result(), first_outcome.result());
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 16);
    // At least the requests queued behind the in-flight first execution
    // coalesced; with one worker that is nearly all of them.
    assert!(
        stats.coalesced_joins > 0,
        "no coalescing despite identical in-flight requests: {stats}"
    );
    assert_eq!(
        stats.sessions.served + stats.coalesced_joins,
        stats.submitted
    );
}

/// A deadline of zero burns out in the queue and must come back as an
/// immediate, *valid* partial: an exact prefix (possibly empty) of the full
/// answer, never an error.
#[test]
fn expired_deadlines_degrade_to_valid_partial_prefixes() {
    let (rsn, group) = random_network(45, 120);
    let engine = MacEngine::build(rsn);
    let queries = workload(&group);
    let mut direct = engine.session();
    let server = MacServer::start(
        engine.clone(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    for (i, query) in queries.iter().enumerate() {
        let full = direct.execute(query).unwrap();
        for budget in [
            QueryBudget::new().with_deadline(Duration::ZERO),
            QueryBudget::new().with_work_limit(1),
            QueryBudget::new().with_work_limit(200),
        ] {
            let handle = server.submit_with_budget(query.clone(), budget).unwrap();
            let response = handle.wait();
            match response.outcome.as_ref().unwrap() {
                QueryOutcome::Complete(result) => {
                    assert_results_identical(&format!("query {i} complete"), result, &full);
                }
                QueryOutcome::Partial(partial) => {
                    assert_valid_prefix(&format!("query {i} partial"), &partial.result, &full);
                }
            }
        }
    }
    server.shutdown();
}

/// `try_submit` sheds instead of blocking: against a one-slot queue and one
/// worker, each call of a burst either returns a handle, whose answer equals
/// direct session execution, or `QueueFull`, and the shutdown statistics
/// count every `QueueFull` as shed. Whether any call sheds depends on the
/// worker's timing; the checks hold either way.
#[test]
fn try_submit_answers_or_sheds_against_a_full_queue() {
    let (rsn, group) = random_network(63, 120);
    let engine = MacEngine::build(rsn);
    let queries = workload(&group);
    let mut direct = engine.session();
    let expected: Vec<MacSearchResult> =
        queries.iter().map(|q| direct.execute(q).unwrap()).collect();
    let server = MacServer::start(
        engine,
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            coalescing: false,
            context_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let burst = 24;
    let mut handles = Vec::new();
    let mut full = 0u64;
    for i in 0..burst {
        match server.try_submit(queries[i % queries.len()].clone()) {
            Ok(handle) => handles.push((i % queries.len(), handle)),
            Err(SubmitError::QueueFull) => full += 1,
            Err(err) => panic!("submission {i}: {err}"),
        }
    }
    for (i, handle) in &handles {
        let response = handle.wait();
        let outcome = response
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
        assert_results_identical(&format!("query {i}"), outcome.result(), &expected[*i]);
    }
    let stats = server.shutdown();
    assert_eq!(stats.shed, full);
    assert_eq!(stats.submitted, handles.len() as u64);
    assert_eq!(stats.submitted + stats.shed, burst as u64);
}

/// Shutdown answers everything already accepted: no handle waits forever,
/// no accepted request is dropped.
#[test]
fn shutdown_drains_accepted_requests() {
    let (rsn, group) = random_network(57, 120);
    let engine = MacEngine::build(rsn);
    let queries = workload(&group);
    let server = MacServer::start(
        engine,
        ServeConfig {
            workers: 2,
            queue_capacity: 128,
            ..ServeConfig::default()
        },
    );
    let handles: Vec<_> = (0..32)
        .map(|i| server.submit(queries[i % queries.len()].clone()).unwrap())
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 32);
    for handle in &handles {
        let response = handle.try_get().expect("shutdown resolves every handle");
        assert!(response.outcome.is_ok());
    }
}

/// Serving while an updater thread applies deltas: every response is `Ok`,
/// and every *complete* response equals a fresh execution pinned to the
/// epoch the worker served it on (verified post-hoc for the final epoch's
/// responses, since older epochs are gone).
#[test]
fn serving_stays_correct_under_concurrent_updates() {
    let (rsn, group) = random_network(69, 120);
    let mut edges: Vec<(u32, u32, f64)> = rsn.road().edges().collect();
    let engine = MacEngine::build(rsn);
    let queries = workload(&group);
    let server = MacServer::start(
        engine.clone(),
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            ..ServeConfig::default()
        },
    );

    // Updater: reweight a rotating edge 10 times, ~1ms apart.
    let updater = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for round in 0..10u64 {
                let idx = (round as usize * 7) % edges.len();
                let (u, v, w) = edges[idx];
                let delta = NetworkDelta::new().reweight_edge(u, v, w + 0.5 + round as f64 * 0.1);
                edges[idx].2 = w + 0.5 + round as f64 * 0.1;
                engine.apply_updates(&delta).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let handles: Vec<(usize, _)> = (0..60)
        .map(|i| {
            let q = queries[i % queries.len()].clone();
            (i % queries.len(), server.submit(q).unwrap())
        })
        .collect();
    let mut responses = Vec::new();
    for (qi, handle) in &handles {
        let response = handle.wait();
        assert!(
            response.outcome.is_ok(),
            "response errored under concurrent updates: {:?}",
            response.outcome
        );
        responses.push((*qi, Arc::clone(&response)));
    }
    updater.join().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.sessions.errors, 0);

    // Post-hoc identity for responses served on the final epoch.
    let final_epoch = engine.epoch().id();
    let mut direct = engine.session();
    for (qi, response) in &responses {
        if response.epoch == final_epoch {
            if let Ok(outcome) = &response.outcome {
                if outcome.is_complete() {
                    let fresh = direct.execute(&queries[*qi]).unwrap();
                    assert_results_identical(
                        &format!("final-epoch query {qi}"),
                        outcome.result(),
                        &fresh,
                    );
                }
            }
        }
    }
}
