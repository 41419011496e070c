//! Fault-injected update hardening (requires `--features failpoints`): a
//! forced error — or a forced panic — at **every** stage of
//! [`MacEngine::apply_updates`] must leave the engine serving a consistent
//! state: the epoch is either the old one or the new one, never torn, and
//! queries against it are identical to a clean engine built directly on that
//! state. After the fault clears, the same delta must land normally even
//! when the injected panic poisoned the engine's locks.

#![cfg(feature = "failpoints")]

mod common;

use common::assert_results_identical;
use road_social_mac::core::{
    MacEngine, MacError, MacQuery, MacSearchResult, NetworkDelta, RoadSocialNetwork, UpdateStage,
};
use road_social_mac::geom::PrefRegion;
use road_social_mac::graph::graph::Graph;
use road_social_mac::road::network::{Location, RoadNetwork};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The test network in either its pre-delta (`updated = false`) or
/// post-delta (`updated = true`) state, built from scratch — the clean
/// reference a fault-surviving engine must be query-identical to.
fn network(updated: bool, indexed: bool) -> RoadSocialNetwork {
    let social = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
    let w01 = if updated { 5.0 } else { 1.0 };
    let road = RoadNetwork::from_edges(4, &[(0, 1, w01), (1, 2, 1.0), (2, 3, 10.0)]);
    let loc5 = if updated {
        Location::vertex(1)
    } else {
        Location::vertex(3)
    };
    let locations = vec![
        Location::vertex(0),
        Location::vertex(0),
        Location::vertex(1),
        Location::vertex(3),
        Location::vertex(3),
        loc5,
    ];
    let attrs = vec![vec![1.0, 1.0]; 6];
    let rsn = RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
    if indexed {
        rsn.with_gtree_index_capacity(4)
    } else {
        rsn
    }
}

/// The delta taking the old state to the new one. The reweight flips the
/// query answer (vertex 1 moves out of user 0's t-ball), so old-epoch and
/// new-epoch results are distinguishable; the user move exercises the
/// leaf-edit stage.
fn delta() -> NetworkDelta {
    NetworkDelta::new()
        .reweight_edge(0, 1, 5.0)
        .move_user(5, Location::vertex(1))
}

fn queries() -> Vec<MacQuery> {
    let region = PrefRegion::from_ranges(&[(0.2, 0.4)]).unwrap();
    vec![
        MacQuery::new(vec![0], 2, 2.0, region.clone()),
        MacQuery::new(vec![3, 4], 2, 12.0, region).with_top_j(2),
    ]
}

fn serve(engine: &MacEngine) -> Vec<MacSearchResult> {
    let mut session = engine.session();
    queries()
        .iter()
        .map(|q| session.execute(q).unwrap())
        .collect()
}

/// [`assert_results_identical`] on every query of two served workloads.
fn assert_all_identical(label: &str, a: &[MacSearchResult], b: &[MacSearchResult]) {
    assert_eq!(a.len(), b.len(), "{label}: query count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_results_identical(&format!("{label}: query {i}"), ra, rb);
    }
}

/// Asserts the engine serves exactly the clean old state or the clean new
/// state — never anything in between — and returns which.
fn assert_consistent(label: &str, engine: &MacEngine, indexed: bool) -> bool {
    let epoch = engine.epoch().id();
    let updated = match epoch {
        0 => false,
        1 => true,
        other => panic!("{label}: unexpected epoch {other}"),
    };
    let clean = MacEngine::build(network(updated, indexed));
    assert_all_identical(label, &serve(&clean), &serve(engine));
    updated
}

/// The two epochs really answer differently — otherwise the consistency
/// checks above could not distinguish a torn state.
#[test]
fn the_delta_changes_query_answers() {
    let old = serve(&MacEngine::build(network(false, true)));
    let new = serve(&MacEngine::build(network(true, true)));
    assert_ne!(
        old[0]
            .cells
            .iter()
            .map(|c| c
                .communities
                .iter()
                .map(|m| &m.vertices)
                .collect::<Vec<_>>())
            .collect::<Vec<_>>(),
        new[0]
            .cells
            .iter()
            .map(|c| c
                .communities
                .iter()
                .map(|m| &m.vertices)
                .collect::<Vec<_>>())
            .collect::<Vec<_>>(),
    );
}

/// An injected *error* at every stage rejects the delta cleanly: the old
/// epoch keeps serving, and after clearing the hook the delta lands and the
/// engine equals a clean rebuild on the new state.
#[test]
fn injected_errors_at_every_stage_leave_the_engine_consistent() {
    for indexed in [true, false] {
        for stage in UpdateStage::ALL {
            let label = format!("error @ {} (indexed={indexed})", stage.name());
            let engine = MacEngine::build(network(false, indexed));
            engine.set_failpoint(move |s| {
                if s == stage {
                    Err(MacError::InconsistentNetwork(format!(
                        "injected fault at {}",
                        s.name()
                    )))
                } else {
                    Ok(())
                }
            });
            let err = engine.apply_updates(&delta()).unwrap_err();
            assert!(
                err.to_string().contains(stage.name()),
                "{label}: fault not surfaced: {err}"
            );
            let updated = assert_consistent(&label, &engine, indexed);
            assert!(!updated, "{label}: a rejected delta must not land");
            // Fault cleared: the same delta lands and serves the new state.
            engine.clear_failpoint();
            let stats = engine.apply_updates(&delta()).unwrap();
            assert_eq!(stats.epoch, 1, "{label}: retry must advance the epoch");
            let updated = assert_consistent(&format!("{label}, after retry"), &engine, indexed);
            assert!(updated, "{label}: retried delta must serve the new state");
        }
    }
}

/// An injected *panic* at every stage — including one that fires while the
/// epoch write lock is held (the swap stage), poisoning it — must leave the
/// engine serving a consistent state, and the poison-recovering accessors
/// must let a retried delta land.
#[test]
fn injected_panics_at_every_stage_leave_the_engine_consistent() {
    for indexed in [true, false] {
        for stage in UpdateStage::ALL {
            let label = format!("panic @ {} (indexed={indexed})", stage.name());
            let engine = MacEngine::build(network(false, indexed));
            engine.set_failpoint(move |s| {
                if s == stage {
                    panic!("injected panic at {}", s.name());
                }
                Ok(())
            });
            let unwound = catch_unwind(AssertUnwindSafe(|| engine.apply_updates(&delta())));
            assert!(unwound.is_err(), "{label}: the injected panic must unwind");
            // Every stage fires before the epoch store, so the old epoch
            // must still be served — by existing handles and new sessions
            // alike, even through poisoned locks.
            let updated = assert_consistent(&label, &engine, indexed);
            assert!(!updated, "{label}: a panicked update must not land");
            // Fault cleared: the delta lands despite the poisoned locks.
            engine.clear_failpoint();
            let stats = engine.apply_updates(&delta()).unwrap();
            assert_eq!(stats.epoch, 1, "{label}: retry must advance the epoch");
            let updated = assert_consistent(&format!("{label}, after retry"), &engine, indexed);
            assert!(updated, "{label}: retried delta must serve the new state");
        }
    }
}

/// A transient fault (fails once, then heals) needs no explicit clear: the
/// caller's retry goes through with the hook still installed.
#[test]
fn transient_faults_recover_on_retry_without_clearing() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let engine = MacEngine::build(network(false, true));
    let tripped = Arc::new(AtomicBool::new(false));
    let hook_tripped = Arc::clone(&tripped);
    engine.set_failpoint(move |s| {
        if s == UpdateStage::GTreeRefresh && !hook_tripped.swap(true, Ordering::Relaxed) {
            return Err(MacError::InconsistentNetwork("transient fault".into()));
        }
        Ok(())
    });
    assert!(engine.apply_updates(&delta()).is_err());
    assert_eq!(engine.epoch().id(), 0);
    let stats = engine.apply_updates(&delta()).unwrap();
    assert_eq!(stats.epoch, 1);
    assert!(assert_consistent("transient retry", &engine, true));
}

/// A panic escaping query execution is contained by the session guard: it
/// surfaces as `MacError::ExecutionPanicked`, the scratch is rebuilt, and
/// the very next query through the same session serves normally — identical
/// to a fresh session. The engine and its other sessions are untouched.
#[test]
fn query_panics_are_contained_and_the_session_recovers() {
    let engine = MacEngine::build(network(false, true));
    let reference = serve(&engine);
    let mut session = engine.session();
    for (i, query) in queries().iter().enumerate() {
        // Warm the scratch, then panic mid-query, then serve again.
        session.execute(query).unwrap();
        session.inject_panic_on_next_query();
        let err = session.execute(query).unwrap_err();
        match err {
            MacError::ExecutionPanicked(msg) => {
                assert!(msg.contains("injected query panic"), "payload: {msg}")
            }
            other => panic!("expected ExecutionPanicked, got {other:?}"),
        }
        let again = session.execute(query).unwrap();
        assert_results_identical(&format!("post-panic query {i}"), &reference[i], &again);
    }
    // Budgeted paths are guarded too.
    use road_social_mac::core::QueryBudget;
    session.inject_panic_on_next_query();
    let err = session
        .execute_with_budget(&queries()[0], &QueryBudget::new().with_work_limit(u64::MAX))
        .unwrap_err();
    assert!(matches!(err, MacError::ExecutionPanicked(_)));
    // The engine itself never noticed.
    assert_eq!(engine.epoch().id(), 0);
    assert_all_identical("engine unaffected", &reference, &serve(&engine));
}

#[test]
fn update_stages_are_ordered_and_named() {
    let names: Vec<&str> = UpdateStage::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(names, ["validate", "gtree-refresh", "leaf-edits", "swap"]);
    for (i, &stage) in UpdateStage::ALL.iter().enumerate() {
        assert_eq!(stage as usize, i, "{} out of order", stage.name());
    }
}
