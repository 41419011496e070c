//! Deadline-aware serving: cooperative cancellation and graceful
//! degradation. A budgeted query must never panic and never return a bare
//! error on exhaustion — it degrades to [`QueryOutcome::Partial`] whose
//! cells are an exact prefix of the full run's answer — and an interrupted
//! session must stay clean: the next unbudgeted query through the same
//! session returns results cell-identical to a fresh session.

mod common;

use common::{assert_results_identical, assert_valid_prefix};
use proptest::prelude::*;
use road_social_mac::core::{
    AlgorithmChoice, ExhaustionCause, MacEngine, MacError, MacQuery, QueryBudget, QueryOutcome,
    RoadSocialNetwork,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    PrefRegion::from_ranges(&[(0.28, 0.38), (0.28, 0.38)]).unwrap()
}

/// A small mixed workload: global, local, and top-j queries from the planted
/// group.
fn workload(group: &[u32]) -> Vec<MacQuery> {
    let q2: Vec<u32> = group.iter().copied().take(2).collect();
    vec![
        MacQuery::new(vec![group[0]], 4, 50.0, region()),
        MacQuery::new(q2.clone(), 5, 50.0, region()).with_top_j(2),
        MacQuery::new(q2, 4, 80.0, region()).with_algorithm(AlgorithmChoice::Local),
    ]
}

/// A zero deadline must trip on the very first budget check of every query —
/// on indexed and unindexed networks, across all three algorithms — and
/// still return gracefully, never panic.
#[test]
fn zero_deadline_degrades_to_partial_without_panicking() {
    for indexed in [true, false] {
        let (rsn, group) = random_network(3, 120, indexed);
        let engine = MacEngine::build(rsn);
        let mut session = engine.session();
        let budget = QueryBudget::new().with_deadline(Duration::ZERO);
        for (i, query) in workload(&group).iter().enumerate() {
            let outcome = session.execute_with_budget(query, &budget).unwrap();
            let QueryOutcome::Partial(partial) = outcome else {
                panic!("indexed={indexed}, query {i}: zero deadline must be partial");
            };
            assert_eq!(partial.cause, ExhaustionCause::Deadline);
            assert!(
                partial.result.cells.is_empty(),
                "nothing can complete under a zero deadline"
            );
        }
    }
}

/// An unlimited budget routes through the exact path: always `Complete`,
/// results identical to plain `execute`.
#[test]
fn unlimited_budget_is_complete_and_identical() {
    let (rsn, group) = random_network(5, 120, true);
    let engine = MacEngine::build(rsn);
    let mut reference = engine.session();
    let mut budgeted = engine.session();
    assert!(QueryBudget::new().is_unlimited());
    for (i, query) in workload(&group).iter().enumerate() {
        let expect = reference.execute(query).unwrap();
        let outcome = budgeted
            .execute_with_budget(query, &QueryBudget::new())
            .unwrap();
        let QueryOutcome::Complete(got) = outcome else {
            panic!("query {i}: unlimited budget must complete");
        };
        assert_results_identical(&format!("unlimited, query {i}"), &expect, &got);
    }
}

/// An *armed* but generous budget (finite work limit and deadline, so the
/// polling machinery actually runs) must also complete with identical
/// results — budget polling must never change an answer.
#[test]
fn armed_generous_budget_matches_unbudgeted_results() {
    let (rsn, group) = random_network(7, 120, true);
    let engine = MacEngine::build(rsn);
    let mut reference = engine.session();
    let mut budgeted = engine.session();
    let budget = QueryBudget::new()
        .with_work_limit(u64::MAX)
        .with_deadline(Duration::from_secs(3600));
    assert!(!budget.is_unlimited());
    for (i, query) in workload(&group).iter().enumerate() {
        let expect = reference.execute(query).unwrap();
        let outcome = budgeted.execute_with_budget(query, &budget).unwrap();
        let QueryOutcome::Complete(got) = outcome else {
            panic!("query {i}: generous budget must complete");
        };
        assert_results_identical(&format!("armed, query {i}"), &expect, &got);
    }
}

/// A pre-set cancel flag stops the query at its first budget check with
/// `ExhaustionCause::Cancelled` — and clearing the flag restores service on
/// the same session.
#[test]
fn preset_cancel_flag_stops_the_query_cooperatively() {
    let (rsn, group) = random_network(11, 120, true);
    let engine = MacEngine::build(rsn);
    let mut session = engine.session();
    let query = &workload(&group)[0];
    let flag = Arc::new(AtomicBool::new(true));
    let budget = QueryBudget::new().with_cancel_flag(Arc::clone(&flag));
    let outcome = session.execute_with_budget(query, &budget).unwrap();
    let QueryOutcome::Partial(partial) = outcome else {
        panic!("pre-set cancel flag must degrade to partial");
    };
    assert_eq!(partial.cause, ExhaustionCause::Cancelled);
    // Clear the flag: the same session and the same budget now complete.
    flag.store(false, Ordering::Relaxed);
    let outcome = session.execute_with_budget(query, &budget).unwrap();
    let expect = engine.session().execute(query).unwrap();
    assert_results_identical("after un-cancel", &expect, outcome.result());
    assert!(outcome.is_complete());
}

/// A caller that treats exhaustion as a failure (to retry with a bigger
/// budget rather than serve a truncated answer) matches on the outcome: an
/// exhausted work limit is a `Partial` naming its cause, a generous one a
/// `Complete` exact answer.
#[test]
fn exhausted_work_limit_is_a_partial_naming_its_cause() {
    let (rsn, group) = random_network(13, 120, true);
    let engine = MacEngine::build(rsn);
    let mut session = engine.session();
    let query = &workload(&group)[0];
    let outcome = session
        .execute_with_budget(query, &QueryBudget::new().with_work_limit(1))
        .unwrap();
    assert!(matches!(
        outcome,
        QueryOutcome::Partial(ref partial) if partial.cause == ExhaustionCause::WorkLimit
    ));
    // A generous budget still answers exactly.
    let outcome = session
        .execute_with_budget(query, &QueryBudget::new().with_work_limit(u64::MAX))
        .unwrap();
    let QueryOutcome::Complete(got) = outcome else {
        panic!("a generous budget must complete");
    };
    let expect = engine.session().execute(query).unwrap();
    assert_results_identical("generous complete", &expect, &got);
}

/// A budgeted batch — one `execute_with_budget` call per slot — keeps
/// serving past a per-query failure: the invalid query records its error in
/// place, every other slot is served.
#[test]
fn budgeted_batch_keeps_going_past_an_invalid_query() {
    let (rsn, group) = random_network(17, 120, true);
    let engine = MacEngine::build(rsn);
    let mut session = engine.session();
    let good = workload(&group);
    let mut invalid = good[0].clone();
    invalid.q.clear();
    let queries = [good[0].clone(), invalid, good[1].clone()];
    let budget = QueryBudget::new().with_work_limit(u64::MAX);
    let outcomes: Vec<_> = queries
        .iter()
        .map(|query| session.execute_with_budget(query, &budget))
        .collect();
    assert_eq!(outcomes.len(), 3);
    assert_eq!(session.stats().served, 2);
    assert_eq!(session.stats().errors, 1);
    assert!(matches!(outcomes[1], Err(MacError::EmptyQuery)));
    let expect0 = engine.session().execute(&good[0]).unwrap();
    let expect2 = engine.session().execute(&good[1]).unwrap();
    assert_results_identical(
        "batch slot 0",
        &expect0,
        outcomes[0].as_ref().unwrap().result(),
    );
    assert_results_identical(
        "batch slot 2",
        &expect2,
        outcomes[2].as_ref().unwrap().result(),
    );
}

/// Reduced deterministic grid under the debug profile; the full grid runs in
/// the release CI job (same convention as the other proptest harnesses).
const FUZZ_CASES: u32 = if cfg!(debug_assertions) { 8 } else { 40 };

proptest! {
    #![proptest_config(ProptestConfig { cases: FUZZ_CASES, .. ProptestConfig::default() })]

    /// Cancellation safety at an arbitrary tick: for any work limit, on
    /// indexed and unindexed networks,
    /// 1. the budgeted run never panics and never errors;
    /// 2. a partial answer is an exact prefix of the full run's answer
    ///    (degradation monotonicity), and a complete answer IS the full
    ///    answer;
    /// 3. the interrupted session is left clean — the next *unbudgeted*
    ///    query through the same session is cell-identical to a fresh
    ///    session.
    #[test]
    fn interrupted_sessions_stay_clean_and_partials_are_prefixes(limit in 1u64..60_000) {
        let indexed = limit % 2 == 0;
        let (rsn, group) = random_network(29, 120, indexed);
        let engine = MacEngine::build(rsn);
        let queries = workload(&group);
        let mut session = engine.session();
        for (i, query) in queries.iter().enumerate() {
            let full = engine.session().execute(query).unwrap();
            let outcome = session
                .execute_with_budget(query, &QueryBudget::new().with_work_limit(limit))
                .unwrap();
            match outcome {
                QueryOutcome::Complete(got) => {
                    assert_results_identical(
                        &format!("limit {limit}, query {i}, complete"),
                        &full,
                        &got,
                    );
                }
                QueryOutcome::Partial(partial) => {
                    prop_assert_eq!(partial.cause, ExhaustionCause::WorkLimit);
                    assert_valid_prefix(
                        &format!("limit {limit}, query {i}, partial"),
                        &partial.result,
                        &full,
                    );
                }
            }
            // Session-clean invariant: the interrupted scratch must not leak
            // into the next query.
            let after = session.execute(query).unwrap();
            assert_results_identical(
                &format!("limit {limit}, query {i}, session-clean"),
                &full,
                &after,
            );
        }
    }
}
