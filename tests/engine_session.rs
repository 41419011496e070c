//! Session-reuse equivalence: queries executed through one reused
//! [`QuerySession`] (scratch carried across queries, engine-resolved
//! strategies) must return results identical to fresh per-query construction
//! — a new session with fresh scratch on a throwaway engine —
//! across interleaved query shapes, algorithms, filter strategies, and
//! thread-shared engines.

mod common;

use common::assert_results_identical;
use proptest::prelude::*;
use road_social_mac::core::{
    AlgorithmChoice, ExecutionPolicy, MacEngine, MacQuery, MacSearchResult, RoadSocialNetwork,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use road_social_mac::road::RangeFilterChoice;

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
        rsn.with_gtree_index_capacity(16)
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

/// An interleaved query workload: varying |Q| (group and background users),
/// k, t, region width, algorithm, filter strategy, and problem (via j).
fn workload(rsn: &RoadSocialNetwork, group: &[u32], indexed: bool) -> Vec<MacQuery> {
    let n = rsn.num_users() as u32;
    let background: Vec<u32> = (0..n).filter(|v| !group.contains(v)).collect();
    let filters = if indexed {
        vec![
            RangeFilterChoice::Auto,
            RangeFilterChoice::DijkstraSweep,
            RangeFilterChoice::GTreeMultiSeedBatched,
        ]
    } else {
        vec![RangeFilterChoice::Auto, RangeFilterChoice::DijkstraSweep]
    };
    let mut queries = Vec::new();
    for i in 0..10usize {
        let q: Vec<u32> = if i % 3 == 2 {
            // scattered background users: mostly selective / empty answers
            (0..2)
                .map(|j| background[(i * 11 + j * 17) % background.len()])
                .collect()
        } else {
            group.iter().copied().take(1 + i % 3).collect()
        };
        let k = 4 + (i % 3) as u32;
        let t = [25.0, 50.0, 80.0][i % 3];
        let sigma = [0.05, 0.1, 0.15][(i / 3) % 3];
        let algorithm = match i % 4 {
            0 | 1 => AlgorithmChoice::Global,
            2 => AlgorithmChoice::Local,
            _ => AlgorithmChoice::Auto,
        };
        let mut query = MacQuery::new(q, k, t, region_for(sigma))
            .with_algorithm(algorithm)
            .with_range_filter(filters[i % filters.len()]);
        if i % 4 == 1 {
            query = query.with_top_j(2);
        }
        queries.push(query);
    }
    queries
}

/// The fresh per-query construction a reused session must match: a new
/// serial session (fresh scratch, no context cache) on a throwaway engine,
/// with the algorithm made explicit and `Auto` resolved the way the session
/// resolves it under the default policy: `Global`.
fn fresh_reference(rsn: &RoadSocialNetwork, query: &MacQuery) -> MacSearchResult {
    let algorithm = match query.algorithm {
        AlgorithmChoice::Local => AlgorithmChoice::Local,
        _ => AlgorithmChoice::Global,
    };
    fresh(
        rsn,
        &query.clone().with_algorithm(algorithm),
        ExecutionPolicy::new(),
    )
}

/// `query` on a new session of a throwaway engine under `policy`.
fn fresh(rsn: &RoadSocialNetwork, query: &MacQuery, policy: ExecutionPolicy) -> MacSearchResult {
    MacEngine::build_with_policy(rsn.clone(), policy)
        .session()
        .execute(query)
        .unwrap()
}

/// The shared identity check, plus the size of the maximal (k,t)-core.
fn assert_identical_with_core(label: &str, a: &MacSearchResult, b: &MacSearchResult) {
    assert_results_identical(label, a, b);
    assert_eq!(
        a.stats.kt_core_vertices, b.stats.kt_core_vertices,
        "{label}: core size"
    );
}

/// Reduced deterministic grid under the debug profile; the full grid runs in
/// the release CI job (same convention as the range-filter fuzz harness).
const FUZZ_CASES: u32 = if cfg!(debug_assertions) { 3 } else { 10 };

proptest! {
    #![proptest_config(ProptestConfig { cases: FUZZ_CASES, .. ProptestConfig::default() })]

    /// Interleaved queries through ONE reused session return results
    /// identical to fresh per-query construction — on indexed and unindexed
    /// networks.
    #[test]
    fn session_reuse_matches_fresh_construction(seed in 0u64..400) {
        let indexed = seed % 2 == 0;
        let (rsn, group) = random_network(seed, 130, indexed);
        let engine = MacEngine::build(rsn.clone());
        let mut session = engine.session();
        for (i, query) in workload(&rsn, &group, indexed).iter().enumerate() {
            let fresh = fresh_reference(&rsn, query);
            let served = session.execute(query).unwrap();
            assert_identical_with_core(&format!("seed {seed}, query {i}"), &fresh, &served);
        }
    }
}

/// N threads sharing one cloned engine, each with its own session, must all
/// produce the serial reference results.
#[test]
fn threads_sharing_one_engine_match_serial_execution() {
    let (rsn, group) = random_network(42, 130, true);
    let engine = MacEngine::build(rsn.clone());
    let queries = workload(&rsn, &group, true);

    let mut serial_session = engine.session();
    let reference: Vec<MacSearchResult> = queries
        .iter()
        .map(|q| serial_session.execute(q).unwrap())
        .collect();

    const THREADS: usize = 4;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = engine.clone();
                let queries = &queries;
                scope.spawn(move || {
                    let mut session = engine.session();
                    queries
                        .iter()
                        .map(|q| session.execute(q).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let results = handle.join().expect("worker panicked");
            assert_eq!(results.len(), reference.len());
            for (i, (a, b)) in reference.iter().zip(&results).enumerate() {
                assert_identical_with_core(&format!("thread query {i}"), a, b);
            }
        }
    });
}

/// The filter strategy only affects speed, never answers: the explicit
/// multi-seed G-tree walk, the explicit Dijkstra sweep, and the `Auto`
/// resolution all agree end-to-end.
#[test]
fn filter_strategies_agree_end_to_end() {
    let (rsn, group) = random_network(11, 120, true);
    let engine = MacEngine::build(rsn.clone());
    let base = MacQuery::new(
        group.iter().copied().take(2).collect(),
        4,
        60.0,
        region_for(0.15),
    );
    let walk = base
        .clone()
        .with_range_filter(RangeFilterChoice::GTreeMultiSeedBatched);
    let mut session = engine.session();
    let via_walk = session.execute(&walk).unwrap();
    let via_sweep = session
        .execute(
            &base
                .clone()
                .with_range_filter(RangeFilterChoice::DijkstraSweep),
        )
        .unwrap();
    let via_auto = session.execute(&base).unwrap();
    let via_oneshot = fresh(
        &rsn,
        &walk.clone().with_algorithm(AlgorithmChoice::Global),
        ExecutionPolicy::new(),
    );
    assert_identical_with_core("walk vs sweep", &via_walk, &via_sweep);
    assert_identical_with_core("walk vs auto", &via_walk, &via_auto);
    assert_identical_with_core("walk vs one-shot", &via_walk, &via_oneshot);
    // An explicit query-level choice always wins over the Auto cost model.
    let explicit = base.with_range_filter(RangeFilterChoice::DijkstraSweep);
    assert_eq!(
        engine
            .epoch()
            .resolve_filter_with(&explicit, RangeFilterChoice::Auto),
        RangeFilterChoice::DijkstraSweep
    );
}

/// On a (k,t)-core of more than 256 users an `Auto` query answers exactly
/// what an explicit global search answers: `Auto` never switches to the
/// local heuristic, however large the core.
#[test]
fn large_core_auto_query_matches_explicit_global() {
    let (rsn, group) = random_network(23, 300, true);
    let engine = MacEngine::build(rsn);
    // `t` is above every distance, so no user is cut by the range filter.
    let auto_q = MacQuery::new(group[..2].to_vec(), 3, 1e9, region_for(0.05));
    let global_q = auto_q.clone().with_algorithm(AlgorithmChoice::Global);
    let auto = engine.session().execute(&auto_q).unwrap();
    let global = engine.session().execute(&global_q).unwrap();
    assert!(
        global.stats.kt_core_vertices > 256,
        "core of {} users is too small to pin a large-core Auto query",
        global.stats.kt_core_vertices
    );
    assert!(!global.cells.is_empty());
    assert_identical_with_core("large-core Auto vs Global", &global, &auto);
}

/// The engine → session → query policy layering: an engine-level
/// [`ExecutionPolicy`] seeds every session, a session-level `with_policy`
/// replaces it, and an explicit query-level choice still wins over both.
#[test]
fn execution_policy_layers_engine_session_query() {
    let (rsn, group) = random_network(31, 120, true);
    // Engine-level: default every Auto query to the local framework.
    let policy = ExecutionPolicy::new()
        .with_algorithm(AlgorithmChoice::Local)
        .with_max_candidates(20);
    let engine = MacEngine::build_with_policy(rsn.clone(), policy);
    assert_eq!(engine.policy().algorithm, AlgorithmChoice::Local);
    let mut session = engine.session();
    assert_eq!(session.policy().max_candidates, 20);

    // A query left at Auto resolves through the policy default (Local here),
    // matching an explicitly Local query with the same candidate budget.
    let region = region_for(0.1);
    let auto_q = MacQuery::new(group[..2].to_vec(), 4, 50.0, region.clone());
    let local_q = auto_q.clone().with_algorithm(AlgorithmChoice::Local);
    let via_policy = session.execute(&auto_q).unwrap();
    let reference = fresh(
        &rsn,
        &local_q,
        ExecutionPolicy::new().with_max_candidates(20),
    );
    assert_identical_with_core("policy-default Local", &via_policy, &reference);

    // Query-level choice wins over the policy default.
    let global_q = auto_q.clone().with_algorithm(AlgorithmChoice::Global);
    let via_query = session.execute(&global_q).unwrap();
    let gs_reference = fresh(&rsn, &global_q, ExecutionPolicy::new());
    assert_identical_with_core("query overrides policy", &via_query, &gs_reference);

    // Session-level with_policy replaces the engine's policy wholesale.
    let mut overridden = engine
        .session()
        .with_policy(ExecutionPolicy::new().with_parallelism(2));
    assert_eq!(overridden.policy().algorithm, AlgorithmChoice::Auto);
    assert_eq!(overridden.policy().parallelism, 2);
    let parallel = overridden.execute(&global_q).unwrap();
    assert_identical_with_core("parallel session ≡ serial", &parallel, &gs_reference);
}
