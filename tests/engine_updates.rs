//! Dynamic-update equivalence: an engine mutated through
//! [`MacEngine::apply_updates`] (incremental G-tree matrix refresh,
//! incremental per-leaf user-target maintenance, epoch swap) must be
//! **query-identical** to an engine rebuilt from scratch on the post-update
//! network — across randomized sequences of edge reweights and user churn,
//! on indexed and unindexed networks, for plain execution, top-j, and batch
//! serving.
//!
//! The rebuilt reference is constructed from independently tracked shadow
//! state (an edge list and a location vector the test mutates itself), so a
//! bug in the engine's own mutation path cannot leak into the reference.

mod common;

use common::assert_results_identical;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use road_social_mac::core::{
    AlgorithmChoice, MacEngine, MacQuery, MacSearchResult, NetworkDelta, RoadSocialNetwork,
    UpdateStage,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use road_social_mac::road::{sssp, Location, RangeFilterChoice, RoadNetwork};

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

/// The serving workload every epoch is checked with: group and background
/// queries with varying |Q|, k, t, filter strategy, and problem (via j).
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
    for i in 0..6usize {
        let q: Vec<u32> = if i % 3 == 2 {
            (0..2)
                .map(|j| background[(i * 11 + j * 17) % background.len()])
                .collect()
        } else {
            group.iter().copied().take(1 + i % 3).collect()
        };
        let k = 4 + (i % 2) as u32;
        let t = [30.0, 55.0, 85.0][i % 3];
        let mut query = MacQuery::new(q, k, t, region_for(0.1))
            .with_algorithm(AlgorithmChoice::Global)
            .with_range_filter(filters[i % filters.len()]);
        if i % 3 == 1 {
            query = query.with_top_j(2);
        }
        queries.push(query);
    }
    queries
}

/// The shared identity check, plus the size of the maximal (k,t)-core.
fn assert_identical_with_core(label: &str, a: &MacSearchResult, b: &MacSearchResult) {
    assert_results_identical(label, a, b);
    assert_eq!(
        a.stats.kt_core_vertices, b.stats.kt_core_vertices,
        "{label}: core size"
    );
}

/// One randomized update batch against independently tracked shadow state:
/// edge reweights first (never shrinking an edge below a resident on-edge
/// user's offset — the engine would rightly reject that), then user moves to
/// random vertex or on-edge locations.
fn random_delta(
    rng: &mut StdRng,
    edges: &mut [(u32, u32, f64)],
    locations: &mut [Location],
) -> NetworkDelta {
    let mut delta = NetworkDelta::new();
    for _ in 0..rng.random_range(1..5usize) {
        let idx = rng.random_range(0..edges.len());
        let (u, v, _) = edges[idx];
        // The smallest weight that keeps every resident on-edge user valid.
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

/// Reduced deterministic grid under the debug profile; the full grid runs in
/// the release CI job (same convention as the other fuzz harnesses).
const FUZZ_CASES: u32 = if cfg!(debug_assertions) { 3 } else { 8 };

proptest! {
    #![proptest_config(ProptestConfig { cases: FUZZ_CASES, .. ProptestConfig::default() })]

    /// Randomized edge-reweight + user-churn sequences: after every applied
    /// delta, the long-lived engine (one session, scratch carried across
    /// epochs) answers every workload query — plain, top-j, and batched —
    /// identically to an engine built from scratch on shadow-tracked
    /// post-update state.
    #[test]
    fn updated_engine_is_query_identical_to_scratch_rebuild(seed in 0u64..400) {
        let indexed = seed % 2 == 0;
        let (rsn0, group) = random_network(seed, 120, indexed);
        let n_road = rsn0.road().num_vertices();
        let social = rsn0.social().clone();
        let attrs = rsn0.all_attributes().to_vec();
        // Shadow state the reference is rebuilt from, mutated independently.
        let mut edges: Vec<(u32, u32, f64)> = rsn0.road().edges().collect();
        let mut locations: Vec<Location> = rsn0.locations().to_vec();

        let engine = MacEngine::build(rsn0.clone());
        let mut session = engine.session();
        let queries = workload(&rsn0, &group, indexed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);

        for batch in 0..3u64 {
            let delta = random_delta(&mut rng, &mut edges, &mut locations);
            let stats = engine.apply_updates(&delta).unwrap();
            prop_assert_eq!(stats.epoch, batch + 1);
            prop_assert_eq!(stats.edges_reweighted, delta.edge_updates.len());
            prop_assert_eq!(stats.users_moved, delta.user_moves.len());
            if indexed {
                let gstats = stats.gtree.expect("indexed engine reports G-tree stats");
                prop_assert!(gstats.dirty_leaves + gstats.dirty_internal <= gstats.total_nodes);
                prop_assert_eq!(
                    stats.user_targets_refreshed >= delta.user_moves.len(),
                    true
                );
            } else {
                prop_assert!(stats.gtree.is_none());
            }

            let rebuilt = RoadSocialNetwork::new(
                social.clone(),
                RoadNetwork::from_edges(n_road, &edges),
                locations.clone(),
                attrs.clone(),
            )
            .unwrap();
            let rebuilt = if indexed {
                rebuilt.with_gtree_index_capacity(GTREE_LEAF_CAPACITY)
            } else {
                rebuilt
            };
            let reference = MacEngine::build(rebuilt);
            let mut reference_session = reference.session();

            for (i, query) in queries.iter().enumerate() {
                let label = format!("seed {seed}, batch {batch}, query {i}");
                let updated = session.execute(query).unwrap();
                let fresh = reference_session.execute(query).unwrap();
                assert_identical_with_core(&label, &updated, &fresh);
                if query.j > 1 {
                    // Problem 2 on the same query: the non-contained MAC.
                    let nc = query.clone().with_top_j(1);
                    let updated_nc = session.execute(&nc).unwrap();
                    let fresh_nc = reference_session.execute(&nc).unwrap();
                    assert_identical_with_core(
                        &format!("{label} (non-contained)"),
                        &updated_nc,
                        &fresh_nc,
                    );
                }
            }
            // Batch serving through the mutated engine equals the rebuilt
            // engine's batch, query by query.
            let updated_batch = session.execute_batch(&queries).unwrap();
            let fresh_batch = reference_session.execute_batch(&queries).unwrap();
            prop_assert_eq!(updated_batch.results.len(), fresh_batch.results.len());
            for (i, (a, b)) in updated_batch
                .results
                .iter()
                .zip(&fresh_batch.results)
                .enumerate()
            {
                assert_identical_with_core(
                    &format!("seed {seed}, batch {batch}, batched query {i}"),
                    a,
                    b,
                );
            }
        }
    }
}

/// A session opened before any update keeps serving across epochs with its
/// scratch intact, and pinned epochs stay immutable: results taken through
/// the old epoch's engine clone before the swap match a scratch rebuild of
/// the *old* network even while the updated engine serves the new one.
#[test]
fn sessions_span_epochs_and_pinned_epochs_stay_consistent() {
    let (rsn0, group) = random_network(9, 120, true);
    let engine = MacEngine::build(rsn0.clone());
    let mut session = engine.session();
    let queries = workload(&rsn0, &group, true);

    // Results on epoch 0, through the session that will outlive the update.
    let before: Vec<MacSearchResult> = queries
        .iter()
        .map(|q| session.execute(q).unwrap())
        .collect();
    let epoch0 = engine.epoch();

    let delta = NetworkDelta::new()
        .reweight_edge(
            rsn0.road().edges().next().unwrap().0,
            rsn0.road().edges().next().unwrap().1,
            7.5,
        )
        .move_user(group[0], Location::vertex(0));
    let stats = engine.apply_updates(&delta).unwrap();
    assert_eq!(stats.epoch, 1);
    assert_eq!(engine.epoch().id(), 1);

    // The pinned epoch-0 snapshot still answers like the original network.
    // Its G-tree shares every node the refresh left alone with epoch 1; the
    // nodes the refresh rewrote must have been copied, not edited in place.
    assert_eq!(epoch0.id(), 0);
    let tree0 = epoch0.network().gtree().expect("indexed network");
    let epoch1 = engine.epoch();
    let tree1 = epoch1.network().gtree().expect("indexed network");
    let n = rsn0.road().num_vertices() as u32;
    let mut moved = 0usize;
    for s in (0..n).step_by(7) {
        let exact = sssp(rsn0.road(), s);
        for t in (0..n).step_by(3) {
            let d = tree0.dist(s, t);
            assert!(
                d == exact[t as usize] || (d - exact[t as usize]).abs() < 1e-9,
                "pinned epoch-0 G-tree drifted at {s}->{t}: {d} vs {}",
                exact[t as usize]
            );
            moved += usize::from((tree1.dist(s, t) - exact[t as usize]).abs() > 1e-9);
        }
    }
    assert!(moved > 0, "the reweight must change some sampled distance");
    // A fresh engine on the unmodified network agrees with `before`.
    let unmodified = MacEngine::build(rsn0.clone());
    let mut unmodified_session = unmodified.session();
    for (i, query) in queries.iter().enumerate() {
        let a = unmodified_session.execute(query).unwrap();
        assert_identical_with_core(&format!("epoch-0 query {i}"), &a, &before[i]);
    }

    // The surviving session serves epoch 1 and matches a scratch rebuild.
    let new_epoch = engine.epoch();
    let rebuilt = RoadSocialNetwork::new(
        new_epoch.network().social().clone(),
        new_epoch.network().road().clone(),
        new_epoch.network().locations().to_vec(),
        new_epoch.network().all_attributes().to_vec(),
    )
    .unwrap()
    .with_gtree_index_capacity(GTREE_LEAF_CAPACITY);
    let reference = MacEngine::build(rebuilt);
    let mut reference_session = reference.session();
    for (i, query) in queries.iter().enumerate() {
        let a = session.execute(query).unwrap();
        let b = reference_session.execute(query).unwrap();
        assert_identical_with_core(&format!("epoch-1 query {i}"), &a, &b);
    }
    assert!(session.queries_executed() >= 2 * queries.len() as u64);
}

/// Threads serving through one shared engine while the main thread applies
/// deltas: every executed query must be internally consistent (it pins one
/// epoch), and after the updates settle all threads see the final network.
#[test]
fn concurrent_serving_during_updates_settles_on_the_final_epoch() {
    let (rsn0, group) = random_network(31, 120, true);
    let engine = MacEngine::build(rsn0.clone());
    let queries = workload(&rsn0, &group, true);
    let deltas: Vec<NetworkDelta> = (0..4)
        .map(|i| {
            let (u, v, w) = rsn0.road().edges().nth(i * 3).unwrap();
            NetworkDelta::new()
                .reweight_edge(u, v, w * (1.0 + (i as f64 + 1.0) * 0.5))
                .move_user(group[i], Location::vertex((i * 2) as u32))
        })
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let engine = engine.clone();
            let queries = &queries;
            scope.spawn(move || {
                let mut session = engine.session();
                for _ in 0..4 {
                    for query in queries {
                        // No result assertion across epochs — only that every
                        // pinned-epoch execution succeeds while deltas land.
                        session.execute(query).unwrap();
                    }
                }
            });
        }
        for delta in &deltas {
            engine.apply_updates(delta).unwrap();
        }
    });

    assert_eq!(engine.epoch().id(), deltas.len() as u64);
    // After the churn settles, serving matches a scratch rebuild.
    let epoch = engine.epoch();
    let rebuilt = RoadSocialNetwork::new(
        epoch.network().social().clone(),
        epoch.network().road().clone(),
        epoch.network().locations().to_vec(),
        epoch.network().all_attributes().to_vec(),
    )
    .unwrap()
    .with_gtree_index_capacity(GTREE_LEAF_CAPACITY);
    let reference = MacEngine::build(rebuilt);
    let mut reference_session = reference.session();
    let mut session = engine.session();
    for (i, query) in queries.iter().enumerate() {
        let a = session.execute(query).unwrap();
        let b = reference_session.execute(query).unwrap();
        assert_identical_with_core(&format!("settled query {i}"), &a, &b);
    }
}

/// `stage_seconds` splits an update's wall time over the four stages: no
/// stage is negative, together they fit in `elapsed_seconds` (which also
/// counts the wait for the update lock), and a delta that only moves users
/// skips the G-tree refresh.
#[test]
fn update_stage_times_fit_in_the_elapsed_time() {
    let (rsn, group) = random_network(19, 400, true);
    let engine = MacEngine::build(rsn);
    let (u, v, w) = engine.epoch().network().road().edges().nth(5).unwrap();
    let reweight = engine
        .apply_updates(&NetworkDelta::new().reweight_edge(u, v, w * 2.0))
        .unwrap();
    let moved = engine
        .apply_updates(&NetworkDelta::new().move_user(group[0], Location::vertex(3)))
        .unwrap();
    for (name, stats) in [("reweight", &reweight), ("move", &moved)] {
        assert!(
            stats.stage_seconds.iter().all(|&s| s >= 0.0),
            "{name}: {:?}",
            stats.stage_seconds
        );
        let total: f64 = stats.stage_seconds.iter().sum();
        // A nanosecond of slack: each stage is rounded to f64 on its own.
        assert!(
            total <= stats.elapsed_seconds + 1e-9,
            "{name}: stages sum to {total} s of {} s",
            stats.elapsed_seconds
        );
    }
    assert_eq!(reweight.stage_seconds.len(), 4);
    let refresh = UpdateStage::GTreeRefresh as usize;
    assert!(reweight.stage_seconds[refresh] > 0.0);
    assert_eq!(moved.stage_seconds[refresh], 0.0);
}

// ---------------------------------------------------------------------------
// Allocation accounting: the epoch copy must be copy-on-write.
// ---------------------------------------------------------------------------

/// Counts heap allocations made by the current thread. Only `alloc` is
/// tracked — the test compares deltas, so frees are irrelevant — and the
/// thread-local counter keeps other test threads out of the measurement.
struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        // `try_with` so allocations during TLS teardown never panic.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;

fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// A small user-churn delta must copy only the touched leaves of the grouped
/// per-leaf seed rows, not the epoch's network or index: the social graph,
/// road network, attribute table, and G-tree matrices are Arc-shared between
/// epochs, and the per-leaf rows are Arc'd vectors edited copy-on-write. A
/// deep epoch clone on this network costs thousands of allocations (600
/// attribute vectors alone); the copy-on-write path stays under a couple
/// hundred.
#[test]
fn user_churn_delta_allocation_budget() {
    let (rsn, group) = random_network(13, 600, true);
    let engine = MacEngine::build(rsn);
    // Warm up: the first delta faults in lazy one-time state.
    engine
        .apply_updates(&NetworkDelta::new().move_user(group[0], Location::vertex(3)))
        .unwrap();

    let before = thread_allocations();
    engine
        .apply_updates(&NetworkDelta::new().move_user(group[0], Location::vertex(9)))
        .unwrap();
    let spent = thread_allocations() - before;
    assert!(
        spent < 200,
        "one-user-move delta allocated {spent} times — the epoch copy is \
         deep-cloning shared state instead of Arc-sharing it"
    );
}

/// A one-edge reweight must copy only the G-tree nodes its refresh
/// recomputes. Each node sits behind its own `Arc`, so the epoch copy
/// shares the rest. The budget grows with the refresh's dirty-node count,
/// not with the tree size. A tree deep-cloned per delta costs about ten
/// allocations per node (its index vectors), which this network's
/// hundreds of nodes push far past the budget.
#[test]
fn reweight_delta_allocation_budget() {
    let (rsn, _) = random_network(17, 3000, true);
    let tree_nodes = rsn.gtree().expect("indexed network").num_nodes();
    let engine = MacEngine::build(rsn);
    // Warm up: the first delta faults in lazy one-time state.
    let (u, v, w) = engine.epoch().network().road().edges().nth(10).unwrap();
    engine
        .apply_updates(&NetworkDelta::new().reweight_edge(u, v, w * 1.5))
        .unwrap();

    let before = thread_allocations();
    let stats = engine
        .apply_updates(&NetworkDelta::new().reweight_edge(u, v, w * 2.0))
        .unwrap();
    let spent = thread_allocations() - before;
    let gtree = stats.gtree.expect("indexed network refreshes its G-tree");
    let dirty = (gtree.dirty_leaves + gtree.dirty_internal) as u64;
    assert!(dirty >= 1);
    assert!(
        (dirty as usize) * 10 < tree_nodes,
        "the reweight dirtied {dirty} of {tree_nodes} nodes; pick a more local edge"
    );
    let budget = 120 + 60 * dirty;
    assert!(
        spent < budget,
        "one-edge reweight allocated {spent} times for {dirty} dirty of \
         {tree_nodes} G-tree nodes (budget {budget}) — the epoch copy is \
         deep-cloning untouched nodes"
    );
}
