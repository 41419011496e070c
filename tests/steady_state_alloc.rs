//! Pins the zero-allocation steady state of a warmed serving session.
//!
//! The session owns every buffer a query needs (context scratch, global-search
//! pools, the cache-key husk), the context cache keeps its entries' owned
//! keys and stored answers, and `QuerySession::recycle` feeds a finished
//! result's vectors back into the pools. Together a repeated query — answered
//! from the stored answer, on the same epoch or after an update the entry
//! survives — and a query that reuses only the cached context are
//! allocation-free. This harness counts every heap allocation on
//! the serving thread and asserts the steady-state count is exactly zero, so
//! any future allocation on the hot path fails loudly instead of showing up
//! as a latency regression.
//!
//! The fixture uses three attributes (a 2-D preference region): that is the
//! regime of every preset and of the paper's running example, and the one the
//! cell layer serves with the pooled vertex/polygon fast path. Other region
//! dimensionalities fall back to the dense-LP classifier, which allocates its
//! constraint system per call and is deliberately out of scope for the pin.
//!
//! Warm-up needs more rounds than one might expect: the cell pools are LIFO
//! stacks, so a query permutes husks across pool positions, and a husk's
//! polygon buffer only reaches its steady capacity once it has visited the
//! most demanding position of the cycle. Capacities grow monotonically, so
//! the state converges — the warm-up just has to outlast the rotation.

use road_social_mac::prelude::*;
use rsn_graph::graph::Graph;
use rsn_road::network::{Location, RoadNetwork};

// ---------------------------------------------------------------------------
// Allocation accounting (same harness as tests/engine_updates.rs).
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

// ---------------------------------------------------------------------------
// Fixture: the two-K4 network of the core tests.
// ---------------------------------------------------------------------------

fn network() -> RoadSocialNetwork {
    let social = Graph::from_edges(
        6,
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (0, 4),
            (0, 5),
            (1, 4),
            (1, 5),
            (4, 5),
        ],
    );
    let road = RoadNetwork::from_edges(2, &[(0, 1, 1.0)]);
    let locations = vec![Location::vertex(0); 6];
    let attrs = vec![
        vec![6.0, 6.0, 5.0],
        vec![6.0, 6.0, 4.0],
        vec![9.0, 1.0, 3.0],
        vec![8.0, 2.0, 7.0],
        vec![1.0, 9.0, 6.0],
        vec![2.0, 8.0, 2.0],
    ];
    RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
}

fn query() -> MacQuery {
    let region = PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap();
    MacQuery::new(vec![0, 1], 3, 10.0, region).with_algorithm(AlgorithmChoice::Global)
}

/// A repeated global-search query on a cache-hitting session, with results
/// recycled back into the pools, performs zero heap allocations.
#[test]
fn steady_state_query_allocates_nothing() {
    let engine = MacEngine::build_uncalibrated(network());
    let mut session = engine.session().with_context_cache(2);
    let q = query();

    // Warm up: the first queries populate the context cache, grow every
    // scratch pool to its steady capacity, and seed the result husks. The
    // round count outlasts the pool-rotation period (see module docs).
    let reference = session.execute(&q).unwrap();
    let warm = 39u64;
    for _ in 0..warm {
        let result = session.execute(&q).unwrap();
        session.recycle(result);
    }

    let before = thread_allocations();
    let rounds = 16u64;
    for _ in 0..rounds {
        let result = session.execute(&q).unwrap();
        assert_eq!(result.cells.len(), reference.cells.len());
        session.recycle(result);
    }
    let delta = thread_allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state serving must be allocation-free, saw {delta} allocations \
         over {rounds} queries"
    );

    // The loop really did serve from the cache, not rebuild contexts.
    let stats = session.stats();
    assert!(stats.context_cache_hits >= rounds);
    assert!(stats.context_cache_outcome_hits >= rounds);
    assert_eq!(stats.served, 1 + warm + rounds);
}

/// A road update the cached entry provably survives (a reweight far below
/// its distance slack) leaves the repeated query an allocation-free hit on
/// the stored answer: the first lookup of the new epoch syncs the cache
/// without allocating, and the answer is rebuilt into recycled buffers.
#[test]
fn answer_hit_after_a_sub_slack_update_allocates_nothing() {
    let engine = MacEngine::build_uncalibrated(network());
    let mut session = engine.session().with_context_cache(2);
    let q = query();
    let reference = session.execute(&q).unwrap();
    for _ in 0..39 {
        let result = session.execute(&q).unwrap();
        session.recycle(result);
    }

    let rounds = 16u64;
    let mut delta = 0;
    for round in 0..rounds {
        // Every user sits at distance 0 of t = 10; the edge weight wanders
        // within [1, 1.5], so the drift stays far below the slack.
        let w = 1.0 + 0.03125 * (round % 16 + 1) as f64;
        engine
            .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, w))
            .unwrap();
        let before = thread_allocations();
        let result = session.execute(&q).unwrap();
        assert_eq!(result.cells.len(), reference.cells.len());
        session.recycle(result);
        delta += thread_allocations() - before;
    }
    assert_eq!(
        delta, 0,
        "answer hits after sub-slack updates must be allocation-free, saw \
         {delta} allocations over {rounds} updates"
    );
    let stats = session.stats();
    assert_eq!(stats.context_cache_drift_expiries, 0);
    assert!(stats.context_cache_outcome_hits >= 39 + rounds);
}

/// A hit on the cached context alone — here the other `j` of the same
/// query, which the entry's stored answer does not cover — still runs the
/// global search allocation-free, and storing its answer over the previous
/// one reuses the entry's buffers.
#[test]
fn context_only_hit_still_explores_allocation_free() {
    let engine = MacEngine::build_uncalibrated(network());
    let mut session = engine.session().with_context_cache(2);
    let queries = [query(), query().with_top_j(2)];
    for _ in 0..40 {
        for q in &queries {
            let result = session.execute(q).unwrap();
            session.recycle(result);
        }
    }
    let answers = session.stats().context_cache_outcome_hits;

    let before = thread_allocations();
    let rounds = 16u64;
    for _ in 0..rounds {
        for q in &queries {
            let result = session.execute(q).unwrap();
            session.recycle(result);
        }
    }
    let delta = thread_allocations() - before;
    assert_eq!(
        delta, 0,
        "context-only hits must explore allocation-free, saw {delta} \
         allocations over {rounds} rounds"
    );
    // Alternating j swaps the stored answer each time: every hit searched.
    assert_eq!(session.stats().context_cache_outcome_hits, answers);
}

/// A lookup that ends without a context to cache — here an empty
/// (k,t)-core — hands the pooled cache-key husk back to the session, so the
/// cached query that follows it still allocates nothing.
#[test]
fn cached_query_after_an_empty_core_query_allocates_nothing() {
    let engine = MacEngine::build_uncalibrated(network());
    let mut session = engine.session().with_context_cache(2);
    let q = query();
    // No vertex of the two-K4 fixture has degree 5, so the core is empty.
    let region = PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap();
    let empty = MacQuery::new(vec![0], 5, 10.0, region);

    let reference = session.execute(&q).unwrap();
    for _ in 0..39 {
        assert!(session.execute(&empty).unwrap().is_empty());
        let result = session.execute(&q).unwrap();
        session.recycle(result);
    }

    let rounds = 16u64;
    let mut delta = 0;
    for _ in 0..rounds {
        assert!(session.execute(&empty).unwrap().is_empty());
        let before = thread_allocations();
        let result = session.execute(&q).unwrap();
        assert_eq!(result.cells.len(), reference.cells.len());
        session.recycle(result);
        delta += thread_allocations() - before;
    }
    assert_eq!(
        delta, 0,
        "cached queries after empty-core queries must be allocation-free, saw \
         {delta} allocations over {rounds} rounds"
    );
}

/// A warmed uncached (k,t)-core extraction — range filter, masked degrees,
/// in-place peel and BFS, all on pooled scratch — allocates exactly once:
/// the returned core's member vector.
#[test]
fn warmed_kt_core_extraction_allocates_only_the_core() {
    use rsn_core::ktcore::{maximal_kt_core_with, KtScratch};
    let rsn = network();
    let q = query();
    let mut scratch = KtScratch::new();
    let reference = maximal_kt_core_with(&rsn, &q, q.filter, None, &mut scratch)
        .unwrap()
        .expect("the fixture has a (3,t)-core");
    for _ in 0..3 {
        maximal_kt_core_with(&rsn, &q, q.filter, None, &mut scratch).unwrap();
    }

    let before = thread_allocations();
    let core = maximal_kt_core_with(&rsn, &q, q.filter, None, &mut scratch).unwrap();
    let delta = thread_allocations() - before;
    assert_eq!(core.as_ref(), Some(&reference));
    assert_eq!(
        delta, 1,
        "a warmed (k,t)-core extraction must allocate only the returned core, \
         saw {delta} allocations"
    );
}

/// Without `recycle` the session still works (results own their buffers), and
/// the per-query allocation count stays small and flat — the pools cover
/// everything except the reported result itself.
#[test]
fn unrecycled_queries_only_allocate_the_result() {
    let engine = MacEngine::build_uncalibrated(network());
    let mut session = engine.session().with_context_cache(2);
    let q = query();
    for _ in 0..40 {
        session.execute(&q).unwrap();
    }
    let before = thread_allocations();
    let result = session.execute(&q).unwrap();
    let per_query = thread_allocations() - before;
    // One cell result: out_cells vector + cell + weights + community storage.
    // The exact count may drift with layout, but it must stay O(result), not
    // O(network) — a context rebuild on this fixture costs hundreds.
    assert!(
        per_query < 50,
        "cache-hit query without recycling allocated {per_query} times"
    );
    drop(result);
}
