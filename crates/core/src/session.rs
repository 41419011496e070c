//! Per-thread query execution with reusable scratch.
//!
//! A [`QuerySession`] is the mutable half of the serving API: it pins one
//! immutable epoch of its [`MacEngine`] per query (network, index,
//! pre-grouped user targets — see [`MacEngine::epoch`]; applied
//! [`NetworkDelta`](crate::engine::NetworkDelta)s become visible at the next
//! query, with all scratch intact) and owns every buffer a query
//! execution needs — the Dijkstra sweep scratch, the G-tree walk's
//! entry/intersection matrices, the Lemma-1 membership mask, and the
//! id-translation arrays of the context build. Executing many queries
//! through one session reaches an allocation-free steady state for all
//! network-sized structures; only the per-query core-local structures (the
//! induced (k,t)-core graph and its dominance graph, which the result
//! borrows from) are built per query.
//!
//! Sessions are deliberately `!Sync`: one session per serving thread, all
//! sharing one cloned engine. See the scoped-thread test in
//! `tests/engine_session.rs` for the intended concurrent shape.

use crate::budget::QueryBudget;
use crate::context::{BuildOutcome, ContextScratch, SearchContext};
use crate::ctxcache::{CachedEntry, ContextCache, ContextCacheStats, Reuse};
use crate::engine::{AlgorithmChoice, EngineEpoch, MacEngine};
use crate::error::MacError;
use crate::global::{self, GsScratch};
use crate::local;
use crate::policy::ExecutionPolicy;
use crate::query::{MacQuery, QuerySignature};
use crate::result::{
    MacSearchResult, PartialResult, QueryOutcome, QueryPhase, QueryProgress, SearchStats,
};
use rsn_road::budget::BudgetTicker;
use rsn_road::rangefilter::QueryReach;
use rsn_road::ExhaustionCause;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A per-thread handle executing MAC queries against a prepared engine.
///
/// Obtained from [`MacEngine::session`]. Every entry point derives the
/// problem from the query's `j`: Problem 1 (the top-j MACs per partition)
/// when `j > 1`, Problem 2 (the non-contained MAC) at `j = 1` — the two
/// coincide there. [`execute`](Self::execute) answers exactly, and
/// [`execute_with_budget`](Self::execute_with_budget) degrades to a partial
/// answer when its budget runs out. Many queries are a loop over `execute`,
/// or, across threads, `rsn-serve`'s `MacServer`.
#[derive(Debug)]
pub struct QuerySession {
    engine: MacEngine,
    scratch: ContextScratch,
    /// Session-level search-context cache (`None` = disabled, the default):
    /// repeat queries with the same context signature skip the range filter,
    /// the (k,t)-core peel, and the `O(core²)` r-dominance graph build, and
    /// an exact repeat of the last complete answer skips the search too.
    cache: Option<ContextCache>,
    /// The range filter's record of a cached session's next context build;
    /// it moves into the cache entry the build produces.
    reach: QueryReach,
    /// Retained global-search scratch: task stack, leaf arena, half-space
    /// and arrangement pools — reused across queries so a warmed query
    /// allocates nothing.
    gs_scratch: GsScratch,
    /// How this session executes: algorithm/filter defaults, parallelism,
    /// local-framework knobs, default budget.
    /// Seeded from the engine's policy at [`MacEngine::session`]; replaced
    /// wholesale by [`with_policy`](Self::with_policy).
    policy: ExecutionPolicy,
    /// Pooled cache-key husk: the context signature of the current query is
    /// rebuilt in place on this buffer (and swapped with the cache entry's
    /// owned key on a hit), so a warmed cache lookup allocates nothing.
    key_buf: Option<QuerySignature>,
    executed: u64,
    stats: SessionStats,
    /// Test-only: makes the next query panic mid-execution, exercising the
    /// panic guard (see [`inject_panic_on_next_query`](Self::inject_panic_on_next_query)).
    #[cfg(feature = "failpoints")]
    panic_next: bool,
}

/// Lightweight per-session serving counters, cheap enough to keep always-on.
/// A serving loop (see `rsn-serve`) logs these — and aggregates them across
/// workers via [`merge`](Self::merge) — without reaching into the session's
/// internals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries answered (complete or partial); errors are counted separately.
    pub served: u64,
    /// Queries answered exactly.
    pub complete: u64,
    /// Queries degraded to a [`QueryOutcome::Partial`] by their budget.
    pub partial: u64,
    /// Queries that failed (invalid query, contained panic).
    pub errors: u64,
    /// Mid-query panics contained by the session guard (each also counts as
    /// one error).
    pub panics_recovered: u64,
    /// Context-cache hits (0 when the cache is disabled).
    pub context_cache_hits: u64,
    /// Context-cache misses (0 when the cache is disabled).
    pub context_cache_misses: u64,
    /// Context-cache hits answered from a stored answer, without a search
    /// (a subset of `context_cache_hits`).
    pub context_cache_outcome_hits: u64,
    /// Cache entries dropped because the road drift reached their slack.
    pub context_cache_drift_expiries: u64,
    /// Cache entries dropped because a moved user could change their kept
    /// set.
    pub context_cache_move_drops: u64,
}

impl SessionStats {
    /// Adds another session's counters into this one (for aggregating a
    /// worker pool).
    pub fn merge(&mut self, other: &SessionStats) {
        self.served += other.served;
        self.complete += other.complete;
        self.partial += other.partial;
        self.errors += other.errors;
        self.panics_recovered += other.panics_recovered;
        self.context_cache_hits += other.context_cache_hits;
        self.context_cache_misses += other.context_cache_misses;
        self.context_cache_outcome_hits += other.context_cache_outcome_hits;
        self.context_cache_drift_expiries += other.context_cache_drift_expiries;
        self.context_cache_move_drops += other.context_cache_move_drops;
    }

    /// Context-cache hit fraction in `[0, 1]` (0 before any lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.context_cache_hits + self.context_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.context_cache_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for SessionStats {
    /// One-line log form:
    /// `served 120 (118 complete, 2 partial), 0 errors (0 panics recovered), cache 80/100 hits (30 answers), 3 drift-expired, 1 move-dropped`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} ({} complete, {} partial), {} errors ({} panics recovered), \
             cache {}/{} hits ({} answers), {} drift-expired, {} move-dropped",
            self.served,
            self.complete,
            self.partial,
            self.errors,
            self.panics_recovered,
            self.context_cache_hits,
            self.context_cache_hits + self.context_cache_misses,
            self.context_cache_outcome_hits,
            self.context_cache_drift_expiries,
            self.context_cache_move_drops,
        )
    }
}

impl QuerySession {
    pub(crate) fn new(engine: MacEngine) -> Self {
        let policy = engine.policy().clone();
        QuerySession {
            engine,
            scratch: ContextScratch::new(),
            cache: None,
            reach: QueryReach::new(),
            gs_scratch: GsScratch::new(),
            policy,
            key_buf: None,
            executed: 0,
            stats: SessionStats::default(),
            #[cfg(feature = "failpoints")]
            panic_next: false,
        }
    }

    /// Arms a one-shot injected panic: the next `execute*` call panics
    /// mid-execution (after the epoch is pinned, before any result exists),
    /// exercising the session's panic containment. Test-only, behind the
    /// `failpoints` feature.
    #[cfg(feature = "failpoints")]
    pub fn inject_panic_on_next_query(&mut self) {
        self.panic_next = true;
    }

    /// Fires (and disarms) the injected query panic, if armed.
    #[cfg(feature = "failpoints")]
    fn fire_query_failpoint(&mut self) {
        if std::mem::take(&mut self.panic_next) {
            panic!("injected query panic");
        }
    }

    #[cfg(not(feature = "failpoints"))]
    #[inline(always)]
    fn fire_query_failpoint(&mut self) {}

    /// Replaces this session's [`ExecutionPolicy`] wholesale. The session
    /// starts from its engine's policy ([`MacEngine::policy`]); use this to
    /// diverge locally — e.g. one latency-critical session running the
    /// parallel global search while the rest of the pool stays serial:
    ///
    /// ```ignore
    /// let mut fast = engine
    ///     .session()
    ///     .with_policy(engine.policy().clone().with_parallelism(0));
    /// ```
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        // Stored answers of the local framework depend on the policy's
        // expansion knobs.
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
        self
    }

    /// The policy this session executes under.
    pub fn policy(&self) -> &ExecutionPolicy {
        &self.policy
    }

    /// Enables the session-level [`ContextCache`] with room for `capacity`
    /// contexts (minimum 1): repeat queries sharing a
    /// [context signature](crate::query::QuerySignature::context_signature)
    /// reuse the built search context — skipping the range filter, the
    /// (k,t)-core peel, and the `O(core²)` r-dominance graph build — and an
    /// exact repeat (same `j` and resolved algorithm) of the last complete
    /// answer on that context reuses the answer. Entries survive an
    /// [`apply_updates`](MacEngine::apply_updates) only while the update
    /// provably cannot change their kept set (see
    /// [`ctxcache`](crate::ctxcache)), so cached answers are always
    /// identical to freshly computed ones.
    pub fn with_context_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(ContextCache::new(capacity));
        self
    }

    /// The engine this session serves from.
    pub fn engine(&self) -> &MacEngine {
        &self.engine
    }

    /// Number of queries this session has executed.
    pub fn queries_executed(&self) -> u64 {
        self.executed
    }

    /// Snapshot of this session's serving counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Counter snapshot of the context cache, when one is enabled.
    pub fn context_cache_stats(&self) -> Option<ContextCacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Returns a finished result's buffers to this session's scratch pools:
    /// the next global-search query reuses the result's cell, weight, and
    /// community vectors instead of allocating fresh ones. This closes the
    /// last allocation loop of the steady state — with a context-cache hit
    /// and recycled results, a repeated query performs no heap allocation at
    /// all (pinned by the counting-allocator test in
    /// `tests/steady_state_alloc.rs`). Callers that keep their results simply
    /// drop them; recycling is an optimization, not a duty.
    pub fn recycle(&mut self, result: MacSearchResult) {
        self.gs_scratch.recycle(result);
    }

    /// Takes the cached entry for this query (if caching is on), after
    /// syncing the cache to the pinned `epoch`, and counts the lookup.
    /// Also returns the owned lookup key — rebuilt in place on the session's
    /// pooled husk, so a warmed lookup computes it without allocating —
    /// which the caller hands back with the entry to the cache's `store`
    /// after the query; a panic in between only loses the entry.
    fn take_cached_entry(
        &mut self,
        epoch: &EngineEpoch,
        query: &MacQuery,
        algorithm: AlgorithmChoice,
    ) -> (Option<QuerySignature>, Option<CachedEntry>) {
        let Some(cache) = self.cache.as_mut() else {
            return (None, None);
        };
        let mut key = self.key_buf.take().unwrap_or_else(QuerySignature::empty);
        query.write_context_signature(&mut key);
        let before = cache.stats();
        // An entry whose context is gone serves only its stored answer.
        let taken = cache.take(epoch, &key, |entry| {
            entry.parts.is_some()
                || entry
                    .outcome
                    .as_ref()
                    .is_some_and(|o| o.answers(query.j, algorithm))
        });
        let after = cache.stats();
        self.stats.context_cache_drift_expiries += after.drift_expiries - before.drift_expiries;
        self.stats.context_cache_move_drops += after.move_drops - before.move_drops;
        match taken {
            Some(entry) => {
                self.stats.context_cache_hits += 1;
                // The entry keeps its own key; park the husk for the next
                // lookup so the steady state never allocates a signature.
                self.key_buf = Some(key);
                (None, Some(entry))
            }
            None => {
                self.stats.context_cache_misses += 1;
                (Some(key), None)
            }
        }
    }

    /// Executes one query exactly: the algorithm follows the query and the
    /// policy (`Auto` runs the global search), the range-filter strategy
    /// follows the query and the policy, a remaining `Auto` resolved by
    /// [`EngineEpoch::resolve_filter_with`](crate::EngineEpoch::resolve_filter_with).
    /// The problem follows the query's `j`: top-j (Problem 1) when `j > 1`,
    /// non-contained MAC (Problem 2) at `j = 1`. For Problem 2 on a `j > 1`
    /// query, pass `query.clone().with_top_j(1)`.
    ///
    /// The query runs unbounded: the policy's
    /// [`default_budget`](crate::ExecutionPolicy::default_budget) is ignored
    /// here (only `rsn-serve`'s `MacServer` applies it). Bound a query with
    /// [`execute_with_budget`](Self::execute_with_budget).
    pub fn execute(&mut self, query: &MacQuery) -> Result<MacSearchResult, MacError> {
        self.run_guarded(query, BudgetTicker::unlimited())
            .map(QueryOutcome::into_result)
    }

    /// Executes one query under a [`QueryBudget`], degrading gracefully: when
    /// the budget exhausts mid-query the session returns
    /// [`QueryOutcome::Partial`] carrying every community confirmed so far
    /// plus progress counters, instead of an error. An
    /// [unlimited](QueryBudget::is_unlimited) budget never exhausts: it
    /// always yields [`QueryOutcome::Complete`] with a result identical to
    /// [`execute`](Self::execute).
    ///
    /// The problem follows the query's `j`, as in
    /// [`execute`](Self::execute). `Err` is reserved for invalid queries and
    /// contained panics — budget exhaustion is never an error here; a caller
    /// that would rather retry than serve a truncated answer matches on
    /// [`QueryOutcome::Partial`]. A deadline or work limit is armed afresh
    /// per call, so serving a batch under a per-query budget is a loop over
    /// this method (a shared cancel flag still stops every query).
    pub fn execute_with_budget(
        &mut self,
        query: &MacQuery,
        budget: &QueryBudget,
    ) -> Result<QueryOutcome, MacError> {
        self.run_guarded(query, budget.arm())
    }

    /// The algorithm that answers `query`: an explicit query choice wins, a
    /// query-level `Auto` falls back to the policy default, and only an
    /// explicit `Local` runs the local framework; everything else runs the
    /// exact global search. Never returns `Auto`.
    fn algorithm_for(&self, query: &MacQuery) -> AlgorithmChoice {
        let requested = match query.algorithm {
            AlgorithmChoice::Auto => self.policy.algorithm,
            explicit => explicit,
        };
        match requested {
            AlgorithmChoice::Local => AlgorithmChoice::Local,
            _ => AlgorithmChoice::Global,
        }
    }

    /// Panic-isolating wrapper around [`run`](Self::run). A panic escaping
    /// query execution is caught here; the session's scratch may have been
    /// mid-mutation, so it is poisoned-and-rebuilt (fresh buffers, one-time
    /// re-allocation cost) and the panic is reported as a contained
    /// [`MacError::ExecutionPanicked`](crate::MacError::ExecutionPanicked).
    /// The engine's shared state is immutable per epoch, so no other session
    /// can observe the torn intermediate state.
    fn run_guarded(
        &mut self,
        query: &MacQuery,
        mut ticker: BudgetTicker,
    ) -> Result<QueryOutcome, MacError> {
        let guarded = catch_unwind(AssertUnwindSafe(|| self.run(query, &mut ticker)));
        let outcome = match guarded {
            Ok(outcome) => outcome,
            Err(payload) => {
                // The scratch buffers may hold torn intermediate state from
                // the unwound query; rebuild them so the session stays
                // serviceable. A context the cache had lent out is simply
                // lost (its entry was removed on take), so the cache never
                // holds torn state either.
                self.scratch = ContextScratch::new();
                self.stats.panics_recovered += 1;
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(MacError::ExecutionPanicked(msg))
            }
        };
        match &outcome {
            Ok(QueryOutcome::Complete(_)) => {
                self.stats.served += 1;
                self.stats.complete += 1;
            }
            Ok(QueryOutcome::Partial(_)) => {
                self.stats.served += 1;
                self.stats.partial += 1;
            }
            Err(_) => self.stats.errors += 1,
        }
        outcome
    }

    /// The query pipeline: every stage charges the ticker, and exhaustion at
    /// any point degrades to a [`QueryOutcome::Partial`] carrying the cells
    /// confirmed so far (each exact — the stages only ever drop whole units
    /// of work, never truncate a reported cell). An unlimited ticker always
    /// yields [`QueryOutcome::Complete`].
    fn run(
        &mut self,
        query: &MacQuery,
        ticker: &mut BudgetTicker,
    ) -> Result<QueryOutcome, MacError> {
        let start = Instant::now();
        // Pin the epoch being served: a concurrently applied NetworkDelta
        // swaps the engine's pointer but never mutates this snapshot, so the
        // whole query runs against one consistent network + index + grouping.
        let epoch = self.engine.epoch();
        self.fire_query_failpoint();
        let rsn = epoch.network();
        // Queries sharing everything the context depends on (users, k, t,
        // region) share one cache slot regardless of j / algorithm. The
        // build path validates inside the core extraction; a cache hit skips
        // that stage, so the cached path validates explicitly (cheap,
        // O(|Q|)) to keep invalid queries an error either way.
        let algorithm = self.algorithm_for(query);
        let (mut new_key, cached) = if self.cache.is_some() {
            query.validate(rsn)?;
            self.take_cached_entry(&epoch, query, algorithm)
        } else {
            (None, None)
        };
        // What goes back into the cache with the context after the search:
        // the key, the reuse record, and the stored answer.
        let (ctx, entry_rest) = match cached {
            Some(entry) => {
                if let Some(outcome) = entry
                    .outcome
                    .as_ref()
                    .filter(|o| o.answers(query.j, algorithm))
                {
                    // The stored answer is exact on this epoch (the sync
                    // kept the entry), so it is the answer: no stage runs
                    // and the ticker is not charged.
                    let mut result = outcome.rehydrate(&mut self.gs_scratch);
                    result.stats.elapsed_seconds = start.elapsed().as_secs_f64();
                    self.stats.context_cache_outcome_hits += 1;
                    let cache = self.cache.as_mut().expect("a hit implies a cache");
                    cache.note_outcome_hit();
                    cache.store(&epoch, entry, None);
                    self.executed += 1;
                    return Ok(QueryOutcome::Complete(result));
                }
                // A cached context skips the filter/peel/build stages and
                // their budget charges entirely: only the search stage draws
                // on the ticker, exactly as if the context had been free.
                let CachedEntry {
                    key,
                    parts,
                    reuse,
                    outcome,
                } = entry;
                let parts = parts.expect("the lookup only takes entries it can serve");
                (
                    SearchContext::from_parts(rsn, query, parts),
                    Some((key, reuse, outcome)),
                )
            }
            None => {
                let filter = epoch.resolve_filter_with(query, self.policy.filter);
                // Only a context headed for the cache records its reach.
                let reach = new_key.is_some().then_some(&mut self.reach);
                let built = SearchContext::build_with_ticker(
                    rsn,
                    query,
                    filter,
                    epoch.user_targets(),
                    &mut self.scratch,
                    ticker,
                    reach,
                );
                // No context reaches the cache on these paths; park the key
                // husk for the next lookup so it is not reallocated.
                if !matches!(built, Ok(BuildOutcome::Ready(_))) {
                    if let Some(key) = new_key.take() {
                        self.key_buf = Some(key);
                    }
                }
                match built? {
                    BuildOutcome::Ready(ctx) => {
                        let rest = new_key.take().map(|key| {
                            let reach = std::mem::take(&mut self.reach);
                            (key, Reuse::new(reach, &epoch), None)
                        });
                        (*ctx, rest)
                    }
                    BuildOutcome::Empty => {
                        self.executed += 1;
                        return Ok(QueryOutcome::Complete(Self::empty_result(start)));
                    }
                    BuildOutcome::Exhausted(phase) => {
                        self.executed += 1;
                        return Ok(QueryOutcome::Partial(PartialResult {
                            result: Self::empty_result(start),
                            cause: ticker.cause().unwrap_or(ExhaustionCause::WorkLimit),
                            progress: QueryProgress {
                                phase,
                                explored: ticker.spent(),
                                // The pipeline stopped before the search
                                // stages; at least the current stage's work
                                // is known undone.
                                remaining: 1,
                            },
                        }));
                    }
                }
            }
        };
        let (mut run, phase) = match algorithm {
            AlgorithmChoice::Local => (
                local::run_context(
                    &ctx,
                    self.policy.expand_strategy,
                    self.policy.max_candidates,
                    ticker,
                ),
                QueryPhase::LocalSearch,
            ),
            // algorithm_for never returns Auto. Global search stays
            // serial under the default policy — a serial prefix is what makes
            // a partial answer a strict subset of the full run — and shares
            // the ticker across workers (via an atomic latch) when the policy
            // opts into parallelism.
            _ => (
                global::explore_context(
                    &ctx,
                    &mut self.gs_scratch,
                    self.policy.parallelism,
                    ticker,
                ),
                QueryPhase::GlobalSearch,
            ),
        };
        if let Some((key, reuse, outcome)) = entry_rest {
            let entry = CachedEntry {
                outcome,
                ..CachedEntry::new(key, ctx.into_parts(), reuse)
            };
            // Only a complete answer is stored; a partial one leaves the
            // entry's previous answer in place.
            let answer = run.completed.then_some((&run.result, query.j, algorithm));
            if let Some(cache) = self.cache.as_mut() {
                cache.store(&epoch, entry, answer);
            }
        }
        run.result.stats.elapsed_seconds = start.elapsed().as_secs_f64();
        self.executed += 1;
        if run.completed {
            Ok(QueryOutcome::Complete(run.result))
        } else {
            Ok(QueryOutcome::Partial(PartialResult {
                result: run.result,
                cause: ticker.cause().unwrap_or(ExhaustionCause::WorkLimit),
                progress: QueryProgress {
                    phase,
                    explored: run.explored,
                    remaining: run.remaining,
                },
            }))
        }
    }

    fn empty_result(start: Instant) -> MacSearchResult {
        MacSearchResult {
            cells: Vec::new(),
            stats: SearchStats {
                elapsed_seconds: start.elapsed().as_secs_f64(),
                ..SearchStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoadSocialNetwork;
    use rsn_geom::region::PrefRegion;
    use rsn_graph::graph::Graph;
    use rsn_road::network::{Location, RoadNetwork};

    /// The two-K4 network of the global/local tests.
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
            vec![6.0, 6.0],
            vec![6.0, 6.0],
            vec![9.0, 1.0],
            vec![8.0, 2.0],
            vec![1.0, 9.0],
            vec![2.0, 8.0],
        ];
        RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
    }

    fn query() -> MacQuery {
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        MacQuery::new(vec![0, 1], 3, 10.0, region)
    }

    fn assert_results_identical(a: &MacSearchResult, b: &MacSearchResult) {
        assert_eq!(a.cells.len(), b.cells.len(), "cell count diverged");
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.sample_weight, cb.sample_weight);
            assert_eq!(
                ca.communities
                    .iter()
                    .map(|c| &c.vertices)
                    .collect::<Vec<_>>(),
                cb.communities
                    .iter()
                    .map(|c| &c.vertices)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// `query` run with `algorithm` on a fresh session (cache off, fresh
    /// scratch) of its own engine.
    fn fresh(
        rsn: &RoadSocialNetwork,
        query: &MacQuery,
        algorithm: AlgorithmChoice,
    ) -> MacSearchResult {
        MacEngine::build(rsn.clone())
            .session()
            .execute(&query.clone().with_algorithm(algorithm))
            .unwrap()
    }

    #[test]
    fn session_matches_a_fresh_global_search() {
        let rsn = network();
        let q = query();
        let reference = fresh(&rsn, &q, AlgorithmChoice::Global);
        let engine = MacEngine::build(rsn);
        let mut session = engine.session();
        let got = session.execute(&q).unwrap();
        assert_results_identical(&reference, &got);
        assert_eq!(session.queries_executed(), 1);
    }

    #[test]
    fn session_infers_the_problem_from_j() {
        let engine = MacEngine::build(network());
        let mut session = engine.session();
        let q1 = query();
        let q2 = query().with_top_j(2);
        let nc = session.execute(&q1).unwrap();
        for cell in &nc.cells {
            assert_eq!(cell.communities.len(), 1);
        }
        let top2 = session.execute(&q2).unwrap();
        assert!(top2.cells.iter().any(|c| c.communities.len() == 2));
        // Problem 1's first MAC in every cell is Problem 2's answer there.
        assert_eq!(nc.cells.len(), top2.cells.len());
        for (a, b) in nc.cells.iter().zip(&top2.cells) {
            assert_eq!(a.communities[0].vertices, b.communities[0].vertices);
        }
    }

    #[test]
    fn session_runs_the_local_framework_on_request() {
        let rsn = network();
        let q = query().with_algorithm(AlgorithmChoice::Local);
        let reference = fresh(&rsn, &q, AlgorithmChoice::Local);
        let engine = MacEngine::build(rsn);
        let mut session = engine.session();
        let got = session.execute(&q).unwrap();
        assert_results_identical(&reference, &got);
        // Only the local framework generates expansion candidates.
        assert!(got.stats.candidates_generated > 0);
    }

    #[test]
    fn context_cache_hits_repeat_queries_and_answers_identically() {
        let engine = MacEngine::build(network());
        let mut plain = engine.session();
        let mut cached = engine.session().with_context_cache(4);
        let q1 = query();
        let q2 = query().with_top_j(2); // same context signature as q1
        for _ in 0..3 {
            assert_results_identical(&plain.execute(&q1).unwrap(), &cached.execute(&q1).unwrap());
            assert_results_identical(&plain.execute(&q2).unwrap(), &cached.execute(&q2).unwrap());
        }
        let stats = cached.stats();
        // First q1 misses; everything after (including q2, which shares the
        // context signature) hits.
        assert_eq!(stats.context_cache_misses, 1);
        assert_eq!(stats.context_cache_hits, 5);
        assert_eq!(stats.served, 6);
        assert_eq!(stats.complete, 6);
        let cache_stats = cached.context_cache_stats().unwrap();
        assert_eq!(cache_stats.hits, 5);
        // The entry stores one answer: alternating j swaps it every time,
        // so each hit reused the context and searched.
        assert_eq!(cache_stats.outcome_hits, 0);
        assert!(plain.context_cache_stats().is_none());
    }

    #[test]
    fn context_cache_invalidates_on_update_and_stays_correct() {
        use crate::engine::NetworkDelta;
        let engine = MacEngine::build(network());
        let mut cached = engine.session().with_context_cache(4);
        let q = query();
        let before = cached.execute(&q).unwrap();
        assert_results_identical(&cached.execute(&q).unwrap(), &before);
        // Every user sits at distance 0 of t = 10: a reweight by 0.5 cannot
        // change the kept set, so the entry and its answer survive it.
        engine
            .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 1.5))
            .unwrap();
        let answers = cached.stats().context_cache_outcome_hits;
        assert_results_identical(&cached.execute(&q).unwrap(), &before);
        assert_eq!(cached.stats().context_cache_outcome_hits, answers + 1);
        // Strand user 3 on the far side of a now-expensive road segment: it
        // drops out of the (k,t)-core, so the cached context is stale and
        // must not be reused.
        let delta = NetworkDelta::new()
            .reweight_edge(0, 1, 100.0)
            .move_user(3, Location::vertex(1));
        engine.apply_updates(&delta).unwrap();
        let after = cached.execute(&q).unwrap();
        let mut fresh = engine.session();
        assert_results_identical(&fresh.execute(&q).unwrap(), &after);
        let stats = cached.context_cache_stats().unwrap();
        // The moved user is checked first: its distance is undecided within
        // the drift.
        assert_eq!((stats.epoch_invalidations, stats.move_drops), (1, 1));
        assert_eq!(cached.stats().context_cache_move_drops, 1);
    }

    #[test]
    fn across_epochs_an_entry_serves_its_answer_and_rebuilds_other_variants() {
        use crate::engine::NetworkDelta;
        let engine = MacEngine::build(network());
        let mut cached = engine.session().with_context_cache(4);
        let q1 = query();
        let q2 = query().with_top_j(2);
        cached.execute(&q1).unwrap();
        engine
            .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 1.5))
            .unwrap();
        // The entry survives the update with its answer, not its context:
        // the same query is an answer hit, the other j rebuilds.
        let mut fresh = engine.session();
        assert_results_identical(&cached.execute(&q1).unwrap(), &fresh.execute(&q1).unwrap());
        assert_results_identical(&cached.execute(&q2).unwrap(), &fresh.execute(&q2).unwrap());
        let stats = cached.stats();
        assert_eq!(stats.context_cache_outcome_hits, 1);
        assert_eq!(
            (stats.context_cache_hits, stats.context_cache_misses),
            (1, 2)
        );
        // The rebuilt entry holds its context again for this epoch.
        assert_results_identical(&cached.execute(&q1).unwrap(), &fresh.execute(&q1).unwrap());
        assert_eq!(cached.stats().context_cache_hits, 2);
    }

    #[test]
    fn cached_queries_under_a_budget_match_and_invalid_queries_still_error() {
        let engine = MacEngine::build(network());
        let mut cached = engine.session().with_context_cache(4);
        let q = query();
        let unlimited = QueryBudget::new();
        let generous = QueryBudget::new().with_work_limit(u64::MAX);
        let first = cached.execute_with_budget(&q, &unlimited).unwrap();
        let second = cached.execute_with_budget(&q, &generous).unwrap();
        assert!(first.is_complete() && second.is_complete());
        assert_results_identical(first.result(), second.result());
        // Limited and unlimited budgets share one cache.
        assert!(cached.stats().context_cache_hits >= 1);
        // A cache hit must not bypass query validation.
        let mut bad = query();
        bad.q.clear();
        assert!(cached.execute(&bad).is_err());
        assert_eq!(cached.stats().errors, 1);
    }

    #[test]
    fn session_stats_display_and_merge() {
        let engine = MacEngine::build(network());
        let mut session = engine.session();
        session.execute(&query()).unwrap();
        let mut total = SessionStats::default();
        total.merge(&session.stats());
        total.merge(&session.stats());
        assert_eq!(total.served, 2);
        assert_eq!(total.complete, 2);
        let line = total.to_string();
        assert!(line.contains("served 2"), "unexpected display: {line}");
        assert_eq!(total.cache_hit_rate(), 0.0);
    }

    #[test]
    fn invalid_query_is_an_error_and_empty_core_is_an_empty_result() {
        let engine = MacEngine::build(network());
        let mut session = engine.session();
        let mut bad = query();
        bad.q.clear();
        assert!(session.execute(&bad).is_err());
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let impossible = MacQuery::new(vec![0], 5, 10.0, region);
        let result = session.execute(&impossible).unwrap();
        assert!(result.is_empty());
    }
}
