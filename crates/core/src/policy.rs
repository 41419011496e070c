//! The unified execution-policy configuration.
//!
//! An [`ExecutionPolicy`] gathers every knob that selects *how* queries
//! execute — which algorithm answers them, which range-filter strategy, how
//! many worker threads a query fans out over, the local framework's
//! candidate strategy and budget, and the default [`QueryBudget`] — into one
//! builder-style value with three override layers:
//!
//! 1. **Engine**: [`MacEngine::build_with_policy`](crate::engine::MacEngine::build_with_policy)
//!    bakes a policy into the engine; every [`session`](crate::engine::MacEngine::session)
//!    starts from it.
//! 2. **Session**: [`QuerySession::with_policy`](crate::session::QuerySession::with_policy)
//!    replaces one session's policy without touching the engine or its other
//!    sessions.
//! 3. **Query**: an explicit [`MacQuery::with_algorithm`](crate::query::MacQuery::with_algorithm)
//!    or [`with_range_filter`](crate::query::MacQuery::with_range_filter)
//!    wins over both, and [`execute_with_budget`](crate::session::QuerySession::execute_with_budget)
//!    overrides the default budget for one query.
//!
//! Every policy produces **identical answers** for the algorithm the query
//! resolves to: parallelism, the filter strategy, and the candidate knobs
//! change speed, never results (the parallel global search is
//! property-tested cell-identical to the serial one). The one caveat is
//! [`algorithm`](ExecutionPolicy::algorithm): `Global` and `Local` answers
//! may legitimately differ (the local framework is a heuristic), so layers
//! that treat equal [query signatures](crate::query::MacQuery::signature) as
//! interchangeable — batch dedup, request coalescing — must run every member
//! of the dedup set under one policy, which they do (one policy per session,
//! one [`ServeConfig`](../../rsn_serve/struct.ServeConfig.html) per server).
//!
//! ```
//! use rsn_core::{AlgorithmChoice, ExecutionPolicy, MacEngine, QueryBudget};
//! use std::time::Duration;
//! # use rsn_geom::region::PrefRegion;
//! # use rsn_graph::graph::Graph;
//! # use rsn_road::network::{Location, RoadNetwork};
//! # let social = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]);
//! # let road = RoadNetwork::from_edges(2, &[(0, 1, 1.0)]);
//! # let locations = vec![Location::vertex(0); 4];
//! # let attrs = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0], vec![1.5, 2.5]];
//! # let rsn = rsn_core::RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
//! let policy = ExecutionPolicy::new().with_parallelism(0); // all cores for the global search
//! let engine = MacEngine::build_with_policy(rsn, policy);
//! let mut session = engine.session();      // inherits the engine's policy
//! # let region = PrefRegion::from_ranges(&[(0.2, 0.8)]).unwrap();
//! # let query = rsn_core::MacQuery::new(vec![0], 2, 10.0, region);
//! // `execute` runs unbounded, whatever the policy's default budget (only
//! // `rsn-serve`'s `MacServer::submit` applies that); bound one query here:
//! let budget = QueryBudget::new().with_deadline(Duration::from_millis(50));
//! let outcome = session.execute_with_budget(&query, &budget).unwrap();
//! # assert!(!outcome.result().is_empty());
//! ```

use crate::budget::QueryBudget;
use crate::engine::AlgorithmChoice;
use crate::local::ExpandStrategy;
use rsn_road::rangefilter::RangeFilterChoice;

/// How queries execute: algorithm and filter defaults, parallelism,
/// local-framework knobs, and the default
/// [`QueryBudget`]. See the [module docs](self) for the engine → session →
/// query override layering.
#[derive(Debug, Clone)]
pub struct ExecutionPolicy {
    /// Default search algorithm for queries whose own
    /// [`algorithm`](crate::query::MacQuery::algorithm) is `Auto`. A policy
    /// `Auto` (the default) runs the exact global search, like `Global`;
    /// only `Local` selects the heuristic local framework. Bound the global
    /// search's time on large cores with
    /// [`execute_with_budget`](crate::session::QuerySession::execute_with_budget);
    /// the [`default_budget`](Self::default_budget) bounds it only for
    /// queries submitted to `rsn-serve`'s `MacServer`.
    pub algorithm: AlgorithmChoice,
    /// Default Lemma-1 range-filter strategy for queries whose own
    /// [`filter`](crate::query::MacQuery::filter) is `Auto`. A policy `Auto`
    /// (the default) resolves through the deterministic cost model of
    /// [`resolve_auto`](rsn_road::rangefilter::resolve_auto). All strategies
    /// return identical user sets; this only affects speed.
    pub filter: RangeFilterChoice,
    /// Worker threads: `1` = serial (the default), `0` = one per available
    /// core. The global search shares its arrangement subtrees among the
    /// workers by work stealing; the local framework fans out candidate
    /// verification; a batch spreads its distinct queries. Serving
    /// deployments that already run one session per core usually keep `1`;
    /// parallelism pays off for latency-critical single queries on otherwise
    /// idle cores.
    pub parallelism: usize,
    /// Candidate-selection strategy of the local framework.
    pub expand_strategy: ExpandStrategy,
    /// Candidate budget of the local framework (minimum 1).
    pub max_candidates: usize,
    /// Budget applied when the caller does not pass an explicit one:
    /// `rsn-serve`'s `submit` uses it. Unlimited by default; plain
    /// [`execute`](crate::session::QuerySession::execute) always runs exact
    /// regardless.
    pub default_budget: QueryBudget,
}

impl Default for ExecutionPolicy {
    fn default() -> Self {
        ExecutionPolicy {
            algorithm: AlgorithmChoice::Auto,
            filter: RangeFilterChoice::Auto,
            parallelism: 1,
            expand_strategy: ExpandStrategy::default(),
            max_candidates: 12,
            default_budget: QueryBudget::unlimited(),
        }
    }
}

impl ExecutionPolicy {
    /// The default policy: `Auto` algorithm (the exact global search) and
    /// cost-model `Auto` filter, serial execution, default local knobs,
    /// unlimited budget.
    pub fn new() -> Self {
        ExecutionPolicy::default()
    }

    /// Sets the default search algorithm for `Auto` queries.
    pub fn with_algorithm(mut self, algorithm: AlgorithmChoice) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the default range-filter strategy for `Auto` queries.
    pub fn with_filter(mut self, filter: RangeFilterChoice) -> Self {
        self.filter = filter;
        self
    }

    /// Sets the global-search worker count (`1` = serial, `0` = all cores).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Sets the local framework's candidate-selection strategy.
    pub fn with_expand_strategy(mut self, strategy: ExpandStrategy) -> Self {
        self.expand_strategy = strategy;
        self
    }

    /// Sets the local framework's candidate budget (minimum 1).
    pub fn with_max_candidates(mut self, max_candidates: usize) -> Self {
        self.max_candidates = max_candidates.max(1);
        self
    }

    /// Sets the budget applied when the caller passes none.
    pub fn with_default_budget(mut self, budget: QueryBudget) -> Self {
        self.default_budget = budget;
        self
    }
}

/// Resolves a requested worker count (`0` = one per available core) against
/// `cap` independent units of work: at least one worker, never more than
/// `cap`. The one rule behind every parallel stage's fan-out width.
pub(crate) fn resolve_workers(requested: usize, cap: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    requested.min(cap).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_serial_auto_unlimited() {
        let p = ExecutionPolicy::new();
        assert_eq!(p.algorithm, AlgorithmChoice::Auto);
        assert_eq!(p.filter, RangeFilterChoice::Auto);
        assert_eq!(p.parallelism, 1);
        assert_eq!(p.max_candidates, 12);
        assert!(p.default_budget.is_unlimited());
    }

    #[test]
    fn builder_sets_every_knob() {
        let p = ExecutionPolicy::new()
            .with_algorithm(AlgorithmChoice::Local)
            .with_filter(RangeFilterChoice::DijkstraSweep)
            .with_parallelism(4)
            .with_max_candidates(0) // clamped to 1
            .with_default_budget(QueryBudget::new().with_work_limit(10));
        assert_eq!(p.algorithm, AlgorithmChoice::Local);
        assert_eq!(p.filter, RangeFilterChoice::DijkstraSweep);
        assert_eq!(p.parallelism, 4);
        assert_eq!(p.max_candidates, 1);
        assert_eq!(p.default_budget.work_limit, Some(10));
    }

    #[test]
    fn worker_count_is_at_least_one_and_capped() {
        assert_eq!(resolve_workers(4, 2), 2);
        assert_eq!(resolve_workers(3, usize::MAX), 3);
        assert_eq!(resolve_workers(5, 0), 1);
        assert_eq!(resolve_workers(1, 8), 1);
        assert!(resolve_workers(0, usize::MAX) >= 1);
    }
}
