//! Result types shared by the global and local search algorithms.

use rsn_geom::cell::Cell;
use rsn_graph::graph::VertexId;

/// A community: a set of social users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Community {
    /// Member user ids, sorted ascending.
    pub vertices: Vec<VertexId>,
}

impl Community {
    /// Creates a community from an unsorted member list.
    pub fn new(mut vertices: Vec<VertexId>) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        Community { vertices }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the community has no members.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Whether the community contains a user.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Whether this community contains all members of `other`.
    pub fn contains_all(&self, other: &Community) -> bool {
        other.vertices.iter().all(|&v| self.contains(v))
    }
}

/// One partition of the region `R` together with its communities.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The sub-partition of `R` (in H-representation).
    pub cell: Cell,
    /// A representative reduced weight vector inside the cell.
    pub sample_weight: Vec<f64>,
    /// Communities for this cell, best first. For Problem 2 (non-contained
    /// MAC) this has exactly one entry; for Problem 1 it holds the top-j MACs.
    pub communities: Vec<Community>,
}

/// Counters describing the work a search performed (used by the benchmark
/// harness to reproduce Fig. 11 and Fig. 12).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Number of vertices in the maximal (k,t)-core.
    pub kt_core_vertices: usize,
    /// Number of edges in the maximal (k,t)-core.
    pub kt_core_edges: usize,
    /// Number of partitions of `R` materialized during the search.
    pub partitions_explored: usize,
    /// Number of global-search arrangements that no half-space split
    /// (Algorithm 2, lines 1–2): their cell passes through as its own single
    /// sub-partition. Always 0 for the local search.
    pub unsplit_arrangements: usize,
    /// Number of distinct half-spaces computed.
    pub halfspaces_computed: usize,
    /// Number of half-space insertions into arrangements.
    pub halfspace_insertions: usize,
    /// Number of r-dominance tests performed while building `G_d`.
    pub dominance_tests: usize,
    /// Number of candidate communities generated (local search only).
    pub candidates_generated: usize,
    /// Approximate peak memory of the dominance graph + arrangements, bytes.
    pub memory_bytes: usize,
    /// Number of worker threads used by a parallel global search (0 when the
    /// exploration ran serially on the calling thread).
    pub parallel_workers: usize,
    /// Number of in-flight DFS subtrees migrated between workers by the
    /// work-stealing scheduler (0 for serial runs).
    pub tasks_stolen: usize,
    /// Elapsed wall-clock time in seconds.
    pub elapsed_seconds: f64,
}

impl SearchStats {
    /// Folds the counters of one parallel worker into this (root) record:
    /// work counters add up, peak memory takes the maximum, and the
    /// query-level fields (core size, dominance tests, elapsed time) keep the
    /// root's values.
    pub(crate) fn merge_worker(&mut self, worker: &SearchStats) {
        self.partitions_explored += worker.partitions_explored;
        self.unsplit_arrangements += worker.unsplit_arrangements;
        self.halfspaces_computed += worker.halfspaces_computed;
        self.halfspace_insertions += worker.halfspace_insertions;
        self.tasks_stolen += worker.tasks_stolen;
        self.memory_bytes = self.memory_bytes.max(worker.memory_bytes);
    }
}

/// The answer to a MAC query: a set of cells covering (part of) `R`, each with
/// its communities, plus execution statistics.
#[derive(Debug, Clone)]
pub struct MacSearchResult {
    /// Per-partition results.
    pub cells: Vec<CellResult>,
    /// Execution statistics.
    pub stats: SearchStats,
}

impl MacSearchResult {
    /// All distinct communities across cells (deduplicated, order of first
    /// appearance). For Problem 2 this is the set of non-contained MACs.
    pub fn distinct_communities(&self) -> Vec<&Community> {
        let mut seen: Vec<&Community> = Vec::new();
        for cell in &self.cells {
            for c in &cell.communities {
                if !seen.iter().any(|s| s.vertices == c.vertices) {
                    seen.push(c);
                }
            }
        }
        seen
    }

    /// Number of cells in the answer.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether the query produced no community at all (e.g. no (k,t)-core).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Which stage of the query pipeline a budgeted run was in when it stopped
/// (or finished).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPhase {
    /// The Lemma-1 range filter (who is within query distance `t`).
    Filter,
    /// Maximal (k,t)-core extraction (peeling).
    CoreExtraction,
    /// Search-context construction (r-dominance graph build).
    ContextBuild,
    /// Global search over the arrangement of `R`.
    GlobalSearch,
    /// Local search candidate generation and verification.
    LocalSearch,
}

impl QueryPhase {
    /// Short label for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            QueryPhase::Filter => "filter",
            QueryPhase::CoreExtraction => "core-extraction",
            QueryPhase::ContextBuild => "context-build",
            QueryPhase::GlobalSearch => "global-search",
            QueryPhase::LocalSearch => "local-search",
        }
    }
}

/// Progress counters of a budget-limited run: how far the search got before
/// the budget exhausted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryProgress {
    /// The pipeline stage the run stopped in.
    pub phase: QueryPhase,
    /// Work units the search completed (stage-specific: arrangement tasks in
    /// the global search, candidates in the local search).
    pub explored: u64,
    /// Work units known to be left undone when the budget exhausted (a lower
    /// bound: unexplored subtrees may have expanded further).
    pub remaining: u64,
}

impl std::fmt::Display for QueryProgress {
    /// One-line log form: `global-search: 1200 explored, 3 remaining`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} explored, {} remaining",
            self.phase.name(),
            self.explored,
            self.remaining
        )
    }
}

impl QueryProgress {
    /// The [`Display`](std::fmt::Display) form as an owned string, for
    /// callers assembling structured log records.
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

/// A budget-exhausted query answer: the best-so-far communities plus why and
/// where the run stopped.
#[derive(Debug, Clone)]
pub struct PartialResult {
    /// Communities confirmed before exhaustion. Every cell is exact — a
    /// subset of the full run's answer — but cells the search never reached
    /// are missing.
    pub result: MacSearchResult,
    /// Why the budget exhausted.
    pub cause: rsn_road::ExhaustionCause,
    /// How far the run got.
    pub progress: QueryProgress,
}

/// The outcome of a budgeted query: either the exact answer, or the
/// best-so-far answer of a run stopped by its
/// [`QueryBudget`](crate::budget::QueryBudget).
///
/// ```
/// use rsn_core::{MacEngine, MacQuery, QueryBudget, QueryOutcome, RoadSocialNetwork};
/// # fn demo(engine: &MacEngine, query: &MacQuery) -> Result<(), rsn_core::MacError> {
/// let mut session = engine.session();
/// match session.execute_with_budget(query, &QueryBudget::new().with_work_limit(100_000))? {
///     QueryOutcome::Complete(result) => println!("{} cells", result.num_cells()),
///     QueryOutcome::Partial(partial) => println!(
///         "stopped by {} in {}: {} cells so far",
///         partial.cause,
///         partial.progress.phase.name(),
///         partial.result.num_cells()
///     ),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The search ran to completion; the result is exact.
    Complete(MacSearchResult),
    /// The budget exhausted first; the result holds every community
    /// confirmed so far.
    Partial(PartialResult),
}

impl QueryOutcome {
    /// The result payload, complete or partial.
    pub fn result(&self) -> &MacSearchResult {
        match self {
            QueryOutcome::Complete(r) => r,
            QueryOutcome::Partial(p) => &p.result,
        }
    }

    /// Consumes the outcome, returning the result payload.
    pub fn into_result(self) -> MacSearchResult {
        match self {
            QueryOutcome::Complete(r) => r,
            QueryOutcome::Partial(p) => p.result,
        }
    }

    /// Whether the search ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, QueryOutcome::Complete(_))
    }

    /// The [`Display`](std::fmt::Display) form as an owned string, for
    /// callers assembling structured log records.
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for QueryOutcome {
    /// One-line log form a serving loop can emit without reaching into the
    /// result internals:
    /// `complete: 3 cells, 2 communities, 1.24ms` or
    /// `partial (deadline exceeded; global-search: 1200 explored, 3 remaining): 1 cell, 0.50ms`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cells = |r: &MacSearchResult, f: &mut std::fmt::Formatter<'_>| {
            write!(
                f,
                "{} cell{}, {} communit{}, {:.2}ms",
                r.num_cells(),
                if r.num_cells() == 1 { "" } else { "s" },
                r.distinct_communities().len(),
                if r.distinct_communities().len() == 1 {
                    "y"
                } else {
                    "ies"
                },
                r.stats.elapsed_seconds * 1e3
            )
        };
        match self {
            QueryOutcome::Complete(r) => {
                write!(f, "complete: ")?;
                cells(r, f)
            }
            QueryOutcome::Partial(p) => {
                write!(f, "partial ({}; {}): ", p.cause, p.progress)?;
                cells(&p.result, f)
            }
        }
    }
}

/// Internal carrier of one budgeted algorithm stage: the communities found,
/// whether the stage completed, and its work counters.
#[derive(Debug)]
pub(crate) struct BudgetedRun {
    /// Cells confirmed so far (exact, possibly incomplete coverage).
    pub result: MacSearchResult,
    /// `true` when the stage ran to completion.
    pub completed: bool,
    /// Work units completed.
    pub explored: u64,
    /// Work units known undone (0 when `completed`).
    pub remaining: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_geom::region::PrefRegion;

    #[test]
    fn community_basics() {
        let c = Community::new(vec![5, 1, 3, 3]);
        assert_eq!(c.vertices, vec![1, 3, 5]);
        assert_eq!(c.len(), 3);
        assert!(c.contains(3));
        assert!(!c.contains(2));
        let sub = Community::new(vec![1, 5]);
        assert!(c.contains_all(&sub));
        assert!(!sub.contains_all(&c));
        assert!(!c.is_empty());
    }

    #[test]
    fn distinct_communities_deduplicate() {
        let region = PrefRegion::from_ranges(&[(0.1, 0.5)]).unwrap();
        let cell = Cell::from_region(&region);
        let result = MacSearchResult {
            cells: vec![
                CellResult {
                    cell: cell.clone(),
                    sample_weight: vec![0.2],
                    communities: vec![Community::new(vec![1, 2]), Community::new(vec![1, 2, 3])],
                },
                CellResult {
                    cell,
                    sample_weight: vec![0.4],
                    communities: vec![Community::new(vec![2, 1])],
                },
            ],
            stats: SearchStats::default(),
        };
        assert_eq!(result.num_cells(), 2);
        assert_eq!(result.distinct_communities().len(), 2);
        assert!(!result.is_empty());
    }
}
