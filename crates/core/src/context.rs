//! Shared search context: the maximal (k,t)-core as a compact local graph,
//! plus the r-dominance graph `G_d` built over it.
//!
//! Both the global search (Algorithm 1) and the local search framework
//! (Algorithm 3) start with the same three steps — range filter, (k,t)-core
//! extraction, `G_d` construction — so they share this context.

use crate::error::MacError;
use crate::ktcore::{maximal_kt_core_with_ticker, KtOutcome, KtScratch};
use crate::network::RoadSocialNetwork;
use crate::query::MacQuery;
use crate::result::{Community, QueryPhase};
use rsn_dom::attrs::AttrMatrix;
use rsn_dom::dominance::DominanceGraph;
use rsn_geom::weights::score_reduced;
use rsn_graph::graph::{Graph, VertexId};
use rsn_road::budget::BudgetTicker;
use rsn_road::gtree::LeafTargets;
use rsn_road::rangefilter::{QueryReach, RangeFilterChoice};

/// Reusable buffers for repeated [`SearchContext`] builds against one
/// network: the (k,t)-core extraction scratch plus the social-id → local-id
/// buffer of the induced-subgraph build. Owned by a
/// [`QuerySession`](crate::session::QuerySession) and threaded through every
/// query it executes, so the network-sized allocations happen once per
/// session instead of once per query. (The core-local structures — induced
/// graph, attribute matrix, dominance graph — are *returned* inside the
/// context and therefore owned per query by construction.)
#[derive(Debug, Default)]
pub struct ContextScratch {
    /// (k,t)-core extraction buffers (filter scratch, peel mask and stack).
    pub(crate) kt: KtScratch,
    /// Social-id → local-id buffer of
    /// [`Graph::induced_subgraph_with`]; all `u32::MAX` between builds.
    pub(crate) old_to_new: Vec<u32>,
}

impl ContextScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ContextScratch::default()
    }
}

/// Outcome of a [`SearchContext`] build under a budget ticker.
#[derive(Debug)]
pub(crate) enum BuildOutcome<'a> {
    /// The context is ready for the search stages (boxed: the context is an
    /// order of magnitude larger than the other variants).
    Ready(Box<SearchContext<'a>>),
    /// No (k,t)-core exists; the query has an empty answer.
    Empty,
    /// The budget exhausted in the given pipeline phase before the context
    /// was ready.
    Exhausted(QueryPhase),
}

/// The owned parts of a [`SearchContext`] — everything except the `rsn` /
/// `query` borrows. This is what the session-level
/// [`ContextCache`](crate::ctxcache::ContextCache) stores between queries:
/// the expensive-to-build core-local structures (induced (k,t)-core graph,
/// attribute matrix, and above all the `O(core²)`-to-build r-dominance
/// graph) survive while the lifetimes of the borrowing context do not.
/// The attribute matrix is held here once; `G_d` keeps only its ids and
/// dominator closures, so [`approx_bytes`](Self::approx_bytes) counts the
/// matrix once.
#[derive(Debug, Clone)]
pub struct ContextParts {
    core_vertices: Vec<VertexId>,
    local_graph: Graph,
    local_q: Vec<u32>,
    attrs: AttrMatrix,
    gd: DominanceGraph,
}

impl ContextParts {
    /// Number of vertices in the (k,t)-core.
    pub fn core_size(&self) -> usize {
        self.core_vertices.len()
    }

    /// Approximate heap footprint, for cache accounting/diagnostics.
    pub fn approx_bytes(&self) -> usize {
        self.core_vertices.len() * std::mem::size_of::<VertexId>()
            + self.local_graph.num_edges() * 2 * std::mem::size_of::<u32>()
            + self.local_q.len() * std::mem::size_of::<u32>()
            + self.attrs.memory_bytes()
            + self.gd.memory_bytes()
    }
}

/// Shared state for one MAC query.
#[derive(Debug, Clone)]
pub struct SearchContext<'a> {
    /// The queried network.
    pub rsn: &'a RoadSocialNetwork,
    /// The query.
    pub query: &'a MacQuery,
    /// Members of the maximal (k,t)-core, as social ids (sorted).
    pub core_vertices: Vec<VertexId>,
    /// The (k,t)-core as an induced graph over local ids `0..n'`.
    pub local_graph: Graph,
    /// Query vertices translated to local ids.
    pub local_q: Vec<u32>,
    /// Attribute vectors of the core members, by local id, packed row-major
    /// (`attrs[v]` / `attrs.row(v)` is the d-dimensional vector of `v`).
    pub attrs: AttrMatrix,
    /// The r-dominance graph over local ids.
    pub gd: DominanceGraph,
}

impl<'a> SearchContext<'a> {
    /// Builds the context. Returns `Ok(None)` when no (k,t)-core exists (the
    /// query then has an empty answer).
    ///
    /// One-shot convenience over [`build_with`](Self::build_with): allocates
    /// fresh scratch and uses the query's own [`filter`](MacQuery::filter)
    /// choice (analytic `Auto`).
    pub fn build(
        rsn: &'a RoadSocialNetwork,
        query: &'a MacQuery,
    ) -> Result<Option<Self>, MacError> {
        let mut scratch = ContextScratch::new();
        Self::build_with(rsn, query, query.filter, None, &mut scratch)
    }

    /// Builds the context with an explicit (engine-resolved) range-filter
    /// strategy, optional pre-grouped G-tree user targets, and caller-owned
    /// scratch — the serving path's build, run with an unlimited budget.
    pub fn build_with(
        rsn: &'a RoadSocialNetwork,
        query: &'a MacQuery,
        filter_choice: RangeFilterChoice,
        targets: Option<&LeafTargets>,
        scratch: &mut ContextScratch,
    ) -> Result<Option<Self>, MacError> {
        let mut unlimited = BudgetTicker::unlimited();
        match Self::build_with_ticker(
            rsn,
            query,
            filter_choice,
            targets,
            scratch,
            &mut unlimited,
            None,
        )? {
            BuildOutcome::Ready(ctx) => Ok(Some(*ctx)),
            BuildOutcome::Empty => Ok(None),
            BuildOutcome::Exhausted(_) => unreachable!("an unlimited ticker never exhausts"),
        }
    }

    /// The context build every entry point runs — the serving path of
    /// [`QuerySession`](crate::session::QuerySession). The (k,t)-core
    /// extraction charges `ticker` as it goes and the r-dominance graph
    /// build is charged after the fact by its measured test count, so an
    /// exhausted budget stops the pipeline between stages. `reach` asks the
    /// range filter to record its [`QueryReach`].
    pub(crate) fn build_with_ticker(
        rsn: &'a RoadSocialNetwork,
        query: &'a MacQuery,
        filter_choice: RangeFilterChoice,
        targets: Option<&LeafTargets>,
        scratch: &mut ContextScratch,
        ticker: &mut BudgetTicker,
        reach: Option<&mut QueryReach>,
    ) -> Result<BuildOutcome<'a>, MacError> {
        let core = match maximal_kt_core_with_ticker(
            rsn,
            query,
            filter_choice,
            targets,
            &mut scratch.kt,
            ticker,
            reach,
        )? {
            KtOutcome::Core(core) => core,
            KtOutcome::Empty => return Ok(BuildOutcome::Empty),
            KtOutcome::Exhausted(phase) => return Ok(BuildOutcome::Exhausted(phase)),
        };
        let ctx = Self::assemble(rsn, query, core.vertices, scratch);
        // The dominance-graph build already happened; charge its measured
        // cost so the budget reflects it before the search stages start.
        if !ticker.charge(ctx.gd.tests_performed() as u64) {
            return Ok(BuildOutcome::Exhausted(QueryPhase::ContextBuild));
        }
        Ok(BuildOutcome::Ready(Box::new(ctx)))
    }

    /// Tail of the context build: induced local graph, local query ids,
    /// attribute matrix, and the r-dominance graph.
    fn assemble(
        rsn: &'a RoadSocialNetwork,
        query: &'a MacQuery,
        core_vertices: Vec<VertexId>,
        scratch: &mut ContextScratch,
    ) -> Self {
        let (local_graph, new_to_old) = rsn
            .social()
            .induced_subgraph_with(&core_vertices, &mut scratch.old_to_new);
        // The core is sorted and contains Q, so a local id is a rank.
        let local_q: Vec<u32> = query
            .q
            .iter()
            .map(|v| new_to_old.binary_search(v).expect("the core contains Q") as u32)
            .collect();
        let mut attrs = AttrMatrix::with_capacity(rsn.attribute_dim(), new_to_old.len());
        for &old in &new_to_old {
            attrs.push_row(rsn.attributes(old));
        }
        let local_ids: Vec<u32> = (0..new_to_old.len() as u32).collect();
        let gd = DominanceGraph::build_flat(&local_ids, &attrs, &query.region);
        SearchContext {
            rsn,
            query,
            core_vertices: new_to_old,
            local_graph,
            local_q,
            attrs,
            gd,
        }
    }

    /// Disassembles the context into its owned, network-independent parts so
    /// a [`ContextCache`](crate::ctxcache::ContextCache) can keep them across
    /// queries. The inverse of [`from_parts`](Self::from_parts).
    pub fn into_parts(self) -> ContextParts {
        ContextParts {
            core_vertices: self.core_vertices,
            local_graph: self.local_graph,
            local_q: self.local_q,
            attrs: self.attrs,
            gd: self.gd,
        }
    }

    /// Reassembles a context from cached parts (zero-copy: the parts are
    /// moved, not cloned). The caller owes the cache coherence argument:
    /// `parts` must have been produced by a query with the same
    /// [context signature](crate::query::QuerySignature::context_signature)
    /// on the same engine epoch — the session context cache enforces both.
    pub fn from_parts(
        rsn: &'a RoadSocialNetwork,
        query: &'a MacQuery,
        parts: ContextParts,
    ) -> Self {
        SearchContext {
            rsn,
            query,
            core_vertices: parts.core_vertices,
            local_graph: parts.local_graph,
            local_q: parts.local_q,
            attrs: parts.attrs,
            gd: parts.gd,
        }
    }

    /// Number of vertices in the (k,t)-core.
    pub fn core_size(&self) -> usize {
        self.core_vertices.len()
    }

    /// Number of edges in the (k,t)-core.
    pub fn core_edges(&self) -> usize {
        self.local_graph.num_edges()
    }

    /// Score of a local vertex under a reduced weight vector.
    #[inline]
    pub fn score(&self, local: u32, reduced_w: &[f64]) -> f64 {
        score_reduced(self.attrs.row(local as usize), reduced_w)
    }

    /// Translates a set of local ids back to a [`Community`] of social ids.
    pub fn community_from_locals(&self, locals: &[u32]) -> Community {
        Community::new(
            locals
                .iter()
                .map(|&v| self.core_vertices[v as usize])
                .collect(),
        )
    }

    /// Buffer-reusing [`community_from_locals`](Self::community_from_locals):
    /// rebuilds `out` in place so pooled communities recycle their member
    /// vectors across queries.
    pub fn community_from_locals_into(&self, locals: &[u32], out: &mut Community) {
        out.vertices.clear();
        out.vertices
            .extend(locals.iter().map(|&v| self.core_vertices[v as usize]));
        out.vertices.sort_unstable();
        out.vertices.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_geom::region::PrefRegion;
    use rsn_road::network::{Location, RoadNetwork};

    fn simple_network() -> RoadSocialNetwork {
        // K4 on users 0..3 plus pendant user 4
        let social =
            Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
        let road = RoadNetwork::from_edges(2, &[(0, 1, 1.0)]);
        let locations = vec![Location::vertex(0); 5];
        let attrs = vec![
            vec![5.0, 1.0],
            vec![4.0, 2.0],
            vec![3.0, 3.0],
            vec![2.0, 4.0],
            vec![1.0, 5.0],
        ];
        RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
    }

    #[test]
    fn context_builds_local_view() {
        let rsn = simple_network();
        let region = PrefRegion::from_ranges(&[(0.3, 0.7)]).unwrap();
        let query = MacQuery::new(vec![0], 3, 10.0, region);
        let ctx = SearchContext::build(&rsn, &query).unwrap().unwrap();
        assert_eq!(ctx.core_size(), 4);
        assert_eq!(ctx.core_edges(), 6);
        assert_eq!(ctx.local_q.len(), 1);
        assert_eq!(ctx.gd.num_vertices(), 4);
        // local scores equal the direct weighted sums
        let s = ctx.score(0, &[0.5]);
        assert!((s - 3.0).abs() < 1e-12);
        let community = ctx.community_from_locals(&[0, 1]);
        assert_eq!(community.vertices.len(), 2);
    }

    #[test]
    fn context_none_without_core() {
        let rsn = simple_network();
        let region = PrefRegion::from_ranges(&[(0.3, 0.7)]).unwrap();
        let query = MacQuery::new(vec![4], 3, 10.0, region);
        assert!(SearchContext::build(&rsn, &query).unwrap().is_none());
    }
}
