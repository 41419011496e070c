//! Computation of the maximal (k,t)-core (Definition 7, Lemmas 1–3).
//!
//! The MAC search never needs to look outside the maximal (k,t)-core: Lemma 1
//! removes every user whose query distance exceeds `t` with a road-network
//! range query, Lemma 2 restricts to the maximal connected k-core containing
//! `Q`, and the coreness upper bound of Section III provides a constant-time
//! infeasibility check before the core decomposition runs.

use crate::error::MacError;
use crate::network::RoadSocialNetwork;
use crate::query::MacQuery;
use rsn_graph::core_decomp::{coreness_upper_bound, PeelScratch};
use rsn_graph::graph::VertexId;
use rsn_road::budget::BudgetTicker;
use rsn_road::gtree::LeafTargets;
use rsn_road::network::Location;
use rsn_road::rangefilter::{FilterScratch, QueryReach, RangeFilterChoice};

/// Reusable buffers for repeated (k,t)-core extractions against one network.
///
/// Everything network-sized that the extraction would otherwise allocate per
/// query lives here: the query-location list, the Lemma-1 membership mask
/// (which the peel then narrows in place to the core), the masked degrees and
/// stack of the peel ([`PeelScratch`]), and the filter's own scratch
/// ([`FilterScratch`]). A [`QuerySession`](crate::session::QuerySession)
/// owns one and threads it through every query, so a warmed extraction
/// allocates only the returned core.
#[derive(Debug, Default)]
pub struct KtScratch {
    /// Locations of the query users.
    pub(crate) q_locations: Vec<Location>,
    /// Lemma-1 membership mask over all users; the peel's working mask.
    pub(crate) within: Vec<bool>,
    /// Masked degrees and the peel/BFS stack.
    pub(crate) peel: PeelScratch,
    /// Range-filter working buffers (Dijkstra field, walk matrices, rows).
    pub(crate) filter: FilterScratch,
}

impl KtScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        KtScratch::default()
    }
}

/// The maximal (k,t)-core of a query, i.e. `H^t_k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KtCore {
    /// Member users (social ids), sorted ascending.
    pub vertices: Vec<VertexId>,
}

impl KtCore {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the core is empty (no (k,t)-core exists).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Computes the maximal (k,t)-core for a query, or `None` when it does not
/// exist.
///
/// One-shot convenience: allocates a fresh [`KtScratch`] and uses the query's
/// own [`filter`](MacQuery::filter) choice (analytic `Auto`). Serving loops
/// go through [`maximal_kt_core_with`] with session-held scratch and an
/// engine-resolved strategy.
pub fn maximal_kt_core(
    rsn: &RoadSocialNetwork,
    query: &MacQuery,
) -> Result<Option<KtCore>, MacError> {
    let mut scratch = KtScratch::new();
    maximal_kt_core_with(rsn, query, query.filter, None, &mut scratch)
}

/// Computes the maximal (k,t)-core with an explicit (engine-resolved)
/// range-filter strategy, optional pre-grouped G-tree user targets, and
/// caller-owned scratch — the allocation-free serving path, unbudgeted.
pub fn maximal_kt_core_with(
    rsn: &RoadSocialNetwork,
    query: &MacQuery,
    filter_choice: RangeFilterChoice,
    targets: Option<&LeafTargets>,
    scratch: &mut KtScratch,
) -> Result<Option<KtCore>, MacError> {
    let mut unlimited = BudgetTicker::unlimited();
    match maximal_kt_core_with_ticker(
        rsn,
        query,
        filter_choice,
        targets,
        scratch,
        &mut unlimited,
        None,
    )? {
        KtOutcome::Core(core) => Ok(Some(core)),
        KtOutcome::Empty => Ok(None),
        KtOutcome::Exhausted(_) => unreachable!("an unlimited ticker never exhausts"),
    }
}

/// Outcome of a (k,t)-core extraction under a budget ticker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum KtOutcome {
    /// The maximal (k,t)-core exists.
    Core(KtCore),
    /// No (k,t)-core exists for this query.
    Empty,
    /// The budget exhausted before the extraction finished, in the given
    /// pipeline phase.
    Exhausted(crate::result::QueryPhase),
}

/// The (k,t)-core extraction every entry point runs: the range filter
/// charges `ticker` as it goes and the peel is charged as a lump up front,
/// so a spent ticker stops the extraction before the expensive stages run.
/// Unbudgeted callers pass [`BudgetTicker::unlimited`]. With `reach`, the
/// filter also records its [`QueryReach`] (a cached session keeps it to
/// reuse the answer across road updates); without it the filter does no
/// extra work.
pub(crate) fn maximal_kt_core_with_ticker(
    rsn: &RoadSocialNetwork,
    query: &MacQuery,
    filter_choice: RangeFilterChoice,
    targets: Option<&LeafTargets>,
    scratch: &mut KtScratch,
    ticker: &mut BudgetTicker,
    reach: Option<&mut QueryReach>,
) -> Result<KtOutcome, MacError> {
    query.validate(rsn)?;
    let social = rsn.social();

    // Lemma 1: the road-network range filter, evaluated as one set operation
    // through the resolved RangeFilter strategy (see `RangeFilterChoice`:
    // the bounded Dijkstra sweep or the multi-seed batched G-tree walk).
    let KtScratch {
        q_locations,
        within,
        peel,
        filter: filter_scratch,
    } = scratch;
    q_locations.clear();
    q_locations.extend(query.q.iter().map(|&v| *rsn.location(v)));
    let filter = rsn.range_filter(filter_choice, q_locations.len(), query.t);
    if !filter.users_within_with_ticker(
        rsn.road(),
        q_locations,
        query.t,
        rsn.locations(),
        targets,
        filter_scratch,
        within,
        ticker,
        reach,
    ) {
        return Ok(KtOutcome::Exhausted(crate::result::QueryPhase::Filter));
    }
    if query.q.iter().any(|&v| !within[v as usize]) {
        // some query users are farther than t from each other
        return Ok(KtOutcome::Empty);
    }

    // Coreness upper bound on the filtered subgraph (Section III), from the
    // masked degrees the peel starts with.
    let peel = peel.load(social, within);
    let (n_f, m_f) = (peel.num_vertices(), peel.num_edges());
    if n_f == 0 || query.k > coreness_upper_bound(n_f, m_f).max(1) {
        return Ok(KtOutcome::Empty);
    }

    // The peel visits every filtered vertex and edge a bounded number of
    // times; charge it as one lump before running it.
    if !ticker.charge((n_f + m_f) as u64) {
        return Ok(KtOutcome::Exhausted(
            crate::result::QueryPhase::CoreExtraction,
        ));
    }

    // Lemma 2: maximal connected k-core containing Q, peeled in place inside
    // the Lemma-1 mask on the social graph itself.
    Ok(match peel.connected_k_core_containing(query.k, &query.q)? {
        Some(vertices) => KtOutcome::Core(KtCore { vertices }),
        None => KtOutcome::Empty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_geom::region::PrefRegion;
    use rsn_graph::graph::Graph;
    use rsn_road::network::RoadNetwork;

    /// Two triangles of users; users 0-2 near road vertex 0, users 3-5 far away.
    fn network() -> RoadSocialNetwork {
        let social =
            Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        // road: a long line 0 -1- 1 -1- 2 -10- 3
        let road = RoadNetwork::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 10.0)]);
        let locations = vec![
            Location::vertex(0),
            Location::vertex(0),
            Location::vertex(1),
            Location::vertex(3),
            Location::vertex(3),
            Location::vertex(3),
        ];
        let attrs = vec![vec![1.0, 1.0]; 6];
        RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
    }

    fn region() -> PrefRegion {
        PrefRegion::from_ranges(&[(0.2, 0.4)]).unwrap()
    }

    #[test]
    fn distance_filter_removes_far_users() {
        let rsn = network();
        // t = 2: only users located within distance 2 of user 0 remain
        let q = MacQuery::new(vec![0], 2, 2.0, region());
        let core = maximal_kt_core(&rsn, &q).unwrap().unwrap();
        assert_eq!(core.vertices, vec![0, 1, 2]);

        // t large enough: the 2-core containing 0 is still only the first
        // triangle because vertex 3's triangle connects through vertex 2/3
        // with enough degree -- actually the whole graph is a 2-core.
        let q2 = MacQuery::new(vec![0], 2, 100.0, region());
        let core2 = maximal_kt_core(&rsn, &q2).unwrap().unwrap();
        assert_eq!(core2.vertices.len(), 6);
    }

    #[test]
    fn no_core_when_query_too_far_apart() {
        let rsn = network();
        let q = MacQuery::new(vec![0, 3], 2, 2.0, region());
        assert_eq!(maximal_kt_core(&rsn, &q).unwrap(), None);
    }

    #[test]
    fn no_core_when_k_too_large() {
        let rsn = network();
        let q = MacQuery::new(vec![0], 5, 100.0, region());
        assert_eq!(maximal_kt_core(&rsn, &q).unwrap(), None);
    }

    #[test]
    fn invalid_query_is_an_error() {
        let rsn = network();
        let q = MacQuery::new(vec![], 2, 2.0, region());
        assert!(maximal_kt_core(&rsn, &q).is_err());
    }

    #[test]
    fn gtree_is_present_only_when_indexed() {
        let indexed = network().with_gtree_index_capacity(4);
        assert!(indexed.gtree().is_some());
        let plain = network();
        assert!(plain.gtree().is_none());
    }

    #[test]
    fn all_range_filter_strategies_yield_identical_kt_cores() {
        use rsn_road::rangefilter::RangeFilterChoice;
        let rsn = network().with_gtree_index_capacity(4);
        let strategies = [
            RangeFilterChoice::Auto,
            RangeFilterChoice::DijkstraSweep,
            RangeFilterChoice::GTreeMultiSeedBatched,
        ];
        for (k, t) in [(2u32, 2.0f64), (2, 100.0), (3, 2.0), (1, 11.0)] {
            let reference = maximal_kt_core(
                &rsn,
                &MacQuery::new(vec![0], k, t, region())
                    .with_range_filter(RangeFilterChoice::DijkstraSweep),
            )
            .unwrap();
            for &choice in &strategies {
                let q = MacQuery::new(vec![0], k, t, region()).with_range_filter(choice);
                assert_eq!(
                    maximal_kt_core(&rsn, &q).unwrap(),
                    reference,
                    "filter {choice:?} disagrees for k={k}, t={t}"
                );
            }
        }
    }

    #[test]
    fn gtree_filter_choice_without_index_falls_back_to_dijkstra() {
        use rsn_road::rangefilter::RangeFilterChoice;
        let rsn = network();
        assert!(rsn.gtree().is_none());
        let q = MacQuery::new(vec![0], 2, 2.0, region())
            .with_range_filter(RangeFilterChoice::GTreeMultiSeedBatched);
        let core = maximal_kt_core(&rsn, &q).unwrap().unwrap();
        assert_eq!(core.vertices, vec![0, 1, 2]);
    }
}
