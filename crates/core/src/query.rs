//! MAC query parameters.

use crate::engine::AlgorithmChoice;
use crate::error::MacError;
use crate::network::RoadSocialNetwork;
use rsn_geom::region::PrefRegion;
use rsn_graph::graph::VertexId;
use rsn_road::rangefilter::RangeFilterChoice;

/// A multi-attributed community search query (Problems 1 and 2).
#[derive(Debug, Clone)]
pub struct MacQuery {
    /// Query users `Q`.
    pub q: Vec<VertexId>,
    /// Coreness threshold `k`.
    pub k: u32,
    /// Query-distance threshold `t`.
    pub t: f64,
    /// Region of interest `R` in the preference domain.
    pub region: PrefRegion,
    /// Number of communities to report per partition (Problem 1); `1`
    /// corresponds to reporting only the top community.
    pub j: usize,
    /// Which strategy answers the Lemma-1 range filter ("which users are
    /// within t") as a set operation. `Auto` resolves through one
    /// deterministic cost model (`rsn_road::rangefilter::resolve_auto`): the
    /// bounded Dijkstra sweep at laptop scale, the multi-seed batched G-tree
    /// walk on indexed networks whose estimated radius-t ball dwarfs the
    /// indexed work (as on a measured 50k-vertex corridor, where the walk
    /// was 4–296× faster than the sweep); all strategies return identical
    /// user sets.
    pub filter: RangeFilterChoice,
    /// Which search algorithm answers the query. `Auto` (the default) takes
    /// the executing [`QuerySession`](crate::session::QuerySession)'s policy
    /// default, which is the exact global search unless the policy says
    /// `Local`.
    pub algorithm: AlgorithmChoice,
}

impl MacQuery {
    /// Creates a query with `j = 1` and automatic filter / algorithm choices.
    pub fn new(q: Vec<VertexId>, k: u32, t: f64, region: PrefRegion) -> Self {
        MacQuery {
            q,
            k,
            t,
            region,
            j: 1,
            filter: RangeFilterChoice::default(),
            algorithm: AlgorithmChoice::default(),
        }
    }

    /// Sets the top-j parameter.
    pub fn with_top_j(mut self, j: usize) -> Self {
        self.j = j;
        self
    }

    /// Selects the Lemma-1 range-filter strategy.
    pub fn with_range_filter(mut self, filter: RangeFilterChoice) -> Self {
        self.filter = filter;
        self
    }

    /// Selects the search algorithm (global / local / the policy's default).
    pub fn with_algorithm(mut self, algorithm: AlgorithmChoice) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// The coalescing/caching identity of this query: two queries with equal
    /// signatures have **identical answers** on the same engine epoch, so a
    /// serving layer may execute one of them and fan the result out to both
    /// (see `rsn-serve`'s request coalescing).
    ///
    /// The signature covers everything the *answer* depends on — `Q` (order
    /// included: it is part of the reported local ids), `k`, `t`, the region
    /// `R`, `j`, and the algorithm choice (the local framework is a
    /// heuristic, so `Global` and `Local` answers may legitimately differ).
    /// The range-filter strategy is deliberately excluded: all filter
    /// strategies are property-tested identical, so it only affects speed.
    pub fn signature(&self) -> QuerySignature {
        let mut signature = QuerySignature::empty();
        self.write_answer_key(self.algorithm, &mut signature);
        signature
    }

    /// Validates the query against a network.
    pub fn validate(&self, rsn: &RoadSocialNetwork) -> Result<(), MacError> {
        if self.q.is_empty() {
            return Err(MacError::EmptyQuery);
        }
        let n = rsn.num_users();
        for &v in &self.q {
            if v as usize >= n {
                return Err(MacError::QueryVertexOutOfRange {
                    vertex: v,
                    num_vertices: n,
                });
            }
        }
        if self.k == 0 {
            return Err(MacError::InvalidCoreness(self.k));
        }
        if !(self.t.is_finite() && self.t >= 0.0) {
            return Err(MacError::InvalidDistanceThreshold(self.t));
        }
        if self.j == 0 {
            return Err(MacError::InvalidTopJ(self.j));
        }
        if rsn.attribute_dim() != self.region.dim() + 1 {
            return Err(MacError::DimensionMismatch {
                region_dim: self.region.dim(),
                attribute_dim: rsn.attribute_dim(),
            });
        }
        Ok(())
    }
}

/// The hashable identity of a [`MacQuery`]'s *answer*: equal signatures ⇒
/// identical results on the same engine epoch. Floating-point parameters are
/// compared by their exact bit patterns (no epsilon): a false split costs one
/// redundant execution, a false merge would corrupt an answer, so the
/// comparison errs on the side of splitting.
///
/// Produced by [`MacQuery::signature`]; consumed by the session context
/// cache and `rsn-serve`'s request coalescing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySignature {
    q: Vec<VertexId>,
    k: u32,
    t_bits: u64,
    region_low_bits: Vec<u64>,
    region_high_bits: Vec<u64>,
    j: usize,
    algorithm: AlgorithmChoice,
}

impl MacQuery {
    /// Rebuilds `out` in place into this query's [`signature`](Self::signature)
    /// with the algorithm replaced by `algorithm` — the key of the session
    /// answer cache, where `algorithm` is the one the session resolved.
    /// Reuses `out`'s heap buffers, so a warmed caller (the session's
    /// cache-key husk) computes the key without allocating.
    pub(crate) fn write_answer_key(&self, algorithm: AlgorithmChoice, out: &mut QuerySignature) {
        out.q.clear();
        out.q.extend_from_slice(&self.q);
        out.k = self.k;
        out.t_bits = self.t.to_bits();
        out.region_low_bits.clear();
        out.region_low_bits
            .extend(self.region.lows().iter().map(|w| w.to_bits()));
        out.region_high_bits.clear();
        out.region_high_bits
            .extend(self.region.highs().iter().map(|w| w.to_bits()));
        out.j = self.j;
        out.algorithm = algorithm;
    }
}

impl QuerySignature {
    /// An empty signature husk for in-place rebuilding via
    /// [`MacQuery::write_answer_key`]; never equal to a real query's
    /// signature (queries validate non-empty `Q`).
    pub(crate) fn empty() -> Self {
        QuerySignature {
            q: Vec::new(),
            k: 0,
            t_bits: 0,
            region_low_bits: Vec::new(),
            region_high_bits: Vec::new(),
            j: 0,
            algorithm: AlgorithmChoice::Auto,
        }
    }

    /// The query users `Q`.
    pub(crate) fn users(&self) -> &[VertexId] {
        &self.q
    }

    /// The distance threshold `t`.
    pub(crate) fn t(&self) -> f64 {
        f64::from_bits(self.t_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_graph::graph::Graph;
    use rsn_road::network::{Location, RoadNetwork};

    fn network() -> RoadSocialNetwork {
        let social = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let road = RoadNetwork::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let locations = vec![
            Location::vertex(0),
            Location::vertex(1),
            Location::vertex(2),
        ];
        let attrs = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0]];
        RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
    }

    #[test]
    fn valid_query_passes() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.2, 0.4)]).unwrap();
        let q = MacQuery::new(vec![0], 2, 5.0, region).with_top_j(3);
        assert!(q.validate(&rsn).is_ok());
        assert_eq!(q.j, 3);
    }

    #[test]
    fn signatures_split_on_answer_relevant_fields_only() {
        let region = PrefRegion::from_ranges(&[(0.2, 0.4)]).unwrap();
        let base = MacQuery::new(vec![0, 1], 2, 5.0, region.clone());
        assert_eq!(base.signature(), base.clone().signature());
        // Every answer-relevant field splits the signature.
        assert_ne!(
            base.signature(),
            MacQuery::new(vec![1, 0], 2, 5.0, region.clone()).signature()
        );
        assert_ne!(
            base.signature(),
            MacQuery::new(vec![0, 1], 3, 5.0, region.clone()).signature()
        );
        assert_ne!(
            base.signature(),
            MacQuery::new(vec![0, 1], 2, 5.5, region.clone()).signature()
        );
        let other_region = PrefRegion::from_ranges(&[(0.2, 0.5)]).unwrap();
        assert_ne!(
            base.signature(),
            MacQuery::new(vec![0, 1], 2, 5.0, other_region).signature()
        );
        assert_ne!(base.signature(), base.clone().with_top_j(2).signature());
        assert_ne!(
            base.signature(),
            base.clone()
                .with_algorithm(AlgorithmChoice::Local)
                .signature()
        );
        // The filter strategy affects speed, never the answer: same signature.
        assert_eq!(
            base.signature(),
            base.clone()
                .with_range_filter(RangeFilterChoice::DijkstraSweep)
                .signature()
        );
        // The answer key is the signature under the resolved algorithm,
        // rebuilt in place on a husk of another query.
        let mut key = MacQuery::new(vec![2], 1, 0.5, region).signature();
        base.write_answer_key(AlgorithmChoice::Global, &mut key);
        assert_eq!(
            key,
            base.clone()
                .with_algorithm(AlgorithmChoice::Global)
                .signature()
        );
    }

    #[test]
    fn invalid_queries_rejected() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.2, 0.4)]).unwrap();
        let base = MacQuery::new(vec![0], 2, 5.0, region.clone());

        let mut q = base.clone();
        q.q = vec![];
        assert_eq!(q.validate(&rsn), Err(MacError::EmptyQuery));

        let mut q = base.clone();
        q.q = vec![9];
        assert!(matches!(
            q.validate(&rsn),
            Err(MacError::QueryVertexOutOfRange { .. })
        ));

        let mut q = base.clone();
        q.k = 0;
        assert_eq!(q.validate(&rsn), Err(MacError::InvalidCoreness(0)));

        let mut q = base.clone();
        q.t = f64::NAN;
        assert!(matches!(
            q.validate(&rsn),
            Err(MacError::InvalidDistanceThreshold(_))
        ));

        let mut q = base.clone();
        q.j = 0;
        assert_eq!(q.validate(&rsn), Err(MacError::InvalidTopJ(0)));

        // wrong dimensionality: 2-dim region for 2-dim attributes (needs 1)
        let bad_region = PrefRegion::from_ranges(&[(0.1, 0.2), (0.1, 0.2)]).unwrap();
        let q = MacQuery::new(vec![0], 2, 5.0, bad_region);
        assert!(matches!(
            q.validate(&rsn),
            Err(MacError::DimensionMismatch { .. })
        ));
    }
}
