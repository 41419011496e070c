//! The multi-attributed road-social network `(G_r, G_s)`.

use crate::error::MacError;
use rsn_graph::graph::{Graph, VertexId};
use rsn_road::gtree::{GTree, GTreeUpdateStats};
use rsn_road::network::{EdgeUpdate, Location, RoadNetwork};
use rsn_road::rangefilter::{resolve_auto, RangeFilter, RangeFilterChoice};
use std::sync::Arc;

/// What [`RoadSocialNetwork::apply_edge_updates`] changed beyond the edge
/// weights themselves.
#[derive(Debug, Clone, Default)]
pub struct EdgeUpdateOutcome {
    /// G-tree incremental-refresh statistics (`None` without an index).
    pub gtree: Option<GTreeUpdateStats>,
    /// Users whose location sits part-way along one of the reweighted edges:
    /// their far-endpoint seed offsets (`w - offset`) changed with the
    /// weight, so any grouped filter seeds must be refreshed.
    pub users_on_reweighted_edges: Vec<VertexId>,
}

/// A road-social network: a social graph whose users carry a location in a
/// road network and a d-dimensional attribute vector (Section II-A).
///
/// A network optionally carries a prebuilt [`GTree`] index over its road
/// network ([`with_gtree_index`](Self::with_gtree_index)); queries then serve
/// the Lemma-1 range filter and all `D_Q` evaluations from the G-tree instead
/// of running per-query Dijkstra sweeps.
/// Cloning a network is cheap: the heavy components — social graph, road
/// network, attribute table, G-tree index — live behind [`Arc`]s and are
/// shared until a mutation actually touches them (copy-on-write via
/// [`Arc::make_mut`]). A user-churn delta therefore copies only the
/// per-user `locations` vector. The G-tree shares its nodes one by one (each
/// node sits behind its own `Arc`): an edge reweight copies the tree's
/// per-vertex tables and only the nodes its refresh recomputes, while a
/// previous epoch keeps sharing every other node.
#[derive(Debug, Clone)]
pub struct RoadSocialNetwork {
    social: Arc<Graph>,
    road: Arc<RoadNetwork>,
    /// `locations[v]` = location of social user `v` in the road network.
    locations: Vec<Location>,
    /// `attrs[v]` = d-dimensional attribute vector of social user `v`.
    attrs: Arc<Vec<Vec<f64>>>,
    dim: usize,
    /// Optional hierarchical distance index over `road`.
    gtree: Option<Arc<GTree>>,
}

impl RoadSocialNetwork {
    /// Assembles and validates a road-social network.
    ///
    /// Requirements: one location and one attribute vector per social user,
    /// all attribute vectors of equal dimensionality `d ≥ 1`, and every
    /// location valid in the road network.
    pub fn new(
        social: Graph,
        road: RoadNetwork,
        locations: Vec<Location>,
        attrs: Vec<Vec<f64>>,
    ) -> Result<Self, MacError> {
        let n = social.num_vertices();
        if locations.len() != n {
            return Err(MacError::InconsistentNetwork(format!(
                "{} locations for {} users",
                locations.len(),
                n
            )));
        }
        if attrs.len() != n {
            return Err(MacError::InconsistentNetwork(format!(
                "{} attribute vectors for {} users",
                attrs.len(),
                n
            )));
        }
        let dim = attrs.first().map(|a| a.len()).unwrap_or(0);
        if n > 0 && dim == 0 {
            return Err(MacError::InconsistentNetwork(
                "attribute vectors must have at least one dimension".into(),
            ));
        }
        for (v, a) in attrs.iter().enumerate() {
            if a.len() != dim {
                return Err(MacError::InconsistentNetwork(format!(
                    "user {v} has {} attributes, expected {dim}",
                    a.len()
                )));
            }
            if a.iter().any(|x| !x.is_finite()) {
                return Err(MacError::InconsistentNetwork(format!(
                    "user {v} has a non-finite attribute value"
                )));
            }
        }
        for loc in &locations {
            road.validate_location(loc)?;
        }
        Ok(RoadSocialNetwork {
            social: Arc::new(social),
            road: Arc::new(road),
            locations,
            attrs: Arc::new(attrs),
            dim,
            gtree: None,
        })
    }

    /// Builds (or rebuilds) the G-tree index over the road network, enabling
    /// the G-tree range filter for subsequent queries.
    pub fn with_gtree_index(mut self) -> Self {
        self.gtree = Some(Arc::new(GTree::build(&self.road)));
        self
    }

    /// Like [`with_gtree_index`](Self::with_gtree_index) with an explicit
    /// leaf capacity (G-tree fan-out tuning knob).
    pub fn with_gtree_index_capacity(mut self, leaf_capacity: usize) -> Self {
        self.gtree = Some(Arc::new(GTree::build_with_capacity(
            &self.road,
            leaf_capacity,
        )));
        self
    }

    /// Like [`with_gtree_index_capacity`](Self::with_gtree_index_capacity)
    /// with an explicit partition fanout as well (`fanout = 2` builds the
    /// binary-bisection reference tree; queries are identical across fanouts,
    /// only build time and matrix sizes differ).
    pub fn with_gtree_index_params(mut self, leaf_capacity: usize, fanout: usize) -> Self {
        self.gtree = Some(Arc::new(GTree::build_with_params(
            &self.road,
            leaf_capacity,
            fanout,
        )));
        self
    }

    /// The G-tree index, when one has been built.
    pub fn gtree(&self) -> Option<&GTree> {
        self.gtree.as_deref()
    }

    /// Applies a batch of road-edge **reweights** to the network, refreshing
    /// the G-tree index incrementally (dirty leaf-to-root matrix paths only,
    /// [`GTree::apply_edge_updates`]) instead of rebuilding it.
    ///
    /// All updates are validated first — every named edge must exist with a
    /// finite non-negative weight, and no user's on-edge location may be left
    /// with an offset beyond its edge's new length — so an invalid batch is
    /// rejected whole and the network is untouched. Returns the index's
    /// update statistics (`None` without an index) and the users located on
    /// the reweighted edges (their grouped filter seeds carry partial-edge
    /// offsets that the new weights changed — see
    /// [`rsn_road::rangefilter::add_user_target`]).
    pub fn apply_edge_updates(
        &mut self,
        updates: &[EdgeUpdate],
    ) -> Result<EdgeUpdateOutcome, MacError> {
        // Stranded-offset validation + affected-user collection: a user
        // part-way along a reweighted edge keeps its absolute offset from its
        // location's `u`, so the final weight must still cover it (the last
        // update of an edge wins). Both the update endpoints and a stored
        // `Location::OnEdge` may name the edge in either order, so everything
        // is canonicalized to `(min, max)` before matching.
        let canonical = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
        let mut final_weight: std::collections::HashMap<(u32, u32), f64> =
            std::collections::HashMap::new();
        for upd in updates {
            final_weight.insert(canonical(upd.u, upd.v), upd.weight);
        }
        let mut users_on_reweighted_edges = Vec::new();
        for (user, loc) in self.locations.iter().enumerate() {
            if let Location::OnEdge { u, v, offset } = *loc {
                if let Some(&w) = final_weight.get(&canonical(u, v)) {
                    if offset > w {
                        return Err(MacError::StrandedOnEdgeUser {
                            user: user as VertexId,
                            offset,
                            new_length: w,
                        });
                    }
                    users_on_reweighted_edges.push(user as VertexId);
                }
            }
        }
        // The road network validates the whole batch (existence, weight
        // range) before mutating, so an invalid entry still rejects the
        // delta with this network untouched.
        // Copy-on-write: a previous epoch may still share these Arcs, so
        // the mutating path clones them lazily (`make_mut`) — exactly once,
        // and only for edge-reweight deltas. The G-tree copy is shallow; its
        // refresh copies each node it recomputes.
        Arc::make_mut(&mut self.road).apply_edge_updates(updates)?;
        let road = Arc::clone(&self.road);
        let gtree = self
            .gtree
            .as_mut()
            .map(|tree| Arc::make_mut(tree).apply_edge_updates(&road, updates));
        Ok(EdgeUpdateOutcome {
            gtree,
            users_on_reweighted_edges,
        })
    }

    /// Moves a user to a new (validated) location, returning the previous
    /// one. Callers maintaining grouped filter seeds must move the user's
    /// rows too ([`rsn_road::rangefilter::remove_user_target`] /
    /// [`add_user_target`](rsn_road::rangefilter::add_user_target)).
    pub fn set_user_location(
        &mut self,
        user: VertexId,
        location: Location,
    ) -> Result<Location, MacError> {
        if (user as usize) >= self.locations.len() {
            return Err(MacError::QueryVertexOutOfRange {
                vertex: user,
                num_vertices: self.locations.len(),
            });
        }
        self.road.validate_location(&location)?;
        Ok(std::mem::replace(
            &mut self.locations[user as usize],
            location,
        ))
    }

    /// Resolves the Lemma-1 range filter for a query's [`RangeFilterChoice`],
    /// given the query context (`|Q|` and `t`) the calibrated `Auto` rule
    /// needs.
    ///
    /// Every strategy is exact, so the resolution is purely a performance
    /// decision. The G-tree walk requires a built index and falls back to the
    /// bounded Dijkstra sweep without one. `Auto` goes through
    /// [`rsn_road::rangefilter::resolve_auto`]: the t-bounded sweep wherever
    /// the radius-t ball is small (every laptop-scale preset), the
    /// multi-seed batched G-tree walk when an index exists and the estimated
    /// ball dwarfs the indexed work (see `BENCH_PR3.json` for the crossover
    /// measurements behind the calibration).
    pub fn range_filter(
        &self,
        choice: RangeFilterChoice,
        num_query_locations: usize,
        t: f64,
    ) -> RangeFilter<'_> {
        let resolved = match choice {
            RangeFilterChoice::Auto => resolve_auto(
                &self.road,
                self.gtree.as_deref(),
                num_query_locations,
                t,
                self.num_users(),
            ),
            explicit => explicit,
        };
        match (resolved, &self.gtree) {
            (RangeFilterChoice::GTreeMultiSeedBatched, Some(tree)) => {
                RangeFilter::GTreeMultiSeedBatched(tree)
            }
            _ => RangeFilter::DijkstraSweep,
        }
    }

    /// The social graph `G_s`.
    pub fn social(&self) -> &Graph {
        &self.social
    }

    /// The road network `G_r`.
    pub fn road(&self) -> &RoadNetwork {
        &self.road
    }

    /// Number of social users.
    pub fn num_users(&self) -> usize {
        self.social.num_vertices()
    }

    /// Attribute dimensionality `d`.
    pub fn attribute_dim(&self) -> usize {
        self.dim
    }

    /// Location `L(v)` of a user.
    pub fn location(&self, v: VertexId) -> &Location {
        &self.locations[v as usize]
    }

    /// All user locations.
    pub fn locations(&self) -> &[Location] {
        &self.locations
    }

    /// Attribute vector `X(v)` of a user.
    pub fn attributes(&self, v: VertexId) -> &[f64] {
        &self.attrs[v as usize]
    }

    /// All attribute vectors.
    pub fn all_attributes(&self) -> &[Vec<f64>] {
        &self.attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_road() -> RoadNetwork {
        RoadNetwork::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)])
    }

    #[test]
    fn builds_valid_network() {
        let social = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let road = tiny_road();
        let locations = vec![
            Location::vertex(0),
            Location::vertex(1),
            Location::vertex(2),
        ];
        let attrs = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let rsn = RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
        assert_eq!(rsn.num_users(), 3);
        assert_eq!(rsn.attribute_dim(), 2);
        assert_eq!(rsn.attributes(1), &[3.0, 4.0]);
        assert_eq!(rsn.location(2), &Location::vertex(2));
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let social = Graph::from_edges(2, &[(0, 1)]);
        let road = tiny_road();
        let err = RoadSocialNetwork::new(
            social.clone(),
            road.clone(),
            vec![Location::vertex(0)],
            vec![vec![1.0], vec![2.0]],
        );
        assert!(matches!(err, Err(MacError::InconsistentNetwork(_))));
        let err2 = RoadSocialNetwork::new(
            social,
            road,
            vec![Location::vertex(0), Location::vertex(1)],
            vec![vec![1.0]],
        );
        assert!(matches!(err2, Err(MacError::InconsistentNetwork(_))));
    }

    #[test]
    fn rejects_ragged_or_invalid_attributes() {
        let social = Graph::from_edges(2, &[(0, 1)]);
        let road = tiny_road();
        let locations = vec![Location::vertex(0), Location::vertex(1)];
        let err = RoadSocialNetwork::new(
            social.clone(),
            road.clone(),
            locations.clone(),
            vec![vec![1.0, 2.0], vec![3.0]],
        );
        assert!(matches!(err, Err(MacError::InconsistentNetwork(_))));
        let err2 = RoadSocialNetwork::new(
            social,
            road,
            locations,
            vec![vec![1.0, f64::NAN], vec![3.0, 4.0]],
        );
        assert!(matches!(err2, Err(MacError::InconsistentNetwork(_))));
    }

    #[test]
    fn edge_updates_refresh_the_index_and_report_on_edge_users() {
        let social = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let road = tiny_road();
        let locations = vec![
            Location::vertex(0),
            Location::OnEdge {
                u: 1,
                v: 2,
                offset: 1.5,
            },
            Location::vertex(2),
        ];
        let attrs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let mut rsn = RoadSocialNetwork::new(social, road, locations, attrs)
            .unwrap()
            .with_gtree_index_capacity(4);
        // Shrinking edge (1,2) below user 1's offset must reject the batch
        // whole and leave the network untouched.
        let err = rsn.apply_edge_updates(&[EdgeUpdate::new(1, 2, 1.0)]);
        assert!(matches!(
            err,
            Err(MacError::StrandedOnEdgeUser { user: 1, .. })
        ));
        assert_eq!(rsn.road().edge_weight(1, 2), Some(2.0));
        // A valid reweight refreshes the index and names the on-edge user.
        let outcome = rsn
            .apply_edge_updates(&[EdgeUpdate::new(1, 2, 5.0)])
            .unwrap();
        assert_eq!(outcome.users_on_reweighted_edges, vec![1]);
        let stats = outcome.gtree.expect("indexed network reports stats");
        assert!(stats.dirty_leaves + stats.dirty_internal > 0);
        assert_eq!(rsn.road().edge_weight(1, 2), Some(5.0));
        let tree = rsn.gtree().unwrap();
        assert!((tree.dist(0, 2) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn set_user_location_validates_and_returns_the_old_location() {
        let social = Graph::from_edges(2, &[(0, 1)]);
        let mut rsn = RoadSocialNetwork::new(
            social,
            tiny_road(),
            vec![Location::vertex(0), Location::vertex(1)],
            vec![vec![1.0], vec![2.0]],
        )
        .unwrap();
        let old = rsn.set_user_location(1, Location::vertex(2)).unwrap();
        assert_eq!(old, Location::vertex(1));
        assert_eq!(rsn.location(1), &Location::vertex(2));
        assert!(matches!(
            rsn.set_user_location(9, Location::vertex(0)),
            Err(MacError::QueryVertexOutOfRange { .. })
        ));
        assert!(matches!(
            rsn.set_user_location(0, Location::vertex(99)),
            Err(MacError::Road(_))
        ));
    }

    #[test]
    fn rejects_invalid_locations() {
        let social = Graph::from_edges(2, &[(0, 1)]);
        let road = tiny_road();
        let err = RoadSocialNetwork::new(
            social,
            road,
            vec![Location::vertex(0), Location::vertex(9)],
            vec![vec![1.0], vec![2.0]],
        );
        assert!(matches!(err, Err(MacError::Road(_))));
    }

    #[test]
    fn rejects_non_finite_on_edge_offsets() {
        use rsn_road::RoadError;
        for offset in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = Location::OnEdge { u: 0, v: 1, offset };
            let err = RoadSocialNetwork::new(
                Graph::from_edges(2, &[(0, 1)]),
                tiny_road(),
                vec![Location::vertex(0), bad],
                vec![vec![1.0], vec![2.0]],
            );
            assert!(
                matches!(err, Err(MacError::Road(RoadError::InvalidOffset { .. }))),
                "offset {offset} accepted by the constructor"
            );

            let mut rsn = RoadSocialNetwork::new(
                Graph::from_edges(2, &[(0, 1)]),
                tiny_road(),
                vec![Location::vertex(0), Location::vertex(1)],
                vec![vec![1.0], vec![2.0]],
            )
            .unwrap();
            assert!(
                matches!(
                    rsn.set_user_location(1, bad),
                    Err(MacError::Road(RoadError::InvalidOffset { .. }))
                ),
                "offset {offset} accepted by a user move"
            );
            assert_eq!(rsn.location(1), &Location::vertex(1));
        }
    }
}
