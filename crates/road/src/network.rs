//! The weighted road network `G_r` and user locations on it.

use crate::RoadError;
use serde::{Deserialize, Serialize};

/// Dense road-vertex identifier.
pub type RoadVertexId = u32;

/// A location in the road network: either exactly on a vertex (road
/// junction/end) or part-way along an edge, `offset` cost units away from the
/// endpoint `u` (so `weight(u, v) - offset` away from `v`).
///
/// The paper allows user locations "either on a vertex or edge of G_r"
/// (Section II-A); the on-edge form is normalized so that `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Location {
    /// On road vertex.
    Vertex(RoadVertexId),
    /// On the edge `(u, v)`, `offset` away from `u`.
    OnEdge {
        /// Smaller endpoint of the edge.
        u: RoadVertexId,
        /// Larger endpoint of the edge.
        v: RoadVertexId,
        /// Distance from `u` along the edge.
        offset: f64,
    },
}

impl Location {
    /// Convenience constructor for an on-vertex location.
    pub fn vertex(v: RoadVertexId) -> Self {
        Location::Vertex(v)
    }

    /// Convenience constructor for an on-edge location (endpoints are
    /// normalized so that `u < v`, mirroring `ω(u, p)` in the paper).
    pub fn on_edge(u: RoadVertexId, v: RoadVertexId, offset: f64, edge_length: f64) -> Self {
        if u <= v {
            Location::OnEdge { u, v, offset }
        } else {
            Location::OnEdge {
                u: v,
                v: u,
                offset: edge_length - offset,
            }
        }
    }
}

/// A reweight of one existing road segment: traffic conditions changed the
/// travel cost of `(u, v)` to `weight`.
///
/// Updates never add or remove segments — the network topology (and with it
/// the G-tree partition, border sets, and leaf assignment) is fixed at build
/// time; only costs move. Topology changes require a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeUpdate {
    /// One endpoint of the existing segment.
    pub u: RoadVertexId,
    /// The other endpoint.
    pub v: RoadVertexId,
    /// The new travel cost (finite, non-negative).
    pub weight: f64,
}

impl EdgeUpdate {
    /// Convenience constructor.
    pub fn new(u: RoadVertexId, v: RoadVertexId, weight: f64) -> Self {
        EdgeUpdate { u, v, weight }
    }
}

/// An undirected weighted road network, stored as CSR: the neighbours of
/// `v` are `adj[offsets[v]..offsets[v + 1]]`, ascending by neighbour id.
///
/// The topology is fixed once built; [`set_edge_weight`](Self::set_edge_weight)
/// rewrites both directed copies of an edge in place.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    offsets: Vec<usize>,
    adj: Vec<(RoadVertexId, f64)>,
}

impl Default for RoadNetwork {
    fn default() -> Self {
        RoadNetworkBuilder::new(0).build()
    }
}

impl RoadNetwork {
    /// Number of road vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of road segments (undirected edges).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Neighbours of `v` with edge weights, ascending by neighbour id.
    #[inline]
    pub fn neighbors(&self, v: RoadVertexId) -> &[(RoadVertexId, f64)] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of a road vertex.
    #[inline]
    pub fn degree(&self, v: RoadVertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Index into `adj` of the directed copy `u -> v`, if the edge exists.
    fn slot(&self, u: RoadVertexId, v: RoadVertexId) -> Option<usize> {
        let start = self.offsets[u as usize];
        self.neighbors(u)
            .binary_search_by_key(&v, |&(x, _)| x)
            .ok()
            .map(|i| start + i)
    }

    /// Weight of the edge `(u, v)` if it exists.
    pub fn edge_weight(&self, u: RoadVertexId, v: RoadVertexId) -> Option<f64> {
        self.slot(u, v).map(|i| self.adj[i].1)
    }

    /// Sets the weight of the **existing** edge `(u, v)` to `w`, returning
    /// the previous weight. Reweighting never changes the topology; an update
    /// naming a missing edge is [`RoadError::NoSuchEdge`].
    ///
    /// Callers that keep derived state (a G-tree index, grouped user seeds of
    /// on-edge locations) must refresh it afterwards — see
    /// [`GTree::apply_edge_updates`](crate::gtree::GTree::apply_edge_updates).
    pub fn set_edge_weight(
        &mut self,
        u: RoadVertexId,
        v: RoadVertexId,
        w: f64,
    ) -> Result<f64, RoadError> {
        if !(w.is_finite() && w >= 0.0) {
            return Err(RoadError::InvalidWeight(w));
        }
        for &x in &[u, v] {
            if (x as usize) >= self.num_vertices() {
                return Err(RoadError::VertexOutOfRange {
                    vertex: x,
                    num_vertices: self.num_vertices(),
                });
            }
        }
        let forward = self.slot(u, v).ok_or(RoadError::NoSuchEdge { u, v })?;
        let backward = self.slot(v, u).expect("undirected adjacency is symmetric");
        let old = self.adj[forward].1;
        self.adj[forward].1 = w;
        self.adj[backward].1 = w;
        Ok(old)
    }

    /// Applies a batch of reweights ([`set_edge_weight`](Self::set_edge_weight)
    /// per update), validating **all** of them first so an invalid entry
    /// leaves the network untouched.
    pub fn apply_edge_updates(&mut self, updates: &[EdgeUpdate]) -> Result<(), RoadError> {
        for upd in updates {
            if !(upd.weight.is_finite() && upd.weight >= 0.0) {
                return Err(RoadError::InvalidWeight(upd.weight));
            }
            for &x in &[upd.u, upd.v] {
                if (x as usize) >= self.num_vertices() {
                    return Err(RoadError::VertexOutOfRange {
                        vertex: x,
                        num_vertices: self.num_vertices(),
                    });
                }
            }
            if self.edge_weight(upd.u, upd.v).is_none() {
                return Err(RoadError::NoSuchEdge { u: upd.u, v: upd.v });
            }
        }
        for upd in updates {
            self.set_edge_weight(upd.u, upd.v, upd.weight)
                .expect("updates were validated");
        }
        Ok(())
    }

    /// Iterator over undirected edges `(u, v, w)` with `u < v`, ascending by
    /// `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (RoadVertexId, RoadVertexId, f64)> + '_ {
        (0..self.num_vertices() as RoadVertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Average degree `2m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.adj.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Validates a location against this network: its vertices exist, and
    /// an on-edge offset names an existing edge and lies in `[0, w]` (so a
    /// NaN or infinite offset is rejected).
    pub fn validate_location(&self, loc: &Location) -> Result<(), RoadError> {
        match *loc {
            Location::Vertex(v) => {
                if (v as usize) < self.num_vertices() {
                    Ok(())
                } else {
                    Err(RoadError::VertexOutOfRange {
                        vertex: v,
                        num_vertices: self.num_vertices(),
                    })
                }
            }
            Location::OnEdge { u, v, offset } => {
                if (u as usize) >= self.num_vertices() {
                    return Err(RoadError::VertexOutOfRange {
                        vertex: u,
                        num_vertices: self.num_vertices(),
                    });
                }
                if (v as usize) >= self.num_vertices() {
                    return Err(RoadError::VertexOutOfRange {
                        vertex: v,
                        num_vertices: self.num_vertices(),
                    });
                }
                let Some(w) = self.edge_weight(u, v) else {
                    return Err(RoadError::NoSuchEdge { u, v });
                };
                if !(0.0..=w).contains(&offset) {
                    return Err(RoadError::InvalidOffset {
                        offset,
                        edge_length: w,
                    });
                }
                Ok(())
            }
        }
    }
}

/// Builder for [`RoadNetwork`] with weight validation.
#[derive(Debug, Clone)]
pub struct RoadNetworkBuilder {
    n: usize,
    edges: Vec<(RoadVertexId, RoadVertexId, f64)>,
}

impl RoadNetworkBuilder {
    /// Creates a builder for a road network with `n` vertices.
    pub fn new(n: usize) -> Self {
        RoadNetworkBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected road segment of cost `w`.
    pub fn add_edge(
        &mut self,
        u: RoadVertexId,
        v: RoadVertexId,
        w: f64,
    ) -> Result<&mut Self, RoadError> {
        if !(w.is_finite() && w >= 0.0) {
            return Err(RoadError::InvalidWeight(w));
        }
        if (u as usize) >= self.n {
            return Err(RoadError::VertexOutOfRange {
                vertex: u,
                num_vertices: self.n,
            });
        }
        if (v as usize) >= self.n {
            return Err(RoadError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.n,
            });
        }
        if u != v {
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            self.edges.push((a, b, w));
        }
        Ok(self)
    }

    /// Finalizes the network, keeping the cheapest copy of any parallel edge.
    pub fn build(mut self) -> RoadNetwork {
        self.edges
            .sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        self.edges.dedup_by_key(|e| (e.0, e.1));
        let mut offsets = vec![0usize; self.n + 1];
        for &(u, v, _) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        // Filling in `(u, v)` order sorts every list: `x` first meets its
        // smaller neighbours `u` through the edges `(u, x)`, ascending, and
        // only then its larger ones through `(x, v)`, ascending.
        let mut fill = offsets.clone();
        let mut adj = vec![(0, 0.0); 2 * self.edges.len()];
        for &(u, v, w) in &self.edges {
            adj[fill[u as usize]] = (v, w);
            fill[u as usize] += 1;
            adj[fill[v as usize]] = (u, w);
            fill[v as usize] += 1;
        }
        RoadNetwork { offsets, adj }
    }
}

impl RoadNetwork {
    /// Builds a road network from an edge list, ignoring invalid entries.
    ///
    /// This is the forgiving constructor used by generators; use
    /// [`RoadNetworkBuilder`] for strict validation.
    pub fn from_edges(n: usize, edges: &[(RoadVertexId, RoadVertexId, f64)]) -> Self {
        let mut builder = RoadNetworkBuilder::new(n);
        for &(u, v, w) in edges {
            let _ = builder.add_edge(u, v, w);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net() -> RoadNetwork {
        RoadNetwork::from_edges(4, &[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.5), (0, 3, 10.0)])
    }

    #[test]
    fn builds_weighted_network() {
        let net = small_net();
        assert_eq!(net.num_vertices(), 4);
        assert_eq!(net.num_edges(), 4);
        assert_eq!(net.edge_weight(1, 2), Some(3.0));
        assert_eq!(net.edge_weight(2, 1), Some(3.0));
        assert_eq!(net.edge_weight(0, 2), None);
        assert_eq!(net.degree(0), 2);
        assert!((net.avg_degree() - 2.0).abs() < 1e-12);
        assert_eq!(net.max_degree(), 2);
    }

    #[test]
    fn parallel_edges_keep_cheapest() {
        let net = RoadNetwork::from_edges(2, &[(0, 1, 5.0), (1, 0, 2.0), (0, 1, 9.0)]);
        assert_eq!(net.num_edges(), 1);
        assert_eq!(net.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        let mut b = RoadNetworkBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 1, -1.0),
            Err(RoadError::InvalidWeight(_))
        ));
        assert!(matches!(
            b.add_edge(0, 1, f64::NAN),
            Err(RoadError::InvalidWeight(_))
        ));
        assert!(matches!(
            b.add_edge(0, 5, 1.0),
            Err(RoadError::VertexOutOfRange { .. })
        ));
        b.add_edge(0, 1, 1.0).unwrap();
        let net = b.build();
        assert_eq!(net.num_edges(), 1);
    }

    #[test]
    fn location_validation() {
        let net = small_net();
        assert!(net.validate_location(&Location::vertex(3)).is_ok());
        assert!(matches!(
            net.validate_location(&Location::vertex(9)),
            Err(RoadError::VertexOutOfRange { .. })
        ));
        assert!(net
            .validate_location(&Location::OnEdge {
                u: 1,
                v: 2,
                offset: 1.0
            })
            .is_ok());
        assert!(matches!(
            net.validate_location(&Location::OnEdge {
                u: 0,
                v: 2,
                offset: 0.5
            }),
            Err(RoadError::NoSuchEdge { .. })
        ));
        assert!(matches!(
            net.validate_location(&Location::OnEdge {
                u: 1,
                v: 2,
                offset: 7.5
            }),
            Err(RoadError::InvalidOffset { .. })
        ));
    }

    #[test]
    fn location_validation_rejects_non_finite_offsets() {
        let net = small_net();
        for offset in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    net.validate_location(&Location::OnEdge { u: 1, v: 2, offset }),
                    Err(RoadError::InvalidOffset { .. })
                ),
                "offset {offset} accepted"
            );
        }
        // the closed range [0, w] stays valid at both ends
        for offset in [0.0, 3.0] {
            assert!(net
                .validate_location(&Location::OnEdge { u: 1, v: 2, offset })
                .is_ok());
        }
    }

    #[test]
    fn on_edge_normalization() {
        let loc = Location::on_edge(3, 1, 0.5, 2.0);
        assert_eq!(
            loc,
            Location::OnEdge {
                u: 1,
                v: 3,
                offset: 1.5
            }
        );
        let loc2 = Location::on_edge(1, 3, 0.5, 2.0);
        assert_eq!(
            loc2,
            Location::OnEdge {
                u: 1,
                v: 3,
                offset: 0.5
            }
        );
    }

    #[test]
    fn set_edge_weight_updates_both_directions() {
        let mut net = small_net();
        let old = net.set_edge_weight(2, 1, 7.5).unwrap();
        assert_eq!(old, 3.0);
        assert_eq!(net.edge_weight(1, 2), Some(7.5));
        assert_eq!(net.edge_weight(2, 1), Some(7.5));
        assert_eq!(net.num_edges(), 4, "reweighting must not change topology");
        assert!(matches!(
            net.set_edge_weight(0, 2, 1.0),
            Err(RoadError::NoSuchEdge { .. })
        ));
        assert!(matches!(
            net.set_edge_weight(0, 1, -1.0),
            Err(RoadError::InvalidWeight(_))
        ));
        assert!(matches!(
            net.set_edge_weight(0, 9, 1.0),
            Err(RoadError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn batched_updates_are_all_or_nothing() {
        let mut net = small_net();
        let bad = [EdgeUpdate::new(0, 1, 4.0), EdgeUpdate::new(0, 2, 1.0)];
        assert!(matches!(
            net.apply_edge_updates(&bad),
            Err(RoadError::NoSuchEdge { .. })
        ));
        assert_eq!(
            net.edge_weight(0, 1),
            Some(2.0),
            "failed batch must leave the network untouched"
        );
        let good = [EdgeUpdate::new(0, 1, 4.0), EdgeUpdate::new(2, 3, 0.5)];
        net.apply_edge_updates(&good).unwrap();
        assert_eq!(net.edge_weight(0, 1), Some(4.0));
        assert_eq!(net.edge_weight(2, 3), Some(0.5));
    }

    #[test]
    fn csr_reweights_keep_both_directions_and_the_edge_order() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let n = rng.random_range(1..=30u32);
            let input: Vec<(u32, u32, f64)> = (0..rng.random_range(0..90))
                .map(|_| {
                    let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                    (u, v, rng.random_range(0..4) as f64)
                })
                .collect();
            let mut net = RoadNetwork::from_edges(n as usize, &input);
            // Reference: one copy of each segment, the cheapest, ascending
            // by (u, v) — the order of the sorted per-vertex lists.
            let mut expected: Vec<(u32, u32, f64)> = Vec::new();
            for &(u, v, w) in &input {
                let (a, b) = (u.min(v), u.max(v));
                if a == b {
                    continue;
                }
                match expected.iter_mut().find(|e| (e.0, e.1) == (a, b)) {
                    Some(e) => e.2 = e.2.min(w),
                    None => expected.push((a, b, w)),
                }
            }
            expected.sort_by_key(|e| (e.0, e.1));
            assert_eq!(net.edges().collect::<Vec<_>>(), expected);
            assert_eq!(net.num_edges(), expected.len());

            for e in expected.iter_mut() {
                if rng.random_bool(0.5) {
                    let w = rng.random_range(0.0..9.0);
                    let (a, b) = if rng.random_bool(0.5) {
                        (e.0, e.1)
                    } else {
                        (e.1, e.0)
                    };
                    assert_eq!(net.set_edge_weight(a, b, w), Ok(e.2));
                    e.2 = w;
                }
            }
            assert_eq!(net.edges().collect::<Vec<_>>(), expected);
            for &(u, v, w) in &expected {
                assert_eq!(net.edge_weight(u, v), Some(w));
                assert_eq!(net.edge_weight(v, u), Some(w));
            }
            for v in 0..n {
                let nbrs = net.neighbors(v);
                assert_eq!(nbrs.len(), net.degree(v));
                assert!(nbrs.windows(2).all(|p| p[0].0 < p[1].0));
                for &(u, w) in nbrs {
                    assert_eq!(net.edge_weight(u, v), Some(w));
                }
            }
        }
    }

    #[test]
    fn edge_iterator_canonical() {
        let net = small_net();
        let mut edges: Vec<_> = net.edges().collect();
        edges.sort_by_key(|a| (a.0, a.1));
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[0], (0, 1, 2.0));
        assert_eq!(edges[3], (2, 3, 1.5));
    }
}
