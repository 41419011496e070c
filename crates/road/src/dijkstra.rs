//! Exact shortest-path primitives on the road network.
//!
//! All higher-level distance notions of the paper (network distance
//! `dist(p, p')`, query distance `D_Q`, the Lemma-1 range filter) reduce to
//! Dijkstra runs provided here. A bounded variant stops expanding once the
//! tentative distance exceeds a radius, which is the natural accelerator for
//! the range query of Lemma 1.

use crate::budget::BudgetTicker;
use crate::network::{Location, RoadNetwork, RoadVertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry ordered by smallest distance first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: RoadVertexId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) pops the smallest distance.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable Dijkstra state: the distance field, the heap, and the list of
/// vertices touched by the last run.
///
/// A fresh SSSP allocates `vec![INFINITY; |V|]` plus a heap every call, which
/// dominates the cost of the many small bounded searches the MAC query path
/// issues. A scratch instead clears only the entries the *previous* run
/// touched, so repeated calls are allocation-free once the buffers have grown
/// to the network size.
#[derive(Debug, Default)]
pub struct SsspScratch {
    dist: Vec<f64>,
    touched: Vec<RoadVertexId>,
    heap: BinaryHeap<HeapEntry>,
}

impl SsspScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SsspScratch::default()
    }

    /// Runs multi-source Dijkstra, reusing this scratch's buffers, charging
    /// `ticker` one work unit per settled heap entry. Returns `true` when the
    /// sweep ran to completion; the distance field ([`dist`](Self::dist)) is
    /// then exact (`f64::INFINITY` beyond `bound` or for unreachable
    /// vertices) and stays valid until the next `run`. On `false` the ticker
    /// exhausted, the field is partial (a prefix of the settled vertices) and
    /// callers must treat the run as failed. Either way the scratch is left
    /// reusable — the next `run` resets exactly what this one touched. Pass
    /// [`BudgetTicker::unlimited`] for a sweep that always completes.
    pub fn run(
        &mut self,
        net: &RoadNetwork,
        seeds: &[(RoadVertexId, f64)],
        bound: Option<f64>,
        allowed: Option<&[bool]>,
        ticker: &mut BudgetTicker,
    ) -> bool {
        let n = net.num_vertices();
        // Reset only what the previous run wrote; (re)grow on size change.
        if self.dist.len() != n {
            self.dist.clear();
            self.dist.resize(n, f64::INFINITY);
        } else {
            for &v in &self.touched {
                self.dist[v as usize] = f64::INFINITY;
            }
        }
        self.touched.clear();
        self.heap.clear();

        let bound = bound.unwrap_or(f64::INFINITY);
        for &(s, d0) in seeds {
            if (s as usize) < n
                && d0 <= bound
                && allowed.map(|a| a[s as usize]).unwrap_or(true)
                && d0 < self.dist[s as usize]
            {
                if self.dist[s as usize].is_infinite() {
                    self.touched.push(s);
                }
                self.dist[s as usize] = d0;
                self.heap.push(HeapEntry {
                    dist: d0,
                    vertex: s,
                });
            }
        }
        while let Some(HeapEntry { dist: d, vertex: v }) = self.heap.pop() {
            if !ticker.charge(1) {
                return false;
            }
            if d > self.dist[v as usize] {
                continue;
            }
            if d > bound {
                break;
            }
            for &(u, w) in net.neighbors(v) {
                if let Some(allowed) = allowed {
                    if !allowed[u as usize] {
                        continue;
                    }
                }
                let nd = d + w;
                if nd < self.dist[u as usize] && nd <= bound {
                    if self.dist[u as usize].is_infinite() {
                        self.touched.push(u);
                    }
                    self.dist[u as usize] = nd;
                    self.heap.push(HeapEntry {
                        dist: nd,
                        vertex: u,
                    });
                }
            }
        }
        // Values strictly above the bound were never inserted, so the field
        // needs no cleanup.
        true
    }

    /// The distance field of the last [`run`](Self::run).
    pub fn dist(&self) -> &[f64] {
        &self.dist
    }
}

/// Runs Dijkstra from multiple `(vertex, initial_distance)` seeds.
///
/// `bound` limits expansion: vertices whose final distance exceeds it keep
/// `f64::INFINITY`. `allowed` optionally restricts the search to a vertex
/// subset (used by the G-tree to compute within-region matrices). Allocates a
/// fresh field per call; hot paths should hold an [`SsspScratch`] instead.
pub fn multi_source_dijkstra(
    net: &RoadNetwork,
    seeds: &[(RoadVertexId, f64)],
    bound: Option<f64>,
    allowed: Option<&[bool]>,
) -> Vec<f64> {
    let mut scratch = SsspScratch::new();
    scratch.run(net, seeds, bound, allowed, &mut BudgetTicker::unlimited());
    scratch.dist
}

/// Single-source shortest distances from a road vertex.
pub fn sssp(net: &RoadNetwork, source: RoadVertexId) -> Vec<f64> {
    multi_source_dijkstra(net, &[(source, 0.0)], None, None)
}

/// Single-source shortest distances, not expanding past `bound`.
pub fn bounded_sssp(net: &RoadNetwork, source: RoadVertexId, bound: f64) -> Vec<f64> {
    multi_source_dijkstra(net, &[(source, 0.0)], Some(bound), None)
}

/// Shortest distances from an arbitrary [`Location`] to every road vertex.
///
/// An on-edge location seeds both endpoints with the partial edge costs, which
/// is exactly the paper's `ω(u, p)` convention.
pub fn sssp_from_location(net: &RoadNetwork, loc: &Location, bound: Option<f64>) -> Vec<f64> {
    match *loc {
        Location::Vertex(v) => multi_source_dijkstra(net, &[(v, 0.0)], bound, None),
        Location::OnEdge { u, v, offset } => {
            let w = net.edge_weight(u, v).unwrap_or(f64::INFINITY);
            multi_source_dijkstra(net, &[(u, offset), (v, (w - offset).max(0.0))], bound, None)
        }
    }
}

/// Distance from a precomputed vertex-distance field to a [`Location`].
pub fn distance_to_location(net: &RoadNetwork, dist: &[f64], loc: &Location) -> f64 {
    match *loc {
        Location::Vertex(v) => dist[v as usize],
        Location::OnEdge { u, v, offset } => {
            let w = net.edge_weight(u, v).unwrap_or(f64::INFINITY);
            (dist[u as usize] + offset).min(dist[v as usize] + (w - offset).max(0.0))
        }
    }
}

/// Network distance between two locations (`dist(p, p')` of the paper);
/// `f64::INFINITY` when they are not connected.
pub fn location_distance(net: &RoadNetwork, a: &Location, b: &Location) -> f64 {
    location_distance_bounded(net, a, b, None)
}

/// Network distance between two locations, pruning the search at `bound`
/// (returns `f64::INFINITY` when the true distance exceeds the bound).
///
/// Two points on the same edge additionally bound the search by their direct
/// along-edge cost: any strictly better route must be shorter than that, so
/// when the along-edge path is already minimal the Dijkstra terminates after
/// settling only the vertices closer than it — instead of the full network
/// sweep the unbounded version pays.
pub fn location_distance_bounded(
    net: &RoadNetwork,
    a: &Location,
    b: &Location,
    bound: Option<f64>,
) -> f64 {
    let mut search_bound = bound;
    let mut along_edge = f64::INFINITY;
    if let (
        Location::OnEdge {
            u: u1,
            v: v1,
            offset: o1,
        },
        Location::OnEdge {
            u: u2,
            v: v2,
            offset: o2,
        },
    ) = (a, b)
    {
        if u1 == u2 && v1 == v2 {
            along_edge = (o1 - o2).abs();
            if along_edge == 0.0 {
                return 0.0;
            }
            search_bound = Some(search_bound.unwrap_or(f64::INFINITY).min(along_edge));
        }
    }
    let dist = sssp_from_location(net, a, search_bound);
    distance_to_location(net, &dist, b).min(along_edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoadNetwork;

    /// 0 --2-- 1 --3-- 2 --1.5-- 3, plus a long direct edge 0 --10-- 3.
    fn line_net() -> RoadNetwork {
        RoadNetwork::from_edges(4, &[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.5), (0, 3, 10.0)])
    }

    #[test]
    fn sssp_basic() {
        let net = line_net();
        let d = sssp(&net, 0);
        assert_eq!(d, vec![0.0, 2.0, 5.0, 6.5]);
    }

    #[test]
    fn sssp_prefers_shorter_route_over_direct_edge() {
        let net = line_net();
        let d = sssp(&net, 3);
        assert!((d[0] - 6.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_sssp_stops_early() {
        let net = line_net();
        let d = bounded_sssp(&net, 0, 3.0);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 2.0);
        assert!(d[2].is_infinite());
        assert!(d[3].is_infinite());
    }

    #[test]
    fn disconnected_vertices_are_infinite() {
        let net = RoadNetwork::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let d = sssp(&net, 0);
        assert!(d[2].is_infinite() && d[3].is_infinite());
    }

    #[test]
    fn multi_source_takes_minimum() {
        let net = line_net();
        let d = multi_source_dijkstra(&net, &[(0, 0.0), (3, 0.0)], None, None);
        assert_eq!(d, vec![0.0, 2.0, 1.5, 0.0]);
    }

    #[test]
    fn restricted_search_respects_mask() {
        let net = line_net();
        // forbid vertex 1: the only route 0 -> 3 is the direct long edge
        let allowed = vec![true, false, true, true];
        let d = multi_source_dijkstra(&net, &[(0, 0.0)], None, Some(&allowed));
        assert_eq!(d[3], 10.0);
        assert!(d[1].is_infinite());
        assert_eq!(d[2], 11.5);
    }

    #[test]
    fn location_distances() {
        let net = line_net();
        let a = Location::OnEdge {
            u: 0,
            v: 1,
            offset: 0.5,
        };
        // distance from a to vertex 2: 1.5 (rest of edge 0-1) + 3.0
        let d = sssp_from_location(&net, &a, None);
        assert!((d[2] - 4.5).abs() < 1e-12);
        assert!((d[0] - 0.5).abs() < 1e-12);

        let b = Location::Vertex(3);
        assert!((location_distance(&net, &a, &b) - 6.0).abs() < 1e-12);

        // two points on the same edge use the along-edge shortcut
        let p = Location::OnEdge {
            u: 0,
            v: 3,
            offset: 1.0,
        };
        let q = Location::OnEdge {
            u: 0,
            v: 3,
            offset: 4.0,
        };
        assert!((location_distance(&net, &p, &q) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_location_distance_respects_bound_for_on_edge_seeds() {
        // Seeds carry the partial edge offsets; a bound below the offset must
        // report INFINITY instead of leaking the seed distance.
        let net = RoadNetwork::from_edges(2, &[(0, 1, 10.0)]);
        let a = Location::OnEdge {
            u: 0,
            v: 1,
            offset: 4.0,
        };
        let b = Location::Vertex(0);
        assert!(location_distance_bounded(&net, &a, &b, Some(2.0)).is_infinite());
        assert!((location_distance_bounded(&net, &a, &b, Some(5.0)) - 4.0).abs() < 1e-12);
        assert!((location_distance(&net, &a, &b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_location_on_edge() {
        let net = line_net();
        let d = sssp(&net, 0);
        let loc = Location::OnEdge {
            u: 2,
            v: 3,
            offset: 0.5,
        };
        // min(d[2] + 0.5, d[3] + 1.0) = min(5.5, 7.5)
        assert!((distance_to_location(&net, &d, &loc) - 5.5).abs() < 1e-12);
    }
}
