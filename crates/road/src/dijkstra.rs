//! Exact shortest-path primitives on the road network.
//!
//! All higher-level distance notions of the paper (network distance
//! `dist(p, p')`, query distance `D_Q`, the Lemma-1 range filter) reduce to
//! Dijkstra runs provided here. A bounded variant stops expanding once the
//! tentative distance exceeds a radius, which is the natural accelerator for
//! the range query of Lemma 1.

use crate::budget::BudgetTicker;
use crate::network::{Location, RoadNetwork, RoadVertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap entry: a distance key from [`heap_key`], then the vertex, so
/// ties pop the smaller vertex first.
type HeapEntry = Reverse<(u64, RoadVertexId)>;

/// An integer key whose order is the numeric order of `d`: a non-negative
/// `d` (every distance a sweep computes) keeps its bit pattern with the sign
/// bit set; a negative seed distance is bit-inverted, which places it below,
/// in order. `+ 0.0` turns `-0.0` into `0.0`, so the two tie as they compare.
#[inline]
fn heap_key(d: f64) -> u64 {
    let bits = (d + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
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
                self.heap.push(Reverse((heap_key(d0), s)));
            }
        }
        while let Some(Reverse((key, v))) = self.heap.pop() {
            if !ticker.charge(1) {
                return false;
            }
            // A stale entry: `v` was improved after this one was pushed.
            let d = self.dist[v as usize];
            if key != heap_key(d) {
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
                    self.heap.push(Reverse((heap_key(nd), u)));
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

/// The Dijkstra seeds of a location (the `ω(u, p)` convention of the
/// paper): one for a vertex, one per endpoint for an on-edge point. Held
/// inline, so computing them never allocates; derefs to the seed slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocationSeeds {
    seeds: [(RoadVertexId, f64); 2],
    len: usize,
}

impl std::ops::Deref for LocationSeeds {
    type Target = [(RoadVertexId, f64)];

    fn deref(&self) -> &Self::Target {
        &self.seeds[..self.len]
    }
}

impl IntoIterator for LocationSeeds {
    type Item = (RoadVertexId, f64);
    type IntoIter = std::iter::Take<std::array::IntoIter<(RoadVertexId, f64), 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.seeds.into_iter().take(self.len)
    }
}

/// Dijkstra seeds for a location: `(v, 0)` for a vertex; `(u, offset)` and
/// `(v, w − offset)` for a point part-way along the edge `u–v` of weight `w`.
pub(crate) fn location_seeds(net: &RoadNetwork, loc: &Location) -> LocationSeeds {
    match *loc {
        Location::Vertex(v) => LocationSeeds {
            seeds: [(v, 0.0); 2],
            len: 1,
        },
        Location::OnEdge { u, v, offset } => {
            let w = net.edge_weight(u, v).unwrap_or(f64::INFINITY);
            LocationSeeds {
                seeds: [(u, offset), (v, (w - offset).max(0.0))],
                len: 2,
            }
        }
    }
}

/// The direct along-edge distance when both locations sit on the same edge,
/// `f64::INFINITY` otherwise. The edge may be named in either orientation:
/// `OnEdge { u: b, v: a, offset: o }` is the point `w − o` from `a` along
/// the edge `a–b` of weight `w`.
pub(crate) fn along_edge_distance(net: &RoadNetwork, a: &Location, b: &Location) -> f64 {
    let (
        &Location::OnEdge {
            u: u1,
            v: v1,
            offset: o1,
        },
        &Location::OnEdge {
            u: u2,
            v: v2,
            offset: o2,
        },
    ) = (a, b)
    else {
        return f64::INFINITY;
    };
    if (u1, v1) == (u2, v2) {
        (o1 - o2).abs()
    } else if (u1, v1) == (v2, u2) {
        let w = net.edge_weight(u1, v1).unwrap_or(f64::INFINITY);
        (o1 - (w - o2)).abs()
    } else {
        f64::INFINITY
    }
}

/// Shortest distances from an arbitrary [`Location`] to every road vertex.
///
/// An on-edge location seeds both endpoints with the partial edge costs, which
/// is exactly the paper's `ω(u, p)` convention.
pub fn sssp_from_location(net: &RoadNetwork, loc: &Location, bound: Option<f64>) -> Vec<f64> {
    multi_source_dijkstra(net, &location_seeds(net, loc), bound, None)
}

/// Distance from a precomputed vertex-distance field to a [`Location`]: the
/// cheapest of its seeds' field entries plus their offsets.
pub fn distance_to_location(net: &RoadNetwork, dist: &[f64], loc: &Location) -> f64 {
    location_seeds(net, loc)
        .into_iter()
        .map(|(v, offset)| dist[v as usize] + offset)
        .fold(f64::INFINITY, f64::min)
}

/// Network distance between two locations (`dist(p, p')` of the paper);
/// `f64::INFINITY` when they are not connected.
///
/// Two points on the same edge bound the search by their direct along-edge
/// cost: any strictly better route must be shorter than that, so when the
/// along-edge path is already minimal the Dijkstra terminates after settling
/// only the vertices closer than it, instead of sweeping the whole network.
pub fn location_distance(net: &RoadNetwork, a: &Location, b: &Location) -> f64 {
    let along_edge = along_edge_distance(net, a, b);
    if along_edge == 0.0 {
        return 0.0;
    }
    let bound = along_edge.is_finite().then_some(along_edge);
    let dist = sssp_from_location(net, a, bound);
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
        let bounded = |bound| distance_to_location(&net, &sssp_from_location(&net, &a, bound), &b);
        assert!(bounded(Some(2.0)).is_infinite());
        assert!((bounded(Some(5.0)) - 4.0).abs() < 1e-12);
        assert!((location_distance(&net, &a, &b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn same_edge_locations_use_the_along_edge_path() {
        // A single heavy edge: two interior points are 1 apart along the edge
        // even though the endpoint detours cost 9 / 11. The second point is
        // also named from the other end of the edge (offset 10 - 5 from 1).
        let net = RoadNetwork::from_edges(2, &[(0, 1, 10.0)]);
        let q = Location::OnEdge {
            u: 0,
            v: 1,
            offset: 4.0,
        };
        for member in [
            Location::OnEdge {
                u: 0,
                v: 1,
                offset: 5.0,
            },
            Location::OnEdge {
                u: 1,
                v: 0,
                offset: 5.0,
            },
        ] {
            assert_eq!(along_edge_distance(&net, &q, &member), 1.0, "{member:?}");
            assert_eq!(along_edge_distance(&net, &member, &q), 1.0, "{member:?}");
            assert_eq!(location_distance(&net, &q, &member), 1.0, "{member:?}");
            assert_eq!(location_distance(&net, &member, &q), 1.0, "{member:?}");
        }
        // A point on another edge gets no shortcut.
        let net = RoadNetwork::from_edges(3, &[(0, 1, 10.0), (1, 2, 1.0)]);
        let other = Location::OnEdge {
            u: 1,
            v: 2,
            offset: 0.5,
        };
        assert!(along_edge_distance(&net, &q, &other).is_infinite());
        assert_eq!(location_distance(&net, &q, &other), 6.5);
    }

    /// A random input edge list: zero weights, repeated segments (parallel
    /// edges in either direction) and self-loops all occur.
    fn random_edges(rng: &mut impl rand::Rng, n: u32) -> Vec<(u32, u32, f64)> {
        let m = rng.random_range(0..=3 * n as usize);
        let mut edges: Vec<(u32, u32, f64)> = Vec::with_capacity(m + 4);
        for _ in 0..m {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            // integer weights make equal-length paths, and so pop ties, common
            let w = match rng.random_range(0..4) {
                0 => 0.0,
                1 => rng.random_range(0..4) as f64,
                _ => rng.random_range(0.0..5.0),
            };
            edges.push((u, v, w));
            if rng.random_bool(0.1) {
                edges.push((v, u, rng.random_range(0.0..5.0)));
            }
        }
        edges
    }

    /// O(n^2) Dijkstra straight off the input edge list: settle the closest
    /// unsettled vertex, relax every input edge at it, accept only distances
    /// within `bound`.
    fn naive_dijkstra(
        n: usize,
        edges: &[(u32, u32, f64)],
        seeds: &[(u32, f64)],
        bound: f64,
    ) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; n];
        for &(s, d0) in seeds {
            if d0 <= bound && d0 < dist[s as usize] {
                dist[s as usize] = d0;
            }
        }
        let mut settled = vec![false; n];
        while let Some(v) = (0..n)
            .filter(|&v| !settled[v] && dist[v].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
        {
            settled[v] = true;
            for &(a, b, w) in edges {
                for (x, y) in [(a, b), (b, a)] {
                    if x as usize == v && x != y {
                        let nd = dist[v] + w;
                        if nd < dist[y as usize] && nd <= bound {
                            dist[y as usize] = nd;
                        }
                    }
                }
            }
        }
        dist
    }

    #[test]
    fn scratch_run_is_bit_identical_to_a_naive_dijkstra() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x5eed_d175);
        let mut scratch = SsspScratch::new();
        let mut on_edge_seeds = 0;
        for case in 0..300 {
            let n = rng.random_range(1..=40u32);
            let edges = random_edges(&mut rng, n);
            let net = RoadNetwork::from_edges(n as usize, &edges);
            let seeds: Vec<(u32, f64)> = match net.edges().nth(case % 7) {
                // an on-edge location at offset 0, w, or inside the edge
                Some((u, v, w)) if case % 2 == 0 => {
                    on_edge_seeds += 1;
                    let offset = match case % 3 {
                        0 => 0.0,
                        1 => w,
                        _ => w * rng.random_range(0.0..1.0),
                    };
                    vec![(u, offset), (v, (w - offset).max(0.0))]
                }
                _ => (0..rng.random_range(1..=3))
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..3) as f64))
                    .collect(),
            };
            for bound in [None, Some(rng.random_range(0..8) as f64), Some(2.5)] {
                let expected =
                    naive_dijkstra(n as usize, &edges, &seeds, bound.unwrap_or(f64::INFINITY));
                assert!(scratch.run(&net, &seeds, bound, None, &mut BudgetTicker::unlimited()));
                let got: Vec<u64> = scratch.dist().iter().map(|d| d.to_bits()).collect();
                let want: Vec<u64> = expected.iter().map(|d| d.to_bits()).collect();
                assert_eq!(got, want, "case {case}, seeds {seeds:?}, bound {bound:?}");
            }
        }
        assert!(on_edge_seeds > 100);
    }

    #[test]
    fn heap_key_orders_like_the_distances() {
        let values = [
            f64::NEG_INFINITY,
            -3.5,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            0.5,
            1.0,
            7.25,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    heap_key(a).cmp(&heap_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a} vs {b}"
                );
            }
        }
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
