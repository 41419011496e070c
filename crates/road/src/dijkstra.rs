//! Exact shortest-path primitives on the road network.
//!
//! All higher-level distance notions of the paper (network distance
//! `dist(p, p')`, query distance `D_Q`, the Lemma-1 range filter) reduce to
//! Dijkstra runs provided here. A bounded variant stops expanding once the
//! tentative distance exceeds a radius, which is the natural accelerator for
//! the range query of Lemma 1.
//!
//! # The sweep queue
//!
//! Every Dijkstra loop of the crate (the [`SsspScratch`] sweeps and the
//! G-tree's reduced-graph rows) pops from one `SweepQueue`: Dial's distance
//! buckets (Dial, CACM 1969) in front of a binary heap. A bounded run splits
//! `[min seed distance, bound]` into `BUCKETS` (4096) equal-width buckets. Only
//! the current bucket (and anything below it) lives in the heap; later
//! buckets are intrusive lists in one pooled vector, moved into the heap
//! when it runs empty. The heap therefore stays a few entries deep instead
//! of holding the whole frontier. A moved bucket's pool slots are reused,
//! so the pool holds only what waits in later buckets: its capacity on a
//! 10k-vertex ball is 1,024 entries (16 KB), against 16,384 without reuse.
//!
//! Pops come out in exactly the `(key, vertex)` order of a single binary
//! heap holding every entry. The bucket index `floor((d − base) · inv)` is
//! monotone in `d` (subtraction, multiplication by `inv ≥ 0`, the floor and
//! the clamp all are), so an entry in a later bucket has a strictly larger
//! distance, and key, than every entry in the heap: the heap's minimum is
//! the global minimum. The queue makes no assumption about the order of
//! pushes. So distances, the `touched` order and every ticker charge of a
//! run equal those of the plain heap bit for bit, aborted runs included.
//! An unbounded run (the G-tree's fills and rows, [`sssp`]) has `inv = 0`:
//! every push goes straight to the heap without a bucket index, and the
//! bucket heads are never allocated, read or reset.

use crate::budget::BudgetTicker;
use crate::network::{Location, RoadNetwork, RoadVertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap entry: a distance key from [`heap_key`], then the vertex, so
/// ties pop the smaller vertex first.
type HeapEntry = Reverse<(u64, RoadVertexId)>;

/// Distance buckets of a bounded run.
const BUCKETS: usize = 4096;

/// End of a bucket list.
const NIL: u32 = u32::MAX;

/// An integer key whose order is the numeric order of `d`: a non-negative
/// `d` (every distance a sweep computes) keeps its bit pattern with the sign
/// bit set; a negative seed distance is bit-inverted, which places it below,
/// in order. `+ 0.0` turns `-0.0` into `0.0`, so the two tie as they compare.
#[inline]
pub(crate) fn heap_key(d: f64) -> u64 {
    let bits = (d + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The monotone priority queue of every Dijkstra loop (see the module
/// docs): pops `(heap_key(d), v)` in ascending order, exactly as a
/// `BinaryHeap<Reverse<(u64, u32)>>` would.
#[derive(Debug)]
pub(crate) struct SweepQueue {
    /// Entries of bucket `cur` and below.
    heap: BinaryHeap<HeapEntry>,
    /// Entries of later buckets as `(key, vertex, next slot)` lists.
    pool: Vec<(u64, RoadVertexId, u32)>,
    /// Pool slots of buckets already moved into the heap, as one list.
    free: u32,
    /// First pool slot of each bucket's list; allocated by the first bounded
    /// run.
    heads: Vec<u32>,
    base: f64,
    /// Buckets per unit distance; 0 for an unbounded run.
    inv: f64,
    /// The bucket the heap holds.
    cur: usize,
    /// No bucket above this one holds a list.
    last: usize,
}

impl Default for SweepQueue {
    fn default() -> Self {
        SweepQueue {
            heap: BinaryHeap::new(),
            pool: Vec::new(),
            free: NIL,
            heads: Vec::new(),
            base: 0.0,
            inv: 0.0,
            cur: 0,
            last: 0,
        }
    }
}

impl SweepQueue {
    /// Empties the queue for a run whose pushes are at least `base` and at
    /// most `bound`. An infinite `bound`, or one not above `base`, makes
    /// the run unbounded: everything goes through the heap.
    pub(crate) fn reset(&mut self, base: f64, bound: f64) {
        self.heap.clear();
        self.pool.clear();
        self.free = NIL;
        // An aborted run may leave lists in the buckets above `cur`.
        if self.last > self.cur {
            self.heads[self.cur + 1..=self.last].fill(NIL);
        }
        self.cur = 0;
        self.last = 0;
        self.base = base;
        let inv = BUCKETS as f64 / (bound - base);
        self.inv = if inv.is_finite() && inv > 0.0 {
            inv
        } else {
            0.0
        };
        if self.inv > 0.0 && self.heads.is_empty() {
            self.heads = vec![NIL; BUCKETS];
        }
    }

    // Forced inline: out of line, every relaxation of both Dijkstra loops
    // paid a call.
    #[inline(always)]
    pub(crate) fn push(&mut self, d: f64, v: RoadVertexId) {
        let key = heap_key(d);
        if self.inv > 0.0 {
            // The cast saturates: a distance below `base` is bucket 0.
            let b = (((d - self.base) * self.inv) as usize).min(BUCKETS - 1);
            if b > self.cur {
                let entry = (key, v, self.heads[b]);
                let slot = if self.free == NIL {
                    self.pool.push(entry);
                    self.pool.len() as u32 - 1
                } else {
                    let slot = self.free;
                    self.free = self.pool[slot as usize].2;
                    self.pool[slot as usize] = entry;
                    slot
                };
                self.heads[b] = slot;
                self.last = self.last.max(b);
                return;
            }
        }
        self.heap.push(Reverse((key, v)));
    }

    /// The smallest entry, or `None` when the queue is empty.
    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<(u64, RoadVertexId)> {
        loop {
            if let Some(Reverse(entry)) = self.heap.pop() {
                return Some(entry);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Moves the next non-empty bucket into the (empty) heap; `false` when
    /// no bucket is left.
    fn advance(&mut self) -> bool {
        while self.cur < self.last {
            self.cur += 1;
            let first = std::mem::replace(&mut self.heads[self.cur], NIL);
            if first == NIL {
                continue;
            }
            // Heapify the whole bucket at once: O(n), and no allocation.
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            let mut slot = first;
            loop {
                let (key, v, next) = self.pool[slot as usize];
                entries.push(Reverse((key, v)));
                if next == NIL {
                    break;
                }
                slot = next;
            }
            // The bucket's slots, still chained, head the free list: the
            // pool stays as large as the entries waiting in later buckets.
            self.pool[slot as usize].2 = self.free;
            self.free = first;
            self.heap = BinaryHeap::from(entries);
            return true;
        }
        false
    }
}

/// Reusable Dijkstra state: the distance field, the queue, and the list of
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
    queue: SweepQueue,
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

        let bound = bound.unwrap_or(f64::INFINITY);
        let base = seeds.iter().map(|&(_, d0)| d0).fold(bound, f64::min);
        self.queue.reset(base, bound);
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
                self.queue.push(d0, s);
            }
        }
        while let Some((key, v)) = self.queue.pop() {
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
                    self.queue.push(nd, u);
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
fn multi_source_dijkstra(
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
        let d = sssp_from_location(&net, &Location::Vertex(0), Some(3.0));
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

    /// `SsspScratch::run` with one `BinaryHeap` for the whole frontier: the
    /// pop-order reference. Returns the completion flag, the field and the
    /// `touched` order.
    fn heap_run(
        net: &RoadNetwork,
        seeds: &[(RoadVertexId, f64)],
        bound: Option<f64>,
        allowed: Option<&[bool]>,
        ticker: &mut BudgetTicker,
    ) -> (bool, Vec<f64>, Vec<RoadVertexId>) {
        let n = net.num_vertices();
        let ok = |v: RoadVertexId| allowed.is_none_or(|a| a[v as usize]);
        let mut dist = vec![f64::INFINITY; n];
        let mut touched = Vec::new();
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let bound = bound.unwrap_or(f64::INFINITY);
        for &(s, d0) in seeds {
            if (s as usize) < n && d0 <= bound && ok(s) && d0 < dist[s as usize] {
                if dist[s as usize].is_infinite() {
                    touched.push(s);
                }
                dist[s as usize] = d0;
                heap.push(Reverse((heap_key(d0), s)));
            }
        }
        while let Some(Reverse((key, v))) = heap.pop() {
            if !ticker.charge(1) {
                return (false, dist, touched);
            }
            let d = dist[v as usize];
            if key != heap_key(d) {
                continue;
            }
            for &(u, w) in net.neighbors(v) {
                let nd = d + w;
                if ok(u) && nd < dist[u as usize] && nd <= bound {
                    if dist[u as usize].is_infinite() {
                        touched.push(u);
                    }
                    dist[u as usize] = nd;
                    heap.push(Reverse((heap_key(nd), u)));
                }
            }
        }
        (true, dist, touched)
    }

    /// The bucketed queue settles vertices in the binary heap's order: the
    /// same completion flag, bit-identical field, `touched` order and ticker
    /// spend, on complete runs and on work-limited aborts, each abort
    /// followed by a clean run on the same scratch.
    #[test]
    fn the_queue_settles_in_the_binary_heaps_pop_order() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x90b_0bde);
        let mut scratch = SsspScratch::new();
        let (mut bucketed, mut aborted) = (0, 0);
        for case in 0..300 {
            let n = rng.random_range(1..=40u32);
            let edges = random_edges(&mut rng, n);
            let net = RoadNetwork::from_edges(n as usize, &edges);
            let seeds: Vec<(u32, f64)> = match net.edges().nth(case % 7) {
                // an on-edge location at offset 0 or w
                Some((u, v, w)) if case % 3 != 2 => {
                    let offset = if case % 3 == 0 { 0.0 } else { w };
                    vec![(u, offset), (v, (w - offset).max(0.0))]
                }
                // vertex seeds, some negative
                _ => (0..rng.random_range(1..=3))
                    .map(|_| {
                        let d0 = rng.random_range(-4..6) as f64 * 0.5;
                        (rng.random_range(0..n), d0)
                    })
                    .collect(),
            };
            let mask: Option<Vec<bool>> =
                (case % 5 == 4).then(|| (0..n).map(|_| rng.random_bool(0.8)).collect());
            let allowed = mask.as_deref();
            let at_seed = seeds[rng.random_range(0..seeds.len())].1;
            let bounds = [
                None,
                Some(0.0),
                Some(at_seed),
                Some(rng.random_range(0.0..12.0)),
            ];
            for bound in bounds {
                let mut full = BudgetTicker::unlimited();
                heap_run(&net, &seeds, bound, allowed, &mut full);
                let spent = full.spent();
                // A work-limited abort part-way, then a clean run.
                let limits = [Some(spent / 2), None];
                for limit in limits.into_iter().filter(|l| l.is_none_or(|l| l < spent)) {
                    let mut ticker = BudgetTicker::new(None, limit, None);
                    let mut want_ticker = BudgetTicker::new(None, limit, None);
                    let (ok, field, touched) =
                        heap_run(&net, &seeds, bound, allowed, &mut want_ticker);
                    let got = scratch.run(&net, &seeds, bound, allowed, &mut ticker);
                    let label =
                        format!("case {case}, seeds {seeds:?}, bound {bound:?}, limit {limit:?}");
                    assert_eq!(got, ok, "{label}");
                    assert_eq!(ok, limit.is_none(), "{label}");
                    aborted += usize::from(!ok);
                    let bits = |f: &[f64]| f.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(scratch.dist()), bits(&field), "{label}");
                    assert_eq!(scratch.touched, touched, "{label}");
                    assert_eq!(ticker.spent(), want_ticker.spent(), "{label}");
                    bucketed += usize::from(scratch.queue.last > 0);
                }
            }
        }
        assert!(aborted > 300, "only {aborted} aborted runs");
        assert!(bucketed > 300, "only {bucketed} runs used a later bucket");
    }

    /// Any interleaving of pushes and pops, pushes below the current
    /// minimum or outside `[base, bound]` included, pops in the binary
    /// heap's order; a reset after a partly drained run starts clean.
    #[test]
    fn the_queue_pops_any_push_sequence_in_heap_order() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x0de_0f9);
        let mut queue = SweepQueue::default();
        for case in 0..400 {
            let base = rng.random_range(-4..4) as f64;
            let bound = match case % 4 {
                0 => f64::INFINITY,
                1 => base,
                _ => base + rng.random_range(1..10) as f64,
            };
            queue.reset(base, bound);
            let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
            for _ in 0..rng.random_range(0..300) {
                if rng.random_bool(0.6) {
                    // Dyadic steps make equal keys, and so vertex ties, common.
                    let d = base + rng.random_range(-2..80) as f64 * 0.125;
                    let v = rng.random_range(0..30);
                    queue.push(d, v);
                    heap.push(Reverse((heap_key(d), v)));
                } else {
                    assert_eq!(queue.pop(), heap.pop().map(|Reverse(e)| e), "case {case}");
                }
            }
            if case % 2 == 0 {
                while let Some(Reverse(e)) = heap.pop() {
                    assert_eq!(queue.pop(), Some(e), "case {case}");
                }
                assert_eq!(queue.pop(), None, "case {case}");
            }
        }
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
