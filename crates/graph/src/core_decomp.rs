//! k-core decomposition and maximal connected k-core extraction.
//!
//! The MAC definition (Definition 5) requires every community to be a
//! connected k-core containing the query vertices; Lemma 2 restricts the
//! search to the maximal connected k-core containing `Q`, and Section III uses
//! the coreness upper bound `⌊(1 + √(9 + 8(m − n))) / 2⌋` as a quick
//! infeasibility test before decomposing.
//!
//! There is one peel. [`PeelScratch::load`] takes a vertex mask over the
//! graph (the Lemma-1 survivors, for a MAC query), counts the masked degrees
//! in one pass, and reports the masked subgraph's `n` and `m` for the
//! coreness bound; [`MaskedPeel::connected_k_core_containing`] then peels the
//! mask in place and finds the component of `Q` by BFS. No induced copy of
//! the masked subgraph is built.

use crate::graph::{Graph, VertexId};
use crate::GraphError;

/// Computes the core number of every vertex with the Batagelj–Zaversnik
/// bucket algorithm in O(n + m).
///
/// The core number of `v` is the largest `k` such that `v` belongs to a
/// subgraph in which every vertex has degree at least `k`.
pub fn core_numbers(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let max_deg = g.max_degree();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v as u32)).collect();

    // bucket sort vertices by degree
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0u32; n];
    for v in 0..n {
        pos[v] = bin[degree[v]];
        vert[pos[v]] = v as u32;
        bin[degree[v]] += 1;
    }
    // restore bin starts
    for d in (1..=max_deg).rev() {
        bin[d] = bin[d - 1];
    }
    bin[0] = 0;

    let mut core: Vec<u32> = degree.iter().map(|&d| d as u32).collect();
    for i in 0..n {
        let v = vert[i];
        core[v as usize] = degree[v as usize] as u32;
        for &u in g.neighbors(v) {
            let u = u as usize;
            if degree[u] > degree[v as usize] {
                let du = degree[u];
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw];
                if u as u32 != w {
                    pos[u] = pw;
                    pos[w as usize] = pu;
                    vert[pu] = w;
                    vert[pw] = u as u32;
                }
                bin[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    core
}

/// The maximal core number over all vertices (`k_max` in Table II), or 0 for
/// an empty graph.
pub fn max_core_number(g: &Graph) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

/// The coreness upper bound of Section III: any graph with `n` vertices and
/// `m` edges cannot contain a k-core for
/// `k > ⌊(1 + √(9 + 8(m − n))) / 2⌋` (when `m >= n`; for sparser graphs the
/// bound degrades gracefully to 1).
///
/// The paper uses this as a constant-time early exit before running core
/// decomposition on the distance-filtered subgraph.
pub fn coreness_upper_bound(n: usize, m: usize) -> u32 {
    if n == 0 {
        return 0;
    }
    if m < n {
        // A graph with fewer edges than vertices still may contain small
        // cores (e.g. a triangle plus isolated vertices): fall back to the
        // bound computed with m - n clamped at 0.
        let val = (1.0 + 9.0_f64.sqrt()) / 2.0;
        return val.floor() as u32;
    }
    let diff = (m - n) as f64;
    ((1.0 + (9.0 + 8.0 * diff).sqrt()) / 2.0).floor() as u32
}

/// Reusable buffers of the masked k-core peel ([`PeelScratch::load`]): the
/// masked degrees and the stack that serves first the peel, then the BFS.
///
/// Both grow to the graph size once and are overwritten on every load, so a
/// caller that keeps one scratch across peels allocates nothing but the
/// returned core.
#[derive(Debug, Clone, Default)]
pub struct PeelScratch {
    degree: Vec<u32>,
    stack: Vec<VertexId>,
}

impl PeelScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        PeelScratch::default()
    }

    /// Loads the subgraph of `g` induced by `alive` for a peel: one pass over
    /// the alive vertices' neighbour lists records every masked degree, and
    /// with it the subgraph's vertex and edge counts.
    ///
    /// # Panics
    ///
    /// If `alive.len()` differs from `g.num_vertices()`.
    pub fn load<'a>(&'a mut self, g: &'a Graph, alive: &'a mut [bool]) -> MaskedPeel<'a> {
        let n = g.num_vertices();
        assert_eq!(alive.len(), n, "mask length must equal vertex count");
        self.degree.resize(n, 0);
        let (mut num_vertices, mut degree_sum) = (0usize, 0usize);
        for v in 0..n {
            if alive[v] {
                let d = g
                    .neighbors(v as VertexId)
                    .iter()
                    .filter(|&&u| alive[u as usize])
                    .count();
                self.degree[v] = d as u32;
                num_vertices += 1;
                degree_sum += d;
            }
        }
        MaskedPeel {
            g,
            alive,
            scratch: self,
            num_vertices,
            num_edges: degree_sum / 2,
        }
    }
}

/// A masked subgraph loaded by [`PeelScratch::load`], ready to be peeled.
///
/// Its counts feed the coreness bound before the peel runs; the peel itself
/// ([`connected_k_core_containing`](Self::connected_k_core_containing))
/// works in place on the mask.
#[derive(Debug)]
pub struct MaskedPeel<'a> {
    g: &'a Graph,
    alive: &'a mut [bool],
    scratch: &'a mut PeelScratch,
    num_vertices: usize,
    num_edges: usize,
}

impl MaskedPeel<'_> {
    /// Number of vertices of the masked subgraph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges of the masked subgraph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The maximal connected k-core of the masked subgraph that contains
    /// every vertex of `q`, sorted ascending.
    ///
    /// Peels the mask in place down to the maximal k-core (Batagelj &
    /// Zaversnik's linear peel: every vertex of degree `< k` leaves, and each
    /// removal decrements its alive neighbours), then runs a BFS from `q[0]`
    /// that clears the mask bit of every vertex it reaches. The mask is
    /// working space; its contents on return are unspecified. Returns
    /// `Ok(None)` when a query vertex is peeled or lies in another component
    /// of the k-core.
    pub fn connected_k_core_containing(
        self,
        k: u32,
        q: &[VertexId],
    ) -> Result<Option<Vec<VertexId>>, GraphError> {
        let MaskedPeel {
            g, alive, scratch, ..
        } = self;
        let n = g.num_vertices();
        let Some(&start) = q.first() else {
            return Err(GraphError::EmptyQuery);
        };
        if let Some(&v) = q.iter().find(|&&v| v as usize >= n) {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: n,
            });
        }
        let PeelScratch { degree, stack } = scratch;
        stack.clear();
        for v in 0..n {
            if alive[v] && degree[v] < k {
                alive[v] = false;
                stack.push(v as VertexId);
            }
        }
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                let u = u as usize;
                if alive[u] {
                    degree[u] -= 1;
                    if degree[u] < k {
                        alive[u] = false;
                        stack.push(u as VertexId);
                    }
                }
            }
        }
        if q.iter().any(|&v| !alive[v as usize]) {
            return Ok(None);
        }
        // BFS over the k-core; a reached vertex leaves the mask, so the
        // mask doubles as the visited set and `stack` as the queue.
        alive[start as usize] = false;
        stack.push(start);
        let mut head = 0;
        while let Some(&v) = stack.get(head) {
            head += 1;
            for &u in g.neighbors(v) {
                if alive[u as usize] {
                    alive[u as usize] = false;
                    stack.push(u);
                }
            }
        }
        if q.iter().any(|&v| alive[v as usize]) {
            return Ok(None);
        }
        stack.sort_unstable();
        Ok(Some(stack.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// The maximal connected k-core of the whole graph containing `q`.
    fn connected_core(
        g: &Graph,
        k: u32,
        q: &[VertexId],
    ) -> Result<Option<Vec<VertexId>>, GraphError> {
        let mut alive = vec![true; g.num_vertices()];
        PeelScratch::new()
            .load(g, &mut alive)
            .connected_k_core_containing(k, q)
    }

    /// The 15-vertex social network of Fig. 1(a) in the paper.
    ///
    /// Vertex `i` here corresponds to `v_{i+1}` in the figure. Edges are read
    /// off the figure so that the example results of the paper hold:
    /// the maximal (3,·)-core for Q={v2,v3,v6} is {v1..v7} and the subgraph
    /// induced by {v2,v3,v6,v7} is a 3-core.
    pub(crate) fn paper_social_graph() -> Graph {
        let edges: &[(u32, u32)] = &[
            // dense cluster v1..v7 (0..6)
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (1, 6),
            (2, 3),
            (2, 4),
            (2, 5),
            (2, 6),
            (3, 4),
            (4, 5),
            (5, 6),
            (1, 6),
            (5, 6),
            // v7 (6) also connects to v2, v3, v6 forming the (3,t)-core {v2,v3,v6,v7}
            // periphery v8..v15 (7..14)
            (6, 8),
            (7, 8),
            (8, 9),
            (8, 13),
            (9, 10),
            (10, 11),
            (11, 12),
            (12, 13),
            (13, 14),
            (9, 13),
        ];
        Graph::from_edges(15, edges)
    }

    #[test]
    fn core_numbers_triangle() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let core = core_numbers(&g);
        assert_eq!(core[0], 2);
        assert_eq!(core[1], 2);
        assert_eq!(core[2], 2);
        assert_eq!(core[3], 1);
    }

    #[test]
    fn core_numbers_star() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(core_numbers(&g), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn core_numbers_clique() {
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(6, &edges);
        assert!(core_numbers(&g).iter().all(|&c| c == 5));
        assert_eq!(max_core_number(&g), 5);
    }

    #[test]
    fn core_numbers_empty_and_isolated() {
        assert!(core_numbers(&Graph::new(0)).is_empty());
        assert_eq!(core_numbers(&Graph::new(3)), vec![0, 0, 0]);
    }

    #[test]
    fn coreness_bound_matches_formula() {
        // m - n = 10 => floor((1 + sqrt(89)) / 2) = 5
        assert_eq!(coreness_upper_bound(10, 20), 5);
        // complete graph on 6 vertices: n=6, m=15 => floor((1+sqrt(81))/2)=5
        assert_eq!(coreness_upper_bound(6, 15), 5);
        assert_eq!(coreness_upper_bound(0, 0), 0);
        assert!(coreness_upper_bound(10, 5) >= 1);
    }

    #[test]
    fn coreness_bound_is_valid_upper_bound() {
        let g = paper_social_graph();
        let bound = coreness_upper_bound(g.num_vertices(), g.num_edges());
        assert!(max_core_number(&g) <= bound);
    }

    #[test]
    fn masked_peel_removes_low_degree_vertices() {
        // triangle {0,1,2} with the tail 2-3-4
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let mut scratch = PeelScratch::new();
        let mut alive = vec![true; 5];
        let peel = scratch.load(&g, &mut alive);
        assert_eq!((peel.num_vertices(), peel.num_edges()), (5, 5));
        assert_eq!(
            peel.connected_k_core_containing(2, &[0]).unwrap(),
            Some(vec![0, 1, 2])
        );
        // the reused scratch starts over on a fresh mask
        let mut alive = vec![true; 5];
        let peel = scratch.load(&g, &mut alive);
        assert_eq!(peel.connected_k_core_containing(3, &[0]).unwrap(), None);
        let mut alive = vec![true; 5];
        let peel = scratch.load(&g, &mut alive);
        assert_eq!(
            peel.connected_k_core_containing(1, &[4]).unwrap(),
            Some(vec![0, 1, 2, 3, 4])
        );
    }

    #[test]
    fn masked_peel_ignores_vertices_outside_the_mask() {
        // K4 {0,1,2,3}; masking out 3 leaves a triangle, a 2-core but no
        // 3-core, and the masked counts exclude 3's edges
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut scratch = PeelScratch::new();
        for (k, expected) in [(2, Some(vec![0, 1, 2])), (3, None)] {
            let mut alive = vec![true, true, true, false];
            let peel = scratch.load(&g, &mut alive);
            assert_eq!((peel.num_vertices(), peel.num_edges()), (3, 3));
            assert_eq!(peel.connected_k_core_containing(k, &[1]).unwrap(), expected);
        }
        let mut alive = vec![true, true, true, false];
        assert!(matches!(
            scratch
                .load(&g, &mut alive)
                .connected_k_core_containing(2, &[]),
            Err(GraphError::EmptyQuery)
        ));
    }

    #[test]
    fn connected_k_core_containing_query() {
        // two K4s {0,1,2,3} and {5,6,7,8} joined through cut vertex 4
        let mut edges = vec![(3, 4), (4, 5)];
        for base in [0u32, 5u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        let g = Graph::from_edges(9, &edges);
        let res = connected_core(&g, 3, &[0]).unwrap();
        assert_eq!(res, Some(vec![0, 1, 2, 3]));
        let res2 = connected_core(&g, 3, &[5, 8]).unwrap();
        assert_eq!(res2, Some(vec![5, 6, 7, 8]));
        // query spanning both components of the 3-core -> None
        let res3 = connected_core(&g, 3, &[0, 8]).unwrap();
        assert_eq!(res3, None);
        // the cut vertex is not in any 3-core
        let res4 = connected_core(&g, 3, &[4]).unwrap();
        assert_eq!(res4, None);
        // with k = 2 the whole graph is one connected 2-core
        let res5 = connected_core(&g, 2, &[0, 8]).unwrap();
        assert_eq!(res5.map(|v| v.len()), Some(9));
    }

    #[test]
    fn connected_k_core_rejects_bad_input() {
        let g = Graph::new(3);
        assert!(matches!(
            connected_core(&g, 1, &[]),
            Err(GraphError::EmptyQuery)
        ));
        assert!(matches!(
            connected_core(&g, 1, &[7]),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn paper_example_core_structure() {
        let g = paper_social_graph();
        // Q = {v2, v3, v6} -> indices {1, 2, 5}; the maximal connected 3-core
        // containing them is {v1..v7} = indices 0..=6.
        let res = connected_core(&g, 3, &[1, 2, 5]).unwrap().unwrap();
        assert_eq!(res, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
