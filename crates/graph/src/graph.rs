//! Compact undirected simple graph with dense `u32` vertex identifiers.
//!
//! The social network `G_s` of the paper is stored in this structure (minus
//! the per-vertex attribute vectors and locations, which live in the `rsn-core`
//! crate's [`RoadSocialNetwork`](https://docs.rs/rsn-core) wrapper).

use serde::{Deserialize, Serialize};

/// Dense vertex identifier. Valid identifiers are `0..graph.num_vertices()`.
pub type VertexId = u32;

/// An undirected simple graph (no self-loops, no parallel edges) stored as a
/// sorted adjacency list.
///
/// The representation is optimized for the access patterns of community
/// search: O(1) degree lookup, cache-friendly neighbour iteration, and
/// O(log deg) edge membership tests.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<VertexId>>,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// Self-loops are dropped and parallel edges are de-duplicated. Edges that
    /// reference vertices `>= n` are silently ignored (the generators never
    /// produce them; callers that want strict checking should use
    /// [`GraphBuilder`]).
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in edges {
            if (u as usize) < n && (v as usize) < n {
                builder.add_edge(u, v);
            }
        }
        builder.build()
    }

    /// Number of vertices (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Sorted slice of neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    /// Whether the undirected edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(|v| v as VertexId)
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as VertexId;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices; 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Average degree `2m / n`; 0.0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.adj.len() as f64
        }
    }

    /// Builds the subgraph induced by `vertices`, returning the new graph
    /// together with the mapping `new id -> old id`.
    ///
    /// Vertices listed more than once are collapsed; order of first occurrence
    /// determines the new ids.
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (Graph, Vec<VertexId>) {
        self.induced_subgraph_with(vertices, &mut Vec::new())
    }

    /// [`induced_subgraph`](Self::induced_subgraph) with a caller-pooled
    /// `old id -> new id` buffer. The buffer is grown to
    /// [`num_vertices`](Self::num_vertices) and must hold `u32::MAX` in every
    /// slot on entry; the entries it sets are reset before returning, so a
    /// pooled buffer costs O(|vertices|) per call instead of O(n).
    ///
    /// Each kept vertex's neighbour list is mapped through the buffer
    /// directly. The lists come out sorted whenever `vertices` is ascending
    /// (the map is then monotone); otherwise each list is sorted on its own.
    pub fn induced_subgraph_with(
        &self,
        vertices: &[VertexId],
        old_to_new: &mut Vec<u32>,
    ) -> (Graph, Vec<VertexId>) {
        old_to_new.resize(self.num_vertices(), u32::MAX);
        let mut new_to_old = Vec::with_capacity(vertices.len());
        for &v in vertices {
            if old_to_new[v as usize] == u32::MAX {
                old_to_new[v as usize] = new_to_old.len() as u32;
                new_to_old.push(v);
            }
        }
        let monotone = new_to_old.windows(2).all(|w| w[0] < w[1]);
        let mut num_ends = 0;
        let adj = new_to_old
            .iter()
            .map(|&old| {
                let mapped = || {
                    self.neighbors(old)
                        .iter()
                        .map(|&u| old_to_new[u as usize])
                        .filter(|&u| u != u32::MAX)
                };
                let mut list = Vec::with_capacity(mapped().count());
                list.extend(mapped());
                if !monotone {
                    list.sort_unstable();
                }
                num_ends += list.len();
                list
            })
            .collect();
        for &old in &new_to_old {
            old_to_new[old as usize] = u32::MAX;
        }
        let graph = Graph {
            adj,
            num_edges: num_ends / 2,
        };
        (graph, new_to_old)
    }
}

/// Incremental builder for [`Graph`] that validates vertex ranges and
/// de-duplicates edges on [`build`](GraphBuilder::build).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge. Self-loops and out-of-range endpoints are
    /// ignored so that noisy generators cannot corrupt the structure.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        if u != v && (u as usize) < self.n && (v as usize) < self.n {
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            self.edges.push((a, b));
        }
        self
    }

    /// Finalizes the graph: sorts adjacency lists and removes duplicates.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut adj = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        Graph {
            adj,
            num_edges: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        // 0-1, 1-2, 0-2 triangle, 3 attached to 0
        Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)])
    }

    #[test]
    fn builds_simple_graph() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn dedups_and_drops_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 0), (1, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn out_of_range_edges_ignored() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 5), (7, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_iterator_is_canonical() {
        let g = triangle_plus_pendant();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn degree_statistics() {
        let g = triangle_plus_pendant();
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = triangle_plus_pendant();
        let (sub, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        // only the edge 1-2 survives
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(map, vec![1, 2, 3]);
        assert!(sub.has_edge(0, 1));
        assert_eq!(sub.degree(2), 0);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = triangle_plus_pendant();
        let (sub, map) = g.induced_subgraph(&[0, 1, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(map, vec![0, 1, 2]);
    }
}
