//! # rsn-graph
//!
//! Social-graph substrate used by the multi-attributed community (MAC) search
//! reproduction of *"Multi-attributed Community Search in Road-social
//! Networks"* (ICDE 2021).
//!
//! The crate provides the purely structural pieces of the paper:
//!
//! * [`graph::Graph`] — a compact undirected simple graph.
//! * [`core_decomp`] — Batagelj–Zaversnik O(m) k-core decomposition, the
//!   coreness upper bound of Section III, and the in-place masked peel to the
//!   maximal connected k-core containing `Q`.
//! * [`subgraph::SubgraphView`] — a deletable view over a graph supporting the
//!   cascading DFS deletion of Algorithm 1 (lines 15–20) together with a
//!   checkpoint/rollback undo log, which the global search uses when
//!   exploring partitions of the preference region.
//! * [`connectivity`] — BFS/connected-component helpers.
//! * [`truss`] — k-truss decomposition, used by the ATC-style baseline and the
//!   "other cohesiveness criteria" remark of Section II-B.
//!
//! All vertex identifiers are dense `u32` indices in `0..n`.

pub mod connectivity;
pub mod core_decomp;
pub mod graph;
pub mod subgraph;
pub mod truss;

pub use connectivity::{bfs_reachable, connected_components};
pub use core_decomp::{core_numbers, coreness_upper_bound};
pub use graph::{Graph, GraphBuilder, VertexId};
pub use subgraph::{SubgraphView, ViewScratch};

/// Errors produced by the graph substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex identifier was out of range for the graph it was used with.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// An operation that requires a non-empty query set received an empty one.
    EmptyQuery,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph with {num_vertices} vertices"
            ),
            GraphError::EmptyQuery => write!(f, "query vertex set must not be empty"),
        }
    }
}

impl std::error::Error for GraphError {}
