//! # rsn-road
//!
//! Road-network substrate for the reproduction of *"Multi-attributed
//! Community Search in Road-social Networks"* (ICDE 2021).
//!
//! The paper models the road network `G_r` as an undirected weighted graph
//! whose edge weights are travel costs; users of the social network are pinned
//! to locations in `G_r` and the *query distance* (Definition 2) measures the
//! communication cost of a community. This crate provides:
//!
//! * [`network::RoadNetwork`] — the weighted graph, stored as CSR (fixed
//!   topology, reweighted in place), plus [`network::Location`] (a point on a
//!   vertex or part-way along an edge).
//! * [`dijkstra`] — exact single-source / multi-source / bounded shortest
//!   paths, plus [`dijkstra::SsspScratch`] so repeated searches reuse their
//!   buffers instead of allocating per call. It also owns the location seed
//!   convention (the paper's `ω(u, p)`: an on-edge point seeds both
//!   endpoints with its partial edge costs) and the point-to-point
//!   [`dijkstra::location_distance`], `dist(p, p')` of the paper.
//! * [`rangefilter::RangeFilter`] — the Lemma-1 range filter as a **set**
//!   operation: a bounded Dijkstra sweep, or the multi-seed G-tree walk that
//!   evaluates every query seed in one pass over the hierarchy and prunes
//!   whole subtrees beyond `t`.
//! * [`budget::BudgetTicker`] — the cooperative work budget every query-path
//!   primitive charges; unbudgeted callers pass an unlimited one.
//! * [`gtree::GTree`] — a hierarchical graph-partition index in the spirit of
//!   the G-tree [Zhong et al., TKDE'15] the paper uses to accelerate range
//!   queries; our variant assembles within-region border matrices bottom-up
//!   and answers exact point-to-point distance queries.

pub mod budget;
pub mod dijkstra;
pub mod gtree;
pub mod network;
pub mod rangefilter;

pub use budget::{BudgetTicker, ExhaustionCause, SharedBudget, WorkerTicker};
pub use dijkstra::{bounded_sssp, sssp, sssp_from_location, SsspScratch};
pub use gtree::{BuildReport, GTree, GTreeUpdateStats, LevelReport};
pub use network::{EdgeUpdate, Location, RoadNetwork, RoadNetworkBuilder, RoadVertexId};
pub use rangefilter::{
    reuse_margin, FilterScratch, QueryReach, RangeFilter, RangeFilterChoice, REUSE_MARGIN_EPS,
};

/// Errors produced by the road substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum RoadError {
    /// A road vertex identifier was out of range.
    VertexOutOfRange {
        /// Offending vertex.
        vertex: u32,
        /// Number of road vertices.
        num_vertices: usize,
    },
    /// A location referenced an edge that does not exist.
    NoSuchEdge {
        /// Edge endpoint.
        u: u32,
        /// Edge endpoint.
        v: u32,
    },
    /// An edge weight was negative or not finite.
    InvalidWeight(f64),
    /// A location offset was outside `[0, weight(u, v)]` (NaN included).
    InvalidOffset {
        /// Requested offset.
        offset: f64,
        /// Length of the edge.
        edge_length: f64,
    },
}

impl std::fmt::Display for RoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoadError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "road vertex {vertex} out of range for network with {num_vertices} vertices"
            ),
            RoadError::NoSuchEdge { u, v } => write!(f, "no road edge between {u} and {v}"),
            RoadError::InvalidWeight(w) => write!(f, "invalid edge weight {w}"),
            RoadError::InvalidOffset {
                offset,
                edge_length,
            } => write!(
                f,
                "offset {offset} outside [0, {edge_length}] for on-edge location"
            ),
        }
    }
}

impl std::error::Error for RoadError {}
