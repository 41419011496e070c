//! Error type for MAC queries.

use rsn_geom::GeomError;
use rsn_graph::GraphError;
use rsn_road::RoadError;

/// Which entry of a rejected [`NetworkDelta`](crate::engine::NetworkDelta)
/// caused the rejection — carried by [`MacError::DeltaRejected`] so the
/// `Display` message names the offending edge or user alongside its batch
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaEntry {
    /// Entry `edge_updates[index]`, reweighting the segment `u`–`v`.
    EdgeUpdate {
        /// Edge endpoint.
        u: u32,
        /// Edge endpoint.
        v: u32,
    },
    /// Entry `user_moves[index]`, relocating `user`.
    UserMove {
        /// Social vertex id of the user being moved.
        user: u32,
    },
}

/// Errors raised when validating or executing a MAC query.
#[derive(Debug, Clone, PartialEq)]
pub enum MacError {
    /// The query vertex set is empty.
    EmptyQuery,
    /// A query vertex does not exist in the social network.
    QueryVertexOutOfRange {
        /// Offending social vertex id.
        vertex: u32,
        /// Number of social vertices.
        num_vertices: usize,
    },
    /// The coreness threshold must be at least 1.
    InvalidCoreness(u32),
    /// The query-distance threshold must be non-negative and finite.
    InvalidDistanceThreshold(f64),
    /// The number of requested top communities must be at least 1.
    InvalidTopJ(usize),
    /// The region dimensionality does not match the attribute dimensionality.
    DimensionMismatch {
        /// d − 1 implied by the region.
        region_dim: usize,
        /// d of the attribute vectors.
        attribute_dim: usize,
    },
    /// The network was constructed inconsistently.
    InconsistentNetwork(String),
    /// An error bubbled up from the graph substrate.
    Graph(GraphError),
    /// An error bubbled up from the road substrate.
    Road(RoadError),
    /// An error bubbled up from the preference-domain geometry.
    Geom(GeomError),
    /// Query execution panicked and the panic was contained by the session
    /// guard; the session scratch was rebuilt and the engine stays
    /// serviceable. Carries the panic payload's message when one exists.
    ExecutionPanicked(String),
    /// A [`NetworkDelta`](crate::engine::NetworkDelta) batch was rejected:
    /// names the offending entry (edge or user plus its index within the
    /// batch) and the underlying cause. The served epoch is unchanged.
    DeltaRejected {
        /// Index of the entry within its batch vector.
        index: usize,
        /// Which entry was rejected.
        entry: DeltaEntry,
        /// The underlying validation error.
        cause: Box<MacError>,
    },
    /// An edge reweight would strand an on-edge user: the user's offset
    /// exceeds the edge's new length.
    StrandedOnEdgeUser {
        /// Social vertex id of the stranded user.
        user: u32,
        /// The user's current offset along the edge.
        offset: f64,
        /// The edge length the update would impose.
        new_length: f64,
    },
}

impl std::fmt::Display for MacError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MacError::EmptyQuery => write!(f, "query vertex set must not be empty"),
            MacError::QueryVertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "query vertex {vertex} out of range for social network with {num_vertices} users"
            ),
            MacError::InvalidCoreness(k) => write!(f, "coreness threshold k = {k} must be >= 1"),
            MacError::InvalidDistanceThreshold(t) => {
                write!(f, "query-distance threshold t = {t} must be finite and >= 0")
            }
            MacError::InvalidTopJ(j) => write!(f, "top-j parameter j = {j} must be >= 1"),
            MacError::DimensionMismatch {
                region_dim,
                attribute_dim,
            } => write!(
                f,
                "region has {region_dim} reduced dimensions but attributes have {attribute_dim} dimensions"
            ),
            MacError::InconsistentNetwork(msg) => write!(f, "inconsistent road-social network: {msg}"),
            MacError::Graph(e) => write!(f, "graph error: {e}"),
            MacError::Road(e) => write!(f, "road network error: {e}"),
            MacError::Geom(e) => write!(f, "preference geometry error: {e}"),
            MacError::ExecutionPanicked(msg) => {
                write!(f, "query execution panicked (contained): {msg}")
            }
            MacError::DeltaRejected {
                index,
                entry,
                cause,
            } => match entry {
                DeltaEntry::EdgeUpdate { u, v } => write!(
                    f,
                    "delta rejected: edge_updates[{index}] (segment {u}-{v}): {cause}"
                ),
                DeltaEntry::UserMove { user } => write!(
                    f,
                    "delta rejected: user_moves[{index}] (user {user}): {cause}"
                ),
            },
            MacError::StrandedOnEdgeUser {
                user,
                offset,
                new_length,
            } => write!(
                f,
                "on-edge user {user} at offset {offset} would be stranded: edge shrinks to {new_length}"
            ),
        }
    }
}

impl std::error::Error for MacError {}

impl From<GraphError> for MacError {
    fn from(e: GraphError) -> Self {
        MacError::Graph(e)
    }
}

impl From<RoadError> for MacError {
    fn from(e: RoadError) -> Self {
        MacError::Road(e)
    }
}

impl From<GeomError> for MacError {
    fn from(e: GeomError) -> Self {
        MacError::Geom(e)
    }
}
