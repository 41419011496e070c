//! # road-social-mac
//!
//! Umbrella crate for the reproduction of *"Multi-attributed Community Search
//! in Road-social Networks"* (ICDE 2021).
//!
//! This crate simply re-exports the workspace members under stable names so
//! that examples and downstream users can depend on a single crate:
//!
//! * [`graph`] — social-graph substrate (k-core, k-truss, cascading deletion).
//! * [`road`] — road-network substrate (Dijkstra, G-tree, range queries).
//! * [`geom`] — preference-domain geometry (half-spaces, cells, partition tree).
//! * [`dom`] — flat attribute matrix and the r-dominance graph `G_d`.
//! * [`core`] — the MAC model and the global/local search algorithms.
//! * [`serve`] — threaded serving front-end (request queue, coalescing,
//!   per-worker context caches).
//! * [`baselines`] — Influ/Influ+/Sky/Sky+/ATC-style comparison algorithms.
//! * [`datagen`] — synthetic road-social network and attribute generators.
//!
//! ## Quick start
//!
//! MAC search is an online query service over a fixed network, and the API is
//! shaped accordingly: build a [`core::MacEngine`] **once** per network (it
//! owns the network behind an `Arc` and pre-groups the G-tree user targets;
//! the build is deterministic), open one
//! [`core::QuerySession`] per serving thread, and execute many queries
//! through it.
//!
//! ```
//! use road_social_mac::prelude::*;
//!
//! // Build the paper's running example (Fig. 1 / Fig. 2) and prepare it
//! // for serving, once.
//! let rsn = road_social_mac::datagen::paper_example::paper_example_network();
//! let engine = MacEngine::build(rsn);
//! let mut session = engine.session(); // one per serving thread
//!
//! let region = PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap();
//! let query = MacQuery::new(vec![1], 2, 9.0, region).with_top_j(2);
//! let result = session.execute(&query).unwrap(); // many times
//! assert!(!result.cells.is_empty());
//! ```
//!
//! Every query runs through a session: the query's `j` picks the problem
//! (top-j MACs for `j > 1`, the non-contained MAC for `j = 1`), and
//! `AlgorithmChoice::{Global, Local, Auto}` picks the exact global search,
//! the heuristic local framework, or the policy's default (the global
//! search unless the policy says `Local`), with all network-sized scratch
//! reused across queries.
//!
//! *How* queries execute — the global search's worker count, algorithm and
//! filter defaults, the default budget — is one
//! [`core::ExecutionPolicy`], set at [`core::MacEngine::build_with_policy`],
//! overridable per session ([`core::QuerySession::with_policy`]), with
//! explicit per-query choices always winning. Parallel execution is
//! output-identical to serial at any worker count.

pub use rsn_baselines as baselines;
pub use rsn_core as core;
pub use rsn_datagen as datagen;
pub use rsn_dom as dom;
pub use rsn_geom as geom;
pub use rsn_graph as graph;
pub use rsn_road as road;
pub use rsn_serve as serve;

/// Convenience prelude re-exporting the most commonly used types.
pub mod prelude {
    pub use rsn_core::{
        ktcore::maximal_kt_core, query::MacQuery, result::MacSearchResult, AlgorithmChoice,
        ExecutionPolicy, MacEngine, NetworkDelta, QueryBudget, QueryOutcome, QuerySession,
        RoadSocialNetwork,
    };
    pub use rsn_datagen::presets;
    pub use rsn_dom::dominance::DominanceGraph;
    pub use rsn_geom::{region::PrefRegion, weights::WeightVector};
    pub use rsn_graph::graph::Graph;
    pub use rsn_road::network::RoadNetwork;
    pub use rsn_serve::{MacServer, ServeConfig};
}
