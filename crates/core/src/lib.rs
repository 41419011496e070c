//! # rsn-core
//!
//! The multi-attributed community (MAC) model and search algorithms of
//! *"Multi-attributed Community Search in Road-social Networks"* (ICDE 2021).
//!
//! ## Model
//!
//! A road-social network pairs a social graph (users, friendships, a
//! d-dimensional attribute vector per user) with a road network in which every
//! user has a location. Given query users `Q`, a coreness threshold `k`, a
//! query-distance threshold `t`, and a region `R` of the preference domain,
//! a **MAC** (Definition 5) is a connected k-core containing `Q` whose query
//! distance is at most `t` and that is not r-dominated (Definition 4) by any
//! super-community; a **non-contained MAC** additionally has no r-dominating
//! sub-community (Definition 6). Because community scores vary with the weight
//! vector, the answer is a partition of `R`, each cell paired with its top-j
//! MACs (Problem 1) or its non-contained MAC (Problem 2). The two coincide at
//! `j = 1`, so a query's `j` selects the problem: every entry point answers
//! Problem 1 for `j > 1` and Problem 2 for `j = 1`.
//!
//! ## Serving API
//!
//! MAC search is an online query service over a fixed network, and the API is
//! shaped accordingly: build a [`MacEngine`] **once** per network (it owns
//! the network behind an `Arc` and pre-groups the G-tree user targets; the
//! build runs no timed code, so it is deterministic), open one
//! [`QuerySession`] per serving thread, and execute many queries through
//! it — every network-sized buffer is session-held and reused, so the
//! steady state is allocation-free.
//! When the road network changes (traffic reweights, user churn), apply a
//! [`NetworkDelta`] through [`MacEngine::apply_updates`]: the engine patches
//! its prepared state incrementally and swaps in a new epoch; live sessions
//! pick it up at their next query without losing any scratch.
//!
//! ```
//! use rsn_core::{MacEngine, MacQuery};
//! # use rsn_geom::region::PrefRegion;
//! # use rsn_graph::graph::Graph;
//! # use rsn_road::network::{Location, RoadNetwork};
//! # let social = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]);
//! # let road = RoadNetwork::from_edges(2, &[(0, 1, 1.0)]);
//! # let locations = vec![Location::vertex(0); 4];
//! # let attrs = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0], vec![1.5, 2.5]];
//! # let rsn = rsn_core::RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
//! let engine = MacEngine::build(rsn);          // once per network
//! let mut session = engine.session();          // once per thread
//! # let region = PrefRegion::from_ranges(&[(0.2, 0.8)]).unwrap();
//! # let query = MacQuery::new(vec![0], 2, 10.0, region);
//! let result = session.execute(&query)?;       // many times
//! # assert!(!result.is_empty());
//! # Ok::<(), rsn_core::MacError>(())
//! ```
//!
//! ## Algorithms
//!
//! * [`global`] — the DFS-based Algorithm 1 (`GS-T` / `GS-NC`): peel the
//!   maximal (k,t)-core guided by an arrangement of competitor half-spaces.
//! * [`local`] — the local framework of Algorithms 3–5 (`LS-T` / `LS-NC`):
//!   expand candidates around `Q` with the Eq. 3 / Eq. 4 priorities, then
//!   verify them against the r-dominance graph.
//! * [`peel`] — the fixed-weight peeling oracle shared by both algorithms and
//!   by the test suite.
//!
//! Both run through a [`QuerySession`]: a query's explicit
//! [`AlgorithmChoice`] picks one, and `AlgorithmChoice::Auto` (the default)
//! runs the exact global search; the heuristic local framework runs only
//! when chosen explicitly. A one-off query is a
//! fresh session on a throwaway engine, e.g.
//! `MacEngine::build(rsn).session().execute(&query)`.

pub mod budget;
pub mod context;
pub mod ctxcache;
pub mod engine;
pub mod error;
pub mod global;
pub mod ktcore;
pub mod local;
pub mod network;
mod outcome;
pub mod peel;
pub mod policy;
pub mod query;
pub mod result;
pub mod session;

pub use budget::{BudgetTicker, ExhaustionCause, QueryBudget};
pub use context::{ContextParts, ContextScratch, SearchContext};
pub use ctxcache::{ContextCache, ContextCacheStats, DEFAULT_CONTEXT_CACHE_CAPACITY};
pub use engine::{AlgorithmChoice, EngineEpoch, MacEngine, NetworkDelta, UpdateStage, UpdateStats};
pub use error::{DeltaEntry, MacError};
pub use local::ExpandStrategy;
pub use network::RoadSocialNetwork;
pub use policy::ExecutionPolicy;
pub use query::{MacQuery, QuerySignature};
pub use result::{
    CellResult, Community, MacSearchResult, PartialResult, QueryOutcome, QueryPhase, QueryProgress,
    SearchStats,
};
pub use session::{QuerySession, SessionStats};
