//! # rsn-serve
//!
//! The threaded serving front-end for the MAC engine: what turns the
//! per-thread [`QuerySession`](rsn_core::QuerySession) API of `rsn-core`
//! into a multi-client request service.
//!
//! ## Architecture
//!
//! ```text
//!   submit()/try_submit()            MacServer
//!  ───────────────────────┐   ┌──────────────────────────────────────┐
//!   ResponseHandle::wait()│   │  BoundedQueue (back-pressure/shed)   │
//!  ◄──────────────────────┤   │     │          │              │      │
//!                         │   │  worker 0   worker 1  …   worker N-1 │
//!   coalescing: identical │   │  QuerySession QuerySession …         │
//!   in-flight requests    │   │  ContextCache ContextCache …         │
//!   share one execution   │   └──────┬───────────────────────────────┘
//!                         │          │ epoch pin per query
//!                         │   ┌──────▼──────────────┐
//!                         └───│  MacEngine (shared) │◄── apply_updates()
//!                             └─────────────────────┘
//! ```
//!
//! * **Request loop** — [`MacServer::start`] spawns `N` workers, each owning
//!   one pinned session (scratch + optional
//!   [`ContextCache`](rsn_core::ContextCache)), all pulling from one bounded
//!   MPMC queue. Submissions return a [`ResponseHandle`] immediately.
//! * **Deadlines from submission** — a per-request
//!   [`QueryBudget`](rsn_core::QueryBudget) deadline includes queue wait, so
//!   an overloaded server degrades to fast
//!   [`Partial`](rsn_core::QueryOutcome::Partial) answers (each an exact
//!   prefix of the full answer) instead of serving late.
//! * **Coalescing** — identical in-flight requests (same users, `k`, `t`,
//!   region, `j`, algorithm, and budget limits) share one execution; the
//!   result fans out to every waiter. See [`coalesce`].
//! * **Updates** — the road network keeps changing underneath:
//!   [`apply_updates`](rsn_core::MacEngine::apply_updates) runs on any engine
//!   clone, and every worker picks the new epoch up at its next query.
//!
//! ## Quickstart
//!
//! ```
//! use rsn_serve::{MacServer, ServeConfig};
//! use rsn_core::{MacEngine, MacQuery};
//!
//! # let rsn = rsn_datagen::paper_example::paper_example_network();
//! # let region = rsn_datagen::paper_example::paper_region();
//! let engine = MacEngine::build(rsn);
//! let server = MacServer::start(
//!     engine.clone(),
//!     ServeConfig {
//!         workers: 2,
//!         ..ServeConfig::default()
//!     },
//! );
//!
//! // Submissions return immediately; wait where convenient.
//! let query = MacQuery::new(vec![1, 2, 5], 3, 9.0, region);
//! let handles: Vec<_> = (0..8)
//!     .map(|_| server.submit(query.clone()).unwrap())
//!     .collect();
//! for handle in &handles {
//!     let response = handle.wait();
//!     let outcome = response.outcome.as_ref().unwrap();
//!     assert!(outcome.is_complete());
//! }
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.submitted, 8);
//! // Identical in-flight requests shared executions and context builds:
//! assert_eq!(
//!     stats.coalesced_joins + stats.sessions.served
//!         + stats.sessions.errors,
//!     8
//! );
//! ```
//!
//! The workspace's `tests/serve_frontend.rs` pins served answers to direct
//! execution, partial answers to exact prefixes, and error-free serving
//! under a concurrent updater thread. The `serve-zipf` workload of the
//! repository benchmark (`perfbench/`) checks the answers a Zipf-skewed
//! query population gets through the per-worker caches.

pub mod coalesce;
pub mod queue;
pub mod server;

pub use coalesce::{CoalesceKey, InflightTable, ResponseCell};
pub use queue::{BoundedQueue, TryPushError};
pub use server::{
    MacServer, Response, ResponseHandle, ServeConfig, ServeError, ServerStats, SubmitError,
};
