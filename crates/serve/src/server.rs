//! The threaded serving front-end.
//!
//! [`MacServer::start`] spawns `N` worker threads over one shared
//! [`MacEngine`]. Each worker owns a pinned
//! [`QuerySession`](rsn_core::QuerySession) — the `!Sync` half of the core
//! serving API, holding that thread's scratch buffers and (optionally) its
//! [`ContextCache`](rsn_core::ContextCache) — and pulls requests from one
//! bounded MPMC [`BoundedQueue`]. Submissions
//! return a [`ResponseHandle`] immediately; the caller blocks only when (and
//! where) it chooses to [`wait`](ResponseHandle::wait).
//!
//! Overload shows up in three deliberate, bounded ways rather than as
//! unbounded memory growth or tail-latency collapse:
//!
//! * the queue is bounded — [`submit`](MacServer::submit) back-pressures,
//!   [`try_submit`](MacServer::try_submit) sheds and counts;
//! * per-request [`QueryBudget`] deadlines are measured **from submission**:
//!   time burned waiting in the queue comes out of the execution allowance,
//!   so an overloaded server degrades to fast
//!   [`Partial`](QueryOutcome::Partial) answers instead of serving stale
//!   deadlines late;
//! * identical in-flight requests [coalesce](crate::coalesce) into one
//!   execution.
//!
//! [`shutdown`](MacServer::shutdown) closes the queue, drains it (every
//! accepted request is answered), joins the workers, and returns the merged
//! [`ServerStats`].

use crate::coalesce::{Admission, CoalesceKey, InflightTable, ResponseCell};
use crate::queue::{BoundedQueue, TryPushError};
use rsn_core::{
    ExecutionPolicy, MacEngine, MacError, MacQuery, QueryBudget, QueryOutcome, SessionStats,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`MacServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Bounded request-queue capacity (minimum 1).
    pub queue_capacity: usize,
    /// Whether identical in-flight requests share one execution.
    pub coalescing: bool,
    /// Per-worker [`ContextCache`](rsn_core::ContextCache) capacity
    /// (0 = caching disabled).
    pub context_cache_capacity: usize,
    /// The [`ExecutionPolicy`] every worker session executes under. Its
    /// [`default_budget`](ExecutionPolicy::default_budget) is the budget
    /// [`submit`](MacServer::submit) / [`try_submit`](MacServer::try_submit)
    /// apply (deadlines measured **from submission**); its parallelism knobs
    /// default to serial — a server already runs one session per core, so
    /// intra-query parallelism only pays off for latency-critical
    /// deployments with idle cores.
    pub policy: ExecutionPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 256,
            coalescing: true,
            context_cache_capacity: rsn_core::DEFAULT_CONTEXT_CACHE_CAPACITY,
            policy: ExecutionPolicy::default(),
        }
    }
}

/// Why a response carries no query outcome.
#[derive(Debug)]
pub enum ServeError {
    /// The query itself failed (invalid query, contained panic).
    Query(MacError),
    /// The server began shutting down after this request attached to an
    /// in-flight execution whose enqueue then failed.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "query failed: {e}"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is shutting down.
    Closed,
    /// The queue is at capacity ([`try_submit`](MacServer::try_submit) only;
    /// [`submit`](MacServer::submit) blocks instead).
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "server shutting down"),
            SubmitError::QueueFull => write!(f, "request queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One served request's result and metadata. Shared (`Arc`) by every handle
/// of a coalesced execution.
#[derive(Debug)]
pub struct Response {
    /// The query outcome, or why there is none.
    pub outcome: Result<QueryOutcome, ServeError>,
    /// Submission-to-response wall-clock time (queue wait + execution).
    pub latency: Duration,
    /// Index of the worker that executed the request (`None` when the
    /// request never reached a worker).
    pub worker: Option<usize>,
    /// Engine epoch current when the worker dispatched the request.
    pub epoch: u64,
}

/// A claim on one submitted request's [`Response`].
#[derive(Debug)]
pub struct ResponseHandle {
    cell: Arc<ResponseCell>,
}

impl ResponseHandle {
    /// Blocks until the response is published. The server answers every
    /// accepted request — including queued ones during shutdown — so this
    /// always returns.
    pub fn wait(&self) -> Arc<Response> {
        self.cell.wait()
    }

    /// Returns the response if already published, without blocking.
    pub fn try_get(&self) -> Option<Arc<Response>> {
        self.cell.try_get()
    }
}

/// Merged statistics of one server's lifetime, returned by
/// [`MacServer::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests accepted (enqueued or coalesced onto an in-flight one).
    pub submitted: u64,
    /// Accepted requests answered by joining an in-flight identical
    /// execution instead of enqueueing their own.
    pub coalesced_joins: u64,
    /// Requests [`try_submit`](MacServer::try_submit) turned away with a
    /// full queue.
    pub shed: u64,
    /// Worker threads the server ran.
    pub workers: usize,
    /// Merged per-worker session counters (executions, partials, errors,
    /// context-cache hits, stored-answer hits, and entries dropped by road
    /// updates — see [`SessionStats`]).
    pub sessions: SessionStats,
}

impl ServerStats {
    /// Fraction of accepted requests served by coalescing, in `[0, 1]`.
    pub fn coalescing_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.coalesced_joins as f64 / self.submitted as f64
        }
    }

    /// Context-cache hit fraction across all workers, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        self.sessions.cache_hit_rate()
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted ({} coalesced, {} shed) across {} workers; {}",
            self.submitted, self.coalesced_joins, self.shed, self.workers, self.sessions
        )
    }
}

/// One queued request.
struct Request {
    query: MacQuery,
    budget: QueryBudget,
    key: Option<CoalesceKey>,
    cell: Arc<ResponseCell>,
    submitted_at: Instant,
}

struct Shared {
    queue: BoundedQueue<Request>,
    inflight: InflightTable,
    submitted: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
}

/// The threaded serving front-end over one [`MacEngine`]. See the
/// [module docs](self) for the architecture and
/// [the crate docs](crate) for a quickstart.
#[derive(Debug)]
pub struct MacServer {
    shared: Arc<Shared>,
    engine: MacEngine,
    config: ServeConfig,
    workers: Vec<JoinHandle<SessionStats>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("queue", &self.queue)
            .field("in_flight", &self.inflight.len())
            .finish_non_exhaustive()
    }
}

impl MacServer {
    /// Spawns the worker pool and starts serving. The engine stays shared:
    /// the caller keeps applying
    /// [`NetworkDelta`](rsn_core::NetworkDelta)s through its own clone, and
    /// workers pick each new epoch up at their next query.
    pub fn start(engine: MacEngine, config: ServeConfig) -> MacServer {
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            inflight: InflightTable::new(),
            submitted: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let engine = engine.clone();
                let cache_capacity = config.context_cache_capacity;
                let policy = config.policy.clone();
                std::thread::Builder::new()
                    .name(format!("rsn-serve-{worker}"))
                    .spawn(move || worker_loop(&shared, engine, worker, cache_capacity, policy))
                    .expect("spawn serve worker")
            })
            .collect();
        MacServer {
            shared,
            engine,
            config,
            workers,
        }
    }

    /// Number of worker threads serving.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Current request-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Submits a query under the configured default budget, blocking while
    /// the queue is full (back-pressure).
    pub fn submit(&self, query: MacQuery) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(query, self.config.policy.default_budget.clone(), true)
    }

    /// Submits a query under an explicit per-request budget, blocking while
    /// the queue is full. The deadline is measured **from submission**:
    /// queue wait counts against it, so a request that waited too long comes
    /// back as an immediate empty [`Partial`](QueryOutcome::Partial) instead
    /// of executing past its deadline.
    pub fn submit_with_budget(
        &self,
        query: MacQuery,
        budget: QueryBudget,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(query, budget, true)
    }

    /// Non-blocking submission under the default budget: a full queue sheds
    /// the request (counted in [`ServerStats::shed`]) instead of waiting.
    pub fn try_submit(&self, query: MacQuery) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(query, self.config.policy.default_budget.clone(), false)
    }

    fn submit_inner(
        &self,
        query: MacQuery,
        budget: QueryBudget,
        blocking: bool,
    ) -> Result<ResponseHandle, SubmitError> {
        let key = if self.config.coalescing {
            CoalesceKey::for_request(query.signature(), &budget)
        } else {
            None
        };
        let cell = match &key {
            Some(key) => match self.shared.inflight.join_or_insert(key) {
                Admission::Joined(cell) => {
                    self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                    self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
                    return Ok(ResponseHandle { cell });
                }
                Admission::Leads(cell) => cell,
            },
            None => Arc::new(ResponseCell::new()),
        };
        let request = Request {
            query,
            budget,
            key: key.clone(),
            cell: Arc::clone(&cell),
            submitted_at: Instant::now(),
        };
        let pushed = if blocking {
            self.shared
                .queue
                .push(request)
                .map_err(|_| SubmitError::Closed)
        } else {
            self.shared.queue.try_push(request).map_err(|e| match e {
                TryPushError::Full(_) => {
                    self.shared.shed.fetch_add(1, Ordering::Relaxed);
                    SubmitError::QueueFull
                }
                TryPushError::Closed(_) => SubmitError::Closed,
            })
        };
        match pushed {
            Ok(()) => {
                self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(ResponseHandle { cell })
            }
            Err(err) => {
                // Retire the failed leader and answer anyone who joined its
                // cell between the insert and this point, so no handle ever
                // waits forever.
                if let Some(key) = &key {
                    self.shared.inflight.retire(key);
                    cell.fulfill(Arc::new(Response {
                        outcome: Err(ServeError::ShuttingDown),
                        latency: Duration::ZERO,
                        worker: None,
                        epoch: self.engine.epoch().id(),
                    }));
                }
                Err(err)
            }
        }
    }

    /// Stops accepting requests, serves everything already queued, joins the
    /// workers, and returns the merged lifetime statistics. Waiting handles
    /// all resolve before this returns.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ServerStats {
        self.shared.queue.close();
        let workers = self.workers.len();
        let mut sessions = SessionStats::default();
        for handle in self.workers.drain(..) {
            if let Ok(stats) = handle.join() {
                sessions.merge(&stats);
            }
        }
        ServerStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            coalesced_joins: self.shared.coalesced.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            workers,
            sessions,
        }
    }
}

impl Drop for MacServer {
    /// A dropped server shuts down cleanly (queue drained, workers joined);
    /// only the statistics are lost.
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Rebases a deadline measured from submission onto the execution start: the
/// time the request spent queued comes out of its allowance. A deadline that
/// expired in the queue becomes `Duration::ZERO`, which trips the budget at
/// its first check — the request degrades to an immediate empty partial
/// answer instead of running.
fn effective_budget(budget: &QueryBudget, submitted_at: Instant) -> QueryBudget {
    match budget.deadline {
        Some(deadline) => {
            let remaining = deadline.saturating_sub(submitted_at.elapsed());
            budget.clone().with_deadline(remaining)
        }
        None => budget.clone(),
    }
}

fn worker_loop(
    shared: &Shared,
    engine: MacEngine,
    worker: usize,
    cache_capacity: usize,
    policy: ExecutionPolicy,
) -> SessionStats {
    let mut session = engine.session().with_policy(policy);
    if cache_capacity > 0 {
        session = session.with_context_cache(cache_capacity);
    }
    while let Some(request) = shared.queue.pop() {
        let epoch = engine.epoch().id();
        let budget = effective_budget(&request.budget, request.submitted_at);
        let outcome = session.execute_with_budget(&request.query, &budget);
        // Retire the coalescing key BEFORE publishing: a submission arriving
        // after this point starts a fresh execution on the current epoch
        // rather than reading a result computed on an older one.
        if let Some(key) = &request.key {
            shared.inflight.retire(key);
        }
        request.cell.fulfill(Arc::new(Response {
            outcome: outcome.map_err(ServeError::Query),
            latency: request.submitted_at.elapsed(),
            worker: Some(worker),
            epoch,
        }));
    }
    session.stats()
}
