//! The prepared, shareable — and now **mutable** — query-serving engine.
//!
//! The paper frames MAC search as an *online query service* over a
//! road-social network: the network, its G-tree index and the grouping of
//! user locations by index leaf are all per-network state that should be
//! prepared **once** and then serve many queries. [`MacEngine`] is that
//! preparation:
//!
//! * it owns the [`RoadSocialNetwork`] behind an `Arc`, so an engine is
//!   cheaply `Clone + Send + Sync` — one engine can be shared by any number
//!   of serving threads;
//! * when the network carries a G-tree index it pre-groups every user
//!   location by G-tree leaf ([`rsn_road::rangefilter::group_user_targets`]),
//!   a per-network computation the batched range filters would otherwise
//!   repeat per query.
//!
//! The build runs no timed code: the same network always yields the same
//! engine, and an `Auto` range filter resolves through the deterministic
//! cost model of [`rsn_road::rangefilter::resolve_auto`].
//!
//! Real road networks change while a service runs — traffic reweights edges,
//! users appear and move. [`MacEngine::apply_updates`] absorbs a
//! [`NetworkDelta`] **without** a rebuild: the prepared state lives in an
//! immutable *epoch* behind an `RwLock`ed `Arc`, updates copy the current
//! epoch, patch it incrementally (edge weights in place, dirty G-tree matrix
//! paths via [`rsn_road::gtree::GTree::apply_edge_updates`], per-leaf user
//! rows via the incremental target maintenance), and swap the pointer. Every
//! [`QuerySession`] pins one epoch per query, so in-flight queries finish on
//! a consistent snapshot, the next query sees the new network, and all
//! session scratch survives untouched.
//!
//! Per-thread execution state lives in [`QuerySession`] (obtained via
//! [`MacEngine::session`]); the engine itself holds no per-query state.

use crate::error::{DeltaEntry, MacError};
use crate::network::RoadSocialNetwork;
use crate::policy::ExecutionPolicy;
use crate::query::MacQuery;
use crate::session::QuerySession;
use rsn_graph::graph::VertexId;
use rsn_road::gtree::{GTreeUpdateStats, LeafTargets};
use rsn_road::network::{EdgeUpdate, Location};
use rsn_road::rangefilter::{
    add_user_target, group_user_targets, remove_user_target, RangeFilterChoice,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Which search algorithm answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlgorithmChoice {
    /// Inherit the choice: a query-level `Auto` takes its
    /// [`ExecutionPolicy::algorithm`], and a policy-level `Auto` runs the
    /// exact global search (Algorithm 1), whatever the size of the maximal
    /// (k,t)-core. GS time grows steeply with the core (a 400-user random
    /// network with k = 3 and σ = 0.05 took 26–29 s for 163,994 cells in a
    /// release build on a 2-vCPU host, where LS took 5 ms and reported
    /// none), so bound it with [`QuerySession::execute_with_budget`]; a
    /// budget-cut answer is a `Partial` whose cells are exact. The policy's
    /// [`default_budget`](ExecutionPolicy::default_budget) bounds only
    /// queries submitted to `rsn-serve`'s `MacServer`:
    /// [`QuerySession::execute`] ignores it and runs unbounded.
    #[default]
    Auto,
    /// Always run the DFS-based global search (Algorithm 1) — exact.
    Global,
    /// Always run the local expand-and-verify framework (Algorithms 3–5) —
    /// the paper's heuristic for large cores; results are confirmed against
    /// the fixed-weight peeling oracle but cells may be missed. Beyond small
    /// inputs it may miss all of them: it reported 0 cells on a 300-user
    /// random network (core 294, k = 3, σ = 0.05) where GS reported 2,370,
    /// on 9 of 9 k = 3 queries over a 10k-vertex grid (core 1,994) where GS
    /// reported 794–2,884, and on five d = 3 evaluation presets at 0.05
    /// scale. Only an explicit choice runs it.
    Local,
}

/// How many epochs of user moves an epoch remembers
/// ([`EngineEpoch::moved_since`]). A cached session further behind than
/// this clears its cache at its next query.
const MOVE_LOG_EPOCHS: usize = 64;

/// A batch of road-network changes for [`MacEngine::apply_updates`]: traffic
/// reweights of existing road segments plus user location churn. Applied
/// atomically — an invalid entry rejects the whole delta and the served
/// state is unchanged.
///
/// Topology is fixed: updates reweight existing edges only (the G-tree
/// partition and border structure depend on the adjacency alone, which is
/// what makes the incremental refresh exact); adding or removing road
/// segments or social users requires building a new engine.
///
/// A delta applies **sequentially — all `edge_updates`, then all
/// `user_moves` — and every step must leave a valid network.** In
/// particular, shrinking a segment below a *currently* resident on-edge
/// user's offset is rejected even when a later move in the same delta would
/// have taken that user elsewhere: issue the moves as their own delta first.
/// (The opposite order would be worse: a move targeting an offset that only
/// exists after a reweight grows the segment.)
#[derive(Debug, Clone, Default)]
pub struct NetworkDelta {
    /// Road-segment reweights (the last update of an edge wins).
    pub edge_updates: Vec<EdgeUpdate>,
    /// `(user, new location)` moves — covering arrivals ("appear at their
    /// first real location") and departures ("park far away") as well.
    pub user_moves: Vec<(VertexId, Location)>,
}

impl NetworkDelta {
    /// An empty delta.
    pub fn new() -> Self {
        NetworkDelta::default()
    }

    /// Adds a road-segment reweight.
    pub fn reweight_edge(mut self, u: u32, v: u32, weight: f64) -> Self {
        self.edge_updates.push(EdgeUpdate::new(u, v, weight));
        self
    }

    /// Adds a user move.
    pub fn move_user(mut self, user: VertexId, location: Location) -> Self {
        self.user_moves.push((user, location));
        self
    }

    /// Whether the delta carries no changes.
    pub fn is_empty(&self) -> bool {
        self.edge_updates.is_empty() && self.user_moves.is_empty()
    }
}

/// What one [`MacEngine::apply_updates`] call did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateStats {
    /// Epoch id the engine now serves (monotonically increasing from 0).
    pub epoch: u64,
    /// Road-segment reweights applied.
    pub edges_reweighted: usize,
    /// User moves applied.
    pub users_moved: usize,
    /// Users whose grouped filter seeds were refreshed: every moved user
    /// plus every on-edge user sitting on a reweighted segment (indexed
    /// engines only — an unindexed engine keeps no grouping).
    pub user_targets_refreshed: usize,
    /// G-tree incremental-refresh statistics (`None` without an index or
    /// without edge updates).
    pub gtree: Option<GTreeUpdateStats>,
    /// Always `false`: the engine no longer calibrates. Kept only because
    /// the `perfbench` benchmark reads it; it goes when that benchmark
    /// stops reading it.
    pub recalibrated: bool,
    /// Wall-clock seconds for the whole update.
    pub elapsed_seconds: f64,
    /// Wall-clock seconds of each stage, indexed by `stage as usize` in
    /// [`UpdateStage::ALL`] order. A stage runs from its start to the next
    /// stage's start; `Validate` includes the epoch copy, `Swap` building
    /// and publishing the next epoch. A skipped stage (the G-tree refresh
    /// of a delta without reweights) reads 0. The stages sum to at most
    /// [`elapsed_seconds`](Self::elapsed_seconds), which also counts the
    /// wait for the update lock.
    pub stage_seconds: [f64; UpdateStage::ALL.len()],
}

/// The stages of one [`MacEngine::apply_updates`] call, in execution order.
/// The update pipeline is copy-on-write: every stage before [`Swap`](UpdateStage::Swap)
/// works on a private copy of the epoch, so a failure (or an injected fault —
/// see the `failpoints` feature) at any stage leaves the served epoch
/// untouched, and `Swap` itself is a single pointer store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateStage {
    /// Up-front validation of the whole delta (per-entry, indexed errors).
    Validate,
    /// Incremental G-tree matrix refresh for the reweighted edges.
    GTreeRefresh,
    /// Per-leaf user-target row edits (moved + on-edge users).
    LeafEdits,
    /// Publishing the new epoch (the single pointer store).
    Swap,
}

impl UpdateStage {
    /// All stages, in execution order.
    pub const ALL: [UpdateStage; 4] = [
        UpdateStage::Validate,
        UpdateStage::GTreeRefresh,
        UpdateStage::LeafEdits,
        UpdateStage::Swap,
    ];

    /// Stable lowercase name (log/diagnostic label).
    pub fn name(self) -> &'static str {
        match self {
            UpdateStage::Validate => "validate",
            UpdateStage::GTreeRefresh => "gtree-refresh",
            UpdateStage::LeafEdits => "leaf-edits",
            UpdateStage::Swap => "swap",
        }
    }
}

/// An injectable fault hook for [`MacEngine::apply_updates`] (test-only,
/// behind the `failpoints` feature): called at each [`UpdateStage`], may
/// return an error — or panic — to simulate a fault at that stage.
#[cfg(feature = "failpoints")]
type FailpointHook = Arc<dyn Fn(UpdateStage) -> Result<(), MacError> + Send + Sync>;

#[derive(Debug)]
struct EngineInner {
    rsn: RoadSocialNetwork,
    /// User seeds pre-grouped by G-tree leaf (present iff the network has an
    /// index) — shared by every session's batched filter evaluations.
    user_targets: Option<LeafTargets>,
    /// Monotonic epoch id (0 at build, +1 per applied delta).
    epoch: u64,
    /// Cumulative distance drift `C` since the build (see
    /// [`EngineEpoch::drift`]).
    drift: f64,
    /// Deltas since the build that changed some edge weight (see
    /// [`EngineEpoch::reweighted_epochs`]).
    reweighted_epochs: u64,
    /// The users each of the last [`MOVE_LOG_EPOCHS`] deltas moved, oldest
    /// first; the back entry belongs to this epoch.
    move_log: VecDeque<Arc<[VertexId]>>,
}

struct EngineShared {
    /// The epoch currently being served. Readers clone the `Arc` (one brief
    /// read lock per query); updates build the next epoch off-lock and swap.
    current: RwLock<Arc<EngineInner>>,
    /// The engine-level [`ExecutionPolicy`]: every session opened from any
    /// clone starts from it. Fixed at build (epochs change the network, not
    /// the policy); a session overrides it locally via
    /// [`QuerySession::with_policy`](crate::session::QuerySession::with_policy).
    policy: ExecutionPolicy,
    /// Serializes writers so concurrent deltas cannot lose updates.
    update_lock: Mutex<()>,
    /// Test-only fault-injection hook, fired at each [`UpdateStage`].
    #[cfg(feature = "failpoints")]
    failpoint: Mutex<Option<FailpointHook>>,
}

impl std::fmt::Debug for EngineShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual impl: the failpoint hook (when compiled in) is an opaque
        // closure with no useful Debug form.
        f.debug_struct("EngineShared")
            .field("current", &self.current)
            .field("update_lock", &self.update_lock)
            .finish_non_exhaustive()
    }
}

impl EngineShared {
    /// Reads the served epoch, recovering from lock poisoning. The guarded
    /// value is a single `Arc` that is only ever *stored* (never mutated in
    /// place) under the write lock, so even a poisoned lock still guards a
    /// fully consistent epoch — a panic between acquiring the write guard
    /// and the store leaves the *previous* epoch in place, which is exactly
    /// the rejected-delta contract.
    fn read_current(&self) -> Arc<EngineInner> {
        match self.current.read() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Acquires the writer-serialization lock, recovering from poisoning:
    /// the guarded value is a unit — there is no state to be torn — so a
    /// previous writer's panic must not brick every later update.
    fn lock_updates(&self) -> std::sync::MutexGuard<'_, ()> {
        match self.update_lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Fires the injected fault hook for `stage` (no-op without the
    /// `failpoints` feature).
    #[cfg(feature = "failpoints")]
    fn fire_failpoint(&self, stage: UpdateStage) -> Result<(), MacError> {
        let hook = match self.failpoint.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        match hook {
            Some(hook) => hook(stage),
            None => Ok(()),
        }
    }

    #[cfg(not(feature = "failpoints"))]
    #[inline(always)]
    fn fire_failpoint(&self, _stage: UpdateStage) -> Result<(), MacError> {
        Ok(())
    }
}

/// A prepared query-serving engine over one road-social network.
///
/// Build once ([`build`](Self::build)), then open one [`QuerySession`] per
/// serving thread ([`session`](Self::session)) and execute many queries
/// through it. Cloning an engine clones an `Arc` — all clones (and all
/// sessions opened from them) share the network, the index and the
/// pre-grouped user targets, **including every later
/// [`apply_updates`](Self::apply_updates)**: a delta applied through any
/// clone is visible to all of them from their next query on.
///
/// ```
/// use rsn_core::{MacEngine, MacQuery};
/// use rsn_geom::region::PrefRegion;
/// # use rsn_graph::graph::Graph;
/// # use rsn_road::network::{Location, RoadNetwork};
/// # let social = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]);
/// # let road = RoadNetwork::from_edges(2, &[(0, 1, 1.0)]);
/// # let locations = vec![Location::vertex(0); 4];
/// # let attrs = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0], vec![1.5, 2.5]];
/// # let rsn = rsn_core::RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
/// let engine = MacEngine::build(rsn); // user grouping runs here, once
/// let mut session = engine.session(); // per-thread scratch lives here
/// let region = PrefRegion::from_ranges(&[(0.2, 0.8)]).unwrap();
/// let query = MacQuery::new(vec![0], 2, 10.0, region);
/// let result = session.execute(&query).unwrap();
/// assert!(!result.is_empty());
/// // Traffic: reweight the road edge; the session serves the new epoch.
/// use rsn_core::NetworkDelta;
/// let stats = engine
///     .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 2.5))
///     .unwrap();
/// assert_eq!(stats.epoch, 1);
/// assert!(!session.execute(&query).unwrap().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MacEngine {
    shared: Arc<EngineShared>,
}

/// One immutable snapshot of the engine's prepared state. Obtained from
/// [`MacEngine::epoch`]; a query pins one epoch for its whole execution, so
/// a concurrently applied [`NetworkDelta`] never changes the network under a
/// running query. Cloning an epoch clones an `Arc`.
#[derive(Debug, Clone)]
pub struct EngineEpoch {
    inner: Arc<EngineInner>,
}

impl EngineEpoch {
    /// The served network of this epoch.
    pub fn network(&self) -> &RoadSocialNetwork {
        &self.inner.rsn
    }

    /// User seeds pre-grouped by G-tree leaf, when the network has an index.
    pub fn user_targets(&self) -> Option<&LeafTargets> {
        self.inner.user_targets.as_ref()
    }

    /// Monotonic epoch id (0 at build, +1 per applied delta).
    pub fn id(&self) -> u64 {
        self.inner.epoch
    }

    /// Cumulative distance drift `C` since the build: the sum over every
    /// applied reweight of `|w' - w|`, doubled when a user sits part-way
    /// along the reweighted edge. Topology is fixed, so between two epochs
    /// no location-to-location distance moved by more than the difference
    /// of their drifts. 0 at build; user moves add nothing.
    pub fn drift(&self) -> f64 {
        self.inner.drift
    }

    /// How many deltas since the build changed some edge weight. Two
    /// epochs with the same count have the same distances exactly, even
    /// where a change too small to move the cumulative
    /// [`drift`](Self::drift) left it equal.
    pub(crate) fn reweighted_epochs(&self) -> u64 {
        self.inner.reweighted_epochs
    }

    /// The users moved by the deltas after epoch `since`, up to and
    /// including this epoch (a user moved twice appears twice). `None` when
    /// `since` lies further back than the epoch remembers.
    pub(crate) fn moved_since(&self, since: u64) -> Option<impl Iterator<Item = VertexId> + '_> {
        let log = &self.inner.move_log;
        let behind = self.inner.epoch.checked_sub(since)?;
        if behind > log.len() as u64 {
            return None;
        }
        Some(
            log.iter()
                .skip(log.len() - behind as usize)
                .flat_map(|users| users.iter().copied()),
        )
    }

    /// Resolves a query's range-filter strategy: an explicit query-level
    /// `filter` wins, a query-level `Auto` falls back to `policy_default`,
    /// and only when that is also `Auto` does the cost model decide
    /// ([`RoadSocialNetwork::resolve_range_filter`]). This is the
    /// resolution a [`QuerySession`] applies.
    pub fn resolve_filter_with(
        &self,
        query: &MacQuery,
        policy_default: RangeFilterChoice,
    ) -> RangeFilterChoice {
        let requested = match query.filter {
            RangeFilterChoice::Auto => policy_default,
            explicit => explicit,
        };
        self.inner
            .rsn
            .resolve_range_filter(requested, query.q.len(), query.t)
    }
}

impl MacEngine {
    /// Prepares an engine: groups the user locations by G-tree leaf when
    /// the network carries an index. Sessions start from the default
    /// [`ExecutionPolicy`].
    pub fn build(rsn: RoadSocialNetwork) -> Self {
        Self::build_with_policy(rsn, ExecutionPolicy::default())
    }

    /// Prepares an engine under an explicit [`ExecutionPolicy`]: every
    /// [`session`](Self::session) opened from this engine — or any clone —
    /// starts from `policy` instead of the default.
    pub fn build_with_policy(rsn: RoadSocialNetwork, policy: ExecutionPolicy) -> Self {
        let user_targets = rsn
            .gtree()
            .map(|tree| group_user_targets(tree, rsn.road(), rsn.locations()));
        MacEngine {
            shared: Arc::new(EngineShared {
                current: RwLock::new(Arc::new(EngineInner {
                    rsn,
                    user_targets,
                    epoch: 0,
                    drift: 0.0,
                    reweighted_epochs: 0,
                    move_log: VecDeque::new(),
                })),
                policy,
                update_lock: Mutex::new(()),
                #[cfg(feature = "failpoints")]
                failpoint: Mutex::new(None),
            }),
        }
    }

    /// Same as [`build`](Self::build). Kept only because the `perfbench`
    /// benchmark calls it; it goes when that benchmark calls `build`.
    #[doc(hidden)]
    pub fn build_uncalibrated(rsn: RoadSocialNetwork) -> Self {
        Self::build(rsn)
    }

    /// Same as [`build_with_policy`](Self::build_with_policy). Kept only
    /// because the `perfbench` benchmark calls it; it goes when that
    /// benchmark calls `build_with_policy`.
    #[doc(hidden)]
    pub fn build_uncalibrated_with_policy(rsn: RoadSocialNetwork, policy: ExecutionPolicy) -> Self {
        Self::build_with_policy(rsn, policy)
    }

    /// Installs a fault-injection hook fired at each [`UpdateStage`] of every
    /// subsequent [`apply_updates`](Self::apply_updates) call (through any
    /// clone of this engine). The hook may return an error — or panic — to
    /// simulate a fault at that stage; either way the served epoch must stay
    /// consistent. Test-only, behind the `failpoints` feature.
    #[cfg(feature = "failpoints")]
    pub fn set_failpoint<F>(&self, hook: F)
    where
        F: Fn(UpdateStage) -> Result<(), MacError> + Send + Sync + 'static,
    {
        let installed: FailpointHook = Arc::new(hook);
        match self.shared.failpoint.lock() {
            Ok(mut guard) => *guard = Some(installed),
            Err(poisoned) => *poisoned.into_inner() = Some(installed),
        }
    }

    /// Removes the installed fault-injection hook, if any.
    #[cfg(feature = "failpoints")]
    pub fn clear_failpoint(&self) {
        match self.shared.failpoint.lock() {
            Ok(mut guard) => *guard = None,
            Err(poisoned) => *poisoned.into_inner() = None,
        }
    }

    /// Pins the epoch currently being served: one brief read lock, one `Arc`
    /// clone. All state accessors live on the returned [`EngineEpoch`] so a
    /// caller reads a consistent snapshot even while updates land.
    pub fn epoch(&self) -> EngineEpoch {
        EngineEpoch {
            inner: self.shared.read_current(),
        }
    }

    /// The engine-level [`ExecutionPolicy`] every session starts from.
    pub fn policy(&self) -> &ExecutionPolicy {
        &self.shared.policy
    }

    /// Opens a per-thread serving session holding all reusable query
    /// scratch. The session starts from the engine's [`ExecutionPolicy`]
    /// (see [`policy`](Self::policy)); override it per session with
    /// [`QuerySession::with_policy`].
    pub fn session(&self) -> QuerySession {
        QuerySession::new(self.clone())
    }

    /// Applies a batch of network changes **without rebuilding**: copies the
    /// current epoch, patches the copy incrementally, and swaps it in as the
    /// next epoch. All-or-nothing — an invalid entry (missing edge, bad
    /// weight, an on-edge user stranded past its edge's new length, an
    /// out-of-range user, an invalid location) rejects the delta and the
    /// served epoch is unchanged.
    ///
    /// Incremental work per delta:
    /// * road edge weights are patched in place;
    /// * the G-tree recomputes only the matrices of nodes whose region
    ///   contains both endpoints of a reweighted edge, climbing toward the
    ///   root only while a recomputed matrix actually changed
    ///   ([`GTree::apply_edge_updates`](rsn_road::gtree::GTree::apply_edge_updates));
    ///   the new epoch copies just those nodes and shares every other node
    ///   with the previous epoch. Like the index build, the refresh fills
    ///   the rows of large recomputed nodes on every core of the host,
    ///   whatever the [`ExecutionPolicy::parallelism`] of the sessions, so
    ///   an update applied under a running `MacServer` briefly shares the
    ///   cores with its workers;
    /// * the pre-grouped per-leaf user rows are edited for exactly the moved
    ///   users and the on-edge users of reweighted segments.
    ///
    /// Sessions (and engine clones) observe the new epoch from their next
    /// query; queries already executing finish on the epoch they pinned.
    /// An empty delta is a no-op: no copy is made and the epoch id does not
    /// advance.
    pub fn apply_updates(&self, delta: &NetworkDelta) -> Result<UpdateStats, MacError> {
        let start = Instant::now();
        let _serialize = self.shared.lock_updates();
        let prev: Arc<EngineInner> = self.shared.read_current();
        if delta.is_empty() {
            return Ok(UpdateStats {
                epoch: prev.epoch,
                elapsed_seconds: start.elapsed().as_secs_f64(),
                ..UpdateStats::default()
            });
        }

        // Each stage runs from `mark` to the next stage's start.
        let mut mark = Instant::now();
        let mut stage_seconds = [0.0; UpdateStage::ALL.len()];
        let mut lap = |stage: UpdateStage| {
            let now = Instant::now();
            stage_seconds[stage as usize] = (now - mark).as_secs_f64();
            mark = now;
        };
        self.shared.fire_failpoint(UpdateStage::Validate)?;
        Self::validate_delta(&prev.rsn, delta)?;

        // Copy-on-write: patch a private copy; on any error it is dropped
        // and the served epoch stays live.
        let mut rsn = prev.rsn.clone();
        let mut user_targets = prev.user_targets.clone();
        let mut stats = UpdateStats {
            epoch: prev.epoch + 1,
            edges_reweighted: delta.edge_updates.len(),
            users_moved: delta.user_moves.len(),
            ..UpdateStats::default()
        };

        let mut users_on_reweighted_edges = Vec::new();
        let mut drift = prev.drift;
        let mut reweighted_epochs = prev.reweighted_epochs;
        lap(UpdateStage::Validate);
        if !delta.edge_updates.is_empty() {
            self.shared.fire_failpoint(UpdateStage::GTreeRefresh)?;
            let outcome = rsn.apply_edge_updates(&delta.edge_updates)?;
            stats.gtree = outcome.gtree;
            users_on_reweighted_edges = outcome.users_on_reweighted_edges;
            // A sum of terms `|w' - w| >= 0` is positive iff some weight
            // changed.
            let added = Self::delta_drift(&prev.rsn, &rsn, delta, &users_on_reweighted_edges);
            if added > 0.0 {
                drift += added;
                reweighted_epochs += 1;
            }
            lap(UpdateStage::GTreeRefresh);
        }

        self.shared.fire_failpoint(UpdateStage::LeafEdits)?;
        // On-edge users of reweighted segments carry a stale far-endpoint
        // seed offset (w - offset): refresh their grouped rows.
        if let (Some(tree), Some(targets)) = (rsn.gtree(), user_targets.as_mut()) {
            for &user in &users_on_reweighted_edges {
                let loc = *rsn.location(user);
                remove_user_target(tree, rsn.road(), targets, user, &loc);
                add_user_target(tree, rsn.road(), targets, user, &loc);
                stats.user_targets_refreshed += 1;
            }
        }

        for (index, &(user, location)) in delta.user_moves.iter().enumerate() {
            // Location validity depends on the post-reweight weights (the
            // documented sequential semantics), so it is checked here rather
            // than in the up-front validation — still all-or-nothing, since
            // only the private copy has been touched.
            let old =
                rsn.set_user_location(user, location)
                    .map_err(|cause| MacError::DeltaRejected {
                        index,
                        entry: DeltaEntry::UserMove { user },
                        cause: Box::new(cause),
                    })?;
            if let (Some(tree), Some(targets)) = (rsn.gtree(), user_targets.as_mut()) {
                remove_user_target(tree, rsn.road(), targets, user, &old);
                add_user_target(tree, rsn.road(), targets, user, &location);
                stats.user_targets_refreshed += 1;
            }
        }

        lap(UpdateStage::LeafEdits);
        let mut move_log = prev.move_log.clone();
        if move_log.len() == MOVE_LOG_EPOCHS {
            move_log.pop_front();
        }
        move_log.push_back(delta.user_moves.iter().map(|&(user, _)| user).collect());
        let next = Arc::new(EngineInner {
            rsn,
            user_targets,
            epoch: prev.epoch + 1,
            drift,
            reweighted_epochs,
            move_log,
        });
        {
            let mut guard = match self.shared.current.write() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Fired while holding the write guard: an injected panic here
            // poisons the lock with the *previous* epoch still in place —
            // exactly the torn state the poison-recovering accessors must
            // keep serving through.
            self.shared.fire_failpoint(UpdateStage::Swap)?;
            *guard = next;
        }
        lap(UpdateStage::Swap);
        stats.elapsed_seconds = start.elapsed().as_secs_f64();
        stats.stage_seconds = stage_seconds;
        Ok(stats)
    }

    /// The drift one delta's reweights add (see [`EngineEpoch::drift`]):
    /// each update contributes `|w' - w|` against the weight before the
    /// delta, twice when one of `users_on_edges` sits on its edge. Summing
    /// every update of an edge updated twice only overstates the bound.
    fn delta_drift(
        before: &RoadSocialNetwork,
        after: &RoadSocialNetwork,
        delta: &NetworkDelta,
        users_on_edges: &[VertexId],
    ) -> f64 {
        let canonical = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
        delta
            .edge_updates
            .iter()
            .map(|upd| {
                let old = before
                    .road()
                    .edge_weight(upd.u, upd.v)
                    .expect("validated edge");
                let edge = canonical(upd.u, upd.v);
                let occupied = users_on_edges.iter().any(|&user| {
                    matches!(*after.location(user),
                        Location::OnEdge { u, v, .. } if canonical(u, v) == edge)
                });
                (upd.weight - old).abs() * if occupied { 2.0 } else { 1.0 }
            })
            .sum()
    }

    /// Validates a delta's edge updates against the served network before any
    /// mutation, attributing every rejection to its batch entry
    /// ([`MacError::DeltaRejected`] names the edge/user and index): endpoint
    /// range, edge existence, weight validity, and the stranded-on-edge-user
    /// check against the final (last-update-wins) weights. User moves are
    /// range-checked here; their location validity is checked at apply time
    /// against the post-reweight weights (same attribution).
    fn validate_delta(rsn: &RoadSocialNetwork, delta: &NetworkDelta) -> Result<(), MacError> {
        use rsn_road::RoadError;
        let road = rsn.road();
        let num_vertices = road.num_vertices();
        let canonical = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
        // Last update of an edge wins; remember which entry set it so the
        // stranded check can name the culprit.
        let mut final_weight: std::collections::HashMap<(u32, u32), (f64, usize)> =
            std::collections::HashMap::new();
        for (index, upd) in delta.edge_updates.iter().enumerate() {
            let reject = |cause: MacError| MacError::DeltaRejected {
                index,
                entry: DeltaEntry::EdgeUpdate { u: upd.u, v: upd.v },
                cause: Box::new(cause),
            };
            for endpoint in [upd.u, upd.v] {
                if (endpoint as usize) >= num_vertices {
                    return Err(reject(MacError::Road(RoadError::VertexOutOfRange {
                        vertex: endpoint,
                        num_vertices,
                    })));
                }
            }
            if road.edge_weight(upd.u, upd.v).is_none() {
                return Err(reject(MacError::Road(RoadError::NoSuchEdge {
                    u: upd.u,
                    v: upd.v,
                })));
            }
            if !(upd.weight.is_finite() && upd.weight >= 0.0) {
                return Err(reject(MacError::Road(RoadError::InvalidWeight(upd.weight))));
            }
            final_weight.insert(canonical(upd.u, upd.v), (upd.weight, index));
        }
        for (user, loc) in rsn.locations().iter().enumerate() {
            if let Location::OnEdge { u, v, offset } = *loc {
                if let Some(&(w, index)) = final_weight.get(&canonical(u, v)) {
                    if offset > w {
                        let upd = &delta.edge_updates[index];
                        return Err(MacError::DeltaRejected {
                            index,
                            entry: DeltaEntry::EdgeUpdate { u: upd.u, v: upd.v },
                            cause: Box::new(MacError::StrandedOnEdgeUser {
                                user: user as VertexId,
                                offset,
                                new_length: w,
                            }),
                        });
                    }
                }
            }
        }
        for (index, &(user, _)) in delta.user_moves.iter().enumerate() {
            if (user as usize) >= rsn.num_users() {
                return Err(MacError::DeltaRejected {
                    index,
                    entry: DeltaEntry::UserMove { user },
                    cause: Box::new(MacError::QueryVertexOutOfRange {
                        vertex: user,
                        num_vertices: rsn.num_users(),
                    }),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_geom::region::PrefRegion;
    use rsn_graph::graph::Graph;
    use rsn_road::network::RoadNetwork;
    use rsn_road::rangefilter::{FilterScratch, RangeFilter};

    fn network(indexed: bool) -> RoadSocialNetwork {
        let social =
            Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let road = RoadNetwork::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 10.0)]);
        let locations = vec![
            Location::vertex(0),
            Location::vertex(0),
            Location::vertex(1),
            Location::vertex(3),
            Location::vertex(3),
            Location::vertex(3),
        ];
        let attrs = vec![vec![1.0, 1.0]; 6];
        let rsn = RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
        if indexed {
            rsn.with_gtree_index_capacity(4)
        } else {
            rsn
        }
    }

    fn query() -> MacQuery {
        let region = PrefRegion::from_ranges(&[(0.2, 0.4)]).unwrap();
        MacQuery::new(vec![0], 2, 2.0, region)
    }

    #[test]
    fn engine_clones_share_the_network_and_see_updates() {
        let engine = MacEngine::build(network(true));
        let clone = engine.clone();
        let (a, b) = (engine.epoch(), clone.epoch());
        assert!(std::ptr::eq(a.network(), b.network()));
        assert!(a.user_targets().is_some());
        assert_eq!(a.id(), 0);
        // An update through one clone is the other's next epoch.
        let stats = clone
            .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 4.0))
            .unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(engine.epoch().id(), 1);
        assert_eq!(engine.epoch().network().road().edge_weight(0, 1), Some(4.0));
        // The pinned old epoch still reads the old weight.
        assert_eq!(a.network().road().edge_weight(0, 1), Some(1.0));
    }

    /// A small corridor-like road network (a unit-weight path with a
    /// 2.5-weight shortcut every fifth vertex, whose G-tree cuts stay tiny)
    /// carrying six users spread along it: a network where `Auto` picks the
    /// G-tree walk once the ball covers the whole corridor.
    fn corridor_network() -> RoadSocialNetwork {
        const N: u32 = 400;
        let mut edges: Vec<(u32, u32, f64)> = (0..N - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.extend((0..N - 5).step_by(5).map(|i| (i, i + 5, 2.5)));
        let road = RoadNetwork::from_edges(N as usize, &edges);
        let social =
            Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let locations = (0..6).map(|i| Location::vertex(i * 70)).collect();
        let attrs = vec![vec![1.0, 1.0]; 6];
        RoadSocialNetwork::new(social, road, locations, attrs)
            .unwrap()
            .with_gtree_index_capacity(16)
    }

    #[test]
    fn unindexed_engine_has_no_targets_and_sweeps() {
        let engine = MacEngine::build(network(false));
        let epoch = engine.epoch();
        assert!(epoch.user_targets().is_none());
        assert_eq!(
            epoch.resolve_filter_with(&query(), RangeFilterChoice::Auto),
            RangeFilterChoice::DijkstraSweep
        );
    }

    #[test]
    fn filter_resolution_layers_query_over_policy_default() {
        let engine = MacEngine::build(network(true));
        let epoch = engine.epoch();
        // A query-level Auto adopts the policy-level default.
        let q = query();
        assert_eq!(
            epoch.resolve_filter_with(&q, RangeFilterChoice::GTreeMultiSeedBatched),
            RangeFilterChoice::GTreeMultiSeedBatched
        );
        // An explicit query filter always wins over the policy default.
        let q2 = query().with_range_filter(RangeFilterChoice::DijkstraSweep);
        assert_eq!(
            epoch.resolve_filter_with(&q2, RangeFilterChoice::GTreeMultiSeedBatched),
            RangeFilterChoice::DijkstraSweep
        );
        // Auto all the way down falls through to the network's cost model,
        // which sweeps on this one-leaf index.
        assert_eq!(
            epoch.resolve_filter_with(&q, RangeFilterChoice::Auto),
            RangeFilterChoice::DijkstraSweep
        );
        assert_eq!(
            epoch
                .network()
                .resolve_range_filter(RangeFilterChoice::Auto, q.q.len(), q.t),
            RangeFilterChoice::DijkstraSweep
        );

        // On an indexed corridor whose whole length lies within t, the same
        // path reaches the G-tree walk — identically on two separately
        // built engines, and as the network's own range filter resolves it.
        let rsn = corridor_network();
        let region = PrefRegion::from_ranges(&[(0.2, 0.4)]).unwrap();
        let q = MacQuery::new(vec![0, 3], 2, 1_000.0, region);
        let first = MacEngine::build(rsn.clone()).epoch();
        let second = MacEngine::build(rsn.clone()).epoch();
        let resolved = first.resolve_filter_with(&q, RangeFilterChoice::Auto);
        assert_eq!(resolved, RangeFilterChoice::GTreeMultiSeedBatched);
        assert_eq!(
            second.resolve_filter_with(&q, RangeFilterChoice::Auto),
            resolved
        );
        assert!(matches!(
            rsn.range_filter(RangeFilterChoice::Auto, q.q.len(), q.t),
            RangeFilter::GTreeMultiSeedBatched(_)
        ));
    }

    #[test]
    fn rejected_delta_leaves_the_served_epoch_unchanged() {
        let engine = MacEngine::build(network(true));
        // Edge (0, 2) does not exist; the batch also carries a valid entry
        // that must NOT land.
        let delta = NetworkDelta::new()
            .reweight_edge(0, 1, 9.0)
            .reweight_edge(0, 2, 1.0);
        assert!(engine.apply_updates(&delta).is_err());
        let epoch = engine.epoch();
        assert_eq!(epoch.id(), 0);
        assert_eq!(epoch.network().road().edge_weight(0, 1), Some(1.0));
        // Same for an invalid user move after a valid edge update.
        let delta = NetworkDelta::new()
            .reweight_edge(0, 1, 9.0)
            .move_user(99, Location::vertex(0));
        assert!(engine.apply_updates(&delta).is_err());
        assert_eq!(engine.epoch().id(), 0);
        assert_eq!(engine.epoch().network().road().edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn updates_refresh_user_targets_incrementally() {
        let engine = MacEngine::build(network(true));
        let delta = NetworkDelta::new().move_user(0, Location::vertex(2));
        let stats = engine.apply_updates(&delta).unwrap();
        assert_eq!(stats.users_moved, 1);
        assert_eq!(stats.user_targets_refreshed, 1);
        let epoch = engine.epoch();
        assert_eq!(epoch.network().location(0), &Location::vertex(2));
        // The maintained grouping equals a from-scratch regrouping.
        let regrouped = group_user_targets(
            epoch.network().gtree().unwrap(),
            epoch.network().road(),
            epoch.network().locations(),
        );
        assert_eq!(
            epoch.user_targets().unwrap().num_seeds(),
            regrouped.num_seeds()
        );
    }

    #[test]
    fn deltas_apply_reweights_before_moves() {
        // Pin of the documented sequential semantics: shrinking a segment
        // below a resident on-edge user's offset rejects the delta even when
        // a later move in the same delta takes the user elsewhere — the
        // moves must come as their own delta first.
        let social = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let road = RoadNetwork::from_edges(3, &[(0, 1, 5.0), (1, 2, 1.0)]);
        let locations = vec![
            Location::OnEdge {
                u: 0,
                v: 1,
                offset: 3.0,
            },
            Location::vertex(1),
            Location::vertex(2),
        ];
        let attrs = vec![vec![1.0]; 3];
        let rsn = RoadSocialNetwork::new(social, road, locations, attrs)
            .unwrap()
            .with_gtree_index_capacity(4);
        let engine = MacEngine::build(rsn);
        let combined = NetworkDelta::new()
            .reweight_edge(0, 1, 1.0)
            .move_user(0, Location::vertex(2));
        assert!(engine.apply_updates(&combined).is_err());
        assert_eq!(engine.epoch().id(), 0);
        // Split into moves-first deltas, the same end state is reachable.
        engine
            .apply_updates(&NetworkDelta::new().move_user(0, Location::vertex(2)))
            .unwrap();
        engine
            .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 1.0))
            .unwrap();
        let epoch = engine.epoch();
        assert_eq!(epoch.id(), 2);
        assert_eq!(epoch.network().location(0), &Location::vertex(2));
        assert_eq!(epoch.network().road().edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let engine = MacEngine::build(network(true));
        let stats = engine.apply_updates(&NetworkDelta::new()).unwrap();
        assert_eq!(stats.epoch, 0, "empty delta must not advance the epoch");
        assert_eq!(engine.epoch().id(), 0);
        // And after a real update, still no advance on empty.
        engine
            .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 2.0))
            .unwrap();
        let stats = engine.apply_updates(&NetworkDelta::new()).unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(engine.epoch().id(), 1);
    }

    #[test]
    fn non_normalized_on_edge_users_are_refreshed_and_guarded() {
        // Location::OnEdge's fields are public, so a location may store its
        // endpoints in either order; reweight matching must canonicalize.
        let social = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let road = RoadNetwork::from_edges(3, &[(0, 1, 2.0), (1, 2, 2.0)]);
        let locations = vec![
            Location::vertex(0),
            Location::OnEdge {
                u: 2,
                v: 1,
                offset: 1.9,
            },
            Location::vertex(2),
        ];
        let attrs = vec![vec![1.0]; 3];
        let rsn = RoadSocialNetwork::new(social, road, locations, attrs)
            .unwrap()
            .with_gtree_index_capacity(4);
        let engine = MacEngine::build(rsn);
        // Shrinking the edge below the stored offset must reject the delta
        // even though the update names the edge in canonical order.
        let err = engine.apply_updates(&NetworkDelta::new().reweight_edge(1, 2, 1.0));
        assert!(err.is_err(), "stranded non-normalized offset must reject");
        assert_eq!(engine.epoch().id(), 0);
        // A valid reweight must refresh the user's grouped seeds (the
        // far-endpoint offset changed with the weight).
        let stats = engine
            .apply_updates(&NetworkDelta::new().reweight_edge(1, 2, 4.0))
            .unwrap();
        assert_eq!(stats.user_targets_refreshed, 1);
        // Behavioral pin: user 1 now sits 1.9 from vertex 2 on a 4.0-long
        // edge, i.e. 2.1 from vertex 1, so D(vertex 0, user 1) = 2.0 + 2.1.
        // A stale far-endpoint seed (2.0 - 1.9 = 0.1 from vertex 1) would
        // report 2.1 and wrongly keep the user within t = 3.
        let epoch = engine.epoch();
        let net = epoch.network();
        let mut scratch = FilterScratch::new();
        let mut within = Vec::new();
        RangeFilter::GTreeMultiSeedBatched(net.gtree().unwrap()).users_within_with(
            net.road(),
            &[Location::vertex(0)],
            3.0,
            net.locations(),
            epoch.user_targets(),
            &mut scratch,
            &mut within,
        );
        assert_eq!(
            within,
            vec![true, false, false],
            "refreshed seeds must exclude the now-distant on-edge user"
        );
    }

    #[test]
    fn poisoned_locks_do_not_brick_the_engine() {
        // A thread panicking while holding the epoch write lock (and the
        // update mutex) poisons both. The epoch pointer is only ever stored
        // whole under the write lock, so the poisoned locks still guard a
        // consistent epoch — the engine must recover and keep serving.
        let engine = MacEngine::build(network(true));
        let shared = Arc::clone(&engine.shared);
        let panicked = std::thread::spawn(move || {
            let _updates = shared.update_lock.lock().unwrap();
            let _guard = shared.current.write().unwrap();
            panic!("injected panic while holding engine locks");
        })
        .join();
        assert!(panicked.is_err(), "the poisoning thread must have panicked");
        assert!(engine.shared.current.is_poisoned(), "write lock poisoned");
        // Reads recover.
        let epoch = engine.epoch();
        assert_eq!(epoch.id(), 0);
        assert_eq!(epoch.network().road().edge_weight(0, 1), Some(1.0));
        // Queries recover.
        let mut session = engine.session();
        let before = session.execute(&query()).unwrap();
        // Updates recover, land, and are served.
        let stats = engine
            .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 2.0))
            .unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(engine.epoch().network().road().edge_weight(0, 1), Some(2.0));
        let after = session.execute(&query()).unwrap();
        // Same communities either way on this network (the reweight keeps
        // users 0..2 within t); the point is that both queries succeeded.
        assert_eq!(before.cells.len(), after.cells.len());
    }

    #[test]
    fn delta_rejections_name_the_entry_and_its_index() {
        use crate::error::DeltaEntry;
        let engine = MacEngine::build(network(true));
        // Missing edge at index 1.
        let err = engine
            .apply_updates(
                &NetworkDelta::new()
                    .reweight_edge(0, 1, 2.0)
                    .reweight_edge(0, 2, 1.0),
            )
            .unwrap_err();
        match &err {
            MacError::DeltaRejected { index, entry, .. } => {
                assert_eq!(*index, 1);
                assert_eq!(*entry, DeltaEntry::EdgeUpdate { u: 0, v: 2 });
            }
            other => panic!("expected DeltaRejected, got {other:?}"),
        }
        assert_eq!(
            err.to_string(),
            "delta rejected: edge_updates[1] (segment 0-2): road network error: no road edge between 0 and 2"
        );
        // Invalid weight names its entry.
        let err = engine
            .apply_updates(&NetworkDelta::new().reweight_edge(1, 2, f64::NAN))
            .unwrap_err();
        assert!(err
            .to_string()
            .starts_with("delta rejected: edge_updates[0] (segment 1-2):"));
        // Out-of-range user move at index 1 (after a valid move).
        let err = engine
            .apply_updates(
                &NetworkDelta::new()
                    .move_user(0, Location::vertex(1))
                    .move_user(99, Location::vertex(0)),
            )
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "delta rejected: user_moves[1] (user 99): query vertex 99 out of range for social network with 6 users"
        );
        // Nothing landed.
        assert_eq!(engine.epoch().id(), 0);
        assert_eq!(engine.epoch().network().location(0), &Location::vertex(0));
    }

    #[test]
    fn stranded_user_rejection_names_user_and_culprit_update() {
        let social = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let road = RoadNetwork::from_edges(3, &[(0, 1, 5.0), (1, 2, 1.0)]);
        let locations = vec![
            Location::OnEdge {
                u: 0,
                v: 1,
                offset: 3.0,
            },
            Location::vertex(1),
            Location::vertex(2),
        ];
        let attrs = vec![vec![1.0]; 3];
        let rsn = RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
        let engine = MacEngine::build(rsn);
        // Last update of the edge wins: the first shrink would strand, the
        // second (index 1) is the one that counts and it also strands.
        let err = engine
            .apply_updates(
                &NetworkDelta::new()
                    .reweight_edge(0, 1, 1.0)
                    .reweight_edge(1, 0, 2.0),
            )
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "delta rejected: edge_updates[1] (segment 1-0): on-edge user 0 at offset 3 would be stranded: edge shrinks to 2"
        );
        // And a growing final update un-strands: the delta applies.
        engine
            .apply_updates(
                &NetworkDelta::new()
                    .reweight_edge(0, 1, 1.0)
                    .reweight_edge(0, 1, 6.0),
            )
            .unwrap();
        assert_eq!(engine.epoch().network().road().edge_weight(0, 1), Some(6.0));
    }
}
