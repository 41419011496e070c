//! The Lemma-1 range filter as a first-class layer.
//!
//! The MAC search opens with a set question, not a point question: *which
//! users are within query distance `t`*? Earlier revisions answered it by
//! probing a distance oracle once per user, which wastes the structure of
//! the problem — the filter evaluates **one** small query set against **all**
//! user locations. [`RangeFilter`] makes that set operation the unit of
//! dispatch, with two interchangeable strategies:
//!
//! * [`RangeFilter::DijkstraSweep`] — one t-bounded multi-source sweep per
//!   query location over the road graph; the strongest baseline at laptop
//!   scale, linear in the edges within radius `t`, and the reference every
//!   equivalence test compares against.
//! * [`RangeFilter::GTreeMultiSeedBatched`] — the multi-seed walk: **all**
//!   query seeds fold into a single top-down pass over the G-tree with
//!   per-seed entry columns; a subtree is pruned only when every seed is out
//!   of range, each occupied leaf is evaluated once against all columns, and
//!   the Lemma-1 intersection is maintained in-walk
//!   ([`GTree::multi_source_within`]).
//!
//! Both are exact and must return identical user sets; the integration
//! property tests (`tests/range_filter_equivalence.rs`) enforce this.
//! [`resolve_auto`] turns `Auto` into one of them with a deterministic cost
//! model fitted to the measured sweep/batched crossover.
//!
//! # Ties at distance `t`
//!
//! The filter keeps a user iff `D_Q(u) = max_q d(q, u) <= t`: a user at
//! exactly `D_Q(u) = t` is **kept**, by both strategies. On integer or
//! dyadic weights and offsets every distance is an exact sum, so the
//! boundary is exact there. Elsewhere the last ulp of a distance depends on
//! the order its sum was formed in, and a user within that rounding of `t`
//! may fall on either side.
//!
//! A sweep can also record a [`QueryReach`]: an upper bound on the
//! per-vertex `max_q d(q, v)` field and the *slack* `min_u |t - D_Q(u)|`.
//! A session's answer cache reuses an answer across road updates while
//! the cumulative distance drift since the answer was built stays strictly
//! below that slack minus a margin ([`reuse_margin`], a stated relative EPS
//! of `t`). An entry whose drift lands exactly on the margin is dropped.

use crate::budget::BudgetTicker;
use crate::dijkstra::{along_edge_distance, distance_to_location, location_seeds, SsspScratch};
use crate::gtree::{GTree, LeafTargets, RangeScratch};
use crate::network::{Location, RoadNetwork, RoadVertexId};

/// Which range-filter strategy a query should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RangeFilterChoice {
    /// Let the cost model of [`resolve_auto`] pick:
    /// the bounded Dijkstra sweep when the radius-t ball is small (every
    /// laptop-scale preset), the multi-seed batched G-tree walk when an
    /// index exists and the estimated ball dwarfs the indexed work. Measured
    /// on one core, the sweep beat the walk by 4–62× on 2.5k- and
    /// 10k-vertex grids and the walk beat the sweep by 4–296× on a
    /// 50k-vertex corridor.
    #[default]
    Auto,
    /// Always run one t-bounded Dijkstra sweep per query location.
    DijkstraSweep,
    /// Multi-seed leaf-batched G-tree evaluation — one walk for all query
    /// seeds; falls back to Dijkstra without an index.
    GTreeMultiSeedBatched,
}

impl RangeFilterChoice {
    /// Short label for benchmark and diagnostic output; resolved strategies
    /// share the vocabulary of [`RangeFilter::name`].
    pub fn name(&self) -> &'static str {
        match self {
            RangeFilterChoice::Auto => "auto",
            RangeFilterChoice::DijkstraSweep => "dijkstra-sweep",
            RangeFilterChoice::GTreeMultiSeedBatched => "gtree-multi-seed-batched",
        }
    }
}

/// Reusable buffers for repeated range-filter evaluations.
///
/// A fresh [`RangeFilter::users_within`] call allocates the buffers its
/// strategy needs every time — a `|V_road|`-sized Dijkstra distance field,
/// the G-tree walk's entry-column matrices, and the per-user best-distance
/// rows. A `FilterScratch` owns all of them and is handed to
/// [`RangeFilter::users_within_with_ticker`], so a serving loop that issues
/// many queries against one network reaches an allocation-free steady state
/// once the buffers have grown to the network size.
#[derive(Debug, Default)]
pub struct FilterScratch {
    /// Bounded-sweep Dijkstra state (distance field + heap + touched list).
    sssp: SsspScratch,
    /// G-tree walk state (entry-column matrices + per-seed locals).
    range: RangeScratch,
    /// Item-major best-distance matrix of the batched walk.
    best: Vec<f64>,
    /// Flattened `(vertex, offset, column)` source seeds of a walk.
    seeds: Vec<(RoadVertexId, f64, u32)>,
    /// Per-user running `max_q d(q, u)` of a sweep recording a
    /// [`QueryReach`].
    user_max: Vec<f64>,
}

impl FilterScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        FilterScratch::default()
    }
}

/// Relative EPS of the cross-epoch reuse rule: an answer built with slack
/// `s` is reused after a cumulative drift `δ` only while
/// `s > δ + reuse_margin(t)`. It absorbs the rounding of the distance sums
/// (about `1e-14` relative on networks of thousands of hops), with room to
/// spare. A power of two, so the margin of a dyadic `t` is exact.
pub const REUSE_MARGIN_EPS: f64 = 1.0 / (1u64 << 30) as f64;

/// The margin of the cross-epoch reuse rule at radius `t`:
/// [`REUSE_MARGIN_EPS`] relative to `max(|t|, 1)`.
pub fn reuse_margin(t: f64) -> f64 {
    REUSE_MARGIN_EPS * t.abs().max(1.0)
}

/// What a Lemma-1 evaluation learned beyond its kept set, recorded on
/// request for reuse across road updates.
///
/// * The **kept set** itself, packed one bit per user.
/// * The **slack** `min_u |t - D_Q(u)|`, a lower bound: a kept user
///   contributes `t - D_Q(u)`, exact, and a user at exactly `t`
///   contributes `0`. A user the filter dropped contributes `d - t` for a
///   lower bound `d` on the first query distance beyond `t` it saw: the
///   sweep stops at `t`, so an endpoint it left unsettled counts as lying
///   at `t`, and a user whose every route runs through such an endpoint
///   adds no more than its offset from it.
/// * The **field** `max_q d(q, v)` per road vertex, as a 16-bit fixed-point
///   fraction of `t` rounded up, read back as an upper bound
///   ([`distance_bound`](Self::distance_bound)) at most `2t / 65534` above
///   the exact value. A vertex some sweep left unsettled is only known to
///   lie beyond `t`; its bound is infinite.
///
/// Only the sweep records a field and a slack; after the multi-seed walk
/// (or for a radius that is not positive and finite) there is no field,
/// and after the walk the slack is `0`.
#[derive(Debug, Clone, Default)]
pub struct QueryReach {
    field: Vec<u16>,
    has_field: bool,
    /// The radius the field is a fraction of.
    t: f64,
    kept: Vec<u64>,
    slack: f64,
}

/// Field code of the largest settled distance, `t` itself.
const FIELD_SCALE: f64 = 65534.0;
/// Field code of a vertex beyond `t`.
const FIELD_BEYOND: u16 = u16::MAX;

impl QueryReach {
    /// An empty record; buffers grow on first use.
    pub fn new() -> Self {
        QueryReach::default()
    }

    /// Whether a sweep recorded the per-vertex field.
    pub fn has_field(&self) -> bool {
        self.has_field
    }

    /// An upper bound on `max_q d(q, v)` for road vertex `v` at the time
    /// of the recording (infinite beyond `t`), or `None` without a field.
    pub fn distance_bound(&self, v: RoadVertexId) -> Option<f64> {
        if !self.has_field {
            return None;
        }
        let code = self.field[v as usize];
        Some(if code == FIELD_BEYOND {
            f64::INFINITY
        } else {
            // The code floors `d / step` up to rounding; two steps cover
            // both the floor and the rounding.
            (f64::from(code) + 2.0) * (self.t / FIELD_SCALE)
        })
    }

    /// Lower bound on `min_u |t - D_Q(u)|` over all users.
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// Whether `user` was in the kept set.
    pub fn kept(&self, user: usize) -> bool {
        self.kept
            .get(user / 64)
            .is_some_and(|w| w & (1 << (user % 64)) != 0)
    }

    /// Folds one query location's sweep field into the vertex field.
    fn absorb_field(&mut self, dist: &[f64], t: f64, first: bool) {
        // Settled distances never exceed `t`; floor is monotone, so the max
        // of the codes is the code of the max.
        let step = t / FIELD_SCALE;
        let code = |d: f64| {
            if d.is_finite() {
                (d / step).min(FIELD_SCALE) as u16
            } else {
                FIELD_BEYOND
            }
        };
        if first {
            self.t = t;
            self.field.clear();
            self.field.extend(dist.iter().map(|&d| code(d)));
        } else {
            for (m, &d) in self.field.iter_mut().zip(dist) {
                *m = (*m).max(code(d));
            }
        }
    }
}

/// A lower bound on a dropped user's distance from one query location,
/// read off a sweep bounded by `t`. An endpoint the sweep left unsettled
/// lies beyond `t`, so it counts as `t`: the distance the filter reads
/// through the other endpoint may be far above the true one.
fn dropped_distance_floor(
    net: &RoadNetwork,
    dist: &[f64],
    qloc: &Location,
    uloc: &Location,
    t: f64,
) -> f64 {
    location_seeds(net, uloc)
        .into_iter()
        .map(|(v, offset)| dist[v as usize].min(t) + offset)
        .fold(along_edge_distance(net, qloc, uloc), f64::min)
}

/// An exact "users within t" filter (Lemma 1) over the road network.
#[derive(Debug)]
pub enum RangeFilter<'a> {
    /// One bounded multi-source Dijkstra sweep per query location.
    DijkstraSweep,
    /// Multi-seed leaf-batched evaluation against a prebuilt G-tree.
    GTreeMultiSeedBatched(&'a GTree),
}

impl<'a> RangeFilter<'a> {
    /// Short label for benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            RangeFilter::DijkstraSweep => "dijkstra-sweep",
            RangeFilter::GTreeMultiSeedBatched(_) => "gtree-multi-seed-batched",
        }
    }

    /// Lemma-1 set filter: `result[v]` is `true` iff user `v` is within
    /// network distance `t` of **every** query location (`D_Q(v) <= t`).
    ///
    /// Allocates fresh working buffers per call; serving loops should hold a
    /// [`FilterScratch`] and call
    /// [`users_within_with_ticker`](Self::users_within_with_ticker) instead.
    pub fn users_within(
        &self,
        net: &RoadNetwork,
        query_locations: &[Location],
        t: f64,
        user_locations: &[Location],
    ) -> Vec<bool> {
        let mut scratch = FilterScratch::new();
        let mut out = Vec::new();
        self.users_within_with(
            net,
            query_locations,
            t,
            user_locations,
            None,
            &mut scratch,
            &mut out,
        );
        out
    }

    /// [`users_within_with_ticker`](Self::users_within_with_ticker) with an
    /// unlimited budget: writes the Lemma-1 set into `out`, reusing `scratch`
    /// buffers across calls.
    #[allow(clippy::too_many_arguments)]
    pub fn users_within_with(
        &self,
        net: &RoadNetwork,
        query_locations: &[Location],
        t: f64,
        user_locations: &[Location],
        targets: Option<&LeafTargets>,
        scratch: &mut FilterScratch,
        out: &mut Vec<bool>,
    ) {
        let mut unlimited = BudgetTicker::unlimited();
        self.users_within_with_ticker(
            net,
            query_locations,
            t,
            user_locations,
            targets,
            scratch,
            out,
            &mut unlimited,
            None,
        );
    }

    /// Lemma-1 set filter writing into `out`, reusing `scratch` buffers
    /// across calls (see [`FilterScratch`]) — identical results to
    /// [`users_within`](Self::users_within).
    ///
    /// `targets` optionally supplies the user seeds already grouped by G-tree
    /// leaf ([`group_user_targets`]); the grouping depends only on the tree
    /// and the user locations, so a prepared engine computes it once per
    /// network instead of once per query. The sweep ignores it, and the
    /// batched walk groups on the fly when `None`.
    ///
    /// Both strategies charge `ticker` as they go (settled Dijkstra
    /// vertices, walked G-tree cells, evaluated users) and abort
    /// cooperatively on exhaustion. Returns `true` when the filter ran to
    /// completion; on `false` the contents of `out` are unspecified and the
    /// caller must treat the query as budget-exhausted. The scratch stays
    /// reusable either way.
    ///
    /// With `reach`, the evaluation also records a [`QueryReach`] (kept set,
    /// slack, and — for the sweep — the per-vertex field). The kept set in
    /// `out` is the same either way; without it the filter does no extra
    /// work.
    #[allow(clippy::too_many_arguments)]
    pub fn users_within_with_ticker(
        &self,
        net: &RoadNetwork,
        query_locations: &[Location],
        t: f64,
        user_locations: &[Location],
        targets: Option<&LeafTargets>,
        scratch: &mut FilterScratch,
        out: &mut Vec<bool>,
        ticker: &mut BudgetTicker,
        mut reach: Option<&mut QueryReach>,
    ) -> bool {
        let n = user_locations.len();
        out.clear();
        out.resize(n, true);
        if let Some(reach) = reach.as_deref_mut() {
            reach.has_field = false;
            reach.slack = 0.0;
        }
        if n == 0 {
            return ticker.charge(1);
        }
        let completed = match self {
            RangeFilter::DijkstraSweep => {
                // The field is a fraction of `t`; without a recording the
                // sweep does no work beyond the kept set.
                let mut recorder = reach
                    .as_deref_mut()
                    .filter(|_| t > 0.0 && t.is_finite() && !query_locations.is_empty());
                if let Some(reach) = recorder.as_deref_mut() {
                    reach.slack = f64::INFINITY;
                    scratch.user_max.clear();
                    scratch.user_max.resize(n, 0.0);
                }
                // One t-bounded sweep per query location, evaluated straight
                // off the scratch's distance field — no |Q| x |V| matrix.
                for (qi, qloc) in query_locations.iter().enumerate() {
                    let seeds = location_seeds(net, qloc);
                    if !scratch.sssp.run(net, &seeds, Some(t), None, ticker) {
                        return false;
                    }
                    // The per-user evaluation is one pass over the distance
                    // field; charge it as a lump at the loop boundary.
                    if !ticker.charge(n as u64) {
                        return false;
                    }
                    let field = scratch.sssp.dist();
                    if let Some(reach) = recorder.as_deref_mut() {
                        reach.absorb_field(field, t, qi == 0);
                    }
                    for (i, (w, uloc)) in out.iter_mut().zip(user_locations).enumerate() {
                        if *w {
                            let d = distance_to_location(net, field, uloc)
                                .min(along_edge_distance(net, qloc, uloc));
                            if d > t {
                                *w = false;
                                // A dropped user's slack counts from a lower
                                // bound on its distance.
                                if let Some(reach) = recorder.as_deref_mut() {
                                    let floor = dropped_distance_floor(net, field, qloc, uloc, t);
                                    reach.slack = reach.slack.min(floor - t);
                                }
                            } else if recorder.is_some() {
                                // Within `t` the distance is exact: a path
                                // through an unsettled endpoint is longer.
                                let umax = &mut scratch.user_max[i];
                                *umax = umax.max(d);
                            }
                        }
                    }
                }
                if let Some(reach) = recorder {
                    reach.has_field = true;
                    for (&w, &umax) in out.iter().zip(&scratch.user_max) {
                        if w {
                            reach.slack = reach.slack.min(t - umax);
                        }
                    }
                }
                true
            }
            RangeFilter::GTreeMultiSeedBatched(tree) => {
                let owned;
                let targets = match targets {
                    Some(targets) => targets,
                    None => {
                        owned = group_user_targets(tree, net, user_locations);
                        &owned
                    }
                };
                multi_seed_batched_within(
                    tree,
                    net,
                    query_locations,
                    t,
                    user_locations,
                    targets,
                    scratch,
                    out,
                    ticker,
                )
            }
        };
        if let Some(reach) = reach {
            reach.kept.clear();
            reach.kept.resize(n.div_ceil(64), 0);
            for (i, _) in out.iter().enumerate().filter(|(_, &w)| w) {
                reach.kept[i / 64] |= 1 << (i % 64);
            }
        }
        completed
    }
}

/// Groups the user seeds by G-tree leaf for the batched walk: an on-edge
/// user contributes a seed at each endpoint. The grouping depends only on
/// the tree and the user locations — a prepared engine builds it once per
/// network and passes it to every
/// [`RangeFilter::users_within_with_ticker`] call.
pub fn group_user_targets(
    tree: &GTree,
    net: &RoadNetwork,
    user_locations: &[Location],
) -> LeafTargets {
    tree.group_targets(user_locations.iter().enumerate().flat_map(|(i, loc)| {
        location_seeds(net, loc)
            .into_iter()
            .filter(|&(_, off)| off.is_finite())
            .map(move |(v, off)| (i as u32, v, off))
    }))
}

/// Removes the grouped seeds of one user from a [`group_user_targets`]
/// grouping, given the location the user held when the grouping was built
/// (its endpoints name the leaves holding the user's rows). Returns the
/// number of seeds removed. Incremental counterpart of rebuilding the
/// grouping after a user departs or moves.
pub fn remove_user_target(
    tree: &GTree,
    net: &RoadNetwork,
    targets: &mut LeafTargets,
    user: u32,
    old_location: &Location,
) -> usize {
    let seeds = location_seeds(net, old_location);
    let mut vertices = [0; 2];
    for (slot, &(v, _)) in vertices.iter_mut().zip(seeds.iter()) {
        *slot = v;
    }
    tree.remove_target_item(targets, user, &vertices[..seeds.len()])
}

/// Adds one user's seeds at `location` to a [`group_user_targets`] grouping
/// (same per-seed semantics: an on-edge user contributes a seed at each
/// endpoint with the current partial-edge offsets). Incremental counterpart
/// of rebuilding the grouping after a user arrives or moves — and the
/// refresh path after an edge reweight changes an on-edge user's
/// far-endpoint offset (remove, then re-add at the same location).
pub fn add_user_target(
    tree: &GTree,
    net: &RoadNetwork,
    targets: &mut LeafTargets,
    user: u32,
    location: &Location,
) {
    tree.add_target_seeds(
        targets,
        location_seeds(net, location)
            .into_iter()
            .filter(|&(_, off)| off.is_finite())
            .map(|(v, off)| (user, v, off)),
    );
}

/// The multi-seed strategy: all query seeds fold into **one** top-down walk
/// with per-seed entry columns (seeds of the same query location share an
/// output column), and the Lemma-1 intersection is maintained in-walk by
/// [`GTree::multi_source_within`]. The per-user rows are pre-seeded with the
/// along-edge shortcuts, so users in pruned subtrees keep their exact
/// same-edge memberships. The pre-seeding pass is charged as a lump.
/// Returns `false` on exhaustion, leaving `within` partially updated (the
/// caller discards it).
#[allow(clippy::too_many_arguments)]
fn multi_seed_batched_within(
    tree: &GTree,
    net: &RoadNetwork,
    query_locations: &[Location],
    t: f64,
    user_locations: &[Location],
    targets: &LeafTargets,
    scratch: &mut FilterScratch,
    within: &mut [bool],
    ticker: &mut BudgetTicker,
) -> bool {
    let n = user_locations.len();
    let cols = query_locations.len();
    if cols == 0 {
        return ticker.charge(1);
    }
    if !ticker.charge((n * cols) as u64) {
        return false;
    }
    let seeds = &mut scratch.seeds;
    seeds.clear();
    for (q, qloc) in query_locations.iter().enumerate() {
        for (sv, soff) in location_seeds(net, qloc)
            .into_iter()
            .filter(|&(_, off)| off.is_finite())
        {
            seeds.push((sv, soff, q as u32));
        }
    }
    let best = &mut scratch.best;
    best.clear();
    best.resize(n * cols, f64::INFINITY);
    for (i, uloc) in user_locations.iter().enumerate() {
        for (q, qloc) in query_locations.iter().enumerate() {
            best[i * cols + q] = along_edge_distance(net, qloc, uloc);
        }
    }
    tree.multi_source_within(
        seeds,
        cols,
        targets,
        t,
        best,
        within,
        &mut scratch.range,
        ticker,
    )
}

/// Sweep-vs-batched conversion factor of [`resolve_auto`]'s cost model,
/// fitted to the measured sweep/walk crossover: one modeled sweep
/// relaxation (a heap operation plus an edge scan) costs about as much as
/// this many batched matrix-cell touches (the measured unit costs were
/// ~10 ns per batched cell and ~40 ns per modeled sweep relaxation on one
/// core). Lowering the constant makes `Auto` keep the sweep longer.
pub const AUTO_SWEEP_CELL_COST: f64 = 16.0;

/// The one rule that turns `Auto` into a Lemma-1 range-filter strategy.
///
/// The sweep's cost is the radius-`t` ball: every vertex within distance `t`
/// of a query location is settled once per location, so it grows with `t`
/// and is independent of the index. The multi-seed batched walk instead pays
/// in distance-matrix cells: the entry-column extensions over the occupied
/// part of the hierarchy (at most one pass over the matrices, whatever `t`
/// is) plus one border-row pass per user seed — independent of how many
/// road vertices the ball covers. `Auto` estimates both in common units:
///
/// * ball estimate — `t` over a sampled average edge weight gives the ball
///   radius in hops; the ball then grows quadratically (`~2·hops²`,
///   grid-like fill) but no faster than `2·hops` times the network's
///   separator width, probed as the G-tree root cut (corridor-like networks
///   have tiny cuts and near-linear growth), capped at `|V|`;
/// * sweep estimate — `|Q| · ball · avg_degree` edge relaxations, each worth
///   [`AUTO_SWEEP_CELL_COST`] matrix cells;
/// * batched estimate — per seed, the walk's fixed floor (the root-level
///   entry extension, paid regardless of occupancy) plus the
///   occupancy-scaled share of all entry extensions, plus each user seed's
///   leaf border rows for all `|Q|` columns.
///
/// The crossover measurements (one core: the sweep 4–62× faster on 2.5k-
/// and 10k-vertex grids, the walk 4–296× faster on a 50k-vertex corridor)
/// show what this model encodes: on grid-like road networks the walk's fixed floor grows with
/// the same `√|V|` cut that makes the ball expensive, so the sweep wins at
/// every generatable scale and `Auto` keeps it; on small-separator
/// (corridor/highway-like) networks the floor collapses and the batched
/// walk wins as soon as the ball is large, so `Auto` switches. A network
/// without an index, or whose index is a single leaf (the walk then prunes
/// nothing), always resolves to the sweep. The rule reads only the
/// network and the query, never a timing, so it is deterministic. The
/// regression tests pin both directions so heuristic edits cannot silently
/// flip laptop-scale queries off the sweep.
pub fn resolve_auto(
    net: &RoadNetwork,
    tree: Option<&GTree>,
    num_query_locations: usize,
    t: f64,
    num_users: usize,
) -> RangeFilterChoice {
    let Some(tree) = tree else {
        return RangeFilterChoice::DijkstraSweep;
    };
    let Some((sweep_relaxations, batched_cells)) =
        auto_cost_estimates(net, tree, num_query_locations, t, num_users)
    else {
        return RangeFilterChoice::DijkstraSweep;
    };
    if sweep_relaxations * AUTO_SWEEP_CELL_COST > batched_cells {
        RangeFilterChoice::GTreeMultiSeedBatched
    } else {
        RangeFilterChoice::DijkstraSweep
    }
}

/// The raw unit counts of the `Auto` cost model for one configuration:
/// `(modeled sweep edge-relaxations, modeled batched matrix-cell touches)`.
/// The two are in *different* units — [`AUTO_SWEEP_CELL_COST`] converts
/// between them. Returns `None` for degenerate configurations (empty
/// network / query / user set, a one-leaf index, or no usable edge-weight
/// sample), where `Auto` always resolves to the sweep.
fn auto_cost_estimates(
    net: &RoadNetwork,
    tree: &GTree,
    num_query_locations: usize,
    t: f64,
    num_users: usize,
) -> Option<(f64, f64)> {
    let n = net.num_vertices();
    let leaves = tree.num_leaves();
    if n == 0 || num_query_locations == 0 || num_users == 0 || leaves <= 1 {
        return None;
    }
    let avg_w = sampled_avg_edge_weight(net);
    if !avg_w.is_finite() || avg_w <= 0.0 {
        return None;
    }
    let hops = t / avg_w;
    // Separator-width probe: the widest child cut at the G-tree root.
    let sep = tree
        .children_of(tree.root_id())
        .iter()
        .map(|&c| tree.borders_of(c).len())
        .max()
        .unwrap_or(2)
        .max(2) as f64;
    let est_ball = (2.0 * hops * hops + 4.0 * hops + 1.0)
        .min(2.0 * hops * sep)
        .min(n as f64)
        .max(1.0);
    let q = num_query_locations as f64;
    // Each query location contributes up to two on-edge seeds to the walk.
    let seeds = 2.0 * q;
    let sweep_relaxations = q * est_ball * net.avg_degree().max(2.0);
    let leaves = leaves as f64;
    let avg_leaf = n as f64 / leaves;
    // The walk's t-pruning skips occupied subtrees beyond the ball, so only
    // the users inside the estimated ball drive its occupancy cost.
    let users_eff = num_users as f64 * (est_ball / n as f64).min(1.0);
    let occ_frac = (users_eff / leaves).min(1.0);
    let batched_cells = seeds
        * (tree.walk_cells_root() as f64
            + occ_frac * tree.walk_cells_total() as f64
            + 2.0 * users_eff * avg_leaf.sqrt());
    Some((sweep_relaxations, batched_cells))
}

/// Average edge weight over a deterministic sample of the network's edges
/// (the first 1024 in canonical order) — enough signal to turn `t` into an
/// expected hop radius without an O(m) scan per query.
fn sampled_avg_edge_weight(net: &RoadNetwork) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (_, _, w) in net.edges().take(1024) {
        sum += w;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ExhaustionCause;

    fn grid(rows: u32, cols: u32) -> RoadNetwork {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, 1.0 + ((v % 3) as f64) * 0.25));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, 1.0 + ((v % 5) as f64) * 0.2));
                }
            }
        }
        RoadNetwork::from_edges((rows * cols) as usize, &edges)
    }

    fn all_filters(tree: &GTree) -> [RangeFilter<'_>; 2] {
        [
            RangeFilter::DijkstraSweep,
            RangeFilter::GTreeMultiSeedBatched(tree),
        ]
    }

    #[test]
    fn strategies_agree_on_vertex_users() {
        let net = grid(5, 5);
        let tree = GTree::build_with_capacity(&net, 6);
        let users: Vec<Location> = (0..25u32).map(Location::vertex).collect();
        let q = [Location::vertex(0), Location::vertex(12)];
        for t in [0.0, 1.0, 2.5, 4.0, 100.0] {
            let reference = RangeFilter::DijkstraSweep.users_within(&net, &q, t, &users);
            for filter in all_filters(&tree) {
                assert_eq!(
                    filter.users_within(&net, &q, t, &users),
                    reference,
                    "{} disagrees at t = {t}",
                    filter.name()
                );
            }
        }
    }

    #[test]
    fn strategies_agree_on_edge_users_and_edge_queries() {
        let net = grid(4, 4);
        let tree = GTree::build_with_capacity(&net, 5);
        let users = vec![
            Location::vertex(0),
            Location::OnEdge {
                u: 0,
                v: 1,
                offset: 0.25,
            },
            Location::OnEdge {
                u: 4,
                v: 5,
                offset: 0.75,
            },
            Location::vertex(15),
        ];
        let q = [Location::OnEdge {
            u: 0,
            v: 1,
            offset: 0.5,
        }];
        for t in [0.2, 0.25, 1.0, 3.0] {
            let reference = RangeFilter::DijkstraSweep.users_within(&net, &q, t, &users);
            for filter in all_filters(&tree) {
                assert_eq!(
                    filter.users_within(&net, &q, t, &users),
                    reference,
                    "{} disagrees at t = {t}",
                    filter.name()
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let net = grid(3, 3);
        let tree = GTree::build_with_capacity(&net, 4);
        for filter in all_filters(&tree) {
            assert!(filter
                .users_within(&net, &[Location::vertex(0)], 1.0, &[])
                .is_empty());
        }
    }

    #[test]
    fn scratch_reuse_and_pregrouped_targets_match_fresh_calls() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        let users: Vec<Location> = (0..36u32).map(Location::vertex).collect();
        let targets = group_user_targets(&tree, &net, &users);
        let mut scratch = FilterScratch::new();
        let mut out = Vec::new();
        // Interleave strategies, thresholds, and query sets through ONE
        // scratch: every call must match a fresh users_within call.
        for t in [0.0, 1.5, 3.0, 100.0] {
            for q in [
                vec![Location::vertex(0)],
                vec![Location::vertex(0), Location::vertex(35)],
                vec![Location::OnEdge {
                    u: 14,
                    v: 15,
                    offset: 0.5,
                }],
            ] {
                for filter in all_filters(&tree) {
                    let fresh = filter.users_within(&net, &q, t, &users);
                    filter.users_within_with(
                        &net,
                        &q,
                        t,
                        &users,
                        Some(&targets),
                        &mut scratch,
                        &mut out,
                    );
                    assert_eq!(out, fresh, "{} diverges with reused scratch", filter.name());
                    filter.users_within_with(&net, &q, t, &users, None, &mut scratch, &mut out);
                    assert_eq!(out, fresh, "{} diverges without targets", filter.name());
                }
            }
        }
    }

    #[test]
    fn incrementally_maintained_targets_match_regrouping() {
        use crate::network::EdgeUpdate;
        let net0 = grid(6, 6);
        let mut tree = GTree::build_with_capacity(&net0, 6);
        let mut users: Vec<Location> = (0..36u32).map(Location::vertex).collect();
        users[3] = Location::OnEdge {
            u: 3,
            v: 4,
            offset: 0.25,
        };
        let mut targets = group_user_targets(&tree, &net0, &users);

        // Reweight the edge under user 3 and refresh its rows, then move two
        // users; the maintained grouping must serve filter results identical
        // to a from-scratch regrouping at every step.
        let mut net = net0.clone();
        net.set_edge_weight(3, 4, 2.0).unwrap();
        tree.apply_edge_updates(&net, &[EdgeUpdate::new(3, 4, 2.0)]);
        let old = users[3];
        remove_user_target(&tree, &net, &mut targets, 3, &old);
        add_user_target(&tree, &net, &mut targets, 3, &old);

        let moves = [
            (3u32, Location::vertex(30)),
            (
                10,
                Location::OnEdge {
                    u: 14,
                    v: 15,
                    offset: 0.5,
                },
            ),
        ];
        for &(user, loc) in &moves {
            let old = users[user as usize];
            remove_user_target(&tree, &net, &mut targets, user, &old);
            add_user_target(&tree, &net, &mut targets, user, &loc);
            users[user as usize] = loc;
        }

        let regrouped = group_user_targets(&tree, &net, &users);
        assert_eq!(targets.num_seeds(), regrouped.num_seeds());
        let q = [Location::vertex(0), Location::vertex(21)];
        let mut scratch = FilterScratch::new();
        let mut via_maintained = Vec::new();
        let mut via_regrouped = Vec::new();
        let filter = RangeFilter::GTreeMultiSeedBatched(&tree);
        for t in [0.5, 2.0, 4.0, 100.0] {
            filter.users_within_with(
                &net,
                &q,
                t,
                &users,
                Some(&targets),
                &mut scratch,
                &mut via_maintained,
            );
            filter.users_within_with(
                &net,
                &q,
                t,
                &users,
                Some(&regrouped),
                &mut scratch,
                &mut via_regrouped,
            );
            assert_eq!(
                via_maintained, via_regrouped,
                "maintained targets diverge at t = {t}"
            );
            let sweep = RangeFilter::DijkstraSweep.users_within(&net, &q, t, &users);
            assert_eq!(
                via_maintained, sweep,
                "walk diverges from the sweep at t = {t}"
            );
        }
    }

    /// The tie contract on dyadic weights, where every distance sum is
    /// exact: a user at exactly `D_Q = t` is kept by both filters, and the
    /// sweep's recorded slack is then 0.
    #[test]
    fn a_user_exactly_at_t_is_kept_by_both_filters_with_zero_slack() {
        let net = RoadNetwork::from_edges(4, &[(0, 1, 0.75), (1, 2, 1.125), (2, 3, 0.5)]);
        let tree = GTree::build_with_capacity(&net, 2);
        let q = [Location::vertex(0)];
        let users = [
            Location::vertex(2), // 1.875
            Location::OnEdge {
                u: 1,
                v: 2,
                offset: 0.5,
            }, // 1.25
            Location::OnEdge {
                u: 2,
                v: 3,
                offset: 0.25,
            }, // 2.125
        ];
        let run = |filter: &RangeFilter<'_>, t: f64, reach: Option<&mut QueryReach>| {
            let mut out = Vec::new();
            let mut scratch = FilterScratch::new();
            assert!(filter.users_within_with_ticker(
                &net,
                &q,
                t,
                &users,
                None,
                &mut scratch,
                &mut out,
                &mut BudgetTicker::unlimited(),
                reach,
            ));
            out
        };
        for filter in all_filters(&tree) {
            assert_eq!(
                run(&filter, 1.875, None),
                [true, true, false],
                "{}",
                filter.name()
            );
        }
        let mut reach = QueryReach::new();
        assert_eq!(
            run(&RangeFilter::DijkstraSweep, 1.875, Some(&mut reach)),
            [true, true, false]
        );
        assert_eq!(reach.slack(), 0.0, "a user at exactly t leaves no slack");
        assert!(reach.kept(0) && reach.kept(1) && !reach.kept(2));
        // The field bounds each settled distance from above, within two
        // steps of t / 65534.
        for (v, d) in [(0, 0.0), (1, 0.75), (2, 1.875)] {
            let bound = reach.distance_bound(v).expect("the sweep records a field");
            assert!(
                bound >= d && bound <= d + 2.0 * 1.875 / 65534.0 + 1e-12,
                "{v}: {bound}"
            );
        }
        assert_eq!(
            reach.distance_bound(3),
            Some(f64::INFINITY),
            "vertex 3 lies beyond t"
        );

        // At t = 2 the nearest boundary is 0.125 away on both sides: user 0
        // inside (1.875), user 2 outside (2.125, reached via vertex 2).
        run(&RangeFilter::DijkstraSweep, 2.0, Some(&mut reach));
        assert_eq!(reach.slack(), 0.125);
        // The walk keeps the same set but records neither field nor slack.
        assert_eq!(
            run(
                &RangeFilter::GTreeMultiSeedBatched(&tree),
                2.0,
                Some(&mut reach)
            ),
            [true, true, false]
        );
        assert!(!reach.has_field() && reach.distance_bound(0).is_none());
        assert_eq!(reach.slack(), 0.0);
        assert!(reach.kept(1) && !reach.kept(2));
    }

    /// A dropped on-edge user whose near endpoint lies inside `t` and whose
    /// far endpoint the sweep leaves unsettled: the filter reads its
    /// distance through the near endpoint, far above the true one, so its
    /// slack must come from the lower bound `t` at the far endpoint.
    #[test]
    fn a_dropped_user_behind_an_unsettled_endpoint_bounds_the_slack_from_below() {
        // 0 -1.875- 1 -5.125- 2, and 0 -1- 3 -1.0625- 2: vertex 2 lies at
        // 2.0625 > t = 2. The user sits 0.125 short of vertex 2, at true
        // distance 2.1875; read through vertex 1 it would be 6.875.
        let mut net = RoadNetwork::from_edges(
            4,
            &[(0, 1, 1.875), (1, 2, 5.125), (0, 3, 1.0), (3, 2, 1.0625)],
        );
        let q = [Location::vertex(0)];
        let users = [
            Location::vertex(0),
            Location::OnEdge {
                u: 1,
                v: 2,
                offset: 5.0,
            },
        ];
        let mut reach = QueryReach::new();
        let mut out = Vec::new();
        assert!(RangeFilter::DijkstraSweep.users_within_with_ticker(
            &net,
            &q,
            2.0,
            &users,
            None,
            &mut FilterScratch::new(),
            &mut out,
            &mut BudgetTicker::unlimited(),
            Some(&mut reach),
        ));
        assert_eq!(out, [true, false]);
        assert_eq!(reach.distance_bound(2), Some(f64::INFINITY));
        // t + 0.125 - t, below the true 0.1875 (and far below 4.875).
        assert_eq!(reach.slack(), 0.125);
        // A cut of 0.1875 on vertex 2's route brings the user to exactly t,
        // where it is kept: the recorded slack must not admit that drift.
        net.set_edge_weight(3, 2, 0.875).unwrap();
        assert_eq!(
            RangeFilter::DijkstraSweep.users_within(&net, &q, 2.0, &users),
            [true, true]
        );
        assert!(reach.slack() < 0.1875 + reuse_margin(2.0));
    }

    #[test]
    fn budgeted_filters_match_unbudgeted_and_abort_on_tiny_limits() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        let users: Vec<Location> = (0..36u32).map(Location::vertex).collect();
        let targets = group_user_targets(&tree, &net, &users);
        let q = [Location::vertex(0), Location::vertex(21)];
        let mut scratch = FilterScratch::new();
        let mut out = Vec::new();
        let mut run =
            |filter: &RangeFilter<'_>, t: f64, out: &mut Vec<bool>, ticker: &mut BudgetTicker| {
                filter.users_within_with_ticker(
                    &net,
                    &q,
                    t,
                    &users,
                    Some(&targets),
                    &mut scratch,
                    out,
                    ticker,
                    None,
                )
            };
        for t in [0.0, 1.5, 3.0, 100.0] {
            for filter in all_filters(&tree) {
                // The unlimited ticker is the unbudgeted reference.
                let mut unlimited = BudgetTicker::unlimited();
                let mut reference = Vec::new();
                assert!(run(&filter, t, &mut reference, &mut unlimited));
                assert!(unlimited.spent() > 0, "{} never charged", filter.name());
                // A generous limited budget completes with identical results
                // and the same charge.
                let mut ticker = BudgetTicker::new(None, Some(u64::MAX), None);
                assert!(
                    run(&filter, t, &mut out, &mut ticker),
                    "{} exhausted a generous budget",
                    filter.name()
                );
                assert_eq!(ticker.spent(), unlimited.spent());
                assert_eq!(out, reference, "{} diverges under budget", filter.name());
                // A one-unit budget aborts; the scratch must stay reusable.
                let mut tiny = BudgetTicker::new(None, Some(1), None);
                assert!(!run(&filter, t, &mut out, &mut tiny));
                assert_eq!(tiny.cause(), Some(ExhaustionCause::WorkLimit));
                assert!(run(&filter, t, &mut out, &mut BudgetTicker::unlimited()));
                assert_eq!(
                    out,
                    reference,
                    "{} scratch corrupted by abort",
                    filter.name()
                );
            }
        }
    }

    #[test]
    fn auto_without_index_is_the_sweep() {
        let net = grid(8, 8);
        assert_eq!(
            resolve_auto(&net, None, 3, 10.0, 64),
            RangeFilterChoice::DijkstraSweep
        );
    }

    #[test]
    fn auto_on_small_indexed_networks_stays_on_the_sweep() {
        // Laptop-scale regression pin: on a small road network the whole
        // vertex set is a small ball, so Auto must keep the sweep even with
        // an index built — future heuristic edits cannot silently flip
        // laptop-scale queries off the sweep.
        let net = grid(16, 16);
        let tree = GTree::build_with_capacity(&net, 16);
        for t in [0.5, 2.0, 10.0, 1000.0] {
            for q in [1usize, 2, 4] {
                assert_eq!(
                    resolve_auto(&net, Some(&tree), q, t, 256),
                    RangeFilterChoice::DijkstraSweep,
                    "small indexed network must sweep (t = {t}, |Q| = {q})"
                );
            }
        }
        // A 4-vertex path indexed as one leaf (capacity 4): the walk has
        // nothing to prune, whatever the cost model would estimate.
        let tiny = RoadNetwork::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 10.0)]);
        let tree = GTree::build_with_capacity(&tiny, 4);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(
            resolve_auto(&tiny, Some(&tree), 1, 2.0, 6),
            RangeFilterChoice::DijkstraSweep,
            "a one-leaf index must sweep"
        );
    }

    /// A corridor/highway-like road network: a long weighted path with a
    /// shortcut every fifth vertex. Its separators (and so the G-tree border
    /// sets) stay tiny at any size — the topology where the batched walk
    /// genuinely beats the sweep (4–296× on a measured 50k-vertex corridor).
    fn corridor(n: u32) -> RoadNetwork {
        let mut edges: Vec<(u32, u32, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.extend((0..n.saturating_sub(5)).step_by(5).map(|i| (i, i + 5, 2.5)));
        RoadNetwork::from_edges(n as usize, &edges)
    }

    #[test]
    fn auto_on_indexed_large_corridor_switches_to_the_batched_walk() {
        // The other direction of the pin: on an indexed large small-separator
        // network the walk's border sets stay tiny, and on a 50k-vertex
        // corridor the multi-seed walk measured 4× faster than the sweep at
        // t = 50 and 128–296× at full-graph balls — Auto must use the index.
        let net = corridor(20_000);
        let tree = GTree::build(&net);
        for t in [50.0, 1_000.0, 10_000.0] {
            assert_eq!(
                resolve_auto(&net, Some(&tree), 4, t, 64),
                RangeFilterChoice::GTreeMultiSeedBatched,
                "indexed-large corridor must use the index at t = {t}"
            );
        }
    }

    #[test]
    fn auto_on_grid_like_networks_keeps_the_sweep_at_any_radius() {
        // Grid-like networks have √n-sized cuts: the walk's fixed floor grows
        // with the same structure that makes the ball expensive, and the
        // measured crossover rows show the sweep winning at every generatable
        // scale — Auto must not flip on them.
        let net = grid(50, 50);
        let tree = GTree::build(&net);
        for t in [1.0, 10.0, 100.0, 10_000.0] {
            assert_eq!(
                resolve_auto(&net, Some(&tree), 4, t, 64),
                RangeFilterChoice::DijkstraSweep,
                "grid-like network must sweep at t = {t}"
            );
        }
    }
}
