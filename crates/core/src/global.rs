//! Global search: the DFS-based Algorithm 1 (`GS-T` / `GS-NC`).
//!
//! Starting from the maximal (k,t)-core `H^t_k`, the algorithm explores
//! `(subgraph, sub-partition of R, deletion history)` states depth-first. For
//! a state it determines the candidate smallest-score vertices — the leaves of
//! the current r-dominance graph — inserts the half-spaces between them into a
//! local arrangement of the state's cell (Algorithm 2), and in every resulting
//! sub-partition deletes the smallest-score vertex with the DFS cascade
//! (lines 15–20). When Corollary 1 fires, the state's community is reported as
//! the non-contained MAC of that sub-partition, and the top-j MACs are
//! recovered by backtracking the deletion history.
//!
//! Five engine-level departures from a literal transcription of the paper:
//!
//! * **Explicit stack.** The exploration runs on an explicit task stack
//!   (the private `Task` enum) instead of call recursion, so the search depth
//!   is bounded by heap memory rather than thread stack — peel paths through a
//!   10^5-vertex (k,t)-core are just more stack entries. A worker shares
//!   **one** [`SubgraphView`] across all branches: a `Task::Retreat` entry
//!   rolls the view back to the checkpoint taken when the branch was entered,
//!   so sibling cells reuse the same scratch state and no per-branch clones
//!   happen.
//!
//! * **Work stealing.** Sub-partition counts are heavily skewed — one root
//!   cell can own almost the whole arrangement — so parallel runs never
//!   split work statically by top-level cell. Instead, every pending `Visit`
//!   on a worker's stack is a self-contained unit of work: its cell, its
//!   candidate leaves, and the deletion groups along its ancestor path fully
//!   determine the subtree. When another worker goes idle, a busy worker
//!   donates its **bottom-most** pending `Visit` (the largest unexplored
//!   subtree) through a shared injector queue; the thief replays the donated
//!   deletion prefix on its private view and explores the subtree as if it
//!   had descended there itself. Every report is tagged with its DFS path, and the merge sorts by
//!   path — lexicographic path order **is** the serial emission order, so the
//!   output is bit-identical to the serial run regardless of how work moved.
//!   One drain loop runs every stack: it charges each task one budget unit,
//!   donates every 16 tasks when it has a pool, and unwinds once on
//!   exhaustion. A serial run is that drain without a pool, on the calling
//!   thread; a pool worker wraps it in steal, prefix replay and retire.
//!
//! * **Pooled scratch.** All per-query allocations (task stack, leaf arena,
//!   half-space cache, arrangement nodes, deletion groups, result husks) live
//!   in a crate-internal `GsScratch` that the caller retains across queries,
//!   so a steady-state query on a warmed session performs no heap allocation.
//!
//! * **Early-exit connectivity trim.** After a deletion cascade only the
//!   component of `q[0]` can still host a MAC. The trim
//!   ([`SubgraphView::retain_component_since`]) requires the view to have
//!   been connected before the cascade, and every state is: the root core is
//!   the connected k-core containing `Q` (`connected_k_core_containing`),
//!   every committed descent trims the view to `q[0]`'s component, a
//!   `Retreat` rolls back to such a state, and a stolen subtree replays its
//!   prefix to the donor's alive set, which was connected. So the trim's BFS
//!   stops once it has reached every alive neighbour of the cascade.
//!
//! * **Unsplit cells pass through.** Most arrangements split nothing: every
//!   half-space among the new leaves covers or misses the state's cell
//!   (Algorithm 2, lines 1–2). [`arrange_into`] then hands the cell itself
//!   back as the single sub-cell, moved rather than copied, and its `Visit`
//!   reuses the sample point its parent visit computed, which is the same
//!   bits `sample_point_into` would compute again. The reuse never crosses a
//!   steal: a donated `Visit` samples its cell afresh on the thief. Tasks,
//!   budget charges, `partitions_explored` and DFS paths are as for a
//!   re-arranged cell, so budgeted prefixes do not change.
//!   [`SearchStats::unsplit_arrangements`] counts these arrangements.
//!
//! The worker count is the session's
//! [`ExecutionPolicy::parallelism`](crate::policy::ExecutionPolicy::parallelism);
//! results are identical at any setting. The search answers Problem 1 (the
//! top-j MACs per cell) for the query's `j`, which at `j = 1` is Problem 2
//! (the non-contained MAC). Queries run through a
//! [`QuerySession`](crate::session::QuerySession).

use crate::context::SearchContext;
use crate::policy::resolve_workers;
use crate::result::{BudgetedRun, CellResult, Community, MacSearchResult, SearchStats};
use rsn_geom::cell::Cell;
use rsn_geom::halfspace::HalfSpace;
use rsn_geom::partition::{arrange_into, ArrangeScratch};
use rsn_graph::subgraph::{Checkpoint, SubgraphView, ViewScratch};
use rsn_road::budget::{BudgetTicker, SharedBudget};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A contiguous run of candidate leaves inside the scratch arena.
///
/// Leaf sets along the DFS path are stacked in one flat `Vec<u32>`: a descend
/// appends its leaves at the current end and the matching `Retreat` truncates
/// back, so ranges are stable for exactly as long as a task referencing them
/// is on the stack.
#[derive(Debug, Clone, Copy)]
struct LeafRange {
    start: u32,
    len: u32,
}

impl LeafRange {
    const EMPTY: LeafRange = LeafRange { start: 0, len: 0 };
}

#[inline]
fn leaf_slice(arena: &[u32], r: LeafRange) -> &[u32] {
    &arena[r.start as usize..(r.start + r.len) as usize]
}

/// Bytes one deletion group adds to the memory accounting.
#[inline]
fn bytes_of(group: &[u32]) -> usize {
    std::mem::size_of_val(group)
}

/// One unit of deferred work on a worker's explicit DFS stack.
///
/// The stack discipline mirrors the recursion it replaces: `Arrange` plays the
/// role of a recursive `explore` call, `Visit` is one iteration of its
/// sub-cell loop, and `Retreat` is the code after the recursive call returned
/// (pop the deletion group, roll the shared view back, truncate the arena).
#[derive(Debug)]
enum Task {
    /// Arrange the half-spaces among the current leaves inside `cell` and
    /// queue a `Visit` per resulting sub-cell. `settled` holds the parent
    /// state's leaves (their pairwise half-spaces are already separated).
    Arrange {
        cell: Cell,
        settled: LeafRange,
        depth: u32,
    },
    /// Decide one sub-cell: report its community or tentatively delete the
    /// smallest-score vertex and descend. `idx` is the cell's position in its
    /// parent arrangement — the task's coordinate in the DFS path. `sampled`
    /// marks a cell that passed its parent arrangement unsplit: it is the
    /// parent visit's cell, whose sample point `GsScratch::sample_buf` still
    /// holds (the `Visit` runs right after the `Arrange` that queued it, which
    /// runs right after that parent visit). A donated `Visit` drops the mark.
    Visit {
        cell: Cell,
        leaves: LeafRange,
        depth: u32,
        idx: u32,
        sampled: bool,
    },
    /// Return from a descent: pop the deletion group, roll back, truncate the
    /// leaf arena to its pre-descent length.
    Retreat { cp: Checkpoint, arena_mark: u32 },
}

/// A stolen (or seeded) subtree: everything a thief needs to explore a
/// pending `Visit` on its own view. `path[i]` is the arrangement index taken
/// at depth `i + 1`; `prefix_groups` are the deletion groups of the
/// `path.len() - 1` ancestor descents, replayed vertex-by-vertex before the
/// subtree runs (cascade order does not matter — the final alive set and the
/// degrees of alive vertices are order-independent).
struct Stolen {
    cell: Cell,
    leaves: Vec<u32>,
    path: Vec<u32>,
    prefix_groups: Vec<Vec<u32>>,
}

/// Shared state of the work-stealing pool: a mutexed injector queue plus the
/// idle/active accounting that detects termination.
struct PoolState {
    queue: Vec<Stolen>,
    active: usize,
    done: bool,
}

struct SharedPool<'b> {
    state: Mutex<PoolState>,
    cvar: Condvar,
    /// Fast donation hint: how many workers are parked in `get_work`.
    idle: AtomicUsize,
    budget: &'b SharedBudget,
}

/// Pops the next work item, parking until one is donated or every worker is
/// out of work. Returns `None` on termination (queue drained and all workers
/// idle, or the shared budget tripped — leftover queue items are left for the
/// coordinator to count as dropped).
fn get_work(pool: &SharedPool<'_>) -> Option<Stolen> {
    let mut st = pool.state.lock().unwrap();
    loop {
        if st.done {
            return None;
        }
        if pool.budget.is_exhausted() {
            st.done = true;
            pool.cvar.notify_all();
            return None;
        }
        if let Some(item) = st.queue.pop() {
            return Some(item);
        }
        st.active -= 1;
        if st.active == 0 {
            st.done = true;
            pool.cvar.notify_all();
            return None;
        }
        pool.idle.fetch_add(1, Ordering::Relaxed);
        st = pool.cvar.wait(st).unwrap();
        pool.idle.fetch_sub(1, Ordering::Relaxed);
        st.active += 1;
    }
}

/// Lexicographic minimum of an optional running frontier and a candidate.
fn min_path(cur: Option<Vec<u32>>, cand: Vec<u32>) -> Option<Vec<u32>> {
    match cur {
        Some(c) if c <= cand => Some(c),
        _ => Some(cand),
    }
}

/// All per-query mutable state of one global-search worker, retained by the
/// caller across queries so a warmed steady-state query allocates nothing.
#[derive(Debug)]
pub(crate) struct GsScratch {
    stack: Vec<Task>,
    /// Flat arena of candidate-leaf ids; see [`LeafRange`].
    arena: Vec<u32>,
    /// Arrangement indices taken along the current DFS path (depth `d` ⇒
    /// `cur_path.len() == d` while visiting a depth-`d` cell).
    cur_path: Vec<u32>,
    /// Half-space cache: pair → slot in `hs_store`. Cleared per query (keeps
    /// capacity); slots below `hs_cursor` are live this query.
    hs_index: HashMap<(u32, u32), u32>,
    hs_store: Vec<HalfSpace>,
    hs_cursor: usize,
    /// Half-space slots of the current arrangement, in insertion order.
    hps_buf: Vec<u32>,
    arrange: ArrangeScratch,
    view_scratch: ViewScratch,
    /// Word scratch for `leaves_within_into` (the union of the alive
    /// vertices' dominator closures).
    leaf_mark: Vec<u64>,
    /// Deletion groups committed along the current DFS path (push on descend,
    /// pop on retreat) — the backtracking history for top-j.
    deletion_groups: Vec<Vec<u32>>,
    /// Total bytes of the vertex ids in `deletion_groups`, kept in step with
    /// every push and pop for the memory accounting.
    group_bytes: usize,
    /// Retired deletion-group vectors awaiting reuse.
    spare_groups: Vec<Vec<u32>>,
    /// Sample point of the cell currently being decided; a `Visit` marked
    /// `sampled` reuses it (see `Task::Visit`).
    sample_buf: Vec<f64>,
    /// Output buffer of the current arrangement.
    sub_cells: Vec<Cell>,
    /// Alive-vertex buffer for community reporting.
    alive_buf: Vec<u32>,
    root_cell: Cell,
    /// Retired result husks (cell + weight + community vectors) awaiting
    /// reuse; replenished by [`GsScratch::recycle`].
    spare_results: Vec<CellResult>,
    spare_communities: Vec<Community>,
    /// Retired output vector awaiting reuse as the next query's `out_cells`.
    out_buf: Vec<CellResult>,
}

impl Default for GsScratch {
    fn default() -> Self {
        GsScratch {
            stack: Vec::new(),
            arena: Vec::new(),
            cur_path: Vec::new(),
            hs_index: HashMap::new(),
            hs_store: Vec::new(),
            hs_cursor: 0,
            hps_buf: Vec::new(),
            arrange: ArrangeScratch::new(),
            view_scratch: ViewScratch::new(),
            leaf_mark: Vec::new(),
            deletion_groups: Vec::new(),
            group_bytes: 0,
            spare_groups: Vec::new(),
            sample_buf: Vec::new(),
            sub_cells: Vec::new(),
            alive_buf: Vec::new(),
            root_cell: Cell::default(),
            spare_results: Vec::new(),
            spare_communities: Vec::new(),
            out_buf: Vec::new(),
        }
    }
}

impl GsScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Clears per-query state (keeping every capacity) for the next run.
    fn reset(&mut self) {
        debug_assert!(self.stack.is_empty());
        debug_assert!(self.deletion_groups.is_empty());
        debug_assert_eq!(self.group_bytes, 0);
        self.stack.clear();
        self.arena.clear();
        self.cur_path.clear();
        self.hs_index.clear();
        self.hs_cursor = 0;
        self.hps_buf.clear();
        self.sub_cells.clear();
    }

    /// Returns a finished result's buffers to the pools, so the next query on
    /// this scratch reuses them instead of allocating. Callers that keep the
    /// result simply drop it — recycling is an optimization, not a duty.
    pub(crate) fn recycle(&mut self, mut result: MacSearchResult) {
        self.spare_results.append(&mut result.cells);
        if result.cells.capacity() > self.out_buf.capacity() {
            self.out_buf = result.cells;
        }
    }

    /// The pools a result is assembled from: retired cell results and
    /// communities, the cell pool, and the retired output vector.
    pub(crate) fn result_pools(
        &mut self,
    ) -> (
        &mut Vec<CellResult>,
        &mut Vec<Community>,
        &mut ArrangeScratch,
        &mut Vec<CellResult>,
    ) {
        (
            &mut self.spare_results,
            &mut self.spare_communities,
            &mut self.arrange,
            &mut self.out_buf,
        )
    }
}

/// Per-worker exploration state. Workers never share mutable state; each owns
/// its scratch, deletion history, and output buffers.
struct Worker<'c, 'g, 's> {
    ctx: &'c SearchContext<'g>,
    /// `ctx.gd.memory_bytes()`, fixed once `G_d` is built.
    gd_bytes: usize,
    scratch: &'s mut GsScratch,
    out_cells: Vec<CellResult>,
    /// The DFS path of every report (parallel runs only; the merge sorts by
    /// path to recover the serial order).
    out_paths: Option<Vec<Vec<u32>>>,
    stats: SearchStats,
    /// Tasks charged and run, and tasks dropped when the budget tripped.
    executed: u64,
    dropped: u64,
    /// Lexicographically smallest dropped DFS path (path-recording workers
    /// only).
    frontier: Option<Vec<u32>>,
}

/// Everything a parallel run hands back to the coordinator.
struct ParallelOutcome {
    cells: Vec<CellResult>,
    stats: SearchStats,
    /// Tasks charged/executed across all workers (budgeted runs).
    executed: u64,
    /// Tasks known dropped (budgeted runs that tripped).
    dropped: u64,
    /// Lexicographically smallest dropped DFS path; `None` ⇒ ran to
    /// completion. Outputs at or beyond the frontier are filtered so the
    /// partial result is a coherent prefix of the full serial output.
    frontier: Option<Vec<u32>>,
}

fn base_stats(ctx: &SearchContext<'_>) -> SearchStats {
    SearchStats {
        kt_core_vertices: ctx.core_size(),
        kt_core_edges: ctx.core_edges(),
        dominance_tests: ctx.gd.tests_performed(),
        memory_bytes: ctx.gd.memory_bytes(),
        ..SearchStats::default()
    }
}

/// Explores a prebuilt [`SearchContext`] on `parallelism` workers (`1` =
/// serial on the calling thread, `0` = all cores), reporting the top-`j`
/// MACs per cell for the context query's `j`. The entry point of
/// [`QuerySession`](crate::session::QuerySession), which passes its
/// retained scratch so warmed queries allocate nothing. `elapsed_seconds`
/// covers only the exploration; callers overwrite it with their end-to-end
/// timing.
///
/// Charges `ticker` one unit per DFS task and stops cooperatively; an
/// unlimited ticker always runs to completion. Serial runs stop exactly
/// where the charge fails, so the reported cells are a prefix of the full
/// run's in DFS order. Parallel runs share the budget through an atomic
/// latch ([`SharedBudget`]) — the first worker to trip stops every other
/// worker at its next check, and the merge keeps only reports strictly
/// before the smallest dropped DFS path, so the partial result is again
/// one coherent prefix of the full output. `remaining` counts the tasks
/// and top-level cells known to be left undone.
pub(crate) fn explore_context(
    ctx: &SearchContext<'_>,
    scratch: &mut GsScratch,
    parallelism: usize,
    ticker: &mut BudgetTicker,
) -> BudgetedRun {
    let start = Instant::now();
    // Guard before the root arrangement, whose half-space set is
    // quadratic in the initial leaf count.
    if !ticker.charge(1) {
        let mut stats = base_stats(ctx);
        stats.elapsed_seconds = start.elapsed().as_secs_f64();
        return BudgetedRun {
            result: MacSearchResult {
                cells: Vec::new(),
                stats,
            },
            completed: false,
            explored: 0,
            remaining: 1,
        };
    }

    scratch.reset();
    let out_buf = std::mem::take(&mut scratch.out_buf);
    let mut worker = Worker::new(ctx, scratch, base_stats(ctx), out_buf, None);
    let mut view =
        SubgraphView::full_from_scratch(&ctx.local_graph, &mut worker.scratch.view_scratch);
    let leaves0 = worker.prepare_root(&view);
    let total_cells = worker.scratch.sub_cells.len() as u64;

    let mut explored = 1u64;
    let completed;
    let remaining;
    let out_cells;
    let mut stats;
    // Charge the root arrangement after the fact, then walk the DFS.
    if !ticker.charge(leaves0.len as u64 + total_cells) {
        completed = false;
        remaining = total_cells;
        let GsScratch {
            sub_cells, arrange, ..
        } = &mut *worker.scratch;
        for cell in sub_cells.drain(..) {
            arrange.recycle_cell(cell);
        }
        out_cells = std::mem::take(&mut worker.out_cells);
        stats = std::mem::take(&mut worker.stats);
    } else {
        // Stealing redistributes skew at any depth, so a single top-level
        // cell still fans out across every requested worker.
        let workers = if worker.scratch.sub_cells.is_empty() {
            1
        } else {
            resolve_workers(parallelism)
        };
        if workers <= 1 {
            worker.push_top_cells(leaves0);
            completed = worker.drain(&mut view, || ticker.charge(1), None);
            debug_assert!(worker.scratch.deletion_groups.is_empty());
            explored += worker.executed;
            remaining = worker.dropped;
            out_cells = std::mem::take(&mut worker.out_cells);
            stats = std::mem::take(&mut worker.stats);
        } else {
            let leaves0 = leaf_slice(&worker.scratch.arena, leaves0).to_vec();
            let top_cells: Vec<Cell> = worker.scratch.sub_cells.drain(..).collect();
            let root_stats = std::mem::take(&mut worker.stats);
            let shared = ticker.share();
            let outcome = run_parallel(ctx, workers, leaves0, top_cells, root_stats, &shared);
            ticker.absorb(&shared);
            explored += outcome.executed;
            completed = outcome.frontier.is_none();
            remaining = outcome.dropped;
            out_cells = outcome.cells;
            stats = outcome.stats;
        }
    }
    view.recycle_into(&mut worker.scratch.view_scratch);

    stats.elapsed_seconds = start.elapsed().as_secs_f64();
    BudgetedRun {
        result: MacSearchResult {
            cells: out_cells,
            stats,
        },
        completed,
        explored,
        remaining,
    }
}

/// Runs the top-level cells on `workers` scoped threads with work
/// stealing. Each worker owns a private view of the (k,t)-core and a
/// private scratch; seeds and stolen subtrees flow through one mutexed
/// injector queue. Reports are path-tagged and merged by path sort, which
/// reproduces the serial DFS emission order exactly.
fn run_parallel(
    ctx: &SearchContext<'_>,
    workers: usize,
    leaves0: Vec<u32>,
    top_cells: Vec<Cell>,
    root_stats: SearchStats,
    budget: &SharedBudget,
) -> ParallelOutcome {
    let mut stats = root_stats;
    stats.parallel_workers = workers;
    // Seeds are pushed reversed so the LIFO queue pops cell 0 first.
    let seeds: Vec<Stolen> = top_cells
        .into_iter()
        .enumerate()
        .rev()
        .map(|(i, cell)| Stolen {
            cell,
            leaves: leaves0.clone(),
            path: vec![i as u32],
            prefix_groups: Vec::new(),
        })
        .collect();
    let pool = SharedPool {
        state: Mutex::new(PoolState {
            queue: seeds,
            active: workers,
            done: false,
        }),
        cvar: Condvar::new(),
        idle: AtomicUsize::new(0),
        budget,
    };

    let mut tagged: Vec<(Vec<u32>, CellResult)> = Vec::new();
    let mut executed = 0u64;
    let mut dropped = 0u64;
    let mut frontier: Option<Vec<u32>> = None;
    std::thread::scope(|scope| {
        let pool = &pool;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut scratch = GsScratch::new();
                    let mut worker = Worker::new(
                        ctx,
                        &mut scratch,
                        SearchStats::default(),
                        Vec::new(),
                        Some(Vec::new()),
                    );
                    let mut view = SubgraphView::full(&ctx.local_graph);
                    worker.run_pool(&mut view, pool);
                    (
                        std::mem::take(&mut worker.out_cells),
                        worker.out_paths.take().unwrap_or_default(),
                        std::mem::take(&mut worker.stats),
                        worker.executed,
                        worker.dropped,
                        worker.frontier.take(),
                    )
                })
            })
            .collect();
        for handle in handles {
            let (cells, paths, wstats, wexec, wdrop, wfrontier) =
                handle.join().expect("GS worker panicked");
            stats.merge_worker(&wstats);
            executed += wexec;
            dropped += wdrop;
            if let Some(f) = wfrontier {
                frontier = min_path(frontier.take(), f);
            }
            debug_assert_eq!(paths.len(), cells.len());
            tagged.extend(paths.into_iter().zip(cells));
        }
    });
    // A tripped budget can leave undistributed work in the queue: every
    // leftover item is a dropped subtree rooted at its path.
    let mut st = pool.state.into_inner().unwrap();
    for item in st.queue.drain(..) {
        dropped += 1;
        frontier = min_path(frontier, item.path);
    }

    tagged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    if let Some(f) = &frontier {
        // Keep only reports strictly before the smallest dropped path —
        // those form a prefix of the serial output (a dropped subtree's
        // reports all sort at or after its root path).
        let cut = tagged.partition_point(|(p, _)| p < f);
        dropped += (tagged.len() - cut) as u64;
        tagged.truncate(cut);
    }
    ParallelOutcome {
        cells: tagged.into_iter().map(|(_, c)| c).collect(),
        stats,
        executed,
        dropped,
        frontier,
    }
}

impl<'c, 'g, 's> Worker<'c, 'g, 's> {
    /// A worker that reports into `out_cells`, and tags each report with
    /// its DFS path when `out_paths` is `Some`.
    fn new(
        ctx: &'c SearchContext<'g>,
        scratch: &'s mut GsScratch,
        stats: SearchStats,
        out_cells: Vec<CellResult>,
        out_paths: Option<Vec<Vec<u32>>>,
    ) -> Self {
        Worker {
            ctx,
            gd_bytes: ctx.gd.memory_bytes(),
            scratch,
            out_cells,
            out_paths,
            stats,
            executed: 0,
            dropped: 0,
            frontier: None,
        }
    }

    /// Builds the root state: the region cell, the initial leaves (appended
    /// at arena position 0), and the root arrangement (left in
    /// `scratch.sub_cells`). Returns the initial leaf range.
    fn prepare_root(&mut self, view: &SubgraphView<'_>) -> LeafRange {
        self.scratch.root_cell.assign_region(&self.ctx.query.region);
        let cell_bytes = self.scratch.root_cell.memory_bytes();
        self.account_memory(view, cell_bytes, 1);
        {
            let GsScratch {
                arena, leaf_mark, ..
            } = &mut *self.scratch;
            debug_assert!(arena.is_empty());
            self.ctx
                .gd
                .leaves_within_into(view.alive_words(), leaf_mark, arena);
        }
        let leaves0 = LeafRange {
            start: 0,
            len: self.scratch.arena.len() as u32,
        };
        self.compute_halfspaces(leaves0, LeafRange::EMPTY);
        let n = {
            let GsScratch {
                arrange,
                hps_buf,
                hs_store,
                sub_cells,
                root_cell,
                ..
            } = &mut *self.scratch;
            let base = arrange.copy_cell(root_cell);
            arrange_into(
                arrange,
                base,
                hps_buf.iter().map(|&i| &hs_store[i as usize]),
                sub_cells,
            )
        };
        self.stats.partitions_explored += n;
        self.stats.unsplit_arrangements += usize::from(n == 1);
        leaves0
    }

    /// Queues every root-arrangement cell as a depth-1 `Visit`, in order.
    fn push_top_cells(&mut self, leaves0: LeafRange) {
        let GsScratch {
            sub_cells, stack, ..
        } = &mut *self.scratch;
        for (i, cell) in sub_cells.drain(..).enumerate().rev() {
            stack.push(Task::Visit {
                cell,
                leaves: leaves0,
                depth: 1,
                idx: i as u32,
                sampled: false,
            });
        }
    }

    /// The one task loop: pops each task and charges it one unit, and with a
    /// `pool` donates a pending subtree to an idle worker every 16 tasks. On
    /// exhaustion the remaining stack is unwound: pending `Retreat`
    /// rollbacks are applied innermost-first, so the shared view and the
    /// deletion history return to their state before this drain, while
    /// dropped `Visit`/`Arrange` tasks are counted, recycled and, on a
    /// path-recording worker, folded into the smallest dropped DFS path.
    /// Returns whether the stack ran empty without a trip.
    fn drain(
        &mut self,
        view: &mut SubgraphView<'_>,
        mut charge: impl FnMut() -> bool,
        pool: Option<&SharedPool<'_>>,
    ) -> bool {
        let mut pops = 0u32;
        while let Some(task) = self.scratch.stack.pop() {
            if !charge() {
                self.scratch.stack.push(task);
                while let Some(task) = self.scratch.stack.pop() {
                    let (cell, depth, idx) = match task {
                        Task::Retreat { cp, arena_mark } => {
                            self.apply_retreat(view, cp, arena_mark);
                            continue;
                        }
                        Task::Visit {
                            cell, depth, idx, ..
                        } => (cell, depth, Some(idx)),
                        // An arrange is the descent *into* the subtree
                        // rooted at its parent's path.
                        Task::Arrange { cell, depth, .. } => (cell, depth, None),
                    };
                    self.dropped += 1;
                    self.scratch.arrange.recycle_cell(cell);
                    if self.out_paths.is_some() {
                        let mut p = self.scratch.cur_path[..depth as usize - 1].to_vec();
                        p.extend(idx);
                        self.frontier = min_path(self.frontier.take(), p);
                    }
                }
                return false;
            }
            self.executed += 1;
            pops += 1;
            if let Some(pool) = pool {
                if pops.is_multiple_of(16) {
                    self.try_donate(pool);
                }
            }
            self.run_task(view, task);
        }
        true
    }

    /// Work-stealing main loop: pull seeds/stolen subtrees from the pool,
    /// replay their deletion prefix, [`drain`](Self::drain) them charging
    /// the shared budget, and retire the prefix.
    fn run_pool(&mut self, view: &mut SubgraphView<'_>, pool: &SharedPool<'_>) {
        let mut ticker = pool.budget.worker();
        while let Some(item) = get_work(pool) {
            let Stolen {
                cell,
                leaves,
                path,
                prefix_groups,
            } = item;
            let depth = path.len() as u32;
            if depth > 1 {
                // Depth-1 items are the seeded top-level cells (ordinary
                // distribution); anything deeper migrated mid-flight.
                self.stats.tasks_stolen += 1;
            }
            let cp0 = view.checkpoint();
            for group in &prefix_groups {
                self.scratch.group_bytes += bytes_of(group);
                for &v in group {
                    // Replay order within/across groups is irrelevant: the
                    // final alive set and the degrees of alive vertices only
                    // depend on *which* vertices died.
                    view.delete_single(v);
                }
            }
            let arena_base = self.scratch.arena.len() as u32;
            let idx = *path.last().expect("stolen path is never empty");
            {
                let GsScratch {
                    arena,
                    cur_path,
                    deletion_groups,
                    stack,
                    ..
                } = &mut *self.scratch;
                cur_path.clear();
                cur_path.extend_from_slice(&path);
                deletion_groups.extend(prefix_groups);
                let start = arena.len() as u32;
                let len = leaves.len() as u32;
                arena.extend_from_slice(&leaves);
                stack.push(Task::Visit {
                    cell,
                    leaves: LeafRange { start, len },
                    depth,
                    idx,
                    sampled: false,
                });
            }

            self.drain(view, || ticker.charge(1), Some(pool));

            // Retire the prefix seeds and restore the untouched core state.
            {
                let GsScratch {
                    deletion_groups,
                    group_bytes,
                    spare_groups,
                    ..
                } = &mut *self.scratch;
                while let Some(g) = deletion_groups.pop() {
                    spare_groups.push(g);
                }
                *group_bytes = 0;
            }
            view.rollback(cp0);
            self.scratch.arena.truncate(arena_base as usize);
        }
    }

    /// Donates the bottom-most pending `Visit` (the largest unexplored
    /// subtree) to the pool if another worker is idle. Safe to remove from
    /// the middle of the stack: a `Visit` owns no checkpoint, and its
    /// ancestor groups/path entries stay in place until the `Retreat`s below
    /// it run.
    fn try_donate(&mut self, pool: &SharedPool<'_>) {
        if pool.idle.load(Ordering::Relaxed) == 0 {
            return;
        }
        let Some(pos) = self
            .scratch
            .stack
            .iter()
            .position(|t| matches!(t, Task::Visit { .. }))
        else {
            return;
        };
        // The thief re-samples the cell: `sampled` refers to this worker's
        // `sample_buf`.
        let Task::Visit {
            cell,
            leaves,
            depth,
            idx,
            ..
        } = self.scratch.stack.remove(pos)
        else {
            unreachable!("position matched a Visit");
        };
        let d = depth as usize;
        let GsScratch {
            arena,
            cur_path,
            deletion_groups,
            ..
        } = &*self.scratch;
        let mut path = Vec::with_capacity(d);
        path.extend_from_slice(&cur_path[..d - 1]);
        path.push(idx);
        let item = Stolen {
            cell,
            leaves: leaf_slice(arena, leaves).to_vec(),
            path,
            prefix_groups: deletion_groups[..d - 1].to_vec(),
        };
        let mut st = pool.state.lock().unwrap();
        st.queue.push(item);
        drop(st);
        pool.cvar.notify_one();
    }

    fn run_task(&mut self, view: &mut SubgraphView<'_>, task: Task) {
        match task {
            Task::Arrange {
                cell,
                settled,
                depth,
            } => self.arrange_state(view, cell, settled, depth),
            Task::Visit {
                cell,
                leaves,
                depth,
                idx,
                sampled,
            } => {
                let cur_path = &mut self.scratch.cur_path;
                cur_path.truncate(depth as usize - 1);
                cur_path.push(idx);
                self.visit_cell(view, cell, leaves, depth, sampled);
            }
            Task::Retreat { cp, arena_mark } => self.apply_retreat(view, cp, arena_mark),
        }
    }

    #[inline]
    fn apply_retreat(&mut self, view: &mut SubgraphView<'_>, cp: Checkpoint, arena_mark: u32) {
        let GsScratch {
            deletion_groups,
            group_bytes,
            spare_groups,
            arena,
            ..
        } = &mut *self.scratch;
        if let Some(g) = deletion_groups.pop() {
            *group_bytes -= bytes_of(&g);
            spare_groups.push(g);
        }
        view.rollback(cp);
        arena.truncate(arena_mark as usize);
    }

    /// Track an approximate peak of live search memory (Fig. 11(d)): the DFS
    /// path holds one view plus per-level cells and deletion groups.
    fn account_memory(&mut self, view: &SubgraphView<'_>, cell_bytes: usize, depth: u32) {
        debug_assert_eq!(
            self.scratch.group_bytes,
            self.scratch
                .deletion_groups
                .iter()
                .map(|g| bytes_of(g))
                .sum::<usize>()
        );
        let live_bytes = self.gd_bytes
            + view.alive_mask().len() * 5
            + depth as usize * cell_bytes
            + self.scratch.group_bytes;
        self.stats.memory_bytes = self.stats.memory_bytes.max(live_bytes);
    }

    /// Computes (or locates) the new hyperplanes among `leaves` into
    /// `hps_buf`; `settled` is sorted (leaves come out in increasing id
    /// order), and pairs of settled leaves are already separated by the
    /// arrangement that produced the current cell, so their half-spaces need
    /// not be re-inserted (the "directly locate" optimization of Section
    /// V-B). Half-spaces are pooled in `hs_store` and indexed per query.
    fn compute_halfspaces(&mut self, leaves: LeafRange, settled: LeafRange) {
        let GsScratch {
            arena,
            hs_index,
            hs_store,
            hs_cursor,
            hps_buf,
            ..
        } = &mut *self.scratch;
        let leaf_ids = leaf_slice(arena, leaves);
        let settled_ids = leaf_slice(arena, settled);
        let is_settled = |v: u32| settled_ids.binary_search(&v).is_ok();
        hps_buf.clear();
        for (i, &a) in leaf_ids.iter().enumerate() {
            for &b in leaf_ids.iter().skip(i + 1) {
                if is_settled(a) && is_settled(b) {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                let slot = match hs_index.get(&key) {
                    Some(&slot) => slot,
                    None => {
                        self.stats.halfspaces_computed += 1;
                        let slot = *hs_cursor;
                        if slot < hs_store.len() {
                            hs_store[slot].assign_score_at_least(
                                self.ctx.attrs.row(key.0 as usize),
                                self.ctx.attrs.row(key.1 as usize),
                            );
                        } else {
                            hs_store.push(HalfSpace::score_at_least(
                                self.ctx.attrs.row(key.0 as usize),
                                self.ctx.attrs.row(key.1 as usize),
                            ));
                        }
                        *hs_cursor = slot + 1;
                        hs_index.insert(key, slot as u32);
                        slot as u32
                    }
                };
                hps_buf.push(slot);
            }
        }
        self.stats.halfspace_insertions += hps_buf.len();
    }

    /// The `explore` step: arrange the current leaves' half-spaces within
    /// `cell` and queue the resulting sub-cells for visiting (in order). A
    /// cell no half-space splits is queued as itself (see [`arrange_into`]),
    /// marked `sampled`.
    fn arrange_state(
        &mut self,
        view: &mut SubgraphView<'_>,
        cell: Cell,
        settled: LeafRange,
        depth: u32,
    ) {
        self.account_memory(view, cell.memory_bytes(), depth);
        let start = self.scratch.arena.len() as u32;
        {
            let GsScratch {
                arena, leaf_mark, ..
            } = &mut *self.scratch;
            self.ctx
                .gd
                .leaves_within_into(view.alive_words(), leaf_mark, arena);
        }
        let leaves = LeafRange {
            start,
            len: self.scratch.arena.len() as u32 - start,
        };
        self.compute_halfspaces(leaves, settled);
        let n = {
            let GsScratch {
                arrange,
                hps_buf,
                hs_store,
                sub_cells,
                ..
            } = &mut *self.scratch;
            arrange_into(
                arrange,
                cell,
                hps_buf.iter().map(|&i| &hs_store[i as usize]),
                sub_cells,
            )
        };
        self.stats.partitions_explored += n;
        self.stats.unsplit_arrangements += usize::from(n == 1);
        let GsScratch {
            sub_cells, stack, ..
        } = &mut *self.scratch;
        for (i, sub_cell) in sub_cells.drain(..).enumerate().rev() {
            stack.push(Task::Visit {
                cell: sub_cell,
                leaves,
                depth,
                idx: i as u32,
                sampled: n == 1,
            });
        }
    }

    /// One sub-cell decision (lines 13–20 of Algorithm 1). A `sampled` cell
    /// keeps the sample point already in `sample_buf`; it is the one
    /// [`Cell::sample_point_into`] would compute again, bit for bit.
    fn visit_cell(
        &mut self,
        view: &mut SubgraphView<'_>,
        cell: Cell,
        leaves: LeafRange,
        depth: u32,
        sampled: bool,
    ) {
        let ctx = self.ctx;
        if !sampled && !cell.sample_point_into(&mut self.scratch.sample_buf) {
            self.scratch.arrange.recycle_cell(cell);
            return;
        }
        // Within the sub-partition the relative order of the leaves is fixed,
        // so the minimum at the sample point is the minimum everywhere in the
        // cell. Exact score ties (e.g. identical attribute vectors, which no
        // half-space can separate) are broken by smallest id — the same rule
        // the fixed-weight peeling oracle applies, so both explorations delete
        // the same vertex.
        let u = {
            let GsScratch {
                arena, sample_buf, ..
            } = &*self.scratch;
            let w: &[f64] = sample_buf;
            leaf_slice(arena, leaves)
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    ctx.score(a, w)
                        .total_cmp(&ctx.score(b, w))
                        .then_with(|| a.cmp(&b))
                })
                .expect("a state always has at least one alive leaf")
        };

        // Corollary 1(1): the smallest-score vertex is a query vertex.
        let q: &[u32] = &ctx.local_q;
        if q.contains(&u) {
            self.report_cell(view, cell);
            return;
        }
        // Tentative deletion (lines 15-20) behind a checkpoint.
        let cp = view.checkpoint();
        view.delete_cascade(u, ctx.query.k);
        let mut ok = q.iter().all(|&qv| view.is_alive(qv));
        if ok {
            // The view was connected at `cp` (see the module doc), so the
            // trim may stop once the cascade's boundary is reached.
            view.retain_component_since(q[0], cp);
            ok = q.iter().all(|&qv| view.is_alive(qv));
        }
        if !ok {
            // Corollary 1(2): deleting u destroys the community, so the
            // parent community is the non-contained MAC of this cell.
            view.rollback(cp);
            self.report_cell(view, cell);
            return;
        }
        {
            let GsScratch {
                deletion_groups,
                group_bytes,
                spare_groups,
                stack,
                arena,
                ..
            } = &mut *self.scratch;
            let mut group = spare_groups.pop().unwrap_or_default();
            group.clear();
            group.extend_from_slice(view.log_since(cp));
            *group_bytes += bytes_of(&group);
            deletion_groups.push(group);
            stack.push(Task::Retreat {
                cp,
                arena_mark: arena.len() as u32,
            });
            stack.push(Task::Arrange {
                cell,
                settled: leaves,
                depth: depth + 1,
            });
        }
    }

    /// Reports one finished cell: the current community plus, for top-j mode,
    /// the supersets obtained by backtracking the deletion history. All
    /// output buffers come from (and eventually return to) the scratch pools.
    fn report_cell(&mut self, view: &SubgraphView<'_>, cell: Cell) {
        let ctx = self.ctx;
        let target = (1 + self.scratch.deletion_groups.len()).min(ctx.query.j.max(1));
        let mut res = self
            .scratch
            .spare_results
            .pop()
            .unwrap_or_else(|| CellResult {
                cell: Cell::default(),
                sample_weight: Vec::new(),
                communities: Vec::new(),
            });
        let husk = std::mem::replace(&mut res.cell, cell);
        self.scratch.arrange.recycle_cell(husk);
        res.sample_weight.clear();
        res.sample_weight
            .extend_from_slice(&self.scratch.sample_buf);
        while res.communities.len() > target {
            let c = res.communities.pop().expect("len > target >= 0");
            self.scratch.spare_communities.push(c);
        }
        while res.communities.len() < target {
            let c = self
                .scratch
                .spare_communities
                .pop()
                .unwrap_or_else(|| Community::new(Vec::new()));
            res.communities.push(c);
        }
        {
            let GsScratch {
                alive_buf,
                deletion_groups,
                ..
            } = &mut *self.scratch;
            view.alive_vertices_into(alive_buf);
            ctx.community_from_locals_into(alive_buf, &mut res.communities[0]);
            for (slot, group) in (1..target).zip(deletion_groups.iter().rev()) {
                alive_buf.extend(group.iter().copied());
                ctx.community_from_locals_into(alive_buf, &mut res.communities[slot]);
            }
        }
        self.out_cells.push(res);
        if let Some(paths) = &mut self.out_paths {
            paths.push(self.scratch.cur_path.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlgorithmChoice, MacEngine};
    use crate::network::RoadSocialNetwork;
    use crate::peel::peel_at_weight;
    use crate::policy::ExecutionPolicy;
    use crate::query::MacQuery;
    use rsn_geom::region::PrefRegion;
    use rsn_graph::graph::Graph;
    use rsn_road::network::{Location, RoadNetwork};

    /// The two-K4 network of the peel tests: {0,1,2,3} and {0,1,4,5} share the
    /// edge (0,1); attribute space splits them cleanly.
    fn network() -> RoadSocialNetwork {
        let social = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (0, 4),
                (0, 5),
                (1, 4),
                (1, 5),
                (4, 5),
            ],
        );
        let road = RoadNetwork::from_edges(2, &[(0, 1, 1.0)]);
        let locations = vec![Location::vertex(0); 6];
        let attrs = vec![
            vec![6.0, 6.0],
            vec![6.0, 6.0],
            vec![9.0, 1.0],
            vec![8.0, 2.0],
            vec![1.0, 9.0],
            vec![2.0, 8.0],
        ];
        RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
    }

    /// The global search on a fresh session (cache off, fresh scratch) of a
    /// new engine, with `parallelism` workers.
    fn gs(rsn: &RoadSocialNetwork, query: &MacQuery, parallelism: usize) -> MacSearchResult {
        MacEngine::build(rsn.clone())
            .session()
            .with_policy(ExecutionPolicy::new().with_parallelism(parallelism))
            .execute(&query.clone().with_algorithm(AlgorithmChoice::Global))
            .unwrap()
    }

    #[test]
    fn gs_nc_partitions_region_by_preference() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region);
        let result = gs(&rsn, &query, 1);
        assert!(!result.is_empty());
        // both sides must appear among the distinct non-contained MACs
        let distinct = result.distinct_communities();
        let has_left = distinct.iter().any(|c| c.vertices == vec![0, 1, 2, 3]);
        let has_right = distinct.iter().any(|c| c.vertices == vec![0, 1, 4, 5]);
        assert!(has_left && has_right, "distinct = {distinct:?}");
        assert!(result.stats.kt_core_vertices == 6);
        assert!(result.stats.partitions_explored >= 2);
    }

    #[test]
    fn gs_nc_cells_agree_with_fixed_weight_peeling() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region);
        let result = gs(&rsn, &query, 1);
        let ctx = SearchContext::build(&rsn, &query).unwrap().unwrap();
        for cell in &result.cells {
            let oracle = peel_at_weight(&ctx, &cell.sample_weight);
            let expect = ctx.community_from_locals(&oracle.final_vertices);
            assert_eq!(
                cell.communities[0].vertices, expect.vertices,
                "cell with sample {:?} disagrees with the peeling oracle",
                cell.sample_weight
            );
        }
    }

    #[test]
    fn gs_top_j_returns_nested_communities() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region).with_top_j(2);
        let result = gs(&rsn, &query, 1);
        assert!(!result.is_empty());
        for cell in &result.cells {
            assert!(!cell.communities.is_empty() && cell.communities.len() <= 2);
            for pair in cell.communities.windows(2) {
                assert!(pair[1].contains_all(&pair[0]));
                assert!(pair[1].len() > pair[0].len());
            }
            // every community is a connected k-core containing the query
            for c in &cell.communities {
                assert!(c.contains(0) && c.contains(1));
            }
        }
    }

    #[test]
    fn gs_empty_when_no_kt_core() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0], 5, 10.0, region);
        let result = gs(&rsn, &query, 1);
        assert!(result.is_empty());
        assert_eq!(result.stats.kt_core_vertices, 0);
    }

    #[test]
    fn gs_single_attribute_degenerates_to_single_cell() {
        // d = 1: the preference domain is 0-dimensional, so the answer is a
        // single cell identical to a fixed-weight peel.
        let social = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3)]);
        let road = RoadNetwork::from_edges(1, &[]);
        let locations = vec![Location::vertex(0); 4];
        let attrs = vec![vec![4.0], vec![3.0], vec![2.0], vec![1.0]];
        let rsn = RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
        let region = PrefRegion::from_ranges(&[]).unwrap();
        let query = MacQuery::new(vec![0], 2, 10.0, region);
        let result = gs(&rsn, &query, 1);
        assert_eq!(result.num_cells(), 1);
        // vertices 3 then 2 are peeled away (scores 1 and 2), leaving the
        // triangle {0,1,2}.
        assert_eq!(result.cells[0].communities[0].vertices, vec![0, 1, 2]);
    }

    #[test]
    fn scratch_reuse_across_queries_matches_fresh_scratch() {
        // The same scratch run back-to-back over different queries must give
        // the same answers as a fresh scratch per query (pools fully reset).
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let queries = [
            MacQuery::new(vec![0, 1], 3, 10.0, region.clone()).with_top_j(2),
            MacQuery::new(vec![0], 2, 10.0, region.clone()),
            MacQuery::new(vec![0, 1], 3, 10.0, region).with_top_j(3),
        ];
        let explore = |ctx: &SearchContext<'_>, scratch: &mut GsScratch| {
            let mut unlimited = BudgetTicker::unlimited();
            let run = explore_context(ctx, scratch, 1, &mut unlimited);
            assert!(run.completed);
            run.result
        };
        let mut warm = GsScratch::new();
        for query in &queries {
            let ctx = SearchContext::build(&rsn, query).unwrap().unwrap();
            let expect = explore(&ctx, &mut GsScratch::new());
            // run twice on the warm scratch, recycling in between, to push
            // every pool through at least one reuse cycle
            let first = explore(&ctx, &mut warm);
            assert_results_identical(&expect, &first);
            warm.recycle(first);
            let second = explore(&ctx, &mut warm);
            assert_results_identical(&expect, &second);
            warm.recycle(second);
        }
    }

    /// Serial and parallel runs must produce identical cell sequences — same
    /// order, same sample weights, same communities.
    fn assert_results_identical(a: &MacSearchResult, b: &MacSearchResult) {
        assert_eq!(a.cells.len(), b.cells.len(), "cell count diverged");
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.sample_weight, cb.sample_weight);
            assert_eq!(
                ca.communities
                    .iter()
                    .map(|c| &c.vertices)
                    .collect::<Vec<_>>(),
                cb.communities
                    .iter()
                    .map(|c| &c.vertices)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn parallel_gs_matches_serial_exactly() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        // j = 1 is Problem 2 (non-contained), j = 2 Problem 1 (top-j).
        for j in [1usize, 2] {
            let query = MacQuery::new(vec![0, 1], 3, 10.0, region.clone()).with_top_j(j);
            let serial_result = gs(&rsn, &query, 1);
            for workers in [2usize, 4, 0] {
                let par_result = gs(&rsn, &query, workers);
                assert_results_identical(&serial_result, &par_result);
                assert_eq!(
                    serial_result.stats.partitions_explored,
                    par_result.stats.partitions_explored
                );
            }
        }
    }

    #[test]
    fn parallel_gs_matches_serial_on_randomized_networks() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0x6570);
        for round in 0..6 {
            let n = rng.random_range(12..30usize);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.random_range(0.0..1.0) < 0.35 {
                        edges.push((u, v));
                    }
                }
            }
            let social = Graph::from_edges(n, &edges);
            let road = RoadNetwork::from_edges(1, &[]);
            let locations = vec![Location::vertex(0); n];
            let attrs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.random_range(0.0..10.0)).collect())
                .collect();
            let rsn = RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
            let region = PrefRegion::from_ranges(&[(0.1, 0.6), (0.15, 0.5)]).unwrap();
            let query = MacQuery::new(vec![0], 3, 10.0, region).with_top_j(2);
            let serial = gs(&rsn, &query, 1);
            let parallel = gs(&rsn, &query, 3);
            assert_results_identical(&serial, &parallel);
            let workers = parallel.stats.parallel_workers;
            // Stealing fans even a single top-level cell out, so every
            // round runs threaded on the requested 3 workers.
            assert_eq!(workers, 3, "round {round}: stealing run not threaded");
        }
    }
}
