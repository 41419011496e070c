//! Reference re-implementation of the global search as it looked **before**
//! the undo-log refactor: a BFS worklist whose branches each clone the whole
//! `SubgraphView` and deletion history.
//!
//! Kept as the reference of `tests/global_rollback_equivalence.rs`, which
//! pins the global search against this replica — identical cells, sample
//! weights, and communities on datagen presets. The replica trims with the
//! full-BFS `retain_component_of`, so the pin also covers the search's
//! early-exit trim.
//!
//! The replica is faithful to the old code path including its memory layout:
//! scores read nested `Vec<Vec<f64>>` attribute rows, not the flat matrix.

use rsn_core::SearchContext;
use rsn_geom::cell::Cell;
use rsn_geom::halfspace::HalfSpace;
use rsn_geom::partition::arrange;
use rsn_geom::weights::score_reduced;
use rsn_graph::subgraph::SubgraphView;
use std::collections::{HashMap, HashSet, VecDeque};

/// One reported cell: the sub-partition, its sample weight, and the
/// non-contained MAC's local vertex ids (sorted).
#[derive(Debug, Clone, PartialEq)]
pub struct LegacyCell {
    /// Sub-partition of `R`.
    pub cell: Cell,
    /// Representative reduced weight vector.
    pub sample_weight: Vec<f64>,
    /// Local ids of the non-contained MAC.
    pub community: Vec<u32>,
}

/// What [`legacy_gs_nc`] returns: the reported cells plus the shape of the
/// search that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct LegacyRun {
    /// Reported cells, in the replica's BFS order.
    pub cells: Vec<LegacyCell>,
    /// Arrangements built (one per explored state).
    pub arrangements: usize,
    /// Arrangements that returned a single cell: no half-space split the
    /// state's cell.
    pub unsplit_arrangements: usize,
    /// Deletion groups on the deepest explored state's path.
    pub max_depth: usize,
}

struct State<'g> {
    view: SubgraphView<'g>,
    cell: Cell,
    deletion_groups: Vec<Vec<u32>>,
    settled_leaves: Vec<u32>,
}

/// Runs the clone-per-branch GS-NC on a prepared context.
///
/// With `lp_cells = true` the cell geometry also runs on the dense-LP path
/// (the full pre-refactor configuration); with `false` only the branch
/// management differs from the current `GlobalSearch`, which is what the
/// output-equivalence test isolates.
pub fn legacy_gs_nc(ctx: &SearchContext<'_>, lp_cells: bool) -> LegacyRun {
    let k = ctx.query.k;
    let q = ctx.local_q.clone();
    let attrs: Vec<Vec<f64>> = ctx.attrs.to_rows();
    let score = |v: u32, w: &[f64]| score_reduced(&attrs[v as usize], w);

    let mut hs_cache: HashMap<(u32, u32), HalfSpace> = HashMap::new();
    let mut out: Vec<LegacyCell> = Vec::new();
    let (mut arrangements, mut unsplit_arrangements, mut max_depth) = (0, 0, 0);
    let mut worklist: VecDeque<State<'_>> = VecDeque::new();
    let base_cell = if lp_cells {
        Cell::from_region(&ctx.query.region).disable_vertex_cache()
    } else {
        Cell::from_region(&ctx.query.region)
    };
    worklist.push_back(State {
        view: SubgraphView::full(&ctx.local_graph),
        cell: base_cell,
        deletion_groups: Vec::new(),
        settled_leaves: Vec::new(),
    });

    let mut peak_bytes = 0usize;
    while let Some(state) = worklist.pop_front() {
        // The pre-refactor loop swept the entire worklist on every pop to
        // track peak live memory; replicated here for timing fidelity.
        let live_bytes: usize = worklist
            .iter()
            .chain(std::iter::once(&state))
            .map(|s| s.view.alive_mask().len() * 5 + s.cell.memory_bytes())
            .sum();
        peak_bytes = peak_bytes.max(live_bytes);

        let leaves: Vec<u32> = ctx
            .gd
            .leaves_within(state.view.alive_mask())
            .into_iter()
            .map(|v| v as u32)
            .collect();

        let settled: HashSet<u32> = state.settled_leaves.iter().copied().collect();
        let mut hps: Vec<HalfSpace> = Vec::new();
        for (i, &a) in leaves.iter().enumerate() {
            for &b in leaves.iter().skip(i + 1) {
                if settled.contains(&a) && settled.contains(&b) {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                let hs = hs_cache.entry(key).or_insert_with(|| {
                    HalfSpace::score_at_least(&attrs[key.0 as usize], &attrs[key.1 as usize])
                });
                hps.push(hs.clone());
            }
        }

        let sub_cells = arrange(&state.cell, &hps);
        arrangements += 1;
        unsplit_arrangements += usize::from(sub_cells.len() == 1);
        max_depth = max_depth.max(state.deletion_groups.len());
        for sub_cell in sub_cells {
            let Some(w) = sub_cell.sample_point() else {
                continue;
            };
            let u = leaves
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    score(a, &w)
                        .total_cmp(&score(b, &w))
                        .then_with(|| a.cmp(&b))
                })
                .expect("non-empty leaf set");

            if q.contains(&u) {
                out.push(report(&state, sub_cell, w));
                continue;
            }
            // Tentative deletion on a branch-local copy — the allocation
            // pattern this replica exists to preserve.
            let mut view = state.view.clone();
            let cp = view.checkpoint();
            view.delete_cascade(u, k);
            let mut ok = q.iter().all(|&qv| view.is_alive(qv));
            if ok {
                view.retain_component_of(q[0]);
                ok = q.iter().all(|&qv| view.is_alive(qv));
            }
            if !ok {
                out.push(report(&state, sub_cell, w));
                continue;
            }
            let mut deletion_groups = state.deletion_groups.clone();
            deletion_groups.push(view.log_since(cp).to_vec());
            worklist.push_back(State {
                view,
                cell: sub_cell,
                deletion_groups,
                settled_leaves: leaves.clone(),
            });
        }
    }
    std::hint::black_box(peak_bytes);
    LegacyRun {
        cells: out,
        arrangements,
        unsplit_arrangements,
        max_depth,
    }
}

fn report(state: &State<'_>, cell: Cell, sample_weight: Vec<f64>) -> LegacyCell {
    let mut community = state.view.alive_vertices();
    community.sort_unstable();
    LegacyCell {
        cell,
        sample_weight,
        community,
    }
}
