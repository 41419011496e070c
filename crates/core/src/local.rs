//! Local search: the framework of Algorithms 3–5 (`LS-T` / `LS-NC`).
//!
//! Instead of peeling the entire maximal (k,t)-core, the local search expands
//! candidate communities outwards from the query vertices (`Expand`,
//! Algorithm 4) using the priority functions of Eq. 3 / Eq. 4 — structural
//! gain plus the r-dominance-layer term that pulls in vertices dominating as
//! many others as possible — and then validates every candidate against the
//! r-dominance graph (`Verify`, Algorithm 5 with Corollaries 2–3): a candidate
//! `H` is a non-contained MAC exactly in the sub-region of `R` where the
//! bottom-layer vertices of `G_e` out-score the effective top-layer vertices
//! of `G_c` (with the anchor and bound-vertex refinements). Each reported
//! `(community, cell)` pair is additionally confirmed against the fixed-weight
//! peeling oracle at the cell's sample point, so reported results are always
//! consistent with the global search.
//!
//! A query with `j > 1` is Problem 1 (`LS-T`: each confirmed cell reports
//! its top-j MACs); `j = 1` is Problem 2 (`LS-NC`: the candidate itself).
//! The two agree at `j = 1` because a candidate is only reported where the
//! peeling oracle's final community equals it. Queries run through a
//! [`QuerySession`](crate::session::QuerySession); its
//! [`ExecutionPolicy`](crate::policy::ExecutionPolicy) carries the
//! expansion strategy, the candidate cap, and the verification parallelism.

use crate::context::SearchContext;
use crate::peel::peel_at_weight;
use crate::policy::resolve_workers;
use crate::result::{BudgetedRun, CellResult, MacSearchResult, SearchStats};
use rsn_geom::cell::Cell;
use rsn_geom::halfspace::HalfSpace;
use rsn_geom::partition::{arrange_into, ArrangeScratch};
use rsn_graph::subgraph::SubgraphView;
use rsn_road::budget::BudgetTicker;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Candidate-selection strategy for the `Expand` procedure (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExpandStrategy {
    /// Eq. 3: `f(v) = λ·f2(v) + f3(v)` where `f2` is the degree of `v` towards
    /// the current community (fastest average-degree growth).
    DegreeDriven {
        /// The trade-off factor λ (the paper uses λ = 10).
        lambda: f64,
    },
    /// Eq. 4: `f(v) = ζ·f1(v) + f3(v)` where `f1 ∈ {0, 1}` rewards an
    /// immediate increase of the minimum degree.
    MinDegreeDriven {
        /// The constant ζ (the paper uses ζ = 100).
        zeta: f64,
    },
}

impl Default for ExpandStrategy {
    fn default() -> Self {
        ExpandStrategy::DegreeDriven { lambda: 10.0 }
    }
}

/// Verifies one deduplicated candidate (Algorithm 5) and appends its
/// confirmed `(cell, communities)` pairs to `out_cells`. The unit of work
/// both the serial loop and the parallel workers run per candidate.
fn verify_candidate(
    ctx: &SearchContext<'_>,
    cand: &[u32],
    stats: &mut SearchStats,
    out_cells: &mut Vec<CellResult>,
) {
    let verified = verify(ctx, cand, stats);
    for (cell, sample) in verified {
        let communities = if ctx.query.j > 1 {
            let outcome = peel_at_weight(ctx, &sample);
            outcome
                .top_j(ctx.query.j)
                .into_iter()
                .map(|locals| ctx.community_from_locals(&locals))
                .collect()
        } else {
            vec![ctx.community_from_locals(cand)]
        };
        out_cells.push(CellResult {
            cell,
            sample_weight: sample,
            communities,
        });
    }
}

/// Runs the expand-and-verify framework on a prebuilt [`SearchContext`] —
/// the entry point of [`QuerySession`](crate::session::QuerySession).
/// `elapsed_seconds` covers only this phase; callers overwrite it with
/// their end-to-end timing.
///
/// Expansion (Algorithm 4) is charged to `ticker` as one lump (it is
/// bounded by the core size times the candidate cap) and stays serial —
/// it is cheap and order-defining. Verification (Algorithm 5, including
/// the top-j peels) runs in one of two ways, decided by the ticker:
///
/// * **Limited ticker** — a serial loop that charges each candidate at
///   its boundary, so an exhausted run drops whole candidates: every
///   reported cell stays exact and a partial answer is a prefix of the
///   full one (the same contract the budgeted global search keeps).
/// * **Unlimited ticker** with `parallelism > 1` — the deduplicated
///   candidates fan out over scoped worker threads pulling from an atomic
///   cursor; results are reassembled in candidate order and worker
///   counters folded with [`SearchStats::merge_worker`], so the output is
///   identical to the serial run cell for cell.
pub(crate) fn run_context(
    ctx: &SearchContext<'_>,
    strategy: ExpandStrategy,
    max_candidates: usize,
    parallelism: usize,
    ticker: &mut BudgetTicker,
) -> BudgetedRun {
    let start = Instant::now();
    let mut stats = SearchStats {
        kt_core_vertices: ctx.core_size(),
        kt_core_edges: ctx.core_edges(),
        dominance_tests: ctx.gd.tests_performed(),
        memory_bytes: ctx.gd.memory_bytes(),
        ..SearchStats::default()
    };

    // --- Expand (Algorithm 4), charged as one lump up front ---
    if !ticker.charge(ctx.core_size() as u64) {
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
    let candidates = expand(ctx, strategy, max_candidates);
    stats.candidates_generated = candidates.len();
    let total = candidates.len() as u64;

    // --- Verify (Algorithm 5) ---
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut out_cells: Vec<CellResult> = Vec::new();
    let mut explored = 0u64;
    let mut completed = true;
    // Only an unlimited ticker fans out: a limited one verifies serially
    // so that an exhausted run leaves a prefix of the full answer.
    let workers = if ticker.is_unlimited() && parallelism != 1 {
        let distinct: HashSet<&Vec<u32>> = candidates.iter().collect();
        // One worker per distinct candidate at most.
        resolve_workers(parallelism, distinct.len())
    } else {
        1
    };
    if workers <= 1 {
        for (i, cand) in candidates.into_iter().enumerate() {
            // One candidate's verification is roughly linear in its size;
            // charge it at the boundary so exhaustion drops it whole.
            if !ticker.charge(cand.len() as u64 + 1) {
                completed = false;
                break;
            }
            explored = i as u64 + 1;
            if !seen.insert(cand.clone()) {
                continue;
            }
            verify_candidate(ctx, &cand, &mut stats, &mut out_cells);
        }
    } else {
        // An unlimited ticker cannot exhaust, so the fan-out charges the
        // whole verification up front and never stops early.
        ticker.charge(candidates.iter().map(|c| c.len() as u64 + 1).sum());
        explored = total;
        // Deduplicate up front, keeping first-occurrence order: the
        // serial loop skips repeats in place, so the unique sequence is
        // the work list either way.
        let unique: Vec<Vec<u32>> = candidates
            .into_iter()
            .filter(|cand| seen.insert(cand.clone()))
            .collect();
        stats.parallel_workers = workers;
        let cursor = AtomicUsize::new(0);
        // Each worker yields its (candidate index, cells) batches plus a
        // private stats accumulator to fold after the join.
        type WorkerYield = (Vec<(usize, Vec<CellResult>)>, SearchStats);
        let per_worker: Vec<WorkerYield> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local_stats = SearchStats::default();
                        let mut produced: Vec<(usize, Vec<CellResult>)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(cand) = unique.get(i) else { break };
                            let mut cells = Vec::new();
                            verify_candidate(ctx, cand, &mut local_stats, &mut cells);
                            produced.push((i, cells));
                        }
                        (produced, local_stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("local verification worker panicked"))
                .collect()
        });
        // Reassemble in candidate order: slot i holds candidate i's cells.
        let mut slots: Vec<Option<Vec<CellResult>>> = (0..unique.len()).map(|_| None).collect();
        for (produced, worker_stats) in per_worker {
            // Workers start from zeroed stats, so the fold only adds the
            // verification counters (candidates_generated stays 0 there).
            stats.merge_worker(&worker_stats);
            for (i, cells) in produced {
                slots[i] = Some(cells);
            }
        }
        for slot in slots {
            out_cells.extend(slot.unwrap_or_default());
        }
    }

    stats.elapsed_seconds = start.elapsed().as_secs_f64();
    BudgetedRun {
        result: MacSearchResult {
            cells: out_cells,
            stats,
        },
        completed,
        explored,
        remaining: total - explored,
    }
}

/// Algorithm 4: best-first expansion from `Q` collecting candidate
/// communities (each a connected k-core containing `Q`).
///
/// As suggested by the paper (Algorithm 4, line 1), in addition to the
/// plain expansion starting from `Q` we also run one expansion per
/// neighbour of `Q`, seeding `V_H = Q ∪ {v}`; this diversifies candidates
/// when several disjoint communities surround the query vertices.
fn expand(
    ctx: &SearchContext<'_>,
    strategy: ExpandStrategy,
    max_candidates: usize,
) -> Vec<Vec<u32>> {
    let graph = &ctx.local_graph;
    let mut seeds: Vec<Option<u32>> = vec![None];
    let mut seen_seed: HashSet<u32> = HashSet::new();
    for &qv in &ctx.local_q {
        for &nb in graph.neighbors(qv) {
            if !ctx.local_q.contains(&nb) && seen_seed.insert(nb) {
                seeds.push(Some(nb));
            }
        }
    }
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    for seed in seeds {
        if candidates.len() >= max_candidates {
            break;
        }
        let budget = max_candidates - candidates.len();
        candidates.extend(expand_once(ctx, strategy, seed, budget));
    }
    candidates
}

/// One best-first expansion run, optionally seeded with an extra vertex.
fn expand_once(
    ctx: &SearchContext<'_>,
    strategy: ExpandStrategy,
    extra_seed: Option<u32>,
    budget: usize,
) -> Vec<Vec<u32>> {
    let n = ctx.core_size();
    let k = ctx.query.k;
    let graph = &ctx.local_graph;
    let zeta_layer = ctx.gd.max_layer() as f64 + 1.0;

    let mut in_h = vec![false; n];
    let mut deg_in_h = vec![0u32; n];
    let mut members: Vec<u32> = Vec::new();
    for &qv in ctx.local_q.iter().chain(extra_seed.iter()) {
        if !in_h[qv as usize] {
            in_h[qv as usize] = true;
            members.push(qv);
        }
    }
    // deg_in_h[x] = number of neighbours of x currently inside H, for
    // members (their within-H degree) and frontier vertices alike.
    for &m in &members {
        for &nb in graph.neighbors(m) {
            deg_in_h[nb as usize] += 1;
        }
    }

    let record_if_core = |members: &[u32], deg_in_h: &[u32], cands: &mut Vec<Vec<u32>>| {
        let min_deg = members
            .iter()
            .map(|&m| deg_in_h[m as usize])
            .min()
            .unwrap_or(0);
        if min_deg >= k && !members.is_empty() {
            let mut c: Vec<u32> = members.to_vec();
            c.sort_unstable();
            cands.push(c);
        }
    };
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    record_if_core(&members, &deg_in_h, &mut candidates);

    // Lazy best-first frontier: priorities are recomputed on pop.
    let mut frontier: HashSet<u32> = HashSet::new();
    for &m in &members {
        for &nb in graph.neighbors(m) {
            if !in_h[nb as usize] {
                frontier.insert(nb);
            }
        }
    }

    while candidates.len() < budget && members.len() < n {
        // Pick the frontier vertex with the best priority f(v).
        let best = frontier
            .iter()
            .copied()
            .map(|v| {
                (
                    priority(ctx, strategy, v, &members, &deg_in_h, zeta_layer),
                    v,
                )
            })
            .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let Some((_, v)) = best else { break };
        frontier.remove(&v);
        in_h[v as usize] = true;
        members.push(v);
        for &nb in graph.neighbors(v) {
            deg_in_h[nb as usize] += 1;
            if !in_h[nb as usize] {
                frontier.insert(nb);
            }
        }
        record_if_core(&members, &deg_in_h, &mut candidates);
    }
    candidates
}

/// Priority `f(v)` of a frontier vertex (Eq. 3 / Eq. 4).
fn priority(
    ctx: &SearchContext<'_>,
    strategy: ExpandStrategy,
    v: u32,
    members: &[u32],
    deg_in_h: &[u32],
    zeta_layer: f64,
) -> f64 {
    let f3 = zeta_layer - ctx.gd.layer(v as usize) as f64;
    match strategy {
        ExpandStrategy::DegreeDriven { lambda } => {
            let f2 = deg_in_h[v as usize] as f64;
            lambda * f2 + f3
        }
        ExpandStrategy::MinDegreeDriven { zeta } => {
            let graph = &ctx.local_graph;
            let current_min = members
                .iter()
                .map(|&m| deg_in_h[m as usize])
                .min()
                .unwrap_or(0);
            let new_min = members
                .iter()
                .map(|&m| deg_in_h[m as usize] + u32::from(graph.has_edge(m, v)))
                .chain(std::iter::once(deg_in_h[v as usize]))
                .min()
                .unwrap_or(0);
            let f1 = if new_min > current_min { 1.0 } else { 0.0 };
            zeta * f1 + f3
        }
    }
}

/// Algorithm 5: verification of one candidate against `G_d`.
///
/// Returns the sub-partitions of `R` (with sample weights) where the
/// candidate is the non-contained MAC.
fn verify(ctx: &SearchContext<'_>, cand: &[u32], stats: &mut SearchStats) -> Vec<(Cell, Vec<f64>)> {
    let n = ctx.core_size();
    let k = ctx.query.k;
    let q = &ctx.local_q;

    let mut in_h = vec![false; n];
    for &v in cand {
        in_h[v as usize] = true;
    }
    let out_mask: Vec<bool> = (0..n).map(|v| !in_h[v]).collect();

    // If the candidate is the entire (k,t)-core there is nothing to beat:
    // it is the non-contained MAC wherever no proper sub-community wins,
    // which the sample-point oracle below settles directly.
    // --- Corollary 2: structural feasibility of removing everything outside H ---
    // U = vertices outside H that r-dominate some member of H; they can
    // only leave through structural cascades.
    let mut dominates_member = vec![false; n];
    for &h in cand {
        for u in ctx.gd.dominators(h as usize).iter() {
            dominates_member[u] = true;
        }
    }
    let free: Vec<u32> = (0..n as u32)
        .filter(|&v| out_mask[v as usize] && !dominates_member[v as usize])
        .collect();
    // Simulate deleting the freely deletable vertices; everything outside H
    // must disappear through this cascade, otherwise H is unreachable.
    let mut sim = SubgraphView::full(&ctx.local_graph);
    for &v in &free {
        if sim.is_alive(v) {
            sim.delete_cascade(v, k);
        }
    }
    let mut structurally_bound: Vec<bool> = vec![false; n];
    for v in 0..n as u32 {
        if out_mask[v as usize] && dominates_member[v as usize] && !sim.is_alive(v) {
            structurally_bound[v as usize] = true;
        }
    }
    if (0..n).any(|v| out_mask[v] && dominates_member[v] && sim.is_alive(v as u32)) {
        return Vec::new();
    }

    // --- Competitors (Corollary 3) ---
    let lb_ge: Vec<usize> = ctx.gd.leaves_within(&in_h);
    let mut gc_mask = out_mask.clone();
    for v in 0..n {
        if structurally_bound[v] {
            gc_mask[v] = false;
        }
    }
    let lt_gc: Vec<usize> = ctx.gd.top_within(&gc_mask);

    // Anchors (Lemma 8): non-query leaf vertices of Ge whose removal keeps
    // a connected k-core containing Q inside H. One view probed behind
    // checkpoints — no per-anchor clone.
    let mut h_view = SubgraphView::from_vertices(&ctx.local_graph, cand);
    let mut anchors: Vec<usize> = Vec::new();
    for &v in &lb_ge {
        if q.contains(&(v as u32)) {
            continue;
        }
        let cp = h_view.checkpoint();
        h_view.delete_cascade(v as u32, k);
        let ok = q.iter().all(|&qv| h_view.is_alive(qv)) && h_view.has_connected_k_core_with(k, q);
        h_view.rollback(cp);
        if ok {
            anchors.push(v);
        }
    }

    // Constraint half-spaces: every bottom-layer member of Ge must beat
    // every effective top-layer vertex of Gc, and every anchor must beat
    // the other leaves of Ge.
    let mut halfspaces: Vec<HalfSpace> = Vec::new();
    for &x in &lb_ge {
        for &y in &lt_gc {
            halfspaces.push(HalfSpace::score_at_least(&ctx.attrs[x], &ctx.attrs[y]));
        }
    }
    for &a in &anchors {
        for &x in &lb_ge {
            if x != a {
                halfspaces.push(HalfSpace::score_at_least(&ctx.attrs[a], &ctx.attrs[x]));
            }
        }
    }
    stats.halfspaces_computed += halfspaces.len();

    // Arrangement of the competitor half-spaces inside R, keeping the
    // cells where every constraint holds.
    let mut scratch = ArrangeScratch::new();
    let mut leaves = Vec::new();
    let base = Cell::from_region(&ctx.query.region);
    arrange_into(&mut scratch, base, &halfspaces, &mut leaves);
    stats.halfspace_insertions += halfspaces.len();
    stats.memory_bytes = stats
        .memory_bytes
        .max(ctx.gd.memory_bytes() + scratch.tree_bytes(&leaves));

    let mut results = Vec::new();
    stats.partitions_explored += leaves.len();
    for cell in leaves {
        let Some(sample) = cell.sample_point() else {
            continue;
        };
        // Within a leaf no constraint half-space straddles, so checking the
        // sample point checks the whole cell.
        if !halfspaces.iter().all(|hs| hs.contains(&sample)) {
            continue;
        }
        // Final confirmation against the fixed-weight peeling oracle.
        let oracle = peel_at_weight(ctx, &sample);
        if oracle.final_vertices == cand {
            results.push((cell, sample));
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlgorithmChoice, MacEngine};
    use crate::network::RoadSocialNetwork;
    use crate::policy::ExecutionPolicy;
    use crate::query::MacQuery;
    use crate::result::MacSearchResult;
    use rsn_geom::region::PrefRegion;
    use rsn_graph::graph::Graph;
    use rsn_road::network::{Location, RoadNetwork};

    /// Same two-K4 network used by the global-search tests.
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

    /// Runs `query` with `algorithm` on a fresh session (cache off, fresh
    /// scratch) of a new engine under `policy`.
    fn run(
        rsn: &RoadSocialNetwork,
        query: &MacQuery,
        algorithm: AlgorithmChoice,
        policy: ExecutionPolicy,
    ) -> MacSearchResult {
        MacEngine::build_with_policy(rsn.clone(), policy)
            .session()
            .execute(&query.clone().with_algorithm(algorithm))
            .unwrap()
    }

    fn ls(rsn: &RoadSocialNetwork, query: &MacQuery) -> MacSearchResult {
        run(rsn, query, AlgorithmChoice::Local, ExecutionPolicy::new())
    }

    #[test]
    fn ls_nc_results_are_valid_and_subset_of_global() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region);

        let local = ls(&rsn, &query);
        let global = run(
            &rsn,
            &query,
            AlgorithmChoice::Global,
            ExecutionPolicy::new(),
        );

        assert!(!local.is_empty(), "local search should find communities");
        let global_distinct: Vec<Vec<u32>> = global
            .distinct_communities()
            .iter()
            .map(|c| c.vertices.clone())
            .collect();
        for c in local.distinct_communities() {
            assert!(
                global_distinct.contains(&c.vertices),
                "local community {:?} not found by global search",
                c.vertices
            );
        }
        assert!(local.stats.candidates_generated > 0);
    }

    #[test]
    fn ls_finds_both_preference_sides() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region);
        let policy = ExecutionPolicy::new().with_max_candidates(16);
        let result = run(&rsn, &query, AlgorithmChoice::Local, policy);
        let distinct: Vec<Vec<u32>> = result
            .distinct_communities()
            .iter()
            .map(|c| c.vertices.clone())
            .collect();
        assert!(distinct.contains(&vec![0, 1, 2, 3]));
        assert!(distinct.contains(&vec![0, 1, 4, 5]));
    }

    #[test]
    fn ls_top_j_matches_peeling_oracle() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region).with_top_j(2);
        let result = ls(&rsn, &query);
        assert!(!result.is_empty());
        for cell in &result.cells {
            assert!(cell.communities.len() <= 2);
            for pair in cell.communities.windows(2) {
                assert!(pair[1].contains_all(&pair[0]));
            }
        }
    }

    #[test]
    fn ls_both_strategies_work() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region);
        for strategy in [
            ExpandStrategy::DegreeDriven { lambda: 10.0 },
            ExpandStrategy::MinDegreeDriven { zeta: 100.0 },
        ] {
            let policy = ExecutionPolicy::new().with_expand_strategy(strategy);
            let result = run(&rsn, &query, AlgorithmChoice::Local, policy);
            assert!(!result.is_empty(), "strategy {strategy:?} found nothing");
        }
    }

    #[test]
    fn parallel_verification_matches_serial_exactly() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        // j = 1 is Problem 2 (LS-NC), j = 2 Problem 1 (LS-T).
        for j in [1usize, 2] {
            let query = MacQuery::new(vec![0, 1], 3, 10.0, region.clone()).with_top_j(j);
            let serial_policy = ExecutionPolicy::new().with_max_candidates(16);
            let serial = run(&rsn, &query, AlgorithmChoice::Local, serial_policy);
            let policy = ExecutionPolicy::new()
                .with_parallelism(3)
                .with_max_candidates(16);
            let parallel = run(&rsn, &query, AlgorithmChoice::Local, policy);
            assert_eq!(serial.cells.len(), parallel.cells.len());
            for (a, b) in serial.cells.iter().zip(&parallel.cells) {
                assert_eq!(a.sample_weight, b.sample_weight);
                assert_eq!(
                    a.communities
                        .iter()
                        .map(|c| &c.vertices)
                        .collect::<Vec<_>>(),
                    b.communities
                        .iter()
                        .map(|c| &c.vertices)
                        .collect::<Vec<_>>(),
                );
            }
            assert_eq!(
                serial.stats.halfspaces_computed,
                parallel.stats.halfspaces_computed
            );
            assert!(parallel.stats.parallel_workers > 1);
        }
    }

    #[test]
    fn ls_empty_when_no_kt_core() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0], 5, 10.0, region);
        let result = ls(&rsn, &query);
        assert!(result.is_empty());
    }
}
