//! Cross-PR performance trajectory recorder.
//!
//! Runs the MAC search on a fixed **continental-scale grid preset** (40k road
//! vertices, multiway G-tree with leaf capacity 128) and writes
//! `BENCH_PR8.json` (in the current directory), so later PRs can diff their
//! wall-clock against this PR's numbers instead of guessing. The PR-8 record
//! measures what this PR's index rebuild buys: the multiway (fanout-4/8)
//! partitioned G-tree with contracted border graphs brings the 40k-vertex
//! build from minutes to seconds, which in turn resets the economics of the
//! PR-5 dynamic-traffic scenarios (incremental `apply_updates` vs full
//! rebuild).
//!
//! * **Identity gate** — before anything is timed, engines indexed with
//!   fanout-4 and fanout-8 multiway trees are asserted query-identical to an
//!   engine on the binary-bisection reference tree (fresh build AND after an
//!   update batch applied to all three). A faster index that changes answers
//!   is a bug, not a speedup.
//! * **Build budget gate** — the 40k grid G-tree build must finish inside
//!   [`BUILD_BUDGET_SECONDS`] (it takes ~4s here; the pre-PR binary builder
//!   took ~315s, so the budget cleanly separates regressions from noise).
//! * **Update scenarios** — the PR-5 schedule generator replayed verbatim on
//!   the grid preset: user churn, regional traffic, global traffic. After
//!   every batch the updated engine is asserted query-identical to an engine
//!   rebuilt from scratch on shadow post-batch state, then the schedule is
//!   replayed under the clock both ways. Gates are **honest**: user churn
//!   must win by ≥10× (it wins by far more — the G-tree is untouched), but a
//!   24-edge traffic batch truly changes ~98% of the root border-matrix
//!   *rows* (shortest paths reroute globally), so exact row-complete
//!   maintenance is asserted to win by ≥1.5×, with the measured 2–3× recorded
//!   as data rather than rounded up to a marketing number.
//!
//! Since PR 10 the recorder also writes `BENCH_PR10.json`: the parallel
//! execution stage behind the `ExecutionPolicy` redesign. Every parallel
//! configuration (work-stealing sessions at several worker counts, the
//! multi-worker batch) is asserted cell-identical to serial before anything
//! is timed, then serial vs all-cores serving throughput is measured under
//! an honest hardware-aware gate: >= 1.5x on >= 4 cores, otherwise a
//! single-core floor gated at <= 5% overhead (a 1-core record is a floor,
//! not a scaling measurement).
//!
//! Usage: `cargo run --release -p rsn-bench --bin perf_trajectory [reps]`
//! (`reps` overrides the per-measurement repetitions, default 2; the best of
//! the repetitions is recorded). `--smoke` runs the multiway-vs-binary
//! identity gate at reduced scale plus the full 40k grid-build budget gate
//! and the PR-10 parallel-vs-serial identity gate (timings recorded, not
//! gated), and writes `BENCH_SMOKE.json` + `BENCH_PARALLEL_SMOKE.json`,
//! which CI uploads as workflow artifacts on every run. The smoke run never
//! touches the committed full-scale `BENCH_PR10.json`.

use rsn_core::{
    AlgorithmChoice, ExecutionPolicy, MacEngine, MacQuery, MacSearchResult, NetworkDelta,
    RoadSocialNetwork,
};
use rsn_datagen::attrs::{generate_attrs, AttrDistribution};
use rsn_datagen::locations::{assign_locations, LocationConfig};
use rsn_datagen::road::{generate_road, RoadConfig};
use rsn_datagen::social::{generate_social, PlantedGroup, SocialConfig};
use rsn_geom::region::PrefRegion;
use rsn_geom::weights::WeightVector;
use rsn_road::network::{Location, RoadNetwork};
use std::time::Instant;

const OUTPUT: &str = "BENCH_PR8.json";
const SMOKE_OUTPUT: &str = "BENCH_SMOKE.json";
/// The PR-10 parallel-execution record (see [`write_pr10_record`]).
const PR10_OUTPUT: &str = "BENCH_PR10.json";
/// The reduced-scale parallel record of a `--smoke` run.
const PARALLEL_SMOKE_OUTPUT: &str = "BENCH_PARALLEL_SMOKE.json";
/// On >= 4 cores the all-cores policy must beat serial serving by this much.
const MIN_PARALLEL_SPEEDUP: f64 = 1.5;
/// On fewer cores parallelism resolves to one worker; the policy machinery
/// is gated to cost at most this fraction over the plain serial path.
const MAX_SINGLE_CORE_OVERHEAD: f64 = 0.05;
/// Continental grid preset: road vertices / social users / G-tree leaf cap.
const GRID_ROAD_VERTICES: usize = 40_000;
const GRID_USERS: usize = 2_000;
const GRID_LEAF_CAPACITY: usize = 128;
/// Wall-clock ceiling on the 40k grid G-tree build (typical: ~4s single
/// core; the pre-PR binary-bisection builder took ~315s on the same box).
const BUILD_BUDGET_SECONDS: f64 = 30.0;
/// Queries per serving workload.
const WORKLOAD_QUERIES: usize = 8;
/// Update batches per scenario (each = edge reweights + user moves).
const UPDATE_BATCHES: usize = 3;
/// Passes over the workload for the serving-throughput measurement.
const SERVING_PASSES: usize = 5;
/// User churn leaves the G-tree untouched: incremental must win big.
const MIN_USER_CHURN_SPEEDUP: f64 = 10.0;
/// Traffic reweights dirty almost every root matrix row (shortest paths
/// reroute network-wide), so exact maintenance wins by low single digits.
const MIN_TRAFFIC_SPEEDUP: f64 = 1.5;

/// One dynamic-traffic batch composition (PR-5 schedule, replayed verbatim).
#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    /// Road-segment reweights per batch.
    edges_per_batch: usize,
    /// User moves per batch.
    users_per_batch: usize,
    /// `Some(frac)`: all reweights land in one contiguous window covering
    /// `frac` of the canonical edge order (vertex ids are spatially coherent,
    /// so this models a congested metro area); `None`: network-wide traffic.
    edge_window: Option<f64>,
    /// The acceptance floor on incremental-vs-rebuild for this mix.
    min_speedup: f64,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "user-churn",
        edges_per_batch: 0,
        users_per_batch: 48,
        edge_window: None,
        min_speedup: MIN_USER_CHURN_SPEEDUP,
    },
    Scenario {
        name: "regional-traffic",
        edges_per_batch: 24,
        users_per_batch: 12,
        edge_window: Some(0.04),
        min_speedup: MIN_TRAFFIC_SPEEDUP,
    },
    Scenario {
        name: "global-traffic",
        edges_per_batch: 24,
        users_per_batch: 12,
        edge_window: None,
        min_speedup: MIN_TRAFFIC_SPEEDUP,
    },
];

struct ScenarioRow {
    scenario: &'static str,
    batches: usize,
    edge_updates_total: usize,
    user_moves_total: usize,
    min_speedup: f64,
    /// Summed apply_updates wall-clock over the whole schedule (best rep).
    incremental_total_s: f64,
    /// Summed index+engine rebuild wall-clock over the schedule (best rep).
    rebuild_total_s: f64,
    /// Mean fraction of G-tree nodes recomputed per batch.
    dirty_fraction_mean: f64,
    /// Serving throughput through one session after the final epoch.
    serving_qps_after_churn: f64,
    final_epoch: u64,
}

impl ScenarioRow {
    fn incremental_mean_batch_s(&self) -> f64 {
        self.incremental_total_s / self.batches.max(1) as f64
    }
    fn rebuild_mean_batch_s(&self) -> f64 {
        self.rebuild_total_s / self.batches.max(1) as f64
    }
    fn speedup(&self) -> f64 {
        self.rebuild_total_s / self.incremental_total_s.max(1e-12)
    }
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// A datagen road-social network on a grid road of `n_road` vertices. The
/// same constructor serves the continental preset and the reduced-scale
/// identity gate; only the sizes differ.
fn grid_network(n_road: usize, n_users: usize, seed: u64) -> RoadSocialNetwork {
    let road = generate_road(&RoadConfig::with_size(n_road, seed));
    let social = generate_social(&SocialConfig {
        n: n_users,
        attach_m: 3,
        planted: vec![PlantedGroup {
            size: 18,
            degree: 6,
        }],
        seed,
    });
    let attrs = generate_attrs(n_users, 3, AttrDistribution::Independent, 10.0, seed);
    let locations = assign_locations(
        &road,
        n_users,
        &social.groups,
        &LocationConfig {
            clusters: 8,
            radius: 5,
            seed,
        },
    );
    RoadSocialNetwork::new(social.graph, road, locations, attrs)
        .expect("datagen output is consistent")
}

/// A serving workload scaled to the network: 1–2 seed users, k = 4, t as a
/// multiple of the mean edge weight (the grid generator's weights are
/// seed-dependent, so absolute distances would not transfer), narrow
/// paper-style preference region. Exact global search so reference engines
/// are well-defined.
fn build_workload(rsn: &RoadSocialNetwork, queries: usize) -> Vec<MacQuery> {
    let center = WeightVector::uniform(3).expect("d = 3");
    let region = PrefRegion::around(&center, 0.05).expect("valid region");
    let m = rsn.road().num_edges().max(1);
    let avg_w: f64 = rsn.road().edges().map(|(_, _, w)| w).sum::<f64>() / m as f64;
    let n_users = rsn.num_users() as u32;
    (0..queries)
        .map(|i| {
            let q_len = 1 + i % 2;
            let q: Vec<u32> = (0..q_len)
                .map(|j| ((i * 7 + j * 13 + 3) as u32 * 31 + 5) % n_users)
                .collect();
            let t = avg_w * [8.0, 12.0, 16.0][(i / 2) % 3];
            MacQuery::new(q, 4, t, region.clone()).with_algorithm(AlgorithmChoice::Global)
        })
        .collect()
}

/// The deterministic dynamic-traffic schedule (PR-5 generator, verbatim):
/// per batch, a set of edge reweights (multiplier cycle over
/// deterministically picked segments, clamped so no resident on-edge user is
/// stranded past its edge's new length) interleaved with user moves. Returns
/// the deltas paired with a snapshot of the shadow `(edges, locations)`
/// state after each batch — the single source of truth the from-scratch
/// reference engines are built from.
#[allow(clippy::type_complexity)]
fn build_update_schedule(
    rsn: &RoadSocialNetwork,
    edges: &mut [(u32, u32, f64)],
    locations: &mut [Location],
    batches: usize,
    scenario: Scenario,
) -> (
    Vec<NetworkDelta>,
    Vec<(Vec<(u32, u32, f64)>, Vec<Location>)>,
) {
    const MULTIPLIERS: [f64; 5] = [0.6, 0.85, 1.2, 1.6, 2.3];
    let n_users = locations.len();
    let n_road = rsn.road().num_vertices() as u32;
    let m = edges.len();
    // The canonical edge order is sorted by (u, v) and vertex ids are
    // row-major, so a contiguous index window is a spatial region.
    let (window_start, window_len) = match scenario.edge_window {
        Some(frac) => {
            let len = ((m as f64 * frac).ceil() as usize).clamp(1, m);
            (m / 3, len)
        }
        None => (0, m),
    };
    let mut schedule = Vec::with_capacity(batches);
    let mut post_states = Vec::with_capacity(batches);
    for b in 0..batches {
        let mut delta = NetworkDelta::new();
        for i in 0..scenario.edges_per_batch.min(window_len) {
            let idx = (window_start + (b * 9973 + i * 101 + 7) % window_len) % m;
            let (u, v, w) = edges[idx];
            let min_allowed = locations
                .iter()
                .filter_map(|loc| match *loc {
                    Location::OnEdge {
                        u: lu,
                        v: lv,
                        offset,
                    } if (lu, lv) == (u, v) => Some(offset),
                    _ => None,
                })
                .fold(0.0f64, f64::max);
            let w_new = (w * MULTIPLIERS[(b + i) % MULTIPLIERS.len()]).max(min_allowed);
            edges[idx].2 = w_new;
            delta = delta.reweight_edge(u, v, w_new);
        }
        for i in 0..scenario.users_per_batch.min(n_users) {
            let user = ((b * 677 + i * 397 + 11) % n_users) as u32;
            let loc = if i % 3 == 0 {
                let (u, v, w) = edges[(b * 131 + i * 29) % m];
                Location::on_edge(u, v, 0.5 * w, w)
            } else {
                Location::Vertex(((b * 283 + i * 173) as u32 * 7 + 1) % n_road)
            };
            locations[user as usize] = loc;
            delta = delta.move_user(user, loc);
        }
        schedule.push(delta);
        post_states.push((edges.to_vec(), locations.to_vec()));
    }
    (schedule, post_states)
}

fn assert_results_identical(label: &str, a: &MacSearchResult, b: &MacSearchResult) {
    assert_eq!(a.cells.len(), b.cells.len(), "{label}: cell count diverged");
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.sample_weight, cb.sample_weight, "{label}: sample weight");
        assert_eq!(
            ca.communities
                .iter()
                .map(|c| &c.vertices)
                .collect::<Vec<_>>(),
            cb.communities
                .iter()
                .map(|c| &c.vertices)
                .collect::<Vec<_>>(),
            "{label}: communities"
        );
    }
}

/// The multiway-vs-binary identity gate: engines indexed with fanout-4 and
/// fanout-8 multiway trees must answer every workload query identically to
/// the binary-bisection reference — on the fresh build and again after an
/// update batch hits all three engines. Runs at reduced scale (the property
/// is structural, not scale-dependent) and is a hard gate: the recorder
/// panics before a single timing row is produced if any answer diverges.
fn run_identity_gate(road_vertices: usize, users: usize) -> (usize, usize) {
    let rsn = grid_network(road_vertices, users, 13);
    let workload = build_workload(&rsn, WORKLOAD_QUERIES);
    let binary = MacEngine::build_uncalibrated(rsn.clone().with_gtree_index_params(16, 2));
    let multiway: Vec<(usize, MacEngine)> = [4usize, 8]
        .into_iter()
        .map(|fanout| {
            (
                fanout,
                MacEngine::build_uncalibrated(rsn.clone().with_gtree_index_params(16, fanout)),
            )
        })
        .collect();

    let mut checked = 0usize;
    let mut compare_all = |stage: &str| {
        let mut reference_session = binary.session();
        for (fanout, engine) in &multiway {
            let mut session = engine.session();
            for (qi, query) in workload.iter().enumerate() {
                let expected = reference_session
                    .execute(query)
                    .expect("binary reference serves");
                let got = session.execute(query).expect("multiway engine serves");
                assert_results_identical(
                    &format!("identity gate ({stage}), fanout {fanout}, query {qi}"),
                    &expected,
                    &got,
                );
                checked += 1;
            }
        }
    };
    compare_all("fresh build");

    // One mixed batch through every engine: the incremental path must keep
    // the trees equivalent, not just the builders.
    let mut edges: Vec<(u32, u32, f64)> = rsn.road().edges().collect();
    let mut locations: Vec<Location> = rsn.locations().to_vec();
    let (schedule, _) = build_update_schedule(
        &rsn,
        &mut edges,
        &mut locations,
        1,
        Scenario {
            name: "identity",
            edges_per_batch: 12,
            users_per_batch: 8,
            edge_window: None,
            min_speedup: 1.0,
        },
    );
    for delta in &schedule {
        binary.apply_updates(delta).expect("binary absorbs delta");
        for (_, engine) in &multiway {
            engine.apply_updates(delta).expect("multiway absorbs delta");
        }
    }
    compare_all("after update batch");
    (multiway.len(), checked)
}

/// One PR-5 scenario on the prepared continental engine: correctness gate
/// (untimed) against per-batch scratch rebuilds, then the schedule replayed
/// under the clock both ways.
fn measure_scenario(
    indexed: &RoadSocialNetwork,
    workload: &[MacQuery],
    scenario: Scenario,
    reps: usize,
) -> ScenarioRow {
    // Shadow state the reference engines rebuild from.
    let mut edges: Vec<(u32, u32, f64)> = indexed.road().edges().collect();
    let mut locations: Vec<Location> = indexed.locations().to_vec();
    let (schedule, post_states) = build_update_schedule(
        indexed,
        &mut edges,
        &mut locations,
        UPDATE_BATCHES,
        scenario,
    );
    let rebuild_rsn = |state: &(Vec<(u32, u32, f64)>, Vec<Location>)| -> RoadSocialNetwork {
        RoadSocialNetwork::new(
            indexed.social().clone(),
            RoadNetwork::from_edges(indexed.road().num_vertices(), &state.0),
            state.1.clone(),
            indexed.all_attributes().to_vec(),
        )
        .expect("shadow state stays consistent")
    };

    // ---- Correctness gate (untimed): after every batch, the incrementally
    // updated engine must answer the whole workload identically to an engine
    // rebuilt from scratch on the shadow post-batch state.
    let engine = MacEngine::build(indexed.clone());
    let mut session = engine.session();
    let mut dirty_fraction_sum = 0.0;
    for (bi, delta) in schedule.iter().enumerate() {
        let stats = engine
            .apply_updates(delta)
            .expect("schedule deltas are valid");
        assert_eq!(stats.epoch, bi as u64 + 1);
        if let Some(g) = stats.gtree {
            dirty_fraction_sum += g.dirty_fraction();
        }
        let reference = MacEngine::build_uncalibrated(
            rebuild_rsn(&post_states[bi]).with_gtree_index_capacity(GRID_LEAF_CAPACITY),
        );
        let mut reference_session = reference.session();
        for (qi, query) in workload.iter().enumerate() {
            let updated = session.execute(query).expect("updated engine serves");
            let rebuilt = reference_session
                .execute(query)
                .expect("rebuilt engine serves");
            assert_results_identical(
                &format!("{} batch {bi}, query {qi}", scenario.name),
                &updated,
                &rebuilt,
            );
        }
    }
    let final_epoch = engine.epoch().id();

    // ---- Incremental timing: replay the same schedule on fresh engines
    // (rebuilt untimed per rep so every rep starts from the base epoch),
    // clocking only the apply_updates calls.
    let mut incremental_total_s = f64::INFINITY;
    for _ in 0..reps {
        let replay = MacEngine::build(indexed.clone());
        let mut total = 0.0;
        for delta in &schedule {
            let start = Instant::now();
            replay
                .apply_updates(delta)
                .expect("replay deltas are valid");
            total += start.elapsed().as_secs_f64();
        }
        incremental_total_s = incremental_total_s.min(total);
    }

    // ---- Full-rebuild timing: what absorbing each batch costs without the
    // update subsystem — rebuild the index and re-prepare the engine on the
    // post-batch network (network assembly excluded from the clock; the
    // serving system would have it either way).
    let mut rebuild_total_s = f64::INFINITY;
    for _ in 0..reps {
        let mut total = 0.0;
        for state in &post_states {
            let plain = rebuild_rsn(state);
            let start = Instant::now();
            let rebuilt = MacEngine::build(plain.with_gtree_index_capacity(GRID_LEAF_CAPACITY));
            total += start.elapsed().as_secs_f64();
            std::hint::black_box(rebuilt);
        }
        rebuild_total_s = rebuild_total_s.min(total);
    }

    // ---- Serving throughput after the final epoch (context row).
    let (serving_s, _) = best_of(reps, || {
        for _ in 0..SERVING_PASSES {
            for query in workload {
                session.execute(query).expect("post-churn serving works");
            }
        }
    });
    let serving_qps_after_churn = (SERVING_PASSES * workload.len()) as f64 / serving_s.max(1e-12);

    ScenarioRow {
        scenario: scenario.name,
        batches: schedule.len(),
        edge_updates_total: schedule.iter().map(|d| d.edge_updates.len()).sum(),
        user_moves_total: schedule.iter().map(|d| d.user_moves.len()).sum(),
        min_speedup: scenario.min_speedup,
        incremental_total_s,
        rebuild_total_s,
        dirty_fraction_mean: dirty_fraction_sum / schedule.len().max(1) as f64,
        serving_qps_after_churn,
        final_epoch,
    }
}

fn json_row(r: &ScenarioRow) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"scenario\": \"{}\",\n",
            "      \"update_batches\": {},\n",
            "      \"edge_reweights_total\": {},\n",
            "      \"user_moves_total\": {},\n",
            "      \"incremental_total_seconds\": {:.6},\n",
            "      \"incremental_mean_batch_seconds\": {:.6},\n",
            "      \"full_rebuild_total_seconds\": {:.6},\n",
            "      \"full_rebuild_mean_batch_seconds\": {:.6},\n",
            "      \"incremental_speedup\": {:.2},\n",
            "      \"min_speedup_gate\": {:.1},\n",
            "      \"gate_passed\": {},\n",
            "      \"gtree_dirty_fraction_mean\": {:.4},\n",
            "      \"serving_qps_after_churn\": {:.1},\n",
            "      \"final_epoch\": {}\n",
            "    }}"
        ),
        r.scenario,
        r.batches,
        r.edge_updates_total,
        r.user_moves_total,
        r.incremental_total_s,
        r.incremental_mean_batch_s(),
        r.rebuild_total_s,
        r.rebuild_mean_batch_s(),
        r.speedup(),
        r.min_speedup,
        r.speedup() >= r.min_speedup,
        r.dirty_fraction_mean,
        r.serving_qps_after_churn,
        r.final_epoch,
    )
}

fn print_row(row: &ScenarioRow) {
    eprintln!(
        "  [{}] {} batches ({} reweights + {} moves) | incremental {:.4}s total ({:.1} ms/batch, {:.0}% of tree dirty) vs full rebuild {:.3}s total ({:.1} ms/batch) -> {:.1}x (gate >= {:.1}x) | serving after churn {:.1} q/s (epoch {})",
        row.scenario,
        row.batches,
        row.edge_updates_total,
        row.user_moves_total,
        row.incremental_total_s,
        row.incremental_mean_batch_s() * 1e3,
        row.dirty_fraction_mean * 100.0,
        row.rebuild_total_s,
        row.rebuild_mean_batch_s() * 1e3,
        row.speedup(),
        row.min_speedup,
        row.serving_qps_after_churn,
        row.final_epoch,
    );
}

#[allow(clippy::too_many_arguments)]
fn write_record(
    path: &str,
    description: &str,
    reps: usize,
    gtree_build_s: f64,
    engine_build_s: f64,
    identity_checks: usize,
    grid_vertices: usize,
    grid_users: usize,
    rows: &[ScenarioRow],
) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let body: Vec<String> = rows.iter().map(json_row).collect();
    let scenarios = if body.is_empty() {
        String::new()
    } else {
        format!("\n{}\n  ", body.join(",\n"))
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"pr\": 8,\n",
            "  \"description\": \"{}\",\n",
            "  \"reps\": {},\n",
            "  \"available_cores\": {},\n",
            "  \"grid_road_vertices\": {},\n",
            "  \"grid_users\": {},\n",
            "  \"gtree_leaf_capacity\": {},\n",
            "  \"gtree_build_seconds\": {:.6},\n",
            "  \"gtree_build_budget_seconds\": {:.1},\n",
            "  \"build_within_budget\": {},\n",
            "  \"engine_build_seconds\": {:.6},\n",
            "  \"multiway_vs_binary_identity_checks\": {},\n",
            "  \"scenarios\": [{}]\n",
            "}}\n"
        ),
        description,
        reps,
        cores,
        grid_vertices,
        grid_users,
        GRID_LEAF_CAPACITY,
        gtree_build_s,
        BUILD_BUDGET_SECONDS,
        gtree_build_s <= BUILD_BUDGET_SECONDS,
        engine_build_s,
        identity_checks,
        scenarios,
    );
    std::fs::write(path, &json).expect("write bench record");
    println!("{json}");
    eprintln!("wrote {path}");
}

/// Parallel-vs-serial identity gate (PR 10): every parallel configuration —
/// work-stealing sessions at several worker counts and the multi-worker
/// batch — must answer the whole workload cell-identically to the serial
/// path. Hard gate: panics
/// before any PR-10 timing row is produced if one answer diverges. Returns
/// the number of result comparisons performed.
fn run_parallel_identity_gate(engine: &MacEngine, workload: &[MacQuery]) -> usize {
    let mut serial = engine
        .session()
        .with_policy(engine.policy().clone().with_parallelism(1));
    let mut checked = 0usize;
    for workers in [2usize, 0] {
        let policy = engine.policy().clone().with_parallelism(workers);
        let mut parallel = engine.session().with_policy(policy);
        for (qi, query) in workload.iter().enumerate() {
            let expected = serial.execute(query).expect("serial session serves");
            let got = parallel.execute(query).expect("parallel session serves");
            assert_results_identical(
                &format!("parallel gate, workers {workers}, query {qi}"),
                &expected,
                &got,
            );
            checked += 1;
        }
    }
    // The batch path: distinct queries fan out across worker sessions, and
    // the reassembled slots must match the serial batch exactly.
    let serial_batch = serial.execute_batch(workload).expect("serial batch");
    let mut batch_session = engine
        .session()
        .with_policy(engine.policy().clone().with_parallelism(0));
    let parallel_batch = batch_session
        .execute_batch(workload)
        .expect("parallel batch");
    assert_eq!(serial_batch.results.len(), parallel_batch.results.len());
    for (slot, (a, b)) in serial_batch
        .results
        .iter()
        .zip(&parallel_batch.results)
        .enumerate()
    {
        assert_results_identical(&format!("parallel gate, batch slot {slot}"), a, b);
        checked += 1;
    }
    checked
}

/// The PR-10 scaling measurement: serial vs all-cores serving throughput
/// through policy-configured sessions, plus the honest hardware-aware gate.
struct ParallelScaling {
    cores: usize,
    serial_qps: f64,
    /// All-cores work-stealing serving throughput.
    parallel_qps: f64,
    /// Parallel over serial (>= 1 means parallel wins).
    speedup: f64,
    /// `serial/parallel - 1`, clamped at 0 — what the parallel machinery
    /// costs when it cannot win (the single-core floor).
    overhead_frac: f64,
    gate: &'static str,
    gate_passed: bool,
}

fn measure_parallel_scaling(
    engine: &MacEngine,
    workload: &[MacQuery],
    reps: usize,
) -> ParallelScaling {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let serve = |policy: ExecutionPolicy| -> f64 {
        let mut session = engine.session().with_policy(policy);
        for query in workload {
            session.execute(query).expect("warmup query serves");
        }
        let (seconds, _) = best_of(reps, || {
            for _ in 0..SERVING_PASSES {
                for query in workload {
                    session.execute(query).expect("measured query serves");
                }
            }
        });
        (SERVING_PASSES * workload.len()) as f64 / seconds.max(1e-12)
    };
    let base = engine.policy().clone();
    let serial_qps = serve(base.clone().with_parallelism(1));
    let parallel_qps = serve(base.with_parallelism(0));
    let speedup = parallel_qps / serial_qps.max(1e-12);
    let overhead_frac = (serial_qps / parallel_qps.max(1e-12) - 1.0).max(0.0);
    let (gate, gate_passed) = if cores >= 4 {
        ("parallel_speedup >= 1.5", speedup >= MIN_PARALLEL_SPEEDUP)
    } else {
        (
            "single-core floor: overhead <= 5%",
            overhead_frac <= MAX_SINGLE_CORE_OVERHEAD,
        )
    };
    ParallelScaling {
        cores,
        serial_qps,
        parallel_qps,
        speedup,
        overhead_frac,
        gate,
        gate_passed,
    }
}

/// Writes the PR-10 parallel-execution record. `timing_gated` distinguishes
/// the full local run (gate enforced, record meaningful) from the CI smoke
/// (identity gate only is load-bearing; timings are noise-scale).
fn write_pr10_record(
    path: &str,
    scaling: &ParallelScaling,
    identity_checks: usize,
    workload_queries: usize,
    grid_vertices: usize,
    grid_users: usize,
    timing_gated: bool,
) {
    let json = format!(
        concat!(
            "{{\n",
            "  \"pr\": 10,\n",
            "  \"description\": \"Work-stealing parallel execution behind the ExecutionPolicy \
             API: serial vs all-cores serving throughput through policy-configured sessions, \
             with every parallel answer (work-stealing sessions at several worker counts, \
             the multi-worker batch) asserted cell-identical to serial before timing. The scaling gate is hardware-aware: >= 1.5x on >= 4 cores, \
             otherwise a single-core floor gated at <= 5% overhead — a 1-core record is a \
             floor, not a scaling measurement\",\n",
            "  \"available_cores\": {},\n",
            "  \"grid_road_vertices\": {},\n",
            "  \"grid_users\": {},\n",
            "  \"workload_queries\": {},\n",
            "  \"parallel_identity_checks\": {},\n",
            "  \"serial_qps\": {:.2},\n",
            "  \"parallel_qps\": {:.2},\n",
            "  \"parallel_speedup\": {:.3},\n",
            "  \"single_core_overhead_fraction\": {:.4},\n",
            "  \"scaling_gate\": \"{}\",\n",
            "  \"gate_passed\": {},\n",
            "  \"timing_gated\": {}\n",
            "}}\n"
        ),
        scaling.cores,
        grid_vertices,
        grid_users,
        workload_queries,
        identity_checks,
        scaling.serial_qps,
        scaling.parallel_qps,
        scaling.speedup,
        scaling.overhead_frac,
        scaling.gate,
        scaling.gate_passed,
        timing_gated,
    );
    std::fs::write(path, &json).expect("write PR-10 bench record");
    println!("{json}");
    eprintln!("wrote {path}");
}

const DESCRIPTION: &str = "Perf trajectory for the continental-scale G-tree rebuild: multiway \
(fanout-4/8) GGGP+FM partitioning with contracted reduced border graphs builds a 40k-vertex \
grid index in seconds (pre-PR binary builder: minutes); multiway engines are asserted \
query-identical to the binary-bisection reference before any timing; PR-5 dynamic-traffic \
scenarios replayed on the grid preset with per-batch scratch-rebuild equivalence gates. \
Speedup gates are honest: user churn leaves the index untouched and must win >= 10x; a \
24-edge traffic batch reroutes shortest paths through ~98% of root border-matrix rows, so \
exact row-complete maintenance wins by ~2-3x and is gated at >= 1.5x";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        // CI guard: the structural identity gate at reduced scale, then the
        // full-size grid build under its wall-clock budget. No update
        // scenarios (tier-1 tests and the full recorder cover those); the
        // small record is uploaded as a CI artifact on every run.
        eprintln!("smoke: multiway-vs-binary identity gate (reduced scale)...");
        let (fanouts, checked) = run_identity_gate(2_500, 400);
        eprintln!("  {checked} query comparisons across {fanouts} fanouts: identical");
        eprintln!(
            "smoke: {GRID_ROAD_VERTICES}-vertex grid build (budget {BUILD_BUDGET_SECONDS:.0}s)..."
        );
        let rsn = grid_network(GRID_ROAD_VERTICES, GRID_USERS, 7);
        let (gtree_build_s, indexed) = best_of(1, || {
            rsn.clone().with_gtree_index_capacity(GRID_LEAF_CAPACITY)
        });
        assert!(
            gtree_build_s <= BUILD_BUDGET_SECONDS,
            "grid G-tree build took {gtree_build_s:.1}s, budget is {BUILD_BUDGET_SECONDS:.0}s"
        );
        let (engine_build_s, engine) = best_of(1, || MacEngine::build(indexed.clone()));
        std::hint::black_box(engine);
        eprintln!("  gtree {gtree_build_s:.2}s, engine {engine_build_s:.3}s: within budget");
        write_record(
            SMOKE_OUTPUT,
            "CI smoke record of the continental G-tree path: multiway-vs-binary \
             identity gate at reduced scale plus the 40k grid build under its \
             wall-clock budget; timings are noise-scale and not comparable across runs",
            1,
            gtree_build_s,
            engine_build_s,
            checked,
            GRID_ROAD_VERTICES,
            GRID_USERS,
            &[],
        );
        // PR-10 parallel gate at reduced scale: the identity assertions are
        // the load-bearing part in CI; the throughput numbers are recorded
        // but not gated (CI boxes are too noisy for latency assertions).
        eprintln!("smoke: parallel-vs-serial identity gate (reduced scale)...");
        let small = grid_network(2_500, 400, 13).with_gtree_index_capacity(16);
        let small_workload = build_workload(&small, WORKLOAD_QUERIES);
        let small_engine = MacEngine::build_uncalibrated(small);
        let parallel_checked = run_parallel_identity_gate(&small_engine, &small_workload);
        eprintln!("  {parallel_checked} parallel-vs-serial comparisons: identical");
        let scaling = measure_parallel_scaling(&small_engine, &small_workload, 1);
        write_pr10_record(
            PARALLEL_SMOKE_OUTPUT,
            &scaling,
            parallel_checked,
            small_workload.len(),
            2_500,
            400,
            false,
        );
        println!("smoke ok");
        return;
    }
    let reps: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1);

    eprintln!("identity gate: multiway (fanout 4, 8) vs binary reference...");
    let (fanouts, checked) = run_identity_gate(2_500, 400);
    eprintln!("  {checked} query comparisons across {fanouts} fanouts: identical");

    eprintln!(
        "building the continental preset ({GRID_ROAD_VERTICES} road vertices, {GRID_USERS} users, leaf capacity {GRID_LEAF_CAPACITY})..."
    );
    let rsn = grid_network(GRID_ROAD_VERTICES, GRID_USERS, 7);
    let (gtree_build_s, indexed) = best_of(1, || {
        rsn.clone().with_gtree_index_capacity(GRID_LEAF_CAPACITY)
    });
    assert!(
        gtree_build_s <= BUILD_BUDGET_SECONDS,
        "grid G-tree build took {gtree_build_s:.1}s, budget is {BUILD_BUDGET_SECONDS:.0}s"
    );
    let (engine_build_s, _) = best_of(1, || MacEngine::build(indexed.clone()));
    eprintln!("  gtree {gtree_build_s:.2}s (budget {BUILD_BUDGET_SECONDS:.0}s), engine {engine_build_s:.3}s");

    let workload = build_workload(&indexed, WORKLOAD_QUERIES);
    let mut rows = Vec::new();
    for scenario in SCENARIOS {
        eprintln!(
            "measuring [{}] ({} batches, reps={reps})...",
            scenario.name, UPDATE_BATCHES
        );
        let row = measure_scenario(&indexed, &workload, scenario, reps);
        print_row(&row);
        assert!(
            row.speedup() >= row.min_speedup,
            "[{}]: incremental speedup {:.2}x is below the {:.1}x gate",
            row.scenario,
            row.speedup(),
            row.min_speedup
        );
        rows.push(row);
    }
    write_record(
        OUTPUT,
        DESCRIPTION,
        reps,
        gtree_build_s,
        engine_build_s,
        checked,
        GRID_ROAD_VERTICES,
        GRID_USERS,
        &rows,
    );

    // ---- PR-10 parallel-execution stage on the continental engine:
    // identity-gate every parallel configuration, then measure serial vs
    // all-cores serving and enforce the hardware-aware scaling gate.
    eprintln!("parallel gate: sessions / batch vs serial...");
    let engine = MacEngine::build(indexed.clone());
    let parallel_checked = run_parallel_identity_gate(&engine, &workload);
    eprintln!("  {parallel_checked} parallel-vs-serial comparisons: identical");
    eprintln!("measuring parallel scaling (reps={reps})...");
    let scaling = measure_parallel_scaling(&engine, &workload, reps);
    eprintln!(
        "  {} cores | serial {:.1} q/s, parallel {:.1} q/s -> {:.2}x \
         (overhead {:.1}%) | gate [{}]",
        scaling.cores,
        scaling.serial_qps,
        scaling.parallel_qps,
        scaling.speedup,
        scaling.overhead_frac * 100.0,
        scaling.gate,
    );
    assert!(
        scaling.gate_passed,
        "parallel scaling gate failed on {} cores: speedup {:.2}x, overhead {:.1}% ({})",
        scaling.cores,
        scaling.speedup,
        scaling.overhead_frac * 100.0,
        scaling.gate,
    );
    write_pr10_record(
        PR10_OUTPUT,
        &scaling,
        parallel_checked,
        workload.len(),
        GRID_ROAD_VERTICES,
        GRID_USERS,
        true,
    );
}
