//! `read-write`: a closed loop with one client running a fixed seeded
//! schedule on a 10k-vertex road grid (2,000 users, G-tree leaf capacity
//! 128). Three of every four operations are Zipf-drawn global-search reads
//! through a context-cached session; every fourth is a `NetworkDelta` of 4
//! reweights in one spatial window and 4 moves of users outside the planted
//! group. Reads are checked against engines rebuilt from a shadow network
//! that replays the same deltas.

use crate::layers::{timed_execute, Traced};
use crate::net::{self, apply_to_network, digest, DeltaSchedule};
use crate::report::Report;
use crate::speed::SpeedProbe;
use crate::stats::{sample_zipf, zipf_cdf};
use crate::{
    note_resolution, report_queries, serial_global, timed_setup, trace_path, Args, SetupParts,
    UpdateAgg,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsn_core::{
    MacEngine, MacQuery, NetworkDelta, QueryBudget, QueryOutcome, QuerySession, RoadSocialNetwork,
};
use rsn_road::rangefilter::RangeFilterChoice;
use std::time::{Duration, Instant};

pub const LEAF_CAPACITY: usize = 128;
pub const POPULATION: usize = 64;
/// Milder than the serving skew: with 1.1 the hottest query takes a quarter
/// of all reads, and the run's median would be that one query's cost.
pub const ZIPF_S: f64 = 0.6;
pub const CACHE_CAPACITY: usize = 16;
/// The answer-size band of the read population, in cells.
pub const MIN_CELLS: usize = 250;
pub const MAX_CELLS: usize = 330;
/// Draws per population slot before the run gives up.
pub const MAX_DRAWS: usize = 100;
/// A draw still running after this long is far outside the band.
pub const DRAW_DEADLINE: Duration = Duration::from_millis(400);
/// Every `WRITE_EVERY`-th operation is a write.
pub const WRITE_EVERY: u64 = 4;
/// Operations of the untimed gate schedule.
pub const GATE_OPS: u64 = 16;
/// Reads of the timed phase checked afterwards against rebuilt engines.
pub const TIMED_CHECKS: usize = 6;

/// The seeded operation stream: reads drawn Zipf from the population,
/// every `WRITE_EVERY`-th operation a delta.
struct Schedule {
    cdf: Vec<f64>,
    rng: StdRng,
    deltas: DeltaSchedule,
    next_op: u64,
}

enum Op {
    Read(usize),
    Write(NetworkDelta),
}

impl Schedule {
    fn new(net: &net::Network, seed: u64) -> Self {
        Schedule {
            cdf: zipf_cdf(POPULATION, ZIPF_S),
            rng: StdRng::seed_from_u64(seed ^ 0x5C4E_D01E),
            deltas: DeltaSchedule::new(net, seed),
            next_op: 0,
        }
    }

    fn next(&mut self) -> (u64, Op) {
        let op = self.next_op;
        self.next_op += 1;
        if op % WRITE_EVERY == WRITE_EVERY - 1 {
            (op, Op::Write(self.deltas.next_delta()))
        } else {
            (op, Op::Read(sample_zipf(&self.cdf, &mut self.rng)))
        }
    }
}

/// What a schedule run did: each read's op, query, answer digest and
/// whether the answer was non-empty, and each delta with its op.
#[derive(Default)]
struct Log {
    reads: Vec<(u64, usize, u64, bool)>,
    deltas: Vec<(u64, NetworkDelta)>,
}

/// Checks the logged reads at `picks` against direct uncached serial
/// sessions on engines built from `plain` with every earlier delta applied.
fn verify(
    plain: &RoadSocialNetwork,
    log: &Log,
    picks: &[usize],
    population: &[MacQuery],
) -> Result<usize, String> {
    let mut shadow = plain.clone();
    let mut applied = 0;
    for &p in picks {
        let (op, qi, got, _) = log.reads[p];
        while applied < log.deltas.len() && log.deltas[applied].0 < op {
            apply_to_network(&mut shadow, &log.deltas[applied].1);
            applied += 1;
        }
        // The shadow carries no index, so the reference filters with the
        // bounded Dijkstra sweep.
        let engine = MacEngine::build_uncalibrated(shadow.clone());
        let query = population[qi]
            .clone()
            .with_range_filter(RangeFilterChoice::DijkstraSweep);
        let want = engine
            .session()
            .execute(&query)
            .map_err(|e| format!("reference query failed: {e}"))?;
        if digest(&want) != got {
            return Err(format!(
                "correctness check: read at op {op} (query {qi}) differs from a rebuilt engine"
            ));
        }
    }
    Ok(picks.len())
}

/// The read population, Zipf rank = slot. Slot `i` draws users until its
/// direct answer (uncached, serial, on `engine`) has between [`MIN_CELLS`]
/// and [`MAX_CELLS`] cells, so every read is dominated by the search stage
/// and the popular queries cost about the same for every seed.
fn banded_population(
    engine: &MacEngine,
    net: &net::Network,
    rng: &mut StdRng,
) -> Result<Vec<MacQuery>, String> {
    let mut direct = engine.session();
    let budget = QueryBudget::new().with_deadline(DRAW_DEADLINE);
    (0..POPULATION)
        .map(|i| {
            for _ in 0..MAX_DRAWS {
                let query = net::grid_query(net, i, rng);
                let answer = direct
                    .execute_with_budget(&query, &budget)
                    .map_err(|e| format!("reference query failed: {e}"))?;
                if let QueryOutcome::Complete(a) = answer {
                    if (MIN_CELLS..=MAX_CELLS).contains(&a.num_cells()) {
                        return Ok(query);
                    }
                }
            }
            Err(format!("slot {i} found no query of the size band"))
        })
        .collect()
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let net = net::grid_10k();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let policy = serial_global();
    let session_for = |engine: &MacEngine| engine.session().with_context_cache(CACHE_CAPACITY);
    let mut parts = SetupParts::default();
    let (engine, mut session) = timed_setup(report, || {
        let engine = parts.engine(&net.rsn, Some(LEAF_CAPACITY), policy.clone());
        let session = session_for(&engine);
        (engine, session)
    });
    parts.report(report);
    report.note(
        "network",
        &format!(
            "grid: {} users, {} road vertices, G-tree leaf capacity {LEAF_CAPACITY}",
            net.rsn.num_users(),
            net.rsn.road().num_vertices()
        ),
    );
    let epoch = engine.epoch();
    // Gate: a second engine over the same indexed network. Its direct
    // answers select the population; then a short schedule of its own runs
    // on it with every read checked.
    let gate_engine =
        MacEngine::build_uncalibrated_with_policy(epoch.network().clone(), policy.clone());
    let population = banded_population(&gate_engine, &net, &mut rng)?;
    note_resolution(report, &engine, &population);

    let mut gate_session = session_for(&gate_engine);
    let mut gate_schedule = Schedule::new(&net, args.seed ^ 0x6A7E);
    let (gate_log, _) = run_schedule(
        &gate_engine,
        &mut gate_session,
        &mut gate_schedule,
        &population,
        Deadline::Ops(GATE_OPS),
        None,
        &mut UpdateAgg::default(),
        None,
        &mut report.speed,
    )?;
    let all: Vec<usize> = (0..gate_log.reads.len()).collect();
    let mut checks = verify(&net.rsn, &gate_log, &all, &population)?;

    let mut schedule = Schedule::new(&net, args.seed);
    let mut traced = args.trace.then(|| Traced::new(engine.session()));
    let mut shadow = args.trace.then(|| epoch.network().clone());
    drop(epoch);
    let mut updates = UpdateAgg::default();
    let probing = report.speed.spent();
    let start = Instant::now();
    let (log, latencies) = run_schedule(
        &engine,
        &mut session,
        &mut schedule,
        &population,
        Deadline::At(start + Duration::from_secs_f64(args.seconds)),
        traced.as_mut(),
        &mut updates,
        shadow.as_mut(),
        &mut report.speed,
    )?;
    let elapsed = (start.elapsed() - (report.speed.spent() - probing)).as_secs_f64();
    report.attempted = (log.reads.len() + log.deltas.len()) as u64;

    let reads = log.reads.len();
    let picks: Vec<usize> = (0..TIMED_CHECKS.min(reads))
        .map(|i| (i * reads) / TIMED_CHECKS.min(reads).max(1))
        .collect();
    checks += verify(&net.rsn, &log, &picks, &population)?;
    report.metric("bench.gate_checks", checks as f64, "count");

    let bearing = log.reads.iter().filter(|r| r.3).count();
    report_queries(report, &latencies, elapsed, true);
    report.metric(
        "bench.result_bearing_share",
        bearing as f64 / reads.max(1) as f64,
        "ratio",
    );
    updates.report(report, args.trace);
    let cache = session.context_cache_stats().unwrap_or_default();
    report.metric("core.ctxcache.hit_rate", cache.hit_rate(), "ratio");
    report.metric("core.ctxcache.evictions", cache.evictions as f64, "count");
    report.metric(
        "core.ctxcache.invalidations",
        cache.epoch_invalidations as f64,
        "count",
    );
    if let Some(t) = traced {
        t.finish(report, &[], &trace_path(args))?;
    }
    Ok(())
}

enum Deadline {
    Ops(u64),
    At(Instant),
}

/// Runs the schedule until the deadline, timing reads and writes and
/// sampling the machine's speed between operations. Returns the log and
/// each read's start and latency in milliseconds.
#[allow(clippy::too_many_arguments)]
fn run_schedule(
    engine: &MacEngine,
    session: &mut QuerySession,
    schedule: &mut Schedule,
    population: &[MacQuery],
    deadline: Deadline,
    mut traced: Option<&mut Traced>,
    updates: &mut UpdateAgg,
    mut shadow: Option<&mut RoadSocialNetwork>,
    speed: &mut SpeedProbe,
) -> Result<(Log, Vec<(Instant, f64)>), String> {
    let mut log = Log::default();
    let mut latencies = Vec::new();
    loop {
        speed.tick();
        let done = match deadline {
            Deadline::Ops(n) => schedule.next_op >= n,
            Deadline::At(at) => Instant::now() >= at,
        };
        if done {
            break;
        }
        match schedule.next() {
            (op, Op::Read(qi)) => {
                let at = Instant::now();
                let (result, ms) = timed_execute(session, traced.as_deref_mut(), &population[qi])
                    .map_err(|e| format!("read at op {op} failed: {e}"))?;
                latencies.push((at, ms));
                log.reads
                    .push((op, qi, digest(&result), !result.is_empty()));
                session.recycle(result);
            }
            (op, Op::Write(delta)) => {
                updates.apply(engine, &delta, shadow.as_deref_mut())?;
                log.deltas.push((op, delta));
            }
        }
    }
    Ok((log, latencies))
}
