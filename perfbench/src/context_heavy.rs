//! `context-heavy`: a closed loop with one client and one uncached session
//! (serial, global search) over Table-III-neighbourhood queries on the
//! FL+Flixster-like network with the road scaled by three. The per-query
//! context build (range filter, (k,t)-core peel, `G_d`) does most of the work;
//! nothing is cached, served or updated while queries run.

use crate::layers::{timed_execute, Traced};
use crate::net::{self, digest};
use crate::report::Report;
use crate::{
    note_resolution, report_queries, serial_global, timed_setup, trace_path, update_probe, Args,
    SetupParts,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use rsn_core::{MacEngine, MacQuery, QueryBudget, QueryOutcome, QuerySession};
use std::time::{Duration, Instant};

/// Queries in the population: sixteen per stratum, so the latency
/// percentiles rest on many queries rather than on which few a seed drew.
pub const POPULATION: usize = 96;
/// Arrangements of context-heavy queries stay this small, so the context
/// build, not the search, does most of a query's work.
pub const MAX_CELLS: usize = 9;
/// Draws per population slot before the run gives up.
pub const MAX_DRAWS: usize = 200;
/// A draw still running after this long has a large arrangement; it is
/// abandoned (accepted draws take 2–15 ms, so the cut-off keeps a wide
/// margin while the rejected draws, most of the set-up, stay cheap).
pub const DRAW_DEADLINE: Duration = Duration::from_millis(50);

/// A population whose slot `i` is a query of `strata[i]` with a non-empty
/// answer of at most [`MAX_CELLS`] cells, each answer taken from a direct
/// uncached serial session on a freshly built engine. The measured session
/// must answer identically (the correctness gate). Returns the population
/// and its answer digests.
pub fn checked_population(
    net: &net::Network,
    strata: &[net::Stratum],
    engine: &MacEngine,
    measured: &mut QuerySession,
    rng: &mut StdRng,
) -> Result<(Vec<MacQuery>, Vec<u64>), String> {
    let epoch = engine.epoch();
    let reference_engine = MacEngine::build_uncalibrated(epoch.network().clone());
    let mut reference = reference_engine.session();
    let policy_filter = measured.policy().filter;
    let budget = QueryBudget::new().with_deadline(DRAW_DEADLINE);
    let mut population = Vec::new();
    let mut expected = Vec::new();
    for (i, &stratum) in strata.iter().enumerate() {
        let mut found = None;
        for _ in 0..MAX_DRAWS {
            let query = net::stratum_query(net, stratum, rng);
            // Same filter strategy as the measured side, so the check
            // compares the pipeline, not float ties between strategies.
            let pinned = query
                .clone()
                .with_range_filter(epoch.resolve_filter_with(&query, policy_filter));
            let answer = reference
                .execute_with_budget(&pinned, &budget)
                .map_err(|e| format!("reference query failed: {e}"))?;
            if let QueryOutcome::Complete(answer) = answer {
                if !answer.is_empty() && answer.num_cells() <= MAX_CELLS {
                    found = Some((query, digest(&answer)));
                    break;
                }
            }
        }
        let (query, want) =
            found.ok_or_else(|| format!("no small result-bearing query in stratum {stratum:?}"))?;
        let got = measured
            .execute(&query)
            .map_err(|e| format!("measured query failed: {e}"))?;
        if digest(&got) != want {
            return Err(format!(
                "correctness gate: query {i} differs from the direct reference"
            ));
        }
        population.push(query);
        expected.push(want);
    }
    Ok((population, expected))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let net = net::flixster_x3();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let policy = serial_global();
    let mut parts = SetupParts::default();
    let (engine, mut session) = timed_setup(report, || {
        let engine = parts.engine(&net.rsn, None, policy.clone());
        let session = engine.session();
        (engine, session)
    });
    parts.report(report);
    report.note(
        "network",
        &format!(
            "FL+Flixster x3 road: {} users, {} road vertices, G-tree leaf capacity default",
            net.rsn.num_users(),
            net.rsn.road().num_vertices()
        ),
    );

    let strata: Vec<net::Stratum> = (0..POPULATION).map(|i| net::STRATA[i % 6]).collect();
    let (population, expected) =
        checked_population(&net, &strata, &engine, &mut session, &mut rng)?;
    report.metric("bench.gate_checks", population.len() as f64, "count");
    note_resolution(report, &engine, &population);

    let mut traced = args.trace.then(|| Traced::new(engine.session()));
    let mut latencies = Vec::new();
    let mut bearing = 0u64;
    let mut order: Vec<usize> = (0..population.len()).collect();
    let probing = report.speed.spent();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    'timed: loop {
        order.shuffle(&mut rng);
        for &i in &order {
            report.speed.tick();
            if Instant::now() >= deadline {
                break 'timed;
            }
            report.attempted += 1;
            let at = Instant::now();
            match timed_execute(&mut session, traced.as_mut(), &population[i]) {
                Ok((result, ms)) => {
                    latencies.push((at, ms));
                    bearing += u64::from(!result.is_empty());
                    if digest(&result) != expected[i] {
                        report.failed += 1;
                    }
                    session.recycle(result);
                }
                Err(_) => report.failed += 1,
            }
        }
    }
    let elapsed = (start.elapsed() - (report.speed.spent() - probing)).as_secs_f64();
    let reads = latencies.len() as f64;
    report_queries(report, &latencies, elapsed, true);
    report.metric(
        "bench.result_bearing_share",
        bearing as f64 / reads.max(1.0),
        "ratio",
    );
    // The session runs without a context cache.
    report.metric("core.ctxcache.hit_rate", 0.0, "ratio");
    report.metric("core.ctxcache.evictions", 0.0, "count");
    report.metric("core.ctxcache.invalidations", 0.0, "count");

    update_probe(args, report, &net, &engine)?;
    if let Some(t) = traced {
        t.finish(report, &[], &trace_path(args))?;
    }
    Ok(())
}
