//! `serve-zipf`: an open loop. Poisson arrivals at one fixed rate go through
//! `MacServer` (coalescing, per-worker context caches); queries are drawn
//! Zipf from a seeded population of result-bearing queries several times
//! larger than a worker's cache. `nproc - 1` workers plus this thread as the
//! generator. Latency is timed from each request's due time.
//!
//! Not one of `BENCHMARK.json`'s workloads: on a shared 2-vCPU host its p90
//! is set by stalls of the host (the generator late and the worker slow to
//! wake by several milliseconds in some runs and not in others), and its
//! spread over seeds reached 0.1–0.5 at every rate tried. Run it by hand to
//! check a change to the serving layer.

use crate::context_heavy::checked_population;
use crate::layers::Traced;
use crate::net::{self, digest};
use crate::report::{nproc, Report};
use crate::speed::SpeedProbe;
use crate::stats::{median, percentile, poisson_schedule, sample_zipf, sorted, zipf_cdf};
use crate::{
    note_resolution, report_queries, serial_global, timed_setup, trace_path, update_probe, Args,
    SetupParts,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use rsn_core::{MacQuery, QueryOutcome};
use rsn_serve::{MacServer, Response, ResponseHandle, ServeConfig};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// About a sixth of the worker's capacity: queueing shows, but a p90 at
/// higher load mostly measures how bursts stack up, which varies from run to
/// run far more than the serving path does.
pub const ARRIVAL_RATE_HZ: f64 = 50.0;
pub const ZIPF_S: f64 = 1.1;
/// Sixteen times the per-worker cache, so about a third of requests hit and
/// the median request builds its context: a median among hits would be set
/// by the few hottest queries' search cost and thread wake-up noise.
pub const POPULATION: usize = 64;
pub const CACHE_CAPACITY: usize = 4;
/// Requests of the served sequence the traced run replays through one
/// cached session to attribute time to layers.
pub const TRACE_REPLAY: usize = 1_000;
/// Rates above the measured one tried by the traced run's ladder.
pub const LADDER_HZ: [f64; 5] = [100.0, 200.0, 400.0, 800.0, 1600.0];
/// The generator samples the machine's speed only when the next request is
/// due at least this far ahead, so sampling never makes it late.
const PROBE_SLACK: Duration = Duration::from_millis(10);
/// The latency limit on p99 that defines a sustainable rate.
pub const P99_LIMIT_MS: f64 = 50.0;

/// One open-loop phase: what each request took, from its due time.
struct Phase {
    /// Each request's due time and latency from it in milliseconds.
    latencies: Vec<(Instant, f64)>,
    late_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    draws: Vec<usize>,
    bearing: u64,
    attempted: u64,
    failed: u64,
    elapsed: f64,
}

impl Phase {
    /// Checks one answer against its expected digest and records its timings.
    fn record(&mut self, response: &Response, expected: u64, due_at: Instant, late_ms: f64) {
        self.attempted += 1;
        self.late_ms.push(late_ms);
        match &response.outcome {
            Ok(QueryOutcome::Complete(result)) if digest(result) == expected => {
                let served_ms = response.latency.as_secs_f64() * 1e3;
                let exec = result.stats.elapsed_seconds * 1e3;
                self.latencies.push((due_at, late_ms + served_ms));
                self.execute_ms.push(exec);
                self.queue_ms.push(served_ms - exec);
                self.bearing += u64::from(!result.is_empty());
            }
            _ => self.failed += 1,
        }
    }

    /// Whether latency grew across the phase: the mean of its last fifth
    /// exceeds twice the mean of its first fifth plus 10 ms.
    fn backlog_grew(&self) -> bool {
        let fifth = (self.latencies.len() / 5).max(1);
        let mean =
            |xs: &[(Instant, f64)]| xs.iter().map(|t| t.1).sum::<f64>() / xs.len().max(1) as f64;
        let n = self.latencies.len();
        mean(&self.latencies[n.saturating_sub(fifth)..])
            > 2.0 * mean(&self.latencies[..fifth.min(n)]) + 10.0
    }
}

/// Submits `rate × seconds` Zipf-drawn requests at Poisson due times without
/// waiting for answers, checking each answer once it has arrived. The
/// generator samples the machine's speed while it waits for a due time far
/// enough ahead.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    server: &MacServer,
    population: &[MacQuery],
    expected: &[u64],
    cdf: &[f64],
    rate: f64,
    seconds: f64,
    rng: &mut StdRng,
    speed: &mut SpeedProbe,
) -> Result<Phase, String> {
    let count = (rate * seconds).round() as usize;
    let due = poisson_schedule(count, rate, rng);
    let draws: Vec<usize> = (0..count).map(|_| sample_zipf(cdf, rng)).collect();
    let mut phase = Phase {
        latencies: Vec::with_capacity(count),
        late_ms: Vec::with_capacity(count),
        queue_ms: Vec::with_capacity(count),
        execute_ms: Vec::with_capacity(count),
        draws: Vec::new(),
        bearing: 0,
        attempted: 0,
        failed: 0,
        elapsed: 0.0,
    };
    // Answers are checked in submission order as they arrive, so finished
    // results are dropped instead of piling up until the phase ends.
    let mut pending: VecDeque<(usize, ResponseHandle, Instant, f64)> = VecDeque::new();
    let start = Instant::now();
    for (&at, &i) in due.iter().zip(&draws) {
        while let Some(response) = pending.front().and_then(|(_, h, _, _)| h.try_get()) {
            let (i, _, due_at, late) = pending.pop_front().expect("front exists");
            phase.record(&response, expected[i], due_at, late);
        }
        let due_at = start + at;
        if due_at > Instant::now() + PROBE_SLACK {
            speed.tick();
        }
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        let handle = server
            .submit(population[i].clone())
            .map_err(|e| format!("open-loop submission failed: {e}"))?;
        pending.push_back((i, handle, due_at, (sent - due_at).as_secs_f64() * 1e3));
    }
    for (i, handle, due_at, late) in pending {
        phase.record(&handle.wait(), expected[i], due_at, late);
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    phase.draws = draws;
    Ok(phase)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let net = net::flixster_x3();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let policy = serial_global();
    let config = ServeConfig {
        workers: nproc().saturating_sub(1).max(1),
        queue_capacity: 1 << 16,
        coalescing: true,
        context_cache_capacity: CACHE_CAPACITY,
        policy: policy.clone(),
    };
    let mut parts = SetupParts::default();
    let mut start_s = Vec::new();
    let (engine, server) = timed_setup(report, || {
        let engine = parts.engine(&net.rsn, None, policy.clone());
        let start = Instant::now();
        let server = MacServer::start(engine.clone(), config.clone());
        start_s.push(start.elapsed().as_secs_f64());
        (engine, server)
    });
    parts.report(report);
    report.metric("serve.start_s", median(&start_s), "s");
    report.note(
        "server",
        &format!(
            "{} worker(s) + 1 generator thread, cache {CACHE_CAPACITY}/worker, coalescing on, \
             {POPULATION} queries, Zipf s={ZIPF_S}, {ARRIVAL_RATE_HZ}/s Poisson",
            config.workers
        ),
    );

    // One stratum, |Q| = 8 at the default t: its context builds cost about
    // the same for every draw, so the latency tail is set by queueing and
    // the serving path rather than by which expensive queries a seed drew.
    let strata = [net::STRATA[3]; POPULATION];
    let mut direct = engine.session();
    let (population, expected) = checked_population(&net, &strata, &engine, &mut direct, &mut rng)?;
    note_resolution(report, &engine, &population);
    // Served ≡ direct: each query twice through the full stack, so the
    // repeats meet coalescing or the cache.
    let handles: Vec<_> = (0..2)
        .flat_map(|_| 0..population.len())
        .map(|i| server.submit(population[i].clone()).map(|h| (i, h)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("gate submission failed: {e}"))?;
    for (i, handle) in &handles {
        match &handle.wait().outcome {
            Ok(QueryOutcome::Complete(r)) if digest(r) == expected[*i] => {}
            _ => {
                return Err(format!(
                    "correctness gate: served query {i} differs from direct"
                ))
            }
        }
    }
    report.metric(
        "bench.gate_checks",
        (population.len() + handles.len()) as f64,
        "count",
    );

    let cdf = zipf_cdf(population.len(), ZIPF_S);
    let main = open_loop(
        &server,
        &population,
        &expected,
        &cdf,
        ARRIVAL_RATE_HZ,
        args.seconds,
        &mut rng,
        &mut report.speed,
    )?;
    let stats = server.shutdown();
    report.attempted = main.attempted;
    report.failed = main.failed + stats.shed;
    let completed = main.latencies.len() as f64;
    report_queries(report, &main.latencies, main.elapsed, false);
    report.metric(
        "bench.result_bearing_share",
        main.bearing as f64 / completed.max(1.0),
        "ratio",
    );
    let late_sorted = sorted(main.late_ms.clone());
    let queue_sorted = sorted(main.queue_ms.clone());
    report.metric(
        "bench.generator_late_p99_ms",
        percentile(&late_sorted, 99.0).unwrap_or(0.0),
        "ms",
    );
    report.metric(
        "serve.queue_wait_p50_ms",
        percentile(&queue_sorted, 50.0).unwrap_or(0.0),
        "ms",
    );
    report.metric(
        "serve.queue_wait_p99_ms",
        percentile(&queue_sorted, 99.0).unwrap_or(0.0),
        "ms",
    );
    report.metric("serve.execute_ms", median(&main.execute_ms), "ms");
    report.metric("serve.coalesce_rate", stats.coalescing_rate(), "ratio");
    report.metric(
        "serve.shed_share",
        stats.shed as f64 / main.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("core.ctxcache.hit_rate", stats.cache_hit_rate(), "ratio");

    if args.trace {
        // Replay the served sequence through one session with a worker's
        // cache: it attributes execute time to layers, and its cache sees the
        // request stream a single worker saw (minus coalesced joins).
        let mut session = engine.session().with_context_cache(CACHE_CAPACITY);
        let mut traced = Traced::new(engine.session());
        for &i in main.draws.iter().take(TRACE_REPLAY) {
            let (result, _) = traced
                .execute(&mut session, &population[i])
                .map_err(|e| format!("trace replay failed: {e}"))?;
            session.recycle(result);
        }
        let cache = session.context_cache_stats().unwrap_or_default();
        report.metric("core.ctxcache.replay_hit_rate", cache.hit_rate(), "ratio");
        report.metric("core.ctxcache.evictions", cache.evictions as f64, "count");
        report.metric(
            "core.ctxcache.invalidations",
            cache.epoch_invalidations as f64,
            "count",
        );
        let queue_mean = queue_sorted.iter().sum::<f64>() / queue_sorted.len().max(1) as f64;
        traced.finish(report, &[("serve.queue", queue_mean)], &trace_path(args))?;

        // The rate ladder: the highest rate whose p99 stays within the limit
        // with a backlog that does not grow. Each rung gets enough requests
        // for ten beyond its p99, on a fresh server.
        let mut sustainable = 0.0;
        for rate in LADDER_HZ {
            let server = MacServer::start(engine.clone(), config.clone());
            let rung = open_loop(
                &server,
                &population,
                &expected,
                &cdf,
                rate,
                1_000.0 / rate,
                &mut rng,
                &mut report.speed,
            )?;
            server.shutdown();
            let ms = sorted(rung.latencies.iter().map(|t| t.1).collect());
            let p99 = percentile(&ms, 99.0).unwrap_or(f64::INFINITY);
            report.metric(&format!("serve.ladder_{rate}_p99_ms"), p99, "ms");
            if rung.failed > 0 || p99 > P99_LIMIT_MS || rung.backlog_grew() {
                break;
            }
            sustainable = rate;
        }
        report.metric("serve.sustainable_qps", sustainable, "1/s");
    }

    update_probe(args, report, &net, &engine)?;
    Ok(())
}
