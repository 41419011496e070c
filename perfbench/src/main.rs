//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <context-heavy|serve-zipf|read-write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload's inputs from the seed, sets up the engine
//! several times (the median is `setup_s`), checks answers against a direct
//! uncached serial session on a freshly built engine before timing, measures
//! for `--seconds`, and prints the full record on standard error and the
//! result line as the last line of standard output. `--trace 1` re-calls each
//! pipeline layer per query and reports per-layer metrics instead, writing the
//! spans to `perfbench/out/`. Any failed check exits non-zero without a result.
//! Every phase samples the machine's speed (`speed.rs`), and the end-to-end
//! timings are reported in reference-machine time.

mod context_heavy;
mod layers;
mod net;
mod read_write;
mod report;
mod serve_zipf;
mod speed;
mod stats;

use report::Report;
use rsn_core::{
    AlgorithmChoice, ExecutionPolicy, MacEngine, MacQuery, NetworkDelta, RoadSocialNetwork,
};
use rsn_road::rangefilter::RangeFilterChoice;
use stats::{median, percentile, sorted};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// Speed samples on each side of a set-up.
const SETUP_SPEED_SAMPLES: usize = 3;
/// Traffic deltas applied after the query phase of the workloads whose
/// queries run on a static network.
pub const UPDATE_PROBE_BATCHES: usize = 160;
/// The least share of non-empty answers a run accepts: queries that find no
/// community skip most of the pipeline and would read as a speed-up.
pub const MIN_RESULT_BEARING: f64 = 0.9;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs `build` `SETUP_REPEATS` times, keeping the last result, with speed
/// samples around each; reports the median time as `setup_s`.
pub fn timed_setup<T>(report: &mut Report, mut build: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    let sample = |report: &mut Report| (0..SETUP_SPEED_SAMPLES).for_each(|_| report.speed.sample());
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        sample(report);
        let start = Instant::now();
        last = Some(build());
        times.push((start, start.elapsed().as_secs_f64()));
    }
    sample(report);
    let raw = median(&times.iter().map(|t| t.1).collect::<Vec<_>>());
    report.timing("setup_s", raw, median(&report.speed.normalise(&times)), "s");
    last.expect("at least one set-up")
}

/// The parts of one set-up, timed separately for the traced record.
#[derive(Default)]
pub struct SetupParts {
    pub gtree_s: Vec<f64>,
    pub engine_s: Vec<f64>,
}

impl SetupParts {
    /// Indexes `plain` with a G-tree (`leaf_capacity`, or the default) and
    /// builds a calibrated engine on it, timing both.
    pub fn engine(
        &mut self,
        plain: &RoadSocialNetwork,
        leaf_capacity: Option<usize>,
        policy: rsn_core::ExecutionPolicy,
    ) -> MacEngine {
        let start = Instant::now();
        let rsn = match leaf_capacity {
            Some(c) => plain.clone().with_gtree_index_capacity(c),
            None => plain.clone().with_gtree_index(),
        };
        self.gtree_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let engine = MacEngine::build_with_policy(rsn, policy);
        self.engine_s.push(start.elapsed().as_secs_f64());
        engine
    }

    pub fn report(&self, report: &mut Report) {
        report.metric("road.gtree.build_s", median(&self.gtree_s), "s");
        report.metric("core.engine.build_s", median(&self.engine_s), "s");
    }
}

/// `apply_updates` latencies and what each update did.
#[derive(Default)]
pub struct UpdateAgg {
    /// When each update started, and its latency in milliseconds.
    update_ms: Vec<(Instant, f64)>,
    refresh_ms: Vec<f64>,
    dirty_fraction: Vec<f64>,
    patched_share: Vec<f64>,
    targets_refreshed: Vec<f64>,
    recalibrations: u64,
}

impl UpdateAgg {
    /// Applies `delta` to the engine, timing it. A traced run also applies
    /// the reweights to `shadow` (an indexed network copy) to time the
    /// G-tree refresh alone.
    pub fn apply(
        &mut self,
        engine: &MacEngine,
        delta: &NetworkDelta,
        shadow: Option<&mut RoadSocialNetwork>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let stats = engine
            .apply_updates(delta)
            .map_err(|e| format!("scheduled delta rejected: {e}"))?;
        self.update_ms
            .push((start, start.elapsed().as_secs_f64() * 1e3));
        if let Some(g) = &stats.gtree {
            self.dirty_fraction.push(g.dirty_fraction());
            let rows = g.patched_rows + g.row_dijkstras;
            self.patched_share
                .push(g.patched_rows as f64 / rows.max(1) as f64);
        }
        self.targets_refreshed
            .push(stats.user_targets_refreshed as f64);
        self.recalibrations += u64::from(stats.recalibrated);
        if let Some(shadow) = shadow {
            let start = Instant::now();
            shadow
                .apply_edge_updates(&delta.edge_updates)
                .map_err(|e| format!("shadow refresh rejected: {e}"))?;
            self.refresh_ms.push(start.elapsed().as_secs_f64() * 1e3);
            for &(user, location) in &delta.user_moves {
                shadow
                    .set_user_location(user, location)
                    .map_err(|e| format!("shadow move rejected: {e}"))?;
            }
        }
        Ok(())
    }

    pub fn report(&self, report: &mut Report, trace: bool) {
        let raw = sorted(self.update_ms.iter().map(|t| t.1).collect());
        let ms = sorted(report.speed.normalise(&self.update_ms));
        for (name, p) in [("update_p50_ms", 50.0), ("update_p90_ms", 90.0)] {
            let at = |xs: &[f64]| percentile(xs, p).unwrap_or(0.0);
            report.timing(name, at(&raw), at(&ms), "ms");
        }
        report.metric("bench.update_samples", ms.len() as f64, "count");
        if trace {
            report.metric("core.engine.update_ms", median(&raw), "ms");
            report.metric("road.gtree.refresh_ms", median(&self.refresh_ms), "ms");
            report.metric(
                "road.gtree.dirty_fraction",
                median(&self.dirty_fraction),
                "ratio",
            );
            report.metric(
                "road.gtree.patched_share",
                median(&self.patched_share),
                "ratio",
            );
            report.metric(
                "core.engine.targets_refreshed",
                median(&self.targets_refreshed),
                "count",
            );
            report.metric(
                "core.engine.recalibrations",
                self.recalibrations as f64,
                "count",
            );
        }
    }
}

/// The policy every workload measures: serial execution, global search.
pub fn serial_global() -> ExecutionPolicy {
    ExecutionPolicy::new()
        .with_parallelism(1)
        .with_algorithm(AlgorithmChoice::Global)
}

/// Records how the engine's calibration resolved the `Auto` range filter for
/// the population: `MacEngine::build` calibrates with a timed probe, and a
/// flipped resolution must show in the record rather than pass as noise.
pub fn note_resolution(report: &mut Report, engine: &MacEngine, population: &[MacQuery]) {
    let epoch = engine.epoch();
    let sweeps = population
        .iter()
        .filter(|q| {
            epoch.resolve_filter_with(q, engine.policy().filter) == RangeFilterChoice::DijkstraSweep
        })
        .count();
    report.note(
        "resolved",
        &format!(
            "filter: {sweeps}/{} sweep, the rest G-tree walk; algorithm: Global",
            population.len()
        ),
    );
}

/// Applies `UPDATE_PROBE_BATCHES` scheduled deltas after a query phase on a
/// static network and reports their latency.
pub fn update_probe(
    args: &Args,
    report: &mut Report,
    net: &net::Network,
    engine: &MacEngine,
) -> Result<(), String> {
    let mut schedule = net::DeltaSchedule::new(net, args.seed);
    let mut shadow = args.trace.then(|| engine.epoch().network().clone());
    let mut updates = UpdateAgg::default();
    for _ in 0..UPDATE_PROBE_BATCHES {
        report.speed.tick();
        updates.apply(engine, &schedule.next_delta(), shadow.as_mut())?;
    }
    updates.report(report, args.trace);
    Ok(())
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    format!("perfbench/out/trace-{}-{}.jsonl", args.workload, args.seed).into()
}

/// Query latency percentiles and throughput of a timed phase, from each
/// query's start (or due time) and latency in milliseconds. A closed loop's
/// throughput is rescaled by its queries' time-weighted speed; an open
/// loop's is its arrival rate and stays as measured.
pub fn report_queries(
    report: &mut Report,
    latencies_ms: &[(Instant, f64)],
    elapsed_s: f64,
    closed_loop: bool,
) {
    let raw = sorted(latencies_ms.iter().map(|t| t.1).collect());
    let ms = sorted(report.speed.normalise(latencies_ms));
    for (name, p) in [
        ("query_p50_ms", 50.0),
        ("query_p90_ms", 90.0),
        ("query_p99_ms", 99.0),
    ] {
        let at = |xs: &[f64]| percentile(xs, p).unwrap_or(0.0);
        report.timing(name, at(&raw), at(&ms), "ms");
    }
    let qps = ms.len() as f64 / elapsed_s.max(1e-9);
    let speed = if closed_loop {
        raw.iter().sum::<f64>() / ms.iter().sum::<f64>().max(1e-12)
    } else {
        1.0
    };
    report.timing("throughput_qps", qps, qps * speed, "1/s");
    report.metric("bench.samples", ms.len() as f64, "count");
}

/// Names the layer with the largest mean time per query, and every layer's
/// share of the sum.
pub fn report_dominant(report: &mut Report, mut means: Vec<(&'static str, f64)>) {
    means.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite layer times"));
    let sum: f64 = means.iter().map(|t| t.1).sum();
    let shares: Vec<String> = means
        .iter()
        .map(|(name, ms)| format!("{name} {ms:.3} ms ({:.1}%)", 100.0 * ms / sum.max(1e-12)))
        .collect();
    if let Some((name, _)) = means.first() {
        report.note("dominant_layer", name);
    }
    report.note("layer_means_per_query", &shares.join(", "));
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    match args.workload.as_str() {
        "context-heavy" => context_heavy::run(args, &mut report)?,
        "serve-zipf" => serve_zipf::run(args, &mut report)?,
        "read-write" => read_write::run(args, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    let bearing = report
        .value("bench.result_bearing_share")
        .ok_or("the workload did not record its result-bearing share")?;
    if bearing < MIN_RESULT_BEARING {
        return Err(format!(
            "result-bearing guard: only {bearing:.3} of the answers were non-empty"
        ));
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("failed_share", failed_share, "ratio");
    let rss = report::peak_rss_mb().ok_or("peak resident memory is not available")?;
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("bench.speed_ms", report.speed.median_ms(), "ms");
    report.metric(
        "bench.speed_samples",
        report.speed.samples() as f64,
        "count",
    );
    Ok(report)
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        let report = run(&args)?;
        eprintln!("record: {}", report.record_json());
        if report.failed > 0 {
            return Err(format!(
                "{} of {} operations failed",
                report.failed, report.attempted
            ));
        }
        report.result_line(args.trace)
    });
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
