//! Figures 13 and 14: comparison of GS-NC / LS-NC against the baselines
//! Influ, Influ+, Sky and Sky+, varying k (b) and d (c).
//!
//! The baselines follow the paper's protocol: Influ/Influ+ collapse the d
//! attributes to a single influence value via 100 random weight vectors drawn
//! from `R` and report the average time; Sky/Sky+ ignore `R` entirely.
//!
//! Next to each search's time the table prints its cell count and its
//! distinct-community count (`cells/comms`): LS-NC is a heuristic, and a
//! fast LS-NC that reports nothing is no win over GS-NC.
//!
//! Sky and Sky+ run under a deadline of `SKY_TIME_CAP_SECONDS`; a search
//! the deadline cuts prints `>30`, like the paper's "Inf" marks.
//!
//! ```text
//! cargo run -p rsn-bench --release --bin fig13_14_comparison -- --preset sf_delicious [--scale 0.2]
//! ```

use rand::prelude::*;
use rand::rngs::StdRng;
use rsn_baselines::influ::{Influ, InfluPlus};
use rsn_baselines::sky::{skyline_communities, skyline_communities_pruned};
use rsn_bench::runner::{with_dimensionality, QuerySpec};
use rsn_core::{AlgorithmChoice, MacEngine, MacSearchResult, RoadSocialNetwork, SearchContext};
use rsn_datagen::presets::{build_preset_scaled, Dataset, PresetName, PresetScale};
use std::time::{Duration, Instant};

const INFLU_WEIGHT_SAMPLES: usize = 20;
const SKY_TIME_CAP_SECONDS: f64 = 30.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let preset = args
        .iter()
        .position(|a| a == "--preset")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| PresetName::parse(s))
        .unwrap_or(PresetName::SfDelicious);
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.2);
    let dataset = build_preset_scaled(
        preset,
        PresetScale {
            social: scale,
            road: scale,
        },
        0,
    );

    println!(
        "Fig. 13/14 comparison on {} (scale {scale})",
        preset.label()
    );
    println!(
        "{:>6} {:>10} {:>12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "param", "GS-NC", "cells/comms", "LS-NC", "cells/comms", "Influ", "Influ+", "Sky", "Sky+"
    );

    println!("(b) varying k");
    for &k in &[4u32, 8, 16, 32] {
        let row = compare(&dataset, &dataset.rsn, k, 3);
        print_row(&format!("k={k}"), &row);
    }

    println!("(c) varying d");
    for &d in &[2usize, 3, 4, 5] {
        let rsn = with_dimensionality(&dataset, d);
        let row = compare(&dataset, &rsn, 16, d);
        print_row(&format!("d={d}"), &row);
    }
}

/// What one search reported, as `cells/distinct communities`.
fn reported(result: &MacSearchResult) -> String {
    format!(
        "{}/{}",
        result.cells.len(),
        result.distinct_communities().len()
    )
}

struct Row {
    gs_nc: f64,
    gs_reported: String,
    ls_nc: f64,
    ls_reported: String,
    influ: f64,
    influ_plus: f64,
    /// `None`: cut at `SKY_TIME_CAP_SECONDS`.
    sky: Option<f64>,
    sky_plus: Option<f64>,
}

fn compare(dataset: &Dataset, rsn: &RoadSocialNetwork, k: u32, d: usize) -> Row {
    let spec = QuerySpec::defaults(dataset, k, dataset.default_t, 10, 0.01, d);
    // j = 1: the non-contained MAC (Problem 2) the baselines compete on.
    let query = spec.to_query().with_top_j(1);
    let engine = MacEngine::build(rsn.clone());
    let mut session = engine.session();

    let start = Instant::now();
    let gs = session
        .execute(&query.clone().with_algorithm(AlgorithmChoice::Global))
        .unwrap();
    let gs_nc = start.elapsed().as_secs_f64();
    let gs_reported = reported(&gs);

    let start = Instant::now();
    let ls = session
        .execute(&query.clone().with_algorithm(AlgorithmChoice::Local))
        .unwrap();
    let ls_nc = start.elapsed().as_secs_f64();
    let ls_reported = reported(&ls);

    // Baselines run on the same maximal (k,t)-core, mirroring the paper's
    // setup (they share the range filter and core extraction).
    let Some(ctx) = SearchContext::build(rsn, &query).unwrap() else {
        return Row {
            gs_nc,
            gs_reported,
            ls_nc,
            ls_reported,
            influ: 0.0,
            influ_plus: 0.0,
            sky: Some(0.0),
            sky_plus: Some(0.0),
        };
    };
    let graph = &ctx.local_graph;
    // The baselines consume the flat attribute matrix directly.
    let attrs = &ctx.attrs;
    let region = &query.region;

    let mut rng = StdRng::seed_from_u64(7);
    let sample_weight = |rng: &mut StdRng| -> Vec<f64> {
        region
            .lows()
            .iter()
            .zip(region.highs())
            .map(|(&lo, &hi)| rng.random_range(lo..hi.max(lo + 1e-9)))
            .collect()
    };

    let start = Instant::now();
    let influ_algo = Influ::new(graph, attrs);
    for _ in 0..INFLU_WEIGHT_SAMPLES {
        let w = sample_weight(&mut rng);
        let _ = influ_algo.top_r(k, 10, &w);
    }
    let influ = start.elapsed().as_secs_f64() / INFLU_WEIGHT_SAMPLES as f64;

    let start = Instant::now();
    for _ in 0..INFLU_WEIGHT_SAMPLES {
        let w = sample_weight(&mut rng);
        let idx = InfluPlus::build(graph, attrs, k, &w);
        let _ = idx.top_r(10);
    }
    let influ_plus = start.elapsed().as_secs_f64() / INFLU_WEIGHT_SAMPLES as f64;

    // Sky / Sky+ blow up quickly with d; cap them like the paper's "Inf" marks.
    let sky = run_capped(|deadline| skyline_communities(graph, attrs, k, deadline));
    let sky_plus = run_capped(|deadline| skyline_communities_pruned(graph, attrs, k, deadline));

    Row {
        gs_nc,
        gs_reported,
        ls_nc,
        ls_reported,
        influ,
        influ_plus,
        sky,
        sky_plus,
    }
}

/// Seconds `search` took, or `None` if it hit the cap's deadline.
fn run_capped<T>(search: impl FnOnce(Option<Instant>) -> Option<T>) -> Option<f64> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(SKY_TIME_CAP_SECONDS);
    search(Some(deadline))?;
    Some(start.elapsed().as_secs_f64())
}

/// A capped time to four decimals, or `>cap` when the deadline cut it.
fn capped(seconds: Option<f64>) -> String {
    match seconds {
        Some(s) => format!("{s:.4}"),
        None => format!(">{SKY_TIME_CAP_SECONDS:.0}"),
    }
}

fn print_row(label: &str, row: &Row) {
    println!(
        "{:>6} {:>10.4} {:>12} {:>10.4} {:>12} {:>10.4} {:>10.4} {:>10} {:>10}",
        label,
        row.gs_nc,
        row.gs_reported,
        row.ls_nc,
        row.ls_reported,
        row.influ,
        row.influ_plus,
        capped(row.sky),
        capped(row.sky_plus)
    );
}
