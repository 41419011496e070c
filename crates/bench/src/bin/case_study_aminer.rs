//! Figure 15 case study: an Aminer-like collaboration network on a
//! North-America-like road network, comparing the top-2 MACs / NC-MAC with
//! the SkyC, InfC and ATC baselines for k = 5.
//!
//! ```text
//! cargo run -p rsn-bench --release --bin case_study_aminer [-- --scale 0.3]
//! ```

use rsn_baselines::atc::atc_community;
use rsn_baselines::influ::Influ;
use rsn_baselines::sky::skyline_communities;
use rsn_bench::runner::QuerySpec;
use rsn_core::{AlgorithmChoice, MacEngine, SearchContext};
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.3);
    let dataset = build_preset_scaled(
        PresetName::AminerNa,
        PresetScale {
            social: scale,
            road: scale,
        },
        0,
    );
    // Four "renowned researchers": co-located, high-coreness query users.
    let spec = QuerySpec {
        q: dataset.query_vertices(4),
        k: 5,
        t: dataset.default_t,
        j: 2,
        sigma: 0.2,
        d: 4,
    };
    let rsn = rsn_bench::runner::with_dimensionality(&dataset, 4);
    let query = spec.to_query();
    let engine = MacEngine::build(rsn);
    let mut session = engine.session();
    let epoch = engine.epoch();
    let rsn = epoch.network();

    println!(
        "Case study (Fig. 15): NA+Aminer-like, k = 5, Q = {:?}",
        spec.q
    );

    let gs = session
        .execute(&query.clone().with_algorithm(AlgorithmChoice::Global))
        .unwrap();
    if let Some(cell) = gs.cells.first() {
        for (rank, community) in cell.communities.iter().enumerate() {
            println!(
                "top-{} MAC ({} members): {:?}",
                rank + 1,
                community.len(),
                preview(&community.vertices)
            );
        }
    } else {
        println!("no MAC found (increase --scale)");
    }
    let ls = session
        .execute(
            &query
                .clone()
                .with_top_j(1)
                .with_algorithm(AlgorithmChoice::Local),
        )
        .unwrap();
    println!(
        "LS-NC found {} non-contained MAC(s) across {} partition(s)",
        ls.distinct_communities().len(),
        ls.num_cells()
    );

    // Baselines on the same (k,t)-core.
    if let Some(ctx) = SearchContext::build(rsn, &query).unwrap() {
        let sky = skyline_communities(&ctx.local_graph, &ctx.attrs, 5, None)
            .expect("no deadline, so the search completes");
        println!(
            "SkyC: {} skyline communities (no query vertices, attribute-only)",
            sky.len()
        );
        if let Some(first) = sky.first() {
            println!("  largest SkyC example: {} members", first.vertices.len());
        }
        let influ = Influ::new(&ctx.local_graph, &ctx.attrs);
        let inf = influ.top_r(5, 1, query.region.pivot().reduced());
        if let Some(c) = inf.first() {
            println!("InfC (w = pivot of R): {} members", c.vertices.len());
        }
        let keywords = vec![true; rsn.num_users()];
        match atc_community(rsn.social(), &query.q, 5, &keywords) {
            Some(c) => println!(
                "ATC ((k+1)-truss, attributes ignored): {} members — much larger than the MACs",
                c.len()
            ),
            None => println!("ATC: no (k+1)-truss contains the query users"),
        }
    }
}

fn preview(vertices: &[u32]) -> Vec<u32> {
    vertices.iter().copied().take(12).collect()
}
