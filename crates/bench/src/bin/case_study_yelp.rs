//! Figure 16 case study: a Yelp-like LBSN on a San-Francisco-like road
//! network, reporting the top-3 MACs for k = 6 with three compliment-count
//! attributes.
//!
//! ```text
//! cargo run -p rsn-bench --release --bin case_study_yelp [-- --scale 0.3]
//! ```

use rsn_bench::arg_value;
use rsn_bench::runner::QuerySpec;
use rsn_core::{AlgorithmChoice, MacEngine};
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = arg_value(&args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.3);
    let dataset = build_preset_scaled(
        PresetName::YelpSf,
        PresetScale {
            social: scale,
            road: scale,
        },
        0,
    );
    let spec = QuerySpec {
        q: dataset.query_vertices(4),
        k: 6,
        t: dataset.default_t,
        j: 3,
        sigma: 0.1,
        d: 3,
    };
    let query = spec.to_query();
    println!(
        "Case study (Fig. 16): SF+Yelp-like, k = 6, Q = {:?}",
        spec.q
    );

    let engine = MacEngine::build(dataset.rsn.clone());
    let result = engine
        .session()
        .execute(&query.with_algorithm(AlgorithmChoice::Global))
        .unwrap();
    println!(
        "partitions of R: {} (real attributes are correlated/zero-inflated, so few branches)",
        result.num_cells()
    );
    if let Some(cell) = result.cells.first() {
        for (rank, community) in cell.communities.iter().enumerate() {
            println!(
                "top-{} MAC: {} members, e.g. {:?}",
                rank + 1,
                community.len(),
                community.vertices.iter().take(10).collect::<Vec<_>>()
            );
        }
    } else {
        println!("no MAC found (increase --scale)");
    }
    println!(
        "distinct non-contained MACs: {}",
        result.distinct_communities().len()
    );
}
