//! Table II: dataset statistics for every preset.
//!
//! ```text
//! cargo run -p rsn-bench --release --bin table2_datasets [-- --scale 0.25]
//! ```

use rsn_bench::arg_value;
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};
use rsn_datagen::stats::dataset_stats;

fn main() {
    let scale = parse_scale();
    println!("Table II — dataset statistics (scaled synthetic replacements, scale = {scale})");
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>8} {:>7} | {:>10} {:>10} {:>8}",
        "Dataset", "Vertices", "Edges", "dg_avg", "dg_max", "k_max", "RoadV", "RoadE", "road_dg"
    );
    for &preset in PresetName::all() {
        let dataset = build_preset_scaled(
            preset,
            PresetScale {
                social: scale,
                road: scale,
            },
            0,
        );
        let s = dataset_stats(&dataset.rsn);
        println!(
            "{:<14} {:>10} {:>10} {:>8.2} {:>8} {:>7} | {:>10} {:>10} {:>8.2}",
            preset.label(),
            s.social_vertices,
            s.social_edges,
            s.dg_avg,
            s.dg_max,
            s.k_max,
            s.road_vertices,
            s.road_edges,
            s.road_dg_avg,
        );
    }
    println!();
    println!("Paper reference (Table II): SF 175K/223K deg 2.55; FL 1.1M/1.4M deg 2.53;");
    println!("Slashdot 79K/0.5M kmax 85; Delicious 536K/1.4M kmax 34; Lastfm 1.2M/4.5M kmax 71;");
    println!("Flixster 2.5M/7.9M kmax 69; Yelp 3.6M/9.0M kmax 129.");
}

fn parse_scale() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    arg_value(&args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}
