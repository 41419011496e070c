//! Figure 11: scalability measurements.
//!
//! (a) number of partitions of `R` vs σ, (b) number of non-contained MACs vs
//! σ, (c) size of the maximal (k,t)-core vs k, (d) memory overhead of `G_d`
//! / GS-NC / LS-NC vs d. The paper's BBS column also counts an R-tree over
//! the attributes; the build here sorts by pivot score instead, so the `G_d`
//! column counts `G_d` only: its ids and dominator closures.
//!
//! ```text
//! cargo run -p rsn-bench --release --bin fig11_scalability [-- --scale 0.2]
//! ```

use rsn_bench::arg_value;
use rsn_bench::params::ParamSpace;
use rsn_bench::runner::{measure_all, with_dimensionality, QuerySpec};
use rsn_core::{MacQuery, SearchContext};
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = arg_value(&args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.2);

    let presets = [
        PresetName::SfSlashdot,
        PresetName::SfDelicious,
        PresetName::FlLastfm,
        PresetName::FlYelp,
    ];

    println!("Fig. 11(a)/(b): partitions of R and non-contained MACs vs sigma");
    println!(
        "{:<14} {:>8} {:>12} {:>10}",
        "dataset", "sigma", "partitions", "NC-MACs"
    );
    for &preset in &presets {
        let dataset = build_preset_scaled(
            preset,
            PresetScale {
                social: scale,
                road: scale,
            },
            0,
        );
        let params = ParamSpace::paper(dataset.default_t);
        for &sigma in &params.sigma.values {
            let spec = QuerySpec::defaults(&dataset, 16, dataset.default_t, 10, sigma, 3);
            let t = measure_all(&dataset.rsn, &spec);
            println!(
                "{:<14} {:>8} {:>12} {:>10}",
                preset.label(),
                sigma,
                t.gs_partitions,
                t.gs_nc_communities
            );
        }
    }

    println!("\nFig. 11(c): #vertices of the maximal (k,t)-core vs k");
    println!("{:<14} {:>6} {:>10}", "dataset", "k", "|Htk|");
    for &preset in &presets {
        let dataset = build_preset_scaled(
            preset,
            PresetScale {
                social: scale,
                road: scale,
            },
            0,
        );
        for &k in &[4u32, 8, 16, 32, 64] {
            let spec = QuerySpec::defaults(&dataset, k, dataset.default_t, 10, 0.01, 3);
            let query: MacQuery = spec.to_query();
            let size = SearchContext::build(&dataset.rsn, &query)
                .ok()
                .flatten()
                .map(|c| c.core_size())
                .unwrap_or(0);
            println!("{:<14} {:>6} {:>10}", preset.label(), k, size);
        }
    }

    println!("\nFig. 11(d): memory overhead vs d (FL+Lastfm-like)");
    println!(
        "{:<6} {:>14} {:>14} {:>14}",
        "d", "Gd (MB)", "GS-NC (MB)", "LS-NC (MB)"
    );
    let dataset = build_preset_scaled(
        PresetName::FlLastfm,
        PresetScale {
            social: scale,
            road: scale,
        },
        0,
    );
    for &d in &[2usize, 3, 4, 5, 6] {
        let rsn = with_dimensionality(&dataset, d);
        let spec = QuerySpec {
            q: dataset.query_vertices(8),
            k: 16,
            t: dataset.default_t,
            j: 10,
            sigma: 0.01,
            d,
        };
        let query = spec.to_query();
        let gd_bytes = SearchContext::build(&rsn, &query)
            .ok()
            .flatten()
            .map(|c| c.gd.memory_bytes())
            .unwrap_or(0);
        let t = measure_all(&rsn, &spec);
        println!(
            "{:<6} {:>14.3} {:>14.3} {:>14.3}",
            d,
            gd_bytes as f64 / 1e6,
            t.gs_memory as f64 / 1e6,
            t.ls_memory as f64 / 1e6
        );
    }
}
