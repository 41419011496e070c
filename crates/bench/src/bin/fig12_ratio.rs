//! Figure 12: ratio of non-contained MACs found by LS-NC to those found by
//! GS-NC, varying k (a) and |Q| (b) on the FL+Lastfm-like preset.
//!
//! ```text
//! cargo run -p rsn-bench --release --bin fig12_ratio [-- --scale 0.2]
//! ```

use rsn_bench::arg_value;
use rsn_bench::runner::{measure_all, QuerySpec};
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = arg_value(&args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.2);
    let dataset = build_preset_scaled(
        PresetName::FlLastfm,
        PresetScale {
            social: scale,
            road: scale,
        },
        0,
    );

    println!("Fig. 12(a): ratio of NC-MACs found by LS-NC to GS-NC, varying k");
    println!("{:>6} {:>8} {:>8} {:>8}", "k", "GS-NC", "LS-NC", "ratio");
    for &k in &[4u32, 8, 16, 32, 64] {
        let spec = QuerySpec::defaults(&dataset, k, dataset.default_t, 10, 0.01, 3);
        let t = measure_all(&dataset.rsn, &spec);
        print_ratio_row(&format!("{k}"), &t);
    }

    println!("\nFig. 12(b): ratio varying |Q|");
    println!("{:>6} {:>8} {:>8} {:>8}", "|Q|", "GS-NC", "LS-NC", "ratio");
    for &qs in &[1usize, 4, 8, 16, 32] {
        let spec = QuerySpec {
            q: dataset.query_vertices(qs),
            ..QuerySpec::defaults(&dataset, 16, dataset.default_t, 10, 0.01, 3)
        };
        let t = measure_all(&dataset.rsn, &spec);
        print_ratio_row(&format!("{qs}"), &t);
    }
}

fn print_ratio_row(value: &str, t: &rsn_bench::runner::AlgoTimings) {
    let ratio = if t.gs_nc_communities == 0 {
        1.0
    } else {
        t.ls_nc_communities as f64 / t.gs_nc_communities as f64
    };
    println!(
        "{:>6} {:>8} {:>8} {:>7.0}%",
        value,
        t.gs_nc_communities,
        t.ls_nc_communities,
        100.0 * ratio
    );
}
