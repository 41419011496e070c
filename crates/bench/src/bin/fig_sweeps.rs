//! Figures 6–10: efficiency and scalability of GS-T / GS-NC / LS-T / LS-NC on
//! one road-social preset, varying k, t, d, |Q|, j and σ (Table III).
//!
//! ```text
//! cargo run -p rsn-bench --release --bin fig_sweeps -- --preset sf_slashdot [--scale 0.2] [--full]
//! ```
//!
//! Each row prints the wall-clock seconds of the four algorithms; the paper's
//! claim to reproduce is the *shape*: LS is roughly an order of magnitude
//! faster than GS at the defaults, the gap narrows as k grows, and all
//! algorithms get more expensive with d, j and σ.

use rsn_bench::arg_value;
use rsn_bench::params::ParamSpace;
use rsn_bench::runner::{measure_all, with_dimensionality, QuerySpec};
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let preset = arg_value(&args, "--preset")
        .and_then(PresetName::parse)
        .unwrap_or(PresetName::SfSlashdot);
    let scale: f64 = arg_value(&args, "--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);
    let full = args.iter().any(|a| a == "--full");

    let dataset = build_preset_scaled(
        preset,
        PresetScale {
            social: scale,
            road: scale,
        },
        0,
    );
    let params = if full {
        ParamSpace::paper(dataset.default_t)
    } else {
        ParamSpace::quick(dataset.default_t)
    };
    let d_default = dataset.rsn.attribute_dim();
    let defaults = QuerySpec::defaults(
        &dataset,
        params.k.default_value(),
        params.t.default_value(),
        params.j.default_value(),
        params.sigma.default_value(),
        d_default,
    );

    println!("Figures 6-10 sweep on {} (scale {scale})", preset.label());
    println!(
        "defaults: k={} t={:.1} d={} |Q|={} j={} sigma={}",
        defaults.k,
        defaults.t,
        defaults.d,
        defaults.q.len(),
        defaults.j,
        defaults.sigma
    );
    println!();

    let header = format!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "value", "GS-NC(s)", "GS-T(s)", "LS-NC(s)", "LS-T(s)", "|Htk|", "NC-MACs"
    );

    // (a) varying k
    println!("(a) varying k");
    println!("{header}");
    for &k in &params.k.values {
        let spec = QuerySpec {
            k,
            ..defaults.clone()
        };
        print_row(&format!("{k}"), &measure_all(&dataset.rsn, &spec));
    }

    // (b) varying t
    println!("\n(b) varying t");
    println!("{header}");
    for &t in &params.t.values {
        let spec = QuerySpec {
            t,
            ..defaults.clone()
        };
        print_row(&format!("{t:.0}"), &measure_all(&dataset.rsn, &spec));
    }

    // (c) varying d
    println!("\n(c) varying d");
    println!("{header}");
    for &d in &params.d.values {
        let rsn = with_dimensionality(&dataset, d);
        let spec = QuerySpec {
            d,
            ..defaults.clone()
        };
        print_row(&format!("{d}"), &measure_all(&rsn, &spec));
    }

    // (d) varying |Q|
    println!("\n(d) varying |Q|");
    println!("{header}");
    for &qs in &params.q_size.values {
        let spec = QuerySpec {
            q: dataset.query_vertices(qs),
            ..defaults.clone()
        };
        print_row(&format!("{qs}"), &measure_all(&dataset.rsn, &spec));
    }

    // (e) varying j (GS-T / LS-T only, like Fig. 6(e))
    println!("\n(e) varying j");
    println!("{header}");
    for &j in &params.j.values {
        let spec = QuerySpec {
            j,
            ..defaults.clone()
        };
        print_row(&format!("{j}"), &measure_all(&dataset.rsn, &spec));
    }

    // (f) varying sigma
    println!("\n(f) varying sigma");
    println!("{header}");
    for &sigma in &params.sigma.values {
        let spec = QuerySpec {
            sigma,
            ..defaults.clone()
        };
        print_row(&format!("{sigma}"), &measure_all(&dataset.rsn, &spec));
    }
}

fn print_row(value: &str, t: &rsn_bench::runner::AlgoTimings) {
    println!(
        "{:>10} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>8} {:>8}",
        value, t.gs_nc, t.gs_t, t.ls_nc, t.ls_t, t.kt_core_size, t.gs_nc_communities
    );
}
