//! Quickstart: serve MAC queries on the paper's running example (Fig. 1/2)
//! through the prepared-engine API — build a [`MacEngine`] once, open a
//! [`QuerySession`], execute many queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use road_social_mac::core::{AlgorithmChoice, MacEngine, MacQuery};
use road_social_mac::datagen::paper_example::{paper_example_network, paper_region};

fn main() {
    // The 15-user road-social network of Fig. 1 with the attributes of
    // Fig. 2(a), prepared once: the engine owns the network and (on indexed
    // networks) groups the user locations by G-tree leaf at build time.
    let engine = MacEngine::build(paper_example_network());
    let mut session = engine.session();

    // Example 2 of the paper: Q = {v2, v3, v6}, k = 3, t = 9,
    // R = [0.1, 0.5] x [0.2, 0.4], top-2 MACs.
    let query = MacQuery::new(vec![1, 2, 5], 3, 9.0, paper_region()).with_top_j(2);

    let global = session.execute(&query).expect("valid query");
    println!(
        "GS-T: {} partition(s) of R, {} distinct communities, (k,t)-core size {}",
        global.num_cells(),
        global.distinct_communities().len(),
        global.stats.kt_core_vertices
    );
    for (i, cell) in global.cells.iter().enumerate() {
        let users: Vec<String> = cell.communities[0]
            .vertices
            .iter()
            .map(|v| format!("v{}", v + 1))
            .collect();
        println!(
            "  partition {i}: sample weights {:?} -> top-1 MAC {{{}}}",
            cell.sample_weight,
            users.join(", ")
        );
    }

    // The same session serves the local framework: just ask for it. At
    // j = 1 the query asks for the non-contained MAC (Problem 2).
    let local_query = query.with_top_j(1).with_algorithm(AlgorithmChoice::Local);
    let local = session.execute(&local_query).expect("valid query");
    println!(
        "LS-NC: {} non-contained MAC(s) found in {:.4}s (global took {:.4}s; {} queries served)",
        local.distinct_communities().len(),
        local.stats.elapsed_seconds,
        global.stats.elapsed_seconds,
        session.queries_executed(),
    );
}
