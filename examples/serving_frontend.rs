//! Serving front-end: run the paper's running example (Fig. 1/2) behind a
//! threaded [`MacServer`] — a bounded request queue feeding worker threads
//! that each own a pinned, answer-cached [`QuerySession`] — while identical
//! in-flight requests coalesce into one execution and a background thread
//! applies live road-network updates.
//!
//! ```text
//! cargo run --release --example serving_frontend
//! ```

use road_social_mac::core::{MacQuery, NetworkDelta, QueryBudget};
use road_social_mac::datagen::paper_example::{paper_example_network, paper_region};
use road_social_mac::prelude::*;
use std::time::Duration;

fn main() {
    // One engine per network; the server clones the Arc-shared handle into
    // every worker.
    let engine = MacEngine::build(paper_example_network());

    let server = MacServer::start(
        engine.clone(),
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            coalescing: true,
            context_cache_capacity: 16,
            ..ServeConfig::default()
        },
    );

    // Example 2 of the paper: Q = {v2, v3, v6}, k = 3, t = 9, top-2 MACs.
    let query = MacQuery::new(vec![1, 2, 5], 3, 9.0, paper_region()).with_top_j(2);

    // A burst of identical requests: the first to reach a worker executes,
    // the rest join its in-flight cell and share the answer.
    let handles: Vec<_> = (0..8)
        .map(|_| server.submit(query.clone()).expect("server accepts"))
        .collect();
    for (i, handle) in handles.iter().enumerate() {
        let response = handle.wait();
        let outcome = response.outcome.as_ref().expect("query serves");
        println!(
            "response {i}: {} in {:?} (epoch {}, worker {:?})",
            outcome.summary(),
            response.latency,
            response.epoch,
            response.worker,
        );
    }

    // A deadline measured from *submission*: if the request burns its budget
    // in the queue, the worker degrades it to a valid partial prefix instead
    // of erroring.
    let tight = QueryBudget::new().with_deadline(Duration::from_micros(50));
    let response = server
        .submit_with_budget(query.clone(), tight)
        .expect("server accepts")
        .wait();
    println!(
        "tight deadline: {}",
        response
            .outcome
            .as_ref()
            .expect("degrades, never errors")
            .summary()
    );

    // Live update mid-serving: at their next lookup the workers' caches drop
    // every entry the update could have changed, so the next responses
    // answer on the new network.
    engine
        .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 3.0))
        .expect("delta applies");
    let response = server.submit(query).expect("server accepts").wait();
    println!(
        "after update: {} (epoch {})",
        response.outcome.as_ref().expect("query serves").summary(),
        response.epoch,
    );

    let stats = server.shutdown();
    println!("server: {stats}");
}
