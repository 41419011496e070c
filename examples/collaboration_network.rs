//! The Aminer-style scenario from the introduction: find collaborator groups
//! around query researchers that trade off h-index, publication count,
//! activeness and diverseness, comparing the MAC answer with the skyline
//! community and influential community baselines (cf. Fig. 15).
//!
//! ```text
//! cargo run --release --example collaboration_network
//! ```

use road_social_mac::baselines::influ::Influ;
use road_social_mac::baselines::sky::skyline_communities;
use road_social_mac::core::{MacEngine, MacQuery, SearchContext};
use road_social_mac::datagen::presets::{build_preset_scaled, PresetName, PresetScale};
use road_social_mac::geom::PrefRegion;

fn main() {
    let dataset = build_preset_scaled(
        PresetName::AminerNa,
        PresetScale {
            social: 0.3,
            road: 0.3,
        },
        0,
    );
    // Prepare the collaboration network once; the engine is what a service
    // would keep warm between author queries.
    let engine = MacEngine::build(dataset.rsn.clone());
    let mut session = engine.session();
    let epoch = engine.epoch();
    let rsn = epoch.network();

    // Four senior researchers (co-located, high coreness) as query authors;
    // the user mostly cares about activeness (attribute 3) but cannot commit
    // to exact weights for h-index / #publications / diverseness.
    let authors = dataset.query_vertices(4);
    let region =
        PrefRegion::from_ranges(&[(0.1, 0.3), (0.3, 0.5), (0.05, 0.1)]).expect("valid region");
    let query = MacQuery::new(authors.clone(), 5, dataset.default_t, region).with_top_j(2);

    println!("Query researchers: {:?} (k = 5)", authors);
    let result = session.execute(&query).expect("valid query");
    for (i, cell) in result.cells.iter().enumerate().take(3) {
        println!("preference partition {i}:");
        for (rank, c) in cell.communities.iter().enumerate() {
            println!("  top-{} collaborator group: {} members", rank + 1, c.len());
        }
    }

    // Baselines for contrast (cf. Fig. 15 e-g): the skyline community ignores
    // user preferences, the influential community collapses everything to one
    // score.
    if let Some(ctx) = SearchContext::build(rsn, &query).expect("valid query") {
        let sky = skyline_communities(&ctx.local_graph, &ctx.attrs, 5, None)
            .expect("no deadline, so the search completes");
        println!(
            "SkyC finds {} skyline communities (query-agnostic)",
            sky.len()
        );
        let influ = Influ::new(&ctx.local_graph, &ctx.attrs);
        let top = influ.top_r(5, 1, query.region.pivot().reduced());
        if let Some(c) = top.first() {
            println!(
                "InfC with the pivot weights returns one community of {} members",
                c.vertices.len()
            );
        }
    }
}
