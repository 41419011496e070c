//! Cohesive group discovery in an LBSN (Section I): given confirmed cases,
//! find spatially close, socially cohesive groups ranked by contact-risk
//! attributes (interaction similarity and influence), using the local search
//! so results stream out quickly.
//!
//! ```text
//! cargo run --release --example contact_tracing
//! ```

use road_social_mac::core::{
    AlgorithmChoice, ExecutionPolicy, MacEngine, MacQuery, RoadSocialNetwork,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;

fn main() {
    // A city district: 2,000 residents, a couple of tightly connected venues
    // (the planted groups), and a road network they move on.
    let social = generate_social(&SocialConfig {
        n: 2_000,
        attach_m: 3,
        planted: vec![
            PlantedGroup {
                size: 40,
                degree: 12,
            },
            PlantedGroup {
                size: 25,
                degree: 8,
            },
        ],
        seed: 7,
    });
    let road = generate_road(&RoadConfig::with_size(1_600, 7));
    // two risk attributes per resident: Jaccard similarity of hangouts with
    // the confirmed cases, and social influence (#neighbours, normalized)
    let attrs = generate_attrs(2_000, 2, AttrDistribution::Correlated, 1.0, 7);
    let locations = assign_locations(&road, 2_000, &social.groups, &LocationConfig::default());
    let rsn = RoadSocialNetwork::new(social.graph, road, locations, attrs).unwrap();

    // The health authority serves many tracing queries against the same
    // district, so the network is prepared once and queries stream through a
    // reused session.
    let engine = MacEngine::build_with_policy(rsn, ExecutionPolicy::new().with_max_candidates(64));
    let mut session = engine.session();

    // Two confirmed cases from the first venue; possible contacts must be
    // within road distance 20 and form a 4-core with them. The investigator
    // cannot pin exact attribute weights, only a rough region. The local
    // framework streams results out quickly.
    let cases = vec![social.groups[0][0], social.groups[0][5]];
    let region = PrefRegion::from_ranges(&[(0.3, 0.7)]).unwrap();
    let query =
        MacQuery::new(cases.clone(), 4, 20.0, region).with_algorithm(AlgorithmChoice::Local);

    let result = session.execute(&query).expect("valid query");

    println!("Confirmed cases: {:?}", cases);
    if result.is_empty() {
        println!("no cohesive contact group found within distance 20");
        return;
    }
    println!(
        "{} candidate contact group(s) found in {:.4}s ((k,t)-core of {} residents):",
        result.distinct_communities().len(),
        result.stats.elapsed_seconds,
        result.stats.kt_core_vertices
    );
    for c in result.distinct_communities() {
        println!("  group of {} residents: {:?}", c.len(), c.vertices);
    }
}
