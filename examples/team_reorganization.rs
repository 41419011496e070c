//! Personalized optimum community search (Section I): a coach reorganizes a
//! basketball team around certain players, weighting points / rebounds /
//! assists according to an imprecise preference region.
//!
//! ```text
//! cargo run --release --example team_reorganization
//! ```

use road_social_mac::core::{MacEngine, MacQuery, RoadSocialNetwork};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;

fn main() {
    // A school-sized social network: 400 players/students, one tight-knit
    // varsity squad (the planted group) plus loose acquaintances.
    let social = generate_social(&SocialConfig {
        n: 400,
        attach_m: 3,
        planted: vec![PlantedGroup {
            size: 30,
            degree: 10,
        }],
        seed: 42,
    });
    let road = generate_road(&RoadConfig::with_size(400, 42));
    // points / rebounds / assists per player
    let attrs = generate_attrs(400, 3, AttrDistribution::Independent, 30.0, 42);
    let locations = assign_locations(&road, 400, &social.groups, &LocationConfig::default());
    let rsn = RoadSocialNetwork::new(social.graph, road, locations, attrs).unwrap();

    // One prepared engine serves every what-if roster query the coach tries.
    let engine = MacEngine::build(rsn);
    let mut session = engine.session();

    // The coach builds the team around two key players from the varsity squad,
    // cares mostly about offense (points weight 0.4-0.6), and limits the
    // search to players living close to the school (t = 25).
    let anchors = vec![social.groups[0][0], social.groups[0][1]];
    let region = PrefRegion::from_ranges(&[(0.4, 0.6), (0.15, 0.3)]).unwrap();
    let query = MacQuery::new(anchors.clone(), 6, 25.0, region).with_top_j(3);

    let result = session.execute(&query).expect("valid query");
    println!(
        "Rebuilding the team around players {:?} (k = 6, t = 25):",
        anchors
    );
    if result.is_empty() {
        println!("no team satisfies the constraints — relax k or t");
        return;
    }
    for (i, cell) in result.cells.iter().enumerate() {
        println!(
            "preference sub-region {i} (sample weights {:?}):",
            cell.sample_weight
        );
        for (rank, c) in cell.communities.iter().enumerate() {
            println!(
                "  top-{} roster ({} players): {:?}",
                rank + 1,
                c.len(),
                c.vertices
            );
        }
    }
}
