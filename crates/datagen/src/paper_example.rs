//! The running example of the paper (Fig. 1, Fig. 2 and Fig. 4).
//!
//! Fifteen users `v1..v15` (ids 0..14 here), fifteen road vertices `r1..r15`,
//! and the 3-dimensional attribute table of Fig. 2(a) for `v1..v7`. The road
//! weights are chosen so that the distances quoted in Section II hold:
//! `dist(r7, r6) = 7` (the query distance of `v7` for `Q = {v2, v3, v6}`) and
//! `dist(r3, r6) = 9` (the query distance of the community
//! `{v2, v3, v6, v7}`), and all of `r1..r7` lie within query distance 9 of
//! `{r2, r3, r6}` so that the maximal (3,9)-core is `{v1..v7}`.

use rsn_core::network::RoadSocialNetwork;
use rsn_geom::region::PrefRegion;
use rsn_graph::graph::Graph;
use rsn_road::network::{Location, RoadNetwork};

/// The social graph of Fig. 1(a). User `v_{i+1}` has id `i`.
pub fn paper_social_graph() -> Graph {
    let edges: &[(u32, u32)] = &[
        // dense cluster v1..v7 (ids 0..6)
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (1, 6),
        (2, 3),
        (2, 4),
        (2, 5),
        (2, 6),
        (3, 4),
        (4, 5),
        (5, 6),
        // periphery v8..v15 (ids 7..14)
        (6, 8),
        (7, 8),
        (8, 9),
        (8, 13),
        (9, 10),
        (9, 13),
        (10, 11),
        (11, 12),
        (12, 13),
        (13, 14),
    ];
    Graph::from_edges(15, edges)
}

/// The road network of Fig. 1(b). Road vertex `r_{i+1}` has id `i`.
fn paper_road_network() -> RoadNetwork {
    RoadNetwork::from_edges(
        15,
        &[
            (0, 1, 2.0), // r1 - r2
            (1, 2, 4.0), // r2 - r3
            (1, 5, 6.0), // r2 - r6
            (1, 3, 3.0), // r2 - r4
            (1, 4, 3.0), // r2 - r5
            (2, 5, 9.0), // r3 - r6 (the distance quoted in Section II)
            (2, 6, 3.0), // r3 - r7
            (5, 6, 7.0), // r6 - r7 (the query distance of v7)
            (4, 5, 4.0), // r5 - r6
            // periphery, far from the query area
            (6, 7, 12.0),  // r7 - r8
            (7, 8, 2.0),   // r8 - r9
            (8, 9, 2.0),   // r9 - r10
            (9, 10, 2.0),  // r10 - r11
            (10, 11, 2.0), // r11 - r12
            (11, 12, 2.0), // r12 - r13
            (12, 13, 2.0), // r13 - r14
            (13, 14, 2.0), // r14 - r15
            (8, 12, 3.0),  // r9 - r13
        ],
    )
}

/// The 3-dimensional attribute vectors of Fig. 2(a); peripheral users get
/// uniformly low values so they never influence the example communities.
fn paper_attributes() -> Vec<Vec<f64>> {
    let mut attrs = vec![
        vec![8.8, 3.6, 2.2], // v1
        vec![5.9, 6.2, 6.0], // v2
        vec![2.8, 5.6, 5.1], // v3
        vec![9.0, 3.3, 3.4], // v4
        vec![5.0, 7.6, 3.1], // v5
        vec![5.2, 8.3, 4.3], // v6
        vec![2.1, 5.0, 5.1], // v7
    ];
    for i in 0..8 {
        attrs.push(vec![1.0 + 0.1 * i as f64, 1.2, 1.5]);
    }
    attrs
}

/// The full road-social network of the running example: user `v_i` is located
/// on road vertex `r_i`.
pub fn paper_example_network() -> RoadSocialNetwork {
    let social = paper_social_graph();
    let road = paper_road_network();
    let locations: Vec<Location> = (0..15).map(Location::vertex).collect();
    RoadSocialNetwork::new(social, road, locations, paper_attributes())
        .expect("the paper example network is consistent by construction")
}

/// The region of interest of Fig. 2(b): `[0.1, 0.5] × [0.2, 0.4]`.
pub fn paper_region() -> PrefRegion {
    PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).expect("valid region")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::ktcore::maximal_kt_core;
    use rsn_core::query::MacQuery;
    use rsn_road::dijkstra::location_distance;

    #[test]
    fn example_distances_match_section_2() {
        let road = paper_road_network();
        // Q = {v2, v3, v6} -> road vertices r2, r3, r6 (ids 1, 2, 5)
        let q = [
            Location::vertex(1),
            Location::vertex(2),
            Location::vertex(5),
        ];
        // D_Q of a member set (Definition 2): the largest query-to-member
        // network distance.
        let road = &road;
        let dq = |members: &[Location]| {
            q.iter()
                .flat_map(|a| members.iter().map(move |b| location_distance(road, a, b)))
                .fold(0.0f64, f64::max)
        };
        let dq_of_vertex = |v: u32| dq(&[Location::vertex(v)]);
        assert!((dq_of_vertex(6) - 7.0).abs() < 1e-9, "DQ(v7) = 7");
        let h1 = [
            Location::vertex(1),
            Location::vertex(2),
            Location::vertex(5),
            Location::vertex(6),
        ];
        assert!((dq(&h1) - 9.0).abs() < 1e-9, "DQ(H1) = 9");
        // all of r1..r7 are within query distance 9
        for v in 0..7u32 {
            assert!(dq_of_vertex(v) <= 9.0 + 1e-9, "r{} too far", v + 1);
        }
        // the periphery is not
        assert!(dq_of_vertex(7) > 9.0);
    }

    #[test]
    fn maximal_3_9_core_is_v1_to_v7() {
        let rsn = paper_example_network();
        // Q = {v2, v3, v6} -> user ids 1, 2, 5
        let query = MacQuery::new(vec![1, 2, 5], 3, 9.0, paper_region());
        let core = maximal_kt_core(&rsn, &query).unwrap().unwrap();
        assert_eq!(core.vertices, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn example_1_subgraphs_are_cores() {
        let g = paper_social_graph();
        // {v2, v3, v6, v7} (ids 1, 2, 5, 6) forms a 3-core (a K4)
        let (sub, _) = g.induced_subgraph(&[1, 2, 5, 6]);
        assert!((0..4u32).all(|v| sub.degree(v) >= 3));
        // {v2..v6} (ids 1..5) forms a 3-core as well
        let (sub2, _) = g.induced_subgraph(&[1, 2, 3, 4, 5]);
        assert!((0..5u32).all(|v| sub2.degree(v) >= 3));
    }
}
