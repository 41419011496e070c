//! Check-in style location assignment.
//!
//! The paper maps every social user to a road-network point drawn from recent
//! check-ins, which cluster around hotspots. We reproduce that by sampling a
//! set of cluster centres on the road network and placing each user on a road
//! vertex a small (geometrically distributed) number of hops away from its
//! cluster centre. Planted social groups are kept spatially tight so that a
//! (k,t)-core actually exists for reasonable `t`.

use rand::prelude::*;
use rand::rngs::StdRng;
use rsn_graph::graph::VertexId;
use rsn_road::network::{Location, RoadNetwork};
use std::collections::VecDeque;

/// Configuration for the location assignment.
#[derive(Debug, Clone)]
pub struct LocationConfig {
    /// Number of check-in hotspots.
    pub clusters: usize,
    /// Maximum BFS radius (in hops) around a hotspot.
    pub radius: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LocationConfig {
    fn default() -> Self {
        LocationConfig {
            clusters: 16,
            radius: 6,
            seed: 0,
        }
    }
}

/// Assigns one road location to every user. Users listed in `tight_groups`
/// are placed inside the BFS ball of a single hotspot per group, which keeps
/// each group's pairwise road distances small.
pub fn assign_locations(
    road: &RoadNetwork,
    n_users: usize,
    tight_groups: &[Vec<VertexId>],
    cfg: &LocationConfig,
) -> Vec<Location> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_road = road.num_vertices().max(1) as u32;
    let centers: Vec<u32> = (0..cfg.clusters.max(1))
        .map(|_| rng.random_range(0..n_road))
        .collect();
    let balls: Vec<Vec<u32>> = centers
        .iter()
        .map(|&c| bfs_ball(road, c, cfg.radius))
        .collect();

    let mut locations: Vec<Location> = (0..n_users)
        .map(|_| {
            let ball = &balls[rng.random_range(0..balls.len())];
            Location::vertex(ball[rng.random_range(0..ball.len())])
        })
        .collect();

    // Tight groups: one dedicated hotspot per group, small radius.
    for (gi, group) in tight_groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let center = centers[gi % centers.len()];
        let ball = bfs_ball(road, center, 2.max(cfg.radius / 3));
        for &u in group {
            if (u as usize) < n_users {
                locations[u as usize] = Location::vertex(ball[rng.random_range(0..ball.len())]);
            }
        }
    }
    locations
}

/// Road vertices within `radius` hops of `center` (always contains `center`).
fn bfs_ball(road: &RoadNetwork, center: u32, radius: usize) -> Vec<u32> {
    let mut dist = vec![usize::MAX; road.num_vertices()];
    let mut out = vec![center];
    let mut queue = VecDeque::new();
    dist[center as usize] = 0;
    queue.push_back(center);
    while let Some(v) = queue.pop_front() {
        if dist[v as usize] >= radius {
            continue;
        }
        for &(u, _) in road.neighbors(v) {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = dist[v as usize] + 1;
                out.push(u);
                queue.push_back(u);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::{generate_road, RoadConfig};
    use rsn_road::dijkstra::{location_distance, sssp_from_location};

    #[test]
    fn assigns_one_location_per_user() {
        let road = generate_road(&RoadConfig::with_size(400, 3));
        let locations = assign_locations(&road, 1000, &[], &LocationConfig::default());
        assert_eq!(locations.len(), 1000);
        for loc in &locations {
            assert!(road.validate_location(loc).is_ok());
        }
    }

    #[test]
    fn tight_groups_are_spatially_close() {
        let road = generate_road(&RoadConfig::with_size(900, 5));
        let group: Vec<u32> = (0..40).collect();
        let locations = assign_locations(
            &road,
            500,
            std::slice::from_ref(&group),
            &LocationConfig {
                clusters: 10,
                radius: 8,
                seed: 2,
            },
        );
        // the pairwise query distance within the tight group stays bounded
        let group_locs: Vec<_> = group.iter().map(|&u| locations[u as usize]).collect();
        let dq = group_locs[..3]
            .iter()
            .flat_map(|q| group_locs.iter().map(move |m| (q, m)))
            .map(|(q, m)| location_distance(&road, q, m))
            .fold(0.0f64, f64::max);
        assert!(dq.is_finite());
        // and it is much smaller than the network diameter proxy
        let diameter_proxy = sssp_from_location(&road, &group_locs[0], None)
            .into_iter()
            .fold(0.0f64, f64::max);
        assert!(dq <= diameter_proxy);
    }
}
