//! Workload inputs: the fixed networks, the seeded query populations and
//! traffic deltas, and the answer digests the correctness checks compare.

use rand::prelude::*;
use rand::rngs::StdRng;
use rsn_core::{AlgorithmChoice, MacQuery, MacSearchResult, NetworkDelta, RoadSocialNetwork};
use rsn_datagen::attrs::{generate_attrs, AttrDistribution};
use rsn_datagen::locations::{assign_locations, LocationConfig};
use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};
use rsn_datagen::road::{generate_road, RoadConfig};
use rsn_datagen::social::{generate_social, PlantedGroup, SocialConfig};
use rsn_geom::region::PrefRegion;
use rsn_geom::weights::WeightVector;
use rsn_road::network::Location;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A generated network without a G-tree index (set-up adds the index), the
/// users the workload's queries start from, and the users deltas never move.
pub struct Network {
    pub rsn: RoadSocialNetwork,
    /// The planted group query users are drawn from.
    pub group: Vec<u32>,
    /// Users a delta may move: everyone outside every planted group.
    pub movable: Vec<u32>,
    /// Mean road-edge weight, the unit of `t` on grid networks.
    pub avg_edge_weight: f64,
    /// The preset's default query distance (FL preset only).
    pub default_t: f64,
}

/// Network generation is fixed per workload; the run seed drives only the
/// queries, arrivals and deltas, so runs with different seeds measure the
/// same dataset under different query streams.
const NETWORK_SEED: u64 = 29;

fn movable_users(n: usize, groups: &[Vec<u32>]) -> Vec<u32> {
    let mut planted = vec![false; n];
    for &v in groups.iter().flatten() {
        planted[v as usize] = true;
    }
    (0..n as u32).filter(|&v| !planted[v as usize]).collect()
}

fn avg_edge_weight(rsn: &RoadSocialNetwork) -> f64 {
    let m = rsn.road().num_edges().max(1);
    rsn.road().edges().map(|(_, _, w)| w).sum::<f64>() / m as f64
}

/// FL+Flixster-like preset with the road network scaled by three: 8,000
/// users and about 10.8k road vertices.
pub fn flixster_x3() -> Network {
    let dataset = build_preset_scaled(
        PresetName::FlFlixster,
        PresetScale {
            social: 1.0,
            road: 3.0,
        },
        NETWORK_SEED,
    );
    let movable = movable_users(dataset.rsn.num_users(), &dataset.deep_groups);
    Network {
        avg_edge_weight: avg_edge_weight(&dataset.rsn),
        group: dataset.deep_groups[0].clone(),
        movable,
        default_t: dataset.default_t,
        rsn: dataset.rsn,
    }
}

/// A 10k-vertex road grid with 2,000 users and one planted group of 18.
pub fn grid_10k() -> Network {
    let (n_road, n_users) = (10_000, 2_000);
    let road = generate_road(&RoadConfig::with_size(n_road, NETWORK_SEED));
    let social = generate_social(&SocialConfig {
        n: n_users,
        attach_m: 3,
        planted: vec![PlantedGroup {
            size: 18,
            degree: 6,
        }],
        seed: NETWORK_SEED,
    });
    let attrs = generate_attrs(
        n_users,
        3,
        AttrDistribution::Independent,
        10.0,
        NETWORK_SEED,
    );
    let locations = assign_locations(
        &road,
        n_users,
        &social.groups,
        &LocationConfig {
            clusters: 8,
            radius: 5,
            seed: NETWORK_SEED,
        },
    );
    let movable = movable_users(n_users, &social.groups);
    let group = social.groups[0].clone();
    let rsn = RoadSocialNetwork::new(social.graph, road, locations, attrs)
        .expect("datagen output is consistent");
    Network {
        avg_edge_weight: avg_edge_weight(&rsn),
        group,
        movable,
        default_t: 0.0,
        rsn,
    }
}

/// A stratum of the Table-III neighbourhood used on the FL network: |Q| and
/// `t` as a factor of the preset's default. Each draw within a stratum picks
/// σ ∈ {0.01, 0.05} and the problem (j = 1 is GS-NC, j = 10 is GS-T).
#[derive(Debug, Clone, Copy)]
pub struct Stratum {
    pub q_len: usize,
    pub t_factor: f64,
}

/// |Q| ∈ {4, 8} × t ∈ {1.0, 1.4, 2.0}× default: six strata.
pub const STRATA: [Stratum; 6] = [
    Stratum {
        q_len: 4,
        t_factor: 1.0,
    },
    Stratum {
        q_len: 4,
        t_factor: 1.4,
    },
    Stratum {
        q_len: 4,
        t_factor: 2.0,
    },
    Stratum {
        q_len: 8,
        t_factor: 1.0,
    },
    Stratum {
        q_len: 8,
        t_factor: 1.4,
    },
    Stratum {
        q_len: 8,
        t_factor: 2.0,
    },
];

/// `len` distinct members of `group`, drawn from `rng`.
pub fn pick_users(group: &[u32], len: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut users = group.to_vec();
    users.shuffle(rng);
    users.truncate(len);
    users.sort_unstable();
    users
}

fn region(d: usize, sigma: f64) -> PrefRegion {
    let center = WeightVector::uniform(d).expect("d >= 1");
    PrefRegion::around(&center, sigma).expect("valid region")
}

/// A k = 16 global-search query of one stratum on the FL network; users, σ
/// and the problem drawn by `rng`.
pub fn stratum_query(net: &Network, stratum: Stratum, rng: &mut StdRng) -> MacQuery {
    let sigma = if rng.random_bool(0.5) { 0.01 } else { 0.05 };
    let j = if rng.random_bool(0.5) { 1 } else { 10 };
    MacQuery::new(
        pick_users(&net.group, stratum.q_len, rng),
        16,
        net.default_t * stratum.t_factor,
        region(net.rsn.attribute_dim(), sigma),
    )
    .with_top_j(j)
    .with_algorithm(AlgorithmChoice::Global)
}

/// A read query of the grid workload for population slot `i`: |Q| =
/// 1 + i mod 3 planted users, t = {40, 50, 60}[(i / 3) mod 3] mean edge
/// weights, k = 4, σ = 0.05, GS-NC; the users drawn by `rng`.
pub fn grid_query(net: &Network, i: usize, rng: &mut StdRng) -> MacQuery {
    MacQuery::new(
        pick_users(&net.group, 1 + i % 3, rng),
        4,
        net.avg_edge_weight * [40.0, 50.0, 60.0][(i / 3) % 3],
        region(net.rsn.attribute_dim(), 0.05),
    )
    .with_algorithm(AlgorithmChoice::Global)
}

/// Largest on-edge user offset per road edge (in `edges()` order): a reweight
/// never goes below it, so no user is stranded past the end of its edge.
pub fn edge_floors(rsn: &RoadSocialNetwork) -> Vec<f64> {
    let mut floor: std::collections::HashMap<(u32, u32), f64> = Default::default();
    for loc in rsn.locations() {
        if let Location::OnEdge { u, v, offset } = *loc {
            let key = (u.min(v), u.max(v));
            let f = floor.entry(key).or_insert(0.0);
            *f = f.max(offset);
        }
    }
    rsn.road()
        .edges()
        .map(|(u, v, _)| floor.get(&(u.min(v), u.max(v))).copied().unwrap_or(0.0))
        .collect()
}

/// Seeded traffic deltas: each reweights 4 consecutive road edges (one
/// spatial window of the grid's row-major numbering) to a seeded ±10% of
/// their base weight, never below the edge's on-edge floor, and moves 4
/// seeded users outside the planted groups to seeded road vertices (so a move
/// never strands a user on an edge, and the planted communities stay
/// intact). Window `i` starts at `radical_inverse(i)` of the edge list, the
/// same for every seed: a window's refresh cost varies by more than ten
/// times with where it lies, and fixed windows, spread evenly by any run of
/// consecutive deltas, keep the update latencies of two runs comparable.
pub struct DeltaSchedule {
    edges: Vec<(u32, u32, f64)>,
    floors: Vec<f64>,
    movable: Vec<u32>,
    road_vertices: u32,
    rng: StdRng,
    issued: u32,
}

pub const DELTA_REWEIGHTS: usize = 4;
pub const DELTA_MOVES: usize = 4;

impl DeltaSchedule {
    pub fn new(net: &Network, seed: u64) -> Self {
        DeltaSchedule {
            edges: net.rsn.road().edges().collect(),
            floors: edge_floors(&net.rsn),
            movable: net.movable.clone(),
            road_vertices: net.rsn.road().num_vertices() as u32,
            rng: StdRng::seed_from_u64(seed ^ 0xDE17A),
            issued: 0,
        }
    }

    pub fn next_delta(&mut self) -> NetworkDelta {
        let mut delta = NetworkDelta::new();
        // Base-2 radical inverse of the delta's index: 0, 1/2, 1/4, 3/4, ...
        let inverse = f64::from(self.issued.reverse_bits()) / 2f64.powi(32);
        self.issued += 1;
        let span = (self.edges.len() - DELTA_REWEIGHTS) as f64;
        let first = (inverse * span) as usize;
        for i in first..first + DELTA_REWEIGHTS {
            let (u, v, base) = self.edges[i];
            let w = (base * self.rng.random_range(0.9..1.1)).max(self.floors[i]);
            delta = delta.reweight_edge(u, v, w);
        }
        for _ in 0..DELTA_MOVES {
            let user = self.movable[self.rng.random_range(0..self.movable.len())];
            let to = self.rng.random_range(0..self.road_vertices);
            delta = delta.move_user(user, Location::vertex(to));
        }
        delta
    }
}

/// Applies a delta to a plain network the way the engine does: reweights
/// first, then moves.
pub fn apply_to_network(rsn: &mut RoadSocialNetwork, delta: &NetworkDelta) {
    rsn.apply_edge_updates(&delta.edge_updates)
        .expect("scheduled reweights apply");
    for &(user, location) in &delta.user_moves {
        rsn.set_user_location(user, location)
            .expect("scheduled moves apply");
    }
}

/// A digest of everything two answers are compared on: every cell's sample
/// weight (bit-exact) and its communities' members, in order.
pub fn digest(result: &MacSearchResult) -> u64 {
    let mut h = DefaultHasher::new();
    result.cells.len().hash(&mut h);
    for cell in &result.cells {
        for w in &cell.sample_weight {
            w.to_bits().hash(&mut h);
        }
        cell.communities.len().hash(&mut h);
        for community in &cell.communities {
            community.vertices.hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::MacEngine;

    #[test]
    fn scheduled_deltas_apply_cleanly_and_strand_no_user() {
        let net = grid_10k();
        let mut schedule = DeltaSchedule::new(&net, 7);
        let engine = MacEngine::build_uncalibrated(net.rsn.clone().with_gtree_index_capacity(128));
        let mut shadow = net.rsn.clone();
        let planted: std::collections::HashSet<u32> = net.group.iter().copied().collect();
        for _ in 0..40 {
            let delta = schedule.next_delta();
            assert_eq!(delta.edge_updates.len(), DELTA_REWEIGHTS);
            assert!(delta.user_moves.iter().all(|(u, _)| !planted.contains(u)));
            engine.apply_updates(&delta).expect("delta applies");
            apply_to_network(&mut shadow, &delta);
        }
        let served = engine.epoch();
        for (user, loc) in served.network().locations().iter().enumerate() {
            if let Location::OnEdge { u, v, offset } = *loc {
                let w = served.network().road().edge_weight(u, v).unwrap();
                assert!(offset <= w, "user {user} stranded: {offset} > {w}");
            }
        }
        assert_eq!(served.network().locations(), shadow.locations());
    }

    #[test]
    fn equal_seeds_give_equal_inputs() {
        let net = grid_10k();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8)
                .map(|i| grid_query(&net, i, &mut rng).q)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let mut s1 = DeltaSchedule::new(&net, 5);
        let mut s2 = DeltaSchedule::new(&net, 5);
        for _ in 0..5 {
            let (d1, d2) = (s1.next_delta(), s2.next_delta());
            assert_eq!(d1.user_moves, d2.user_moves);
            let w = |d: &NetworkDelta| {
                d.edge_updates
                    .iter()
                    .map(|e| e.weight.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(w(&d1), w(&d2));
        }
    }
}
