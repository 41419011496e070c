//! Query-distance evaluation (Definition 2) and the Lemma-1 range filter.
//!
//! For query users `Q` located at points `L(q)` in the road network, the query
//! distance of a user `v` is `D_Q(v) = max_{q ∈ Q} dist(L(v), L(q))`, and the
//! query distance of a community `H` is the maximum over its members. Lemma 1
//! states that users with `D_Q(v) > t` can never belong to an MAC, so the MAC
//! search first filters the social network with a road-network range query.
//!
//! [`QueryDistanceIndex`] answers all of these questions through either
//! backend of the [`DistanceOracle`]:
//!
//! * **Dijkstra**: one (bounded) SSSP per query location, materialized into a
//!   flat row-major `|Q| × |V|` distance matrix; evaluation then indexes the
//!   matrix. One allocation for the matrix, scratch state pooled.
//! * **G-tree**: no fields at all — each evaluation assembles the exact
//!   distance from the G-tree's border matrices, reusing one precomputed
//!   source-side climb per query location. This is the paper's accelerator:
//!   with `|Q|` locations probed against `m ≪ |V|·|Q|` user locations, point
//!   queries beat sweeping the whole road network.

use crate::budget::BudgetTicker;
use crate::dijkstra::distance_to_location;
use crate::gtree::{GTree, SourceState};
use crate::network::{Location, RoadNetwork};
use crate::oracle::{along_edge_distance, location_seeds, DistanceOracle, ScratchPool};

/// One query location prepared for repeated G-tree point queries: the seeds
/// (`(vertex, offset)` pairs) with their precomputed source-side climbs.
#[derive(Debug, Clone)]
struct GTreeSource {
    location: Location,
    seeds: Vec<(SourceState, f64)>,
}

#[derive(Debug, Clone)]
enum Backend<'a> {
    /// Row-major `num_queries × num_vertices` distance matrix.
    Fields {
        matrix: Vec<f64>,
        num_vertices: usize,
    },
    /// Prepared per-query-location G-tree states.
    GTree {
        tree: &'a GTree,
        sources: Vec<GTreeSource>,
    },
}

/// Distance fields / point-query states from every query location.
#[derive(Debug, Clone)]
pub struct QueryDistanceIndex<'a> {
    net: &'a RoadNetwork,
    query_locations: Vec<Location>,
    backend: Backend<'a>,
    bound: Option<f64>,
}

impl<'a> QueryDistanceIndex<'a> {
    /// Builds the index by running one (bounded) Dijkstra per query location.
    ///
    /// Passing `bound = Some(t)` prunes the searches at radius `t`; distances
    /// beyond the bound are reported as `f64::INFINITY`, which is sound for
    /// the Lemma-1 filter and for any threshold check with threshold `<= t`.
    pub fn build(net: &'a RoadNetwork, query_locations: &[Location], bound: Option<f64>) -> Self {
        let oracle = DistanceOracle::dijkstra();
        Self::build_with_oracle(net, &oracle, query_locations, bound)
    }

    /// Builds the index through an explicit [`DistanceOracle`].
    ///
    /// The G-tree backend ignores `bound` (point queries are exact and never
    /// sweep), so its distances are exact even past the bound; every
    /// threshold predicate agrees between the backends for thresholds
    /// `<= bound`.
    pub fn build_with_oracle(
        net: &'a RoadNetwork,
        oracle: &DistanceOracle<'a>,
        query_locations: &[Location],
        bound: Option<f64>,
    ) -> Self {
        let backend = match oracle {
            DistanceOracle::Dijkstra(pool) => Self::build_fields(net, pool, query_locations, bound),
            DistanceOracle::GTree(tree) => {
                let sources = query_locations
                    .iter()
                    .map(|loc| GTreeSource {
                        location: *loc,
                        seeds: location_seeds(net, loc)
                            .into_iter()
                            .filter(|&(_, off)| off.is_finite())
                            .filter_map(|(v, off)| tree.source_state(v).map(|s| (s, off)))
                            .collect(),
                    })
                    .collect();
                Backend::GTree { tree, sources }
            }
        };
        QueryDistanceIndex {
            net,
            query_locations: query_locations.to_vec(),
            backend,
            bound,
        }
    }

    fn build_fields(
        net: &RoadNetwork,
        pool: &ScratchPool,
        query_locations: &[Location],
        bound: Option<f64>,
    ) -> Backend<'static> {
        let n = net.num_vertices();
        let mut matrix = vec![f64::INFINITY; n * query_locations.len()];
        let mut unlimited = BudgetTicker::unlimited();
        pool.with_scratch(|scratch| {
            for (i, loc) in query_locations.iter().enumerate() {
                scratch.run(net, &location_seeds(net, loc), bound, None, &mut unlimited);
                matrix[i * n..(i + 1) * n].copy_from_slice(scratch.dist());
            }
        });
        Backend::Fields {
            matrix,
            num_vertices: n,
        }
    }

    /// Number of query locations the index was built for.
    pub fn num_queries(&self) -> usize {
        self.query_locations.len()
    }

    /// The query locations themselves.
    pub fn query_locations(&self) -> &[Location] {
        &self.query_locations
    }

    /// The bound the index was built with, if any.
    pub fn bound(&self) -> Option<f64> {
        self.bound
    }

    /// Whether the index answers from the G-tree backend.
    pub fn is_gtree_backed(&self) -> bool {
        matches!(self.backend, Backend::GTree { .. })
    }

    /// Approximate memory footprint in bytes (used by the Fig. 11(d) memory
    /// accounting harness).
    pub fn memory_bytes(&self) -> usize {
        let backend = match &self.backend {
            Backend::Fields { matrix, .. } => matrix.len() * std::mem::size_of::<f64>(),
            Backend::GTree { sources, .. } => sources
                .iter()
                .flat_map(|s| s.seeds.iter())
                .map(|(state, _)| state.memory_bytes())
                .sum(),
        };
        backend + std::mem::size_of::<Self>()
    }

    /// Distance from query location `i` to an arbitrary location.
    fn distance_from_query(&self, i: usize, loc: &Location) -> f64 {
        match &self.backend {
            Backend::Fields {
                matrix,
                num_vertices,
            } => {
                let row = &matrix[i * num_vertices..(i + 1) * num_vertices];
                let via_vertices = distance_to_location(self.net, row, loc);
                via_vertices.min(along_edge_distance(&self.query_locations[i], loc))
            }
            Backend::GTree { tree, sources } => {
                let source = &sources[i];
                let target_seeds = location_seeds(self.net, loc);
                let mut best = along_edge_distance(&source.location, loc);
                for &(ref state, off_src) in &source.seeds {
                    for &(target, off_dst) in target_seeds.iter() {
                        if !off_dst.is_finite() {
                            continue;
                        }
                        let cand = off_src + tree.dist_from_source(state, target) + off_dst;
                        if cand < best {
                            best = cand;
                        }
                    }
                }
                best
            }
        }
    }

    /// Query distance `D_Q` of an arbitrary location: the maximum over all
    /// query locations of the network distance to it.
    pub fn query_distance(&self, loc: &Location) -> f64 {
        (0..self.num_queries())
            .map(|i| self.distance_from_query(i, loc))
            .fold(0.0_f64, f64::max)
    }

    /// Query distance of a road vertex.
    pub fn query_distance_of_vertex(&self, v: u32) -> f64 {
        match &self.backend {
            Backend::Fields {
                matrix,
                num_vertices,
            } => (0..self.num_queries())
                .map(|i| matrix[i * num_vertices + v as usize])
                .fold(0.0_f64, f64::max),
            Backend::GTree { tree, sources } => sources
                .iter()
                .map(|source| {
                    source
                        .seeds
                        .iter()
                        .map(|(state, off)| off + tree.dist_from_source(state, v))
                        .fold(f64::INFINITY, f64::min)
                })
                .fold(0.0_f64, f64::max),
        }
    }

    /// Query distance of a community given the locations of its members
    /// (`D_Q(H)` of Definition 2). Returns 0.0 for an empty member list.
    pub fn query_distance_of_members(&self, members: &[Location]) -> f64 {
        members
            .iter()
            .map(|loc| self.query_distance(loc))
            .fold(0.0_f64, f64::max)
    }

    /// Lemma-1 filter: for each user location, whether `D_Q(v) <= t`.
    ///
    /// When the index was built with a bound smaller than `t`, distances past
    /// the bound are unknown (∞) and the corresponding users are conservatively
    /// rejected; callers should build with `bound >= t` (the MAC search builds
    /// with exactly `t`).
    pub fn within_threshold(&self, user_locations: &[Location], t: f64) -> Vec<bool> {
        user_locations
            .iter()
            .map(|loc| self.query_distance(loc) <= t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoadNetwork;

    /// A 3x3 grid road network with unit weights.
    ///
    /// Vertex ids: row * 3 + col.
    fn grid3() -> RoadNetwork {
        let mut edges = Vec::new();
        for r in 0..3u32 {
            for c in 0..3u32 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    edges.push((v, v + 1, 1.0));
                }
                if r + 1 < 3 {
                    edges.push((v, v + 3, 1.0));
                }
            }
        }
        RoadNetwork::from_edges(9, &edges)
    }

    #[test]
    fn query_distance_single_query() {
        let net = grid3();
        let idx = QueryDistanceIndex::build(&net, &[Location::vertex(0)], None);
        assert_eq!(idx.num_queries(), 1);
        assert!((idx.query_distance_of_vertex(8) - 4.0).abs() < 1e-12);
        assert!((idx.query_distance(&Location::vertex(4)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn query_distance_is_max_over_queries() {
        let net = grid3();
        // queries at opposite corners
        let idx =
            QueryDistanceIndex::build(&net, &[Location::vertex(0), Location::vertex(8)], None);
        // centre vertex is 2 away from both
        assert!((idx.query_distance_of_vertex(4) - 2.0).abs() < 1e-12);
        // corner 2 is 2 away from 0 but 2 away from 8? dist(2,8)=2, dist(2,0)=2
        assert!((idx.query_distance_of_vertex(2) - 2.0).abs() < 1e-12);
        // vertex 6: dist to 0 = 2, dist to 8 = 2
        assert!((idx.query_distance_of_vertex(6) - 2.0).abs() < 1e-12);
        // vertex 1: dist to 0 = 1, to 8 = 3 -> 3
        assert!((idx.query_distance_of_vertex(1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn within_threshold_filters_users() {
        let net = grid3();
        let idx = QueryDistanceIndex::build(&net, &[Location::vertex(0)], Some(2.0));
        let users = vec![
            Location::vertex(0),
            Location::vertex(4),
            Location::vertex(8),
        ];
        assert_eq!(idx.within_threshold(&users, 2.0), vec![true, true, false]);
    }

    #[test]
    fn query_distance_of_members_is_max() {
        let net = grid3();
        let idx = QueryDistanceIndex::build(&net, &[Location::vertex(0)], None);
        let members = vec![
            Location::vertex(1),
            Location::vertex(5),
            Location::vertex(8),
        ];
        assert!((idx.query_distance_of_members(&members) - 4.0).abs() < 1e-12);
        assert_eq!(idx.query_distance_of_members(&[]), 0.0);
    }

    #[test]
    fn paper_example_query_distances() {
        // Road network engineered so that dist(r7, r6) = 7 and
        // dist(r3, r6) = 9, matching the Section II examples
        // (DQ(v7) = 7, DQ({v2,v3,v6,v7}) = 9 for Q = {v2, v3, v6}).
        // Vertices here: 0..=6 stand for r1..=r7.
        let net = RoadNetwork::from_edges(
            7,
            &[
                (1, 2, 4.0), // r2 - r3
                (1, 5, 6.0), // r2 - r6
                (2, 5, 9.0), // r3 - r6
                (2, 6, 3.0), // r3 - r7
                (5, 6, 7.0), // r6 - r7
                (0, 1, 2.0), // r1 - r2
                (3, 2, 5.0), // r4 - r3
                (4, 5, 4.0), // r5 - r6
            ],
        );
        let q = [
            Location::vertex(1),
            Location::vertex(2),
            Location::vertex(5),
        ];
        let idx = QueryDistanceIndex::build(&net, &q, None);
        assert!((idx.query_distance_of_vertex(6) - 7.0).abs() < 1e-12);
        let h = [
            Location::vertex(1),
            Location::vertex(2),
            Location::vertex(5),
            Location::vertex(6),
        ];
        assert!((idx.query_distance_of_members(&h) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn memory_accounting_positive() {
        let net = grid3();
        let idx = QueryDistanceIndex::build(&net, &[Location::vertex(0)], None);
        assert!(idx.memory_bytes() >= 9 * std::mem::size_of::<f64>());
    }

    #[test]
    fn same_edge_locations_use_the_along_edge_path() {
        // A single heavy edge: two interior points are 1 apart along the edge
        // even though the endpoint detours cost 9 / 11.
        let net = RoadNetwork::from_edges(2, &[(0, 1, 10.0)]);
        let q = Location::OnEdge {
            u: 0,
            v: 1,
            offset: 4.0,
        };
        let member = Location::OnEdge {
            u: 0,
            v: 1,
            offset: 5.0,
        };
        let idx = QueryDistanceIndex::build(&net, &[q], None);
        assert!((idx.query_distance(&member) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gtree_backend_matches_dijkstra_backend() {
        use crate::gtree::GTree;
        let net = grid3();
        let tree = GTree::build_with_capacity(&net, 4);
        let q = [
            Location::vertex(0),
            Location::OnEdge {
                u: 4,
                v: 5,
                offset: 0.25,
            },
        ];
        let dij = QueryDistanceIndex::build(&net, &q, None);
        let oracle = DistanceOracle::GTree(&tree);
        let gt = QueryDistanceIndex::build_with_oracle(&net, &oracle, &q, None);
        assert!(gt.is_gtree_backed() && !dij.is_gtree_backed());
        for v in 0..9u32 {
            let a = dij.query_distance_of_vertex(v);
            let b = gt.query_distance_of_vertex(v);
            assert!((a - b).abs() < 1e-9, "vertex {v}: fields {a} gtree {b}");
        }
        let probes = [
            Location::vertex(7),
            Location::OnEdge {
                u: 1,
                v: 2,
                offset: 0.5,
            },
            Location::OnEdge {
                u: 4,
                v: 5,
                offset: 0.75,
            },
        ];
        for loc in &probes {
            let a = dij.query_distance(loc);
            let b = gt.query_distance(loc);
            assert!((a - b).abs() < 1e-9, "{loc:?}: fields {a} gtree {b}");
        }
    }
}
