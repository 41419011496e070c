//! The global search (GS-NC) and the local search (LS-NC) checked against
//! references that share no search code with them.
//!
//! **Brute force from Definitions 5–6.** On instances of at most 12 users,
//! [`BruteForce`] lists every subset of the users kept by the distance
//! threshold (Lemma 1, decided by the split-graph Dijkstra
//! [`reference_within`]) that contains `Q`, is connected in the social graph,
//! and gives each member at least `k` neighbours inside it: the feasible
//! communities. It uses no G-tree, no `SearchContext`, no `G_d` and no peel
//! lemma. At a weight `w` the answer is the union of the feasible
//! communities that maximise the minimum member score `f(H) = min_{v∈H}
//! S_w(v)`.
//!
//! That union is the community the Lemma 4–6 peel reaches, when `w` is in
//! general position (no two kept users' scores within 1e-9; other weights are
//! skipped and counted). The union of two feasible communities is feasible —
//! degrees only grow, and both are connected through `Q` — and has the same
//! minimum, so the union `U` of the maximisers is itself the largest
//! maximiser. The peel walks `C_0 ⊋ C_1 ⊋ … ⊋ C_m` from the maximal feasible
//! community `C_0`, each `C_{i+1}` the component of `Q` after deleting the
//! minimum-score member `u_i` of `C_i` with its cascade, and stops when that
//! deletion would lose `Q` (or `u_i ∈ Q`). Any maximiser `H ⊆ C_i` with `f(H)
//! > f(C_i)` avoids `u_i`, so it survives the cascade and stays in `Q`'s
//! component: `H ⊆ C_{i+1}`. Scores strictly rise along the walk, so every
//! maximiser of score `f* ≥ f(C_m)` lies in `C_m`. If `f* > f(C_m)`, deleting
//! `u_m` would keep such an `H` and `Q` alive, and the walk would not have
//! stopped (and `u_m ∈ Q` bounds `f*` by `S(u_m) = f(C_m)`). So `f* = f(C_m)`,
//! `C_m` is a maximiser, and `C_m = U`.
//!
//! Each small instance (d ∈ {2, 3, 4}, so the 1-D and 3-D LP cell paths and
//! the 2-D polygon path all run) checks the community of every GS and LS cell
//! at its sample weight, and, for 64 uniform draws `w ∈ R`, that `w` lies in
//! exactly one reported GS cell (draws within 1e-6 of a cell boundary are
//! skipped) whose community is the brute-force answer at `w`.
//!
//! **Peel reference on larger inputs.** On datagen presets and on a grid
//! shaped like the `read-write` benchmark, subsets are out of reach, and the
//! fixed-weight peel (`peel_at_weight`, Lemmas 4–6 run at one concrete
//! weight) takes the brute force's role: at every cell's sample and at 64
//! located uniform draws. The grid is where most arrangements split nothing
//! and the search passes cells through unsplit, with deep deletion chains;
//! guards keep it that way.

mod common;

use common::{assert_results_identical, assert_valid_prefix, reference_within};
use rand::prelude::*;
use rand::rngs::StdRng;
use road_social_mac::core::peel::peel_at_weight;
use road_social_mac::core::{
    AlgorithmChoice, Community, ExecutionPolicy, MacEngine, MacQuery, MacSearchResult, QueryBudget,
    QueryOutcome, RoadSocialNetwork, SearchContext,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::presets::{build_preset_scaled, PresetName, PresetScale};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::{Cell, PrefRegion, WeightVector};
use road_social_mac::graph::graph::Graph;
use road_social_mac::road::Location;

/// Score gap below which a weight is not in general position.
const TIE: f64 = 1e-9;
/// Distance to a cell boundary below which a uniform draw is skipped.
const BOUNDARY: f64 = 1e-6;

/// `S_w(x)` from its definition: the full weight vector is the reduced one
/// plus `1 − Σ w_i` on the last attribute.
fn score(x: &[f64], w: &[f64]) -> f64 {
    let last = 1.0 - w.iter().sum::<f64>();
    w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + last * x[w.len()]
}

/// Whether no two of `scores` lie within [`TIE`] of each other.
fn in_general_position(mut scores: Vec<f64>) -> bool {
    scores.sort_by(f64::total_cmp);
    scores.windows(2).all(|p| p[1] - p[0] >= TIE)
}

/// The feasible communities of one small instance (Definitions 5–6), as
/// bit masks over user ids.
struct BruteForce {
    attrs: Vec<Vec<f64>>,
    kept: Vec<u32>,
    feasible: Vec<u32>,
}

impl BruteForce {
    fn new(rsn: &RoadSocialNetwork, query: &MacQuery) -> Self {
        let n = rsn.num_users();
        assert!(n <= 12, "the brute force enumerates 2^n subsets");
        let q_locs: Vec<Location> = query.q.iter().map(|&q| *rsn.location(q)).collect();
        let within = reference_within(rsn.road(), &q_locs, query.t, rsn.locations());
        let kept: Vec<u32> = (0..n as u32).filter(|&u| within[u as usize]).collect();
        let kept_mask = kept.iter().fold(0u32, |m, &u| m | 1 << u);
        let q_mask = query.q.iter().fold(0u32, |m, &u| m | 1 << u);
        let social = rsn.social();
        let feasible = (1u32..1 << n)
            .filter(|&h| h & !kept_mask == 0 && h & q_mask == q_mask)
            .filter(|&h| is_connected_k_core(social, h, query.k))
            .collect();
        BruteForce {
            attrs: rsn.all_attributes().to_vec(),
            kept,
            feasible,
        }
    }

    /// The answer at `w`: `Some(Some(union))` with the sorted union of the
    /// feasible communities of maximum minimum score, `Some(None)` when no
    /// community is feasible, and `None` when `w` is not in general position.
    fn answer(&self, w: &[f64]) -> Option<Option<Vec<u32>>> {
        let scores: Vec<f64> = self.attrs.iter().map(|x| score(x, w)).collect();
        if !in_general_position(self.kept.iter().map(|&u| scores[u as usize]).collect()) {
            return None;
        }
        let Some(best) = self
            .feasible
            .iter()
            .map(|&h| min_score(&scores, h))
            .reduce(f64::max)
        else {
            return Some(None);
        };
        let union = self
            .feasible
            .iter()
            .filter(|&&h| min_score(&scores, h) == best)
            .fold(0u32, |m, &h| m | h);
        Some(Some(members(union)))
    }

    /// The top-`j` answer at `w` (Problem 1): the first `j` distinct sets
    /// `U_s = ∪{H feasible : f(H) ≥ s}` over the distinct values `s` of `f`
    /// in descending order, each sorted; empty when no community is
    /// feasible, and `None` when `w` is not in general position.
    fn top_j(&self, w: &[f64], j: usize) -> Option<Vec<Vec<u32>>> {
        let scores: Vec<f64> = self.attrs.iter().map(|x| score(x, w)).collect();
        if !in_general_position(self.kept.iter().map(|&u| scores[u as usize]).collect()) {
            return None;
        }
        let f: Vec<f64> = self
            .feasible
            .iter()
            .map(|&h| min_score(&scores, h))
            .collect();
        let mut levels = f.clone();
        levels.sort_by(|a, b| b.total_cmp(a));
        levels.dedup();
        let mut sets: Vec<Vec<u32>> = Vec::new();
        for s in levels {
            let union = self
                .feasible
                .iter()
                .zip(&f)
                .filter(|&(_, &fh)| fh >= s)
                .fold(0u32, |m, (&h, _)| m | h);
            let set = members(union);
            if sets.last() != Some(&set) {
                sets.push(set);
            }
            if sets.len() == j {
                break;
            }
        }
        Some(sets)
    }
}

/// `f(H)`: the minimum score over the users of mask `h`.
fn min_score(scores: &[f64], h: u32) -> f64 {
    members(h)
        .into_iter()
        .map(|u| scores[u as usize])
        .fold(f64::INFINITY, f64::min)
}

/// The users of mask `h`, ascending.
fn members(h: u32) -> Vec<u32> {
    (0..32).filter(|&u| h & 1 << u != 0).collect()
}

/// Whether the users in mask `h` induce a connected subgraph in which every
/// member has at least `k` neighbours.
fn is_connected_k_core(social: &Graph, h: u32, k: u32) -> bool {
    let inside = |v: u32| v < 32 && h & 1 << v != 0;
    let members: Vec<u32> = (0..32).filter(|&v| inside(v)).collect();
    if members
        .iter()
        .any(|&v| (social.neighbors(v).iter().filter(|&&u| inside(u)).count() as u32) < k)
    {
        return false;
    }
    let mut reached = 1u32 << members[0];
    let mut stack = vec![members[0]];
    while let Some(v) = stack.pop() {
        for &u in social.neighbors(v) {
            if inside(u) && reached & 1 << u == 0 {
                reached |= 1 << u;
                stack.push(u);
            }
        }
    }
    reached == h
}

/// `query` answered by `algorithm` on a fresh session of a throwaway engine,
/// on `parallelism` workers.
fn search(
    rsn: &RoadSocialNetwork,
    query: &MacQuery,
    algorithm: AlgorithmChoice,
    parallelism: usize,
) -> MacSearchResult {
    MacEngine::build(rsn.clone())
        .session()
        .with_policy(
            ExecutionPolicy::new()
                .with_parallelism(parallelism)
                .with_max_candidates(64),
        )
        .execute(&query.clone().with_algorithm(algorithm))
        .unwrap()
}

fn global_search(rsn: &RoadSocialNetwork, query: &MacQuery) -> MacSearchResult {
    search(rsn, query, AlgorithmChoice::Global, 1)
}

/// The smallest signed distance from `w` to the bounds and constraint
/// hyperplanes of `cell`: positive inside, negative outside.
fn signed_slack(cell: &Cell, w: &[f64]) -> f64 {
    let (lows, highs) = cell.bounds();
    let mut slack = f64::INFINITY;
    for ((&x, &lo), &hi) in w.iter().zip(lows).zip(highs) {
        slack = slack.min(x - lo).min(hi - x);
    }
    for hs in cell.constraints() {
        let norm = hs.coeffs.iter().map(|c| c * c).sum::<f64>().sqrt();
        slack = slack.min(hs.eval(w) / norm.max(f64::MIN_POSITIVE));
    }
    slack
}

/// A uniform draw from the box of `region`.
fn draw(region: &PrefRegion, rng: &mut StdRng) -> Vec<f64> {
    region
        .lows()
        .iter()
        .zip(region.highs())
        .map(|(&lo, &hi)| {
            if hi > lo {
                rng.random_range(lo..hi)
            } else {
                lo
            }
        })
        .collect()
}

/// The communities of the one reported cell that holds `w`, or `None` when
/// `w` is within [`BOUNDARY`] of some cell's boundary. Panics unless exactly
/// one cell holds `w`.
fn locate<'r>(result: &'r MacSearchResult, w: &[f64]) -> Option<&'r [Community]> {
    let slacks: Vec<f64> = result
        .cells
        .iter()
        .map(|c| signed_slack(&c.cell, w))
        .collect();
    if slacks.iter().any(|s| s.abs() <= BOUNDARY) {
        return None;
    }
    let holders: Vec<usize> = (0..slacks.len()).filter(|&i| slacks[i] > 0.0).collect();
    assert_eq!(
        holders.len(),
        1,
        "{w:?} lies in {} reported cells",
        holders.len()
    );
    Some(&result.cells[holders[0]].communities)
}

/// Counts of one reference suite run.
#[derive(Debug, Default)]
struct Tally {
    checked: usize,
    skipped: usize,
}

impl Tally {
    fn assert_mostly_checked(&self, label: &str, at_least: usize) {
        assert!(
            self.checked >= at_least && self.skipped * 10 <= self.checked,
            "{label}: {self:?}"
        );
    }
}

/// A random instance of at most 12 users: a random social graph, users on
/// vertices and edges of a small road grid, random attributes of dimension
/// `d`, one or two query users, `k` in 1..=3, `t` from 0.6 to 1.2 times the
/// smallest half-unit threshold that keeps every user, and a random box
/// region.
fn small_instance(d: usize, seed: u64) -> (RoadSocialNetwork, MacQuery) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(6..=12usize);
    let p = rng.random_range(0.35..0.8);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if rng.random_bool(p) {
                edges.push((u, v));
            }
        }
    }
    let social = Graph::from_edges(n, &edges);
    let road = generate_road(&RoadConfig::with_size(25, seed));
    let locations: Vec<Location> = (0..n)
        .map(|_| {
            let v = rng.random_range(0..road.num_vertices() as u32);
            let nbrs = road.neighbors(v);
            if nbrs.is_empty() || rng.random_bool(0.5) {
                Location::vertex(v)
            } else {
                let (u, w) = nbrs[rng.random_range(0..nbrs.len())];
                Location::OnEdge {
                    u: v,
                    v: u,
                    offset: rng.random_range(0.0..=w),
                }
            }
        })
        .collect();
    let attrs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..10.0)).collect())
        .collect();
    let q: Vec<u32> = if rng.random_bool(0.7) {
        vec![rng.random_range(0..n as u32)]
    } else {
        let a = rng.random_range(0..n as u32);
        vec![a, (a + rng.random_range(1..n as u32)) % n as u32]
    };
    let k = rng.random_range(1..=3u32);
    // `t` around the smallest half-unit threshold that keeps every user, so
    // some instances filter users and some keep them all.
    let q_locs: Vec<Location> = q.iter().map(|&u| locations[u as usize]).collect();
    let keeps_all = |t: f64| {
        reference_within(&road, &q_locs, t, &locations)
            .iter()
            .all(|&b| b)
    };
    let full = (1..200)
        .map(|i| 0.5 * i as f64)
        .find(|&t| keeps_all(t))
        .unwrap_or(100.0);
    let t = full * rng.random_range(0.6..1.2);
    let center: Vec<f64> = (0..d - 1)
        .map(|_| rng.random_range(0.1..0.9) / d as f64)
        .collect();
    let sigma = rng.random_range(0.05..0.5);
    let region = PrefRegion::around(&WeightVector::new(center).unwrap(), sigma).unwrap();
    let rsn = RoadSocialNetwork::new(social, road, locations, attrs).unwrap();
    (rsn, MacQuery::new(q, k, t, region))
}

/// GS-NC and LS-NC agree with the brute force on small instances: every
/// reported cell at its sample weight, and the GS cell holding each of 64
/// uniform draws.
#[test]
fn search_matches_brute_force_on_small_instances() {
    let mut samples = Tally::default();
    let mut draws = Tally::default();
    let (mut answered, mut local_cells) = (0usize, 0usize);
    for d in [2usize, 3, 4] {
        for seed in 0..24u64 {
            let (rsn, query) = small_instance(d, 1_000 * d as u64 + seed);
            let label = format!("d = {d}, seed {seed}");
            let reference = BruteForce::new(&rsn, &query);
            let global = global_search(&rsn, &query);
            let local = search(&rsn, &query, AlgorithmChoice::Local, 1);
            answered += usize::from(!global.cells.is_empty());
            local_cells += local.cells.len();
            for (name, result) in [("GS", &global), ("LS", &local)] {
                for cell in &result.cells {
                    match reference.answer(&cell.sample_weight) {
                        None => samples.skipped += 1,
                        Some(expected) => {
                            samples.checked += 1;
                            assert_eq!(
                                Some(cell.communities[0].vertices.clone()),
                                expected,
                                "{label}: {name} cell at {:?}",
                                cell.sample_weight
                            );
                        }
                    }
                }
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD8A3);
            for _ in 0..64 {
                let w = draw(&query.region, &mut rng);
                let Some(expected) = reference.answer(&w) else {
                    draws.skipped += 1;
                    continue;
                };
                if global.cells.is_empty() {
                    assert_eq!(expected, None, "{label}: GS found nothing at {w:?}");
                    draws.checked += 1;
                    continue;
                }
                let Some(found) = locate(&global, &w) else {
                    draws.skipped += 1;
                    continue;
                };
                draws.checked += 1;
                assert_eq!(
                    Some(found[0].vertices.clone()),
                    expected,
                    "{label}: GS at draw {w:?}"
                );
            }
        }
    }
    samples.assert_mostly_checked("cell samples", 300);
    draws.assert_mostly_checked("uniform draws", 3_000);
    assert!(
        answered >= 36,
        "only {answered} of 72 instances have an answer"
    );
    assert!(local_cells >= 36, "LS reported only {local_cells} cells");
}

/// GS-T (top-j, Problem 1) at `j = 3` agrees with the brute force on the
/// small instances: the communities of every reported cell at its sample
/// weight, and of the GS cell holding each of 64 uniform draws, are the
/// first three distinct `U_s`, best first. The peel chain `C_m ⊊ … ⊊ C_0`
/// is exactly that list: every feasible `H` with `f(H) ≥ f(C_i)` survives the
/// deletions before `C_i` (each removes a vertex of smaller score) and so
/// lies in `C_i`, which is feasible itself; any other `s` repeats the set of
/// the next `f(C_i)` at or above it.
#[test]
fn top_j_search_matches_brute_force_on_small_instances() {
    const J: usize = 3;
    let mut samples = Tally::default();
    let mut draws = Tally::default();
    let mut nested = 0usize;
    for d in [2usize, 3, 4] {
        for seed in 0..24u64 {
            let (rsn, query) = small_instance(d, 1_000 * d as u64 + seed);
            let query = query.with_top_j(J);
            let label = format!("d = {d}, seed {seed}");
            let reference = BruteForce::new(&rsn, &query);
            let result = global_search(&rsn, &query);
            let reported = |communities: &[Community]| {
                communities
                    .iter()
                    .map(|c| c.vertices.clone())
                    .collect::<Vec<_>>()
            };
            for cell in &result.cells {
                let Some(expected) = reference.top_j(&cell.sample_weight, J) else {
                    samples.skipped += 1;
                    continue;
                };
                samples.checked += 1;
                nested += usize::from(expected.len() > 1);
                assert_eq!(
                    reported(&cell.communities),
                    expected,
                    "{label}: GS-T cell at {:?}",
                    cell.sample_weight
                );
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0x70B3);
            for _ in 0..64 {
                let w = draw(&query.region, &mut rng);
                let Some(expected) = reference.top_j(&w, J) else {
                    draws.skipped += 1;
                    continue;
                };
                if result.cells.is_empty() {
                    assert!(expected.is_empty(), "{label}: GS-T found nothing at {w:?}");
                    draws.checked += 1;
                    continue;
                }
                let Some(found) = locate(&result, &w) else {
                    draws.skipped += 1;
                    continue;
                };
                draws.checked += 1;
                assert_eq!(reported(found), expected, "{label}: GS-T at draw {w:?}");
            }
        }
    }
    samples.assert_mostly_checked("top-j cell samples", 300);
    draws.assert_mostly_checked("top-j uniform draws", 3_000);
    assert!(
        nested >= 100,
        "only {nested} samples have more than one community"
    );
}

fn preset_query(name: PresetName, k: u32, sigma: f64) -> (RoadSocialNetwork, MacQuery) {
    // Minimum preset scale: large enough to exercise real cascades and
    // multi-cell arrangements, small enough for the unoptimized (debug)
    // tier-1 run.
    let dataset = build_preset_scaled(
        name,
        PresetScale {
            social: 0.05,
            road: 0.05,
        },
        3,
    );
    let center = WeightVector::uniform(3).unwrap();
    let region = PrefRegion::around(&center, sigma).unwrap();
    let query = MacQuery::new(dataset.query_vertices(4), k, dataset.default_t, region);
    (dataset.rsn, query)
}

/// A 2,500-vertex thinned road grid with 600 users: the `read-write`
/// benchmark network scaled down (one planted group of 18 with degree 6,
/// three independent attributes, check-ins around 8 hotspots), and its
/// query shape: the first planted user, k = 4, t = 50 mean edge weights,
/// σ = 0.05 around the uniform weight.
fn grid_query() -> (RoadSocialNetwork, MacQuery) {
    let (n_road, n_users, seed) = (2_500, 600, 29);
    let road = generate_road(&RoadConfig::with_size(n_road, seed));
    let social = generate_social(&SocialConfig {
        n: n_users,
        attach_m: 3,
        planted: vec![PlantedGroup {
            size: 18,
            degree: 6,
        }],
        seed,
    });
    let attrs = generate_attrs(n_users, 3, AttrDistribution::Independent, 10.0, seed);
    let locations = assign_locations(
        &road,
        n_users,
        &social.groups,
        &LocationConfig {
            clusters: 8,
            radius: 5,
            seed,
        },
    );
    let q = vec![social.groups[0][0]];
    let rsn = RoadSocialNetwork::new(social.graph, road, locations, attrs).unwrap();
    let m = rsn.road().num_edges().max(1);
    let avg_edge = rsn.road().edges().map(|(_, _, w)| w).sum::<f64>() / m as f64;
    let region = PrefRegion::around(&WeightVector::uniform(3).unwrap(), 0.05).unwrap();
    (rsn, MacQuery::new(q, 4, 50.0 * avg_edge, region))
}

/// Checks `result` against the fixed-weight peel: every cell's community at
/// its sample weight, and the located cell of 64 uniform draws in general
/// position. Returns the longest peel (in deletion groups) over the samples.
fn assert_matches_peel(label: &str, ctx: &SearchContext<'_>, result: &MacSearchResult) -> usize {
    assert!(!result.cells.is_empty(), "{label}: no cells reported");
    let mut deepest = 0;
    for cell in &result.cells {
        let peel = peel_at_weight(ctx, &cell.sample_weight);
        deepest = deepest.max(peel.deletion_groups.len());
        assert_eq!(
            cell.communities[0].vertices,
            ctx.community_from_locals(&peel.final_vertices).vertices,
            "{label}: cell at {:?}",
            cell.sample_weight
        );
    }
    let mut rng = StdRng::seed_from_u64(0x9EE1);
    let mut draws = Tally::default();
    for _ in 0..64 {
        let w = draw(&ctx.query.region, &mut rng);
        let scores = (0..ctx.core_size() as u32)
            .map(|v| ctx.score(v, &w))
            .collect();
        let found = locate(result, &w).filter(|_| in_general_position(scores));
        let Some(found) = found else {
            draws.skipped += 1;
            continue;
        };
        draws.checked += 1;
        let peel = peel_at_weight(ctx, &w);
        assert_eq!(
            found[0].vertices,
            ctx.community_from_locals(&peel.final_vertices).vertices,
            "{label}: draw {w:?}"
        );
    }
    draws.assert_mostly_checked(label, 32);
    deepest
}

#[test]
fn global_search_matches_peel_on_presets() {
    for (name, k, sigma) in [
        (PresetName::SfSlashdot, 8u32, 0.01),
        (PresetName::FlLastfm, 6, 0.01),
    ] {
        let (rsn, query) = preset_query(name, k, sigma);
        let result = global_search(&rsn, &query);
        let ctx = SearchContext::build(&rsn, &query)
            .unwrap()
            .expect("preset queries have a (k,t)-core");
        assert_matches_peel(&format!("{name:?}"), &ctx, &result);
    }
}

/// Unsplit cells pass through their arrangement with their parent's sample
/// point. On a `read-write`-shaped grid query, where most arrangements split
/// nothing, the search must still match the peel everywhere — serially and
/// on two workers, whose stolen subtrees sample afresh.
#[test]
fn unsplit_cells_pass_through_on_a_read_write_shaped_grid() {
    let (rsn, query) = grid_query();
    let ctx = SearchContext::build(&rsn, &query)
        .unwrap()
        .expect("the planted group has a (k,t)-core");
    let serial = global_search(&rsn, &query);
    let stats = &serial.stats;
    assert!(
        serial.cells.len() >= 100,
        "only {} cells: too small to exercise the search",
        serial.cells.len()
    );
    // Each explored partition that does not report descends into one
    // arrangement (or is empty), so this bounds the arrangement count from
    // above, the root's included.
    let arrangements = 1 + stats.partitions_explored - serial.cells.len();
    assert!(
        2 * stats.unsplit_arrangements >= arrangements,
        "only {} of up to {arrangements} arrangements are unsplit: the pass-through is not exercised",
        stats.unsplit_arrangements
    );
    let deepest = assert_matches_peel("serial", &ctx, &serial);
    assert!(
        deepest >= 12,
        "deepest path has {deepest} deletion groups: no deep chains"
    );
    let parallel = search(&rsn, &query, AlgorithmChoice::Global, 2);
    assert_eq!(parallel.stats.parallel_workers, 2, "run was not threaded");
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.sample_weight), bits(&b.sample_weight));
        assert_eq!(a.communities, b.communities);
    }
    assert_eq!(serial.cells.len(), parallel.cells.len());
    assert_eq!(
        serial.stats.partitions_explored,
        parallel.stats.partitions_explored
    );
    assert_eq!(
        serial.stats.unsplit_arrangements,
        parallel.stats.unsplit_arrangements
    );
}

#[test]
fn global_search_is_deterministic_across_runs() {
    let (rsn, query) = preset_query(PresetName::SfSlashdot, 8, 0.01);
    let a = global_search(&rsn, &query);
    let b = global_search(&rsn, &query);
    assert_eq!(a.cells.len(), b.cells.len());
    for (ca, cb) in a.cells.iter().zip(b.cells.iter()) {
        assert_eq!(ca.sample_weight, cb.sample_weight);
        assert_eq!(ca.communities[0].vertices, cb.communities[0].vertices);
    }
}

/// A parallel run whose work limit trips mid-search returns an exact prefix
/// of the serial answer: the merge keeps only the reports before the
/// smallest dropped DFS path. Workers flush their charges every
/// `CHECK_INTERVAL` units, so only a search far larger than that interval
/// trips with cells already confirmed; this preset query reports about
/// 3,400 cells for a serial spend of about 152k units, and the limits
/// spread over that spend. Optimized builds only: the search takes about
/// half a second there.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a mid-search trip needs a large search; runs under --release"
)]
fn parallel_partials_that_trip_mid_search_are_serial_prefixes() {
    let (rsn, query) = preset_query(PresetName::FlLastfm, 6, 0.03);
    let query = query.with_algorithm(AlgorithmChoice::Global);
    let engine = MacEngine::build(rsn);
    let serial = engine.session().execute(&query).unwrap();
    assert!(
        serial.cells.len() >= 1_000,
        "too few cells to trip mid-search"
    );
    let mut nonempty = 0;
    for workers in [2usize, 3] {
        let mut session = engine
            .session()
            .with_policy(ExecutionPolicy::new().with_parallelism(workers));
        for limit in (1..=9u64).map(|i| i * 16_000) {
            let label = format!("{workers} workers, work limit {limit}");
            let budget = QueryBudget::new().with_work_limit(limit);
            match session.execute_with_budget(&query, &budget).unwrap() {
                QueryOutcome::Complete(got) => assert_results_identical(&label, &serial, &got),
                QueryOutcome::Partial(partial) => {
                    assert_eq!(partial.result.stats.parallel_workers, workers, "{label}");
                    assert_valid_prefix(&label, &partial.result, &serial);
                    nonempty += usize::from(!partial.result.cells.is_empty());
                }
            }
        }
    }
    assert!(nonempty >= 4, "only {nonempty} partials confirmed any cell");
}
