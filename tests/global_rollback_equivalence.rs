//! The undo-log refactor of the global search must not change its output: this
//! suite pins the rollback-based DFS against the clone-per-branch reference
//! replica (`rsn_bench::legacy`) on datagen presets, comparing the reported
//! cells — sample weights bit-for-bit, communities member-for-member — and
//! additionally checks that repeated runs are deterministic.
//!
//! The replica arranges every state's cell and samples every sub-cell afresh,
//! so it also pins the search's pass-through of unsplit cells, which reuses
//! the parent's cell and sample point. A grid input shaped like the
//! `read-write` benchmark, with deep deletion chains, checks that case.

use road_social_mac::core::{
    AlgorithmChoice, ExecutionPolicy, MacEngine, MacQuery, MacSearchResult, RoadSocialNetwork,
    SearchContext,
};
use road_social_mac::datagen::attrs::{generate_attrs, AttrDistribution};
use road_social_mac::datagen::locations::{assign_locations, LocationConfig};
use road_social_mac::datagen::presets::{build_preset_scaled, PresetName, PresetScale};
use road_social_mac::datagen::road::{generate_road, RoadConfig};
use road_social_mac::datagen::social::{generate_social, PlantedGroup, SocialConfig};
use road_social_mac::geom::PrefRegion;
use road_social_mac::geom::WeightVector;
use rsn_bench::legacy::{legacy_gs_nc, LegacyCell};

fn preset_query(
    name: PresetName,
    k: u32,
    sigma: f64,
) -> (road_social_mac::core::RoadSocialNetwork, MacQuery) {
    // Minimum preset scale: large enough to exercise real cascades and
    // multi-cell arrangements, small enough that the unoptimized (debug)
    // tier-1 run stays fast even though the clone-based reference is slow.
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

/// The global search on a fresh session of a throwaway uncalibrated engine.
fn global_search(rsn: &RoadSocialNetwork, query: &MacQuery) -> MacSearchResult {
    global_search_on(rsn, query, 1)
}

/// [`global_search`] on `parallelism` workers.
fn global_search_on(
    rsn: &RoadSocialNetwork,
    query: &MacQuery,
    parallelism: usize,
) -> MacSearchResult {
    MacEngine::build_uncalibrated(rsn.clone())
        .session()
        .with_policy(ExecutionPolicy::new().with_parallelism(parallelism))
        .execute(&query.clone().with_algorithm(AlgorithmChoice::Global))
        .unwrap()
}

/// Asserts that `result` reports the replica's cells: sample weights bit for
/// bit, communities member for member.
fn assert_matches_reference(
    label: &str,
    ctx: &SearchContext<'_>,
    result: &MacSearchResult,
    reference: &[LegacyCell],
) {
    assert!(!result.cells.is_empty(), "{label}: no cells reported");
    assert_eq!(
        result.cells.len(),
        reference.len(),
        "{label}: cell count diverged"
    );
    let new_cells: Vec<(Vec<f64>, Vec<u32>)> = result
        .cells
        .iter()
        .map(|c| {
            let mut locals: Vec<u32> = c.communities[0]
                .vertices
                .iter()
                .map(|&v| {
                    ctx.core_vertices
                        .iter()
                        .position(|&cv| cv == v)
                        .expect("member is in the core") as u32
                })
                .collect();
            locals.sort_unstable();
            (c.sample_weight.clone(), locals)
        })
        .collect();
    let ref_cells: Vec<(Vec<f64>, Vec<u32>)> = reference
        .iter()
        .map(|c| (c.sample_weight.clone(), c.community.clone()))
        .collect();
    assert_eq!(
        canonical(&new_cells),
        canonical(&ref_cells),
        "{label}: rollback DFS and clone-based reference disagree"
    );
}

/// Canonical form of one reported cell for comparison: the exact sample
/// weight bits plus the sorted community.
fn canonical(cells: &[(Vec<f64>, Vec<u32>)]) -> Vec<(Vec<u64>, Vec<u32>)> {
    let mut out: Vec<(Vec<u64>, Vec<u32>)> = cells
        .iter()
        .map(|(w, c)| (w.iter().map(|x| x.to_bits()).collect(), c.clone()))
        .collect();
    out.sort();
    out
}

#[test]
fn rollback_dfs_matches_clone_based_reference_on_presets() {
    for (name, k, sigma) in [
        (PresetName::SfSlashdot, 8u32, 0.01),
        (PresetName::FlLastfm, 6, 0.01),
    ] {
        let (rsn, query) = preset_query(name, k, sigma);
        let result = global_search(&rsn, &query);
        let ctx = SearchContext::build(&rsn, &query)
            .unwrap()
            .expect("preset queries have a (k,t)-core");
        let reference = legacy_gs_nc(&ctx, false);
        assert_matches_reference(&format!("{name:?}"), &ctx, &result, &reference.cells);
    }
}

/// Unsplit cells pass through their arrangement with their parent's sample
/// point. On a `read-write`-shaped grid query, where most arrangements split
/// nothing, the search must still report the replica's cells exactly —
/// serially and on two workers, whose stolen subtrees sample afresh.
#[test]
fn unsplit_cells_pass_through_on_a_read_write_shaped_grid() {
    let (rsn, query) = grid_query();
    let ctx = SearchContext::build(&rsn, &query)
        .unwrap()
        .expect("the planted group has a (k,t)-core");
    let reference = legacy_gs_nc(&ctx, false);
    assert!(
        reference.cells.len() >= 100,
        "only {} cells: too small to exercise the search",
        reference.cells.len()
    );
    assert!(
        2 * reference.unsplit_arrangements >= reference.arrangements,
        "only {} of {} arrangements are unsplit: the pass-through is not exercised",
        reference.unsplit_arrangements,
        reference.arrangements
    );
    assert!(
        reference.max_depth >= 12,
        "deepest path has {} deletion groups: no deep chains",
        reference.max_depth
    );
    let serial = global_search(&rsn, &query);
    assert_matches_reference("serial", &ctx, &serial, &reference.cells);
    let parallel = global_search_on(&rsn, &query, 2);
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
