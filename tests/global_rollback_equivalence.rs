//! The undo-log refactor of the global search must not change its output: this
//! suite pins the rollback-based DFS against the clone-per-branch reference
//! replica (`rsn_bench::legacy`) on datagen presets, comparing the reported
//! cells — sample weights bit-for-bit, communities member-for-member — and
//! additionally checks that repeated runs are deterministic.

use road_social_mac::core::{
    AlgorithmChoice, MacEngine, MacQuery, MacSearchResult, RoadSocialNetwork, SearchContext,
};
use road_social_mac::datagen::presets::{build_preset_scaled, PresetName, PresetScale};
use road_social_mac::geom::PrefRegion;
use road_social_mac::geom::WeightVector;
use rsn_bench::legacy::legacy_gs_nc;

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

/// The global search on a fresh session of a throwaway uncalibrated engine.
fn global_search(rsn: &RoadSocialNetwork, query: &MacQuery) -> MacSearchResult {
    MacEngine::build_uncalibrated(rsn.clone())
        .session()
        .execute(&query.clone().with_algorithm(AlgorithmChoice::Global))
        .unwrap()
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

        assert!(!result.cells.is_empty(), "{name:?}: no cells reported");
        assert_eq!(
            result.cells.len(),
            reference.len(),
            "{name:?}: cell count diverged"
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
            "{name:?}: rollback DFS and clone-based reference disagree"
        );
    }
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
