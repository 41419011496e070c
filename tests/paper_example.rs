//! End-to-end integration tests on the paper's running example (Fig. 1/2/4/5),
//! spanning every crate: datagen → road filter → (k,t)-core → r-dominance
//! graph → global and local search.

use road_social_mac::core::peel::peel_at_weight;
use road_social_mac::core::{
    AlgorithmChoice, ExecutionPolicy, MacEngine, MacQuery, MacSearchResult, RoadSocialNetwork,
    SearchContext,
};
use road_social_mac::datagen::paper_example::{paper_example_network, paper_region};

/// `query` answered by `algorithm` on a fresh session of a throwaway engine
/// under `policy`.
fn search(
    rsn: &RoadSocialNetwork,
    query: &MacQuery,
    algorithm: AlgorithmChoice,
    policy: ExecutionPolicy,
) -> MacSearchResult {
    MacEngine::build_with_policy(rsn.clone(), policy)
        .session()
        .execute(&query.clone().with_algorithm(algorithm))
        .unwrap()
}

fn global_search(rsn: &RoadSocialNetwork, query: &MacQuery) -> MacSearchResult {
    search(rsn, query, AlgorithmChoice::Global, ExecutionPolicy::new())
}

/// Q = {v2, v3, v6} (ids 1, 2, 5), k = 3, t = 9 — the setting of Example 2.
fn example2_query() -> MacQuery {
    MacQuery::new(vec![1, 2, 5], 3, 9.0, paper_region())
}

#[test]
fn kt_core_and_dominance_graph_match_the_paper() {
    let rsn = paper_example_network();
    let query = example2_query();
    let ctx = SearchContext::build(&rsn, &query).unwrap().unwrap();
    // H^9_3 = {v1..v7} (Fig. 4(a))
    assert_eq!(ctx.core_vertices, vec![0, 1, 2, 3, 4, 5, 6]);
    // the bottom layer of G_d is {v7, v5, v1} and the top layer {v2, v6, v4}
    // (Fig. 4(b) / Fig. 5(a))
    let all = vec![true; 7];
    let to_user = |locals: Vec<usize>| -> Vec<u32> {
        let mut ids: Vec<u32> = locals
            .into_iter()
            .map(|l| ctx.core_vertices[ctx.gd.id_of(l) as usize] + 1)
            .collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(to_user(ctx.gd.leaves_within(&all)), vec![1, 5, 7]);
    assert_eq!(to_user(ctx.gd.top_within(&all)), vec![2, 4, 6]);
}

#[test]
fn global_search_agrees_with_fixed_weight_peeling_everywhere() {
    let rsn = paper_example_network();
    let query = example2_query();
    let result = global_search(&rsn, &query);
    assert!(!result.is_empty());
    let ctx = SearchContext::build(&rsn, &query).unwrap().unwrap();
    for cell in &result.cells {
        let oracle = peel_at_weight(&ctx, &cell.sample_weight);
        let expected = ctx.community_from_locals(&oracle.final_vertices);
        assert_eq!(cell.communities[0].vertices, expected.vertices);
        // every reported community contains the query users and is inside H^9_3
        assert!(cell.communities[0].contains(1));
        assert!(cell.communities[0].contains(2));
        assert!(cell.communities[0].contains(5));
        assert!(cell.communities[0].len() <= 7);
    }
}

#[test]
fn global_top_j_returns_nested_macs() {
    let rsn = paper_example_network();
    let query = example2_query().with_top_j(2);
    let result = global_search(&rsn, &query);
    for cell in &result.cells {
        assert!(!cell.communities.is_empty() && cell.communities.len() <= 2);
        for pair in cell.communities.windows(2) {
            assert!(pair[1].contains_all(&pair[0]), "top-j MACs must be nested");
        }
    }
}

#[test]
fn local_search_is_sound_wrt_global_search() {
    let rsn = paper_example_network();
    let query = example2_query();
    let global = global_search(&rsn, &query);
    let local = search(
        &rsn,
        &query,
        AlgorithmChoice::Local,
        ExecutionPolicy::new().with_max_candidates(20),
    );
    let global_set: Vec<Vec<u32>> = global
        .distinct_communities()
        .iter()
        .map(|c| c.vertices.clone())
        .collect();
    for c in local.distinct_communities() {
        assert!(
            global_set.contains(&c.vertices),
            "LS-NC reported {:?} which GS-NC never produces",
            c.vertices
        );
    }
    // and LS finds at least one non-contained MAC here
    assert!(!local.is_empty());
}

/// LS on Example 2, pinned cell by cell: sample weights bit for bit,
/// communities, constraint counts, and every work counter of its
/// `SearchStats` (`memory_bytes` included, which the figure tables report).
/// The values were recorded from the allocating arrangement tree that `verify`
/// used before it moved onto the pooled `arrange_into`.
#[test]
fn local_search_cells_and_stats_are_pinned() {
    let rsn = paper_example_network();
    let local = search(
        &rsn,
        &example2_query(),
        AlgorithmChoice::Local,
        ExecutionPolicy::new().with_max_candidates(20),
    );
    let expected: [([u64; 2], &[u32], usize); 4] = [
        ([4595583394390266370, 4599623893180221159], &[1, 2, 4, 5], 3),
        (
            [4598471097508773652, 4597783389558208889],
            &[1, 2, 3, 4, 5],
            5,
        ),
        (
            [4601564221261595833, 4598717961038831323],
            &[0, 1, 2, 3, 4, 5],
            3,
        ),
        ([4594130230877431130, 4597960330662229531], &[1, 2, 5, 6], 2),
    ];
    assert_eq!(local.cells.len(), expected.len());
    for (cell, (bits, members, constraints)) in local.cells.iter().zip(expected) {
        let got: Vec<u64> = cell.sample_weight.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, bits);
        assert_eq!(cell.communities.len(), 1);
        assert_eq!(cell.communities[0].vertices, members);
        assert_eq!(cell.cell.constraints().len(), constraints);
    }
    let s = &local.stats;
    assert_eq!((s.kt_core_vertices, s.kt_core_edges), (7, 16));
    assert_eq!(s.partitions_explored, 45);
    assert_eq!((s.halfspaces_computed, s.halfspace_insertions), (38, 38));
    assert_eq!((s.dominance_tests, s.candidates_generated), (19, 18));
    assert_eq!(s.memory_bytes, 5092);
    assert_eq!((s.parallel_workers, s.tasks_stolen), (0, 0));
}

#[test]
fn example1_setting_has_a_five_member_mac() {
    // Example 1: Q = {v2}, k = 2, t = 9. The subgraph {v2, v3, v5, v6, v7}
    // is an MAC for part of R; verify that the fixed-weight peel produces a
    // community containing the query for any sampled weight and that GS
    // reports only valid (k,t)-cores.
    let rsn = paper_example_network();
    let query = MacQuery::new(vec![1], 2, 9.0, paper_region());
    let result = global_search(&rsn, &query);
    assert!(!result.is_empty());
    for cell in &result.cells {
        let c = &cell.communities[0];
        assert!(c.contains(1));
        // every member is one of v1..v7 (the only users within distance 9)
        assert!(c.vertices.iter().all(|&v| v <= 6));
        assert!(c.len() >= 3);
    }
}

#[test]
fn tighter_distance_threshold_shrinks_the_core() {
    let rsn = paper_example_network();
    // with t = 7 the query distance of v3 (= 9 to r6) is too large, so the
    // (3,t)-core for Q = {v2, v3, v6} disappears entirely
    let query = MacQuery::new(vec![1, 2, 5], 3, 7.0, paper_region());
    let result = global_search(&rsn, &query);
    assert!(result.is_empty());
}
