//! Independent reference for the r-dominance graph `G_d`: the builder's
//! output is checked against the definitions of Section IV, computed the
//! slow way, not against another run of the builder.
//!
//! * dominator closure = the transitive closure (Floyd–Warshall) of the
//!   pairwise `r_dominance(a, b) == Dominates` relation;
//! * layers = the length of the longest dominator chain above a vertex,
//!   relaxed to the fixpoint.
//!
//! The leaf and top selectors over a vertex mask (`leaves_within`, the word
//! form `leaves_within_into` over a packed mask, `top_within`) are checked
//! against the pairwise relation itself, not against the closure: a leaf
//! r-dominates no other masked vertex, a top vertex is r-dominated by none.
//!
//! Inputs have 2 to 5 attributes, up to 150 rows and narrow random regions.
//! One input in three puts its rows on a small integer grid, so pivot-score
//! ties, duplicate rows and `Equivalent` pairs occur.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use road_social_mac::dom::{AttrMatrix, BitSet, DominanceGraph};
use road_social_mac::geom::rdominance::{r_dominance, DominanceRelation};
use road_social_mac::geom::PrefRegion;

fn fuzz_cases(full: u32) -> u32 {
    if cfg!(debug_assertions) {
        (full / 4).max(4)
    } else {
        full
    }
}

/// A random input drawn from `seed`: the rows and a narrow region.
fn random_input(seed: u64) -> (Vec<Vec<f64>>, PrefRegion) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = rng.random_range(2..=5usize);
    let n = rng.random_range(0..=150usize);
    let grid = rng.random_range(0..3) == 0;
    let rows = (0..n)
        .map(|_| {
            (0..d)
                .map(|_| {
                    if grid {
                        rng.random_range(0..5) as f64
                    } else {
                        rng.random_range(0.0..10.0)
                    }
                })
                .collect()
        })
        .collect();
    // Each reduced weight gets an equal share of the simplex and a window of
    // width at most 0.15 inside it, so the highs still sum to at most 1.
    let share = 1.0 / d as f64;
    let ranges: Vec<(f64, f64)> = (0..d - 1)
        .map(|_| {
            let width = rng.random_range(0.005..0.15f64).min(share);
            let lo = rng.random_range(0.0..=share - width);
            (lo, lo + width)
        })
        .collect();
    (rows, PrefRegion::from_ranges(&ranges).unwrap())
}

/// `dom[a][b]`: the pairwise test says `a` r-dominates `b`.
fn pairwise(rows: &[Vec<f64>], region: &PrefRegion) -> Vec<Vec<bool>> {
    let n = rows.len();
    (0..n)
        .map(|a| {
            (0..n)
                .map(|b| {
                    a != b
                        && r_dominance(&rows[a], &rows[b], region) == DominanceRelation::Dominates
                })
                .collect()
        })
        .collect()
}

/// `closure[a][b]`: `a` r-dominates `b`, directly or through a chain.
fn reference_closure(rows: &[Vec<f64>], region: &PrefRegion) -> Vec<Vec<bool>> {
    let n = rows.len();
    let mut c = pairwise(rows, region);
    for k in 0..n {
        let row_k = c[k].clone();
        for row in c.iter_mut().filter(|row| row[k]) {
            for (cij, &ckj) in row.iter_mut().zip(&row_k) {
                *cij |= ckj;
            }
        }
    }
    c
}

fn check_against_reference(seed: u64) {
    let (rows, region) = random_input(seed);
    let n = rows.len();
    let ids: Vec<u32> = (0..n as u32).map(|i| 1000 + 7 * i).collect();
    let gd = DominanceGraph::build_flat(&ids, &AttrMatrix::from_rows(&rows), &region);
    let c = reference_closure(&rows, &region);
    assert!(
        (0..n).all(|v| !c[v][v]),
        "seed {seed}: the relation has a cycle"
    );

    let dominators_of = |v: usize| -> Vec<usize> { (0..n).filter(|&a| c[a][v]).collect() };
    for v in 0..n {
        let got: Vec<usize> = gd.dominators(v).iter().collect();
        assert_eq!(got, dominators_of(v), "seed {seed}: dominators of {v}");
    }

    // Longest dominator chain, by relaxation to the fixpoint.
    let mut layers = vec![0u32; n];
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            let best = (0..n)
                .filter(|&u| c[u][v])
                .map(|u| layers[u] + 1)
                .max()
                .unwrap_or(0);
            if best != layers[v] {
                layers[v] = best;
                changed = true;
            }
        }
    }
    let got_layers = gd.layers();
    for v in 0..n {
        assert_eq!(got_layers[v], layers[v], "seed {seed}: layer of {v}");
        assert_eq!(gd.local_of(ids[v]), Some(v));
    }
    assert!(gd.tests_performed() <= n * n.saturating_sub(1) / 2);
}

/// Checks the leaf and top selectors of `seed`'s graph on random masks of
/// every density (empty and full included) against the pairwise relation.
fn check_selectors_against_definitions(seed: u64) {
    let (rows, region) = random_input(seed);
    let n = rows.len();
    let ids: Vec<u32> = (0..n as u32).collect();
    let gd = DominanceGraph::build_flat(&ids, &AttrMatrix::from_rows(&rows), &region);
    let dom = pairwise(&rows, &region);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    // One scratch pair across all masks, as the global search reuses it.
    let mut mark = Vec::new();
    let mut arena = vec![u32::MAX];
    for density in [0.0, 0.1, 0.5, 0.9, 1.0] {
        let mask: Vec<bool> = (0..n).map(|_| rng.random_bool(density)).collect();
        let leaves: Vec<usize> = (0..n)
            .filter(|&v| mask[v] && !(0..n).any(|u| mask[u] && dom[v][u]))
            .collect();
        let tops: Vec<usize> = (0..n)
            .filter(|&v| mask[v] && !(0..n).any(|u| mask[u] && dom[u][v]))
            .collect();
        assert_eq!(gd.leaves_within(&mask), leaves, "seed {seed}: leaves");
        assert_eq!(gd.top_within(&mask), tops, "seed {seed}: tops");

        // The word form over the packed mask appends after whatever the
        // arena holds.
        let mut packed = BitSet::new(n);
        for v in (0..n).filter(|&v| mask[v]) {
            packed.set(v);
        }
        arena.truncate(1);
        gd.leaves_within_into(packed.words(), &mut mark, &mut arena);
        assert_eq!(arena[0], u32::MAX, "seed {seed}: arena prefix clobbered");
        let pooled: Vec<usize> = arena[1..].iter().map(|&v| v as usize).collect();
        assert_eq!(pooled, leaves, "seed {seed}: pooled leaves");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fuzz_cases(400), .. ProptestConfig::default() })]

    #[test]
    fn dominance_graph_matches_the_definitions(seed in 0u64..1_000_000) {
        check_against_reference(seed);
    }

    #[test]
    fn leaf_and_top_selectors_match_the_pairwise_relation(seed in 0u64..1_000_000) {
        check_selectors_against_definitions(seed);
    }
}
