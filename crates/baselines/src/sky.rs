//! Skyline community search (Li et al., SIGMOD 2018).
//!
//! A skyline community is a maximal connected k-core whose d-dimensional
//! score vector `f(H) = (min_v x_1(v), …, min_v x_d(v))` is not dominated by
//! the score vector of any other connected k-core. The basic algorithm
//! recursively reduces the dimensionality: for every candidate threshold on
//! dimension d it constrains the graph to vertices with `x_d` above the
//! threshold and solves the (d−1)-dimensional problem on the surviving k-core;
//! `SkyPlus` (the space-partition variant) prunes thresholds that cannot
//! change the constrained vertex set. Both share the d = 1 base case — peel
//! minimum-`x_1` vertices while a k-core survives — and both blow up with d,
//! which is the behaviour the comparison figures report.

use rsn_dom::attrs::AttrMatrix;
use rsn_geom::rdominance::traditional_dominates;
use rsn_graph::graph::{Graph, VertexId};
use rsn_graph::subgraph::SubgraphView;
use std::time::Instant;

/// A skyline community and its score vector.
#[derive(Debug, Clone, PartialEq)]
pub struct SkylineCommunity {
    /// Member vertices (sorted).
    pub vertices: Vec<VertexId>,
    /// `f(H)`: per-dimension minimum over the members.
    pub score: Vec<f64>,
}

/// The basic skyline community algorithm (`Sky`). Returns `None` once
/// `deadline` has passed; with no deadline it always returns `Some`.
pub fn skyline_communities(
    graph: &Graph,
    attrs: &AttrMatrix,
    k: u32,
    deadline: Option<Instant>,
) -> Option<Vec<SkylineCommunity>> {
    search(graph, attrs, k, false, deadline)
}

/// The space-partition variant (`Sky+`): identical output, fewer recursive
/// calls thanks to threshold pruning. Returns `None` once `deadline` has
/// passed.
pub fn skyline_communities_pruned(
    graph: &Graph,
    attrs: &AttrMatrix,
    k: u32,
    deadline: Option<Instant>,
) -> Option<Vec<SkylineCommunity>> {
    search(graph, attrs, k, true, deadline)
}

fn search(
    graph: &Graph,
    attrs: &AttrMatrix,
    k: u32,
    prune: bool,
    deadline: Option<Instant>,
) -> Option<Vec<SkylineCommunity>> {
    let mut run = Search {
        graph,
        attrs,
        k,
        prune,
        deadline,
        out: Vec::new(),
    };
    run.recurse(attrs.dim(), &vec![true; graph.num_vertices()])?;
    dedup_and_filter(run.out, deadline)
}

/// `None` once `deadline` has passed. Every loop of the search polls it once
/// per iteration, so a capped run stops within one peel step or one
/// threshold's k-core.
fn within(deadline: Option<Instant>) -> Option<()> {
    match deadline {
        Some(d) if Instant::now() >= d => None,
        _ => Some(()),
    }
}

/// One run of the recursion: its fixed inputs and the communities found.
struct Search<'a> {
    graph: &'a Graph,
    attrs: &'a AttrMatrix,
    k: u32,
    prune: bool,
    deadline: Option<Instant>,
    out: Vec<SkylineCommunity>,
}

impl Search<'_> {
    fn recurse(&mut self, dim: usize, alive: &[bool]) -> Option<()> {
        if dim == 0 {
            return Some(());
        }
        if dim == 1 {
            return self.one_dimensional(0, alive);
        }
        // Candidate thresholds: the distinct values of dimension `dim - 1`
        // among the alive vertices (ascending). Constraining to >= threshold
        // and recursing on the remaining dimensions enumerates every skyline
        // value of this dimension.
        let attrs = self.attrs;
        let mut thresholds: Vec<f64> = (0..alive.len())
            .filter(|&v| alive[v])
            .map(|v| attrs.row(v)[dim - 1])
            .collect();
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup();
        let mut previous_count = usize::MAX;
        for &threshold in &thresholds {
            within(self.deadline)?;
            let constrained: Vec<bool> = (0..alive.len())
                .map(|v| alive[v] && attrs.row(v)[dim - 1] >= threshold)
                .collect();
            let count = constrained.iter().filter(|&&b| b).count();
            if self.prune && count == previous_count {
                // Space-partition pruning: the constrained vertex set did not
                // change, so the recursion would repeat the previous results.
                continue;
            }
            previous_count = count;
            if count == 0 {
                break;
            }
            // Restrict to the k-core of the constrained subgraph.
            let mut view = SubgraphView::from_mask(self.graph, &constrained);
            view.peel_to_k_core(self.k);
            if view.num_alive() == 0 {
                break;
            }
            self.recurse(dim - 1, view.alive_mask())?;
        }
        Some(())
    }

    /// d = 1 base case: all maximal connected k-cores that appear while
    /// peeling minimum-value vertices of dimension `dim_index`, scored by the
    /// full vector.
    fn one_dimensional(&mut self, dim_index: usize, alive: &[bool]) -> Option<()> {
        let attrs = self.attrs;
        let mut view = SubgraphView::from_mask(self.graph, alive);
        view.peel_to_k_core(self.k);
        while view.num_alive() > 0 {
            within(self.deadline)?;
            record(self.graph, attrs, &view, &mut self.out);
            // delete the minimum-value alive vertex in the peeling dimension
            let min_v = view.alive_vertices().into_iter().min_by(|&a, &b| {
                attrs.row(a as usize)[dim_index].total_cmp(&attrs.row(b as usize)[dim_index])
            });
            let Some(v) = min_v else { break };
            view.delete_cascade(v, self.k);
        }
        Some(())
    }
}

fn record(
    graph: &Graph,
    attrs: &AttrMatrix,
    view: &SubgraphView<'_>,
    out: &mut Vec<SkylineCommunity>,
) {
    let alive = view.alive_mask();
    let (comp, count) = rsn_graph::connectivity::connected_components(graph, alive);
    for c in 0..count as u32 {
        let vertices: Vec<u32> = (0..alive.len() as u32)
            .filter(|&v| comp[v as usize] == c)
            .collect();
        if vertices.is_empty() {
            continue;
        }
        let d = attrs.dim();
        let score: Vec<f64> = (0..d)
            .map(|i| {
                vertices
                    .iter()
                    .map(|&v| attrs.row(v as usize)[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        out.push(SkylineCommunity { vertices, score });
    }
}

/// Removes duplicates and dominated entries (the final skyline filter).
fn dedup_and_filter(
    mut all: Vec<SkylineCommunity>,
    deadline: Option<Instant>,
) -> Option<Vec<SkylineCommunity>> {
    all.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    all.dedup_by(|a, b| a.vertices == b.vertices);
    let mut keep = vec![true; all.len()];
    for i in 0..all.len() {
        within(deadline)?;
        for j in 0..all.len() {
            if i != j && keep[i] && traditional_dominates(&all[j].score, &all[i].score) {
                keep[i] = false;
            }
        }
    }
    Some(
        all.into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(c, _)| c)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two K4s with opposite attribute strengths plus a weak bridge.
    fn setup() -> (Graph, AttrMatrix) {
        let mut edges = vec![(3, 4), (4, 5)];
        for base in [0u32, 5u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        let graph = Graph::from_edges(9, &edges);
        let mut attrs = Vec::new();
        for v in 0..9u32 {
            if v <= 3 {
                attrs.push(vec![8.0 + v as f64 * 0.1, 2.0]);
            } else if v == 4 {
                attrs.push(vec![1.0, 1.0]);
            } else {
                attrs.push(vec![2.0, 8.0 + v as f64 * 0.1]);
            }
        }
        (graph, AttrMatrix::from_rows(&attrs))
    }

    #[test]
    fn finds_both_skyline_sides() {
        let (graph, attrs) = setup();
        let sky = skyline_communities(&graph, &attrs, 3, None).unwrap();
        assert!(sky.len() >= 2, "expected at least the two K4s, got {sky:?}");
        let has_left = sky.iter().any(|c| c.vertices == vec![0, 1, 2, 3]);
        let has_right = sky.iter().any(|c| c.vertices == vec![5, 6, 7, 8]);
        assert!(has_left && has_right);
        // none of the reported communities dominates another
        for a in &sky {
            for b in &sky {
                if a.vertices != b.vertices {
                    assert!(!traditional_dominates(&a.score, &b.score) || a.score == b.score);
                }
            }
        }
    }

    #[test]
    fn pruned_variant_matches_basic() {
        let (graph, attrs) = setup();
        let basic = skyline_communities(&graph, &attrs, 3, None).unwrap();
        let pruned = skyline_communities_pruned(&graph, &attrs, 3, None).unwrap();
        let set = |v: &[SkylineCommunity]| {
            let mut s: Vec<Vec<u32>> = v.iter().map(|c| c.vertices.clone()).collect();
            s.sort();
            s
        };
        assert_eq!(set(&basic), set(&pruned));
    }

    #[test]
    fn empty_when_no_core() {
        let (graph, attrs) = setup();
        assert!(skyline_communities(&graph, &attrs, 5, None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn deadline_cuts_the_search_and_no_deadline_changes_nothing() {
        let (graph, attrs) = setup();
        let expected = vec![
            SkylineCommunity {
                vertices: vec![0, 1, 2, 3],
                score: vec![8.0, 2.0],
            },
            SkylineCommunity {
                vertices: vec![5, 6, 7, 8],
                score: vec![2.0, 8.5],
            },
        ];
        let past = Some(Instant::now() - std::time::Duration::from_secs(1));
        let future = Some(Instant::now() + std::time::Duration::from_secs(3600));
        for search in [skyline_communities, skyline_communities_pruned] {
            assert_eq!(search(&graph, &attrs, 3, past), None);
            assert_eq!(search(&graph, &attrs, 3, None), Some(expected.clone()));
            assert_eq!(search(&graph, &attrs, 3, future), Some(expected.clone()));
        }
    }
}
