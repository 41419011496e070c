//! Fixed-weight peeling: the exact MAC computation for one weight vector.
//!
//! For a single weight vector `w`, the top-j MACs can be computed by the
//! iterative deletion argument of Lemmas 4–6: start from the maximal
//! (k,t)-core, repeatedly delete the smallest-score vertex together with the
//! structural cascade (Algorithm 1's DFS procedure), and stop when Corollary 1
//! fires. The global search effectively runs this process symbolically over
//! whole partitions of `R`; this module runs it for a concrete `w`, which is
//! used (a) as the per-cell verification oracle of the local search, (b) to
//! recover top-j communities for a cell, and (c) as the ground truth in the
//! test suite.

use crate::context::SearchContext;
use rsn_graph::subgraph::SubgraphView;

/// Result of peeling at one weight vector.
#[derive(Debug, Clone, PartialEq)]
pub struct PeelOutcome {
    /// Local ids of the non-contained MAC at this weight vector.
    pub final_vertices: Vec<u32>,
    /// Deleted vertex groups, in deletion order (each group is one smallest-
    /// score deletion plus its structural cascade and connectivity trim).
    pub deletion_groups: Vec<Vec<u32>>,
}

impl PeelOutcome {
    /// The top-j communities (as local-id sets) implied by the peel: the final
    /// community first, then progressively adding back the most recently
    /// deleted groups (the heap-backtracking of Algorithm 1, line 13).
    pub fn top_j(&self, j: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::with_capacity(j);
        let mut current = self.final_vertices.clone();
        current.sort_unstable();
        out.push(current.clone());
        for group in self.deletion_groups.iter().rev() {
            if out.len() >= j {
                break;
            }
            current.extend(group.iter().copied());
            current.sort_unstable();
            out.push(current.clone());
        }
        out
    }
}

/// Runs the fixed-weight peeling process on the (k,t)-core of `ctx`.
///
/// Returns the non-contained MAC for `reduced_w` together with the deletion
/// history. The weight vector is expected to lie inside the query region,
/// but any valid reduced weight vector is accepted.
pub fn peel_at_weight(ctx: &SearchContext<'_>, reduced_w: &[f64]) -> PeelOutcome {
    let k = ctx.query.k;
    let q = &ctx.local_q;
    let n = ctx.core_size();
    let mut view = SubgraphView::full(&ctx.local_graph);
    let mut groups: Vec<Vec<u32>> = Vec::new();

    loop {
        // smallest-score alive vertex
        let mut min_v: Option<u32> = None;
        let mut min_score = f64::INFINITY;
        for v in 0..n as u32 {
            if view.is_alive(v) {
                let s = ctx.score(v, reduced_w);
                if s < min_score {
                    min_score = s;
                    min_v = Some(v);
                }
            }
        }
        let Some(u) = min_v else { break };
        // Corollary 1(1): the smallest-score vertex is a query vertex.
        if q.contains(&u) {
            break;
        }
        // Tentative deletion with cascade (Algorithm 1, lines 15-20), behind
        // a checkpoint so a failed step rolls back without cloning.
        let cp = view.checkpoint();
        view.delete_cascade(u, k);
        if q.iter().any(|&qv| !view.is_alive(qv)) {
            view.rollback(cp);
            break;
        }
        // The view is connected at `cp`: the root core is the connected
        // k-core containing `Q`, and every committed step trimmed the view
        // to `q[0]`'s component.
        view.retain_component_since(q[0], cp);
        if q.iter().any(|&qv| !view.is_alive(qv)) {
            view.rollback(cp);
            break;
        }
        // Corollary 1(2): nothing left beyond Q-connected k-core means the
        // previous community was non-contained; but if the k-core survived we
        // commit the deletion and continue.
        if view.num_alive() == 0 {
            view.rollback(cp);
            break;
        }
        groups.push(view.log_since(cp).to_vec());
    }

    let mut final_vertices = view.alive_vertices();
    final_vertices.sort_unstable();
    PeelOutcome {
        final_vertices,
        deletion_groups: groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoadSocialNetwork;
    use crate::query::MacQuery;
    use rsn_geom::region::PrefRegion;
    use rsn_graph::graph::Graph;
    use rsn_road::network::{Location, RoadNetwork};

    /// A 6-user network: K4 on {0,1,2,3} and K4 on {0,1,4,5} sharing the edge
    /// (0,1); 2-dimensional attributes make {2,3} strong in dim 1 and {4,5}
    /// strong in dim 2.
    fn network() -> RoadSocialNetwork {
        let social = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (0, 4),
                (0, 5),
                (1, 4),
                (1, 5),
                (4, 5),
            ],
        );
        let road = RoadNetwork::from_edges(2, &[(0, 1, 1.0)]);
        let locations = vec![Location::vertex(0); 6];
        let attrs = vec![
            vec![6.0, 6.0], // 0: query, strong everywhere
            vec![6.0, 6.0], // 1: query, strong everywhere
            vec![9.0, 1.0], // 2: strong in dim 1
            vec![8.0, 2.0], // 3
            vec![1.0, 9.0], // 4: strong in dim 2
            vec![2.0, 8.0], // 5
        ];
        RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
    }

    fn context(rsn: &RoadSocialNetwork, query: &MacQuery) -> SearchContext<'static> {
        // SAFETY for tests: leak to get 'static lifetimes conveniently.
        let rsn: &'static RoadSocialNetwork = Box::leak(Box::new(rsn.clone()));
        let query: &'static MacQuery = Box::leak(Box::new(query.clone()));
        SearchContext::build(rsn, query).unwrap().unwrap()
    }

    #[test]
    fn peel_prefers_high_scoring_side() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region);
        let ctx = context(&rsn, &query);

        // w1 = 0.9: dimension 1 dominates, so the {2,3} side survives
        let high_w1 = peel_at_weight(&ctx, &[0.9]);
        let comm = ctx.community_from_locals(&high_w1.final_vertices);
        assert_eq!(comm.vertices, vec![0, 1, 2, 3]);

        // w1 = 0.1: dimension 2 dominates, so the {4,5} side survives
        let low_w1 = peel_at_weight(&ctx, &[0.1]);
        let comm2 = ctx.community_from_locals(&low_w1.final_vertices);
        assert_eq!(comm2.vertices, vec![0, 1, 4, 5]);
    }

    #[test]
    fn peel_stops_at_query_vertex() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        // query vertex 4 has the lowest dim-1 score; with w1 high the peel
        // would want to delete it first but must stop instead
        let query = MacQuery::new(vec![4], 3, 10.0, region);
        let ctx = context(&rsn, &query);
        let outcome = peel_at_weight(&ctx, &[0.9]);
        let comm = ctx.community_from_locals(&outcome.final_vertices);
        assert!(comm.contains(4));
        // the community is still a connected k-core containing the query
        assert!(comm.len() >= 4);
    }

    #[test]
    fn top_j_adds_back_deletion_groups() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        let query = MacQuery::new(vec![0, 1], 3, 10.0, region).with_top_j(2);
        let ctx = context(&rsn, &query);
        let outcome = peel_at_weight(&ctx, &[0.9]);
        let top = outcome.top_j(2);
        assert_eq!(top.len(), 2.min(outcome.deletion_groups.len() + 1));
        // the first is the non-contained MAC, later entries are supersets
        for window in top.windows(2) {
            let smaller: std::collections::HashSet<u32> = window[0].iter().copied().collect();
            assert!(window[1].iter().filter(|v| smaller.contains(v)).count() == smaller.len());
            assert!(window[1].len() > window[0].len());
        }
        // the largest possible answer is the whole (k,t)-core
        let top_many = outcome.top_j(100);
        assert_eq!(top_many.last().unwrap().len(), ctx.core_size());
    }

    #[test]
    fn peel_on_minimal_core_returns_it() {
        let rsn = network();
        let region = PrefRegion::from_ranges(&[(0.1, 0.9)]).unwrap();
        // k = 5 has no 5-core; k = 3 with all six queried cannot delete anyone
        let query = MacQuery::new(vec![0, 1, 2, 3, 4, 5], 3, 10.0, region);
        let ctx = context(&rsn, &query);
        let outcome = peel_at_weight(&ctx, &[0.5]);
        assert_eq!(outcome.final_vertices.len(), 6);
        assert!(outcome.deletion_groups.is_empty());
    }
}
