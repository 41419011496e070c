//! k-truss decomposition and truss-based community extraction.
//!
//! Section II-B of the paper notes that the MAC techniques apply to other
//! structural cohesiveness criteria such as k-truss; the case study (Fig. 15h)
//! compares against ATC, an attributed (k+1)-truss community. This module
//! provides the truss substrate used by the `rsn-baselines` crate.

use crate::connectivity::bfs_reachable;
use crate::graph::{Graph, VertexId};

/// Computes the truss number of every edge.
///
/// The truss number of an edge `e` is the largest `k` such that `e` belongs to
/// a k-truss, i.e. a subgraph in which every edge participates in at least
/// `k − 2` triangles. Returns a map keyed by canonical `(min, max)` edges.
fn truss_numbers(g: &Graph) -> std::collections::HashMap<(VertexId, VertexId), u32> {
    use std::collections::HashMap;
    let mut support: HashMap<(VertexId, VertexId), u32> = HashMap::new();
    // Triangle counting by neighbourhood intersection (adjacency lists sorted).
    for (u, v) in g.edges() {
        let mut count = 0u32;
        let (nu, nv) = (g.neighbors(u), g.neighbors(v));
        let (mut i, mut j) = (0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        support.insert((u, v), count);
    }

    let mut alive: HashMap<(VertexId, VertexId), bool> =
        support.keys().map(|&e| (e, true)).collect();
    let mut truss: HashMap<(VertexId, VertexId), u32> = HashMap::new();
    let mut edges: Vec<(VertexId, VertexId)> = support.keys().copied().collect();

    let mut k = 2u32;
    while !edges.is_empty() {
        loop {
            // Peel all edges with support <= k - 2.
            let peel: Vec<(VertexId, VertexId)> = edges
                .iter()
                .copied()
                .filter(|e| alive[e] && support[e] + 2 <= k)
                .collect();
            if peel.is_empty() {
                break;
            }
            for e in peel {
                alive.insert(e, false);
                truss.insert(e, k);
                let (u, v) = e;
                // decrement support of triangles through (u, v)
                let (nu, nv) = (g.neighbors(u), g.neighbors(v));
                let (mut i, mut j) = (0usize, 0usize);
                while i < nu.len() && j < nv.len() {
                    match nu[i].cmp(&nv[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            let w = nu[i];
                            let e1 = canonical(u, w);
                            let e2 = canonical(v, w);
                            if *alive.get(&e1).unwrap_or(&false)
                                && *alive.get(&e2).unwrap_or(&false)
                            {
                                if let Some(s) = support.get_mut(&e1) {
                                    *s = s.saturating_sub(1);
                                }
                                if let Some(s) = support.get_mut(&e2) {
                                    *s = s.saturating_sub(1);
                                }
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        edges.retain(|e| alive[e]);
        k += 1;
    }
    truss
}

/// Canonical undirected edge key.
#[inline]
fn canonical(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Extracts the connected k-truss containing every query vertex, if any:
/// keeps only edges with truss number `>= k`, then returns the connected
/// component (by vertices) containing all of `q`.
pub fn connected_k_truss_containing(g: &Graph, k: u32, q: &[VertexId]) -> Option<Vec<VertexId>> {
    if q.is_empty() {
        return None;
    }
    let truss = truss_numbers(g);
    let n = g.num_vertices();
    let mut keep_edges: Vec<(VertexId, VertexId)> = truss
        .iter()
        .filter(|&(_, &t)| t >= k)
        .map(|(&e, _)| e)
        .collect();
    keep_edges.sort_unstable();
    let sub = Graph::from_edges(n, &keep_edges);
    let alive: Vec<bool> = (0..n as u32).map(|v| sub.degree(v) > 0).collect();
    for &v in q {
        if (v as usize) >= n || !alive[v as usize] {
            return None;
        }
    }
    let reach = bfs_reachable(&sub, q[0], &alive);
    if q.iter().any(|&v| !reach[v as usize]) {
        return None;
    }
    Some((0..n as u32).filter(|&v| reach[v as usize]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4_plus_tail() -> Graph {
        // K4 on {0,1,2,3}, tail 3-4-5
        Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
    }

    #[test]
    fn truss_of_k4() {
        let g = k4_plus_tail();
        let truss = truss_numbers(&g);
        // every K4 edge is in a 4-truss, tail edges only a 2-truss
        assert_eq!(truss[&(0, 1)], 4);
        assert_eq!(truss[&(2, 3)], 4);
        assert_eq!(truss[&(3, 4)], 2);
        assert_eq!(truss[&(4, 5)], 2);
    }

    #[test]
    fn truss_of_triangle_free() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let truss = truss_numbers(&g);
        assert!(truss.values().all(|&t| t == 2));
    }

    #[test]
    fn connected_truss_community() {
        let g = k4_plus_tail();
        let comm = connected_k_truss_containing(&g, 4, &[0]).unwrap();
        assert_eq!(comm, vec![0, 1, 2, 3]);
        assert!(connected_k_truss_containing(&g, 4, &[5]).is_none());
        assert!(connected_k_truss_containing(&g, 5, &[0]).is_none());
        let comm2 = connected_k_truss_containing(&g, 2, &[5]).unwrap();
        assert_eq!(comm2.len(), 6);
    }

    #[test]
    fn truss_empty_inputs() {
        let g = Graph::new(3);
        assert!(truss_numbers(&g).is_empty());
        assert!(connected_k_truss_containing(&g, 2, &[0]).is_none());
        assert!(connected_k_truss_containing(&g, 2, &[]).is_none());
    }

    #[test]
    fn a_k_plus_1_truss_is_a_k_core() {
        // Structural relation used by the ATC comparison in the case study.
        let g = k4_plus_tail();
        let comm = connected_k_truss_containing(&g, 4, &[0]).unwrap();
        let (sub, _) = g.induced_subgraph(&comm);
        let min_deg = (0..sub.num_vertices() as u32)
            .map(|v| sub.degree(v))
            .min()
            .unwrap();
        assert!(min_deg >= 3);
    }
}
