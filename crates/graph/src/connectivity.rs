//! Connectivity helpers shared by the core-decomposition and search code.

use crate::graph::{Graph, VertexId};

/// BFS from `start` restricted to vertices whose `alive` flag is set.
///
/// Returns a boolean mask of reachable vertices (the mask of the whole graph,
/// not only the alive subset). If `start` itself is not alive the result is
/// all-false.
pub fn bfs_reachable(g: &Graph, start: VertexId, alive: &[bool]) -> Vec<bool> {
    let n = g.num_vertices();
    let mut visited = vec![false; n];
    if (start as usize) >= n || !alive[start as usize] {
        return visited;
    }
    let mut queue = std::collections::VecDeque::new();
    visited[start as usize] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if alive[u as usize] && !visited[u as usize] {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    visited
}

/// Connected components of the subgraph induced by the `alive` mask.
///
/// Returns `(component_id, count)` where dead vertices get `u32::MAX`.
pub fn connected_components(g: &Graph, alive: &[bool]) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if !alive[s] || comp[s] != u32::MAX {
            continue;
        }
        comp[s] = next;
        queue.push_back(s as u32);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if alive[u as usize] && comp[u as usize] == u32::MAX {
                    comp[u as usize] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn two_triangles_with_bridge() -> Graph {
        Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (4, 6),
            ],
        )
    }

    #[test]
    fn bfs_respects_alive_mask() {
        let g = two_triangles_with_bridge();
        let mut alive = vec![true; 7];
        alive[3] = false; // cut the bridge
        let reach = bfs_reachable(&g, 0, &alive);
        assert!(reach[0] && reach[1] && reach[2]);
        assert!(!reach[3] && !reach[4] && !reach[5] && !reach[6]);
    }

    #[test]
    fn bfs_from_dead_start_is_empty() {
        let g = two_triangles_with_bridge();
        let mut alive = vec![true; 7];
        alive[0] = false;
        let reach = bfs_reachable(&g, 0, &alive);
        assert!(reach.iter().all(|&b| !b));
    }

    #[test]
    fn components_count() {
        let g = two_triangles_with_bridge();
        let alive = vec![true; 7];
        let (_, count) = connected_components(&g, &alive);
        assert_eq!(count, 1);
        let mut alive2 = alive.clone();
        alive2[3] = false;
        let (comp, count2) = connected_components(&g, &alive2);
        assert_eq!(count2, 2);
        assert_eq!(comp[3], u32::MAX);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[6]);
    }

    #[test]
    fn connected_subset_checks() {
        let g = two_triangles_with_bridge();
        let alive = vec![true; 7];
        assert!(bfs_reachable(&g, 0, &alive)[6]);
        let mut alive2 = alive.clone();
        alive2[3] = false;
        assert!(!bfs_reachable(&g, 0, &alive2)[6]);
        let reach = bfs_reachable(&g, 4, &alive2);
        assert!(reach[5] && reach[6]);
    }
}
