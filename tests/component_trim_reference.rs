//! Reference for the early-exit connectivity trim: on a view that was
//! connected at a checkpoint, `SubgraphView::retain_component_since` must
//! leave exactly the state the full-BFS `retain_component_of` leaves
//! on a clone — the same alive set, the same degrees and the same log suffix
//! (the kill order the global search records as a deletion group). The
//! killed suffix is also checked against the test's own BFS: the vertices
//! the root cannot reach, in id order.
//!
//! The benchmark workloads never split a view, so the graphs here are built
//! to split: dense blobs joined by bridges, by shared articulation vertices
//! and by pendant paths. Each round walks a DFS-like sequence of states from
//! a connected view: a random deletion round (a k-cascade, or single
//! deletions aimed at cut vertices), the trim, then either a commit or a
//! rollback to an earlier checkpoint, so every trim starts from a connected
//! view as in the search. The test also asserts that enough trims really
//! removed vertices.

use rand::prelude::*;
use rand::rngs::StdRng;
use road_social_mac::graph::subgraph::SubgraphView;
use road_social_mac::graph::Graph;

/// A connected graph of dense blobs. Each new blob hangs off an earlier
/// vertex through a bridge, a shared articulation vertex, or a pendant path.
fn random_split_prone_graph(rng: &mut StdRng) -> Graph {
    let mut n = 0u32;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for blob in 0..rng.random_range(2..7u32) {
        let size = rng.random_range(2..8u32);
        let mut members: Vec<u32> = (n..n + size).collect();
        n += size;
        if blob > 0 {
            let anchor = rng.random_range(0..members[0]);
            match rng.random_range(0..3u32) {
                // bridge from the anchor into the blob
                0 => edges.push((anchor, members[0])),
                // the anchor becomes a member: an articulation vertex
                1 => members.push(anchor),
                // a pendant path of bridges
                _ => {
                    let mut prev = anchor;
                    for _ in 0..rng.random_range(1..4u32) {
                        edges.push((prev, n));
                        prev = n;
                        n += 1;
                    }
                    edges.push((prev, members[0]));
                }
            }
        }
        // A spanning path keeps the blob connected; extra chords make it dense.
        for w in members.windows(2) {
            edges.push((w[0], w[1]));
        }
        for (i, &a) in members.iter().enumerate() {
            for &b in members.iter().skip(i + 2) {
                if rng.random_bool(0.6) {
                    edges.push((a, b));
                }
            }
        }
    }
    Graph::from_edges(n as usize, &edges)
}

/// `reach[v]`: `v` is alive and reachable from `root` in `view`.
fn reachable(view: &SubgraphView<'_>, root: u32) -> Vec<bool> {
    let mut reach = vec![false; view.graph().num_vertices()];
    if !view.is_alive(root) {
        return reach;
    }
    let mut stack = vec![root];
    reach[root as usize] = true;
    while let Some(v) = stack.pop() {
        for u in view.alive_neighbors(v) {
            if !reach[u as usize] {
                reach[u as usize] = true;
                stack.push(u);
            }
        }
    }
    reach
}

/// Whether `view`'s alive vertices form one component.
fn is_connected(view: &SubgraphView<'_>) -> bool {
    let alive = view.alive_vertices();
    let Some(&root) = alive.first() else {
        return true;
    };
    let reach = reachable(view, root);
    alive.iter().all(|&v| reach[v as usize])
}

#[test]
fn early_exit_trim_matches_the_full_bfs_trim() {
    let mut rng = StdRng::seed_from_u64(0x7A1F);
    let (mut trims, mut splits) = (0usize, 0usize);
    for round in 0..1000 {
        let g = random_split_prone_graph(&mut rng);
        let n = g.num_vertices() as u32;
        let mut view = SubgraphView::full(&g);
        assert!(is_connected(&view), "round {round}: generator");
        let mut checkpoints = Vec::new();
        for step in 0..rng.random_range(1..12usize) {
            let alive = view.alive_vertices();
            if alive.len() < 2 {
                break;
            }
            let root = alive[rng.random_range(0..alive.len())];
            let cp = view.checkpoint();
            if rng.random_bool(0.5) {
                view.delete_cascade(rng.random_range(0..n), rng.random_range(1..4u32));
            } else {
                // Single deletions of well-connected vertices: these are
                // the cut vertices of the blob structure.
                for _ in 0..rng.random_range(1..3usize) {
                    let v = rng.random_range(0..n);
                    if view.degree_of(v) >= 2 {
                        view.delete_single(v);
                    }
                }
            }
            let round_len = view.log_since(cp).len();
            // The trim kills the alive vertices `root` cannot reach, in id
            // order (nothing when `root` itself died).
            let reach = reachable(&view, root);
            let cut: Vec<u32> = (0..n)
                .filter(|&v| view.is_alive(root) && view.is_alive(v) && !reach[v as usize])
                .collect();
            let mut reference = view.clone();
            reference.retain_component_of(root);
            view.retain_component_since(root, cp);
            let ctx = format!("round {round}, step {step}, root {root}");
            for v in 0..n {
                assert_eq!(view.is_alive(v), reference.is_alive(v), "{ctx}: alive {v}");
                assert_eq!(
                    view.degree_of(v),
                    reference.degree_of(v),
                    "{ctx}: degree {v}"
                );
            }
            assert_eq!(view.num_alive(), reference.num_alive(), "{ctx}");
            assert_eq!(view.log_since(cp), reference.log_since(cp), "{ctx}: log");
            assert_eq!(&view.log_since(cp)[round_len..], cut, "{ctx}: kill order");
            trims += 1;
            if view.is_alive(root) {
                assert!(is_connected(&view), "{ctx}: trim left a split view");
            }
            splits += usize::from(view.log_since(cp).len() > round_len);
            // Commit, or return to an earlier (connected) state.
            if rng.random_bool(0.7) && view.is_alive(root) {
                checkpoints.push(cp);
            } else {
                let back = checkpoints
                    .drain(rng.random_range(0..=checkpoints.len())..)
                    .next()
                    .unwrap_or(cp);
                view.rollback(back);
            }
            assert!(is_connected(&view), "{ctx}: next state is not connected");
        }
    }
    assert!(trims >= 5000, "only {trims} trims ran");
    assert!(splits * 10 >= trims, "only {splits} of {trims} trims split");
}
