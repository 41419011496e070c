//! Deletable view over a graph supporting the cascading DFS deletion of
//! Algorithm 1 (lines 15–20), undone through a checkpoint/rollback log.
//!
//! The global search of the paper repeatedly removes the smallest-score
//! vertex of the current community and then recursively removes every vertex
//! whose degree drops below `k`. When the deletion would destroy the
//! community containing the query vertices the step has to be rolled back
//! (Corollary 1), and for top-j recovery the deleted groups are re-inserted
//! in reverse order. [`SubgraphView`] provides exactly these operations while
//! sharing the underlying immutable [`Graph`]: every removal lands in one
//! undo log, a [`Checkpoint`] marks a position in it, and callers read the
//! removals since a checkpoint with [`SubgraphView::log_since`] and revert
//! them with [`SubgraphView::rollback`].

use crate::connectivity::bfs_reachable;
use crate::graph::{Graph, VertexId};

/// A position in a view's undo log, marking a state to roll back to.
///
/// Checkpoints are cheap (an index into the log) and strictly nested: rolling
/// back to a checkpoint invalidates every checkpoint taken after it. This is
/// exactly the discipline of a DFS — take a checkpoint before exploring a
/// branch, roll back when the branch returns — and lets the global search
/// reuse *one* view across all branches instead of cloning per branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint(usize);

/// Recyclable buffers for a [`SubgraphView`]: everything the view owns
/// except the graph borrow. A caller that builds one full view per query can
/// park the buffers here between queries
/// ([`SubgraphView::recycle_into`] / [`SubgraphView::full_from_scratch`]) so
/// the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct ViewScratch {
    alive: Vec<bool>,
    alive_words: Vec<u64>,
    degree: Vec<u32>,
    log: Vec<VertexId>,
    mark: Vec<u32>,
    reach: Vec<u32>,
    queue: Vec<VertexId>,
}

impl ViewScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ViewScratch::default()
    }
}

/// A live/dead view over an immutable [`Graph`] with incremental degree
/// maintenance and an undo log for O(|undone|) rollback.
#[derive(Debug, Clone)]
pub struct SubgraphView<'a> {
    graph: &'a Graph,
    alive: Vec<bool>,
    /// `alive` packed 64 vertices to a word (bit `v % 64` of word `v / 64`),
    /// zero past the last vertex. Only `kill` and `restore_suffix` write
    /// `alive`, and they keep both in step.
    alive_words: Vec<u64>,
    degree: Vec<u32>,
    num_alive: usize,
    /// Every killed vertex, in kill order (the undo log).
    log: Vec<VertexId>,
    /// Epoch-stamped scratch marks used by rollback (no per-call allocs).
    mark: Vec<u32>,
    epoch: u32,
    /// Epoch-stamped reachability marks + BFS queue for the connectivity trims
    /// ([`Self::retain_component_of`], [`Self::retain_component_since`]) — pooled
    /// so a trim never allocates.
    reach: Vec<u32>,
    reach_epoch: u32,
    queue: Vec<VertexId>,
}

impl<'a> SubgraphView<'a> {
    /// A view in which every vertex of `graph` is alive.
    pub fn full(graph: &'a Graph) -> Self {
        let n = graph.num_vertices();
        let degree = (0..n as u32).map(|v| graph.degree(v) as u32).collect();
        let mut alive_words = Vec::new();
        fill_words(&mut alive_words, n);
        SubgraphView {
            graph,
            alive: vec![true; n],
            alive_words,
            degree,
            num_alive: n,
            log: Vec::new(),
            mark: vec![0; n],
            epoch: 0,
            reach: Vec::new(),
            reach_epoch: 0,
            queue: Vec::new(),
        }
    }

    /// [`full`](Self::full) drawing its buffers from recycled scratch, so a
    /// warmed caller pays no allocations. The inverse of
    /// [`recycle_into`](Self::recycle_into).
    pub fn full_from_scratch(graph: &'a Graph, scratch: &mut ViewScratch) -> Self {
        let n = graph.num_vertices();
        let mut alive = std::mem::take(&mut scratch.alive);
        alive.clear();
        alive.resize(n, true);
        let mut alive_words = std::mem::take(&mut scratch.alive_words);
        fill_words(&mut alive_words, n);
        let mut degree = std::mem::take(&mut scratch.degree);
        degree.clear();
        degree.extend((0..n as u32).map(|v| graph.degree(v) as u32));
        let mut log = std::mem::take(&mut scratch.log);
        log.clear();
        let mut mark = std::mem::take(&mut scratch.mark);
        mark.clear();
        mark.resize(n, 0);
        let mut reach = std::mem::take(&mut scratch.reach);
        reach.clear();
        reach.resize(n, 0);
        let mut queue = std::mem::take(&mut scratch.queue);
        queue.clear();
        SubgraphView {
            graph,
            alive,
            alive_words,
            degree,
            num_alive: n,
            log,
            mark,
            epoch: 0,
            reach,
            reach_epoch: 0,
            queue,
        }
    }

    /// Returns the view's buffers to `scratch` for a later
    /// [`full_from_scratch`](Self::full_from_scratch).
    pub fn recycle_into(self, scratch: &mut ViewScratch) {
        scratch.alive = self.alive;
        scratch.alive_words = self.alive_words;
        scratch.degree = self.degree;
        scratch.log = self.log;
        scratch.mark = self.mark;
        scratch.reach = self.reach;
        scratch.queue = self.queue;
    }

    /// A view restricted to the vertices whose mask entry is `true`.
    pub fn from_mask(graph: &'a Graph, mask: &[bool]) -> Self {
        let n = graph.num_vertices();
        assert_eq!(mask.len(), n, "mask length must equal vertex count");
        let mut degree = vec![0u32; n];
        let mut alive_words = vec![0u64; n.div_ceil(64)];
        let mut num_alive = 0;
        for v in 0..n {
            if mask[v] {
                num_alive += 1;
                alive_words[v / 64] |= 1 << (v % 64);
                degree[v] = graph
                    .neighbors(v as u32)
                    .iter()
                    .filter(|&&u| mask[u as usize])
                    .count() as u32;
            }
        }
        SubgraphView {
            graph,
            alive: mask.to_vec(),
            alive_words,
            degree,
            num_alive,
            log: Vec::new(),
            mark: vec![0; n],
            epoch: 0,
            reach: Vec::new(),
            reach_epoch: 0,
            queue: Vec::new(),
        }
    }

    /// A view restricted to an explicit vertex set.
    pub fn from_vertices(graph: &'a Graph, vertices: &[VertexId]) -> Self {
        let mut mask = vec![false; graph.num_vertices()];
        for &v in vertices {
            mask[v as usize] = true;
        }
        Self::from_mask(graph, &mask)
    }

    /// The underlying immutable graph.
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Whether `v` is currently alive.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive[v as usize]
    }

    /// Current degree of `v` within the alive subgraph (0 when dead).
    #[inline]
    pub fn degree_of(&self, v: VertexId) -> u32 {
        if self.alive[v as usize] {
            self.degree[v as usize]
        } else {
            0
        }
    }

    /// Number of alive vertices.
    #[inline]
    pub fn num_alive(&self) -> usize {
        self.num_alive
    }

    /// The alive mask (length = number of vertices in the underlying graph).
    #[inline]
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// The alive mask packed into words: vertex `v` is bit `v % 64` of word
    /// `v / 64`, and the bits past the last vertex are zero. Always equal to
    /// packing [`alive_mask`](Self::alive_mask), at no extra cost to read.
    #[inline]
    pub fn alive_words(&self) -> &[u64] {
        &self.alive_words
    }

    /// Alive vertices in increasing id order.
    pub fn alive_vertices(&self) -> Vec<VertexId> {
        (0..self.alive.len() as u32)
            .filter(|&v| self.alive[v as usize])
            .collect()
    }

    /// [`alive_vertices`](Self::alive_vertices) into a caller-owned buffer
    /// (cleared first), for hot paths that must not allocate.
    pub fn alive_vertices_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend((0..self.alive.len() as u32).filter(|&v| self.alive[v as usize]));
    }

    /// Alive neighbours of `v`.
    pub fn alive_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(move |&u| self.alive[u as usize])
    }

    /// A checkpoint of the current state; pass to [`rollback`](Self::rollback)
    /// to restore it.
    #[inline]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.log.len())
    }

    /// The vertices removed since `cp`, in removal order.
    #[inline]
    pub fn log_since(&self, cp: Checkpoint) -> &[VertexId] {
        &self.log[cp.0..]
    }

    /// Restores every vertex removed since `cp`, in O(restored + their
    /// incident edges), without allocating.
    ///
    /// Checkpoints are nested: rolling back invalidates checkpoints taken
    /// after `cp`.
    pub fn rollback(&mut self, cp: Checkpoint) {
        debug_assert!(cp.0 <= self.log.len(), "rollback past the log");
        self.restore_suffix(cp.0);
        self.log.truncate(cp.0);
    }

    /// Revives `log[start..]` and repairs degrees (log is left untouched).
    fn restore_suffix(&mut self, start: usize) {
        // Epoch-stamp the restored set so neighbour repair can tell restored
        // vertices (full degree recount) from survivors (increment).
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // wrap-around: clear stale stamps the hard way, once every 2^32
            self.mark.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        for i in start..self.log.len() {
            let v = self.log[i] as usize;
            self.mark[v] = epoch;
            self.alive[v] = true;
            self.alive_words[v / 64] |= 1 << (v % 64);
            self.num_alive += 1;
        }
        for i in start..self.log.len() {
            let v = self.log[i];
            let mut d = 0u32;
            for &u in self.graph.neighbors(v) {
                if self.alive[u as usize] {
                    d += 1;
                    if self.mark[u as usize] != epoch {
                        self.degree[u as usize] += 1;
                    }
                }
            }
            self.degree[v as usize] = d;
        }
    }

    /// Removes `seed` and then recursively removes every alive vertex whose
    /// degree drops below `k` (the DFS procedure of Algorithm 1).
    ///
    /// The removals land in the undo log; the caller is responsible for
    /// checking Corollary 1 (query vertex removed / no k-core left) and, when
    /// the deletion must be reverted, for taking a
    /// [`checkpoint`](Self::checkpoint) first and
    /// [`rollback`](Self::rollback)ing to it.
    pub fn delete_cascade(&mut self, seed: VertexId, k: u32) {
        if !self.alive[seed as usize] {
            return;
        }
        let graph = self.graph;
        let mut cursor = self.log.len();
        self.kill(seed);
        // The log doubles as the work queue: vertices killed but not yet
        // processed are exactly log[cursor..]. The cascade's fixed point (the
        // k-core of the remainder) does not depend on processing order.
        while cursor < self.log.len() {
            let v = self.log[cursor];
            cursor += 1;
            // Decrement neighbours; cascade the ones that fall below k.
            for &u in graph.neighbors(v) {
                if self.alive[u as usize] {
                    self.degree[u as usize] -= 1;
                    if self.degree[u as usize] < k {
                        self.kill(u);
                    }
                }
            }
        }
    }

    /// Removes a single vertex (no cascade), updating neighbour degrees.
    pub fn delete_single(&mut self, v: VertexId) {
        if !self.alive[v as usize] {
            return;
        }
        let graph = self.graph;
        self.kill(v);
        for &u in graph.neighbors(v) {
            if self.alive[u as usize] {
                self.degree[u as usize] -= 1;
            }
        }
    }

    /// Removes every alive vertex that is not reachable from `root` (nothing
    /// when `root` is dead).
    ///
    /// After a cascade deletion the remaining graph may fall apart; only the
    /// component containing the query vertices can still host MACs, so the
    /// global search trims the rest with this method.
    ///
    /// Makes no assumption about the view and always runs the BFS to the
    /// end; a caller that knows the view was connected before its latest
    /// deletions should use [`retain_component_since`](Self::retain_component_since).
    /// Uses the view's pooled epoch-stamped reach marks, so repeated trims on
    /// a warmed view perform no allocations.
    pub fn retain_component_of(&mut self, root: VertexId) {
        if !self.alive[root as usize] {
            return;
        }
        let seen = self.next_reach_epochs(1);
        // No vertex carries the fresh stamp as a target, so the BFS never
        // stops early.
        self.reach_from(root, seen, seen, usize::MAX);
        self.kill_unreached(seen);
    }

    /// Connectivity trim after the deletions since `since`: the same
    /// alive set, degrees and log suffix as
    /// [`retain_component_of`](Self::retain_component_of)`(root)`,
    /// but the BFS stops as soon as the view is known to be connected.
    ///
    /// **Precondition:** the view was connected at `since`, i.e. the alive
    /// vertices plus [`log_since`](Self::log_since)`(since)` form one
    /// component (checked by a `debug_assert!`). Every alive vertex then had
    /// a path from `root` before the deletions, and the part of that path
    /// after its last deleted vertex starts at an alive neighbour of a
    /// deleted vertex. So the view is still connected iff the BFS from `root`
    /// reaches every such neighbour, and it stops once it has. When the BFS
    /// runs out first, its reach set is the exact component and the
    /// unreached vertices are removed in id order, as the full trim does.
    pub fn retain_component_since(&mut self, root: VertexId, since: Checkpoint) {
        if !self.alive[root as usize] {
            return;
        }
        debug_assert!(
            self.was_connected_at(since, root),
            "retain_component_since: the view was not connected at the checkpoint"
        );
        let graph = self.graph;
        let target = self.next_reach_epochs(2);
        let seen = target + 1;
        let mut pending = 0usize;
        for i in since.0..self.log.len() {
            for &u in graph.neighbors(self.log[i]) {
                if self.alive[u as usize] && self.reach[u as usize] != target {
                    self.reach[u as usize] = target;
                    pending += 1;
                }
            }
        }
        if self.reach_from(root, target, seen, pending) > 0 {
            self.kill_unreached(seen);
        }
    }

    /// Hands out `count` consecutive reach stamps that no vertex carries yet
    /// (wiping the marks once when the counter would wrap) and sizes `reach`.
    fn next_reach_epochs(&mut self, count: u32) -> u32 {
        let n = self.alive.len();
        if self.reach.len() < n {
            self.reach.resize(n, 0);
        }
        if self.reach_epoch > u32::MAX - count {
            self.reach.fill(0);
            self.reach_epoch = 0;
        }
        let first = self.reach_epoch + 1;
        self.reach_epoch += count;
        first
    }

    /// BFS over the alive vertices from `root`, stamping each reached vertex
    /// `seen`. Every reached vertex stamped `target` counts `pending` down,
    /// and the BFS stops when it hits zero. Returns what is left of
    /// `pending` (non-zero means the BFS ran to the end).
    fn reach_from(&mut self, root: VertexId, target: u32, seen: u32, mut pending: usize) -> usize {
        let graph = self.graph;
        if self.reach[root as usize] == target {
            pending -= 1;
        }
        self.reach[root as usize] = seen;
        self.queue.clear();
        self.queue.push(root);
        let mut head = 0;
        while pending > 0 && head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            for &u in graph.neighbors(v) {
                let mark = &mut self.reach[u as usize];
                if self.alive[u as usize] && *mark != seen {
                    if *mark == target {
                        pending -= 1;
                    }
                    *mark = seen;
                    self.queue.push(u);
                }
            }
        }
        pending
    }

    /// Removes every alive vertex not stamped `seen`, in id order.
    fn kill_unreached(&mut self, seen: u32) {
        let graph = self.graph;
        for v in 0..self.alive.len() as u32 {
            if self.alive[v as usize] && self.reach[v as usize] != seen {
                self.kill(v);
                for &u in graph.neighbors(v) {
                    if self.alive[u as usize] {
                        self.degree[u as usize] -= 1;
                    }
                }
            }
        }
    }

    /// Whether the alive vertices plus those removed since `since` form one
    /// component around `root` — the precondition of
    /// [`retain_component_since`](Self::retain_component_since). Runs on the
    /// pooled reach marks, so the debug check allocates nothing either.
    fn was_connected_at(&mut self, since: Checkpoint, root: VertexId) -> bool {
        let graph = self.graph;
        let removed = self.next_reach_epochs(2);
        let seen = removed + 1;
        for i in since.0..self.log.len() {
            self.reach[self.log[i] as usize] = removed;
        }
        self.reach[root as usize] = seen;
        self.queue.clear();
        self.queue.push(root);
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            for &u in graph.neighbors(v) {
                let mark = &mut self.reach[u as usize];
                if (self.alive[u as usize] || *mark == removed) && *mark != seen {
                    *mark = seen;
                    self.queue.push(u);
                }
            }
        }
        self.queue.len() == self.num_alive + (self.log.len() - since.0)
    }

    /// Whether the alive subgraph still contains a connected k-core containing
    /// every vertex of `q`. Peels on the view itself behind a checkpoint, so
    /// the state is unchanged on return and nothing is cloned.
    pub fn has_connected_k_core_with(&mut self, k: u32, q: &[VertexId]) -> bool {
        if q.iter().any(|&v| !self.alive[v as usize]) {
            return false;
        }
        let cp = self.checkpoint();
        self.peel_to_k_core(k);
        let ok = q.iter().all(|&v| self.alive[v as usize]) && {
            let reach = bfs_reachable(self.graph, q[0], &self.alive);
            q.iter().all(|&v| reach[v as usize])
        };
        self.rollback(cp);
        ok
    }

    /// Peels every vertex with degree `< k` (in place); the removals land in
    /// the undo log.
    pub fn peel_to_k_core(&mut self, k: u32) {
        for v in 0..self.alive.len() as u32 {
            if self.alive[v as usize] && self.degree[v as usize] < k {
                self.delete_cascade(v, k);
            }
        }
    }

    #[inline]
    fn kill(&mut self, v: VertexId) {
        self.alive[v as usize] = false;
        self.alive_words[v as usize / 64] &= !(1 << (v % 64));
        self.degree[v as usize] = 0;
        self.num_alive -= 1;
        self.log.push(v);
    }
}

/// Sets `words` to the packed mask with vertices `0..n` all alive.
fn fill_words(words: &mut Vec<u64>, n: usize) {
    words.clear();
    words.resize(n / 64, u64::MAX);
    if !n.is_multiple_of(64) {
        words.push((1 << (n % 64)) - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimum degree over alive vertices (`δ(H)` of the paper); `None` when
    /// the view is empty.
    fn min_degree(view: &SubgraphView) -> Option<u32> {
        (0..view.alive.len())
            .filter(|&v| view.alive[v])
            .map(|v| view.degree[v])
            .min()
    }

    /// Number of alive edges (each edge counted once).
    fn num_alive_edges(view: &SubgraphView) -> usize {
        let total: u64 = (0..view.alive.len())
            .filter(|&v| view.alive[v])
            .map(|v| u64::from(view.degree[v]))
            .sum();
        (total / 2) as usize
    }

    /// Triangle {0,1,2} + path 2-3-4 + triangle {4,5,6}.
    fn chain_of_triangles() -> Graph {
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
    fn full_view_degrees() {
        let g = chain_of_triangles();
        let view = SubgraphView::full(&g);
        assert_eq!(view.num_alive(), 7);
        assert_eq!(view.degree_of(2), 3);
        assert_eq!(min_degree(&view), Some(2));
        assert_eq!(num_alive_edges(&view), 8);
    }

    #[test]
    fn mask_view_recomputes_degrees() {
        let g = chain_of_triangles();
        let view = SubgraphView::from_vertices(&g, &[0, 1, 2, 3]);
        assert_eq!(view.num_alive(), 4);
        assert_eq!(view.degree_of(2), 3);
        assert_eq!(view.degree_of(3), 1);
        assert_eq!(view.degree_of(4), 0);
        assert!(!view.is_alive(4));
    }

    #[test]
    fn cascade_delete_peels_chain() {
        let g = chain_of_triangles();
        let mut view = SubgraphView::full(&g);
        // Deleting vertex 0 with k = 2: the triangle {0,1,2} degrades, 1 and 2
        // lose a neighbour but keep degree >= 2 (2 still has 1 and 3)?
        // degrees after removing 0: 1 -> {2}, so degree 1 < 2: cascade.
        let cp = view.checkpoint();
        view.delete_cascade(0, 2);
        let removed = view.log_since(cp);
        assert!(removed.contains(&0));
        assert!(removed.contains(&1));
        // 2 drops to {3} after losing 0 and 1, so it cascades too, then 3.
        assert!(removed.contains(&2));
        assert!(removed.contains(&3));
        // the far triangle survives
        assert!(view.is_alive(4) && view.is_alive(5) && view.is_alive(6));
        assert_eq!(min_degree(&view), Some(2));
        assert_eq!(view.num_alive(), 3);
    }

    #[test]
    fn retain_component_trims_other_side() {
        let g = chain_of_triangles();
        let mut view = SubgraphView::full(&g);
        view.delete_single(3);
        let cp = view.checkpoint();
        view.retain_component_of(0);
        assert_eq!(view.log_since(cp), &[4, 5, 6]);
        assert!(view.is_alive(0) && view.is_alive(1) && view.is_alive(2));
        assert!(!view.is_alive(4) && !view.is_alive(5) && !view.is_alive(6));
        assert_eq!(view.degree_of(2), 2);
    }

    #[test]
    fn retain_component_since_trims_a_split_and_keeps_a_connected_view() {
        let g = chain_of_triangles();
        let mut view = SubgraphView::full(&g);
        // deleting the triangle corner 5 keeps the view connected
        let cp = view.checkpoint();
        view.delete_single(5);
        view.retain_component_since(0, cp);
        assert_eq!(view.log_since(cp), &[5]);
        // deleting the cut vertex 3 splits off {4, 6}, killed in id order
        let cp = view.checkpoint();
        view.delete_single(3);
        view.retain_component_since(0, cp);
        assert_eq!(view.log_since(cp), &[3, 4, 6]);
        assert_eq!(view.alive_vertices(), vec![0, 1, 2]);
        assert_eq!(view.degree_of(2), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not connected at the checkpoint")]
    fn retain_component_since_rejects_a_view_split_before_the_checkpoint() {
        let g = chain_of_triangles();
        let mut view = SubgraphView::full(&g);
        view.delete_single(3);
        let cp = view.checkpoint();
        view.delete_single(6);
        view.retain_component_since(0, cp);
    }

    /// Two K4s {0,1,2,3} and {5,6,7,8} joined through cut vertex 4.
    fn two_k4_with_cut_vertex() -> Graph {
        let mut edges = vec![(3, 4), (4, 5)];
        for base in [0u32, 5u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        Graph::from_edges(9, &edges)
    }

    #[test]
    fn has_connected_k_core_checks() {
        let g = two_k4_with_cut_vertex();
        let mut view = SubgraphView::full(&g);
        assert!(view.has_connected_k_core_with(3, &[0, 1]));
        assert!(view.has_connected_k_core_with(3, &[5]));
        // 0 and 8 live in different 3-core components
        assert!(!view.has_connected_k_core_with(3, &[0, 8]));
        assert!(!view.has_connected_k_core_with(4, &[0]));
        // the whole graph is a single connected 2-core
        assert!(view.has_connected_k_core_with(2, &[0, 8]));
        // non-destructive
        assert_eq!(view.num_alive(), 9);
    }

    #[test]
    fn peel_to_k_core_matches_decomposition() {
        let g = two_k4_with_cut_vertex();
        let mut view = SubgraphView::full(&g);
        let cp = view.checkpoint();
        view.peel_to_k_core(3);
        assert_eq!(view.log_since(cp), &[4]);
        assert_eq!(view.num_alive(), 8);
        assert_eq!(min_degree(&view), Some(3));
    }

    #[test]
    fn delete_dead_vertex_is_noop() {
        let g = chain_of_triangles();
        let mut view = SubgraphView::full(&g);
        let cp = view.checkpoint();
        view.delete_single(3);
        assert_eq!(view.log_since(cp), &[3]);
        let cp = view.checkpoint();
        view.delete_single(3);
        view.delete_cascade(3, 2);
        assert!(view.log_since(cp).is_empty());
    }

    #[test]
    fn checkpoint_rollback_restores_exact_state() {
        let g = chain_of_triangles();
        let mut view = SubgraphView::full(&g);
        let cp = view.checkpoint();
        view.delete_cascade(0, 2);
        assert!(!view.log_since(cp).is_empty());
        assert!(view.num_alive() < 7);
        view.rollback(cp);
        let fresh = SubgraphView::full(&g);
        for v in 0..7 {
            assert_eq!(view.degree_of(v), fresh.degree_of(v));
            assert_eq!(view.is_alive(v), fresh.is_alive(v));
        }
        assert_eq!(view.num_alive(), 7);
        assert_eq!(num_alive_edges(&view), num_alive_edges(&fresh));
    }

    #[test]
    fn nested_checkpoints_roll_back_in_layers() {
        let g = two_k4_with_cut_vertex();
        let mut view = SubgraphView::full(&g);
        let cp0 = view.checkpoint();
        view.delete_cascade(4, 3);
        let alive_after_first = view.alive_vertices();
        let cp1 = view.checkpoint();
        view.delete_cascade(0, 3);
        view.rollback(cp1);
        assert_eq!(view.alive_vertices(), alive_after_first);
        view.rollback(cp0);
        assert_eq!(view.num_alive(), 9);
        assert_eq!(min_degree(&view), Some(2));
    }

    #[test]
    fn scratch_roundtrip_matches_fresh_view() {
        let g = chain_of_triangles();
        let mut scratch = ViewScratch::new();
        for _ in 0..3 {
            let mut view = SubgraphView::full_from_scratch(&g, &mut scratch);
            let fresh = SubgraphView::full(&g);
            for v in 0..7 {
                assert_eq!(view.degree_of(v), fresh.degree_of(v));
                assert_eq!(view.is_alive(v), fresh.is_alive(v));
            }
            view.delete_cascade(0, 2);
            let mut buf = Vec::new();
            view.alive_vertices_into(&mut buf);
            assert_eq!(buf, view.alive_vertices());
            view.recycle_into(&mut scratch);
        }
    }

    /// Randomized property: an arbitrary interleaving of cascades, trims, and
    /// peels rolled back from a checkpoint restores the alive set, every
    /// degree, and the edge count exactly.
    #[test]
    fn randomized_rollback_is_exact() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for round in 0..40 {
            let n = rng.random_range(8..40usize);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.random_range(0.0..1.0) < 0.25 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let mut view = SubgraphView::full(&g);
            // A few committed deletions first, so rollback does not always
            // land on the pristine state.
            for _ in 0..rng.random_range(0..3usize) {
                view.delete_single(rng.random_range(0..n as u32));
            }
            let before_alive: Vec<bool> = (0..n as u32).map(|v| view.is_alive(v)).collect();
            let before_deg: Vec<u32> = (0..n as u32).map(|v| view.degree_of(v)).collect();
            let before_edges = num_alive_edges(&view);
            let cp = view.checkpoint();
            for _ in 0..rng.random_range(1..6usize) {
                match rng.random_range(0..3u32) {
                    0 => view.delete_cascade(rng.random_range(0..n as u32), 2),
                    1 => view.retain_component_of(rng.random_range(0..n as u32)),
                    _ => view.peel_to_k_core(rng.random_range(1..4u32)),
                }
            }
            view.rollback(cp);
            for v in 0..n as u32 {
                assert_eq!(
                    view.is_alive(v),
                    before_alive[v as usize],
                    "round {round}: alive set diverged at {v}"
                );
                assert_eq!(
                    view.degree_of(v),
                    before_deg[v as usize],
                    "round {round}: degree diverged at {v}"
                );
            }
            assert_eq!(num_alive_edges(&view), before_edges, "round {round}");
        }
    }

    /// `alive_mask()` packed 64 to a word, zero past the last vertex.
    fn packed(view: &SubgraphView<'_>) -> Vec<u64> {
        let mask = view.alive_mask();
        let mut words = vec![0u64; mask.len().div_ceil(64)];
        for v in (0..mask.len()).filter(|&v| mask[v]) {
            words[v / 64] |= 1 << (v % 64);
        }
        words
    }

    /// Runs a random sequence of every operation that kills or revives
    /// vertices on `view` and checks the packed mask after each step.
    fn check_words_track_mask(view: &mut SubgraphView<'_>, rng: &mut rand::rngs::StdRng) {
        use rand::prelude::*;
        let n = view.alive_mask().len() as u32;
        assert_eq!(view.alive_words(), packed(view), "fresh view");
        let mut checkpoints = vec![view.checkpoint()];
        for step in 0..rng.random_range(1..40usize) {
            let v = rng.random_range(0..n);
            match rng.random_range(0..7u32) {
                0 => view.delete_cascade(v, rng.random_range(1..4u32)),
                1 => {
                    // A single deletion behind its own checkpoint, which
                    // the last case rolls back to.
                    checkpoints.push(view.checkpoint());
                    view.delete_single(v);
                }
                2 => {
                    // The early-exit trim needs a view connected at its
                    // checkpoint; make it so with a full trim first.
                    view.retain_component_of(v);
                    let cp = view.checkpoint();
                    view.delete_single(rng.random_range(0..n));
                    view.retain_component_since(v, cp);
                }
                3 => view.retain_component_of(v),
                4 => checkpoints.push(view.checkpoint()),
                5 => {
                    let cp = checkpoints[rng.random_range(0..checkpoints.len())];
                    view.rollback(cp);
                    checkpoints.retain(|c| c.0 <= cp.0);
                }
                _ => {
                    // Roll back to the most recent checkpoint (the first one
                    // is never popped).
                    let cp = *checkpoints.last().expect("the first checkpoint stays");
                    view.rollback(cp);
                    if checkpoints.len() > 1 {
                        checkpoints.pop();
                    }
                }
            }
            assert_eq!(view.alive_words(), packed(view), "step {step}");
        }
    }

    proptest::proptest! {
        /// The packed alive mask equals the packed `alive_mask()` after every
        /// kill and revive, on views made by `full`, `from_mask` and a
        /// recycled `full_from_scratch`; vertex counts straddle word
        /// boundaries.
        #[test]
        fn alive_words_track_the_alive_mask(seed in 0u64..1_000_000) {
            use rand::prelude::*;
            use rand::rngs::StdRng;
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..200usize);
            let p = rng.random_range(0.02..0.2f64);
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.random_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let mut full = SubgraphView::full(&g);
            check_words_track_mask(&mut full, &mut rng);
            let mask: Vec<bool> = (0..n).map(|_| rng.random_bool(0.7)).collect();
            let mut masked = SubgraphView::from_mask(&g, &mask);
            check_words_track_mask(&mut masked, &mut rng);
            // A recycled scratch carries the last view's (dirty) words.
            let mut scratch = ViewScratch::new();
            masked.recycle_into(&mut scratch);
            let mut recycled = SubgraphView::full_from_scratch(&g, &mut scratch);
            check_words_track_mask(&mut recycled, &mut rng);
        }
    }
}
