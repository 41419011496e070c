//! A hierarchical graph-partition index over the road network, in the spirit
//! of the G-tree of Zhong et al. (TKDE 2015), which the paper uses to
//! accelerate the road-network range query of Lemma 1.
//!
//! The index partitions the road network into nested regions with a multiway
//! split (fanout [`DEFAULT_FANOUT`], built from repeated balanced bisection
//! rounds — fanout 2 reproduces the historical binary tree exactly, kept as
//! the test reference via [`GTree::build_binary_reference`]). Every leaf
//! stores the pairwise shortest distances *within its region*; every internal
//! node stores the pairwise within-region distances between the borders of
//! its children, assembled bottom-up over a reduced "border graph" whose
//! intra-child clique edges are **contracted** first: a child shortcut is
//! dropped whenever a strictly shorter two-hop witness through another border
//! of the same child already covers it, which keeps the reduced Dijkstras
//! exact while shrinking the quadratic clique to near-linear size on
//! grid-like cuts. Matrix rows are filled on one scoped thread pool that
//! claims a row at a time and writes it in place: level by level at build
//! time, and for the dirty leaves and each recomputed internal node of a
//! refresh. Both use every core of the host (`available_parallelism`) once
//! the estimated work passes one shared threshold, and the output is
//! bit-identical whatever the thread count. Point-to-point queries combine
//! the per-level matrices with a dynamic program over the ancestor chain;
//! taking the minimum over **all** common ancestors (not only the LCA)
//! makes the answer exact even when the true shortest path leaves the LCA's
//! region. Exactness against
//! Dijkstra is enforced by the property tests of this module.
//!
//! **Partition.** The regions come from balanced bisection with
//! Fiduccia–Mattheyses refinement (`bisect`), and the partition runs on the
//! same pool, so it too uses every core: each depth's bisection rounds run
//! as batches in which every part, and every growth seed of a large part,
//! is its own task. The tree does not depend on the thread count: each
//! attempt is a pure function of its part and seed, the winning seed is
//! picked in seed order, and node ids are assigned afterwards in the
//! depth-first preorder of a serial recursion. [`GTree::build_report`]
//! gives the time of each build phase and each level's matrix work.
//!
//! Every node lives behind its own [`Arc`], so cloning a tree shares all
//! node matrices. An incremental reweight refresh
//! ([`GTree::apply_edge_updates`]) copies only the nodes it recomputes; an
//! earlier clone (a previous serving epoch) keeps the untouched nodes in
//! common with the refreshed tree and its own copies of the rest.
//!
//! **Refresh tie contract.** The refresh patches rows from the old matrix
//! and detects changed borders with a relative margin of `1e-12` (see
//! `refresh_internal_matrix`): a pair whose old path ties the old detour
//! through the changed borders within the margin is not patched on that
//! ground, and a refreshed entry may differ from a fresh build only within
//! that margin, per refresh. Where every path sum is exact in f64 (integer
//! weights, say), refreshed matrices equal a fresh build bit for bit.

use crate::budget::BudgetTicker;
use crate::dijkstra::{heap_key, SsspScratch, SweepQueue};
use crate::network::{EdgeUpdate, RoadNetwork, RoadVertexId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Default maximum number of vertices per leaf region.
pub const DEFAULT_LEAF_CAPACITY: usize = 32;

/// Default partition fanout: each over-capacity region splits into up to this
/// many children per level (two balanced-bisection rounds). Powers of two
/// keep the rounds balanced; fanout 2 is the historical binary tree.
pub const DEFAULT_FANOUT: usize = 4;

/// Regions above `leaf_capacity * SPINE_FACTOR` vertices split binary even
/// under a larger fanout, so top-of-tree matrices stay one cut wide instead
/// of unioning the borders of `fanout` huge parts (see [`GTree::partition`]).
const SPINE_FACTOR: usize = 32;

/// Below this much estimated work a set of pool tasks runs serially:
/// spawning the scoped workers costs more than it saves. The estimate
/// counts edge scans: rows × reduced-graph edges for internal nodes and
/// rows × the region's road edges for leaves, the same on the build and the
/// refresh path; the partition prices a part's adjacency and seed searches
/// at its road edges each, and an attempt at its in-part edges times
/// [`FM_PASSES`].
const PARALLEL_WORK_THRESHOLD: usize = 1 << 14;

#[derive(Debug, Clone)]
struct GTreeNode {
    parent: Option<usize>,
    children: Vec<usize>,
    /// Vertices of this node's region.
    vertices: Vec<RoadVertexId>,
    /// Vertices of the region with at least one road edge leaving the region.
    borders: Vec<RoadVertexId>,
    /// Matrix index space: all region vertices for leaves, the
    /// concatenation of the children's (disjoint) border lists for internal
    /// nodes.
    union_borders: Vec<RoadVertexId>,
    /// `border_rows[i]` = position of `borders[i]` inside `union_borders`,
    /// set with the index space so matrix access is pure slice indexing.
    border_rows: Vec<usize>,
    /// `child_border_rows[k][i]` = position of child `k`'s `borders[i]`
    /// inside this node's `union_borders` (every child border is a union
    /// border by construction).
    child_border_rows: Vec<Vec<usize>>,
    /// Row-major `|union_borders| x |union_borders|` within-region distances.
    matrix: Vec<f64>,
    /// Update-path cache of each child's contracted border clique (edge list
    /// in union-border row coordinates, both directions). Populated lazily by
    /// the first incremental refresh and invalidated per child when that
    /// child's border-to-border distances change, so steady-state traffic
    /// batches skip re-contracting untouched children. Never read at build or
    /// query time.
    contracted_children: Vec<Option<Vec<(u32, u32, f64)>>>,
}

impl GTreeNode {
    fn new(parent: Option<usize>, vertices: Vec<RoadVertexId>) -> Self {
        GTreeNode {
            parent,
            children: Vec::new(),
            vertices,
            borders: Vec::new(),
            union_borders: Vec::new(),
            border_rows: Vec::new(),
            child_border_rows: Vec::new(),
            matrix: Vec::new(),
            contracted_children: Vec::new(),
        }
    }

    fn matrix_at(&self, i: usize, j: usize) -> f64 {
        self.matrix[i * self.union_borders.len() + j]
    }
}

/// Hierarchical road-network distance index.
#[derive(Debug, Clone)]
pub struct GTree {
    /// Per-node copy-on-write: clones share every node until a refresh
    /// rewrites it.
    nodes: Vec<Arc<GTreeNode>>,
    leaf_of: Vec<usize>,
    /// `leaf_pos[v]` = position of vertex `v` inside its leaf's
    /// `union_borders` (leaf matrix row), precomputed so leaf evaluation
    /// never hashes.
    leaf_pos: Vec<u32>,
    root: usize,
    num_vertices: usize,
    /// Shared by every clone, so an epoch copy does not allocate for it.
    report: Arc<BuildReport>,
}

/// What one [`GTree`] build spent its time on, phase by phase
/// ([`GTree::build_report`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildReport {
    /// Seconds spent partitioning the network into the region tree.
    pub partition_seconds: f64,
    /// Seconds spent finding every region's border vertices.
    pub border_seconds: f64,
    /// The matrix work of each tree depth, root first.
    pub levels: Vec<LevelReport>,
}

/// The matrix work of the nodes at one tree depth, in a [`BuildReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelReport {
    /// Nodes at this depth.
    pub nodes: usize,
    /// Matrix rows filled: the nodes' union borders together.
    pub rows: usize,
    /// Directed edges of the depth's contracted reduced border graphs.
    pub reduced_edges: usize,
    /// Seconds spent contracting the reduced border graphs.
    pub contract_seconds: f64,
    /// Seconds spent filling the depth's matrix rows.
    pub fill_seconds: f64,
}

/// Target seeds of a batched one-to-many evaluation, grouped by G-tree leaf.
///
/// Built once per query via [`GTree::group_targets`] and shared by every
/// source seed; `occupied` lets the walk skip subtrees containing no target.
/// Each grouped seed carries its **leaf matrix row** (the vertex's position in
/// the leaf's matrix index space, resolved at grouping time), so the leaf
/// evaluation inner loop indexes the distance matrix directly without any
/// hashing.
///
/// Per-leaf rows live behind [`Arc`]s so that cloning a grouping (the serving
/// engine snapshots one per epoch) shares every row, and an incremental edit
/// ([`GTree::add_target_seeds`] / [`GTree::remove_target_item`]) copies only
/// the touched leaves — a small user-churn delta no longer duplicates the
/// whole grouping.
#[derive(Debug, Clone)]
pub struct LeafTargets {
    /// `per_leaf[node]` = `(item, leaf matrix row, offset)` seeds in that leaf.
    per_leaf: Vec<Arc<Vec<(u32, u32, f64)>>>,
    /// `occupied[node]` = number of seeds in the node's subtree.
    occupied: Vec<u32>,
}

impl LeafTargets {
    /// Total number of grouped seeds.
    pub fn num_seeds(&self) -> usize {
        self.per_leaf.iter().map(|v| v.len()).sum()
    }
}

/// What [`GTree::apply_edge_updates`] recomputed: the dirty set starts at
/// the nodes whose region contains both endpoints of a reweighted edge (the
/// containing leaf when the endpoints share one, otherwise the leaves'
/// lowest common ancestor) and climbs toward the root only while a
/// recomputed matrix **actually changed** — everything else keeps its
/// matrices untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GTreeUpdateStats {
    /// Number of edge updates applied.
    pub updates: usize,
    /// Leaf nodes whose within-region matrix was recomputed.
    pub dirty_leaves: usize,
    /// Internal nodes whose border matrix was recomputed.
    pub dirty_internal: usize,
    /// Total matrix cells rewritten.
    pub recomputed_matrix_cells: usize,
    /// Total nodes in the tree (for dirty-fraction reporting).
    pub total_nodes: usize,
    /// Matrix rows refreshed by a reduced-graph Dijkstra (sources whose
    /// neighborhood actually changed, plus the unsafe patch candidates).
    pub row_dijkstras: usize,
    /// Matrix rows refreshed by the cheap delta patch instead of a Dijkstra.
    pub patched_rows: usize,
}

impl GTreeUpdateStats {
    /// Fraction of tree nodes that were recomputed.
    pub fn dirty_fraction(&self) -> f64 {
        if self.total_nodes == 0 {
            0.0
        } else {
            (self.dirty_leaves + self.dirty_internal) as f64 / self.total_nodes as f64
        }
    }
}

/// Reusable buffers for the batched walk ([`GTree::multi_source_within`]):
/// the per-node entry columns — the walk's large allocations — plus the
/// small per-seed locals are all recycled across walks and queries, so the
/// hot path allocates nothing beyond the per-query source climbs.
#[derive(Debug, Default)]
pub struct RangeScratch {
    /// `entry[node]` = flat `|borders| x |seeds|` matrix: exact distance from
    /// seed `s` to the node's `borders[i]` over paths whose final segment
    /// stays inside the node, at `entry[node][i * seeds + s]`.
    entry: Vec<Vec<f64>>,
    /// Per-seed minimum entry distance of the child being considered.
    seed_min: Vec<f64>,
    /// Per-seed distance accumulator for one leaf target.
    seed_dist: Vec<f64>,
}

/// One precomputed source seed of a multi-seed walk: the seed's ancestor
/// chain and climb vectors, plus which output column its candidates lower.
#[derive(Debug)]
struct SeedClimb {
    vertex: RoadVertexId,
    offset: f64,
    column: u32,
    /// Ancestor chain from the seed's leaf (inclusive) to the root.
    path: Vec<usize>,
    /// `vecs[i]` = distances from the seed to the borders of `path[i]`,
    /// computed within that node's region.
    vecs: Vec<Vec<f64>>,
}

impl GTree {
    /// Builds the index with the default leaf capacity and fanout.
    pub fn build(net: &RoadNetwork) -> Self {
        Self::build_with_capacity(net, DEFAULT_LEAF_CAPACITY)
    }

    /// Builds the index with an explicit leaf capacity (minimum 4) and the
    /// default fanout.
    pub fn build_with_capacity(net: &RoadNetwork, leaf_capacity: usize) -> Self {
        Self::build_with_params(net, leaf_capacity, DEFAULT_FANOUT)
    }

    /// Builds the historical binary-bisection tree (fanout 2). The multiway
    /// split degenerates to exactly the old recursive bisection — same node
    /// ordering, same regions, same matrices — so this is the reference the
    /// multiway build is asserted query-identical against in tests and
    /// benchmarks.
    pub fn build_binary_reference(net: &RoadNetwork, leaf_capacity: usize) -> Self {
        Self::build_with_params(net, leaf_capacity, 2)
    }

    /// Builds the index with an explicit leaf capacity (minimum 4) and
    /// partition fanout (clamped to `2..=64`; powers of two keep the
    /// bisection rounds balanced).
    pub fn build_with_params(net: &RoadNetwork, leaf_capacity: usize, fanout: usize) -> Self {
        Self::build_on(net, leaf_capacity, fanout, RowPool::host())
    }

    /// [`build_with_params`](Self::build_with_params) with the matrix rows
    /// filled on `pool`.
    fn build_on(net: &RoadNetwork, leaf_capacity: usize, fanout: usize, pool: RowPool) -> Self {
        let leaf_capacity = leaf_capacity.max(4);
        let fanout = fanout.clamp(2, 64);
        let n = net.num_vertices();
        let mut tree = GTree {
            nodes: Vec::new(),
            leaf_of: vec![usize::MAX; n],
            leaf_pos: vec![0; n],
            root: 0,
            num_vertices: n,
            report: Arc::default(),
        };
        let started = Instant::now();
        tree.partition(net, leaf_capacity, fanout, pool);
        let partitioned = Instant::now();
        tree.compute_borders(net);
        let bordered = Instant::now();
        let levels = tree.compute_matrices(net, pool);
        tree.report = Arc::new(BuildReport {
            partition_seconds: (partitioned - started).as_secs_f64(),
            border_seconds: (bordered - partitioned).as_secs_f64(),
            levels,
        });
        tree
    }

    /// Exclusive access to node `id`, copying it first when another clone of
    /// the tree still shares it.
    fn node_mut(&mut self, id: usize) -> &mut GTreeNode {
        Arc::make_mut(&mut self.nodes[id])
    }

    /// What the build of this tree spent its time on. A refresh leaves it
    /// unchanged: it describes the build.
    pub fn build_report(&self) -> &BuildReport {
        &self.report
    }

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree (a single leaf tree has height 1).
    pub fn height(&self) -> usize {
        fn depth(nodes: &[Arc<GTreeNode>], i: usize) -> usize {
            1 + nodes[i]
                .children
                .iter()
                .map(|&c| depth(nodes, c))
                .max()
                .unwrap_or(0)
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth(&self.nodes, self.root)
        }
    }

    /// Approximate memory footprint of the index in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|node| {
                node.matrix.len() * std::mem::size_of::<f64>()
                    + (node.vertices.len() + node.borders.len() + node.union_borders.len())
                        * std::mem::size_of::<RoadVertexId>()
                    + (node.border_rows.len()
                        + node.child_border_rows.iter().map(Vec::len).sum::<usize>())
                        * std::mem::size_of::<usize>()
                    + node
                        .contracted_children
                        .iter()
                        .flatten()
                        .map(Vec::len)
                        .sum::<usize>()
                        * std::mem::size_of::<(u32, u32, f64)>()
            })
            .sum::<usize>()
            + self.leaf_pos.len() * std::mem::size_of::<u32>()
            + std::mem::size_of::<Self>()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_empty()).count()
    }

    /// Entry-extension cells one walk touches at one internal node:
    /// `(|node borders| + |chain-child borders|) x Σ |child borders|`
    /// (zero for leaves).
    fn node_walk_cells(&self, id: usize) -> usize {
        let n = &self.nodes[id];
        let child_borders: usize = n
            .children
            .iter()
            .map(|&c| self.nodes[c].borders.len())
            .sum();
        let max_child = n
            .children
            .iter()
            .map(|&c| self.nodes[c].borders.len())
            .max()
            .unwrap_or(0);
        (n.borders.len() + max_child) * child_borders
    }

    /// Entry-extension cells of a full unpruned walk, per seed: the sum of
    /// the per-node walk cells over all internal nodes —
    /// an occupancy-independent upper bound and an `Auto` cost-model input.
    pub fn walk_cells_total(&self) -> usize {
        (0..self.nodes.len())
            .map(|id| self.node_walk_cells(id))
            .sum()
    }

    /// Entry-extension cells touched at the top of the tree (the root's
    /// children) — every walk pays this regardless of occupancy, so it is
    /// the walk's fixed overhead floor; an `Auto` cost-model input.
    pub fn walk_cells_root(&self) -> usize {
        self.node_walk_cells(self.root)
    }

    /// Root node id.
    pub fn root_id(&self) -> usize {
        self.root
    }

    /// Parent of a node (`None` for the root).
    pub fn parent_of(&self, id: usize) -> Option<usize> {
        self.nodes[id].parent
    }

    /// Children of a node (empty for leaves).
    pub fn children_of(&self, id: usize) -> &[usize] {
        &self.nodes[id].children
    }

    /// Region vertices of a node.
    pub fn vertices_of(&self, id: usize) -> &[RoadVertexId] {
        &self.nodes[id].vertices
    }

    /// Border vertices of a node (region vertices with an edge leaving the
    /// region).
    pub fn borders_of(&self, id: usize) -> &[RoadVertexId] {
        &self.nodes[id].borders
    }

    /// Matrix index space of a node: all region vertices for leaves, the
    /// union of the children's borders for internal nodes.
    pub fn union_borders_of(&self, id: usize) -> &[RoadVertexId] {
        &self.nodes[id].union_borders
    }

    /// Precomputed positions of [`borders_of`](Self::borders_of) inside
    /// [`union_borders_of`](Self::union_borders_of).
    pub fn border_rows_of(&self, id: usize) -> &[usize] {
        &self.nodes[id].border_rows
    }

    /// Precomputed positions of child `k`'s borders inside this node's
    /// union borders.
    pub fn child_border_rows_of(&self, id: usize, k: usize) -> &[usize] {
        &self.nodes[id].child_border_rows[k]
    }

    /// Position of a vertex inside a node's union borders, by a linear scan
    /// (the independent lookup the precomputed row arrays round-trip against
    /// in the structural property tests).
    pub fn ub_position_of(&self, id: usize, v: RoadVertexId) -> Option<usize> {
        self.nodes[id].union_borders.iter().position(|&u| u == v)
    }

    /// Within-region distance between two union borders of a node.
    pub fn matrix_entry(&self, id: usize, i: usize, j: usize) -> f64 {
        self.nodes[id].matrix_at(i, j)
    }

    /// Leaf node containing a road vertex.
    pub fn leaf_id_of(&self, v: RoadVertexId) -> usize {
        self.leaf_of[v as usize]
    }

    /// Precomputed position of a vertex inside its leaf's matrix index space.
    pub fn leaf_position_of(&self, v: RoadVertexId) -> usize {
        self.leaf_pos[v as usize] as usize
    }

    /// Exact shortest-path distance between two road vertices
    /// (`f64::INFINITY` when either is out of range or they are not
    /// connected).
    pub fn dist(&self, u: RoadVertexId, v: RoadVertexId) -> f64 {
        if u as usize >= self.num_vertices || v as usize >= self.num_vertices {
            return f64::INFINITY;
        }
        if u == v {
            return 0.0;
        }
        let leaf_u = self.leaf_of[u as usize];
        let leaf_v = self.leaf_of[v as usize];

        let mut best = f64::INFINITY;
        if leaf_u == leaf_v {
            let node = &self.nodes[leaf_u];
            let iu = self.leaf_pos[u as usize] as usize;
            let iv = self.leaf_pos[v as usize] as usize;
            best = node.matrix_at(iu, iv);
        }

        // Ancestor chains from leaf to root.
        let path_u = self.ancestor_chain(leaf_u);
        let path_v = self.ancestor_chain(leaf_v);

        // Distance vectors from u (resp. v) to the borders of each node on its
        // ancestor chain, computed within that node's region.
        let a_vecs = self.climb(u, &path_u);
        let b_vecs = self.climb(v, &path_v);

        // Combine at every common ancestor: the true path crosses the borders
        // of the two children of the lowest ancestor whose region it stays in.
        // A leaf of one chain can only appear on the other chain when the two
        // leaves coincide (handled above), so both chain positions are >= 1
        // in the active branch and the chain children are real children of
        // `w`, addressable through the precomputed border-row arrays.
        for (vi, &w) in path_v.iter().enumerate() {
            let Some(ui) = path_u.iter().position(|&n| n == w) else {
                continue;
            };
            if ui == 0 || vi == 0 {
                // same leaf: already handled via the leaf matrix
                continue;
            }
            let cu = path_u[ui - 1];
            let cv = path_v[vi - 1];
            let wn = &self.nodes[w];
            let ub = wn.union_borders.len();
            let cu_pos = wn
                .children
                .iter()
                .position(|&c| c == cu)
                .expect("chain child of u");
            let cv_pos = wn
                .children
                .iter()
                .position(|&c| c == cv)
                .expect("chain child of v");
            let au = &a_vecs[ui - 1];
            let bv = &b_vecs[vi - 1];
            for (&wx, &ax) in wn.child_border_rows[cu_pos].iter().zip(au) {
                if !ax.is_finite() {
                    continue;
                }
                let mrow = &wn.matrix[wx * ub..(wx + 1) * ub];
                for (&wy, &by) in wn.child_border_rows[cv_pos].iter().zip(bv) {
                    let cand = ax + mrow[wy] + by;
                    if cand < best {
                        best = cand;
                    }
                }
            }
        }
        best
    }

    /// Vertices grouped by leaf region (used by tests and diagnostics).
    pub fn leaf_regions(&self) -> Vec<Vec<RoadVertexId>> {
        self.nodes
            .iter()
            .filter(|n| n.children.is_empty())
            .map(|n| n.vertices.clone())
            .collect()
    }

    /// Groups target seeds `(item, vertex, offset)` by the leaf containing the
    /// vertex and records per-subtree occupancy, so that batched evaluation
    /// ([`multi_source_within`](Self::multi_source_within)) can skip empty
    /// subtrees entirely. The vertex is resolved to its leaf matrix row here,
    /// once, so the leaf evaluation never hashes. Seeds with out-of-range
    /// vertices are dropped.
    pub fn group_targets<I>(&self, seeds: I) -> LeafTargets
    where
        I: IntoIterator<Item = (u32, RoadVertexId, f64)>,
    {
        let mut targets = LeafTargets {
            // Per-element construction: `vec![Arc::new(..); n]` would clone
            // one shared Arc, making every later edit copy-on-write eagerly.
            per_leaf: (0..self.nodes.len())
                .map(|_| Arc::new(Vec::new()))
                .collect(),
            occupied: vec![0u32; self.nodes.len()],
        };
        self.add_target_seeds(&mut targets, seeds);
        targets
    }

    /// Adds target seeds to an existing grouping (the incremental counterpart
    /// of [`group_targets`](Self::group_targets), same semantics per seed):
    /// each seed lands in its vertex's leaf with its precomputed leaf matrix
    /// row, and the subtree occupancy counts along the leaf-to-root path are
    /// raised. Seeds with out-of-range vertices are dropped.
    pub fn add_target_seeds<I>(&self, targets: &mut LeafTargets, seeds: I)
    where
        I: IntoIterator<Item = (u32, RoadVertexId, f64)>,
    {
        for (item, v, off) in seeds {
            if v as usize >= self.num_vertices {
                continue;
            }
            let leaf = self.leaf_of[v as usize];
            Arc::make_mut(&mut targets.per_leaf[leaf]).push((item, self.leaf_pos[v as usize], off));
            targets.occupied[leaf] += 1;
            let mut cur = leaf;
            while let Some(p) = self.nodes[cur].parent {
                targets.occupied[p] += 1;
                cur = p;
            }
        }
    }

    /// Removes **every** grouped seed of `item` from the leaves containing
    /// `seed_vertices` (an item's seeds live only in the leaves of its
    /// location's endpoints, so passing those endpoints clears the item), and
    /// lowers the occupancy counts along the affected leaf-to-root paths.
    /// Returns the number of seeds removed.
    pub fn remove_target_item(
        &self,
        targets: &mut LeafTargets,
        item: u32,
        seed_vertices: &[RoadVertexId],
    ) -> usize {
        let mut total = 0usize;
        // Dedup the vertices' leaves so a same-leaf pair (the common case: a
        // location's two endpoints) is cleared — and decremented — once.
        let mut cleared: Vec<usize> = Vec::with_capacity(seed_vertices.len().min(2));
        for &v in seed_vertices {
            if v as usize >= self.num_vertices {
                continue;
            }
            let leaf = self.leaf_of[v as usize];
            if cleared.contains(&leaf) {
                continue;
            }
            cleared.push(leaf);
            // Only touch the Arc when the item is actually present, so clones
            // of untouched leaves stay shared.
            let before = targets.per_leaf[leaf].len();
            if !targets.per_leaf[leaf].iter().any(|&(it, _, _)| it == item) {
                continue;
            }
            Arc::make_mut(&mut targets.per_leaf[leaf]).retain(|&(it, _, _)| it != item);
            let removed = (before - targets.per_leaf[leaf].len()) as u32;
            if removed > 0 {
                targets.occupied[leaf] -= removed;
                let mut cur = leaf;
                while let Some(p) = self.nodes[cur].parent {
                    targets.occupied[p] -= removed;
                    cur = p;
                }
                total += removed as usize;
            }
        }
        total
    }

    /// Incrementally refreshes the distance matrices after a batch of edge
    /// **reweights**, instead of rebuilding the tree.
    ///
    /// `net` must be the updated road network: identical topology to the one
    /// the tree was built from (the partition hierarchy, border sets, and
    /// leaf assignment depend only on the adjacency structure, so they remain
    /// valid), with the new weights already applied
    /// ([`RoadNetwork::apply_edge_updates`]).
    ///
    /// A reweighted edge `(u, v)` can only change the matrices of nodes whose
    /// region contains **both** endpoints: the shared leaf when
    /// `leaf(u) == leaf(v)`, otherwise the lowest common ancestor of the two
    /// leaves (where the edge appears as a cross-child edge of the reduced
    /// border graph). From there the change propagates upward **only while it
    /// is observable**: a node's matrix depends on exactly its children's
    /// matrices and the cross-child edge weights at its own level, so a
    /// parent is recomputed only when a reweighted edge lives at its level or
    /// a child's recomputed matrix actually changed (recomputation is
    /// deterministic, so "changed" is an exact slice comparison). A reweight
    /// that leaves the local border-to-border distances intact — the common
    /// case for modest traffic factors on non-critical segments — stops dead
    /// instead of dragging the top-of-tree reduced-graph Dijkstras along.
    ///
    /// Recomputed internal nodes are refreshed **delta-aware**
    /// (`refresh_internal_matrix`): only
    /// sources whose reduced-graph neighborhood actually changed — borders of
    /// changed children and endpoints of level-local reweights — pay a fresh
    /// Dijkstra; the remaining rows are patched from the old matrix plus the
    /// fresh rows whenever that is provably exact, so traffic batches stop
    /// paying the full top-of-tree cost. Everything else is untouched;
    /// out-of-range endpoints are ignored (the paired [`RoadNetwork`]
    /// mutation already rejected them).
    ///
    /// Only recomputed nodes are written, each through its own copy-on-write
    /// [`Arc`]: when a clone of the tree (an earlier serving epoch) still
    /// shares a node, that node alone is copied, and every node the refresh
    /// leaves alone stays shared.
    ///
    /// Like the build, the refresh uses every core of the host
    /// (`available_parallelism`): the rows of each recomputed node, and of
    /// all dirty leaves together, are filled in place on a scoped worker
    /// pool once their estimated work is large enough. Node copies stay on
    /// the calling thread, and the matrices are bit-identical whatever the
    /// thread count.
    pub fn apply_edge_updates(
        &mut self,
        net: &RoadNetwork,
        updates: &[EdgeUpdate],
    ) -> GTreeUpdateStats {
        self.refresh_on(net, updates, RowPool::host())
    }

    /// [`apply_edge_updates`](Self::apply_edge_updates) with the matrix
    /// rows filled on `pool`.
    fn refresh_on(
        &mut self,
        net: &RoadNetwork,
        updates: &[EdgeUpdate],
        pool: RowPool,
    ) -> GTreeUpdateStats {
        let mut stats = GTreeUpdateStats {
            updates: updates.len(),
            total_nodes: self.nodes.len(),
            ..GTreeUpdateStats::default()
        };
        if self.nodes.is_empty() || self.num_vertices == 0 {
            return stats;
        }
        debug_assert_eq!(net.num_vertices(), self.num_vertices);
        // `source_dirty[id]`: a reweighted edge lives at this node's level.
        // `level_touched[id]`: the endpoints of those cross-child edges (both
        // are union borders of `id`), seeding the changed-source set.
        let mut source_dirty = vec![false; self.nodes.len()];
        let mut level_touched: HashMap<usize, Vec<RoadVertexId>> = HashMap::new();
        for upd in updates {
            if upd.u as usize >= self.num_vertices || upd.v as usize >= self.num_vertices {
                continue;
            }
            let lu = self.leaf_of[upd.u as usize];
            let lv = self.leaf_of[upd.v as usize];
            let from = if lu == lv {
                lu
            } else {
                self.lowest_common_ancestor(lu, lv)
            };
            source_dirty[from] = true;
            if lu != lv {
                level_touched
                    .entry(from)
                    .or_default()
                    .extend([upd.u, upd.v]);
            }
        }
        // `changed[id]` = `Some(positions of the borders whose
        // border-to-border rows changed)` once a node's matrix changed; a
        // change confined to non-border entries (empty list) stops
        // propagating, because parents only observe the border submatrix.
        let mut changed: Vec<Option<Vec<usize>>> = vec![None; self.nodes.len()];
        // A leaf matrix depends on the network alone, so every dirty leaf is
        // filled in one pool run. Recomputation is deterministic: an
        // unchanged leaf reproduces its matrix exactly and stays shared with
        // any clone of the tree.
        let leaves: Vec<NodeFill> = (0..self.nodes.len())
            .filter(|&id| source_dirty[id] && self.nodes[id].children.is_empty())
            .map(|id| NodeFill { id, reduced: None })
            .collect();
        let matrices = self.fill_level_rows(net, &leaves, pool);
        for (fill, matrix) in leaves.iter().zip(matrices) {
            let id = fill.id;
            stats.dirty_leaves += 1;
            stats.recomputed_matrix_cells += matrix.len();
            stats.row_dijkstras += self.nodes[id].union_borders.len();
            if self.nodes[id].matrix != matrix {
                let old_sub = self.border_submatrix(id);
                self.node_mut(id).matrix = matrix;
                changed[id] = Some(self.changed_borders_since(id, &old_sub));
            }
        }
        // Reverse creation order visits children before parents, so every
        // recomputed internal matrix reads already-refreshed child matrices
        // and the children's changed-border lists are final before the parent
        // asks.
        let mut row_of = vec![u32::MAX; self.num_vertices];
        let no_touched: Vec<RoadVertexId> = Vec::new();
        for id in (0..self.nodes.len()).rev() {
            let recompute = !self.nodes[id].children.is_empty()
                && (source_dirty[id]
                    || self.nodes[id]
                        .children
                        .iter()
                        .any(|&c| changed[c].as_ref().is_some_and(|l| !l.is_empty())));
            if !recompute {
                continue;
            }
            let touched = level_touched
                .get(&id)
                .map_or(no_touched.as_slice(), Vec::as_slice);
            let (report, dijkstra_rows, patched_rows) =
                self.refresh_internal_matrix(net, id, &changed, touched, &mut row_of, pool);
            changed[id] = report;
            stats.dirty_internal += 1;
            let size = self.nodes[id].union_borders.len();
            stats.recomputed_matrix_cells += (dijkstra_rows + patched_rows) * size;
            stats.row_dijkstras += dijkstra_rows;
            stats.patched_rows += patched_rows;
        }
        stats
    }

    /// Lowest common ancestor of two nodes (`O(height²)` scan — the chains
    /// are logarithmic and updates are rare next to queries).
    fn lowest_common_ancestor(&self, a: usize, b: usize) -> usize {
        let chain_a = self.ancestor_chain(a);
        let mut cur = b;
        loop {
            if chain_a.contains(&cur) {
                return cur;
            }
            match self.nodes[cur].parent {
                Some(p) => cur = p,
                None => return self.root,
            }
        }
    }

    /// Multi-seed leaf-batched evaluation with the Lemma-1 **intersection
    /// computed in-walk**: folds **all** source seeds `(u, soff, column)`
    /// into a single top-down walk. For every target seed `(item, v, toff)`
    /// of `targets` and every source seed, lowers
    /// `best[item * num_columns + column]` to `soff + dist(u, v) + toff` when
    /// that candidate is smaller (`best` is an item-major matrix with one
    /// column per query location; seeds of the same location share a
    /// column). `best` must be pre-seeded per `(item, column)` (typically
    /// with the along-edge shortcut distances, or `f64::INFINITY`) and
    /// `within[item]` is maintained as "every column of the item's row is
    /// `<= t`". Rows only ever decrease, so the flag is recomputed whenever a
    /// leaf lowers a row and converges to the exact intersection predicate;
    /// items in pruned subtrees keep the flag derived from their pre-seeded
    /// row.
    ///
    /// Each node of the walk carries a flat `|borders| x |seeds|` matrix of
    /// per-seed entry distances; a subtree is pruned only when **every**
    /// seed's lower bound exceeds `t` (a seed whose leaf lies inside the
    /// subtree is never pruned), and each occupied leaf is evaluated once
    /// against all seed columns. All matrix accesses go through the
    /// precomputed border-index arrays — the inner loops perform zero hash
    /// lookups. Pass `t = f64::INFINITY` to disable pruning; row entries
    /// `<= t` are exact in either case.
    ///
    /// The walk charges `ticker` one unit per evaluated leaf target row and
    /// per visited child, and aborts cooperatively on exhaustion. Returns
    /// `true` when the walk completed; on `false` the `best`/`within` state
    /// reflects only part of the evaluation and the caller must treat the
    /// run as failed. The scratch stays reusable either way.
    #[allow(clippy::too_many_arguments)]
    pub fn multi_source_within(
        &self,
        seeds: &[(RoadVertexId, f64, u32)],
        num_columns: usize,
        targets: &LeafTargets,
        t: f64,
        best: &mut [f64],
        within: &mut [bool],
        scratch: &mut RangeScratch,
        ticker: &mut BudgetTicker,
    ) -> bool {
        debug_assert_eq!(best.len(), within.len() * num_columns);
        for (i, w) in within.iter_mut().enumerate() {
            *w = best[i * num_columns..(i + 1) * num_columns]
                .iter()
                .all(|&d| d <= t);
        }
        if self.nodes.is_empty() {
            return true;
        }
        debug_assert_eq!(targets.per_leaf.len(), self.nodes.len());
        let climbs: Vec<SeedClimb> = seeds
            .iter()
            .filter(|&&(u, _, col)| {
                (u as usize) < self.num_vertices && (col as usize) < num_columns
            })
            .map(|&(u, offset, column)| {
                let path = self.ancestor_chain(self.leaf_of[u as usize]);
                let vecs = self.climb(u, &path);
                SeedClimb {
                    vertex: u,
                    offset,
                    column,
                    path,
                    vecs,
                }
            })
            .collect();
        if climbs.is_empty() {
            return true;
        }
        scratch.entry.resize(self.nodes.len(), Vec::new());
        self.multi_visit(
            self.root,
            0,
            false,
            &climbs,
            num_columns,
            targets,
            t,
            best,
            within,
            ticker,
            scratch,
        )
    }

    /// One step of the top-down multi-seed walk: `node` is visited at `depth`
    /// (root = 0) with `scratch.entry[node]` holding the flat
    /// `|borders| x |seeds|` entry-distance matrix (unless `node` is the
    /// root, flagged by `has_entry == false`). A seed's chain passes through
    /// `node` iff `path[len - 1 - depth] == node` — checked by slice
    /// indexing, no per-node hash set.
    ///
    /// Charges the budget ticker one unit per evaluated leaf target row and
    /// per visited child; returns `false` (after restoring the
    /// node's entry matrix into the scratch) when the budget exhausts.
    #[allow(clippy::too_many_arguments)]
    fn multi_visit(
        &self,
        node: usize,
        depth: usize,
        has_entry: bool,
        climbs: &[SeedClimb],
        num_columns: usize,
        targets: &LeafTargets,
        prune_at: f64,
        best: &mut [f64],
        within: &mut [bool],
        ticker: &mut BudgetTicker,
        scratch: &mut RangeScratch,
    ) -> bool {
        let s_count = climbs.len();
        let n = &self.nodes[node];
        let ub = n.union_borders.len();
        if n.children.is_empty() {
            // Leaf: one pass over the border rows of the leaf matrix lowers
            // every seed's accumulator for each target; candidates then land
            // in their seed's output column. Infinite entries flow through
            // the arithmetic harmlessly (inf + x = inf), so the loops carry
            // no finiteness branches.
            let RangeScratch {
                entry, seed_dist, ..
            } = scratch;
            let node_entry = &entry[node];
            for &(item, trow, toff) in targets.per_leaf[node].iter() {
                if !ticker.charge(1) {
                    return false;
                }
                let trow = trow as usize;
                seed_dist.clear();
                seed_dist.resize(s_count, f64::INFINITY);
                if has_entry {
                    for (bi, &brow) in n.border_rows.iter().enumerate() {
                        let m = n.matrix[brow * ub + trow];
                        for (sd, &e) in seed_dist
                            .iter_mut()
                            .zip(&node_entry[bi * s_count..(bi + 1) * s_count])
                        {
                            let cand = e + m;
                            if cand < *sd {
                                *sd = cand;
                            }
                        }
                    }
                }
                for (sd, climb) in seed_dist.iter_mut().zip(climbs) {
                    if climb.path[0] == node {
                        // The seed lives in this leaf: the direct
                        // within-region row competes with border entries.
                        let urow = self.leaf_pos[climb.vertex as usize] as usize;
                        let direct = n.matrix[urow * ub + trow];
                        if direct < *sd {
                            *sd = direct;
                        }
                    }
                }
                let row = &mut best[item as usize * num_columns..][..num_columns];
                let mut lowered = false;
                for (sd, climb) in seed_dist.iter().zip(climbs) {
                    let cand = climb.offset + sd + toff;
                    let slot = &mut row[climb.column as usize];
                    if cand < *slot {
                        *slot = cand;
                        lowered = true;
                    }
                }
                if lowered {
                    within[item as usize] = row.iter().all(|&d| d <= prune_at);
                }
            }
            return true;
        }

        // Internal node: extend the entry matrix into each occupied child.
        // `node_entry` is taken out of the scratch so the child buffer can be
        // filled while reading it; both go back before returning — including
        // on a budget abort, so the scratch survives interrupted walks.
        let node_entry = std::mem::take(&mut scratch.entry[node]);
        let mut completed = true;
        for (k, &child) in n.children.iter().enumerate() {
            if targets.occupied[child] == 0 {
                continue;
            }
            let crows = &n.child_border_rows[k];
            let cb = crows.len();
            let mut entry = std::mem::take(&mut scratch.entry[child]);
            entry.clear();
            entry.resize(cb * s_count, f64::INFINITY);
            // (a) through this node's own borders (top-down entries).
            if has_entry {
                for (j, &jrow) in n.border_rows.iter().enumerate() {
                    let erow = &node_entry[j * s_count..(j + 1) * s_count];
                    for (bi, &brow) in crows.iter().enumerate() {
                        let m = n.matrix[jrow * ub + brow];
                        for (slot, &e) in
                            entry[bi * s_count..(bi + 1) * s_count].iter_mut().zip(erow)
                        {
                            let cand = e + m;
                            if cand < *slot {
                                *slot = cand;
                            }
                        }
                    }
                }
            }
            // (b) cross from each seed whose ancestor chain passes through
            // this node: its climb vector over the chain child's borders.
            for (s, climb) in climbs.iter().enumerate() {
                let plen = climb.path.len();
                if plen <= depth || climb.path[plen - 1 - depth] != node {
                    continue;
                }
                // `node` has children, so it is not the seed's leaf and the
                // chain continues one level down.
                let cc = climb.path[plen - 2 - depth];
                let ccpos = n
                    .children
                    .iter()
                    .position(|&c| c == cc)
                    .expect("chain child is a child of its parent");
                let avec = &climb.vecs[plen - 2 - depth];
                for (&xrow, &d) in n.child_border_rows[ccpos].iter().zip(avec) {
                    if !d.is_finite() {
                        continue;
                    }
                    for (bi, &brow) in crows.iter().enumerate() {
                        let cand = d + n.matrix[xrow * ub + brow];
                        let slot = &mut entry[bi * s_count + s];
                        if cand < *slot {
                            *slot = cand;
                        }
                    }
                }
            }
            // Prune only when EVERY seed is both outside the child's subtree
            // and too far to enter it within `prune_at`: a seed inside the
            // subtree reaches its targets without crossing the borders, and
            // any other seed pays at least its minimum entry distance.
            scratch.seed_min.clear();
            scratch.seed_min.resize(s_count, f64::INFINITY);
            for bi in 0..cb {
                for (mn, &e) in scratch
                    .seed_min
                    .iter_mut()
                    .zip(&entry[bi * s_count..(bi + 1) * s_count])
                {
                    if e < *mn {
                        *mn = e;
                    }
                }
            }
            let visit = climbs.iter().zip(&scratch.seed_min).any(|(climb, &mn)| {
                let plen = climb.path.len();
                let inside = plen > depth + 1 && climb.path[plen - 2 - depth] == child;
                inside || climb.offset + mn <= prune_at
            });
            scratch.entry[child] = entry;
            if visit {
                if !ticker.charge(1) {
                    completed = false;
                    break;
                }
                if !self.multi_visit(
                    child,
                    depth + 1,
                    true,
                    climbs,
                    num_columns,
                    targets,
                    prune_at,
                    best,
                    within,
                    ticker,
                    scratch,
                ) {
                    completed = false;
                    break;
                }
            }
        }
        scratch.entry[node] = node_entry;
        completed
    }

    fn ancestor_chain(&self, leaf: usize) -> Vec<usize> {
        let mut chain = vec![leaf];
        let mut cur = leaf;
        while let Some(p) = self.nodes[cur].parent {
            chain.push(p);
            cur = p;
        }
        chain
    }

    /// `result[i]` = distances from `u` to the borders of `path[i]`, computed
    /// within the region of `path[i]`.
    fn climb(&self, u: RoadVertexId, path: &[usize]) -> Vec<Vec<f64>> {
        let mut result: Vec<Vec<f64>> = Vec::with_capacity(path.len());
        // Leaf level.
        let leaf = &self.nodes[path[0]];
        let iu = self.leaf_pos[u as usize] as usize;
        let lub = leaf.union_borders.len();
        let leaf_row = &leaf.matrix[iu * lub..(iu + 1) * lub];
        let leaf_dists: Vec<f64> = leaf
            .border_rows
            .iter()
            .map(|&brow| leaf_row[brow])
            .collect();
        result.push(leaf_dists);
        // Internal levels.
        for level in 1..path.len() {
            let node = &self.nodes[path[level]];
            let cpos = node
                .children
                .iter()
                .position(|&c| c == path[level - 1])
                .expect("chain child is a child of its parent");
            let crows = &node.child_border_rows[cpos];
            let ub = node.union_borders.len();
            let prev = &result[level - 1];
            let dists: Vec<f64> = node
                .border_rows
                .iter()
                .map(|&xrow| {
                    let mut best = f64::INFINITY;
                    for (&brow, &d) in crows.iter().zip(prev) {
                        let cand = d + node.matrix[brow * ub + xrow];
                        if cand < best {
                            best = cand;
                        }
                    }
                    best
                })
                .collect();
            result.push(dists);
        }
        result
    }

    /// Partitions the network into the region tree and numbers its nodes.
    ///
    /// An over-capacity region splits into up to `fanout` parts by repeated
    /// balanced-bisection rounds: every round bisects each part that is still
    /// over the leaf capacity (a part small enough to be a leaf is carried
    /// through unsplit, never handed to [`bisect`], whose degenerate fallback
    /// could empty it). With `fanout == 2` a single round runs and the tree
    /// is exactly the historical binary bisection — same node order, same
    /// regions.
    ///
    /// Regions larger than `leaf_capacity * SPINE_FACTOR` split binary
    /// regardless of the requested fanout (the "spine"): a fanout-4 top node
    /// over a continental network unions the borders of four huge quadrants
    /// into one matrix whose fill and incremental refresh dominate everything
    /// else (the 40k-grid root carries ~1.5k borders at fanout 4 but ~400 on
    /// a binary spine). Keeping the top of the tree binary caps per-node
    /// matrix sizes at roughly one cut's worth of borders while the bulk of
    /// the tree — everything at metro scale and below — still gets the
    /// shallow multiway shape.
    ///
    /// The regions split depth by depth, and every round of one depth is a
    /// single [`bisect`] batch on `pool`, so sibling regions and sibling
    /// parts split side by side. Each bisection is a pure function of its
    /// part, so the regions do not depend on the thread count; the nodes are
    /// then numbered in the depth-first preorder of a serial recursion (a
    /// region, then each child's subtree in turn), so neither do the ids.
    fn partition(&mut self, net: &RoadNetwork, leaf_capacity: usize, fanout: usize, pool: RowPool) {
        let n = self.num_vertices;
        let mut plan = vec![PlanRegion {
            vertices: (0..n as u32).collect(),
            children: Vec::new(),
        }];
        let mut depth: Vec<usize> = if n > leaf_capacity {
            vec![0]
        } else {
            Vec::new()
        };
        let mut locate = vec![PartSlot::NONE; n];
        while !depth.is_empty() {
            let mut splits: Vec<RegionSplit> = depth
                .iter()
                .map(|&r| {
                    let vertices = &plan[r].vertices;
                    let spine = vertices.len() > leaf_capacity.saturating_mul(SPINE_FACTOR);
                    RegionSplit {
                        parts: vec![vertices.clone()],
                        fanout: if fanout > 2 && spine { 2 } else { fanout },
                        open: true,
                    }
                })
                .collect();
            loop {
                // `(split, part)` of every part this round bisects; a region
                // with no part over capacity, or at its fanout, is done.
                let mut jobs: Vec<(usize, usize)> = Vec::new();
                for (i, split) in splits.iter_mut().enumerate() {
                    if !split.open || split.parts.len() * 2 > split.fanout {
                        split.open = false;
                        continue;
                    }
                    let before = jobs.len();
                    jobs.extend(
                        (0..split.parts.len())
                            .filter(|&j| split.parts[j].len() > leaf_capacity)
                            .map(|j| (i, j)),
                    );
                    split.open = jobs.len() > before;
                }
                if jobs.is_empty() {
                    break;
                }
                let parts: Vec<&[RoadVertexId]> = jobs
                    .iter()
                    .map(|&(i, j)| splits[i].parts[j].as_slice())
                    .collect();
                let halves = bisect(net, &parts, &mut locate, pool);
                // Last job first, so the earlier jobs' part indices hold.
                for (&(i, j), (left, right)) in jobs.iter().zip(halves).rev() {
                    splits[i].parts[j] = left;
                    splits[i].parts.insert(j + 1, right);
                }
            }
            let mut next = Vec::new();
            for (&r, split) in depth.iter().zip(splits) {
                for part in split.parts {
                    let child = plan.len();
                    if part.len() > leaf_capacity {
                        next.push(child);
                    }
                    plan.push(PlanRegion {
                        vertices: part,
                        children: Vec::new(),
                    });
                    plan[r].children.push(child);
                }
            }
            depth = next;
        }
        self.root = self.place(&mut plan, 0, None);
    }

    /// Appends plan region `r` and its subtree as tree nodes in depth-first
    /// preorder (the region, then each child's subtree in turn) and returns
    /// the region's node id.
    fn place(&mut self, plan: &mut [PlanRegion], r: usize, parent: Option<usize>) -> usize {
        let id = self.nodes.len();
        let vertices = std::mem::take(&mut plan[r].vertices);
        let children = std::mem::take(&mut plan[r].children);
        if children.is_empty() {
            for &v in &vertices {
                self.leaf_of[v as usize] = id;
            }
        }
        self.nodes.push(Arc::new(GTreeNode::new(parent, vertices)));
        let children = children
            .into_iter()
            .map(|c| self.place(plan, c, Some(id)))
            .collect();
        self.node_mut(id).children = children;
        id
    }

    fn compute_borders(&mut self, net: &RoadNetwork) {
        let n = self.num_vertices;
        let mut in_region = vec![false; n];
        for id in 0..self.nodes.len() {
            for &v in &self.nodes[id].vertices {
                in_region[v as usize] = true;
            }
            let borders: Vec<RoadVertexId> = self.nodes[id]
                .vertices
                .iter()
                .copied()
                .filter(|&v| {
                    net.neighbors(v)
                        .iter()
                        .any(|&(u, _)| !in_region[u as usize])
                })
                .collect();
            for &v in &self.nodes[id].vertices {
                in_region[v as usize] = false;
            }
            self.node_mut(id).borders = borders;
        }
    }

    /// Fills every node's matrix, bottom-up by depth, and reports each
    /// depth's work (root first).
    fn compute_matrices(&mut self, net: &RoadNetwork, pool: RowPool) -> Vec<LevelReport> {
        // Parents are created before their children, so one increasing-id
        // pass settles every node's depth. Levels are processed bottom-up: an
        // internal matrix reads only its children's borders and matrices
        // (one level deeper, already final), so all matrices of a level can
        // be filled concurrently.
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max_depth = 0usize;
        for id in 0..self.nodes.len() {
            if let Some(p) = self.nodes[id].parent {
                depth[id] = depth[p] + 1;
                max_depth = max_depth.max(depth[id]);
            }
        }
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_depth + 1];
        for (id, &d) in depth.iter().enumerate() {
            levels[d].push(id);
        }
        let mut reports = vec![LevelReport::default(); levels.len()];
        let mut row_of = vec![u32::MAX; self.num_vertices];
        for (level, report) in levels.iter().zip(&mut reports).rev() {
            // Index spaces and row arrays first (serial, cheap): the level's
            // contraction reads them, as does everything after the build.
            for &id in level {
                self.set_index_space(id, &mut row_of);
            }
            // Contract the reduced border graphs, then fill every matrix row
            // of the level on the worker pool.
            let started = Instant::now();
            let fills: Vec<NodeFill> = level
                .iter()
                .map(|&id| NodeFill {
                    id,
                    reduced: if self.nodes[id].children.is_empty() {
                        None
                    } else {
                        Some(self.build_reduced_graph(net, id, &mut row_of))
                    },
                })
                .collect();
            let contracted = Instant::now();
            let matrices = self.fill_level_rows(net, &fills, pool);
            *report = LevelReport {
                nodes: fills.len(),
                rows: level
                    .iter()
                    .map(|&id| self.nodes[id].union_borders.len())
                    .sum(),
                reduced_edges: fills
                    .iter()
                    .filter_map(|f| f.reduced.as_ref().map(|r| r.targets.len()))
                    .sum(),
                contract_seconds: (contracted - started).as_secs_f64(),
                fill_seconds: contracted.elapsed().as_secs_f64(),
            };
            for (fill, matrix) in fills.iter().zip(matrices) {
                self.node_mut(fill.id).matrix = matrix;
            }
        }
        reports
    }

    /// Sets node `id`'s matrix index space — its region for a leaf, the
    /// concatenated border lists of its children otherwise (the children
    /// partition the region, so those lists are disjoint) — with the
    /// `border_rows` / `child_border_rows` arrays into it, and for a leaf the
    /// `leaf_pos` of its vertices. The children's borders must be final.
    /// `row_of` is an all-`u32::MAX` dense vertex lookup, restored on return.
    fn set_index_space(&mut self, id: usize, row_of: &mut [u32]) {
        let node = &self.nodes[id];
        let mut child_border_rows: Vec<Vec<usize>> = Vec::with_capacity(node.children.len());
        let union_borders: Vec<RoadVertexId> = if node.children.is_empty() {
            node.vertices.clone()
        } else {
            let mut union_borders = Vec::new();
            for &c in &node.children {
                let borders = &self.nodes[c].borders;
                child_border_rows
                    .push((union_borders.len()..union_borders.len() + borders.len()).collect());
                union_borders.extend_from_slice(borders);
            }
            union_borders
        };
        for (row, &v) in union_borders.iter().enumerate() {
            debug_assert_eq!(row_of[v as usize], u32::MAX, "children's borders overlap");
            row_of[v as usize] = row as u32;
        }
        // A border of an internal node has an edge leaving its region, hence
        // leaving its child's: it is a union border.
        let border_rows: Vec<usize> = node
            .borders
            .iter()
            .map(|&b| {
                debug_assert_ne!(
                    row_of[b as usize],
                    u32::MAX,
                    "border outside the index space"
                );
                row_of[b as usize] as usize
            })
            .collect();
        for &v in &union_borders {
            row_of[v as usize] = u32::MAX;
        }
        if node.children.is_empty() {
            for (row, &v) in union_borders.iter().enumerate() {
                self.leaf_pos[v as usize] = row as u32;
            }
        }
        let node = self.node_mut(id);
        node.union_borders = union_borders;
        node.border_rows = border_rows;
        node.child_border_rows = child_border_rows;
    }

    /// Fills the matrices of `fills`: a build level, or every dirty leaf of
    /// a refresh. The row tasks (one masked or reduced Dijkstra each) of all
    /// nodes go to one [`RowPool`] run, so a single huge node (the root)
    /// still spreads across every core. Each row is computed independently
    /// from immutable inputs straight into its matrix, so the result is
    /// deterministic regardless of thread count.
    fn fill_level_rows(
        &self,
        net: &RoadNetwork,
        fills: &[NodeFill],
        pool: RowPool,
    ) -> Vec<Vec<f64>> {
        let sizes: Vec<usize> = fills
            .iter()
            .map(|f| self.nodes[f.id].union_borders.len())
            .collect();
        // Rows × edges a row's Dijkstra scans: the reduced graph's, or for
        // a leaf its region's road edges.
        let work = fills
            .iter()
            .zip(&sizes)
            .map(|(f, &size)| {
                size * f.reduced.as_ref().map_or_else(
                    || {
                        let region = &self.nodes[f.id].union_borders;
                        region.iter().map(|&v| net.degree(v)).sum()
                    },
                    |r| r.targets.len(),
                )
            })
            .sum();
        let mut matrices: Vec<Vec<f64>> =
            sizes.iter().map(|&s| vec![f64::INFINITY; s * s]).collect();
        let rows = matrices.iter_mut().zip(fills.iter().zip(&sizes)).flat_map(
            |(matrix, (fill, &size))| {
                // An empty matrix has no rows; the chunk width only must
                // not be zero.
                matrix
                    .chunks_exact_mut(size.max(1))
                    .enumerate()
                    .map(move |(row, out)| (fill, row, out))
            },
        );
        pool.run(
            work,
            rows,
            || FillWorker::new(net.num_vertices()),
            |worker, (fill, row, out)| {
                self.compute_matrix_row(net, fill, row, out, worker);
                0
            },
        );
        matrices
    }

    /// Computes one matrix row of a node being filled into `out`: a masked
    /// within-region Dijkstra for leaves, a reduced-graph Dijkstra for
    /// internal nodes.
    fn compute_matrix_row(
        &self,
        net: &RoadNetwork,
        fill: &NodeFill,
        row: usize,
        out: &mut [f64],
        worker: &mut FillWorker,
    ) {
        match &fill.reduced {
            Some(reduced) => reduced_dijkstra_row(reduced, row, out, &mut worker.queue),
            None => {
                let ub = &self.nodes[fill.id].union_borders;
                let FillWorker {
                    sssp, region_mask, ..
                } = worker;
                for &v in ub {
                    region_mask[v as usize] = true;
                }
                sssp.run(
                    net,
                    &[(ub[row], 0.0)],
                    None,
                    Some(region_mask),
                    &mut BudgetTicker::unlimited(),
                );
                let dists = sssp.dist();
                for (slot, &u) in out.iter_mut().zip(ub) {
                    *slot = dists[u as usize];
                }
                for &v in ub {
                    region_mask[v as usize] = false;
                }
            }
        }
    }

    /// Assembles the contracted reduced border graph of an internal node from
    /// the children's **current** matrices (intra-child shortcuts) and the
    /// current weights of the road edges crossing between children.
    ///
    /// Each child's border clique is contracted before it enters the graph: a
    /// shortcut `(a, b)` is dropped when some other border `x` of the same
    /// child gives `d(a,x) + d(x,b) <= d(a,b)` with **both legs strictly
    /// shorter** than `d(a,b)`. Strictness makes the soundness argument
    /// inductive over edge weight (every dropped edge is covered by
    /// kept-or-covered strictly shorter edges), and because clique distances
    /// are exact within-child shortest paths — so any witness sum is also a
    /// valid path bound the full clique contains — the contracted graph has
    /// **identical** shortest-path values to the full clique in exact f64
    /// terms, while grid-like cuts shrink from `|borders|²` edges to
    /// near-linear.
    fn build_reduced_graph(
        &self,
        net: &RoadNetwork,
        id: usize,
        row_of: &mut [u32],
    ) -> ReducedGraph {
        let node = &self.nodes[id];
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        for k in 0..node.children.len() {
            self.contract_child_clique(id, k, &mut edges);
        }
        self.push_cross_child_edges(net, id, row_of, &mut edges);
        assemble_reduced(node.union_borders.len(), &edges)
    }

    /// Update-path variant of [`build_reduced_graph`](Self::build_reduced_graph)
    /// that reuses each child's cached contracted clique unless that child's
    /// border-to-border distances changed this batch (`changed[child]` holds
    /// the borders whose rows changed; `Some(non-empty)` invalidates the
    /// cache). Cross-child road edges are always rescanned — they are cheap
    /// and carry the level-local reweights.
    fn reduced_graph_for_update(
        &mut self,
        net: &RoadNetwork,
        id: usize,
        changed: &[Option<Vec<usize>>],
        row_of: &mut [u32],
    ) -> ReducedGraph {
        let num_children = self.nodes[id].children.len();
        let mut cliques = std::mem::take(&mut self.node_mut(id).contracted_children);
        cliques.resize(num_children, None);
        for (k, cached) in cliques.iter_mut().enumerate() {
            let child = self.nodes[id].children[k];
            let stale = changed[child].as_ref().is_some_and(|l| !l.is_empty());
            if stale || cached.is_none() {
                let mut clique = Vec::new();
                self.contract_child_clique(id, k, &mut clique);
                *cached = Some(clique);
            }
        }
        let mut edges: Vec<(u32, u32, f64)> = cliques.iter().flatten().flatten().copied().collect();
        self.node_mut(id).contracted_children = cliques;
        self.push_cross_child_edges(net, id, row_of, &mut edges);
        assemble_reduced(self.nodes[id].union_borders.len(), &edges)
    }

    /// Contracts child `k`'s border clique and appends the surviving
    /// shortcuts (both directions, union-border row coordinates) to `edges`.
    /// The shortcut `(i, j)` is dropped when [`has_witness`] finds a border
    /// `x` with `d(i,x) < d(i,j)`, `d(x,j) < d(i,j)` and
    /// `d(i,x) + d(x,j) <= d(i,j)`; survivors come out in `(i, j)` order.
    fn contract_child_clique(&self, id: usize, k: usize, edges: &mut Vec<(u32, u32, f64)>) {
        let node = &self.nodes[id];
        let child = &self.nodes[node.children[k]];
        let nb = child.borders.len();
        if nb < 2 {
            return;
        }
        // The child's border-to-border distances, row-major (`d(i, x)` over
        // `x` is row `i`) and transposed (`d(x, j)` over `x` is row `j`), so
        // both witness legs are contiguous reads.
        let size = child.union_borders.len();
        let mut rows = vec![0.0f64; nb * nb];
        let mut cols = vec![0.0f64; nb * nb];
        for (i, &ri) in child.border_rows.iter().enumerate() {
            let src = &child.matrix[ri * size..(ri + 1) * size];
            for (j, &rj) in child.border_rows.iter().enumerate() {
                rows[i * nb + j] = src[rj];
                cols[j * nb + i] = src[rj];
            }
        }
        let parent_rows = &node.child_border_rows[k];
        for i in 0..nb {
            let row = &rows[i * nb..(i + 1) * nb];
            for j in (i + 1)..nb {
                let dij = row[j];
                if dij.is_finite() && !has_witness(row, &cols[j * nb..(j + 1) * nb], dij) {
                    let (a, b) = (parent_rows[i] as u32, parent_rows[j] as u32);
                    edges.push((a, b, dij));
                    edges.push((b, a, dij));
                }
            }
        }
    }

    /// Appends the road edges crossing between children of `id` (both
    /// directions arise from scanning each endpoint's neighbor list; cross
    /// endpoints are borders of their children, hence union borders).
    /// `row_of` is an all-`u32::MAX` dense vertex lookup, restored on return.
    fn push_cross_child_edges(
        &self,
        net: &RoadNetwork,
        id: usize,
        row_of: &mut [u32],
        edges: &mut Vec<(u32, u32, f64)>,
    ) {
        let node = &self.nodes[id];
        let mut child_of_row = vec![0u32; node.union_borders.len()];
        for (k, rows) in node.child_border_rows.iter().enumerate() {
            for &r in rows {
                child_of_row[r] = k as u32;
            }
        }
        for (r, &b) in node.union_borders.iter().enumerate() {
            row_of[b as usize] = r as u32;
        }
        for (r, &b) in node.union_borders.iter().enumerate() {
            for &(u, w) in net.neighbors(b) {
                let ru = row_of[u as usize];
                if ru != u32::MAX && child_of_row[ru as usize] != child_of_row[r] {
                    edges.push((r as u32, ru, w));
                }
            }
        }
        for &b in &node.union_borders {
            row_of[b as usize] = u32::MAX;
        }
    }

    /// Extracts a node's current border-to-border submatrix (row-major over
    /// `border_rows`) — the only part of its matrix a parent's reduced graph
    /// can observe.
    fn border_submatrix(&self, id: usize) -> Vec<f64> {
        let node = &self.nodes[id];
        let size = node.union_borders.len();
        let rows = &node.border_rows;
        let mut sub = Vec::with_capacity(rows.len() * rows.len());
        for &i in rows {
            for &j in rows {
                sub.push(node.matrix[i * size + j]);
            }
        }
        sub
    }

    /// Positions (in `borders`) of the borders of `id` whose
    /// border-to-border distances differ from the snapshot `old_sub`
    /// **beyond ulp noise**. These are the only borders a
    /// parent refresh must treat as changed. The comparison must be
    /// tolerance-based, not exact: a refresh re-contracts changed children,
    /// and contraction changes the summation association of path weights, so
    /// an unchanged true distance can come back a few ulps off — an exact
    /// `!=` would mark it changed and let the changed set amplify
    /// geometrically up the tree until every update degenerates to a full
    /// rebuild. The margin matches the patch-rule margins, so per-batch drift
    /// stays orders of magnitude below the 1e-9 tolerances the invariant
    /// suite checks.
    fn changed_borders_since(&self, id: usize, old_sub: &[f64]) -> Vec<usize> {
        let nb = self.nodes[id].borders.len();
        let new_sub = self.border_submatrix(id);
        (0..nb)
            .filter(|&i| {
                old_sub[i * nb..(i + 1) * nb]
                    .iter()
                    .zip(&new_sub[i * nb..(i + 1) * nb])
                    .any(|(&a, &b)| significantly_different(a, b))
            })
            .collect()
    }

    /// Delta-aware refresh of an internal node's matrix for
    /// [`apply_edge_updates`](Self::apply_edge_updates): only sources whose
    /// reduced-graph neighborhood actually changed are re-Dijkstra'd.
    ///
    /// `changed[child]` lists the positions of a refreshed child's borders
    /// whose border-to-border rows changed this batch (`None` = untouched);
    /// `touched` lists the endpoints of cross-child edges reweighted at this
    /// node's level. Together they induce the changed set `C` of union-border
    /// rows: every reduced-graph edge whose weight (or existence, via
    /// re-contraction) may have changed has **both** endpoints in `C` —
    /// a changed intra-child shortcut `(a, b)` means the child's
    /// border-to-border distance `d(a, b)` changed, which marks both border
    /// rows (the submatrix diff is symmetric). Rows in `C` are recomputed
    /// with a reduced Dijkstra on the new graph (re-contracting only the
    /// changed children, via the per-child clique cache). Any other source
    /// `s` is **patched** when every pair `(s, t)` outside `C` is provably
    /// exact: writing `A` for the (unknown but unchanged) best path avoiding
    /// `C`, `new(s,t) = min(A, B_new)` with `B_new` the best new detour
    /// through `C` (computable from the fresh rows by symmetry — the reduced
    /// graph is undirected), and `min(old(s,t), B_new)` equals that whenever
    /// `old(s,t) < B_old` (the old path avoided `C`, so `A = old`) **or**
    /// `B_new <= old(s,t)` (the detour got cheap enough to dominate `A >=
    /// old`).
    ///
    /// **Tie contract.** Both comparisons carry the relative margin `m =
    /// 1e-12 · max(|B_old|, 1)`, the margin [`significantly_different`]
    /// uses for change detection. A pair with `old(s,t)` within `m` of
    /// `B_old` fails the first test, so a near-tie between the old path and
    /// the old detour is never taken as "avoided `C`": it is patched only by
    /// the second test, else the row goes to the Dijkstra side. The second
    /// test accepts `B_new <= old(s,t) + m`, so a patched entry may sit up
    /// to `m` above the exact value, and change detection reports a border
    /// distance that moved by at most its margin as unchanged. A refreshed
    /// entry may therefore differ from a fresh build only within that
    /// margin, per refresh. Where every path sum is exact in f64 (integer
    /// weights, say) nothing falls inside a margin, and the refreshed
    /// matrices equal a fresh build bit for bit.
    ///
    /// The three row sets — every row of a dense change, the fresh `C` rows,
    /// then the patch-or-Dijkstra rows, which read only the old matrix, the
    /// fresh `C` rows and their own worker's buffers — each run on `pool`,
    /// written in place into the node's new matrix. Returns the node's
    /// changed-border list (`None` if the matrix is unchanged) plus
    /// `(dijkstra_rows, patched_rows)`. The node is copied out of any clone
    /// sharing it only once `C` is non-empty.
    fn refresh_internal_matrix(
        &mut self,
        net: &RoadNetwork,
        id: usize,
        changed: &[Option<Vec<usize>>],
        touched: &[RoadVertexId],
        row_of: &mut [u32],
        pool: RowPool,
    ) -> (Option<Vec<usize>>, usize, usize) {
        let size = self.nodes[id].union_borders.len();
        if size == 0 {
            return (None, 0, 0);
        }
        let mut in_c = vec![false; size];
        let node = &self.nodes[id];
        for (k, &c) in node.children.iter().enumerate() {
            if let Some(list) = &changed[c] {
                for &i in list {
                    in_c[node.child_border_rows[k][i]] = true;
                }
            }
        }
        for &v in touched {
            if let Some(row) = self.ub_position_of(id, v) {
                in_c[row] = true;
            }
        }
        let c_rows: Vec<usize> = (0..size).filter(|&r| in_c[r]).collect();
        if c_rows.is_empty() {
            // Children changed only outside their border submatrices, and no
            // level-local reweight: this matrix cannot have changed.
            return (None, 0, 0);
        }
        let old_sub = self.border_submatrix(id);
        let reduced = self.reduced_graph_for_update(net, id, changed, row_of);
        let row_work = reduced.targets.len();
        let old = std::mem::take(&mut self.node_mut(id).matrix);
        let mut matrix = vec![f64::INFINITY; size * size];
        let dijkstra = |queue: &mut SweepQueue, (s, out): (usize, &mut [f64])| {
            reduced_dijkstra_row(&reduced, s, out, queue);
            1
        };
        let (dijkstra_rows, patched_rows) = if c_rows.len() * 2 >= size {
            // Dense change: patching cannot beat recomputing everything.
            let rows = matrix.chunks_exact_mut(size).enumerate();
            pool.run(size * row_work, rows, SweepQueue::default, dijkstra);
            (size, 0)
        } else {
            // Fresh rows for every changed source; row `c` doubles as the
            // new `new(s, c)` column by symmetry.
            let rows = matrix
                .chunks_exact_mut(size)
                .enumerate()
                .filter(|(r, _)| in_c[*r]);
            pool.run(c_rows.len() * row_work, rows, SweepQueue::default, dijkstra);
            let mut fresh: Vec<&[f64]> = Vec::with_capacity(c_rows.len());
            let mut rest: Vec<(usize, &mut [f64])> = Vec::with_capacity(size - c_rows.len());
            for (r, row) in matrix.chunks_exact_mut(size).enumerate() {
                if in_c[r] {
                    fresh.push(row);
                } else {
                    rest.push((r, row));
                }
            }
            let rest_rows = rest.len();
            let redone = pool.run(
                rest_rows * row_work,
                rest.into_iter(),
                || PatchWorker::new(size),
                |worker, (s, out)| {
                    let PatchWorker {
                        b_old,
                        b_new,
                        queue,
                    } = worker;
                    b_old.fill(f64::INFINITY);
                    b_new.fill(f64::INFINITY);
                    let old_row = &old[s * size..(s + 1) * size];
                    for (&c, new_c) in c_rows.iter().zip(&fresh) {
                        let osc = old_row[c];
                        if osc.is_finite() {
                            lower_by_sum(b_old, osc, &old[c * size..(c + 1) * size]);
                        }
                        let nsc = new_c[s];
                        if nsc.is_finite() {
                            lower_by_sum(b_new, nsc, new_c);
                        }
                    }
                    // An infinite detour bound is exact (reweights never
                    // change reachability, so `old == A` there); finite
                    // bounds must clear the tie margin. The second clause
                    // is what keeps patching effective: a shortest path that
                    // merely touches `C` without using a changed edge keeps
                    // `B_new == old`, and `min(A, B_new) = B_new` then holds
                    // because `A >= old` always.
                    let safe = (0..size).all(|t| {
                        if in_c[t] {
                            return true;
                        }
                        let bo = b_old[t];
                        if bo.is_infinite() {
                            return true;
                        }
                        let m = 1e-12 * bo.abs().max(1.0);
                        old_row[t] < bo - m || b_new[t] <= old_row[t] + m
                    });
                    if !safe {
                        return dijkstra(queue, (s, out));
                    }
                    for ((slot, &o), &b) in out.iter_mut().zip(old_row).zip(b_new.iter()) {
                        *slot = o.min(b);
                    }
                    for (&c, new_c) in c_rows.iter().zip(&fresh) {
                        out[c] = new_c[s];
                    }
                    0
                },
            );
            (c_rows.len() + redone, rest_rows - redone)
        };
        let node_changed = old != matrix;
        self.node_mut(id).matrix = matrix;
        let report = node_changed.then(|| self.changed_borders_since(id, &old_sub));
        (report, dijkstra_rows, patched_rows)
    }
}

/// One node of a build level queued for its matrix fill: leaves (`reduced ==
/// None`) run masked within-region Dijkstras, internal nodes run reduced
/// Dijkstras over their contracted border graph.
#[derive(Debug)]
struct NodeFill {
    id: usize,
    reduced: Option<ReducedGraph>,
}

/// A contracted reduced border graph in CSR form. Vertex ids are union-border
/// rows of the owning node; edges are the surviving intra-child shortcuts
/// plus the road edges crossing between children.
#[derive(Debug)]
struct ReducedGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

/// Whether two distance values differ beyond f64 association noise (the
/// relative margin matches the incremental patch rule's epsilon).
fn significantly_different(a: f64, b: f64) -> bool {
    if a == b {
        return false;
    }
    if !a.is_finite() || !b.is_finite() {
        return true;
    }
    (a - b).abs() > 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// `slot[t] = min(slot[t], base + row[t])` over a whole row, as a
/// branch-free select (`cand < slot` picks `cand`, exactly like the
/// branching form) so it vectorises.
fn lower_by_sum(slots: &mut [f64], base: f64, row: &[f64]) {
    for (slot, &x) in slots.iter_mut().zip(row) {
        let cand = base + x;
        let cur = *slot;
        *slot = if cand < cur { cand } else { cur };
    }
}

/// Whether some border `x` witnesses the child shortcut `(i, j)` of length
/// `dij`: `d(i,x) < dij`, `d(x,j) < dij` and `d(i,x) + d(x,j) <= dij`, with
/// `row_i[x] = d(i,x)` and `col_j[x] = d(x,j)`. Tested branch-free over
/// fixed-width chunks (so each chunk vectorises), stopping at the first
/// chunk holding a witness. `x = i` and `x = j` never qualify: one leg is
/// `dij` itself.
fn has_witness(row_i: &[f64], col_j: &[f64], dij: f64) -> bool {
    const LANES: usize = 8;
    let witness = |a: f64, b: f64| (a < dij) & (b < dij) & (a + b <= dij);
    let mut rows = row_i.chunks_exact(LANES);
    let mut cols = col_j.chunks_exact(LANES);
    for (a, b) in (&mut rows).zip(&mut cols) {
        let mut hit = false;
        for k in 0..LANES {
            hit |= witness(a[k], b[k]);
        }
        if hit {
            return true;
        }
    }
    rows.remainder()
        .iter()
        .zip(cols.remainder())
        .any(|(&a, &b)| witness(a, b))
}

/// Counting-sorts a directed edge list into CSR form over `size` vertices.
fn assemble_reduced(size: usize, edges: &[(u32, u32, f64)]) -> ReducedGraph {
    let mut offsets = vec![0u32; size + 1];
    for &(a, _, _) in edges {
        offsets[a as usize + 1] += 1;
    }
    for i in 0..size {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..size].to_vec();
    let mut targets = vec![0u32; edges.len()];
    let mut weights = vec![0.0f64; edges.len()];
    for &(a, b, w) in edges {
        let slot = cursor[a as usize] as usize;
        targets[slot] = b;
        weights[slot] = w;
        cursor[a as usize] += 1;
    }
    ReducedGraph {
        offsets,
        targets,
        weights,
    }
}

/// Per-thread scratch of the (possibly parallel) matrix fill.
#[derive(Debug)]
struct FillWorker {
    sssp: SsspScratch,
    region_mask: Vec<bool>,
    queue: SweepQueue,
}

impl FillWorker {
    fn new(num_vertices: usize) -> Self {
        FillWorker {
            sssp: SsspScratch::new(),
            region_mask: vec![false; num_vertices],
            queue: SweepQueue::default(),
        }
    }
}

/// Per-thread buffers of a refresh's patch-or-Dijkstra rows: the old and
/// new detour bounds through `C` of the row being patched, and the queue of
/// a row that falls back to a Dijkstra.
#[derive(Debug)]
struct PatchWorker {
    b_old: Vec<f64>,
    b_new: Vec<f64>,
    queue: SweepQueue,
}

impl PatchWorker {
    fn new(size: usize) -> Self {
        PatchWorker {
            b_old: vec![f64::INFINITY; size],
            b_new: vec![f64::INFINITY; size],
            queue: SweepQueue::default(),
        }
    }
}

/// The threads a set of matrix rows or bisection tasks may run on, and the
/// least work estimate worth spawning them for (see
/// [`PARALLEL_WORK_THRESHOLD`]).
#[derive(Debug, Clone, Copy)]
struct RowPool {
    threads: usize,
    min_work: usize,
}

impl RowPool {
    /// Every core of the host, for work above [`PARALLEL_WORK_THRESHOLD`].
    fn host() -> Self {
        RowPool {
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            min_work: PARALLEL_WORK_THRESHOLD,
        }
    }

    /// Runs `row(worker, item)` for every item and returns the sum of the
    /// results. Below `min_work` (or with one thread, or one item) the
    /// calling thread runs them all with one worker; otherwise it and up to
    /// `threads - 1` scoped helpers, no more than there are items, claim
    /// items one at a time, each with its own `new_worker()`.
    /// An item carries the `&mut` row it writes, so rows are filled in place
    /// and no row allocates; the output is the same whichever thread runs
    /// an item, as long as `row` reads only shared inputs and its worker's
    /// scratch.
    fn run<T, W, I, N, F>(self, work: usize, items: I, new_worker: N, row: F) -> usize
    where
        T: Send,
        I: Iterator<Item = T> + Send,
        N: Fn() -> W + Sync,
        F: Fn(&mut W, T) -> usize + Sync,
    {
        let threads = self.threads.min(items.size_hint().1.unwrap_or(usize::MAX));
        if threads <= 1 || work < self.min_work {
            let mut worker = new_worker();
            return items.map(|item| row(&mut worker, item)).sum();
        }
        let items = Mutex::new(items);
        let claim = || {
            let mut worker = new_worker();
            let mut total = 0;
            loop {
                // The guard drops at the end of this statement, before the
                // row runs.
                let next = items.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some(item) = next else {
                    return total;
                };
                total += row(&mut worker, item);
            }
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
            let own = claim();
            own + helpers
                .into_iter()
                .map(|h| h.join().expect("matrix row worker panicked"))
                .sum::<usize>()
        })
    }
}

/// Dijkstra over a contracted reduced border graph, writing the full
/// distance row from `source` into `dist` (one slot per graph vertex). The
/// queue is recycled per call and runs unbounded.
fn reduced_dijkstra_row(g: &ReducedGraph, source: usize, dist: &mut [f64], queue: &mut SweepQueue) {
    debug_assert_eq!(dist.len(), g.offsets.len() - 1);
    dist.fill(f64::INFINITY);
    queue.reset(0.0, f64::INFINITY);
    dist[source] = 0.0;
    queue.push(0.0, source as u32);
    while let Some((key, v)) = queue.pop() {
        let v = v as usize;
        let d = dist[v];
        // A stale entry: `v` was improved after this one was pushed.
        if key != heap_key(d) {
            continue;
        }
        for e in g.offsets[v] as usize..g.offsets[v + 1] as usize {
            let u = g.targets[e] as usize;
            let nd = d + g.weights[e];
            if nd < dist[u] {
                dist[u] = nd;
                queue.push(nd, u as u32);
            }
        }
    }
}

/// Most refinement passes one bisection attempt runs.
const FM_PASSES: usize = 8;

/// Parts above this many vertices are bisected from three growth seeds
/// instead of one.
const MULTI_SEED_PART: usize = 2048;

/// One region of the partition plan: its vertices and, once it is split,
/// its child regions (plan indices).
#[derive(Debug)]
struct PlanRegion {
    vertices: Vec<RoadVertexId>,
    children: Vec<usize>,
}

/// A region being split by bisection rounds: its current parts, its
/// effective fanout and whether it takes another round.
#[derive(Debug)]
struct RegionSplit {
    parts: Vec<Vec<RoadVertexId>>,
    fanout: usize,
    open: bool,
}

/// A vertex's part within one [`bisect`] batch and its position there.
#[derive(Debug, Clone, Copy)]
struct PartSlot {
    part: u32,
    pos: u32,
}

impl PartSlot {
    /// A vertex outside every part of the batch.
    const NONE: PartSlot = PartSlot {
        part: u32::MAX,
        pos: u32::MAX,
    };
}

/// A part restricted to itself: each vertex's in-part neighbours as part
/// positions (CSR, in road-network neighbour order), plus the part's growth
/// seeds.
#[derive(Debug)]
struct PartGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    seeds: Vec<usize>,
}

impl PartGraph {
    /// Room for a part of `len` vertices whose road neighbour lists hold
    /// `scanned` entries in total, the most its in-part lists can hold.
    fn with_capacity(len: usize, scanned: usize) -> Self {
        PartGraph {
            offsets: Vec::with_capacity(len + 1),
            targets: Vec::with_capacity(scanned),
            seeds: Vec::with_capacity(3),
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn neighbors(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree within the part (edges leaving the part are borders whatever
    /// the split, so they never enter a gain).
    fn degree(&self, i: usize) -> i32 {
        (self.offsets[i + 1] - self.offsets[i]) as i32
    }

    /// Fills the in-part adjacency of part `p` from the batch's dense
    /// `locate` index, then picks the growth seeds: the BFS-farthest vertex
    /// from position 0, and for a part above [`MULTI_SEED_PART`] also from
    /// positions `n / 3` and `2n / 3` (consecutive repeats dropped).
    /// `seen` and `queue` are the BFS scratch.
    fn fill(
        &mut self,
        net: &RoadNetwork,
        part: &[RoadVertexId],
        p: usize,
        locate: &[PartSlot],
        seen: &mut Vec<bool>,
        queue: &mut Vec<u32>,
    ) {
        self.offsets.push(0);
        for &v in part {
            for &(u, _) in net.neighbors(v) {
                let slot = locate[u as usize];
                if slot.part as usize == p {
                    self.targets.push(slot.pos);
                }
            }
            self.offsets.push(self.targets.len() as u32);
        }
        let n = part.len();
        if n < 2 {
            return;
        }
        let starts: &[usize] = if n > MULTI_SEED_PART {
            &[0, n / 3, 2 * n / 3]
        } else {
            &[0]
        };
        for &from in starts {
            let seed = self.far_from(from, seen, queue);
            if self.seeds.last() != Some(&seed) {
                self.seeds.push(seed);
            }
        }
    }

    /// The BFS-farthest position from `from` (a periphery vertex, so the
    /// grown half does not enclose the seed's component center): the last
    /// one the BFS reaches.
    fn far_from(&self, from: usize, seen: &mut Vec<bool>, queue: &mut Vec<u32>) -> usize {
        seen.clear();
        seen.resize(self.len(), false);
        queue.clear();
        seen[from] = true;
        queue.push(from as u32);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &u in self.neighbors(v as usize) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push(u);
                }
            }
        }
        queue[queue.len() - 1] as usize
    }

    /// Gain of moving position `vi` off its current side.
    fn move_gain(&self, vi: usize, in_a: &[bool], deg_in_a: &[i32]) -> i32 {
        if in_a[vi] {
            self.degree(vi) - 2 * deg_in_a[vi]
        } else {
            2 * deg_in_a[vi] - self.degree(vi)
        }
    }

    /// One full growth and refinement attempt from `seed`: writes the side-A
    /// flags into `in_a` (all `false` on entry, one per part position) and
    /// returns the cut edge count.
    ///
    /// Greedy growth absorbs the frontier vertex with the maximal gain
    /// `(neighbours already in A) - (neighbours still outside)`; the heap
    /// is lazy (stale entries are re-checked against the current gain), and
    /// an exhausted component re-seeds from the first unassigned position.
    /// Fiduccia–Mattheyses passes with rollback follow: each moves the
    /// best-gain unlocked vertex (negative gains included, so the pass can
    /// climb out of local minima), locks it, and finally rolls back to the
    /// best prefix of the move sequence. Passes repeat, at most
    /// [`FM_PASSES`], until one fails to improve the cut.
    fn attempt(&self, seed: usize, in_a: &mut [bool], worker: &mut BisectWorker) -> i64 {
        use std::cmp::Reverse;
        let n = self.len();
        let half = n / 2;
        let slack = (n / 16).max(1);
        let min_side = half.saturating_sub(slack).max(1);
        let max_side = (half + slack).min(n - 1);
        let BisectWorker {
            deg_in_a,
            locked,
            heap_a,
            heap_b,
            moves,
        } = worker;
        deg_in_a.clear();
        deg_in_a.resize(n, 0);
        heap_a.clear();
        heap_a.push((-self.degree(seed), Reverse(seed as u32)));
        let mut a_count = 0usize;
        let mut next_reseed = 0usize;
        while a_count < half {
            let vi = match heap_a.pop() {
                Some((g, Reverse(vi))) => {
                    let vi = vi as usize;
                    if in_a[vi] || g != 2 * deg_in_a[vi] - self.degree(vi) {
                        continue; // stale or already absorbed
                    }
                    vi
                }
                None => {
                    // `next_reseed` only moves forward.
                    while next_reseed < n && in_a[next_reseed] {
                        next_reseed += 1;
                    }
                    if next_reseed >= n {
                        break;
                    }
                    next_reseed
                }
            };
            in_a[vi] = true;
            a_count += 1;
            for &u in self.neighbors(vi) {
                let u = u as usize;
                deg_in_a[u] += 1;
                if !in_a[u] {
                    heap_a.push((2 * deg_in_a[u] - self.degree(u), Reverse(u as u32)));
                }
            }
        }

        for _pass in 0..FM_PASSES {
            locked.clear();
            locked.resize(n, false);
            // One heap per side, so balance limits can force a side; both
            // are heapified in place from their reused buffers.
            let mut side_a = std::mem::take(heap_a).into_vec();
            let mut side_b = std::mem::take(heap_b).into_vec();
            side_a.clear();
            side_b.clear();
            for vi in 0..n {
                let entry = (self.move_gain(vi, in_a, deg_in_a), Reverse(vi as u32));
                if in_a[vi] {
                    side_a.push(entry);
                } else {
                    side_b.push(entry);
                }
            }
            *heap_a = GainHeap::from(side_a);
            *heap_b = GainHeap::from(side_b);
            moves.clear();
            let mut gain_sum = 0i64;
            let mut best_sum = 0i64;
            let mut best_prefix = 0usize;
            loop {
                // Drop stale tops, then pick the better feasible side (ties
                // prefer the side whose move restores balance, then A).
                let clean = |heap: &mut GainHeap, want_a: bool, in_a: &[bool], deg_in_a: &[i32]| {
                    while let Some(&(g, Reverse(v))) = heap.peek() {
                        let vi = v as usize;
                        if !locked[vi]
                            && in_a[vi] == want_a
                            && g == self.move_gain(vi, in_a, deg_in_a)
                        {
                            return Some((g, vi));
                        }
                        heap.pop();
                    }
                    None
                };
                let from_a = if a_count > min_side {
                    clean(heap_a, true, in_a, deg_in_a)
                } else {
                    None
                };
                let from_b = if a_count < max_side {
                    clean(heap_b, false, in_a, deg_in_a)
                } else {
                    None
                };
                let (gain, vi) = match (from_a, from_b) {
                    (Some((ga, va)), Some((gb, vb))) => {
                        if ga > gb || (ga == gb && a_count > half) {
                            heap_a.pop();
                            (ga, va)
                        } else {
                            heap_b.pop();
                            (gb, vb)
                        }
                    }
                    (Some((ga, va)), None) => {
                        heap_a.pop();
                        (ga, va)
                    }
                    (None, Some((gb, vb))) => {
                        heap_b.pop();
                        (gb, vb)
                    }
                    (None, None) => break,
                };
                let delta = if in_a[vi] { -1i32 } else { 1 };
                in_a[vi] = !in_a[vi];
                a_count = a_count.wrapping_add_signed(delta as isize);
                locked[vi] = true;
                for &u in self.neighbors(vi) {
                    let u = u as usize;
                    deg_in_a[u] += delta;
                    if !locked[u] {
                        let entry = (self.move_gain(u, in_a, deg_in_a), Reverse(u as u32));
                        if in_a[u] {
                            heap_a.push(entry);
                        } else {
                            heap_b.push(entry);
                        }
                    }
                }
                moves.push(vi as u32);
                gain_sum += gain as i64;
                if gain_sum > best_sum {
                    best_sum = gain_sum;
                    best_prefix = moves.len();
                }
            }
            // Roll back everything after the best prefix.
            for &vi in moves[best_prefix..].iter().rev() {
                let vi = vi as usize;
                let delta = if in_a[vi] { -1i32 } else { 1 };
                in_a[vi] = !in_a[vi];
                a_count = a_count.wrapping_add_signed(delta as isize);
                for &u in self.neighbors(vi) {
                    deg_in_a[u as usize] += delta;
                }
            }
            if best_sum == 0 {
                break;
            }
        }

        (0..n)
            .filter(|&vi| in_a[vi])
            .map(|vi| (self.degree(vi) - deg_in_a[vi]) as i64)
            .sum()
    }
}

/// One growth-and-refinement attempt of a [`bisect`] batch: which part,
/// from which seed, and its outcome (the side-A flags and the cut).
#[derive(Debug)]
struct Attempt {
    part: usize,
    seed: usize,
    in_a: Vec<bool>,
    cut: i64,
}

/// A lazy max-heap of `(gain, Reverse(position))`: the best gain pops
/// first, ties by the smaller position.
type GainHeap = std::collections::BinaryHeap<(i32, std::cmp::Reverse<u32>)>;

/// Per-thread buffers of the bisection attempts, sized for the batch's
/// largest part up front and reused by every attempt and refinement pass
/// the thread runs.
#[derive(Debug)]
struct BisectWorker {
    deg_in_a: Vec<i32>,
    locked: Vec<bool>,
    heap_a: GainHeap,
    heap_b: GainHeap,
    moves: Vec<u32>,
}

impl BisectWorker {
    fn with_capacity(n: usize) -> Self {
        BisectWorker {
            deg_in_a: Vec::with_capacity(n),
            locked: Vec::with_capacity(n),
            heap_a: GainHeap::with_capacity(n),
            heap_b: GainHeap::with_capacity(n),
            moves: Vec::with_capacity(n),
        }
    }
}

/// Splits each of `parts` into two balanced halves while minimizing the
/// number of cut edges — and therefore the border count at every level of
/// the tree.
///
/// Distance-based splitting (two-sided BFS growth, bisector orderings) falls
/// apart on road networks with long-range shortcut edges: hop distances turn
/// small-world and the "geometric" halves scatter into dozens of fragments,
/// leaving almost every vertex a border. Cut minimization sidesteps the
/// metric entirely. One half is grown greedily from a far-apart seed, always
/// absorbing the frontier vertex whose move reduces the running cut the most
/// (greedy graph growing, the seed heuristic used by multilevel
/// partitioners), then Fiduccia–Mattheyses passes move boundary vertices
/// across the cut under a small balance slack ([`PartGraph::attempt`]).
/// Large parts are worth three growth seeds — the cut they produce is paid
/// again on every matrix row above them — and the first attempt with the
/// minimum cut wins. Ties are broken by part position everywhere.
/// Disconnected parts are handled by re-seeding the growth when a component
/// is exhausted; a degenerate split falls back to halving the list.
///
/// The batch runs on `pool`, which uses every core of the host: first one
/// task per part builds its in-part adjacency through the dense `locate`
/// index (all [`PartSlot::NONE`] on entry and on return; the parts are
/// disjoint) and picks its seeds, then one task per seed runs an attempt.
/// Each task reads only its part and writes only its own outputs, and the
/// winner is chosen in seed order afterwards, so every split is a pure
/// function of its part and the thread count changes nothing.
fn bisect(
    net: &RoadNetwork,
    parts: &[&[RoadVertexId]],
    locate: &mut [PartSlot],
    pool: RowPool,
) -> Vec<(Vec<RoadVertexId>, Vec<RoadVertexId>)> {
    let mut graphs = Vec::with_capacity(parts.len());
    let mut fill_work = 0;
    for (p, part) in parts.iter().enumerate() {
        let mut scanned = 0;
        for (i, &v) in part.iter().enumerate() {
            locate[v as usize] = PartSlot {
                part: p as u32,
                pos: i as u32,
            };
            scanned += net.degree(v);
        }
        let searches = if part.len() > MULTI_SEED_PART { 3 } else { 1 };
        fill_work += scanned * (1 + searches);
        graphs.push(PartGraph::with_capacity(part.len(), scanned));
    }
    let largest = parts.iter().map(|p| p.len()).max().unwrap_or(0);
    let located: &[PartSlot] = locate;
    pool.run(
        fill_work,
        graphs.iter_mut().zip(parts).enumerate(),
        || (Vec::with_capacity(largest), Vec::with_capacity(largest)),
        |(seen, queue), (p, (graph, part))| {
            graph.fill(net, part, p, located, seen, queue);
            0
        },
    );
    for &v in parts.iter().copied().flatten() {
        locate[v as usize] = PartSlot::NONE;
    }

    let mut attempts: Vec<Attempt> = graphs
        .iter()
        .enumerate()
        .flat_map(|(p, graph)| {
            graph.seeds.iter().map(move |&seed| Attempt {
                part: p,
                seed,
                in_a: vec![false; graph.len()],
                cut: 0,
            })
        })
        .collect();
    let attempt_work = attempts
        .iter()
        .map(|a| graphs[a.part].targets.len() * FM_PASSES)
        .sum();
    pool.run(
        attempt_work,
        attempts.iter_mut(),
        || BisectWorker::with_capacity(largest),
        |worker, a| {
            a.cut = graphs[a.part].attempt(a.seed, &mut a.in_a, worker);
            0
        },
    );

    let mut attempts = attempts.into_iter().peekable();
    parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let mut best: Option<Attempt> = None;
            while let Some(a) = attempts.next_if(|a| a.part == p) {
                if best.as_ref().is_none_or(|b| a.cut < b.cut) {
                    best = Some(a);
                }
            }
            let (mut left, mut right) = (Vec::new(), Vec::new());
            if let Some(best) = best {
                for (&v, &a) in part.iter().zip(&best.in_a) {
                    if a {
                        left.push(v);
                    } else {
                        right.push(v);
                    }
                }
            }
            if left.is_empty() || right.is_empty() {
                let mid = part.len() / 2;
                return (part[..mid].to_vec(), part[mid..].to_vec());
            }
            (left, right)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::sssp;
    use crate::network::RoadNetwork;

    fn grid(rows: u32, cols: u32) -> RoadNetwork {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, 1.0 + ((v % 3) as f64) * 0.25));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, 1.0 + ((v % 5) as f64) * 0.2));
                }
            }
        }
        RoadNetwork::from_edges((rows * cols) as usize, &edges)
    }

    #[test]
    fn single_leaf_tree_matches_dijkstra() {
        let net = grid(3, 3);
        let tree = GTree::build_with_capacity(&net, 16);
        assert_eq!(tree.num_nodes(), 1);
        let d0 = sssp(&net, 0);
        for v in 0..9u32 {
            assert!((tree.dist(0, v) - d0[v as usize]).abs() < 1e-9);
        }
    }

    #[test]
    fn multi_level_tree_matches_dijkstra() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        assert!(tree.num_nodes() > 3);
        assert!(tree.height() >= 3);
        for s in [0u32, 7, 17, 35] {
            let d = sssp(&net, s);
            for v in 0..36u32 {
                assert!(
                    (tree.dist(s, v) - d[v as usize]).abs() < 1e-9,
                    "mismatch for {s}->{v}: gtree {} dijkstra {}",
                    tree.dist(s, v),
                    d[v as usize]
                );
            }
        }
    }

    #[test]
    fn leaf_regions_partition_vertices() {
        let net = grid(5, 5);
        let tree = GTree::build_with_capacity(&net, 5);
        let mut seen = [false; 25];
        for region in tree.leaf_regions() {
            assert!(region.len() <= 5);
            for v in region {
                assert!(!seen[v as usize], "vertex {v} in two leaves");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn disconnected_components_are_infinite() {
        let net = RoadNetwork::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]);
        let tree = GTree::build_with_capacity(&net, 4);
        assert!(tree.dist(0, 5).is_infinite());
        assert!((tree.dist(0, 2) - 2.0).abs() < 1e-9);
        assert!((tree.dist(3, 5) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dist_identity_and_out_of_range() {
        let net = grid(3, 3);
        let tree = GTree::build_with_capacity(&net, 4);
        assert_eq!(tree.dist(4, 4), 0.0);
        assert!(tree.dist(0, 99).is_infinite());
        // An empty network builds a single empty leaf.
        let empty = GTree::build(&RoadNetwork::from_edges(0, &[]));
        assert_eq!((empty.num_nodes(), empty.height()), (1, 1));
        assert!(empty.dist(0, 0).is_infinite());
    }

    #[test]
    fn memory_accounting_positive() {
        let net = grid(4, 4);
        let tree = GTree::build_with_capacity(&net, 4);
        assert!(tree.memory_bytes() > 0);
    }

    /// `build_with_params(net, cap, 2)` IS the binary-bisection reference:
    /// the multiway loop with fanout 2 performs exactly one bisection per
    /// node. The multiway tree must answer every point query identically.
    #[test]
    fn multiway_build_matches_binary_reference() {
        let net = grid(9, 9);
        let binary = GTree::build_binary_reference(&net, 6);
        for fanout in [4usize, 8] {
            let multi = GTree::build_with_params(&net, 6, fanout);
            assert!(
                multi.height() < binary.height(),
                "fanout {fanout} tree should be shallower than binary ({} vs {})",
                multi.height(),
                binary.height()
            );
            for s in [0u32, 13, 40, 77] {
                for v in 0..81u32 {
                    let a = binary.dist(s, v);
                    let b = multi.dist(s, v);
                    assert!(
                        a == b || (a - b).abs() < 1e-9,
                        "fanout {fanout} diverged from binary at {s}->{v}: {b} vs {a}"
                    );
                }
            }
        }
    }

    /// A single cross-child reweight deep in a large tree must be served by
    /// the delta-aware path: most top-node rows are patched from the old
    /// matrix rather than re-Dijkstra'd, and the result still matches a
    /// from-scratch build exactly.
    #[test]
    fn delta_aware_update_patches_top_rows() {
        let rows = 12u32;
        let cols = 12u32;
        let net = grid(rows, cols);
        let mut tree = GTree::build_with_capacity(&net, 8);
        assert!(tree.height() >= 3, "need a deep tree for this test");
        // Reweight one edge; rebuild the network with the new weight.
        let mut edges: Vec<(u32, u32, f64)> = net.edges().collect();
        let (u, v, _) = edges[edges.len() / 2];
        let idx = edges.len() / 2;
        edges[idx].2 = 9.5;
        let updated = RoadNetwork::from_edges(net.num_vertices(), &edges);
        let stats = tree.apply_edge_updates(&updated, &[EdgeUpdate::new(u, v, 9.5)]);
        assert!(stats.dirty_leaves + stats.dirty_internal >= 1);
        if stats.dirty_internal > 0 {
            // The refreshed internal nodes must not have re-Dijkstra'd every
            // row: the patched path kicked in somewhere.
            let full_rows: usize = (0..tree.num_nodes())
                .filter(|&id| !tree.children_of(id).is_empty())
                .map(|id| tree.union_borders_of(id).len())
                .sum();
            assert!(
                stats.row_dijkstras < full_rows,
                "delta update re-Dijkstra'd all {full_rows} internal rows"
            );
        }
        let fresh = GTree::build_with_capacity(&updated, 8);
        assert_eq!(tree.num_nodes(), fresh.num_nodes());
        for id in 0..tree.num_nodes() {
            let ub = tree.union_borders_of(id).len();
            for i in 0..ub {
                for j in 0..ub {
                    let a = tree.matrix_entry(id, i, j);
                    let b = fresh.matrix_entry(id, i, j);
                    assert!(
                        a == b || (a - b).abs() < 1e-9,
                        "node {id} diverged from fresh build at ({i},{j}): {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Runs the batched walk from `seeds` (pruned at `t`) to completion,
    /// lowering the item-major rows of `best`.
    fn walk(
        tree: &GTree,
        seeds: &[(RoadVertexId, f64, u32)],
        cols: usize,
        targets: &LeafTargets,
        t: f64,
        best: &mut [f64],
    ) {
        let mut within = vec![false; best.len() / cols];
        let mut scratch = RangeScratch::default();
        let mut ticker = BudgetTicker::unlimited();
        assert!(tree.multi_source_within(
            seeds,
            cols,
            targets,
            t,
            best,
            &mut within,
            &mut scratch,
            &mut ticker
        ));
    }

    /// Runs the batched walk from one source over every vertex as a target.
    fn batched_from(tree: &GTree, n: usize, source: RoadVertexId, prune_at: f64) -> Vec<f64> {
        let targets = tree.group_targets((0..n as u32).map(|v| (v, v, 0.0)));
        assert_eq!(targets.num_seeds(), n);
        let mut best = vec![f64::INFINITY; n];
        walk(tree, &[(source, 0.0, 0)], 1, &targets, prune_at, &mut best);
        best
    }

    #[test]
    fn batched_walk_matches_point_queries_exactly() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        for s in [0u32, 7, 17, 35] {
            let best = batched_from(&tree, 36, s, f64::INFINITY);
            for v in 0..36u32 {
                let expect = tree.dist(s, v);
                assert!(
                    (best[v as usize] - expect).abs() < 1e-9,
                    "batched {s}->{v}: got {} expected {expect}",
                    best[v as usize]
                );
            }
        }
    }

    #[test]
    fn batched_walk_pruning_is_sound() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        let t = 3.0;
        for s in [0u32, 17, 35] {
            let pruned = batched_from(&tree, 36, s, t);
            for v in 0..36u32 {
                let exact = tree.dist(s, v);
                if exact <= t {
                    assert!(
                        (pruned[v as usize] - exact).abs() < 1e-9,
                        "pruned walk lost an in-range target {s}->{v}"
                    );
                } else {
                    assert!(
                        pruned[v as usize] > t,
                        "pruned walk reported {} <= t for out-of-range {s}->{v}",
                        pruned[v as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn batched_walk_respects_offsets_and_lowers_only() {
        let net = grid(4, 4);
        let tree = GTree::build_with_capacity(&net, 5);
        let targets = tree.group_targets([(0u32, 5u32, 0.25), (1, 10, 1.5)]);
        let mut best = vec![0.1, f64::INFINITY];
        walk(&tree, &[(0, 0.5, 0)], 1, &targets, f64::INFINITY, &mut best);
        // item 0 already had a better candidate than 0.5 + dist + 0.25
        assert_eq!(best[0], 0.1);
        assert!((best[1] - (0.5 + tree.dist(0, 10) + 1.5)).abs() < 1e-9);
    }

    #[test]
    fn batched_walk_on_disconnected_components() {
        let net = RoadNetwork::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]);
        let tree = GTree::build_with_capacity(&net, 4);
        let best = batched_from(&tree, 6, 0, f64::INFINITY);
        assert!((best[2] - 2.0).abs() < 1e-9);
        assert!(best[4].is_infinite() && best[5].is_infinite());
    }

    #[test]
    fn randomized_batched_agreement_with_point_queries() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..8 {
            let n = rng.random_range(20..90usize);
            let mut edges = Vec::new();
            for v in 0..n as u32 {
                edges.push((v, (v + 1) % n as u32, rng.random_range(1.0..5.0)));
            }
            for _ in 0..n {
                let u = rng.random_range(0..n as u32);
                let v = rng.random_range(0..n as u32);
                edges.push((u, v, rng.random_range(1.0..10.0)));
            }
            let net = RoadNetwork::from_edges(n, &edges);
            let tree = GTree::build_with_capacity(&net, rng.random_range(4..12));
            let s = rng.random_range(0..n as u32);
            let best = batched_from(&tree, n, s, f64::INFINITY);
            for v in 0..n as u32 {
                let expect = tree.dist(s, v);
                assert!(
                    (best[v as usize] - expect).abs() < 1e-9,
                    "round {round}: batched {s}->{v} got {} expected {expect}",
                    best[v as usize]
                );
            }
        }
    }

    #[test]
    fn multi_seed_walk_matches_per_seed_walks() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        let n = 36usize;
        let targets = tree.group_targets((0..n as u32).map(|v| (v, v, 0.0)));
        // Three seeds in distinct columns, with offsets.
        let seeds = [(0u32, 0.25, 0u32), (17, 0.0, 1), (35, 1.5, 2)];
        let cols = 3usize;
        let mut multi = vec![f64::INFINITY; n * cols];
        walk(&tree, &seeds, cols, &targets, f64::INFINITY, &mut multi);
        for (u, soff, col) in seeds {
            let mut single = vec![f64::INFINITY; n];
            walk(
                &tree,
                &[(u, soff, 0)],
                1,
                &targets,
                f64::INFINITY,
                &mut single,
            );
            let exact = sssp(&net, u);
            for item in 0..n {
                assert!(
                    (multi[item * cols + col as usize] - single[item]).abs() < 1e-9,
                    "seed {u} col {col} item {item}: multi {} single {}",
                    multi[item * cols + col as usize],
                    single[item]
                );
                assert!(
                    (single[item] - (soff + exact[item])).abs() < 1e-9,
                    "seed {u} item {item}: walk {} dijkstra {}",
                    single[item],
                    soff + exact[item]
                );
            }
        }
    }

    #[test]
    fn multi_seed_shared_column_takes_the_minimum() {
        // Two seeds feeding one column model the two endpoints of an on-edge
        // query location: the column must hold the min over both seeds.
        let net = grid(5, 5);
        let tree = GTree::build_with_capacity(&net, 5);
        let n = 25usize;
        let targets = tree.group_targets((0..n as u32).map(|v| (v, v, 0.0)));
        let seeds = [(3u32, 0.5, 0u32), (23, 0.25, 0)];
        let mut multi = vec![f64::INFINITY; n];
        walk(&tree, &seeds, 1, &targets, f64::INFINITY, &mut multi);
        for v in 0..n as u32 {
            let expect = (0.5 + tree.dist(3, v)).min(0.25 + tree.dist(23, v));
            assert!(
                (multi[v as usize] - expect).abs() < 1e-9,
                "item {v}: got {} expected {expect}",
                multi[v as usize]
            );
        }
    }

    #[test]
    fn multi_seed_pruning_is_sound_per_column() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        let n = 36usize;
        let t = 3.0;
        let targets = tree.group_targets((0..n as u32).map(|v| (v, v, 0.0)));
        let seeds = [(0u32, 0.0, 0u32), (35, 0.0, 1)];
        let mut multi = vec![f64::INFINITY; n * 2];
        walk(&tree, &seeds, 2, &targets, t, &mut multi);
        for v in 0..n as u32 {
            for (col, s) in [(0usize, 0u32), (1, 35)] {
                let exact = tree.dist(s, v);
                let got = multi[v as usize * 2 + col];
                if exact <= t {
                    assert!(
                        (got - exact).abs() < 1e-9,
                        "pruned multi-seed walk lost in-range {s}->{v}"
                    );
                } else {
                    assert!(got > t, "multi-seed walk reported {got} <= t for {s}->{v}");
                }
            }
        }
    }

    #[test]
    fn multi_source_within_intersects_columns_in_walk() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        let n = 36usize;
        let t = 4.0;
        let targets = tree.group_targets((0..n as u32).map(|v| (v, v, 0.0)));
        let seeds = [(0u32, 0.0, 0u32), (35, 0.0, 1)];
        let mut best = vec![f64::INFINITY; n * 2];
        let mut within = vec![false; n];
        let mut scratch = RangeScratch::default();
        assert!(tree.multi_source_within(
            &seeds,
            2,
            &targets,
            t,
            &mut best,
            &mut within,
            &mut scratch,
            &mut BudgetTicker::unlimited()
        ));
        for v in 0..n as u32 {
            let expect = tree.dist(0, v) <= t && tree.dist(35, v) <= t;
            assert_eq!(within[v as usize], expect, "within mismatch for target {v}");
        }
    }

    #[test]
    fn multi_source_within_keeps_preseeded_rows_for_pruned_targets() {
        // Target 5 is far from both seeds, but its row is pre-seeded within
        // range (modelling the along-edge shortcut): the walk must keep it.
        let net = RoadNetwork::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]);
        let tree = GTree::build_with_capacity(&net, 4);
        let targets = tree.group_targets([(0u32, 2u32, 0.0), (1, 5, 0.0)]);
        let seeds = [(0u32, 0.0, 0u32)];
        let mut best = vec![f64::INFINITY; 2];
        best[1] = 0.5; // pre-seeded shortcut for item 1
        let mut within = vec![false; 2];
        let mut scratch = RangeScratch::default();
        assert!(tree.multi_source_within(
            &seeds,
            1,
            &targets,
            2.0,
            &mut best,
            &mut within,
            &mut scratch,
            &mut BudgetTicker::unlimited()
        ));
        assert!(within[0], "item 0 is two hops from the seed");
        assert!(within[1], "pre-seeded row must survive pruning");
        assert_eq!(best[1], 0.5);
    }

    #[test]
    fn precomputed_rows_round_trip_through_linear_lookup() {
        let net = grid(6, 6);
        let tree = GTree::build_with_capacity(&net, 6);
        for id in 0..tree.num_nodes() {
            for (i, &b) in tree.borders_of(id).iter().enumerate() {
                assert_eq!(
                    tree.border_rows_of(id)[i],
                    tree.ub_position_of(id, b).unwrap()
                );
            }
            for (k, &c) in tree.children_of(id).iter().enumerate() {
                for (i, &b) in tree.borders_of(c).iter().enumerate() {
                    assert_eq!(
                        tree.child_border_rows_of(id, k)[i],
                        tree.ub_position_of(id, b).unwrap()
                    );
                }
            }
        }
        for v in 0..36u32 {
            let leaf = tree.leaf_id_of(v);
            assert_eq!(tree.union_borders_of(leaf)[tree.leaf_position_of(v)], v);
        }
    }

    #[test]
    fn incremental_reweight_matches_dijkstra_and_fresh_build() {
        use crate::network::EdgeUpdate;
        let mut edges = Vec::new();
        for r in 0..6u32 {
            for c in 0..6u32 {
                let v = r * 6 + c;
                if c + 1 < 6 {
                    edges.push((v, v + 1, 1.0 + ((v % 3) as f64) * 0.25));
                }
                if r + 1 < 6 {
                    edges.push((v, v + 6, 1.0 + ((v % 5) as f64) * 0.2));
                }
            }
        }
        let net0 = RoadNetwork::from_edges(36, &edges);
        let mut tree = GTree::build_with_capacity(&net0, 6);
        // Two rounds: an intra-leaf-ish local edge, then a batch spanning the
        // whole grid (distinct leaves -> LCA paths), then verify.
        let batches: Vec<Vec<EdgeUpdate>> = vec![
            vec![EdgeUpdate::new(0, 1, 9.0)],
            vec![
                EdgeUpdate::new(14, 15, 0.1),
                EdgeUpdate::new(20, 26, 5.0),
                EdgeUpdate::new(0, 1, 0.5),
            ],
        ];
        for (bi, batch) in batches.iter().enumerate() {
            for upd in batch {
                let pos = edges
                    .iter()
                    .position(|&(a, b, _)| (a, b) == (upd.u, upd.v) || (a, b) == (upd.v, upd.u))
                    .unwrap();
                edges[pos].2 = upd.weight;
            }
            let net = RoadNetwork::from_edges(36, &edges);
            let stats = tree.apply_edge_updates(&net, batch);
            assert!(stats.dirty_leaves + stats.dirty_internal > 0);
            assert!(stats.dirty_leaves + stats.dirty_internal <= stats.total_nodes);
            let fresh = GTree::build_with_capacity(&net, 6);
            assert_eq!(tree.num_nodes(), fresh.num_nodes());
            for s in 0..36u32 {
                let d = sssp(&net, s);
                for v in 0..36u32 {
                    assert!(
                        (tree.dist(s, v) - d[v as usize]).abs() < 1e-9,
                        "updated tree wrong for {s}->{v}: {} vs {}",
                        tree.dist(s, v),
                        d[v as usize]
                    );
                }
            }
            for id in 0..tree.num_nodes() {
                for i in 0..tree.union_borders_of(id).len() {
                    for j in 0..tree.union_borders_of(id).len() {
                        let a = tree.matrix_entry(id, i, j);
                        let b = fresh.matrix_entry(id, i, j);
                        assert!(
                            a == b || (a - b).abs() < 1e-9,
                            "batch {bi} node {id} matrix diverged from fresh build at ({i},{j}): {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_update_leaves_untouched_nodes_alone() {
        use crate::network::EdgeUpdate;
        // Two disconnected chains land in separate subtrees: reweighting an
        // edge of one must not recompute the other's leaves.
        let net0 = RoadNetwork::from_edges(
            8,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 7, 1.0),
            ],
        );
        let mut tree = GTree::build_with_capacity(&net0, 4);
        let mut net = net0.clone();
        net.set_edge_weight(0, 1, 3.0).unwrap();
        let stats = tree.apply_edge_updates(&net, &[EdgeUpdate::new(0, 1, 3.0)]);
        // Endpoints share a leaf: exactly one dirty leaf plus its ancestors.
        assert_eq!(stats.dirty_leaves, 1);
        assert!((tree.dist(0, 3) - 5.0).abs() < 1e-9);
        assert!((tree.dist(4, 7) - 3.0).abs() < 1e-9);
        assert!(tree.dist(0, 7).is_infinite());
    }

    #[test]
    fn target_seed_add_remove_round_trip() {
        let net = grid(5, 5);
        let tree = GTree::build_with_capacity(&net, 5);
        let mut targets = tree.group_targets((0..25u32).map(|v| (v, v, 0.0)));
        let reference = tree.group_targets((0..25u32).map(|v| (v, v, 0.0)));
        // Move item 7 from vertex 7 to vertex 22 (remove + add), then back.
        let removed = tree.remove_target_item(&mut targets, 7, &[7]);
        assert_eq!(removed, 1);
        tree.add_target_seeds(&mut targets, [(7u32, 22u32, 0.25)]);
        let moved =
            tree.group_targets(
                (0..25u32).map(|v| if v == 7 { (v, 22, 0.25) } else { (v, v, 0.0) }),
            );
        assert_eq!(targets.num_seeds(), moved.num_seeds());
        assert_eq!(targets.occupied, moved.occupied);
        tree.remove_target_item(&mut targets, 7, &[22]);
        tree.add_target_seeds(&mut targets, [(7u32, 7u32, 0.0)]);
        assert_eq!(targets.num_seeds(), reference.num_seeds());
        assert_eq!(targets.occupied, reference.occupied);
        for leaf in 0..tree.num_nodes() {
            let mut a = targets.per_leaf[leaf].to_vec();
            let mut b = reference.per_leaf[leaf].to_vec();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(a, b, "leaf {leaf} seeds diverged after round trip");
        }
        // Removing a two-seed on-edge item whose seeds share a leaf must not
        // double-decrement occupancy.
        let mut t2 = tree.group_targets([(0u32, 1u32, 0.5), (0, 2, 0.5), (1, 24, 0.0)]);
        let removed = tree.remove_target_item(&mut t2, 0, &[1, 2]);
        assert_eq!(removed, 2);
        assert_eq!(t2.num_seeds(), 1);
        let only = tree.group_targets([(1u32, 24u32, 0.0)]);
        assert_eq!(t2.occupied, only.occupied);
    }

    #[test]
    fn updated_tree_serves_batched_walks() {
        use crate::network::EdgeUpdate;
        let net0 = grid(6, 6);
        let mut tree = GTree::build_with_capacity(&net0, 6);
        let mut net = net0.clone();
        net.set_edge_weight(17, 23, 0.05).unwrap();
        net.set_edge_weight(0, 6, 4.0).unwrap();
        tree.apply_edge_updates(
            &net,
            &[EdgeUpdate::new(17, 23, 0.05), EdgeUpdate::new(0, 6, 4.0)],
        );
        let targets = tree.group_targets((0..36u32).map(|v| (v, v, 0.0)));
        let mut best = vec![f64::INFINITY; 36];
        walk(&tree, &[(17, 0.0, 0)], 1, &targets, 3.0, &mut best);
        let d = sssp(&net, 17);
        for v in 0..36u32 {
            let exact = d[v as usize];
            if exact <= 3.0 {
                assert!(
                    (best[v as usize] - exact).abs() < 1e-9,
                    "walk on updated tree lost in-range 17->{v}"
                );
            } else {
                assert!(best[v as usize] > 3.0);
            }
        }
    }

    #[test]
    fn randomized_agreement_with_dijkstra() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 60usize;
        let mut edges = Vec::new();
        // random connected-ish sparse graph: a ring plus chords
        for v in 0..n as u32 {
            edges.push((v, (v + 1) % n as u32, rng.random_range(1.0..5.0)));
        }
        for _ in 0..40 {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            edges.push((u, v, rng.random_range(1.0..10.0)));
        }
        let net = RoadNetwork::from_edges(n, &edges);
        let tree = GTree::build_with_capacity(&net, 8);
        for _ in 0..30 {
            let s = rng.random_range(0..n as u32);
            let t = rng.random_range(0..n as u32);
            let d = sssp(&net, s);
            assert!(
                (tree.dist(s, t) - d[t as usize]).abs() < 1e-9,
                "mismatch {s}->{t}: gtree {} dijkstra {}",
                tree.dist(s, t),
                d[t as usize]
            );
        }
    }

    /// Every node's matrix, bit for bit.
    fn matrix_bits(tree: &GTree) -> Vec<Vec<u64>> {
        tree.nodes
            .iter()
            .map(|node| node.matrix.iter().map(|d| d.to_bits()).collect())
            .collect()
    }

    /// Refreshing a clone copies only the nodes it recomputes: the original
    /// keeps its matrices bit for bit (it still answers for the old weights),
    /// and every node outside the dirty set stays the same allocation in both.
    #[test]
    fn refresh_of_a_clone_copies_only_dirty_nodes() {
        let net = grid(12, 12);
        let original = GTree::build_with_capacity(&net, 8);
        let before = matrix_bits(&original);
        let mut refreshed = original.clone();
        let mut updated = net.clone();
        // A cross-leaf edge made much longer: the refresh climbs into
        // internal nodes and fills their clique caches.
        let (u, v) = (5 * 12 + 6, 6 * 12 + 6);
        updated.set_edge_weight(u, v, 9.5).unwrap();
        let stats = refreshed.apply_edge_updates(&updated, &[EdgeUpdate::new(u, v, 9.5)]);
        assert!(
            stats.dirty_internal > 0,
            "the reweight must reach an internal node"
        );

        assert_eq!(
            matrix_bits(&original),
            before,
            "the shared original changed"
        );
        let unshared: Vec<usize> = (0..original.num_nodes())
            .filter(|&id| !Arc::ptr_eq(&original.nodes[id], &refreshed.nodes[id]))
            .collect();
        assert!(!unshared.is_empty());
        assert!(
            unshared.len() <= stats.dirty_leaves + stats.dirty_internal,
            "{} nodes copied for {} dirty ones",
            unshared.len(),
            stats.dirty_leaves + stats.dirty_internal
        );
        assert!(
            refreshed.memory_bytes() > original.memory_bytes(),
            "clique caches are counted"
        );
        for s in [0u32, 66, 143] {
            let (old, new) = (sssp(&net, s), sssp(&updated, s));
            for t in 0..144u32 {
                assert!((original.dist(s, t) - old[t as usize]).abs() < 1e-9);
                assert!((refreshed.dist(s, t) - new[t as usize]).abs() < 1e-9);
            }
        }
    }

    /// Random road networks with zero-weight edges, tied weights and
    /// disconnected parts.
    fn adversarial_network(rng: &mut rand::rngs::StdRng) -> RoadNetwork {
        use rand::prelude::*;
        let n = rng.random_range(30..120usize);
        let parts = rng.random_range(1..4u32);
        let mut edges = Vec::new();
        for v in 0..n as u32 {
            // Integer weights in 0..=3: many ties, some zero-length roads.
            let weight = |rng: &mut StdRng| f64::from(rng.random_range(0..4u32));
            let next = v + parts;
            if (next as usize) < n {
                edges.push((v, next, weight(rng)));
            }
            if rng.random_bool(0.6) {
                let u = rng.random_range(0..n as u32);
                if u % parts == v % parts {
                    edges.push((v, u, weight(rng)));
                }
            }
        }
        RoadNetwork::from_edges(n, &edges)
    }

    /// `contract_child_clique` keeps exactly the shortcuts the documented
    /// witness rule keeps, in the same order: `(i, j)` survives unless some
    /// other border `x` of the child has `d(i,x) < d(i,j)`, `d(x,j) <
    /// d(i,j)` and `d(i,x) + d(x,j) <= d(i,j)`. The reference is the naive
    /// O(nb³) scan over positions found by linear search.
    #[test]
    fn contraction_matches_naive_witness_rule() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xC0417AC7);
        let mut checked = 0usize;
        for _ in 0..24 {
            let net = adversarial_network(&mut rng);
            let tree = GTree::build_with_params(
                &net,
                rng.random_range(4..10),
                [2, 4][rng.random_range(0..2)],
            );
            for id in 0..tree.num_nodes() {
                for (k, &c) in tree.children_of(id).iter().enumerate() {
                    let mut fast = Vec::new();
                    tree.contract_child_clique(id, k, &mut fast);
                    let borders = tree.borders_of(c);
                    let nb = borders.len();
                    let d = |i: usize, j: usize| {
                        let ri = tree.ub_position_of(c, borders[i]).unwrap();
                        let rj = tree.ub_position_of(c, borders[j]).unwrap();
                        tree.matrix_entry(c, ri, rj)
                    };
                    let mut naive = Vec::new();
                    for i in 0..nb {
                        for j in (i + 1)..nb {
                            let dij = d(i, j);
                            let covered = (0..nb).filter(|&x| x != i && x != j).any(|x| {
                                let (dix, dxj) = (d(i, x), d(x, j));
                                dix < dij && dxj < dij && dix + dxj <= dij
                            });
                            if dij.is_finite() && !covered {
                                let a = tree.ub_position_of(id, borders[i]).unwrap() as u32;
                                let b = tree.ub_position_of(id, borders[j]).unwrap() as u32;
                                naive.push((a, b, dij));
                                naive.push((b, a, dij));
                            }
                        }
                    }
                    let bits = |e: &[(u32, u32, f64)]| -> Vec<(u32, u32, u64)> {
                        e.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect()
                    };
                    assert_eq!(bits(&fast), bits(&naive), "node {id} child {k}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 50, "only {checked} child cliques checked");
    }

    /// A serial pool and a four-thread pool that parallelises any amount of
    /// work, so even these small trees take the threaded path.
    const POOLS: [RowPool; 2] = [
        RowPool {
            threads: 1,
            min_work: 0,
        },
        RowPool {
            threads: 4,
            min_work: 0,
        },
    ];

    /// An integer weight in `0..=4` (zero-length roads and many ties) when
    /// `integer`, else a real weight in `[0.5, 3)`.
    fn random_weight(rng: &mut rand::rngs::StdRng, integer: bool) -> f64 {
        use rand::prelude::*;
        if integer {
            f64::from(rng.random_range(0..5u32))
        } else {
            rng.random_range(0.5..3.0)
        }
    }

    /// A grid of 5–11 rows and columns with random weights.
    fn random_grid(rng: &mut rand::rngs::StdRng, integer: bool) -> RoadNetwork {
        use rand::prelude::*;
        let (rows, cols) = (rng.random_range(5..12u32), rng.random_range(5..12u32));
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, random_weight(rng, integer)));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, random_weight(rng, integer)));
                }
            }
        }
        RoadNetwork::from_edges((rows * cols) as usize, &edges)
    }

    /// Reweights `count` random edges of `net` in place and returns the
    /// batch.
    fn random_reweights(
        rng: &mut rand::rngs::StdRng,
        net: &mut RoadNetwork,
        count: usize,
        integer: bool,
    ) -> Vec<EdgeUpdate> {
        use rand::prelude::*;
        let edges: Vec<(u32, u32, f64)> = net.edges().collect();
        let updates: Vec<EdgeUpdate> = (0..count)
            .map(|_| {
                let (u, v, _) = edges[rng.random_range(0..edges.len())];
                EdgeUpdate::new(u, v, random_weight(rng, integer))
            })
            .collect();
        net.apply_edge_updates(&updates).expect("valid reweights");
        updates
    }

    /// A frozen copy of the serial partition the parallel one replaced: a
    /// recursion that pushes a node, splits it by bisection rounds, then
    /// recurses into each part in turn, with a `HashMap`-indexed bisection
    /// running its growth seeds one after another. The pin
    /// `serial_and_parallel_pools_agree_bit_for_bit` holds every build to
    /// its node regions, child order and leaf assignment. Do not edit.
    mod reference {
        use crate::gtree::SPINE_FACTOR;
        use crate::network::{RoadNetwork, RoadVertexId};
        use std::collections::HashMap;

        /// Every node's region and children in id order, and each vertex's
        /// leaf.
        pub type Shape = (Vec<(Vec<RoadVertexId>, Vec<usize>)>, Vec<usize>);

        /// The shape of the tree the serial recursion builds.
        pub fn partition_shape(net: &RoadNetwork, leaf_capacity: usize, fanout: usize) -> Shape {
            let n = net.num_vertices();
            let mut shape = (Vec::new(), vec![usize::MAX; n]);
            partition(
                net,
                (0..n as u32).collect(),
                &mut shape,
                leaf_capacity.max(4),
                fanout.clamp(2, 64),
            );
            shape
        }

        fn partition(
            net: &RoadNetwork,
            vertices: Vec<RoadVertexId>,
            shape: &mut Shape,
            leaf_capacity: usize,
            fanout: usize,
        ) -> usize {
            let id = shape.0.len();
            shape.0.push((vertices.clone(), Vec::new()));
            if vertices.len() <= leaf_capacity {
                for &v in &vertices {
                    shape.1[v as usize] = id;
                }
                return id;
            }
            let region_len = vertices.len();
            let eff_fanout =
                if fanout > 2 && region_len > leaf_capacity.saturating_mul(SPINE_FACTOR) {
                    2
                } else {
                    fanout
                };
            let mut parts = vec![vertices];
            while parts.len() * 2 <= eff_fanout {
                let mut next = Vec::with_capacity(parts.len() * 2);
                let mut split_any = false;
                for part in parts {
                    if part.len() <= leaf_capacity {
                        next.push(part);
                    } else {
                        let (left, right) = bisect(net, &part);
                        next.push(left);
                        next.push(right);
                        split_any = true;
                    }
                }
                parts = next;
                if !split_any {
                    break;
                }
            }
            let children: Vec<usize> = parts
                .into_iter()
                .map(|part| partition(net, part, shape, leaf_capacity, fanout))
                .collect();
            shape.0[id].1 = children;
            id
        }

        /// Splits a vertex set into two balanced halves while minimizing the number
        /// of cut edges — and therefore the border count at every level of the tree.
        ///
        /// Distance-based splitting (two-sided BFS growth, bisector orderings) falls
        /// apart on road networks with long-range shortcut edges: hop distances turn
        /// small-world and the "geometric" halves scatter into dozens of fragments,
        /// leaving almost every vertex a border. Cut minimization sidesteps the
        /// metric entirely. One half is grown greedily from a far-apart seed, always
        /// absorbing the frontier vertex whose move reduces the running cut the most
        /// (greedy graph growing, the seed heuristic used by multilevel
        /// partitioners), then two Fiduccia–Mattheyses-style sweeps move
        /// positive-gain boundary vertices across the cut under a small balance
        /// slack. Ties are broken by vertex id everywhere, so the split is
        /// deterministic. Disconnected parts are handled by re-seeding the growth
        /// when a component is exhausted; a degenerate split falls back to halving
        /// the list.
        pub fn bisect(
            net: &RoadNetwork,
            vertices: &[RoadVertexId],
        ) -> (Vec<RoadVertexId>, Vec<RoadVertexId>) {
            use std::cmp::Reverse;
            use std::collections::{BinaryHeap, VecDeque};
            let n = vertices.len();
            if n < 2 {
                let mid = n / 2;
                return (vertices[..mid].to_vec(), vertices[mid..].to_vec());
            }
            let mut idx: HashMap<RoadVertexId, u32> = HashMap::with_capacity(n);
            for (i, &v) in vertices.iter().enumerate() {
                idx.insert(v, i as u32);
            }
            // Per-vertex degree restricted to the part (edges leaving the part are
            // borders regardless of the split, so they never enter a gain).
            let deg_part: Vec<i32> = vertices
                .iter()
                .map(|&v| {
                    net.neighbors(v)
                        .iter()
                        .filter(|&&(u, _)| idx.contains_key(&u))
                        .count() as i32
                })
                .collect();

            // BFS-farthest vertex from `from` (a periphery vertex, so the grown half
            // does not enclose the seed's component center).
            let far_from = |from: usize| -> usize {
                let mut seen = vec![false; n];
                let mut queue = VecDeque::new();
                seen[from] = true;
                queue.push_back(vertices[from]);
                let mut last = from as u32;
                while let Some(v) = queue.pop_front() {
                    last = idx[&v];
                    for &(u, _) in net.neighbors(v) {
                        if let Some(&ui) = idx.get(&u) {
                            if !seen[ui as usize] {
                                seen[ui as usize] = true;
                                queue.push_back(u);
                            }
                        }
                    }
                }
                last as usize
            };

            let half = n / 2;
            let slack = (n / 16).max(1);
            let min_side = half.saturating_sub(slack).max(1);
            let max_side = (half + slack).min(n - 1);
            let gain_of = |deg_in: i32, deg: i32| 2 * deg_in - deg;

            // One full growth + refinement attempt from a given seed; returns the
            // half-set assignment, its size, and the resulting cut edge count.
            let attempt = |seed: usize| -> (Vec<bool>, usize, i64) {
                // Greedy growth: absorb the frontier vertex with the maximal gain
                // `(neighbors already in A) - (neighbors still outside)` =
                // 2·deg_in - deg. The heap is lazy (stale entries are re-checked
                // against the current gain); ties prefer the smaller vertex id for
                // determinism.
                let mut in_a = vec![false; n];
                let mut deg_in_a = vec![0i32; n];
                let mut heap: BinaryHeap<(i32, Reverse<u32>)> = BinaryHeap::new();
                heap.push((gain_of(0, deg_part[seed]), Reverse(seed as u32)));
                let mut a_count = 0usize;
                let mut next_reseed = 0usize;
                while a_count < half {
                    let vi = match heap.pop() {
                        Some((g, Reverse(vi))) => {
                            let vi = vi as usize;
                            if in_a[vi] || g != gain_of(deg_in_a[vi], deg_part[vi]) {
                                continue; // stale or already absorbed
                            }
                            vi
                        }
                        None => {
                            // Component exhausted: re-seed from the first unassigned
                            // vertex (deterministic; `next_reseed` only moves
                            // forward).
                            while next_reseed < n && in_a[next_reseed] {
                                next_reseed += 1;
                            }
                            if next_reseed >= n {
                                break;
                            }
                            next_reseed
                        }
                    };
                    in_a[vi] = true;
                    a_count += 1;
                    for &(u, _) in net.neighbors(vertices[vi]) {
                        if let Some(&ui) = idx.get(&u) {
                            let ui = ui as usize;
                            deg_in_a[ui] += 1;
                            if !in_a[ui] {
                                heap.push((
                                    gain_of(deg_in_a[ui], deg_part[ui]),
                                    Reverse(ui as u32),
                                ));
                            }
                        }
                    }
                }

                // Fiduccia–Mattheyses refinement with rollback: each pass moves the
                // best-gain unlocked vertex (negative gains included, so the pass can
                // climb out of local minima), locks it, and finally rolls back to the
                // best prefix of the move sequence. Passes repeat until one fails to
                // improve the cut.
                for _pass in 0..8 {
                    let mut locked = vec![false; n];
                    // Move gain for the vertex's CURRENT side; (gain, id)-keyed lazy
                    // heaps, one per side so balance limits can force a side.
                    let move_gain = |vi: usize, in_a: &[bool], deg_in_a: &[i32]| {
                        if in_a[vi] {
                            deg_part[vi] - 2 * deg_in_a[vi]
                        } else {
                            2 * deg_in_a[vi] - deg_part[vi]
                        }
                    };
                    let mut heap_a: BinaryHeap<(i32, Reverse<u32>)> = BinaryHeap::new();
                    let mut heap_b: BinaryHeap<(i32, Reverse<u32>)> = BinaryHeap::new();
                    for vi in 0..n {
                        let entry = (move_gain(vi, &in_a, &deg_in_a), Reverse(vi as u32));
                        if in_a[vi] {
                            heap_a.push(entry);
                        } else {
                            heap_b.push(entry);
                        }
                    }
                    let mut moves: Vec<usize> = Vec::new();
                    let mut gain_sum = 0i64;
                    let mut best_sum = 0i64;
                    let mut best_prefix = 0usize;
                    loop {
                        // Drop stale tops, then pick the better feasible side (ties
                        // prefer the side whose move restores balance, then A).
                        let clean = |heap: &mut BinaryHeap<(i32, Reverse<u32>)>,
                                     want_a: bool,
                                     in_a: &[bool],
                                     deg_in_a: &[i32],
                                     locked: &[bool]| {
                            while let Some(&(g, Reverse(v))) = heap.peek() {
                                let vi = v as usize;
                                if !locked[vi]
                                    && in_a[vi] == want_a
                                    && g == if want_a {
                                        deg_part[vi] - 2 * deg_in_a[vi]
                                    } else {
                                        2 * deg_in_a[vi] - deg_part[vi]
                                    }
                                {
                                    return Some((g, vi));
                                }
                                heap.pop();
                            }
                            None
                        };
                        let from_a = if a_count > min_side {
                            clean(&mut heap_a, true, &in_a, &deg_in_a, &locked)
                        } else {
                            None
                        };
                        let from_b = if a_count < max_side {
                            clean(&mut heap_b, false, &in_a, &deg_in_a, &locked)
                        } else {
                            None
                        };
                        let (gain, vi) = match (from_a, from_b) {
                            (Some((ga, va)), Some((gb, vb))) => {
                                if ga > gb || (ga == gb && a_count > half) {
                                    heap_a.pop();
                                    (ga, va)
                                } else {
                                    heap_b.pop();
                                    (gb, vb)
                                }
                            }
                            (Some((ga, va)), None) => {
                                heap_a.pop();
                                (ga, va)
                            }
                            (None, Some((gb, vb))) => {
                                heap_b.pop();
                                (gb, vb)
                            }
                            (None, None) => break,
                        };
                        let delta = if in_a[vi] { -1i32 } else { 1 };
                        in_a[vi] = !in_a[vi];
                        a_count = (a_count as i64 + delta as i64) as usize;
                        locked[vi] = true;
                        for &(u, _) in net.neighbors(vertices[vi]) {
                            if let Some(&ui) = idx.get(&u) {
                                let ui = ui as usize;
                                deg_in_a[ui] += delta;
                                if !locked[ui] {
                                    let entry =
                                        (move_gain(ui, &in_a, &deg_in_a), Reverse(ui as u32));
                                    if in_a[ui] {
                                        heap_a.push(entry);
                                    } else {
                                        heap_b.push(entry);
                                    }
                                }
                            }
                        }
                        moves.push(vi);
                        gain_sum += gain as i64;
                        if gain_sum > best_sum {
                            best_sum = gain_sum;
                            best_prefix = moves.len();
                        }
                    }
                    // Roll back everything after the best prefix.
                    for &vi in moves[best_prefix..].iter().rev() {
                        let delta = if in_a[vi] { -1i32 } else { 1 };
                        in_a[vi] = !in_a[vi];
                        a_count = (a_count as i64 + delta as i64) as usize;
                        for &(u, _) in net.neighbors(vertices[vi]) {
                            if let Some(&ui) = idx.get(&u) {
                                deg_in_a[ui as usize] += delta;
                            }
                        }
                    }
                    if best_sum == 0 {
                        break;
                    }
                }

                let cut: i64 = (0..n)
                    .filter(|&vi| in_a[vi])
                    .map(|vi| (deg_part[vi] - deg_in_a[vi]) as i64)
                    .sum();
                (in_a, a_count, cut)
            };

            // Large parts are worth several growth seeds — the cut they produce is
            // paid again on every matrix row above them. Small parts take one.
            let seeds: Vec<usize> = if n > 2048 {
                let mut s = vec![far_from(0), far_from(n / 3), far_from(2 * n / 3)];
                s.dedup();
                s
            } else {
                vec![far_from(0)]
            };
            let (in_a, a_count, _) = seeds
                .into_iter()
                .map(attempt)
                .min_by_key(|&(_, _, cut)| cut)
                .unwrap();

            let mut left = Vec::with_capacity(a_count);
            let mut right = Vec::with_capacity(n - a_count);
            for (i, &v) in vertices.iter().enumerate() {
                if in_a[i] {
                    left.push(v);
                } else {
                    right.push(v);
                }
            }
            if left.is_empty() || right.is_empty() {
                let mid = n / 2;
                return (vertices[..mid].to_vec(), vertices[mid..].to_vec());
            }
            (left, right)
        }
    }

    /// The shape of `tree`, in the form of [`reference::Shape`].
    fn partition_shape(tree: &GTree) -> reference::Shape {
        let nodes = (0..tree.num_nodes())
            .map(|id| (tree.vertices_of(id).to_vec(), tree.children_of(id).to_vec()))
            .collect();
        let leaf_of = (0..tree.num_vertices as u32)
            .map(|v| tree.leaf_id_of(v))
            .collect();
        (nodes, leaf_of)
    }

    /// A 32 × 64 grid of 2,048 vertices with random real weights, plus
    /// `extra` pendant vertices hung off its last corner: the root part
    /// sits just below (`extra == 0`) or just above the size at which
    /// bisection tries three growth seeds.
    fn cutoff_grid(rng: &mut rand::rngs::StdRng, extra: u32) -> RoadNetwork {
        let (rows, cols) = (32u32, 64u32);
        assert_eq!((rows * cols) as usize, MULTI_SEED_PART);
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, random_weight(rng, false)));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, random_weight(rng, false)));
                }
            }
        }
        let n = rows * cols + extra;
        for v in rows * cols..n {
            edges.push((v - 1, v, random_weight(rng, false)));
        }
        RoadNetwork::from_edges(n as usize, &edges)
    }

    /// Builds and refreshes on one thread and on four give the same trees:
    /// every matrix bit for bit, the same update statistics, and the same
    /// nodes copied out of the pre-update clone (no more than were
    /// recomputed; every other node stays the same allocation). Both builds
    /// partition exactly as the frozen serial recursion of [`reference`]
    /// does: the same node regions, child order and leaf of every vertex.
    /// Rounds go from one reweight up to a third of the edges, which makes
    /// the top nodes take the dense-change path. The last two cases, built
    /// only, put the root part either side of the three-seed cutoff.
    #[test]
    fn serial_and_parallel_pools_agree_bit_for_bit() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x9A11E1);
        for case in 0..8 {
            let integer = case >= 3;
            let mut net = match case {
                0..=2 => random_grid(&mut rng, false),
                3..=5 => adversarial_network(&mut rng),
                _ => cutoff_grid(&mut rng, case - 6),
            };
            let (cap, fanout) = (rng.random_range(4..10), [2, 4][rng.random_range(0..2)]);
            let mut trees = POOLS.map(|pool| GTree::build_on(&net, cap, fanout, pool));
            assert_eq!(
                matrix_bits(&trees[0]),
                matrix_bits(&trees[1]),
                "case {case}: build"
            );
            let shape = reference::partition_shape(&net, cap, fanout);
            for (tree, pool) in trees.iter().zip(POOLS) {
                assert!(
                    partition_shape(tree) == shape,
                    "case {case}: the {}-thread partition differs from the serial reference",
                    pool.threads
                );
            }
            let rounds = if case < 6 { 4 } else { 0 };
            for round in 0..rounds {
                let count = [1, 3, 8, net.num_edges() / 3][round].max(1);
                let updates = random_reweights(&mut rng, &mut net, count, integer);
                let before = trees.clone();
                let mut stats = Vec::new();
                let mut copied = Vec::new();
                for ((tree, pre), pool) in trees.iter_mut().zip(&before).zip(POOLS) {
                    stats.push(tree.refresh_on(&net, &updates, pool));
                    copied.push(
                        (0..tree.num_nodes())
                            .filter(|&id| !Arc::ptr_eq(&pre.nodes[id], &tree.nodes[id]))
                            .collect::<Vec<_>>(),
                    );
                }
                let at = format!("case {case} round {round}");
                assert_eq!(stats[0], stats[1], "{at}: stats");
                assert_eq!(matrix_bits(&trees[0]), matrix_bits(&trees[1]), "{at}");
                assert_eq!(copied[0], copied[1], "{at}: copied nodes");
                assert!(copied[0].len() <= stats[0].dirty_leaves + stats[0].dirty_internal);
            }
        }
    }

    /// The build report has one level per tree depth, root first; its
    /// levels count every node and every matrix row, only leaves sit at
    /// the deepest depth, its phase times are non-negative and fit in the
    /// build's elapsed time, and clones share it.
    #[test]
    fn build_report_accounts_for_every_level() {
        let net = grid(13, 11);
        for pool in POOLS {
            let started = std::time::Instant::now();
            let tree = GTree::build_on(&net, 4, 4, pool);
            let elapsed = started.elapsed().as_secs_f64();
            let report = tree.build_report();
            assert_eq!(report.levels.len(), tree.height());
            assert_eq!(report.levels[0].nodes, 1);
            let nodes: usize = report.levels.iter().map(|l| l.nodes).sum();
            assert_eq!(nodes, tree.num_nodes());
            let rows: usize = report.levels.iter().map(|l| l.rows).sum();
            let union_borders: usize = (0..tree.num_nodes())
                .map(|id| tree.union_borders_of(id).len())
                .sum();
            assert_eq!(rows, union_borders);
            assert!(report.levels[0].reduced_edges > 0);
            assert_eq!(report.levels.last().unwrap().reduced_edges, 0);
            let mut phases = vec![report.partition_seconds, report.border_seconds];
            for level in &report.levels {
                phases.extend([level.contract_seconds, level.fill_seconds]);
            }
            assert!(phases.iter().all(|&t| t >= 0.0), "{report:?}");
            assert!(
                phases.iter().sum::<f64>() <= elapsed,
                "{report:?} in {elapsed} s"
            );
            assert!(Arc::ptr_eq(&tree.clone().report, &tree.report));
        }
    }

    /// The refresh's tie contract: its 1e-12 margins only ever keep an
    /// entry within that margin of a recomputation. With integer weights
    /// every path sum is exact, nothing falls inside a margin, and after
    /// every round the refreshed matrices equal a fresh build bit for bit,
    /// serial and parallel.
    #[test]
    fn refresh_matches_fresh_build_bit_for_bit_on_integer_weights() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x71E5);
        let (mut internal, mut patched) = (0usize, 0usize);
        for case in 0..6 {
            let mut net = if case % 2 == 0 {
                random_grid(&mut rng, true)
            } else {
                adversarial_network(&mut rng)
            };
            let cap = rng.random_range(4..10);
            let mut trees = POOLS.map(|_| GTree::build_with_capacity(&net, cap));
            for round in 0..5 {
                let count = rng.random_range(1..6);
                let updates = random_reweights(&mut rng, &mut net, count, true);
                let fresh = matrix_bits(&GTree::build_with_capacity(&net, cap));
                for (tree, pool) in trees.iter_mut().zip(POOLS) {
                    let stats = tree.refresh_on(&net, &updates, pool);
                    internal += stats.dirty_internal;
                    patched += stats.patched_rows;
                    assert_eq!(
                        matrix_bits(tree),
                        fresh,
                        "case {case} round {round}, {} threads",
                        pool.threads
                    );
                }
            }
        }
        assert!(
            internal > 0 && patched > 0,
            "{internal} internal refreshes, {patched} patched rows"
        );
    }
}
