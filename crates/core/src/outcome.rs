//! Compact storage of a finished answer for the session answer cache.
//!
//! A [`MacSearchResult`] holds one `Cell` per partition, and every cell owns
//! its half-space constraints as separate small vectors. Across the cells of
//! one answer the same few hundred hyperplanes recur tens of thousands of
//! times, so a cache of plain results would cost megabytes. A
//! [`CompactOutcome`] keeps one answer flat instead: the distinct
//! hyperplanes and the distinct communities once, each cell's constraints
//! and communities as indices into them, and the polygons and sample
//! weights as flat runs. A hit
//! rebuilds the result bit for bit into the buffers that
//! [`QuerySession::recycle`](crate::session::QuerySession::recycle) returned,
//! so a warmed hit allocates nothing.

use crate::global::GsScratch;
use crate::result::{CellResult, Community, MacSearchResult, SearchStats};
use rsn_geom::cell::Cell;
use std::collections::HashMap;

/// End offsets of one cell's runs in the flat arrays of a
/// [`CompactOutcome`].
#[derive(Debug, Clone, Copy)]
struct CellSpan {
    constraints: u32,
    poly: u32,
    weights: u32,
    communities: u32,
}

/// One complete answer, stored flat.
#[derive(Debug, Default)]
pub(crate) struct CompactOutcome {
    stats: SearchStats,
    /// Reduced dimension of the cells.
    dim: usize,
    /// The box of the region every cell lies in.
    lows: Vec<f64>,
    highs: Vec<f64>,
    /// Distinct hyperplanes, `dim` coefficients then the offset each.
    planes: Vec<f64>,
    /// Each constraint as an index into `planes`.
    constraints: Vec<u16>,
    /// Whether the cells carry a polygon (the two-dimensional fast path).
    has_poly: bool,
    poly: Vec<(f64, f64)>,
    weights: Vec<f64>,
    /// Each cell's communities, best first, as indices of distinct
    /// communities.
    communities: Vec<u32>,
    /// Members of the distinct communities, back to back.
    members: Vec<u32>,
    /// End offset into `members` of each distinct community.
    member_ends: Vec<u32>,
    cells: Vec<CellSpan>,
}

/// Scratch of [`CompactOutcome::new`]: content hash to index, for
/// hyperplanes and for communities.
#[derive(Debug, Default)]
pub(crate) struct CompactScratch {
    planes: HashMap<u64, u32>,
    communities: HashMap<u64, u32>,
}

impl CompactOutcome {
    /// Compacts `result`. Returns `None` when the answer does not fit the
    /// flat form: cells that do not share one box, dimension and
    /// representation (the search never produces them), or more than
    /// 65,536 distinct hyperplanes.
    pub(crate) fn new(result: &MacSearchResult, scratch: &mut CompactScratch) -> Option<Self> {
        scratch.planes.clear();
        scratch.communities.clear();
        let mut out = CompactOutcome {
            stats: result.stats.clone(),
            ..CompactOutcome::default()
        };
        let Some(first) = result.cells.first() else {
            return Some(out);
        };
        let (lows, highs) = first.cell.bounds();
        out.dim = lows.len();
        out.lows = lows.to_vec();
        out.highs = highs.to_vec();
        out.has_poly = first.cell.polygon().is_some();
        // Size the per-cell runs exactly up front: an entry's buffers are
        // then one allocation each instead of a doubling trail.
        let cells = &result.cells;
        out.cells.reserve_exact(cells.len());
        out.constraints
            .reserve_exact(cells.iter().map(|c| c.cell.constraints().len()).sum());
        let poly_len = |c: &CellResult| c.cell.polygon().map_or(0, <[_]>::len);
        out.poly.reserve_exact(cells.iter().map(poly_len).sum());
        out.weights
            .reserve_exact(cells.iter().map(|c| c.sample_weight.len()).sum());
        out.communities
            .reserve_exact(cells.iter().map(|c| c.communities.len()).sum());
        let width = out.dim + 1;
        for res in cells {
            let cell = &res.cell;
            if cell.bounds() != (&out.lows[..], &out.highs[..])
                || cell.polygon().is_some() != out.has_poly
            {
                return None;
            }
            for hs in cell.constraints() {
                if hs.coeffs.len() != out.dim {
                    return None;
                }
                let planes = &mut out.planes;
                let id = intern_run(
                    &mut scratch.planes,
                    key_of(
                        hs.coeffs
                            .iter()
                            .chain(std::iter::once(&hs.offset))
                            .map(|c| c.to_bits()),
                    ),
                    |id| {
                        let p = &planes[id as usize * width..(id as usize + 1) * width];
                        p[..width - 1]
                            .iter()
                            .zip(&hs.coeffs)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                            && p[width - 1].to_bits() == hs.offset.to_bits()
                    },
                    (planes.len() / width) as u32,
                );
                if id as usize * width == planes.len() {
                    planes.extend_from_slice(&hs.coeffs);
                    planes.push(hs.offset);
                }
                let Ok(id) = u16::try_from(id) else {
                    return None;
                };
                out.constraints.push(id);
            }
            if let Some(poly) = cell.polygon() {
                out.poly.extend_from_slice(poly);
            }
            out.weights.extend_from_slice(&res.sample_weight);
            for community in &res.communities {
                let (members, ends) = (&mut out.members, &mut out.member_ends);
                let id = intern_run(
                    &mut scratch.communities,
                    key_of(community.vertices.iter().map(|&v| u64::from(v))),
                    |id| run_of(members, ends, id) == &community.vertices[..],
                    ends.len() as u32,
                );
                if id as usize == ends.len() {
                    members.extend_from_slice(&community.vertices);
                    ends.push(members.len() as u32);
                }
                out.communities.push(id);
            }
            out.cells.push(CellSpan {
                constraints: out.constraints.len() as u32,
                poly: out.poly.len() as u32,
                weights: out.weights.len() as u32,
                communities: out.communities.len() as u32,
            });
        }
        Some(out)
    }

    /// Rebuilds the stored answer, bit for bit, in buffers drawn from the
    /// global-search pools (see [`GsScratch::recycle`]).
    pub(crate) fn rehydrate(&self, scratch: &mut GsScratch) -> MacSearchResult {
        let (spare_results, spare_communities, arrange, out_buf) = scratch.result_pools();
        let mut cells = std::mem::take(out_buf);
        cells.clear();
        let width = self.dim + 1;
        let (mut c0, mut p0, mut w0, mut m0) = (0usize, 0usize, 0usize, 0usize);
        for span in &self.cells {
            let (c1, p1, w1, m1) = (
                span.constraints as usize,
                span.poly as usize,
                span.weights as usize,
                span.communities as usize,
            );
            let planes = self.constraints[c0..c1].iter().map(|&id| {
                let p = &self.planes[id as usize * width..(id as usize + 1) * width];
                (&p[..width - 1], p[width - 1])
            });
            let poly = self.has_poly.then(|| &self.poly[p0..p1]);
            let cell = arrange.build_cell(&self.lows, &self.highs, planes, poly);
            let mut res = spare_results.pop().unwrap_or_else(|| CellResult {
                cell: Cell::default(),
                sample_weight: Vec::new(),
                communities: Vec::new(),
            });
            let husk = std::mem::replace(&mut res.cell, cell);
            arrange.recycle_cell(husk);
            res.sample_weight.clear();
            res.sample_weight.extend_from_slice(&self.weights[w0..w1]);
            let want = m1 - m0;
            while res.communities.len() > want {
                spare_communities.push(res.communities.pop().expect("len > want"));
            }
            while res.communities.len() < want {
                let c = spare_communities
                    .pop()
                    .unwrap_or_else(|| Community::new(Vec::new()));
                res.communities.push(c);
            }
            for (community, &id) in res.communities.iter_mut().zip(&self.communities[m0..m1]) {
                community.vertices.clear();
                community
                    .vertices
                    .extend_from_slice(run_of(&self.members, &self.member_ends, id));
            }
            cells.push(res);
            (c0, p0, w0, m0) = (c1, p1, w1, m1);
        }
        MacSearchResult {
            cells,
            stats: self.stats.clone(),
        }
    }
}

/// Run `id` of the back-to-back runs in `items` that end at `ends`.
fn run_of<'a>(items: &'a [u32], ends: &[u32], id: u32) -> &'a [u32] {
    let start = match id {
        0 => 0,
        _ => ends[id as usize - 1] as usize,
    };
    &items[start..ends[id as usize] as usize]
}

/// FNV-1a over a run of words.
fn key_of(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The index of a run under `key`: the interned one when `same` confirms
/// it, else `fresh` (the caller appends the run when it gets `fresh`). A
/// hash collision leaves the first run interned and stores the second
/// uninterned, which is still exact.
fn intern_run(
    map: &mut HashMap<u64, u32>,
    key: u64,
    same: impl FnOnce(u32) -> bool,
    fresh: u32,
) -> u32 {
    match map.get(&key) {
        Some(&id) if same(id) => id,
        Some(_) => fresh,
        None => {
            map.insert(key, fresh);
            fresh
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlgorithmChoice, MacEngine};
    use crate::network::RoadSocialNetwork;
    use crate::query::MacQuery;
    use rsn_geom::region::PrefRegion;
    use rsn_graph::graph::Graph;
    use rsn_road::network::{Location, RoadNetwork};

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
        let attrs = vec![
            vec![6.0, 6.0, 5.0],
            vec![6.0, 6.0, 4.0],
            vec![9.0, 1.0, 3.0],
            vec![8.0, 2.0, 7.0],
            vec![1.0, 9.0, 6.0],
            vec![2.0, 8.0, 2.0],
        ];
        RoadSocialNetwork::new(social, road, vec![Location::vertex(0); 6], attrs).unwrap()
    }

    #[test]
    fn rehydrated_outcome_equals_the_original_bit_for_bit() {
        let engine = MacEngine::build(network());
        let mut session = engine.session();
        let mut scratch = GsScratch::new();
        let mut scratch_c = CompactScratch::default();
        for j in [1, 2] {
            let region = PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap();
            let query = MacQuery::new(vec![0, 1], 3, 10.0, region)
                .with_algorithm(AlgorithmChoice::Global)
                .with_top_j(j);
            let result = session.execute(&query).unwrap();
            assert!(result.num_cells() > 1, "the fixture splits the region");
            let outcome = CompactOutcome::new(&result, &mut scratch_c).expect("the answer fits");
            // Twice: the second rebuild runs on recycled husks.
            for _ in 0..2 {
                let back = outcome.rehydrate(&mut scratch);
                assert_eq!(back.stats, result.stats);
                assert_eq!(back.cells.len(), result.cells.len());
                for (a, b) in back.cells.iter().zip(&result.cells) {
                    assert_eq!(a.cell, b.cell);
                    assert_eq!(a.sample_weight, b.sample_weight);
                    assert_eq!(a.communities, b.communities);
                }
                scratch.recycle(back);
            }
            // Distinct hyperplanes are stored once.
            let total: usize = result
                .cells
                .iter()
                .map(|c| c.cell.constraints().len())
                .sum();
            assert_eq!(outcome.constraints.len(), total);
            assert!(outcome.planes.len() / 3 <= total);
        }
    }
}
