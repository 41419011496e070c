//! Definition-level references shared by the integration suites. Each is
//! written from the paper's definitions and shares no code with the engine
//! layer it checks.

use road_social_mac::road::{Location, RoadNetwork};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Lemma 1 from its definition: `D_Q(u) = max_q d(q, u) <= t`, with every
/// distance from a textbook Dijkstra on the road graph in which each on-edge
/// location (query or user) is split into a vertex of its own. An edge
/// holding locations becomes a chain through them in offset order; a
/// location named from the larger endpoint is re-measured from the smaller
/// one first, and an offset rounded past the edge's end sits at the end.
pub fn reference_within(
    net: &RoadNetwork,
    q: &[Location],
    t: f64,
    users: &[Location],
) -> Vec<bool> {
    let locations: Vec<Location> = q.iter().chain(users).copied().collect();
    let mut node_of = vec![usize::MAX; locations.len()];
    let mut on_edge: HashMap<(u32, u32), Vec<(f64, usize)>> = HashMap::new();
    for (i, loc) in locations.iter().enumerate() {
        match *loc {
            Location::Vertex(v) => node_of[i] = v as usize,
            Location::OnEdge { u, v, offset } => {
                let w = net
                    .edge_weight(u, v)
                    .expect("a location on an existing edge");
                let (a, b, off) = if u < v {
                    (u, v, offset)
                } else {
                    (v, u, w - offset)
                };
                on_edge
                    .entry((a, b))
                    .or_default()
                    .push((off.clamp(0.0, w), i));
            }
        }
    }
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); net.num_vertices()];
    let link = |adj: &mut Vec<Vec<(usize, f64)>>, a: usize, b: usize, w: f64| {
        adj[a].push((b, w));
        adj[b].push((a, w));
    };
    for (a, b, w) in net.edges() {
        let Some(points) = on_edge.get_mut(&(a, b)) else {
            link(&mut adj, a as usize, b as usize, w);
            continue;
        };
        points.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (mut prev, mut prev_off) = (a as usize, 0.0);
        for &(off, i) in points.iter() {
            let node = adj.len();
            adj.push(Vec::new());
            node_of[i] = node;
            link(&mut adj, prev, node, off - prev_off);
            (prev, prev_off) = (node, off);
        }
        link(&mut adj, prev, b as usize, w - prev_off);
    }
    let dijkstra = |source: usize| {
        let mut dist = vec![f64::INFINITY; adj.len()];
        let mut heap = BinaryHeap::new();
        dist[source] = 0.0;
        // Non-negative floats order like their bit patterns.
        heap.push(Reverse((0.0f64.to_bits(), source)));
        while let Some(Reverse((bits, x))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[x] {
                continue;
            }
            for &(y, w) in &adj[x] {
                if d + w < dist[y] {
                    dist[y] = d + w;
                    heap.push(Reverse(((d + w).to_bits(), y)));
                }
            }
        }
        dist
    };
    let mut d_q = vec![0.0f64; users.len()];
    for qi in 0..q.len() {
        let dist = dijkstra(node_of[qi]);
        for (d, &node) in d_q.iter_mut().zip(&node_of[q.len()..]) {
            *d = d.max(dist[node]);
        }
    }
    d_q.iter().map(|&d| d <= t).collect()
}
