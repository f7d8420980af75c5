//! Shortest paths (Dijkstra) and k-shortest simple paths (Yen).
//!
//! The TE formulations of the paper route each demand over a *pre-chosen*
//! set of paths (Table 1: `P`), conventionally the k shortest; Demand
//! Pinning additionally distinguishes the single shortest path `p̂_k`
//! (Eq. 4). Ties are broken deterministically by the lexicographic node
//! sequence so results are reproducible across runs.

use crate::graph::{EdgeId, NodeId, Topology};
use crate::{TopoResult, TopologyError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simple path: edge sequence plus cached node sequence and weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Edges in traversal order.
    pub edges: Vec<EdgeId>,
    /// Nodes in traversal order (`edges.len() + 1` entries).
    pub nodes: Vec<NodeId>,
    /// Total weight.
    pub weight: f64,
}

impl Path {
    /// Number of hops.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path is empty (never true for returned paths).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// The pre-chosen paths of every demand pair: `paths[k]` lists the paths of
/// pair `k`, shortest first.
pub type PathSet = Vec<Vec<Path>>;

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance, tie-break on node index for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then(other.node.cmp(&self.node))
    }
}

/// Dijkstra from `src` to `dst`, honoring `banned` nodes/edges (for Yen's
/// spur computation). Returns `None` when disconnected.
fn dijkstra(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[bool],
    banned_edges: &[bool],
) -> Option<Path> {
    let n = topo.n_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.0] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src.0,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == dst.0 {
            break;
        }
        for e in topo.out_edges(NodeId(u)) {
            if banned_edges.get(e.0).copied().unwrap_or(false) {
                continue;
            }
            let (_, v) = topo.endpoints(e);
            if banned_nodes.get(v.0).copied().unwrap_or(false) {
                continue;
            }
            let nd = d + topo.weight(e);
            // Strict improvement only: with a fixed edge iteration order the
            // first equal-weight predecessor wins, which is deterministic.
            if nd < dist[v.0] {
                dist[v.0] = nd;
                prev[v.0] = Some(e);
                heap.push(HeapEntry {
                    dist: nd,
                    node: v.0,
                });
            }
        }
    }
    if !dist[dst.0].is_finite() {
        return None;
    }
    // Reconstruct.
    let mut edges = Vec::new();
    let mut nodes = vec![dst];
    let mut cur = dst.0;
    while cur != src.0 {
        let e = prev[cur]?;
        edges.push(e);
        let (s, _) = topo.endpoints(e);
        cur = s.0;
        nodes.push(s);
    }
    edges.reverse();
    nodes.reverse();
    Some(Path {
        edges,
        nodes,
        weight: dist[dst.0],
    })
}

/// Single-source shortest path between two nodes.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> TopoResult<Path> {
    dijkstra(topo, src, dst, &[], &[]).ok_or(TopologyError::Disconnected {
        src: src.0,
        dst: dst.0,
    })
}

/// Yen's algorithm: up to `k` shortest simple paths from `src` to `dst`,
/// sorted by `(weight, lexicographic node sequence)`. Returns fewer than `k`
/// paths when the graph does not contain that many simple paths.
pub fn k_shortest_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> TopoResult<Vec<Path>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let first = shortest_path(topo, src, dst)?;
    let mut result = vec![first];
    let mut candidates: Vec<Path> = Vec::new();

    while result.len() < k {
        let last = result.last().expect("nonempty");
        // Each node of the previous path is a spur candidate.
        for spur_idx in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[spur_idx];
            let root_edges = &last.edges[..spur_idx];

            let mut banned_edges = vec![false; topo.n_edges()];
            let mut banned_nodes = vec![false; topo.n_nodes()];
            // Ban edges that would replicate an already-found path sharing
            // this root.
            for p in result.iter().chain(candidates.iter()) {
                if p.edges.len() > spur_idx && p.edges[..spur_idx] == *root_edges {
                    banned_edges[p.edges[spur_idx].0] = true;
                }
            }
            // Ban root nodes (except the spur node) to keep paths simple.
            for &node in &last.nodes[..spur_idx] {
                banned_nodes[node.0] = true;
            }

            if let Some(spur) = dijkstra(topo, spur_node, dst, &banned_nodes, &banned_edges) {
                let mut edges = root_edges.to_vec();
                edges.extend_from_slice(&spur.edges);
                let mut nodes = last.nodes[..spur_idx].to_vec();
                nodes.extend_from_slice(&spur.nodes);
                let weight = edges.iter().map(|&e| topo.weight(e)).sum();
                let cand = Path {
                    edges,
                    nodes,
                    weight,
                };
                if !candidates.contains(&cand) && !result.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Pick the best candidate (weight, then lexicographic nodes).
        candidates.sort_by(|a, b| {
            a.weight
                .partial_cmp(&b.weight)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.nodes.cmp(&b.nodes))
        });
        result.push(candidates.remove(0));
    }
    Ok(result)
}

/// Builds the k-shortest [`PathSet`] for a list of demand pairs.
pub fn path_set(
    topo: &Topology,
    pairs: &[(NodeId, NodeId)],
    k: usize,
) -> TopoResult<PathSet> {
    pairs
        .iter()
        .map(|&(s, t)| k_shortest_paths(topo, s, t, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: a → {b, c} → d plus a slow direct edge a → d.
    fn diamond() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new("diamond");
        let ns = t.add_nodes("n", 4);
        t.add_edge(ns[0], ns[1], 1.0).unwrap();
        t.add_edge(ns[1], ns[3], 1.0).unwrap();
        t.add_edge(ns[0], ns[2], 1.0).unwrap();
        t.add_edge(ns[2], ns[3], 1.0).unwrap();
        t.add_weighted_edge(ns[0], ns[3], 1.0, 5.0).unwrap();
        (t, ns)
    }

    #[test]
    fn shortest_path_found() {
        let (t, ns) = diamond();
        let p = shortest_path(&t, ns[0], ns[3]).unwrap();
        assert_eq!(p.weight, 2.0);
        assert_eq!(p.len(), 2);
        assert_eq!(p.nodes.first(), Some(&ns[0]));
        assert_eq!(p.nodes.last(), Some(&ns[3]));
    }

    #[test]
    fn k_shortest_enumerates_all() {
        let (t, ns) = diamond();
        let ps = k_shortest_paths(&t, ns[0], ns[3], 5).unwrap();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].weight, 2.0);
        assert_eq!(ps[1].weight, 2.0);
        assert_eq!(ps[2].weight, 5.0);
        // Deterministic tie-break: via node 1 before via node 2.
        assert!(ps[0].nodes < ps[1].nodes);
        // All paths simple.
        for p in &ps {
            let mut seen = p.nodes.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), p.nodes.len());
        }
    }

    #[test]
    fn disconnected_reported() {
        let mut t = Topology::new("d");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_edge(a, b, 1.0).unwrap();
        assert!(shortest_path(&t, a, c).is_err());
        assert!(k_shortest_paths(&t, a, c, 2).is_err());
    }

    #[test]
    fn directed_edges_respected() {
        let mut t = Topology::new("d");
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_edge(a, b, 1.0).unwrap();
        assert!(shortest_path(&t, b, a).is_err());
    }

    #[test]
    fn k_zero_and_one() {
        let (t, ns) = diamond();
        assert!(k_shortest_paths(&t, ns[0], ns[3], 0).unwrap().is_empty());
        let one = k_shortest_paths(&t, ns[0], ns[3], 1).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].weight, 2.0);
    }

    #[test]
    fn path_set_for_pairs() {
        let (t, ns) = diamond();
        let pairs = vec![(ns[0], ns[3]), (ns[1], ns[3])];
        let ps = path_set(&t, &pairs, 2).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].len(), 2);
        assert_eq!(ps[1].len(), 1);
    }
}
