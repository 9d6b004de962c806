//! Weighted shortest paths (Dijkstra) over a [`DiGraph`].
//!
//! Topology synthesis and the default (deadlock-oblivious) routing both use
//! minimum-cost paths over the switch graph, where the cost of a link can be
//! hop count, inverse bandwidth or an arbitrary user-provided weight.

use crate::digraph::{DiGraph, EdgeId, EdgeRef, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<Option<u64>>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPaths {
    /// The source node the search started from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<u64> {
        self.dist.get(node.index()).copied().flatten()
    }

    /// Reconstructs the node path from the source to `target` (inclusive), or
    /// `None` if `target` is unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        self.distance(target)?;
        let mut path = vec![target];
        let mut cur = target;
        while let Some((prev, _)) = self.parent[cur.index()] {
            path.push(prev);
            cur = prev;
        }
        path.reverse();
        Some(path)
    }

    /// Reconstructs the edge path from the source to `target`, or `None` if
    /// `target` is unreachable.  The source itself yields an empty path.
    pub fn edge_path_to(&self, target: NodeId) -> Option<Vec<EdgeId>> {
        self.distance(target)?;
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((prev, edge)) = self.parent[cur.index()] {
            edges.push(edge);
            cur = prev;
        }
        edges.reverse();
        Some(edges)
    }
}

/// Runs Dijkstra from `source` using `edge_cost` to weigh each edge.
///
/// Costs must be non-negative (guaranteed by the `u64` type).  Edges mapped
/// to `None` are treated as unusable and skipped, which lets callers express
/// capacity or policy restrictions without mutating the graph.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, shortest_path};
///
/// let mut g: DiGraph<(), u64> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, 1);
/// g.add_edge(b, c, 1);
/// g.add_edge(a, c, 5);
/// let sp = shortest_path::dijkstra(&g, a, |e| Some(*e.weight));
/// assert_eq!(sp.distance(c), Some(2));
/// assert_eq!(sp.path_to(c).unwrap(), vec![a, b, c]);
/// ```
pub fn dijkstra<N, E>(
    graph: &DiGraph<N, E>,
    source: NodeId,
    mut edge_cost: impl FnMut(EdgeRef<'_, E>) -> Option<u64>,
) -> ShortestPaths {
    let n = graph.node_count();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    if graph.contains_node(source) {
        dist[source.index()] = Some(0);
        heap.push(Reverse((0, source.index())));
    }
    while let Some(Reverse((d, idx))) = heap.pop() {
        if dist[idx] != Some(d) {
            continue; // stale entry
        }
        let node = NodeId::from_index(idx);
        for edge in graph.out_edges(node) {
            let Some(cost) = edge_cost(edge) else {
                continue;
            };
            let next = edge.target;
            let nd = d.saturating_add(cost);
            if dist[next.index()].is_none_or(|old| nd < old) {
                dist[next.index()] = Some(nd);
                parent[next.index()] = Some((node, edge.id));
                heap.push(Reverse((nd, next.index())));
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        parent,
    }
}

/// Convenience wrapper: Dijkstra where every edge costs 1 (hop count).
pub fn hop_distances<N, E>(graph: &DiGraph<N, E>, source: NodeId) -> ShortestPaths {
    dijkstra(graph, source, |_| Some(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_distances() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], 2);
        g.add_edge(n[1], n[2], 3);
        g.add_edge(n[2], n[3], 4);
        let sp = dijkstra(&g, n[0], |e| Some(*e.weight));
        assert_eq!(sp.distance(n[0]), Some(0));
        assert_eq!(sp.distance(n[3]), Some(9));
        assert_eq!(sp.path_to(n[3]).unwrap().len(), 4);
        assert_eq!(sp.edge_path_to(n[3]).unwrap().len(), 3);
        assert_eq!(sp.edge_path_to(n[0]).unwrap().len(), 0);
        assert_eq!(sp.source(), n[0]);
    }

    #[test]
    fn picks_cheaper_of_two_routes() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, 10);
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        let sp = dijkstra(&g, a, |e| Some(*e.weight));
        assert_eq!(sp.distance(c), Some(2));
        assert_eq!(sp.path_to(c).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn unreachable_nodes_have_no_distance() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let sp = dijkstra(&g, a, |e| Some(*e.weight));
        assert_eq!(sp.distance(b), None);
        assert_eq!(sp.path_to(b), None);
        assert_eq!(sp.edge_path_to(b), None);
    }

    #[test]
    fn edges_mapped_to_none_are_skipped() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        let sp = dijkstra(
            &g,
            a,
            |e| {
                if e.source == b {
                    None
                } else {
                    Some(*e.weight)
                }
            },
        );
        assert_eq!(sp.distance(b), Some(1));
        assert_eq!(sp.distance(c), None);
    }

    #[test]
    fn hop_distances_ignore_weights() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1000);
        let sp = hop_distances(&g, a);
        assert_eq!(sp.distance(b), Some(1));
    }

    #[test]
    fn parallel_edges_use_the_cheapest() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 7);
        let cheap = g.add_edge(a, b, 3);
        let sp = dijkstra(&g, a, |e| Some(*e.weight));
        assert_eq!(sp.distance(b), Some(3));
        assert_eq!(sp.edge_path_to(b).unwrap(), vec![cheap]);
    }
}
