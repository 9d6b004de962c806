//! Breadth-first traversal over a [`DiGraph`]: shortest hop paths and weak
//! connectivity.

use crate::digraph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// BFS shortest path (in hops) from `source` to `target`.
///
/// Returns the node sequence including both endpoints, or `None` if `target`
/// is unreachable.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, traversal};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, ());
/// assert_eq!(traversal::bfs_path(&g, a, b), Some(vec![a, b]));
/// assert_eq!(traversal::bfs_path(&g, a, c), None);
/// ```
pub fn bfs_path<N, E>(
    graph: &DiGraph<N, E>,
    source: NodeId,
    target: NodeId,
) -> Option<Vec<NodeId>> {
    if !graph.contains_node(source) || !graph.contains_node(target) {
        return None;
    }
    if source == target {
        return Some(vec![source]);
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut visited = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    visited[source.index()] = true;
    queue.push_back(source);
    while let Some(node) = queue.pop_front() {
        for succ in graph.successors(node) {
            if !visited[succ.index()] {
                visited[succ.index()] = true;
                parent[succ.index()] = Some(node);
                if succ == target {
                    let mut path = vec![target];
                    let mut cur = target;
                    while let Some(p) = parent[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(succ);
            }
        }
    }
    None
}

/// Returns `true` if every node is reachable from every other node when edge
/// direction is ignored (weak connectivity).  An empty graph is connected.
pub fn is_weakly_connected<N, E>(graph: &DiGraph<N, E>) -> bool {
    let n = graph.node_count();
    if n <= 1 {
        return true;
    }
    let mut visited = vec![false; n];
    let start = NodeId::from_index(0);
    let mut queue = VecDeque::new();
    visited[0] = true;
    queue.push_back(start);
    let mut seen = 1usize;
    while let Some(node) = queue.pop_front() {
        let neighbors = graph
            .successors(node)
            .chain(graph.predecessors(node))
            .collect::<Vec<_>>();
        for next in neighbors {
            if !visited[next.index()] {
                visited[next.index()] = true;
                seen += 1;
                queue.push_back(next);
            }
        }
    }
    seen == n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> (DiGraph<usize, ()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        (g, nodes)
    }

    #[test]
    fn bfs_visits_in_level_order() {
        // Diamond a -> {b, c} -> d: d is first reached from b, the earlier
        // successor of the first BFS level.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        assert_eq!(bfs_path(&g, a, d), Some(vec![a, b, d]));
        assert_eq!(bfs_path(&g, a, c), Some(vec![a, c]));
    }

    #[test]
    fn reachability_in_a_chain() {
        let (g, n) = chain(5);
        assert_eq!(bfs_path(&g, n[0], n[4]), Some(n.clone()));
        assert_eq!(bfs_path(&g, n[4], n[0]), None);
        assert_eq!(bfs_path(&g, n[2], n[2]), Some(vec![n[2]]));
    }

    #[test]
    fn bfs_path_finds_shortest_route() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        // long way round 0->1->2->3, short cut 0->4->3
        g.add_edge(nodes[0], nodes[1], ());
        g.add_edge(nodes[1], nodes[2], ());
        g.add_edge(nodes[2], nodes[3], ());
        g.add_edge(nodes[0], nodes[4], ());
        g.add_edge(nodes[4], nodes[3], ());
        let path = bfs_path(&g, nodes[0], nodes[3]).unwrap();
        assert_eq!(path, vec![nodes[0], nodes[4], nodes[3]]);
    }

    #[test]
    fn bfs_path_handles_unreachable_and_self() {
        let (g, n) = chain(3);
        assert_eq!(bfs_path(&g, n[2], n[0]), None);
        assert_eq!(bfs_path(&g, n[1], n[1]), Some(vec![n[1]]));
    }

    #[test]
    fn weak_connectivity() {
        let (g, _) = chain(4);
        assert!(is_weakly_connected(&g));
        let mut g2: DiGraph<(), ()> = DiGraph::new();
        g2.add_node(());
        g2.add_node(());
        assert!(!is_weakly_connected(&g2));
        let empty: DiGraph<(), ()> = DiGraph::new();
        assert!(is_weakly_connected(&empty));
    }

    #[test]
    fn traversal_skips_removed_edges() {
        let (mut g, n) = chain(4);
        let e = g.find_edge(n[1], n[2]).unwrap();
        g.remove_edge(e);
        assert_eq!(bfs_path(&g, n[0], n[3]), None);
        assert_eq!(bfs_path(&g, n[0], n[1]), Some(vec![n[0], n[1]]));
        assert_eq!(bfs_path(&g, n[2], n[3]), Some(vec![n[2], n[3]]));
    }
}
