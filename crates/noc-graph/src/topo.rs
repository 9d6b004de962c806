//! Topological ordering and acyclicity checks (Kahn's algorithm).

use crate::digraph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// Returns a topological order of the graph, or `None` if it contains a
/// directed cycle.
///
/// When several orders are valid the one preferring smaller node ids first is
/// returned, making the output deterministic.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, topo};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_edge(a, b, ());
/// assert_eq!(topo::topological_sort(&g), Some(vec![a, b]));
/// ```
pub fn topological_sort<N, E>(graph: &DiGraph<N, E>) -> Option<Vec<NodeId>> {
    let n = graph.node_count();
    let mut in_deg: Vec<usize> = (0..n)
        .map(|i| graph.in_degree(NodeId::from_index(i)))
        .collect();
    // Use a sorted frontier (BinaryHeap of Reverse would also work; a VecDeque
    // seeded in id order plus pushing in id order is enough for determinism
    // because successors are explored in insertion order).
    let mut queue: VecDeque<NodeId> = (0..n)
        .filter(|&i| in_deg[i] == 0)
        .map(NodeId::from_index)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(node) = queue.pop_front() {
        order.push(node);
        for succ in graph.successors(node) {
            in_deg[succ.index()] -= 1;
            if in_deg[succ.index()] == 0 {
                queue.push_back(succ);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

/// Returns `true` if the graph is a DAG.
pub fn is_dag<N, E>(graph: &DiGraph<N, E>) -> bool {
    topological_sort(graph).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_a_diamond() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        let order = topological_sort(&g).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b) && pos(a) < pos(c));
        assert!(pos(b) < pos(d) && pos(c) < pos(d));
        assert!(is_dag(&g));
    }

    #[test]
    fn cycle_has_no_order() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert_eq!(topological_sort(&g), None);
        assert!(!is_dag(&g));
    }

    #[test]
    fn empty_graph_is_a_dag() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(topological_sort(&g), Some(vec![]));
        assert!(is_dag(&g));
    }

    #[test]
    fn removing_the_back_edge_makes_it_sortable() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let back = g.add_edge(b, a, ());
        assert!(!is_dag(&g));
        g.remove_edge(back);
        assert!(is_dag(&g));
    }
}
