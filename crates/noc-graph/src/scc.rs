//! Strongly-connected components (Tarjan's algorithm, iterative).
//!
//! A CDG is deadlock-free exactly when every strongly-connected component is
//! trivial (a single node without a self-loop), so SCC computation doubles as
//! a fast acyclicity check and is also used to restrict expensive cycle
//! enumeration to the component that actually contains cycles.

use crate::digraph::{DiGraph, NodeId};

/// Computes the strongly-connected components of `graph`.
///
/// Components are returned in reverse topological order of the condensation
/// (i.e. a component only depends on components that appear *before* it in
/// the returned vector).  Every node appears in exactly one component.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, scc};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, ());
/// g.add_edge(b, a, ());
/// g.add_edge(b, c, ());
/// let comps = scc::tarjan_scc(&g);
/// assert_eq!(comps.len(), 2);
/// ```
pub fn tarjan_scc<N, E>(graph: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    let n = graph.node_count();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Explicit DFS stack entry: (node, iterator position over successors).
    enum Frame {
        Enter(NodeId),
        Continue(NodeId, usize),
    }

    for start in graph.node_ids() {
        if index[start.index()] != usize::MAX {
            continue;
        }
        let mut call_stack = vec![Frame::Enter(start)];
        while let Some(frame) = call_stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v.index()] = next_index;
                    lowlink[v.index()] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v.index()] = true;
                    call_stack.push(Frame::Continue(v, 0));
                }
                Frame::Continue(v, succ_pos) => {
                    let succs: Vec<NodeId> = graph.successors(v).collect();
                    let mut pos = succ_pos;
                    let mut descended = false;
                    while pos < succs.len() {
                        let w = succs[pos];
                        if index[w.index()] == usize::MAX {
                            // Descend into w, then resume v at pos (lowlink of
                            // w is folded in when we resume).
                            call_stack.push(Frame::Continue(v, pos));
                            call_stack.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w.index()] {
                            lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                        }
                        pos += 1;
                    }
                    if descended {
                        continue;
                    }
                    // All successors processed: fold child lowlinks that were
                    // computed after we suspended (children are on the stack
                    // below us in `succs` order; easiest is to re-scan).
                    for &w in &succs {
                        if on_stack[w.index()] || index[w.index()] != usize::MAX {
                            // Only fold lowlink through tree/back edges where the
                            // child is still on the Tarjan stack, or was a tree
                            // child (its lowlink is final by now).
                            if on_stack[w.index()] {
                                lowlink[v.index()] = lowlink[v.index()].min(lowlink[w.index()]);
                            }
                        }
                    }
                    if lowlink[v.index()] == index[v.index()] {
                        let mut component = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w.index()] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        components.push(component);
                    }
                }
            }
        }
    }
    components
}

/// Returns the strongly-connected components that can contain a cycle:
/// components with more than one node, plus single nodes with a self-loop.
pub fn cyclic_components<N, E>(graph: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    tarjan_scc(graph)
        .into_iter()
        .filter(|comp| comp.len() > 1 || (comp.len() == 1 && graph.has_edge(comp[0], comp[0])))
        .collect()
}

/// Returns `true` if the graph contains at least one directed cycle.
pub fn has_cycle<N, E>(graph: &DiGraph<N, E>) -> bool {
    !cyclic_components(graph).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_has_trivial_components() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
        assert!(!has_cycle(&g));
        assert!(cyclic_components(&g).is_empty());
    }

    #[test]
    fn cycle_forms_one_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for i in 0..4 {
            g.add_edge(nodes[i], nodes[(i + 1) % 4], ());
        }
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 4);
        assert!(has_cycle(&g));
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        // cycle 0-1-2, cycle 3-4-5, bridge 2->3
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[2], ());
        g.add_edge(n[2], n[0], ());
        g.add_edge(n[3], n[4], ());
        g.add_edge(n[4], n[5], ());
        g.add_edge(n[5], n[3], ());
        g.add_edge(n[2], n[3], ());
        let comps = cyclic_components(&g);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn self_loop_is_cyclic() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(has_cycle(&g));
        assert_eq!(cyclic_components(&g).len(), 1);
    }

    #[test]
    fn removing_the_back_edge_breaks_the_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let back = g.add_edge(b, a, ());
        assert!(has_cycle(&g));
        g.remove_edge(back);
        assert!(!has_cycle(&g));
    }

    #[test]
    fn reverse_topological_order_of_condensation() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let comps = tarjan_scc(&g);
        // b's component must come before a's (reverse topological order).
        let pos_a = comps.iter().position(|c| c.contains(&a)).unwrap();
        let pos_b = comps.iter().position(|c| c.contains(&b)).unwrap();
        assert!(pos_b < pos_a);
    }

    #[test]
    fn every_node_in_exactly_one_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..10).map(|_| g.add_node(())).collect();
        for i in 0..9 {
            g.add_edge(n[i], n[i + 1], ());
        }
        g.add_edge(n[9], n[4], ()); // one cycle 4..9
        let comps = tarjan_scc(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, 10);
        let mut seen = [false; 10];
        for c in &comps {
            for node in c {
                assert!(!seen[node.index()], "node appears twice");
                seen[node.index()] = true;
            }
        }
    }
}
