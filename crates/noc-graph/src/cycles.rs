//! Cycle search in directed graphs.
//!
//! The deadlock-removal algorithm (Algorithm 1 of the paper) repeatedly asks
//! for the *smallest* cycle of the channel dependency graph
//! (`GetSmallestCycle`).  The paper finds cycles by running a breadth-first
//! search from every vertex and checking whether the start vertex is
//! reached again; [`smallest_cycle`] implements exactly that strategy,
//! returning the shortest cycle over all start vertices.
//!
//! # Canonical search order
//!
//! Every search in this module scans successors in ascending *rank* order
//! (node id for the plain entry points, a caller-supplied key for the `_by`
//! variants).  That makes each result a pure function of the edge **set**,
//! independent of the order edges happened to be inserted — which is what
//! lets an incrementally maintained graph (edges logically removed and new
//! ones appended, see [`crate::DiGraph::remove_edge`]) return bit-identical cycles
//! to a freshly rebuilt copy of the same graph.  The incremental
//! deadlock-removal loop in `noc-deadlock` relies on this contract.
//!
//! # One search
//!
//! [`smallest_cycle_by`] is the only global smallest-cycle scan: every
//! `GetSmallestCycle` query of the removal loop, in both of its CDG
//! maintenance modes, and the final deadlock-freedom check run it from
//! scratch.  It keeps no state between queries.

use crate::csr::GraphView;
use crate::digraph::NodeId;
use crate::scc;
use std::collections::VecDeque;

/// Returns the shortest directed cycle through `start`, as the ordered list
/// of nodes `[start, ..., last]` such that every consecutive pair is an edge
/// and `last -> start` closes the cycle.  Returns `None` when no cycle passes
/// through `start`.
///
/// Runs a BFS from `start` over successors; the first time `start` is seen
/// again, the BFS tree gives a shortest closing path (this is the per-vertex
/// search the paper describes).  Successors are scanned in ascending node-id
/// order, so the returned cycle depends only on the edge set (see the
/// [module docs](self)).
pub fn shortest_cycle_through<G: GraphView>(graph: &G, start: NodeId) -> Option<Vec<NodeId>> {
    bounded_cycle_bfs(graph, start, usize::MAX, &NodeId::index)
}

/// [`shortest_cycle_through`] with an inclusive length bound: only cycles of
/// at most `max_len` nodes are found, and the BFS never explores deeper than
/// the bound allows.  `max_len == 0` always returns `None`.
///
/// When the shortest cycle through `start` is within the bound, the result
/// is *identical* to the unbounded search (the bound only prunes layers the
/// unbounded BFS would have visited after finding the cycle), which is what
/// allows bound-pruned scans to stay exact.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, cycles};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
/// for i in 0..4 { g.add_edge(n[i], n[(i + 1) % 4], ()); }
/// assert_eq!(cycles::shortest_cycle_through_bounded(&g, n[0], 4).unwrap().len(), 4);
/// assert_eq!(cycles::shortest_cycle_through_bounded(&g, n[0], 3), None);
/// ```
pub fn shortest_cycle_through_bounded<G: GraphView>(
    graph: &G,
    start: NodeId,
    max_len: usize,
) -> Option<Vec<NodeId>> {
    bounded_cycle_bfs(graph, start, max_len, &NodeId::index)
}

/// Returns the smallest directed cycle of the graph (fewest nodes), or
/// `None` if the graph is acyclic.
///
/// Ties are broken towards the cycle whose starting vertex has the smallest
/// node id, and the per-vertex BFS scans successors in ascending node-id
/// order, which makes the result a deterministic function of the edge set.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, cycles};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
/// // Big cycle 0-1-2-3-4 and a chord creating the small cycle 2-3.
/// for i in 0..5 { g.add_edge(n[i], n[(i + 1) % 5], ()); }
/// g.add_edge(n[3], n[2], ());
/// let cycle = cycles::smallest_cycle(&g).unwrap();
/// assert_eq!(cycle.len(), 2);
/// ```
pub fn smallest_cycle<G: GraphView>(graph: &G) -> Option<Vec<NodeId>> {
    smallest_cycle_by(graph, NodeId::index)
}

/// [`smallest_cycle`] with a caller-supplied node ranking.
///
/// `rank` must be injective (distinct nodes map to distinct keys).  The
/// smallest cycle is selected by fewest nodes first, then by the smallest
/// rank of the vertex the cycle is reported from, and the BFS scans
/// successors in ascending rank order.  Two graphs holding the same logical
/// edge set under a shared ranking therefore return the same cycle even if
/// their node ids and edge insertion orders differ — the property the
/// incremental CDG maintenance in `noc-deadlock` is built on (it ranks
/// vertices by their channel, which both the rebuilt and the incrementally
/// maintained CDG agree on).
///
/// The scan visits every node of a cyclic SCC in ascending rank order and
/// bounds each BFS by one less than the best length found so far, so a
/// later start vertex can only win with a strictly shorter cycle.  That
/// pruning reproduces the (length, rank)-lexicographic tie-break of the
/// unpruned per-vertex search.
pub fn smallest_cycle_by<G: GraphView, K: Ord>(
    graph: &G,
    rank: impl Fn(NodeId) -> K,
) -> Option<Vec<NodeId>> {
    let mut nodes: Vec<NodeId> = {
        let _span = noc_telemetry::span("scc", "full_tarjan");
        scc::cyclic_components(graph)
            .into_iter()
            .flatten()
            .collect()
    };
    nodes.sort_by_key(|a| rank(*a));
    let mut cap = usize::MAX;
    let mut best: Option<Vec<NodeId>> = None;
    for &node in &nodes {
        if cap == 0 {
            break;
        }
        if let Some(cycle) = bounded_cycle_bfs(graph, node, cap, &rank) {
            cap = cycle.len() - 1;
            best = Some(cycle);
        }
    }
    best
}

/// Returns `true` if the graph contains no directed cycle.
pub fn is_acyclic<G: GraphView>(graph: &G) -> bool {
    !scc::has_cycle(graph)
}

/// Returns the length (node count) of the smallest cycle, or `None` for an
/// acyclic graph.  Convenience wrapper over [`smallest_cycle`].
///
/// # Edge cases
///
/// A self-loop is a cycle of length **1** and beats every longer cycle; a
/// pair of antiparallel edges is a cycle of length 2; parallel edges do
/// *not* create a 2-cycle on their own (both point the same way); and an
/// empty or edge-free graph has no girth at all:
///
/// ```
/// use noc_graph::{DiGraph, cycles};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// assert_eq!(cycles::girth(&g), None);            // empty graph
/// let a = g.add_node(());
/// let b = g.add_node(());
/// assert_eq!(cycles::girth(&g), None);            // no edges yet
/// g.add_edge(a, b, ());
/// g.add_edge(a, b, ());
/// assert_eq!(cycles::girth(&g), None);            // parallel edges, still acyclic
/// g.add_edge(b, a, ());
/// assert_eq!(cycles::girth(&g), Some(2));         // antiparallel pair
/// g.add_edge(b, b, ());
/// assert_eq!(cycles::girth(&g), Some(1));         // self-loop wins
/// ```
pub fn girth<G: GraphView>(graph: &G) -> Option<usize> {
    smallest_cycle(graph).map(|c| c.len())
}

/// Canonical bounded BFS: the shortest cycle through `start` of at most
/// `max_len` nodes, scanning successors in ascending `rank` order so the
/// result depends only on the edge set.
fn bounded_cycle_bfs<G: GraphView, K: Ord>(
    graph: &G,
    start: NodeId,
    max_len: usize,
    rank: &impl Fn(NodeId) -> K,
) -> Option<Vec<NodeId>> {
    if max_len == 0 || !graph.contains_node(start) {
        return None;
    }
    let n = graph.node_count();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut depth: Vec<usize> = vec![0; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[start.index()] = true;
    queue.push_back(start);
    let mut succs: Vec<NodeId> = Vec::new();
    while let Some(node) = queue.pop_front() {
        let d = depth[node.index()];
        succs.clear();
        succs.extend(graph.successors(node));
        succs.sort_by_key(|a| rank(*a));
        succs.dedup(); // parallel edges reach the same successor
        for &succ in &succs {
            if succ == start {
                // Reconstruct start -> ... -> node by walking the BFS tree
                // from node back to the root; the edge node -> start closes
                // the cycle (d + 1 <= max_len by the enqueue guard below).
                // A self-loop is the degenerate walk of length zero
                // (node == start), yielding the one-element cycle.
                let mut path = Vec::new();
                let mut cur = node;
                loop {
                    path.push(cur);
                    if cur == start {
                        break;
                    }
                    cur = parent[cur.index()].expect("BFS parents chain back to the start node");
                }
                path.reverse();
                return Some(path);
            }
            // A node enqueued at depth d + 1 can close a cycle of
            // d + 2 nodes at best; deeper layers cannot beat the bound.
            if !visited[succ.index()] && d + 2 <= max_len {
                visited[succ.index()] = true;
                parent[succ.index()] = Some(node);
                depth[succ.index()] = d + 1;
                queue.push_back(succ);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiGraph;

    fn ring(n: usize) -> (DiGraph<usize, ()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], ());
        }
        (g, nodes)
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        assert!(smallest_cycle(&g).is_none());
        assert!(is_acyclic(&g));
        assert_eq!(girth(&g), None);
    }

    #[test]
    fn ring_cycle_is_found_in_order() {
        let (g, nodes) = ring(4);
        let cycle = smallest_cycle(&g).unwrap();
        assert_eq!(cycle.len(), 4);
        // Consecutive elements must be connected, and last -> first closes it.
        for w in cycle.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        assert!(g.has_edge(*cycle.last().unwrap(), cycle[0]));
        assert!(cycle.contains(&nodes[0]));
    }

    #[test]
    fn smallest_of_two_cycles_is_returned() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        // 5-cycle over 0..5 and a 2-cycle between 4 and 5.
        for i in 0..5 {
            g.add_edge(n[i], n[(i + 1) % 5], ());
        }
        g.add_edge(n[4], n[5], ());
        g.add_edge(n[5], n[4], ());
        let cycle = smallest_cycle(&g).unwrap();
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&n[4]) && cycle.contains(&n[5]));
    }

    #[test]
    fn self_loop_is_a_cycle_of_length_one() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        let cycle = smallest_cycle(&g).unwrap();
        assert_eq!(cycle, vec![a]);
        assert_eq!(girth(&g), Some(1));
    }

    #[test]
    fn shortest_cycle_through_specific_node() {
        let (g, nodes) = ring(5);
        for &n in &nodes {
            let c = shortest_cycle_through(&g, n).unwrap();
            assert_eq!(c.len(), 5);
            assert_eq!(c[0], n, "cycle must start at the requested node");
        }
    }

    #[test]
    fn shortest_cycle_through_self_loop_is_a_single_node() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(a, a, ());
        // The self-loop beats the 2-cycle from a's perspective.
        assert_eq!(shortest_cycle_through(&g, a).unwrap(), vec![a]);
        // b has no self-loop: its shortest cycle is the 2-cycle, with both
        // nodes reported exactly once.
        assert_eq!(shortest_cycle_through(&g, b).unwrap(), vec![b, a]);
    }

    #[test]
    fn shortest_cycle_through_two_cycle_has_no_duplicates() {
        let (g, nodes) = ring(2);
        for (i, &n) in nodes.iter().enumerate() {
            let c = shortest_cycle_through(&g, n).unwrap();
            assert_eq!(c.len(), 2, "2-cycle must have exactly two nodes");
            assert_eq!(c[0], n);
            assert_eq!(c[1], nodes[(i + 1) % 2]);
        }
    }

    #[test]
    fn shortest_cycle_through_prefers_short_closing_path() {
        // start -> a -> start (2-cycle) and start -> a -> b -> start
        // (3-cycle): BFS must return the 2-cycle.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(s, a, ());
        g.add_edge(a, b, ());
        g.add_edge(b, s, ());
        g.add_edge(a, s, ());
        assert_eq!(shortest_cycle_through(&g, s).unwrap(), vec![s, a]);
    }

    #[test]
    fn node_off_cycle_reports_none() {
        let (mut g, nodes) = ring(3);
        let extra = g.add_node(99);
        g.add_edge(nodes[0], extra, ());
        assert!(shortest_cycle_through(&g, extra).is_none());
        assert!(shortest_cycle_through(&g, nodes[0]).is_some());
    }

    #[test]
    fn bounded_search_respects_the_bound_and_matches_unbounded_within_it() {
        let (g, nodes) = ring(4);
        assert_eq!(shortest_cycle_through_bounded(&g, nodes[0], 0), None);
        assert_eq!(shortest_cycle_through_bounded(&g, nodes[0], 3), None);
        assert_eq!(
            shortest_cycle_through_bounded(&g, nodes[0], 4),
            shortest_cycle_through(&g, nodes[0]),
        );
        assert_eq!(
            shortest_cycle_through_bounded(&g, nodes[0], usize::MAX),
            shortest_cycle_through(&g, nodes[0]),
        );
    }

    #[test]
    fn canonical_result_is_independent_of_edge_insertion_order() {
        // Two 3-cycles through node 0: via (1, 2) and via (3, 4).  Build the
        // same edge set in two different insertion orders; the canonical
        // search must return the same cycle for both.
        let build = |edges: &[(usize, usize)]| {
            let mut g: DiGraph<(), ()> = DiGraph::new();
            let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
            for &(a, b) in edges {
                g.add_edge(n[a], n[b], ());
            }
            g
        };
        let forward = build(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let reversed = build(&[(4, 0), (3, 4), (0, 3), (2, 0), (1, 2), (0, 1)]);
        assert_eq!(smallest_cycle(&forward), smallest_cycle(&reversed));
    }

    #[test]
    fn smallest_cycle_by_reversed_rank_flips_the_tie_break() {
        // Two disjoint 2-cycles; under the identity rank the 0-1 cycle wins,
        // under a reversed rank the 2-3 cycle does.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[0], ());
        g.add_edge(n[2], n[3], ());
        g.add_edge(n[3], n[2], ());
        let ids = smallest_cycle_by(&g, |v| v.index()).unwrap();
        assert_eq!(ids[0], n[0]);
        let reversed = smallest_cycle_by(&g, |v| usize::MAX - v.index()).unwrap();
        assert_eq!(reversed[0], n[3]);
    }

    #[test]
    fn removed_edge_breaks_the_cycle() {
        let (mut g, nodes) = ring(4);
        let e = g.find_edge(nodes[3], nodes[0]).unwrap();
        g.remove_edge(e);
        assert!(smallest_cycle(&g).is_none());
    }

    #[test]
    fn girth_of_ring_equals_its_length() {
        for n in 2..8 {
            let (g, _) = ring(n);
            assert_eq!(girth(&g), Some(n));
        }
    }
}
