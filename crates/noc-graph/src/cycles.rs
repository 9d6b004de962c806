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
//! # Incremental search
//!
//! [`IncrementalCycleFinder`] answers repeated smallest-cycle queries over a
//! graph that changes a little between queries.  It caches surviving
//! candidate cycles as length bounds, seeds the next query from the nodes
//! incident to changed edges ([`mark_dirty`](IncrementalCycleFinder::mark_dirty)),
//! and then runs a bound-pruned global verification scan, so the exactness
//! of the full search is preserved while the per-query cost collapses to
//! small bounded neighbourhood explorations.

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
pub fn smallest_cycle_by<G: GraphView, K: Ord>(
    graph: &G,
    rank: impl Fn(NodeId) -> K,
) -> Option<Vec<NodeId>> {
    bounded_smallest_scan(graph, &rank, usize::MAX)
}

/// Returns `true` if the graph contains no directed cycle.
pub fn is_acyclic<G: GraphView>(graph: &G) -> bool {
    !scc::has_cycle(graph)
}

/// Enumerates simple cycles of the graph, up to `limit` cycles.
///
/// This is a bounded DFS-based enumeration; it is used by the ablation
/// experiments and diagnostics, while the removal algorithm itself only ever
/// needs the smallest cycle.
///
/// # `limit` semantics
///
/// `limit` is an inclusive cap on the *number of cycles returned*, not on
/// their length: the enumeration stops as soon as `limit` cycles have been
/// collected, so with more than `limit` simple cycles in the graph the
/// result is a truncation (which cycles survive depends on the DFS order —
/// roots ascending by node id, each cycle reported exactly once, rooted at
/// its minimum node id).  `limit == 0` returns an empty vector without
/// touching the graph, and a `limit` larger than the true cycle count is
/// harmless.
///
/// ```
/// use noc_graph::{DiGraph, cycles};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
/// // Two disjoint 2-cycles: 0 <-> 1 and 2 <-> 3.
/// g.add_edge(n[0], n[1], ());
/// g.add_edge(n[1], n[0], ());
/// g.add_edge(n[2], n[3], ());
/// g.add_edge(n[3], n[2], ());
/// assert_eq!(cycles::enumerate_cycles(&g, 0).len(), 0);  // 0 = ask for nothing
/// assert_eq!(cycles::enumerate_cycles(&g, 1).len(), 1);  // truncated
/// assert_eq!(cycles::enumerate_cycles(&g, 10).len(), 2); // all of them
/// ```
pub fn enumerate_cycles<G: GraphView>(graph: &G, limit: usize) -> Vec<Vec<NodeId>> {
    let mut result = Vec::new();
    if limit == 0 {
        return result;
    }
    let n = graph.node_count();
    for root in graph.node_ids() {
        if result.len() >= limit {
            break;
        }
        // DFS that only visits nodes with id >= root, so each cycle is
        // discovered exactly once, rooted at its minimal node.
        let mut stack: Vec<(NodeId, Vec<NodeId>)> = vec![(root, vec![root])];
        let mut on_path = vec![false; n];
        // Iterative DFS with explicit path tracking; for modest graph sizes
        // (CDGs have at most a few thousand channels) this is sufficient.
        while let Some((node, path)) = stack.pop() {
            on_path.iter_mut().for_each(|v| *v = false);
            for p in &path {
                on_path[p.index()] = true;
            }
            for succ in graph.successors(node) {
                if succ == root && !path.is_empty() {
                    // Found a cycle rooted at `root`.
                    if path.len() > 1 || graph.has_edge(root, root) {
                        result.push(path.clone());
                        if result.len() >= limit {
                            return result;
                        }
                    } else if path.len() == 1 && succ == root && node == root {
                        // self-loop
                        result.push(vec![root]);
                        if result.len() >= limit {
                            return result;
                        }
                    }
                } else if succ > root && !on_path[succ.index()] {
                    let mut next_path = path.clone();
                    next_path.push(succ);
                    stack.push((succ, next_path));
                }
            }
        }
    }
    result
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

/// Incremental smallest-cycle search over a graph that changes between
/// queries.
///
/// The deadlock-removal loop breaks one dependency per iteration: a handful
/// of edges disappear, a handful appear, and the rest of the graph is
/// untouched.  Re-running the full per-vertex BFS from every node each time
/// is what made the loop the suite's hot path.  This finder instead:
///
/// 1. **validates cached candidates** — cycles found in earlier queries
///    whose edges all still exist give an immediate upper bound on the new
///    smallest length;
/// 2. **seeds from the dirty region** — a bounded BFS restarts
///    [`shortest_cycle_through`] only from nodes incident to changed edges
///    (reported via [`mark_dirty`](Self::mark_dirty)), which usually
///    tightens the bound further because new cycles must pass through new
///    edges;
/// 3. **falls back to the global scan** — a full ascending-rank pass, but
///    with every BFS pruned at the current bound.  This pass is what keeps
///    the search *exact*: the new smallest cycle may be an old cycle far
///    from any changed edge (e.g. a second, untouched ring), so a
///    dirty-only restart would be unsound.  When every cached candidate has
///    died and the dirty pass finds nothing, the bound is infinite and this
///    degenerates to exactly [`smallest_cycle_by`].
///
/// The result is always identical to calling [`smallest_cycle_by`] from
/// scratch — the caches and dirty hints only ever *prune*, never change the
/// answer — which the property tests in `tests/graph_properties.rs` pin
/// down over randomized edit sequences.
///
/// # Example
///
/// ```
/// use noc_graph::{DiGraph, cycles, cycles::IncrementalCycleFinder};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
/// for i in 0..4 { g.add_edge(n[i], n[(i + 1) % 4], ()); }
/// let mut finder = IncrementalCycleFinder::new();
/// assert_eq!(finder.smallest_cycle_by(&g, |v| v.index()).unwrap().len(), 4);
///
/// // Break the ring; only the endpoints of the removed edge are dirty.
/// let e = g.find_edge(n[3], n[0]).unwrap();
/// g.remove_edge(e);
/// finder.mark_dirty(n[3]);
/// finder.mark_dirty(n[0]);
/// assert_eq!(finder.smallest_cycle_by(&g, |v| v.index()), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalCycleFinder {
    /// Cycles found by earlier queries, kept as candidate length bounds.
    /// Lazily validated against the live edge set at the next query.
    candidates: Vec<Vec<NodeId>>,
    /// Nodes incident to edges added or removed since the last query.
    dirty: Vec<NodeId>,
}

/// How many candidate cycles the finder keeps between queries.  The winner
/// is destroyed by every removal iteration (the loop breaks the cycle it
/// just found), so the value of the pool is in the runners-up; a handful is
/// plenty and keeps validation cheap.
const CANDIDATE_POOL: usize = 8;

impl IncrementalCycleFinder {
    /// A finder with no cached state: the first query is a plain global
    /// search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `node` dirty: an edge incident to it was added or removed
    /// since the last query.  Dirty nodes seed the next query's search.
    ///
    /// Marking is a performance hint, never a correctness requirement — the
    /// global verification scan catches cycles the dirty region misses —
    /// so over- or under-marking is always safe.
    pub fn mark_dirty(&mut self, node: NodeId) {
        self.dirty.push(node);
    }

    /// Drops all cached candidates and dirty hints, e.g. after a wholesale
    /// graph rebuild that invalidates node identities.
    pub fn clear(&mut self) {
        self.candidates.clear();
        self.dirty.clear();
    }

    /// The smallest cycle of `graph` under the ranking `rank`, exactly as
    /// [`smallest_cycle_by`] would return it, using the cached candidates
    /// and the dirty region to prune the search.
    ///
    /// `rank` must be injective and *stable across queries* (the cached
    /// cycles assume node identities keep their meaning).
    pub fn smallest_cycle_by<G: GraphView, K: Ord>(
        &mut self,
        graph: &G,
        rank: impl Fn(NodeId) -> K,
    ) -> Option<Vec<NodeId>> {
        // 1. Candidates whose edges all survived still bound the answer.
        noc_telemetry::counter("cycles.queries", 1);
        self.candidates.retain(|cycle| cycle_is_live(graph, cycle));
        noc_telemetry::counter("cycles.candidates_live", self.candidates.len() as u64);
        let mut bound = self
            .candidates
            .iter()
            .map(Vec::len)
            .min()
            .unwrap_or(usize::MAX);

        // 2. Dirty seed pass: look for strictly better cycles through the
        // changed region before paying for the global scan.
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_by_key(|a| rank(*a));
        dirty.dedup();
        noc_telemetry::counter("cycles.dirty_seeds", dirty.len() as u64);
        for &node in &dirty {
            if bound <= 1 {
                break;
            }
            if let Some(cycle) = bounded_cycle_bfs(graph, node, bound - 1, &rank) {
                noc_telemetry::counter("cycles.dirty_seed_hits", 1);
                bound = cycle.len();
                self.candidates.push(cycle);
            }
        }

        // 3. Exact global verification scan under the seeded bound.
        let best = bounded_smallest_scan(graph, &rank, bound);
        if let Some(cycle) = &best {
            self.candidates.push(cycle.clone());
        }
        // Shortest candidates first, duplicates removed (repeated queries
        // re-find the same winner; copies must not evict distinct
        // runner-up bounds from the pool).
        self.candidates
            .sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        self.candidates.dedup();
        self.candidates.truncate(CANDIDATE_POOL);
        best
    }
}

/// `true` when every edge of `cycle` (including the closing one) is live.
fn cycle_is_live<G: GraphView>(graph: &G, cycle: &[NodeId]) -> bool {
    let Some((&first, _)) = cycle.split_first() else {
        return false;
    };
    cycle.windows(2).all(|w| graph.has_edge(w[0], w[1]))
        && graph.has_edge(*cycle.last().expect("non-empty"), first)
}

/// The canonical global scan behind [`smallest_cycle_by`] and the finder's
/// verification pass: visit every node of a cyclic SCC in ascending rank
/// order, BFS-bounded by `bound` until the first hit and then by one less
/// than the best length found so far.  The first node to reach a given
/// length wins, which reproduces the (length, rank)-lexicographic tie-break
/// of the unpruned search.
fn bounded_smallest_scan<G: GraphView, K: Ord>(
    graph: &G,
    rank: &impl Fn(NodeId) -> K,
    bound: usize,
) -> Option<Vec<NodeId>> {
    let mut nodes: Vec<NodeId> = {
        let _span = noc_telemetry::span("scc", "full_tarjan");
        scc::cyclic_components(graph)
            .into_iter()
            .flatten()
            .collect()
    };
    nodes.sort_by_key(|a| rank(*a));
    let mut cap = bound;
    let mut best: Option<Vec<NodeId>> = None;
    for &node in &nodes {
        if cap == 0 {
            break;
        }
        if let Some(cycle) = bounded_cycle_bfs(graph, node, cap, rank) {
            cap = cycle.len() - 1;
            best = Some(cycle);
        }
    }
    best
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
    fn enumerate_respects_limit() {
        let (g, _) = ring(3);
        assert_eq!(enumerate_cycles(&g, 0).len(), 0);
        assert_eq!(enumerate_cycles(&g, 10).len(), 1);
    }

    #[test]
    fn enumerate_finds_multiple_cycles() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(n[0], n[1], ());
        g.add_edge(n[1], n[0], ());
        g.add_edge(n[2], n[3], ());
        g.add_edge(n[3], n[2], ());
        let cycles = enumerate_cycles(&g, 10);
        assert_eq!(cycles.len(), 2);
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

    #[test]
    fn finder_matches_global_search_without_any_hints() {
        let (g, _) = ring(5);
        let mut finder = IncrementalCycleFinder::new();
        assert_eq!(
            finder.smallest_cycle_by(&g, |v| v.index()),
            smallest_cycle(&g),
        );
        // Asking again with stale-but-valid candidates must not change the
        // answer.
        assert_eq!(
            finder.smallest_cycle_by(&g, |v| v.index()),
            smallest_cycle(&g),
        );
    }

    #[test]
    fn finder_survives_a_disjoint_untouched_cycle() {
        // Two disjoint rings; break the one the finder reported.  The other
        // ring is nowhere near a dirty node, so only the global fallback can
        // find it — this is the unsoundness trap of a dirty-only restart.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(())).collect();
        for i in 0..3 {
            g.add_edge(n[i], n[(i + 1) % 3], ());
            g.add_edge(n[3 + i], n[3 + (i + 1) % 3], ());
        }
        let mut finder = IncrementalCycleFinder::new();
        let first = finder.smallest_cycle_by(&g, |v| v.index()).unwrap();
        assert_eq!(first[0], n[0]);
        let e = g.find_edge(n[2], n[0]).unwrap();
        g.remove_edge(e);
        finder.mark_dirty(n[2]);
        finder.mark_dirty(n[0]);
        let second = finder.smallest_cycle_by(&g, |v| v.index()).unwrap();
        assert_eq!(second, smallest_cycle(&g).unwrap());
        assert_eq!(second[0], n[3]);
    }

    #[test]
    fn finder_picks_up_new_shorter_cycles_via_dirty_nodes() {
        let (mut g, nodes) = ring(6);
        let mut finder = IncrementalCycleFinder::new();
        assert_eq!(
            finder.smallest_cycle_by(&g, |v| v.index()).unwrap().len(),
            6
        );
        // Add a chord creating a 2-cycle.
        g.add_edge(nodes[1], nodes[0], ());
        finder.mark_dirty(nodes[1]);
        finder.mark_dirty(nodes[0]);
        let cycle = finder.smallest_cycle_by(&g, |v| v.index()).unwrap();
        assert_eq!(cycle.len(), 2);
        assert_eq!(cycle, smallest_cycle(&g).unwrap());
    }

    #[test]
    fn finder_clear_resets_state() {
        let (g, _) = ring(3);
        let mut finder = IncrementalCycleFinder::new();
        finder.smallest_cycle_by(&g, |v| v.index()).unwrap();
        finder.clear();
        assert_eq!(
            finder.smallest_cycle_by(&g, |v| v.index()),
            smallest_cycle(&g),
        );
    }
}
