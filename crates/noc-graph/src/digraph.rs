//! A compact directed multigraph with stable node and edge identifiers.
//!
//! Nodes and edges carry arbitrary payloads.  Identifiers are small
//! newtype-wrapped indices ([`NodeId`], [`EdgeId`]) so that higher layers
//! (topology, CDG) can build dense side tables keyed by `index()`.

use std::fmt;

/// Identifier of a node inside a [`DiGraph`].
///
/// Node ids are dense indices assigned in insertion order and remain valid
/// for the lifetime of the graph (nodes are never removed; higher layers
/// mark nodes unused instead, which mirrors how channels are only ever
/// *added* by the deadlock-removal algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw dense index.
    ///
    /// Only meaningful for indices previously produced by the same graph.
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge inside a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(usize);

impl EdgeId {
    /// Creates an edge id from a raw dense index.
    pub fn from_index(index: usize) -> Self {
        EdgeId(index)
    }

    /// Returns the dense index of this edge.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A borrowed view of one edge: its id, endpoints and payload.
#[derive(Debug, PartialEq, Eq)]
pub struct EdgeRef<'a, E> {
    /// Edge identifier.
    pub id: EdgeId,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Borrowed edge payload.
    pub weight: &'a E,
}

impl<'a, E> Clone for EdgeRef<'a, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, E> Copy for EdgeRef<'a, E> {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct EdgeData<E> {
    source: NodeId,
    target: NodeId,
    weight: E,
    /// Removed edges stay in the arena but are skipped by all iterators.
    removed: bool,
}

/// A directed multigraph with payloads on nodes and edges.
///
/// Parallel edges and self-loops are allowed (a CDG never contains
/// self-loops because a route never uses the same channel twice in a row,
/// but the graph layer does not enforce domain rules).
///
/// # Example
///
/// ```
/// use noc_graph::DiGraph;
///
/// let mut g: DiGraph<&str, u32> = DiGraph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let e = g.add_edge(a, b, 7);
/// assert_eq!(g.edge_weight(e), Some(&7));
/// assert_eq!(g.out_degree(a), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeData<E>>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Creates an empty graph with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(nodes),
            in_edges: Vec::with_capacity(nodes),
        }
    }

    /// Reserves capacity for at least `additional_nodes` more nodes and
    /// `additional_edges` more edges, so bulk builders (CDG construction,
    /// topology generators) can size the arenas up front and avoid
    /// reallocation during the hot build loop.
    pub fn reserve(&mut self, additional_nodes: usize, additional_edges: usize) {
        self.nodes.reserve(additional_nodes);
        self.out_edges.reserve(additional_nodes);
        self.in_edges.reserve(additional_nodes);
        self.edges.reserve(additional_edges);
    }

    /// Adds a node with the given payload and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(weight);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a directed edge `source -> target` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not belong to this graph.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: E) -> EdgeId {
        assert!(source.0 < self.nodes.len(), "source node out of bounds");
        assert!(target.0 < self.nodes.len(), "target node out of bounds");
        let id = EdgeId(self.edges.len());
        self.edges.push(EdgeData {
            source,
            target,
            weight,
            removed: false,
        });
        self.out_edges[source.0].push(id);
        self.in_edges[target.0].push(id);
        id
    }

    /// Marks an edge as removed.  Returns `true` if the edge existed and was
    /// live before the call.
    ///
    /// Removal is *logical*: the edge id stays allocated so other ids remain
    /// stable, but the edge no longer appears in any iteration, degree count
    /// or traversal.  This matches the paper's CDG surgery where breaking a
    /// cycle removes dependency edges while new channel vertices are added.
    pub fn remove_edge(&mut self, edge: EdgeId) -> bool {
        match self.edges.get_mut(edge.0) {
            Some(data) if !data.removed => {
                data.removed = true;
                true
            }
            _ => false,
        }
    }

    /// Number of nodes ever added.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (non-removed) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.removed).count()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns a reference to the payload of `node`, if it exists.
    pub fn node_weight(&self, node: NodeId) -> Option<&N> {
        self.nodes.get(node.0)
    }

    /// Returns a mutable reference to the payload of `node`, if it exists.
    pub fn node_weight_mut(&mut self, node: NodeId) -> Option<&mut N> {
        self.nodes.get_mut(node.0)
    }

    /// Returns a reference to the payload of `edge` if it exists and is live.
    pub fn edge_weight(&self, edge: EdgeId) -> Option<&E> {
        self.edges
            .get(edge.0)
            .filter(|e| !e.removed)
            .map(|e| &e.weight)
    }

    /// Returns a mutable reference to the payload of `edge` if it is live.
    pub fn edge_weight_mut(&mut self, edge: EdgeId) -> Option<&mut E> {
        self.edges
            .get_mut(edge.0)
            .filter(|e| !e.removed)
            .map(|e| &mut e.weight)
    }

    /// Returns the `(source, target)` endpoints of a live edge.
    pub fn edge_endpoints(&self, edge: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edges
            .get(edge.0)
            .filter(|e| !e.removed)
            .map(|e| (e.source, e.target))
    }

    /// Returns `true` if `node` is a valid id for this graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.0 < self.nodes.len()
    }

    /// Returns the first live edge `source -> target`, if any.
    pub fn find_edge(&self, source: NodeId, target: NodeId) -> Option<EdgeId> {
        self.out_edges.get(source.0)?.iter().copied().find(|&e| {
            let d = &self.edges[e.0];
            !d.removed && d.target == target
        })
    }

    /// Returns `true` if there is at least one live edge `source -> target`.
    pub fn has_edge(&self, source: NodeId, target: NodeId) -> bool {
        self.find_edge(source, target).is_some()
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over `(NodeId, &N)` pairs in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        self.nodes.iter().enumerate().map(|(i, w)| (NodeId(i), w))
    }

    /// Iterates over all live edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.removed)
            .map(|(i, e)| EdgeRef {
                id: EdgeId(i),
                source: e.source,
                target: e.target,
                weight: &e.weight,
            })
    }

    /// Iterates over the live outgoing edges of `node`.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.out_edges
            .get(node.0)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .filter(|e| !self.edges[e.0].removed)
            .map(move |&id| {
                let e = &self.edges[id.0];
                EdgeRef {
                    id,
                    source: e.source,
                    target: e.target,
                    weight: &e.weight,
                }
            })
    }

    /// Iterates over the live incoming edges of `node`.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.in_edges
            .get(node.0)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .filter(|e| !self.edges[e.0].removed)
            .map(move |&id| {
                let e = &self.edges[id.0];
                EdgeRef {
                    id,
                    source: e.source,
                    target: e.target,
                    weight: &e.weight,
                }
            })
    }

    /// Iterates over the successor nodes of `node` (one entry per live edge,
    /// so parallel edges yield duplicates).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(node).map(|e| e.target)
    }

    /// Iterates over the predecessor nodes of `node`.
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(node).map(|e| e.source)
    }

    /// Number of live outgoing edges of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges(node).count()
    }

    /// Number of live incoming edges of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges(node).count()
    }

    /// Maps node and edge payloads into a new graph with the same shape.
    pub fn map<N2, E2>(
        &self,
        mut node_map: impl FnMut(NodeId, &N) -> N2,
        mut edge_map: impl FnMut(EdgeId, &E) -> E2,
    ) -> DiGraph<N2, E2> {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, w)| node_map(NodeId(i), w))
            .collect();
        let edges = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| EdgeData {
                source: e.source,
                target: e.target,
                weight: edge_map(EdgeId(i), &e.weight),
                removed: e.removed,
            })
            .collect();
        DiGraph {
            nodes,
            edges,
            out_edges: self.out_edges.clone(),
            in_edges: self.in_edges.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (DiGraph<&'static str, u32>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let nodes = vec![g.add_node("a"), g.add_node("b"), g.add_node("c")];
        g.add_edge(nodes[0], nodes[1], 1);
        g.add_edge(nodes[1], nodes[2], 2);
        g.add_edge(nodes[2], nodes[0], 3);
        (g, nodes)
    }

    #[test]
    fn add_and_count() {
        let (g, _) = sample();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn empty_graph_defaults() {
        let g: DiGraph<(), ()> = DiGraph::default();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn node_and_edge_weights() {
        let (mut g, n) = sample();
        assert_eq!(g.node_weight(n[1]), Some(&"b"));
        *g.node_weight_mut(n[1]).unwrap() = "B";
        assert_eq!(g.node_weight(n[1]), Some(&"B"));

        let e = g.find_edge(n[0], n[1]).unwrap();
        assert_eq!(g.edge_weight(e), Some(&1));
        *g.edge_weight_mut(e).unwrap() = 10;
        assert_eq!(g.edge_weight(e), Some(&10));
    }

    #[test]
    fn endpoints_and_degrees() {
        let (g, n) = sample();
        let e = g.find_edge(n[2], n[0]).unwrap();
        assert_eq!(g.edge_endpoints(e), Some((n[2], n[0])));
        assert_eq!(g.out_degree(n[0]), 1);
        assert_eq!(g.in_degree(n[0]), 1);
        assert_eq!(g.successors(n[0]).collect::<Vec<_>>(), vec![n[1]]);
        assert_eq!(g.predecessors(n[0]).collect::<Vec<_>>(), vec![n[2]]);
    }

    #[test]
    fn remove_edge_is_logical() {
        let (mut g, n) = sample();
        let e = g.find_edge(n[0], n[1]).unwrap();
        assert!(g.remove_edge(e));
        assert!(!g.remove_edge(e), "double removal reports false");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(e), None);
        assert_eq!(g.edge_endpoints(e), None);
        assert!(!g.has_edge(n[0], n[1]));
        assert_eq!(g.out_degree(n[0]), 0);
        // Other edges unaffected.
        assert!(g.has_edge(n[1], n[2]));
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.successors(a).count(), 2);
    }

    #[test]
    fn find_edge_skips_removed_parallel_edge() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e1 = g.add_edge(a, b, 1);
        let e2 = g.add_edge(a, b, 2);
        g.remove_edge(e1);
        assert_eq!(g.find_edge(a, b), Some(e2));
    }

    #[test]
    fn map_preserves_shape() {
        let (g, n) = sample();
        let mapped = g.map(|id, s| format!("{id}:{s}"), |_, w| *w as u64 * 2);
        assert_eq!(mapped.node_count(), 3);
        assert_eq!(mapped.edge_count(), 3);
        let e = mapped.find_edge(n[0], n[1]).unwrap();
        assert_eq!(mapped.edge_weight(e), Some(&2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_with_foreign_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::from_index(5), ());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::from_index(3).to_string(), "n3");
        assert_eq!(EdgeId::from_index(4).to_string(), "e4");
    }
}
