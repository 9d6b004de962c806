//! The Channel Dependency Graph (Definition 4).
//!
//! Vertices are channels (physical link + VC); there is an edge from channel
//! `ci` to channel `cj` when at least one route uses `ci` immediately
//! followed by `cj`.  A cycle in this graph is a necessary condition for a
//! routing-level deadlock under wormhole flow control (Dally & Towles), so
//! "deadlock-free" for this suite means "the CDG is acyclic".
//!
//! # Incremental maintenance
//!
//! The removal loop used to rebuild the whole CDG after every cycle break,
//! even though a break only touches the dependencies of the flows it
//! re-routes.  [`Cdg::remove_flow_deps`] / [`Cdg::add_flow_deps`] apply
//! exactly that per-flow delta: they maintain the per-edge flow multiset and
//! drop/create dependency edges as flows leave/enter channel pairs, while a
//! [`CdgDelta`] records how many dependencies changed and which vertices
//! they touched (a diagnostic; the next cycle query does not read it).
//!
//! There is one cycle query, [`Cdg::smallest_cycle`], a from-scratch scan
//! of the current graph.  It ranks vertices by their [`Channel`] (not by
//! internal node id), so an incrementally maintained CDG answers it
//! identically to a freshly rebuilt one over the same topology and routes —
//! the equivalence the incremental removal loop is tested against.

use noc_graph::{cycles, DiGraph, NodeId};
use noc_routing::RouteSet;
use noc_topology::{Channel, FlowId, Topology};

/// The channel dependency graph of a routed design.
#[derive(Debug, Clone)]
pub struct Cdg {
    graph: DiGraph<Channel, Vec<FlowId>>,
    /// Dense channel-to-node index: `index[link][vc]` holds the node index,
    /// or `usize::MAX` when the channel has no vertex yet.  Links and VC
    /// indices are small and dense, so this replaces a `HashMap<Channel, _>`
    /// on the hot build/update paths.
    index: Vec<Vec<usize>>,
}

/// Bookkeeping of one incremental CDG update (one cycle-break iteration):
/// how many dependency edges changed and which vertices they touched.
#[derive(Debug, Clone, Default)]
pub struct CdgDelta {
    /// Dependency edges that lost their last flow and were removed.
    pub deps_removed: usize,
    /// Dependency edges newly created for a first-time channel pair.
    pub deps_added: usize,
    /// Channel vertices created during the update (new VCs).
    pub channels_added: usize,
    /// Vertices incident to a removed or added dependency edge, with
    /// duplicates; use [`touched_nodes`](Self::touched_nodes) for the
    /// deduplicated set.
    touched: Vec<NodeId>,
}

impl CdgDelta {
    /// The deduplicated, sorted set of vertices incident to changed edges —
    /// the region of the graph this update could have changed.
    pub fn touched_nodes(&mut self) -> &[NodeId] {
        self.touched.sort();
        self.touched.dedup();
        &self.touched
    }
}

impl Cdg {
    /// Builds the CDG of `routes` over `topology` (Step 2 of Algorithm 1).
    ///
    /// Every channel of the topology becomes a vertex (channels never used by
    /// any route are isolated vertices and can obviously not take part in a
    /// cycle); every consecutive channel pair of every route contributes a
    /// dependency edge annotated with the flows that create it.
    pub fn build(topology: &Topology, routes: &RouteSet) -> Self {
        let graph = DiGraph::with_capacity(topology.channel_count(), routes.flow_count() * 2);
        let mut cdg = Cdg {
            graph,
            index: Vec::new(),
        };
        for channel in topology.channels() {
            let node = cdg.graph.add_node(channel);
            cdg.index_insert(channel, node);
        }
        for (flow, route) in routes.iter() {
            let channels = route.channels();
            for pair in channels.windows(2) {
                cdg.add_dependency(pair[0], pair[1], flow);
            }
        }
        cdg
    }

    /// Looks up the vertex of `channel` in the dense index.
    fn index_get(&self, channel: Channel) -> Option<NodeId> {
        let slot = *self.index.get(channel.link.index())?.get(channel.vc)?;
        (slot != usize::MAX).then(|| NodeId::from_index(slot))
    }

    /// Records `channel -> node` in the dense index, growing it as needed.
    fn index_insert(&mut self, channel: Channel, node: NodeId) {
        let link = channel.link.index();
        if link >= self.index.len() {
            self.index.resize_with(link + 1, Vec::new);
        }
        let row = &mut self.index[link];
        if channel.vc >= row.len() {
            row.resize(channel.vc + 1, usize::MAX);
        }
        row[channel.vc] = node.index();
    }

    fn node_of(&mut self, channel: Channel) -> NodeId {
        if let Some(node) = self.index_get(channel) {
            node
        } else {
            let node = self.graph.add_node(channel);
            self.index_insert(channel, node);
            node
        }
    }

    /// Adds the dependency `from -> to` caused by `flow`, creating vertices
    /// as needed and merging parallel dependencies into one edge.
    pub fn add_dependency(&mut self, from: Channel, to: Channel, flow: FlowId) {
        let from_node = self.node_of(from);
        let to_node = self.node_of(to);
        if let Some(edge) = self.graph.find_edge(from_node, to_node) {
            let flows = self
                .graph
                .edge_weight_mut(edge)
                .expect("edge found above is live");
            if !flows.contains(&flow) {
                flows.push(flow);
            }
        } else {
            self.graph.add_edge(from_node, to_node, vec![flow]);
        }
    }

    /// Creates a vertex for `channel` if it does not have one yet (new VCs
    /// added by a cycle break), counting the creation in `delta`.
    pub fn register_channel(&mut self, channel: Channel, delta: &mut CdgDelta) {
        if self.index_get(channel).is_none() {
            self.node_of(channel);
            delta.channels_added += 1;
        }
    }

    /// Removes the dependencies the route `channels` (the flow's route
    /// *before* a re-route) contributed for `flow`: the flow leaves the
    /// multiset of every consecutive pair, and a dependency edge whose last
    /// flow leaves is removed from the graph (its endpoints join the delta's
    /// touched set).
    ///
    /// Pairs the flow does not actually sit on are skipped, which makes the
    /// call idempotent and lets routes that cross the same pair twice be
    /// removed with a single linear scan.
    pub fn remove_flow_deps(&mut self, flow: FlowId, channels: &[Channel], delta: &mut CdgDelta) {
        for pair in channels.windows(2) {
            let (Some(from), Some(to)) = (self.index_get(pair[0]), self.index_get(pair[1])) else {
                continue;
            };
            let Some(edge) = self.graph.find_edge(from, to) else {
                continue;
            };
            let flows = self
                .graph
                .edge_weight_mut(edge)
                .expect("edge found above is live");
            let before = flows.len();
            flows.retain(|&f| f != flow);
            if flows.len() == before {
                continue; // second crossing of the same pair, already removed
            }
            if flows.is_empty() {
                self.graph.remove_edge(edge);
                delta.deps_removed += 1;
                delta.touched.push(from);
                delta.touched.push(to);
            }
        }
    }

    /// Adds the dependencies the route `channels` (the flow's route *after*
    /// a re-route) contributes for `flow`.  Newly created dependency edges
    /// join the delta's touched set; pairs that already carry other flows
    /// only gain a multiset entry and leave the cycle structure untouched.
    pub fn add_flow_deps(&mut self, flow: FlowId, channels: &[Channel], delta: &mut CdgDelta) {
        for pair in channels.windows(2) {
            let from = self.node_of(pair[0]);
            let to = self.node_of(pair[1]);
            if let Some(edge) = self.graph.find_edge(from, to) {
                let flows = self
                    .graph
                    .edge_weight_mut(edge)
                    .expect("edge found above is live");
                if !flows.contains(&flow) {
                    flows.push(flow);
                }
            } else {
                self.graph.add_edge(from, to, vec![flow]);
                delta.deps_added += 1;
                delta.touched.push(from);
                delta.touched.push(to);
            }
        }
    }

    /// Number of channel vertices.
    pub fn channel_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of dependency edges.
    pub fn dependency_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Returns `true` when the CDG has no directed cycle, i.e. the routed
    /// design is deadlock-free.
    pub fn is_acyclic(&self) -> bool {
        cycles::is_acyclic(&self.graph)
    }

    /// Returns the smallest cycle as an ordered channel list
    /// (`GetSmallestCycle` of Algorithm 1), or `None` when acyclic.
    ///
    /// Vertices are ranked by their [`Channel`] (link, then VC), not by
    /// internal node id, so the answer depends only on which dependencies
    /// exist — a freshly built CDG and an incrementally maintained one
    /// return the same cycle for the same design.
    pub fn smallest_cycle(&self) -> Option<Vec<Channel>> {
        cycles::smallest_cycle_by(&self.graph, |n| self.channel_of(n)).map(|c| self.to_channels(c))
    }

    /// The channel ranking of the cycle query.
    fn channel_of(&self, node: NodeId) -> Channel {
        *self.graph.node_weight(node).expect("cycle nodes are valid")
    }

    /// Maps a node cycle back to the channel list the removal loop works on.
    fn to_channels(&self, cycle: Vec<NodeId>) -> Vec<Channel> {
        cycle.into_iter().map(|n| self.channel_of(n)).collect()
    }

    /// The flows responsible for the dependency `from -> to`, if that edge
    /// exists.
    pub fn dependency_flows(&self, from: Channel, to: Channel) -> Option<&[FlowId]> {
        let from_node = self.index_get(from)?;
        let to_node = self.index_get(to)?;
        let edge = self.graph.find_edge(from_node, to_node)?;
        self.graph.edge_weight(edge).map(Vec::as_slice)
    }

    /// Returns `true` if the CDG has a dependency edge `from -> to`.
    pub fn has_dependency(&self, from: Channel, to: Channel) -> bool {
        self.dependency_flows(from, to).is_some()
    }

    /// Iterates over all dependencies as `(from, to, flows)`.
    pub fn dependencies(&self) -> impl Iterator<Item = (Channel, Channel, &[FlowId])> + '_ {
        self.graph.edges().map(move |e| {
            (
                *self.graph.node_weight(e.source).expect("valid node"),
                *self.graph.node_weight(e.target).expect("valid node"),
                e.weight.as_slice(),
            )
        })
    }

    /// Borrow the underlying graph (for SCC, knot and path queries).
    pub fn graph(&self) -> &DiGraph<Channel, Vec<FlowId>> {
        &self.graph
    }

    /// The flows that contribute a dependency *inside* a cyclic
    /// strongly-connected component — the flows whose packets can
    /// participate in a runtime deadlock (and the set a cycle-exercising
    /// stress workload should press on).  Empty iff the CDG is acyclic.
    /// Sorted, deduplicated.
    pub fn cyclic_flows(&self) -> Vec<FlowId> {
        let components = noc_graph::scc::cyclic_components(&self.graph);
        if components.is_empty() {
            return Vec::new();
        }
        let mut component_of = vec![usize::MAX; self.graph.node_count()];
        for (index, component) in components.iter().enumerate() {
            for &node in component {
                component_of[node.index()] = index;
            }
        }
        let mut flows: Vec<FlowId> = self
            .graph
            .edges()
            .filter(|e| {
                let source = component_of[e.source.index()];
                source != usize::MAX && source == component_of[e.target.index()]
            })
            .flat_map(|e| e.weight.iter().copied())
            .collect();
        flows.sort();
        flows.dedup();
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_routing::Route;
    use noc_topology::{CommGraph, CoreMap, LinkId};

    /// The paper's running example: 4-switch unidirectional ring (Figure 1)
    /// with flows F1..F4 whose routes are R1 = {L1,L2,L3}, R2 = {L3,L4},
    /// R3 = {L4,L1}, R4 = {L1,L2} (link indices shifted to 0-based).
    fn figure_1_design() -> (Topology, RouteSet) {
        let mut topo = Topology::new();
        let sw: Vec<_> = (1..=4).map(|i| topo.add_switch(format!("SW{i}"))).collect();
        let links: Vec<LinkId> = (0..4)
            .map(|i| topo.add_link(sw[i], sw[(i + 1) % 4], 1.0))
            .collect();
        let mut routes = RouteSet::new(4);
        routes.set_route(
            FlowId::from_index(0),
            Route::from_links([links[0], links[1], links[2]]),
        );
        routes.set_route(
            FlowId::from_index(1),
            Route::from_links([links[2], links[3]]),
        );
        routes.set_route(
            FlowId::from_index(2),
            Route::from_links([links[3], links[0]]),
        );
        routes.set_route(
            FlowId::from_index(3),
            Route::from_links([links[0], links[1]]),
        );
        (topo, routes)
    }

    #[test]
    fn figure_2_cdg_shape() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        assert_eq!(cdg.channel_count(), 4);
        // Dependencies: L0->L1 (F1,F4), L1->L2 (F1), L2->L3 (F2), L3->L0 (F3).
        assert_eq!(cdg.dependency_count(), 4);
        let l = |i| Channel::base(LinkId::from_index(i));
        assert_eq!(
            cdg.dependency_flows(l(0), l(1)).unwrap(),
            &[FlowId::from_index(0), FlowId::from_index(3)]
        );
        assert!(cdg.has_dependency(l(1), l(2)));
        assert!(cdg.has_dependency(l(2), l(3)));
        assert!(cdg.has_dependency(l(3), l(0)));
        assert!(!cdg.has_dependency(l(0), l(2)));
    }

    #[test]
    fn figure_2_cdg_is_cyclic_with_a_4_cycle() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        assert!(!cdg.is_acyclic());
        let cycle = cdg.smallest_cycle().unwrap();
        assert_eq!(cycle.len(), 4);
    }

    #[test]
    fn figure_3_rerouting_f3_onto_a_new_vc_breaks_the_cycle() {
        // The paper's manual fix: add L1' (a new VC on link L1, our link 0)
        // and re-route F3 = {L4, L1} onto {L4, L1'}.
        let (mut topo, mut routes) = figure_1_design();
        let l0 = LinkId::from_index(0);
        let new_channel = topo.add_vc(l0).unwrap();
        let f3 = FlowId::from_index(2);
        routes.route_mut(f3).unwrap().channels_mut()[1] = new_channel;
        let cdg = Cdg::build(&topo, &routes);
        assert!(cdg.is_acyclic());
        assert_eq!(cdg.channel_count(), 5);
    }

    #[test]
    fn cyclic_flows_names_every_flow_of_the_ring_knot() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        // All four channels are one cyclic SCC; every flow contributes a
        // dependency inside it.
        assert_eq!(
            cdg.cyclic_flows(),
            (0..4).map(FlowId::from_index).collect::<Vec<_>>()
        );
        // After the paper's manual fix the CDG is acyclic: no flow can
        // participate in a deadlock.
        let (mut topo, mut routes) = figure_1_design();
        let new_channel = topo.add_vc(LinkId::from_index(0)).unwrap();
        routes
            .route_mut(FlowId::from_index(2))
            .unwrap()
            .channels_mut()[1] = new_channel;
        let cdg = Cdg::build(&topo, &routes);
        assert!(cdg.cyclic_flows().is_empty());
    }

    #[test]
    fn empty_routes_produce_an_acyclic_cdg() {
        let (topo, _) = figure_1_design();
        let routes = RouteSet::new(4);
        let cdg = Cdg::build(&topo, &routes);
        assert!(cdg.is_acyclic());
        assert_eq!(cdg.dependency_count(), 0);
        assert_eq!(cdg.channel_count(), 4);
        assert!(cdg.smallest_cycle().is_none());
    }

    #[test]
    fn parallel_flows_merge_into_one_dependency_edge() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        let l = |i| Channel::base(LinkId::from_index(i));
        // Adding the same dependency again for an existing flow must not
        // duplicate the flow entry.
        let mut cdg2 = cdg.clone();
        cdg2.add_dependency(l(0), l(1), FlowId::from_index(0));
        assert_eq!(cdg2.dependency_flows(l(0), l(1)).unwrap().len(), 2);
        assert_eq!(cdg2.dependency_count(), 4);
    }

    #[test]
    fn dependencies_iterator_matches_counts() {
        let (topo, routes) = figure_1_design();
        let cdg = Cdg::build(&topo, &routes);
        assert_eq!(cdg.dependencies().count(), cdg.dependency_count());
        let total_flow_refs: usize = cdg.dependencies().map(|(_, _, f)| f.len()).sum();
        assert_eq!(total_flow_refs, 5); // F1 twice, F2, F3, F4 once each
    }

    /// Applies a re-route of `flow` from `old` to `new` as an incremental
    /// delta and returns the delta bookkeeping.
    fn apply_reroute(cdg: &mut Cdg, flow: FlowId, old: &[Channel], new: &[Channel]) -> CdgDelta {
        let mut delta = CdgDelta::default();
        cdg.remove_flow_deps(flow, old, &mut delta);
        cdg.add_flow_deps(flow, new, &mut delta);
        delta
    }

    /// The incremental CDG and a from-scratch rebuild must agree on the
    /// dependency structure: same edges, same flow sets, same smallest
    /// cycle.
    fn assert_structurally_equal(incremental: &Cdg, rebuilt: &Cdg) {
        assert_eq!(incremental.dependency_count(), rebuilt.dependency_count());
        for (from, to, flows) in rebuilt.dependencies() {
            let mut expected: Vec<FlowId> = flows.to_vec();
            expected.sort();
            let mut actual: Vec<FlowId> = incremental
                .dependency_flows(from, to)
                .unwrap_or_else(|| panic!("missing dependency {from} -> {to}"))
                .to_vec();
            actual.sort();
            assert_eq!(actual, expected, "flow set of {from} -> {to}");
        }
        assert_eq!(incremental.smallest_cycle(), rebuilt.smallest_cycle());
    }

    #[test]
    fn incremental_reroute_matches_rebuild() {
        // Re-route F3 of the Figure 1 ring onto a fresh VC (the paper's
        // manual Figure 3 fix), applied as a delta, and compare against a
        // from-scratch build of the updated design.
        let (mut topo, mut routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        let f3 = FlowId::from_index(2);
        let old: Vec<Channel> = routes.route(f3).unwrap().channels().to_vec();

        let new_channel = topo.add_vc(LinkId::from_index(0)).unwrap();
        routes.route_mut(f3).unwrap().channels_mut()[1] = new_channel;
        let new: Vec<Channel> = routes.route(f3).unwrap().channels().to_vec();

        let mut delta = CdgDelta::default();
        cdg.register_channel(new_channel, &mut delta);
        cdg.remove_flow_deps(f3, &old, &mut delta);
        cdg.add_flow_deps(f3, &new, &mut delta);

        assert_eq!(delta.channels_added, 1);
        assert_eq!(delta.deps_removed, 1, "L3 -> L0 had only F3");
        assert_eq!(delta.deps_added, 1, "L3 -> L0' is new");
        assert!(!delta.touched_nodes().is_empty());
        assert!(cdg.is_acyclic());
        assert_structurally_equal(&cdg, &Cdg::build(&topo, &routes));
    }

    #[test]
    fn removing_one_flow_of_a_shared_dependency_keeps_the_edge() {
        let (topo, routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        let l = |i| Channel::base(LinkId::from_index(i));
        // L0 -> L1 is carried by F1 and F4; removing F1's route must keep it.
        let f1 = FlowId::from_index(0);
        let old: Vec<Channel> = routes.route(f1).unwrap().channels().to_vec();
        let delta = apply_reroute(&mut cdg, f1, &old, &[]);
        assert!(cdg.has_dependency(l(0), l(1)));
        assert_eq!(cdg.dependency_flows(l(0), l(1)).unwrap().len(), 1);
        // F1 alone carried L1 -> L2.
        assert!(!cdg.has_dependency(l(1), l(2)));
        assert_eq!(delta.deps_removed, 1);
        assert_eq!(delta.deps_added, 0);
    }

    #[test]
    fn remove_flow_deps_is_idempotent_and_handles_double_crossings() {
        // A route crossing the same pair twice: removal must strip the
        // membership once, tolerate the second window, and a repeat call
        // must be a no-op.
        let mut topo = Topology::new();
        let s0 = topo.add_switch("s0");
        let s1 = topo.add_switch("s1");
        let l: Vec<Channel> = (0..3)
            .map(|_| Channel::base(topo.add_link(s0, s1, 1.0)))
            .collect();
        let (a, b, w) = (l[0], l[1], l[2]);
        let mut routes = RouteSet::new(1);
        let flow = FlowId::from_index(0);
        routes.set_route(flow, Route::new(vec![a, b, w, a, b]));
        let mut cdg = Cdg::build(&topo, &routes);
        assert_eq!(cdg.dependency_count(), 3); // a->b (twice, merged), b->w, w->a

        let old: Vec<Channel> = routes.route(flow).unwrap().channels().to_vec();
        let mut delta = CdgDelta::default();
        cdg.remove_flow_deps(flow, &old, &mut delta);
        assert_eq!(delta.deps_removed, 3);
        assert_eq!(cdg.dependency_count(), 0);

        let mut repeat = CdgDelta::default();
        cdg.remove_flow_deps(flow, &old, &mut repeat);
        assert_eq!(repeat.deps_removed, 0, "second removal is a no-op");
    }

    #[test]
    fn register_channel_is_idempotent() {
        let (topo, routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        let fresh = Channel::new(LinkId::from_index(0), 1);
        let mut delta = CdgDelta::default();
        cdg.register_channel(fresh, &mut delta);
        cdg.register_channel(fresh, &mut delta);
        assert_eq!(delta.channels_added, 1);
        assert_eq!(cdg.channel_count(), 5);
    }

    #[test]
    fn smallest_cycle_follows_an_incremental_reroute() {
        let (mut topo, mut routes) = figure_1_design();
        let mut cdg = Cdg::build(&topo, &routes);
        assert_eq!(cdg.smallest_cycle().map(|c| c.len()), Some(4));

        // Apply the Figure 3 reroute incrementally: the next query must see
        // the patched graph without any hint about where it changed.
        let f3 = FlowId::from_index(2);
        let old: Vec<Channel> = routes.route(f3).unwrap().channels().to_vec();
        let new_channel = topo.add_vc(LinkId::from_index(0)).unwrap();
        routes.route_mut(f3).unwrap().channels_mut()[1] = new_channel;
        let new: Vec<Channel> = routes.route(f3).unwrap().channels().to_vec();
        let mut delta = CdgDelta::default();
        cdg.register_channel(new_channel, &mut delta);
        cdg.remove_flow_deps(f3, &old, &mut delta);
        cdg.add_flow_deps(f3, &new, &mut delta);
        assert_eq!(cdg.smallest_cycle(), None);
    }

    #[test]
    fn xy_routed_mesh_has_acyclic_cdg() {
        // Classic result: dimension-order routing on a mesh is deadlock-free.
        use noc_routing::xy::{route_all_xy, MeshCoords};
        use noc_topology::generators;
        let generated = generators::mesh2d(3, 3, 1.0);
        let coords = MeshCoords::new(3, 3, generated.switches.clone());
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..9).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..9 {
            for j in 0..9 {
                if i != j {
                    comm.add_flow(cores[i], cores[j], 1.0);
                }
            }
        }
        let mut map = CoreMap::new(9);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes = route_all_xy(&generated.topology, &comm, &map, &coords).unwrap();
        let cdg = Cdg::build(&generated.topology, &routes);
        assert!(cdg.is_acyclic());
    }
}
