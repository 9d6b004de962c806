//! The fault-model seam: scheduled runtime faults and the transient
//! dependency graph behind cycle-safe live reconfiguration.
//!
//! A [`FaultPlan`] is the *scenario*: seeded link/switch failures (and
//! optional repairs) at scheduled cycles, either hand-written or produced by
//! the [fault-storm generator](FaultPlan::storm).  The
//! [`VcSimulator`](crate::VcSimulator) consumes the plan via
//! `with_faults`: on each fault batch it invalidates the affected flows,
//! re-routes them onto surviving up*/down* paths and migrates traffic
//! old→new *without a global drain* — an epoch only commits after the
//! transient combined dependency graph (committed routes of every flow plus
//! the residual old-route segments of in-flight worms) has been checked
//! acyclic on the incrementally maintained dependency graph.
//!
//! This mirrors the two reconfiguration schools named in the related work:
//! DBR's recovery-based scheme (drain only what is provably entangled) and
//! Remote Control's avoidance scheme (never let an unsafe configuration
//! become active in the first place).

use noc_graph::{scc, DiGraph, NodeId};
use noc_rng::SmallRng;
use noc_topology::{FaultSet, LinkId, SwitchId, Topology};
use std::collections::HashMap;

/// One scheduled fault or repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The link fails: no flit may traverse it from this cycle on.  The
    /// simulator treats this as a physical cable fault — the reverse twin
    /// of a bidirectional pair goes down with it.
    LinkDown(LinkId),
    /// A previously failed link (and its reverse twin) is repaired.
    LinkUp(LinkId),
    /// The switch fails, taking every incident link down with it.
    SwitchDown(SwitchId),
    /// A previously failed switch is repaired.
    SwitchUp(SwitchId),
}

/// A fault or repair scheduled at a simulation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle the fault takes effect (processed at the start of the cycle).
    pub cycle: u64,
    /// What fails or recovers.
    pub kind: FaultKind,
}

/// Parameters of the seeded fault-storm generator ([`FaultPlan::storm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormConfig {
    /// Number of link failures to inject.
    pub faults: usize,
    /// Cycle of the first failure.
    pub first_cycle: u64,
    /// Cycles between consecutive failures.
    pub spacing: u64,
    /// RNG seed; the same seed over the same topology yields the same plan.
    pub seed: u64,
    /// When set, every failed link is repaired this many cycles later.
    pub repair_after: Option<u64>,
    /// Resample candidates whose failure would split the fabric into more
    /// components than it started with (bounded retries, so a storm on a
    /// fragile topology may still partition it — the harness checks
    /// [`connectivity_after`](noc_topology::Topology::connectivity_after)
    /// rather than trusting the flag).
    pub avoid_partition: bool,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            faults: 3,
            first_cycle: 200,
            spacing: 400,
            seed: 0xFA_17,
            repair_after: None,
            avoid_partition: true,
        }
    }
}

/// A schedule of runtime faults and repairs, sorted by cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a run with it armed is byte-identical to a run
    /// without the fault seam at all (pinned by the property suite).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit events (stably sorted by cycle, so same-cycle
    /// events keep their given order and apply as one batch).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.cycle);
        FaultPlan { events }
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, sorted by cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Cycle of the last scheduled event (fault or repair), if any.
    pub fn last_event_cycle(&self) -> Option<u64> {
        self.events.last().map(|e| e.cycle)
    }

    /// Replays the whole plan into a [`FaultSet`] with the simulator's
    /// cable-fault (pair) semantics: the cumulative failure state after the
    /// last event.  Harnesses use it with
    /// [`connectivity_after`](Topology::connectivity_after) to predict
    /// which flows a plan leaves unreachable.
    pub fn final_faults(&self, topology: &Topology) -> FaultSet {
        let mut down = FaultSet::new(topology);
        for event in &self.events {
            match event.kind {
                FaultKind::LinkDown(link) => down.fail_link_pair(topology, link),
                FaultKind::LinkUp(link) => down.repair_link_pair(topology, link),
                FaultKind::SwitchDown(switch) => down.fail_switch(switch),
                FaultKind::SwitchUp(switch) => down.repair_switch(switch),
            }
        }
        down
    }

    /// Generates a seeded link-failure storm: `config.faults` distinct
    /// links fail at `first_cycle`, `first_cycle + spacing`, … (each
    /// repaired `repair_after` cycles later when configured).
    ///
    /// With [`avoid_partition`](StormConfig::avoid_partition) set,
    /// candidates that would increase the fabric's component count are
    /// resampled a bounded number of times, so storms on well-connected
    /// topologies keep every flow routable — the regime the `fig_faults`
    /// acceptance invariant (every strategy delivers through the storm)
    /// is asserted over.
    pub fn storm(topology: &Topology, config: &StormConfig) -> Self {
        let link_count = topology.link_count();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut down = FaultSet::new(topology);
        let baseline = topology.connectivity_after(&down).component_count();
        // A link fault is a cable fault (both directions of a pair), so a
        // chosen link excludes its reverse twin from later picks.
        let mut excluded: Vec<LinkId> = Vec::new();
        let mut events = Vec::new();
        for k in 0..config.faults {
            if excluded.len() >= link_count {
                break; // nothing left to fail
            }
            let mut pick = None;
            for attempt in 0..(8 * link_count.max(1)) {
                let cand = LinkId::from_index(rng.gen_range(0..link_count));
                if excluded.contains(&cand) {
                    continue;
                }
                if config.avoid_partition {
                    down.fail_link_pair(topology, cand);
                    let split = topology.connectivity_after(&down).component_count() > baseline;
                    if split && attempt + 1 < 8 * link_count.max(1) {
                        down.repair_link_pair(topology, cand);
                        continue;
                    }
                }
                pick = Some(cand);
                break;
            }
            let Some(link) = pick else { break };
            if !config.avoid_partition {
                down.fail_link_pair(topology, link);
            }
            excluded.push(link);
            if let Some(l) = topology.link(link) {
                if let Some(reverse) = topology.find_link(l.target, l.source) {
                    excluded.push(reverse);
                }
            }
            let at = config.first_cycle + k as u64 * config.spacing;
            events.push(FaultEvent {
                cycle: at,
                kind: FaultKind::LinkDown(link),
            });
            if let Some(delay) = config.repair_after {
                events.push(FaultEvent {
                    cycle: at + delay,
                    kind: FaultKind::LinkUp(link),
                });
            }
        }
        FaultPlan::new(events)
    }
}

/// The incrementally maintained dependency graph the epoch protocol checks.
///
/// Nodes are the simulator's dense channels (link × VC); edges are
/// refcounted "holding this channel, the worm next needs that one" pairs
/// contributed by committed flow routes and, transiently during an epoch
/// check, by the residual old-route segments of in-flight worms.  Acyclicity
/// queries run Tarjan over the whole graph.
#[derive(Debug)]
pub(crate) struct DepGraph {
    graph: DiGraph<usize, ()>,
    nodes: Vec<NodeId>,
    refs: HashMap<(usize, usize), usize>,
}

impl DepGraph {
    /// An edgeless graph over `channel_count` dense channels.
    pub fn new(channel_count: usize) -> Self {
        let mut graph = DiGraph::new();
        let nodes: Vec<NodeId> = (0..channel_count).map(|c| graph.add_node(c)).collect();
        DepGraph {
            graph,
            nodes,
            refs: HashMap::new(),
        }
    }

    /// Adds the consecutive-channel dependencies of one path.
    pub fn add_path(&mut self, path: &[usize]) {
        for pair in path.windows(2) {
            self.add_edge(pair[0], pair[1]);
        }
    }

    /// Removes the dependencies previously added for `path`.
    pub fn remove_path(&mut self, path: &[usize]) {
        for pair in path.windows(2) {
            self.remove_edge(pair[0], pair[1]);
        }
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        let count = self.refs.entry((from, to)).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.graph.add_edge(self.nodes[from], self.nodes[to], ());
        }
    }

    fn remove_edge(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        let Some(count) = self.refs.get_mut(&(from, to)) else {
            debug_assert!(false, "removing dependency {from}->{to} never added");
            return;
        };
        *count -= 1;
        if *count == 0 {
            self.refs.remove(&(from, to));
            let edge = self
                .graph
                .find_edge(self.nodes[from], self.nodes[to])
                .expect("refcounted edge exists in the graph");
            self.graph.remove_edge(edge);
        }
    }

    /// Dense channels on cycles (members of non-trivial SCCs), sorted.
    pub fn cyclic_channels(&self) -> Vec<usize> {
        let _span = noc_telemetry::span("scc", "full_tarjan");
        let mut channels: Vec<usize> = scc::cyclic_components(&self.graph)
            .into_iter()
            .flatten()
            .map(|n| n.index())
            .collect();
        channels.sort_unstable();
        channels
    }

    /// `true` when any dependency cycle exists.
    pub fn is_cyclic(&self) -> bool {
        !self.cyclic_channels().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::generators;

    #[test]
    fn none_plan_is_empty() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.events(), &[]);
        assert_eq!(plan.last_event_cycle(), None);
    }

    #[test]
    fn plans_sort_stably_by_cycle() {
        let l = |i| LinkId::from_index(i);
        let plan = FaultPlan::new(vec![
            FaultEvent {
                cycle: 300,
                kind: FaultKind::LinkDown(l(2)),
            },
            FaultEvent {
                cycle: 100,
                kind: FaultKind::LinkDown(l(0)),
            },
            FaultEvent {
                cycle: 300,
                kind: FaultKind::LinkUp(l(0)),
            },
        ]);
        let cycles: Vec<u64> = plan.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![100, 300, 300]);
        // Stable: the same-cycle pair keeps its given order.
        assert_eq!(plan.events()[1].kind, FaultKind::LinkDown(l(2)));
        assert_eq!(plan.last_event_cycle(), Some(300));
    }

    #[test]
    fn storm_is_deterministic_and_distinct() {
        let topo = generators::mesh2d(3, 3, 1.0).topology;
        let config = StormConfig::default();
        let a = FaultPlan::storm(&topo, &config);
        let b = FaultPlan::storm(&topo, &config);
        assert_eq!(a, b, "same seed, same storm");
        assert_eq!(a.events().len(), 3);
        let mut links: Vec<LinkId> = a
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::LinkDown(l) => l,
                other => panic!("storms without repairs only fail links: {other:?}"),
            })
            .collect();
        links.sort();
        links.dedup();
        assert_eq!(links.len(), 3, "failed links are distinct");
        let other = FaultPlan::storm(&topo, &StormConfig { seed: 99, ..config });
        assert_ne!(a, other, "different seeds explore different storms");
    }

    #[test]
    fn storm_with_repairs_schedules_matching_ups() {
        let topo = generators::mesh2d(3, 3, 1.0).topology;
        let plan = FaultPlan::storm(
            &topo,
            &StormConfig {
                faults: 2,
                repair_after: Some(150),
                ..StormConfig::default()
            },
        );
        let downs: Vec<&FaultEvent> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkDown(_)))
            .collect();
        let ups: Vec<&FaultEvent> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkUp(_)))
            .collect();
        assert_eq!(downs.len(), 2);
        assert_eq!(ups.len(), 2);
        for (down, up) in downs.iter().zip(&ups) {
            assert_eq!(up.cycle, down.cycle + 150);
        }
    }

    #[test]
    fn storm_avoids_partition_on_a_mesh() {
        // Faults are cable faults (both directions of a pair), so on a
        // 3×3 mesh a careless 3-fault storm can isolate a corner; the
        // avoiding generator must keep the mesh in one piece under the
        // same pair semantics the simulator applies.
        let topo = generators::mesh2d(3, 3, 1.0).topology;
        for seed in 0..20 {
            let plan = FaultPlan::storm(
                &topo,
                &StormConfig {
                    faults: 3,
                    seed,
                    ..StormConfig::default()
                },
            );
            let mut down = FaultSet::new(&topo);
            for event in plan.events() {
                if let FaultKind::LinkDown(link) = event.kind {
                    down.fail_link_pair(&topo, link);
                }
            }
            assert!(
                topo.connectivity_after(&down).is_fully_connected(),
                "seed {seed} partitioned the mesh"
            );
        }
    }

    #[test]
    fn dep_graph_refcounts_and_detects_cycles() {
        let mut dep = DepGraph::new(4);
        assert!(!dep.is_cyclic());
        dep.add_path(&[0, 1, 2]);
        dep.add_path(&[1, 2, 3]); // 1->2 now refcounted twice
        assert!(!dep.is_cyclic());
        dep.add_path(&[3, 0]);
        // 0->1->2->3->0 closes the loop.
        assert_eq!(dep.cyclic_channels(), vec![0, 1, 2, 3]);
        dep.remove_path(&[0, 1, 2]);
        // 1->2 survives (still referenced by the second path), but 0->1 is
        // gone, so the cycle is broken.
        assert!(!dep.is_cyclic());
        dep.remove_path(&[1, 2, 3]);
        dep.remove_path(&[3, 0]);
        assert!(!dep.is_cyclic());
    }
}
