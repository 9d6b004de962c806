//! The VC-fidelity wormhole simulation engine.
//!
//! The engine walks routes hop by hop and models the properties that decide
//! deadlock behaviour:
//!
//! * buffer space is one input buffer per **(physical link × VC)** sized
//!   from the strategy's [`VcMap`], with
//!   explicit credit-based flow control ([`crate::credit`]);
//! * which VC a head flit requests is a pluggable [`VcPolicy`]
//!   ([`crate::policy`]): honour the strategy's static assignment, use it
//!   adaptively Duato-style, or deliberately ignore it (the unsafe
//!   single-VC baseline that makes VC budgets measurable);
//! * deadlock is decided **exactly** from the flit wait-for graph
//!   ([`crate::detect`]) — the check runs every
//!   [`detect_period`](VcSimConfig::detect_period) cycles and on every
//!   cycle without movement, so a knot is established within one period of
//!   forming (even while unrelated traffic still moves) and never later
//!   than the idle timeout, which is kept only as a configurable fallback;
//! * optionally, detected deadlocks are *drained* DBR-style: the knotted
//!   packets are pulled back to their sources, their flows are permanently
//!   reconfigured onto a deadlock-free recovery routing function, and the
//!   run continues — the dynamic execution of the `RecoveryReconfig`
//!   strategy.

use crate::credit::CreditBook;
use crate::detect::{ChannelWait, InjectionWait, WaitForSnapshot, WaitTarget};
use crate::fault::{DepGraph, FaultKind, FaultPlan};
use crate::packet::{Flit, FlitKind, Packet, PacketId};
use crate::policy::{VcChoice, VcPolicy};
use crate::stats::SimStats;
use crate::traffic::{generate_workload, TrafficConfig, Workload};
use noc_deadlock::report::{ReconfigEvent, ReconfigStats};
use noc_deadlock::vcmap::VcMap;
use noc_routing::updown::{updown_route_avoiding, UpDownLabels};
use noc_routing::{Route, RouteSet};
use noc_topology::{
    Channel, CommGraph, Connectivity, CoreMap, FaultSet, FlowId, LinkId, SwitchId, Topology,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Parameters of a VC-fidelity simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcSimConfig {
    /// Depth of every per-(link × VC) input buffer, in flits.
    pub buffer_depth: usize,
    /// Cycles a returned credit takes to travel back upstream (0 = the
    /// credit is usable again the next cycle).
    pub credit_return_latency: u64,
    /// Hard cap on simulated cycles.
    pub max_cycles: u64,
    /// Run the exact wait-for-graph detector every `detect_period` cycles
    /// (it additionally runs on every cycle without any flit movement).
    /// 0 disables the exact detector entirely, leaving only the
    /// [`idle_timeout`](Self::idle_timeout) heuristic.
    pub detect_period: u64,
    /// Idle-timeout fallback: declare deadlock after this many consecutive
    /// cycles without movement while flits are in flight.  0 disables the
    /// heuristic entirely (the exact detector subsumes it).
    pub idle_timeout: u64,
    /// Snapshot the committed route table after every fault-reconfiguration
    /// epoch into [`VcSimOutcome::reconfig_routes`] (for external
    /// re-verification of each committed epoch).  Off by default — the
    /// snapshots are only meaningful with a [`FaultPlan`] armed.
    pub record_reconfig_routes: bool,
}

impl Default for VcSimConfig {
    fn default() -> Self {
        VcSimConfig {
            buffer_depth: 2,
            credit_return_latency: 0,
            max_cycles: 2_000_000,
            detect_period: 64,
            idle_timeout: 1_024,
            record_reconfig_routes: false,
        }
    }
}

/// How a deadlock was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionKind {
    /// The exact flit wait-for-graph detector found a knot.
    WaitForGraph,
    /// The idle-timeout fallback tripped.
    IdleTimeout,
}

impl DetectionKind {
    /// Stable kebab-case name for artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            DetectionKind::WaitForGraph => "wait-for-graph",
            DetectionKind::IdleTimeout => "idle-timeout",
        }
    }
}

/// The first deadlock detection of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockEvent {
    /// Cycle at which the deadlock was established.
    pub cycle: u64,
    /// Detector that established it.
    pub kind: DetectionKind,
    /// Packets in the deadlocked set (0 for the timeout heuristic, which
    /// cannot attribute the deadlock).
    pub packets: usize,
}

/// Aggregate statistics of the DBR-style dynamic drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainStats {
    /// Deadlock-drain events executed.
    pub events: usize,
    /// Packets pulled back to their source across all events (a packet
    /// drained twice counts twice).
    pub packets_drained: usize,
    /// Flows permanently switched onto the recovery routing function.
    pub flows_reconfigured: usize,
}

/// Result of a VC-fidelity simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct VcSimOutcome {
    /// Latency / throughput statistics.
    pub stats: SimStats,
    /// `true` if the run ended in an unrecovered deadlock.
    pub deadlocked: bool,
    /// Packets still undelivered when the run ended.
    pub stranded_packets: usize,
    /// The first deadlock detection, if any (also set when every deadlock
    /// was drained successfully).
    pub detection: Option<DeadlockEvent>,
    /// Dynamic-drain statistics (all zero when no recovery routes are
    /// configured or no deadlock formed).
    pub drain: DrainStats,
    /// Name of the [`VcPolicy`] the run used.
    pub policy: String,
    /// The flows of the deadlocked packets at the *first* wait-for-graph
    /// detection (sorted, deduplicated; empty for idle-timeout detections
    /// and deadlock-free runs).  Lets a static trap witness be compared
    /// against the traffic the exact detector actually condemned.
    pub deadlock_flows: Vec<FlowId>,
    /// The `(link, vc)` channels the deadlocked packets had claimed at the
    /// first wait-for-graph detection — the runtime counterpart of the
    /// witness footprints (sorted, deduplicated).
    pub deadlock_channels: Vec<(LinkId, usize)>,
    /// Fault-reconfiguration statistics (all zero/empty when no
    /// [`FaultPlan`] is armed or no event fired).
    pub reconfig: ReconfigStats,
    /// Flows stranded by a topology partition when the run ended (sorted) —
    /// the typed `Unreachable` outcome, distinct from a deadlock or an
    /// idle-timeout.
    pub unreachable_flows: Vec<FlowId>,
    /// Packets dropped because their flow was unreachable: purged from the
    /// network when the partition struck, or refused at injection time
    /// afterwards.  `delivered + stranded + unreachable` accounts for every
    /// injected packet.
    pub unreachable_packets: usize,
    /// Committed route table after each reconfiguration epoch, recorded only
    /// when [`VcSimConfig::record_reconfig_routes`] is set (unreachable
    /// flows carry an empty route).
    pub reconfig_routes: Vec<RouteSet>,
}

/// Per-packet bookkeeping.
#[derive(Debug, Clone)]
struct PacketState {
    packet: Packet,
    /// Physical links of the packet's (current) route.
    links: Vec<LinkId>,
    /// The VC the strategy assigned at each hop.
    assigned: Vec<usize>,
    /// Dense channel index the head flit actually claimed at each hop so
    /// far (`taken.len() - 1` is the head's frontier hop).
    taken: Vec<usize>,
    /// Flits not yet injected, front first.
    to_inject: VecDeque<Flit>,
    /// Number of flits already ejected at the destination.
    ejected: usize,
}

/// A buffered flit: the flit plus the hop of its packet's route it sits at.
#[derive(Debug, Clone, Copy)]
struct BufFlit {
    flit: Flit,
    hop: usize,
}

/// One decided flit movement, applied in the second phase of a cycle.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Inject the next flit of a packet into channel `to`; `claim` marks a
    /// head flit acquiring the channel.
    Inject {
        packet: PacketId,
        to: usize,
        claim: bool,
    },
    /// Advance the head-of-line flit of channel `from` into channel `to`.
    Advance { from: usize, to: usize, claim: bool },
    /// Eject the head-of-line flit of channel `from` at the destination.
    Eject { from: usize },
}

/// Runtime state of the fault seam, armed via
/// [`VcSimulator::with_faults`].
struct FaultContext<'a> {
    topology: &'a Topology,
    map: &'a CoreMap,
    plan: FaultPlan,
    /// Next plan event to apply.
    cursor: usize,
    /// Cumulative failed links and switches.
    down: FaultSet,
    /// Committed live route per reconfigured flow — overrides both the
    /// static routes and the DBR recovery function.
    live_routes: HashMap<FlowId, Vec<(LinkId, usize)>>,
    /// Flows currently stranded by a partition (gated at injection).
    unreachable: BTreeSet<FlowId>,
    stats: ReconfigStats,
    unreachable_packets: usize,
    route_log: Vec<RouteSet>,
}

/// The VC-fidelity wormhole simulator.  Borrows the design it simulates.
pub struct VcSimulator<'a> {
    comm: &'a CommGraph,
    routes: &'a RouteSet,
    vc_map: &'a VcMap,
    policy: &'a dyn VcPolicy,
    config: VcSimConfig,
    /// Recovery routing function for the dynamic drain (`None` = detected
    /// deadlocks end the run).
    recovery: Option<RouteSet>,
    /// Dense channel indexing: `offsets[link] + vc`.
    offsets: Vec<usize>,
    channel_count: usize,
    /// Input buffer of each channel (at the link's downstream switch).
    buffers: Vec<VecDeque<BufFlit>>,
    /// Which packet currently owns each channel (wormhole VC allocation).
    owner: Vec<Option<PacketId>>,
    credits: CreditBook,
    packets: HashMap<PacketId, PacketState>,
    /// Flows permanently switched onto the recovery routing function.
    reconfigured: HashSet<FlowId>,
    /// Fault-injection seam (`None` = fault-free run, byte-identical to a
    /// simulator built without [`with_faults`](Self::with_faults)).
    faults: Option<FaultContext<'a>>,
}

impl<'a> std::fmt::Debug for VcSimulator<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcSimulator")
            .field("policy", &self.policy.name())
            .field("channels", &self.channel_count)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> VcSimulator<'a> {
    /// Creates a simulator for the given design.  `vc_map` defines the
    /// buffer space (one buffer per link × VC) and the per-hop VC
    /// assignments the [`VcPolicy`] interprets.
    ///
    /// # Panics
    ///
    /// Panics if a route references a link or VC outside the `vc_map` —
    /// build the map with
    /// [`VcMap::from_design`](noc_deadlock::vcmap::VcMap::from_design) on
    /// the same design the routes belong to.
    pub fn new(
        comm: &'a CommGraph,
        routes: &'a RouteSet,
        vc_map: &'a VcMap,
        policy: &'a dyn VcPolicy,
        config: &VcSimConfig,
    ) -> Self {
        validate_routes(routes, vc_map, "route");
        let mut offsets = Vec::with_capacity(vc_map.link_count());
        let mut channel_count = 0usize;
        for link in 0..vc_map.link_count() {
            offsets.push(channel_count);
            channel_count += vc_map.link_vcs(LinkId::from_index(link));
        }
        VcSimulator {
            comm,
            routes,
            vc_map,
            policy,
            config: config.clone(),
            recovery: None,
            offsets,
            channel_count,
            buffers: vec![VecDeque::new(); channel_count],
            owner: vec![None; channel_count],
            credits: CreditBook::new(
                channel_count,
                config.buffer_depth,
                config.credit_return_latency,
            ),
            packets: HashMap::new(),
            reconfigured: HashSet::new(),
            faults: None,
        }
    }

    /// Enables the DBR-style dynamic drain: when the exact detector finds a
    /// deadlock, the knotted packets are pulled back to their sources and
    /// their flows permanently reconfigured onto `recovery_routes` (a
    /// deadlock-free routing function, e.g. up*/down* routes).
    ///
    /// # Panics
    ///
    /// Panics if a recovery route references a link or VC outside the
    /// simulator's [`VcMap`].
    pub fn with_recovery(mut self, recovery_routes: RouteSet) -> Self {
        validate_routes(&recovery_routes, self.vc_map, "recovery route");
        self.recovery = Some(recovery_routes);
        self
    }

    /// Arms the fault seam: the events of `plan` are applied at their
    /// scheduled cycles, and on each event the simulator reroutes the
    /// affected flows onto the surviving up*/down* subgraph with an
    /// epoch-commit protocol that never commits while the combined
    /// (committed + in-flight residue) dependency graph is cyclic — a
    /// scoped drain pulls offending worms back to their sources instead.
    /// Flows stranded by a partition become a typed `Unreachable` outcome
    /// ([`VcSimOutcome::unreachable_flows`]) rather than an idle-timeout.
    ///
    /// `topology` and `map` must be the design the routes were built on.
    /// An empty plan ([`FaultPlan::none`]) leaves the run byte-identical to
    /// an unarmed simulator.
    pub fn with_faults(
        mut self,
        topology: &'a Topology,
        map: &'a CoreMap,
        plan: FaultPlan,
    ) -> Self {
        let down = FaultSet::new(topology);
        self.faults = Some(FaultContext {
            topology,
            map,
            plan,
            cursor: 0,
            down,
            live_routes: HashMap::new(),
            unreachable: BTreeSet::new(),
            stats: ReconfigStats::default(),
            unreachable_packets: 0,
            route_log: Vec::new(),
        });
        self
    }

    fn channel_index(&self, link: LinkId, vc: usize) -> usize {
        debug_assert!(vc < self.vc_map.link_vcs(link));
        self.offsets[link.index()] + vc
    }

    /// Generates a workload from the design's communication graph and runs
    /// it to completion, deadlock or the cycle cap.
    pub fn run(&mut self, traffic: &TrafficConfig) -> VcSimOutcome {
        let workload = generate_workload(self.comm, traffic);
        self.run_workload(&workload)
    }

    /// Runs an explicit workload.
    pub fn run_workload(&mut self, workload: &Workload) -> VcSimOutcome {
        let mut run_span = noc_telemetry::span("sim", "vc_run");
        run_span
            .arg("policy", self.policy.name())
            .arg("packets", workload.packets.len());
        self.reset();
        let mut stats = SimStats::default();
        let mut drain = DrainStats::default();
        let mut detection: Option<DeadlockEvent> = None;
        let mut deadlock_flows: Vec<FlowId> = Vec::new();
        let mut deadlock_channels: Vec<(LinkId, usize)> = Vec::new();
        let mut pending: VecDeque<Packet> = workload.packets.iter().cloned().collect();
        // BTreeMap so decide/detect iterate flows in id order without a
        // per-cycle sort.
        let mut flow_queues: BTreeMap<FlowId, VecDeque<PacketId>> = BTreeMap::new();
        let mut idle_cycles = 0u64;
        let mut deadlocked = false;
        // Packets admitted to the network but not yet fully ejected,
        // maintained incrementally so the per-cycle liveness check does not
        // scan the whole packet map.
        let mut in_flight_packets = 0usize;

        let mut cycle = 0u64;
        while cycle < self.config.max_cycles {
            // Scheduled fault events fire first: the epoch protocol
            // reconfigures routes before anything moves this cycle.
            if self.faults.is_some()
                && self.process_faults(cycle, &mut flow_queues, &mut in_flight_packets)
            {
                idle_cycles = 0;
            }
            self.credits.collect_returns(cycle);

            // Admit newly created packets into their flow queue.
            while pending.front().is_some_and(|p| p.created_at <= cycle) {
                let packet = pending.pop_front().expect("checked non-empty");
                stats.injected_packets += 1;
                if self
                    .faults
                    .as_ref()
                    .is_some_and(|ctx| ctx.unreachable.contains(&packet.flow))
                {
                    // Typed Unreachable: the flow is stranded by a
                    // partition; the packet is refused, not deadlocked.
                    let ctx = self.faults.as_mut().expect("checked armed");
                    ctx.unreachable_packets += 1;
                    continue;
                }
                let route = self.current_route(packet.flow);
                if route.is_empty() {
                    // Same-switch flow: delivered immediately.
                    stats.delivered_packets += 1;
                    stats.delivered_flits += packet.length;
                    stats.record_latency(cycle.saturating_sub(packet.created_at));
                    continue;
                }
                let state = PacketState {
                    to_inject: packet.flits().into(),
                    links: route.iter().map(|&(link, _)| link).collect(),
                    assigned: route.iter().map(|&(_, vc)| vc).collect(),
                    taken: Vec::new(),
                    ejected: 0,
                    packet: packet.clone(),
                };
                flow_queues
                    .entry(packet.flow)
                    .or_default()
                    .push_back(packet.id);
                self.packets.insert(packet.id, state);
                in_flight_packets += 1;
            }

            let moves = self.decide_moves(&flow_queues);
            let progressed = !moves.is_empty();
            let completed = self.apply_moves(&moves, cycle, &mut stats, &mut flow_queues);
            in_flight_packets -= completed;

            let in_flight = in_flight_packets > 0;
            if !in_flight && pending.is_empty() {
                cycle += 1;
                break;
            }
            if progressed || !in_flight {
                idle_cycles = 0;
            } else {
                idle_cycles += 1;
                noc_telemetry::counter("vc.stall_cycles", 1);
            }

            // Exact detection: periodically, and on every idle cycle.
            let exact_enabled = self.config.detect_period > 0;
            let periodic = exact_enabled && (cycle + 1).is_multiple_of(self.config.detect_period);
            if in_flight && exact_enabled && (periodic || !progressed) {
                noc_telemetry::counter("vc.detector_invocations", 1);
                let snapshot = self.wait_snapshot(&flow_queues);
                let dead = snapshot.deadlocked_packets();
                if !dead.is_empty() {
                    if detection.is_none() {
                        // Attribute the first detection: the condemned flows
                        // and the channels their worms had claimed, for
                        // comparison against static trap witnesses.
                        deadlock_flows =
                            dead.iter().map(|id| self.packets[id].packet.flow).collect();
                        deadlock_flows.sort();
                        deadlock_flows.dedup();
                        deadlock_channels = dead
                            .iter()
                            .flat_map(|id| {
                                let state = &self.packets[id];
                                state.taken.iter().zip(&state.links).map(|(&dense, &link)| {
                                    (link, dense - self.offsets[link.index()])
                                })
                            })
                            .collect();
                        deadlock_channels.sort_by_key(|&(link, vc)| (link.index(), vc));
                        deadlock_channels.dedup();
                    }
                    detection.get_or_insert(DeadlockEvent {
                        cycle,
                        kind: DetectionKind::WaitForGraph,
                        packets: dead.len(),
                    });
                    if self.recovery.is_some() {
                        self.drain_deadlocked(&dead, &mut flow_queues, &mut drain);
                        idle_cycles = 0;
                    } else {
                        deadlocked = true;
                        cycle += 1;
                        break;
                    }
                }
            }

            // Idle-timeout fallback (the exact detector normally fires long
            // before this trips).
            if self.config.idle_timeout > 0 && idle_cycles >= self.config.idle_timeout {
                detection.get_or_insert(DeadlockEvent {
                    cycle,
                    kind: DetectionKind::IdleTimeout,
                    packets: 0,
                });
                deadlocked = true;
                cycle += 1;
                break;
            }
            cycle += 1;
        }

        stats.cycles = cycle;
        noc_telemetry::counter("vc.injected_packets", stats.injected_packets as u64);
        noc_telemetry::counter("vc.delivered_packets", stats.delivered_packets as u64);
        noc_telemetry::counter("vc.cycles", stats.cycles);
        run_span
            .arg("cycles", stats.cycles)
            .arg("delivered", stats.delivered_packets);
        drain.flows_reconfigured = self.reconfigured.len();
        let stranded_packets = in_flight_packets;
        debug_assert_eq!(
            stranded_packets,
            self.packets
                .values()
                .filter(|p| p.ejected < p.packet.length)
                .count(),
            "in-flight counter drifted from the packet map"
        );
        let (reconfig, unreachable_flows, unreachable_packets, reconfig_routes) = match &self.faults
        {
            Some(ctx) => (
                ctx.stats.clone(),
                ctx.unreachable.iter().copied().collect(),
                ctx.unreachable_packets,
                ctx.route_log.clone(),
            ),
            None => (ReconfigStats::default(), Vec::new(), 0, Vec::new()),
        };
        VcSimOutcome {
            stats,
            deadlocked,
            stranded_packets,
            detection,
            drain,
            policy: self.policy.name().to_string(),
            deadlock_flows,
            deadlock_channels,
            reconfig,
            unreachable_flows,
            unreachable_packets,
            reconfig_routes,
        }
    }

    fn reset(&mut self) {
        for buffer in &mut self.buffers {
            buffer.clear();
        }
        for owner in &mut self.owner {
            *owner = None;
        }
        self.credits = CreditBook::new(
            self.channel_count,
            self.config.buffer_depth,
            self.config.credit_return_latency,
        );
        self.packets.clear();
        self.reconfigured.clear();
        if let Some(ctx) = self.faults.as_mut() {
            ctx.cursor = 0;
            ctx.down = FaultSet::new(ctx.topology);
            ctx.live_routes.clear();
            ctx.unreachable.clear();
            ctx.stats = ReconfigStats::default();
            ctx.unreachable_packets = 0;
            ctx.route_log.clear();
        }
    }

    /// The `(link, assigned vc)` hops the given flow currently routes over:
    /// the fault-reconfiguration route when one is committed, otherwise the
    /// [base route](Self::base_route).
    fn current_route(&self, flow: FlowId) -> Vec<(LinkId, usize)> {
        if let Some(ctx) = &self.faults {
            if let Some(route) = ctx.live_routes.get(&flow) {
                return route.clone();
            }
        }
        self.base_route(flow)
    }

    /// The committed route ignoring fault reconfigurations: the static
    /// route, or the recovery route once the flow was DBR-reconfigured.
    fn base_route(&self, flow: FlowId) -> Vec<(LinkId, usize)> {
        let routes = if self.reconfigured.contains(&flow) {
            self.recovery
                .as_ref()
                .expect("reconfigured implies recovery")
        } else {
            self.routes
        };
        routes
            .route(flow)
            .map(|r| r.channels().iter().map(|c| (c.link, c.vc)).collect())
            .unwrap_or_default()
    }

    /// The candidate dense channel indices the policy offers a head flit
    /// entering hop `hop` of `state`'s route, in preference order.
    fn head_candidates(&self, state: &PacketState, hop: usize) -> Vec<usize> {
        let link = state.links[hop];
        let mut vcs = Vec::new();
        self.policy.candidates(
            &VcChoice {
                link,
                link_vcs: self.vc_map.link_vcs(link),
                assigned_vc: state.assigned[hop],
                hop,
                flow: state.packet.flow,
            },
            &mut vcs,
        );
        debug_assert!(!vcs.is_empty(), "policies must offer a candidate");
        vcs.into_iter()
            .map(|vc| self.channel_index(link, vc.min(self.vc_map.link_vcs(link) - 1)))
            .collect()
    }

    /// Phase 1: decide all flit movements for this cycle based on the
    /// start-of-cycle state.  At most one flit enters and one flit leaves
    /// each channel per cycle.
    fn decide_moves(&self, flow_queues: &BTreeMap<FlowId, VecDeque<PacketId>>) -> Vec<Move> {
        let mut moves = Vec::new();
        let mut entering = vec![false; self.channel_count];

        // In-network flits first (drain before filling), iterating channels
        // in reverse index order so downstream channels are not starved; the
        // order does not affect correctness.
        for from in (0..self.channel_count).rev() {
            let Some(bf) = self.buffers[from].front() else {
                continue;
            };
            let state = &self.packets[&bf.flit.packet];
            if bf.hop + 1 == state.links.len() {
                // Last hop: eject (destination always sinks flits).
                moves.push(Move::Eject { from });
                continue;
            }
            let extending = state.taken.len() == bf.hop + 1;
            if extending {
                // Head flit claiming the next hop: first candidate that is
                // unowned (or self-owned) with a credit wins.
                for to in self.head_candidates(state, bf.hop + 1) {
                    if entering[to] {
                        continue;
                    }
                    let claimable =
                        self.owner[to].is_none() || self.owner[to] == Some(bf.flit.packet);
                    if claimable && self.credits.can_send(to) {
                        moves.push(Move::Advance {
                            from,
                            to,
                            claim: true,
                        });
                        entering[to] = true;
                        break;
                    }
                }
            } else {
                // Follower flit: the worm's path is established.
                let to = state.taken[bf.hop + 1];
                if !entering[to] {
                    if self.credits.can_send(to) {
                        moves.push(Move::Advance {
                            from,
                            to,
                            claim: false,
                        });
                        entering[to] = true;
                    } else {
                        // Established worm blocked on a credit: the
                        // canonical credit stall (one count per flit-cycle).
                        noc_telemetry::counter("vc.credit_stall_flit_cycles", 1);
                    }
                }
            }
        }

        // Injections: the packet at the front of each flow queue may push
        // its next flit into the first channel of its route.
        for queue in flow_queues.values() {
            let Some(&packet_id) = queue.front() else {
                continue;
            };
            let state = &self.packets[&packet_id];
            if state.to_inject.is_empty() {
                continue;
            }
            if state.taken.is_empty() {
                for to in self.head_candidates(state, 0) {
                    if entering[to] {
                        continue;
                    }
                    let claimable = self.owner[to].is_none() || self.owner[to] == Some(packet_id);
                    if claimable && self.credits.can_send(to) {
                        moves.push(Move::Inject {
                            packet: packet_id,
                            to,
                            claim: true,
                        });
                        entering[to] = true;
                        break;
                    }
                }
            } else {
                let to = state.taken[0];
                if !entering[to] {
                    if self.credits.can_send(to) {
                        moves.push(Move::Inject {
                            packet: packet_id,
                            to,
                            claim: false,
                        });
                        entering[to] = true;
                    } else {
                        noc_telemetry::counter("vc.credit_stall_flit_cycles", 1);
                    }
                }
            }
        }
        moves
    }

    /// Phase 2: apply the decided moves, updating ownership, credits,
    /// ejections and statistics.  Returns the number of packets fully
    /// delivered this cycle.
    fn apply_moves(
        &mut self,
        moves: &[Move],
        cycle: u64,
        stats: &mut SimStats,
        flow_queues: &mut BTreeMap<FlowId, VecDeque<PacketId>>,
    ) -> usize {
        let mut completed = 0usize;
        for &mv in moves {
            match mv {
                Move::Inject { packet, to, claim } => {
                    let state = self.packets.get_mut(&packet).expect("packet exists");
                    let flit = state.to_inject.pop_front().expect("decided with a flit");
                    if claim {
                        self.owner[to] = Some(packet);
                        state.taken.push(to);
                    } else {
                        debug_assert_eq!(self.owner[to], Some(packet));
                    }
                    self.credits.consume(to);
                    self.buffers[to].push_back(BufFlit { flit, hop: 0 });
                    if state.to_inject.is_empty() {
                        // The whole packet has left the source: the next
                        // packet of this flow may start injecting.
                        if let Some(queue) = flow_queues.get_mut(&state.packet.flow) {
                            if queue.front() == Some(&packet) {
                                queue.pop_front();
                            }
                        }
                    }
                }
                Move::Advance { from, to, claim } => {
                    let bf = self.buffers[from].pop_front().expect("decided with a flit");
                    self.credits.give_back(from, cycle);
                    let packet = bf.flit.packet;
                    if claim {
                        self.owner[to] = Some(packet);
                        self.packets
                            .get_mut(&packet)
                            .expect("packet exists")
                            .taken
                            .push(to);
                    }
                    if matches!(bf.flit.kind, FlitKind::Tail | FlitKind::HeadTail)
                        && self.owner[from] == Some(packet)
                    {
                        self.owner[from] = None;
                    }
                    self.credits.consume(to);
                    self.buffers[to].push_back(BufFlit {
                        flit: bf.flit,
                        hop: bf.hop + 1,
                    });
                }
                Move::Eject { from } => {
                    let bf = self.buffers[from].pop_front().expect("decided with a flit");
                    self.credits.give_back(from, cycle);
                    let packet = bf.flit.packet;
                    if matches!(bf.flit.kind, FlitKind::Tail | FlitKind::HeadTail)
                        && self.owner[from] == Some(packet)
                    {
                        self.owner[from] = None;
                    }
                    let state = self.packets.get_mut(&packet).expect("packet exists");
                    state.ejected += 1;
                    stats.delivered_flits += 1;
                    if state.ejected == state.packet.length {
                        stats.delivered_packets += 1;
                        completed += 1;
                        stats.record_latency(cycle.saturating_sub(state.packet.created_at) + 1);
                    }
                }
            }
        }
        completed
    }

    /// Classifies one pending movement (a buffered flit or an injection)
    /// into "can move now" or a list of wait targets, for the detector.
    fn classify_candidates(
        &self,
        packet: PacketId,
        candidates: &[usize],
        established: bool,
    ) -> (bool, Vec<WaitTarget>) {
        let mut waits = Vec::with_capacity(candidates.len());
        for &to in candidates {
            if !established {
                if let Some(q) = self.owner[to] {
                    if q != packet {
                        waits.push(WaitTarget::Packet(q));
                        continue;
                    }
                }
            }
            if self.credits.can_send(to) {
                return (true, Vec::new());
            }
            if self.buffers[to].len() < self.config.buffer_depth {
                // The buffer has room; the credit is still travelling back
                // upstream and will arrive without anyone else moving.
                return (true, Vec::new());
            }
            waits.push(WaitTarget::Channel(to));
        }
        (false, waits)
    }

    /// Builds the detector snapshot for the current state.
    fn wait_snapshot(&self, flow_queues: &BTreeMap<FlowId, VecDeque<PacketId>>) -> WaitForSnapshot {
        let mut channels = Vec::with_capacity(self.channel_count);
        for from in 0..self.channel_count {
            let Some(bf) = self.buffers[from].front() else {
                channels.push(None);
                continue;
            };
            let state = &self.packets[&bf.flit.packet];
            let (can_move, waits) = if bf.hop + 1 == state.links.len() {
                (true, Vec::new()) // ejection is always possible
            } else if state.taken.len() == bf.hop + 1 {
                let candidates = self.head_candidates(state, bf.hop + 1);
                self.classify_candidates(bf.flit.packet, &candidates, false)
            } else {
                self.classify_candidates(bf.flit.packet, &[state.taken[bf.hop + 1]], true)
            };
            channels.push(Some(ChannelWait {
                packet: bf.flit.packet,
                can_move,
                waits,
            }));
        }

        let mut injections = Vec::new();
        for queue in flow_queues.values() {
            let Some(&packet_id) = queue.front() else {
                continue;
            };
            let state = &self.packets[&packet_id];
            if state.to_inject.is_empty() {
                continue;
            }
            let (can_move, waits) = if state.taken.is_empty() {
                let candidates = self.head_candidates(state, 0);
                self.classify_candidates(packet_id, &candidates, false)
            } else {
                self.classify_candidates(packet_id, &[state.taken[0]], true)
            };
            injections.push(InjectionWait {
                packet: packet_id,
                can_move,
                waits,
                holds_channels: !state.taken.is_empty(),
            });
        }

        let mut locations: BTreeMap<PacketId, Vec<usize>> = BTreeMap::new();
        for (channel, buffer) in self.buffers.iter().enumerate() {
            for bf in buffer {
                let entry = locations.entry(bf.flit.packet).or_default();
                if entry.last() != Some(&channel) {
                    entry.push(channel);
                }
            }
        }
        WaitForSnapshot {
            channels,
            injections,
            flit_locations: locations.into_iter().collect(),
        }
    }

    /// Executes one DBR-style drain event: pulls every deadlocked packet's
    /// flits out of the network, releases its channel ownerships, resyncs
    /// the credits, and re-queues the packet at its source on the recovery
    /// route — permanently reconfiguring its flow.
    fn drain_deadlocked(
        &mut self,
        dead: &[PacketId],
        flow_queues: &mut BTreeMap<FlowId, VecDeque<PacketId>>,
        drain: &mut DrainStats,
    ) {
        let dead_set: HashSet<PacketId> = dead.iter().copied().collect();

        // 1. Pull every dead flit out of the buffers (order inside each
        // buffer is preserved for the survivors).
        let mut removed: HashMap<PacketId, Vec<Flit>> = HashMap::new();
        for buffer in &mut self.buffers {
            buffer.retain(|bf| {
                if dead_set.contains(&bf.flit.packet) {
                    removed.entry(bf.flit.packet).or_default().push(bf.flit);
                    false
                } else {
                    true
                }
            });
        }

        // 2. Release the drained packets' wormhole ownerships.
        for owner in &mut self.owner {
            if owner.is_some_and(|p| dead_set.contains(&p)) {
                *owner = None;
            }
        }

        // 3. Resync credits from the post-drain occupancy (the drain is a
        // reconfiguration event; in-flight credit returns are absorbed).
        let occupancy: Vec<usize> = self.buffers.iter().map(VecDeque::len).collect();
        self.credits.reset_from_occupancy(occupancy);

        // 4. Rebuild each drained packet on the recovery route of its flow.
        let mut newly_reconfigured: Vec<FlowId> = Vec::new();
        for &packet_id in dead {
            let state = self
                .packets
                .get_mut(&packet_id)
                .expect("dead packets exist");
            let flow = state.packet.flow;
            let mut flits = removed.remove(&packet_id).unwrap_or_default();
            flits.sort_by_key(|f| f.sequence);
            flits.extend(state.to_inject.drain(..));
            // Rebuild the flit kinds so the re-injected worm has a proper
            // head and tail even when the original head was already ejected.
            let remaining = flits.len();
            debug_assert!(remaining > 0, "deadlocked packets have flits left");
            for (index, flit) in flits.iter_mut().enumerate() {
                flit.kind = if remaining == 1 {
                    FlitKind::HeadTail
                } else if index == 0 {
                    FlitKind::Head
                } else if index + 1 == remaining {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                };
            }
            state.to_inject = flits.into();
            state.taken.clear();
            // A fault-reconfiguration route, when committed, supersedes the
            // recovery function (it already detours the failed region).
            let live = self
                .faults
                .as_ref()
                .and_then(|ctx| ctx.live_routes.get(&flow))
                .cloned();
            if let Some(route) = live {
                assert!(
                    !route.is_empty(),
                    "flow {flow} deadlocked but its live route is empty"
                );
                state.links = route.iter().map(|&(link, _)| link).collect();
                state.assigned = route.iter().map(|&(_, vc)| vc).collect();
            } else {
                let recovery = self.recovery.as_ref().expect("drain requires recovery");
                let route = recovery
                    .route(flow)
                    .unwrap_or_else(|| panic!("recovery routes must cover flow {flow}"));
                assert!(
                    !route.is_empty(),
                    "flow {flow} deadlocked but its recovery route is empty"
                );
                state.links = route.channels().iter().map(|c| c.link).collect();
                state.assigned = route.channels().iter().map(|c| c.vc).collect();
            }
            if self.reconfigured.insert(flow) {
                newly_reconfigured.push(flow);
            }
        }

        // 5. Packets of reconfigured flows that have not entered the network
        // yet switch to the recovery route as well (in-flight survivors keep
        // the path they already hold).
        for state in self.packets.values_mut() {
            if self.reconfigured.contains(&state.packet.flow)
                && state.taken.is_empty()
                && state.ejected == 0
                && !state.to_inject.is_empty()
                && !dead_set.contains(&state.packet.id)
            {
                let flow = state.packet.flow;
                if let Some(route) = self
                    .faults
                    .as_ref()
                    .and_then(|ctx| ctx.live_routes.get(&flow))
                {
                    state.links = route.iter().map(|&(link, _)| link).collect();
                    state.assigned = route.iter().map(|&(_, vc)| vc).collect();
                } else {
                    let recovery = self.recovery.as_ref().expect("drain requires recovery");
                    if let Some(route) = recovery.route(flow) {
                        state.links = route.channels().iter().map(|c| c.link).collect();
                        state.assigned = route.channels().iter().map(|c| c.vc).collect();
                    }
                }
            }
        }

        // 6. Re-queue the drained packets for injection, oldest first and
        // ahead of packets that have not started injecting — but never
        // ahead of a surviving packet that is mid-injection.  Such a packet
        // owns its claimed channels and can only finish from the queue
        // front; burying it would wedge the flow forever (and hide the
        // worm from the detector, which only sees queue fronts).
        let mut per_flow: BTreeMap<FlowId, Vec<PacketId>> = BTreeMap::new();
        for &packet_id in dead {
            per_flow
                .entry(self.packets[&packet_id].packet.flow)
                .or_default()
                .push(packet_id);
        }
        for (flow, mut ids) in per_flow {
            ids.sort();
            let queue = flow_queues.entry(flow).or_default();
            queue.retain(|id| !dead_set.contains(id));
            let insert_at = match queue.front() {
                Some(front) if !self.packets[front].taken.is_empty() => 1,
                _ => 0,
            };
            for &id in ids.iter().rev() {
                queue.insert(insert_at, id);
            }
        }
        if cfg!(debug_assertions) {
            // Invariant: every surviving mid-injection worm is still at the
            // front of its flow queue.
            for queue in flow_queues.values() {
                for (position, id) in queue.iter().enumerate() {
                    debug_assert!(
                        position == 0 || self.packets[id].taken.is_empty(),
                        "mid-injection packet {id} buried at queue position {position}"
                    );
                }
            }
        }

        drain.events += 1;
        drain.packets_drained += dead.len();
        noc_telemetry::counter("vc.drain_events", 1);
        noc_telemetry::histogram("vc.drained_packets", dead.len() as u64);
    }

    /// Applies every fault event due at `cycle` as one reconfiguration
    /// epoch.  Returns `true` when an epoch was committed.
    fn process_faults(
        &mut self,
        cycle: u64,
        flow_queues: &mut BTreeMap<FlowId, VecDeque<PacketId>>,
        in_flight: &mut usize,
    ) -> bool {
        let due = self.faults.as_ref().is_some_and(|ctx| {
            ctx.plan
                .events()
                .get(ctx.cursor)
                .is_some_and(|e| e.cycle <= cycle)
        });
        if !due {
            return false;
        }
        // Take the context out so the batch can call `&mut self` helpers;
        // every committed-route lookup inside goes through the context.
        let mut ctx = self.faults.take().expect("due implies armed");
        {
            let mut span = noc_telemetry::span("sim", "reconfig_epoch");
            span.arg("cycle", cycle);
            self.apply_fault_batch(&mut ctx, cycle, flow_queues, in_flight);
        }
        noc_telemetry::counter("vc.reconfig_epochs", 1);
        self.faults = Some(ctx);
        true
    }

    /// One reconfiguration epoch: apply the due faults, reroute affected
    /// flows onto the surviving up*/down* subgraph, strand disconnected
    /// flows, and commit only once the combined dependency graph of
    /// committed routes plus in-flight residues is acyclic — pulling worms
    /// back to their sources (a scoped DBR drain) when it is not.
    fn apply_fault_batch(
        &mut self,
        ctx: &mut FaultContext<'a>,
        cycle: u64,
        flow_queues: &mut BTreeMap<FlowId, VecDeque<PacketId>>,
        in_flight: &mut usize,
    ) {
        // 1. Apply every due event atomically (one epoch per batch).
        let mut faults_applied = 0usize;
        let mut any_repair = false;
        while ctx
            .plan
            .events()
            .get(ctx.cursor)
            .is_some_and(|e| e.cycle <= cycle)
        {
            match ctx.plan.events()[ctx.cursor].kind {
                // Link faults are physical cable faults: both directions of
                // a bidirectional pair go down (and come back) together, so
                // the surviving fabric stays symmetric and up*/down*
                // recovery remains complete per connected component.
                FaultKind::LinkDown(link) => ctx.down.fail_link_pair(ctx.topology, link),
                FaultKind::LinkUp(link) => {
                    ctx.down.repair_link_pair(ctx.topology, link);
                    any_repair = true;
                }
                FaultKind::SwitchDown(switch) => ctx.down.fail_switch(switch),
                FaultKind::SwitchUp(switch) => {
                    ctx.down.repair_switch(switch);
                    any_repair = true;
                }
            }
            faults_applied += 1;
            ctx.cursor += 1;
        }

        let flow_count = self.comm.flow_count();

        // 2. Rebuild the committed dependency graph (assigned-VC CDG) from
        // every live flow's committed route.
        let mut dep = DepGraph::new(self.channel_count);
        let mut committed: Vec<Option<Vec<(LinkId, usize)>>> = vec![None; flow_count];
        for (index, slot) in committed.iter_mut().enumerate() {
            let flow = FlowId::from_index(index);
            if ctx.unreachable.contains(&flow) {
                continue;
            }
            let route = self.committed_route_in(ctx, flow);
            dep.add_path(&self.dense_path(&route));
            *slot = Some(route);
        }

        // 3. Flows to re-examine: committed routes crossing a now-unusable
        // link, plus stranded flows retried after a repair.
        let mut candidates: Vec<FlowId> = Vec::new();
        for (index, slot) in committed.iter().enumerate() {
            let flow = FlowId::from_index(index);
            match slot {
                None => {
                    if any_repair {
                        candidates.push(flow);
                    }
                }
                Some(route) => {
                    if route
                        .iter()
                        .any(|&(link, _)| !ctx.down.link_usable(ctx.topology, link))
                    {
                        candidates.push(flow);
                    }
                }
            }
        }

        // 4. Survivor connectivity and per-component up*/down* labels
        // (rooted at each component's lowest-index switch).
        let conn = ctx.topology.connectivity_after(&ctx.down);
        let mut labels: HashMap<usize, UpDownLabels> = HashMap::new();
        for index in 0..ctx.topology.switch_count() {
            let switch = SwitchId::from_index(index);
            if let Some(component) = conn.component_of(switch) {
                labels
                    .entry(component)
                    .or_insert_with(|| UpDownLabels::surviving(ctx.topology, switch, &ctx.down));
            }
        }

        // 5. Reroute or strand each candidate flow.
        let mut flows_rerouted = 0usize;
        let mut newly_unreachable: Vec<FlowId> = Vec::new();
        let mut rerouted_this_event: HashSet<FlowId> = HashSet::new();
        for flow in candidates {
            if let Some(route) = committed[flow.index()].take() {
                dep.remove_path(&self.dense_path(&route));
            }
            match self.surviving_route(ctx, &conn, &labels, flow) {
                Some(route) => {
                    dep.add_path(&self.dense_path(&route));
                    ctx.live_routes.insert(flow, route.clone());
                    ctx.unreachable.remove(&flow);
                    committed[flow.index()] = Some(route);
                    flows_rerouted += 1;
                    rerouted_this_event.insert(flow);
                }
                None => {
                    ctx.live_routes.remove(&flow);
                    if ctx.unreachable.insert(flow) {
                        newly_unreachable.push(flow);
                    }
                }
            }
        }

        // 6. Purge the traffic of newly stranded flows: their packets leave
        // the network and the accounting, so a partition surfaces as the
        // typed Unreachable outcome instead of an idle-timeout.
        if !newly_unreachable.is_empty() {
            ctx.unreachable_packets +=
                self.strand_flows(&newly_unreachable, flow_queues, in_flight);
        }

        // 7. In-flight packets: pull back worms whose remaining path
        // crosses a dead link, swap not-yet-started packets onto the new
        // committed route, and register every worm still travelling a
        // superseded path as a transient residue of the epoch.
        let min_hops = self.min_buffered_hops();
        let mut ids: Vec<PacketId> = self
            .packets
            .iter()
            .filter(|(_, s)| s.ejected < s.packet.length)
            .map(|(&id, _)| id)
            .collect();
        ids.sort();
        let mut pulled: Vec<PacketId> = Vec::new();
        let mut pulled_routes: HashMap<FlowId, Vec<(LinkId, usize)>> = HashMap::new();
        let mut residues: Vec<(PacketId, Vec<usize>)> = Vec::new();
        let mut residue_ids: HashSet<PacketId> = HashSet::new();
        for id in ids {
            let state = &self.packets[&id];
            let flow = state.packet.flow;
            let Some(committed_route) = committed[flow.index()].clone() else {
                continue; // unreachable flows were purged in step 6
            };
            let current: Vec<(LinkId, usize)> = state
                .links
                .iter()
                .zip(&state.assigned)
                .map(|(&link, &vc)| (link, vc))
                .collect();
            let started = !state.taken.is_empty() || min_hops.contains_key(&id);
            if !started {
                if current != committed_route {
                    let state = self.packets.get_mut(&id).expect("packet exists");
                    state.links = committed_route.iter().map(|&(link, _)| link).collect();
                    state.assigned = committed_route.iter().map(|&(_, vc)| vc).collect();
                }
                continue;
            }
            let start = if state.to_inject.is_empty() {
                min_hops.get(&id).copied().unwrap_or(state.links.len())
            } else {
                0
            };
            let broken = state.links[start..]
                .iter()
                .any(|&link| !ctx.down.link_usable(ctx.topology, link));
            if broken {
                pulled.push(id);
                pulled_routes.insert(flow, committed_route);
            } else if current != committed_route {
                residues.push((id, self.residue_path(state, start)));
                residue_ids.insert(id);
            }
        }
        if !pulled.is_empty() {
            self.pull_back_to_source(&pulled, &pulled_routes, flow_queues);
        }
        let mut packets_drained = pulled.len();

        // 8. Epoch check: the combined graph of committed routes plus
        // transient residues must be acyclic before the epoch commits.
        // While it is not, drain residues crossing a cycle back to their
        // sources (scoped DBR fallback); when only committed routes remain
        // cyclic, move the involved flows onto the surviving up*/down*
        // function, whose routes cannot cycle among themselves.
        for (_, path) in &residues {
            dep.add_path(path);
        }
        let mut fallback_drain = false;
        let max_rounds = flow_count + self.packets.len() + 4;
        let mut rounds = 0usize;
        loop {
            let cyclic = dep.cyclic_channels();
            if cyclic.is_empty() {
                break;
            }
            fallback_drain = true;
            rounds += 1;
            assert!(rounds <= max_rounds, "fault epoch failed to converge");
            let cyclic_set: HashSet<usize> = cyclic.into_iter().collect();

            // (a) Drain transient residues crossing the cycle.
            let mut to_drain: Vec<PacketId> = Vec::new();
            residues.retain(|(id, path)| {
                if path.iter().any(|c| cyclic_set.contains(c)) {
                    dep.remove_path(path);
                    to_drain.push(*id);
                    residue_ids.remove(id);
                    false
                } else {
                    true
                }
            });
            if !to_drain.is_empty() {
                let mut drain_routes: HashMap<FlowId, Vec<(LinkId, usize)>> = HashMap::new();
                for &id in &to_drain {
                    let flow = self.packets[&id].packet.flow;
                    let route = committed[flow.index()]
                        .clone()
                        .expect("residues belong to routed flows");
                    drain_routes.insert(flow, route);
                }
                self.pull_back_to_source(&to_drain, &drain_routes, flow_queues);
                packets_drained += to_drain.len();
                continue;
            }

            // (b) The committed routes themselves are cyclic (e.g. an
            // unsafe baseline design at fault time): reroute the involved
            // flows onto the surviving up*/down* function.
            let mut progressed = false;
            for flow in (0..flow_count).map(FlowId::from_index) {
                if rerouted_this_event.contains(&flow) {
                    continue;
                }
                let Some(route) = committed[flow.index()].clone() else {
                    continue;
                };
                let path = self.dense_path(&route);
                if !path.iter().any(|c| cyclic_set.contains(c)) {
                    continue;
                }
                dep.remove_path(&path);
                match self.surviving_route(ctx, &conn, &labels, flow) {
                    Some(new_route) => {
                        dep.add_path(&self.dense_path(&new_route));
                        ctx.live_routes.insert(flow, new_route.clone());
                        committed[flow.index()] = Some(new_route.clone());
                        rerouted_this_event.insert(flow);
                        flows_rerouted += 1;
                        // Worms of the flow still travelling the old path
                        // become transient residues of this epoch.
                        let fresh_hops = self.min_buffered_hops();
                        let mut flow_ids: Vec<PacketId> = self
                            .packets
                            .iter()
                            .filter(|(id, s)| {
                                s.packet.flow == flow
                                    && s.ejected < s.packet.length
                                    && !residue_ids.contains(*id)
                            })
                            .map(|(&id, _)| id)
                            .collect();
                        flow_ids.sort();
                        for id in flow_ids {
                            let state = &self.packets[&id];
                            let started = !state.taken.is_empty() || fresh_hops.contains_key(&id);
                            if !started {
                                let state = self.packets.get_mut(&id).expect("packet exists");
                                state.links = new_route.iter().map(|&(link, _)| link).collect();
                                state.assigned = new_route.iter().map(|&(_, vc)| vc).collect();
                                continue;
                            }
                            let start = if state.to_inject.is_empty() {
                                fresh_hops.get(&id).copied().unwrap_or(state.links.len())
                            } else {
                                0
                            };
                            let residue = self.residue_path(state, start);
                            dep.add_path(&residue);
                            residues.push((id, residue));
                            residue_ids.insert(id);
                        }
                        progressed = true;
                    }
                    None => {
                        // Defensive: the cyclic flow cannot be rerouted on
                        // the surviving fabric — strand it.
                        ctx.live_routes.remove(&flow);
                        committed[flow.index()] = None;
                        if ctx.unreachable.insert(flow) {
                            newly_unreachable.push(flow);
                            ctx.unreachable_packets +=
                                self.strand_flows(&[flow], flow_queues, in_flight);
                        }
                        progressed = true;
                    }
                }
            }
            assert!(
                progressed,
                "cyclic fault epoch with no residue or committed flow to act on"
            );
        }

        // 9. Post-protocol runtime recheck: the exact wait-for detector must
        // agree no knot survives the epoch; any remaining knot (formed
        // before the event, invisible to the assigned-VC model) is drained
        // here rather than committed over.
        let mut wait_rounds = 0usize;
        loop {
            let dead = self.wait_snapshot(flow_queues).deadlocked_packets();
            if dead.is_empty() {
                break;
            }
            fallback_drain = true;
            wait_rounds += 1;
            assert!(
                wait_rounds <= max_rounds,
                "wait-for drain failed to converge"
            );
            let mut victims: Vec<PacketId> = Vec::new();
            let mut drain_routes: HashMap<FlowId, Vec<(LinkId, usize)>> = HashMap::new();
            for &id in &dead {
                let flow = self.packets[&id].packet.flow;
                let Some(route) = committed[flow.index()].clone() else {
                    continue;
                };
                drain_routes.insert(flow, route);
                victims.push(id);
            }
            victims.sort();
            assert!(!victims.is_empty(), "knot without routed flows");
            self.pull_back_to_source(&victims, &drain_routes, flow_queues);
            packets_drained += victims.len();
        }

        // 10. Commit.  `committed_cyclic` is re-derived from the evidence —
        // it must always be false, and the property suite asserts so.
        let committed_cyclic = dep.is_cyclic()
            || !self
                .wait_snapshot(flow_queues)
                .deadlocked_packets()
                .is_empty();
        ctx.stats.record(ReconfigEvent {
            cycle,
            faults_applied,
            flows_rerouted,
            flows_unreachable: newly_unreachable.len(),
            packets_drained,
            fallback_drain,
            committed_cyclic,
        });
        ctx.stats.unreachable_flows = ctx.unreachable.len();
        if self.config.record_reconfig_routes {
            let mut snapshot = RouteSet::new(flow_count);
            for (index, slot) in committed.iter().enumerate() {
                let flow = FlowId::from_index(index);
                let mut route = Route::default();
                if let Some(channels) = slot {
                    route
                        .channels_mut()
                        .extend(channels.iter().map(|&(link, vc)| Channel::new(link, vc)));
                }
                snapshot.set_route(flow, route);
            }
            ctx.route_log.push(snapshot);
        }
    }

    /// The committed route of `flow` as seen by the fault machinery (the
    /// context is detached from `self` while an epoch runs).
    fn committed_route_in(&self, ctx: &FaultContext<'a>, flow: FlowId) -> Vec<(LinkId, usize)> {
        if let Some(route) = ctx.live_routes.get(&flow) {
            return route.clone();
        }
        self.base_route(flow)
    }

    /// Dense channel indices of a `(link, vc)` route.
    fn dense_path(&self, route: &[(LinkId, usize)]) -> Vec<usize> {
        route
            .iter()
            .map(|&(link, vc)| self.offsets[link.index()] + vc)
            .collect()
    }

    /// Dense channel indices a worm still occupies or will request on its
    /// *current* (pre-reconfiguration) path, from hop `start` on: hops the
    /// head already claimed use the channel actually taken, future hops the
    /// assigned VC.
    fn residue_path(&self, state: &PacketState, start: usize) -> Vec<usize> {
        (start..state.links.len())
            .map(|hop| {
                if hop < state.taken.len() {
                    state.taken[hop]
                } else {
                    self.offsets[state.links[hop].index()] + state.assigned[hop]
                }
            })
            .collect()
    }

    /// Earliest route hop each in-flight worm still has a flit buffered at.
    fn min_buffered_hops(&self) -> HashMap<PacketId, usize> {
        let mut min_hops: HashMap<PacketId, usize> = HashMap::new();
        for buffer in &self.buffers {
            for bf in buffer {
                min_hops
                    .entry(bf.flit.packet)
                    .and_modify(|hop| *hop = (*hop).min(bf.hop))
                    .or_insert(bf.hop);
            }
        }
        min_hops
    }

    /// An up*/down* route for `flow` on the surviving fabric (VC 0 on every
    /// hop), or `None` when its endpoints are disconnected.
    fn surviving_route(
        &self,
        ctx: &FaultContext<'a>,
        conn: &Connectivity,
        labels: &HashMap<usize, UpDownLabels>,
        flow: FlowId,
    ) -> Option<Vec<(LinkId, usize)>> {
        let payload = self.comm.flow(flow).expect("flow exists");
        let src = ctx.map.switch_of(payload.source)?;
        let dst = ctx.map.switch_of(payload.destination)?;
        if src == dst {
            return Some(Vec::new());
        }
        let component = conn.component_of(src)?;
        if conn.component_of(dst) != Some(component) {
            return None;
        }
        let labels = labels.get(&component)?;
        let links = updown_route_avoiding(ctx.topology, labels, src, dst, &ctx.down)?;
        Some(links.into_iter().map(|link| (link, 0)).collect())
    }

    /// Pulls the given packets' flits out of the network and re-queues each
    /// packet at its source on its flow's route from `new_routes` — the
    /// drain mechanics of [`drain_deadlocked`](Self::drain_deadlocked)
    /// without the permanent DBR reconfiguration.
    fn pull_back_to_source(
        &mut self,
        victims: &[PacketId],
        new_routes: &HashMap<FlowId, Vec<(LinkId, usize)>>,
        flow_queues: &mut BTreeMap<FlowId, VecDeque<PacketId>>,
    ) {
        let victim_set: HashSet<PacketId> = victims.iter().copied().collect();
        let mut removed: HashMap<PacketId, Vec<Flit>> = HashMap::new();
        for buffer in &mut self.buffers {
            buffer.retain(|bf| {
                if victim_set.contains(&bf.flit.packet) {
                    removed.entry(bf.flit.packet).or_default().push(bf.flit);
                    false
                } else {
                    true
                }
            });
        }
        for owner in &mut self.owner {
            if owner.is_some_and(|p| victim_set.contains(&p)) {
                *owner = None;
            }
        }
        let occupancy: Vec<usize> = self.buffers.iter().map(VecDeque::len).collect();
        self.credits.reset_from_occupancy(occupancy);
        for &packet_id in victims {
            let state = self
                .packets
                .get_mut(&packet_id)
                .expect("pulled packets exist");
            let flow = state.packet.flow;
            let mut flits = removed.remove(&packet_id).unwrap_or_default();
            flits.sort_by_key(|f| f.sequence);
            flits.extend(state.to_inject.drain(..));
            let remaining = flits.len();
            debug_assert!(remaining > 0, "pulled-back packets have flits left");
            for (index, flit) in flits.iter_mut().enumerate() {
                flit.kind = if remaining == 1 {
                    FlitKind::HeadTail
                } else if index == 0 {
                    FlitKind::Head
                } else if index + 1 == remaining {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                };
            }
            state.to_inject = flits.into();
            state.taken.clear();
            let route = new_routes
                .get(&flow)
                .expect("pulled packets have a committed route");
            assert!(
                !route.is_empty(),
                "flow {flow} pulled back onto an empty route"
            );
            state.links = route.iter().map(|&(link, _)| link).collect();
            state.assigned = route.iter().map(|&(_, vc)| vc).collect();
        }
        // Re-queue, oldest first, never burying a surviving mid-injection
        // front (same invariant as the DBR drain).
        let mut per_flow: BTreeMap<FlowId, Vec<PacketId>> = BTreeMap::new();
        for &packet_id in victims {
            per_flow
                .entry(self.packets[&packet_id].packet.flow)
                .or_default()
                .push(packet_id);
        }
        for (flow, mut ids) in per_flow {
            ids.sort();
            let queue = flow_queues.entry(flow).or_default();
            queue.retain(|id| !victim_set.contains(id));
            let insert_at = match queue.front() {
                Some(front) if !self.packets[front].taken.is_empty() => 1,
                _ => 0,
            };
            for &id in ids.iter().rev() {
                queue.insert(insert_at, id);
            }
        }
    }

    /// Removes every undelivered packet of the given flows from the network
    /// and the accounting.  Returns the number of packets purged (each
    /// becomes an unreachable packet, not a stranded one).
    fn strand_flows(
        &mut self,
        flows: &[FlowId],
        flow_queues: &mut BTreeMap<FlowId, VecDeque<PacketId>>,
        in_flight: &mut usize,
    ) -> usize {
        let flow_set: HashSet<FlowId> = flows.iter().copied().collect();
        let mut victims: Vec<PacketId> = self
            .packets
            .iter()
            .filter(|(_, s)| flow_set.contains(&s.packet.flow) && s.ejected < s.packet.length)
            .map(|(&id, _)| id)
            .collect();
        victims.sort();
        if victims.is_empty() {
            return 0;
        }
        let victim_set: HashSet<PacketId> = victims.iter().copied().collect();
        for buffer in &mut self.buffers {
            buffer.retain(|bf| !victim_set.contains(&bf.flit.packet));
        }
        for owner in &mut self.owner {
            if owner.is_some_and(|p| victim_set.contains(&p)) {
                *owner = None;
            }
        }
        let occupancy: Vec<usize> = self.buffers.iter().map(VecDeque::len).collect();
        self.credits.reset_from_occupancy(occupancy);
        for flow in flows {
            if let Some(queue) = flow_queues.get_mut(flow) {
                queue.retain(|id| !victim_set.contains(id));
            }
        }
        for id in &victims {
            self.packets.remove(id);
        }
        *in_flight -= victims.len();
        victims.len()
    }
}

/// Panics when a route references a link or VC outside the VC map.
fn validate_routes(routes: &RouteSet, vc_map: &VcMap, what: &str) {
    for (flow, route) in routes.iter() {
        for channel in route.channels() {
            let vcs = vc_map.link_vcs(channel.link);
            assert!(
                channel.vc < vcs,
                "{what} of {flow} references unknown channel {channel} \
                 (link has {vcs} VCs in the VC map)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdaptiveEscape, AssignedVc, SingleVc};
    use noc_deadlock::vcmap::VcMap;
    use noc_routing::shortest::route_all_shortest;
    use noc_routing::Route;
    use noc_topology::{generators, CoreMap, LinkId, Topology};

    fn line_design() -> (Topology, CommGraph, RouteSet) {
        let generated = generators::chain(3, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 100.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[2]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        (generated.topology, comm, routes)
    }

    /// The Figure 1 configuration: four flows chasing each other around a
    /// unidirectional ring.
    fn figure_1_ring() -> (Topology, CommGraph, RouteSet) {
        let generated = generators::unidirectional_ring(4, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..4 {
            comm.add_flow(cores[i], cores[(i + 2) % 4], 100.0);
        }
        let links: Vec<LinkId> = (0..4).map(LinkId::from_index).collect();
        let mut routes = RouteSet::new(4);
        for i in 0..4 {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([links[i], links[(i + 1) % 4]]),
            );
        }
        (generated.topology, comm, routes)
    }

    fn pressure_traffic() -> TrafficConfig {
        TrafficConfig {
            packets_per_flow: 20,
            packet_length: 6,
            mean_gap_cycles: 0,
            seed: 1,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn single_flow_delivers_all_packets() {
        let (topo, comm, routes) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        let mut sim = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        );
        let outcome = sim.run(&TrafficConfig {
            packets_per_flow: 10,
            packet_length: 4,
            ..TrafficConfig::default()
        });
        assert!(!outcome.deadlocked);
        assert_eq!(outcome.stats.injected_packets, 10);
        assert_eq!(outcome.stats.delivered_packets, 10);
        assert_eq!(outcome.stats.delivered_flits, 40);
        assert_eq!(outcome.stranded_packets, 0);
        assert!(outcome.detection.is_none());
        assert_eq!(outcome.drain, DrainStats::default());
        assert_eq!(outcome.policy, "assigned-vc");
        assert!(outcome.stats.mean_latency() >= 2.0, "2 hops minimum");
    }

    #[test]
    fn same_switch_flow_is_delivered_instantly() {
        let generated = generators::chain(2, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 10.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[0]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        let vc_map = VcMap::from_design(&generated.topology, &routes);
        let config = VcSimConfig::default();
        let outcome = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config)
            .run(&TrafficConfig::default());
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert!(!outcome.deadlocked);
    }

    #[test]
    fn cyclic_ring_under_pressure_deadlocks() {
        // Before removal every hop is assigned VC 0, so honouring the
        // assignment is no protection: the cyclic CDG deadlocks.
        let (topo, comm, routes) = figure_1_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            idle_timeout: 200,
            max_cycles: 100_000,
            ..VcSimConfig::default()
        };
        let outcome = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config)
            .run(&pressure_traffic());
        assert!(
            outcome.deadlocked,
            "the cyclic CDG design must deadlock under pressure"
        );
        assert!(outcome.stranded_packets > 0);
    }

    #[test]
    fn larger_buffers_reduce_latency_under_contention() {
        let generated = generators::chain(5, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..5).map(|i| comm.add_core(format!("c{i}"))).collect();
        // Several flows sharing the same chain links.
        comm.add_flow(cores[0], cores[4], 100.0);
        comm.add_flow(cores[1], cores[4], 100.0);
        comm.add_flow(cores[0], cores[3], 100.0);
        let mut map = CoreMap::new(5);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        let vc_map = VcMap::from_design(&generated.topology, &routes);
        let traffic = TrafficConfig {
            packets_per_flow: 30,
            packet_length: 4,
            ..TrafficConfig::default()
        };
        let run = |buffer_depth| {
            let config = VcSimConfig {
                buffer_depth,
                ..VcSimConfig::default()
            };
            VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config).run(&traffic)
        };
        let (small, large) = (run(1), run(8));
        assert!(!small.deadlocked && !large.deadlocked);
        assert!(large.stats.cycles <= small.stats.cycles);
    }

    #[test]
    fn unsafe_ring_deadlocks_and_the_exact_detector_names_the_knot() {
        let (topo, comm, routes) = figure_1_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            max_cycles: 100_000,
            ..VcSimConfig::default()
        };
        let mut sim = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config);
        let outcome = sim.run(&pressure_traffic());
        assert!(outcome.deadlocked, "the cyclic ring must deadlock");
        assert!(outcome.stranded_packets > 0);
        let event = outcome.detection.expect("detection recorded");
        assert_eq!(event.kind, DetectionKind::WaitForGraph);
        assert!(event.packets >= 2, "a knot involves several packets");
    }

    #[test]
    fn exact_detection_fires_no_later_than_the_timeout() {
        let (topo, comm, routes) = figure_1_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let exact = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &SingleVc,
            &VcSimConfig {
                buffer_depth: 1,
                idle_timeout: 0,
                ..VcSimConfig::default()
            },
        )
        .run(&pressure_traffic());
        let timeout = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &SingleVc,
            &VcSimConfig {
                buffer_depth: 1,
                detect_period: 0, // exact detector disabled
                idle_timeout: 200,
                ..VcSimConfig::default()
            },
        )
        .run(&pressure_traffic());
        let exact_event = exact.detection.expect("exact detection fired");
        let timeout_event = timeout.detection.expect("timeout detection fired");
        assert_eq!(exact_event.kind, DetectionKind::WaitForGraph);
        assert_eq!(timeout_event.kind, DetectionKind::IdleTimeout);
        assert!(exact_event.cycle <= timeout_event.cycle);
    }

    #[test]
    fn assigned_vcs_from_removal_make_the_ring_safe() {
        let (mut topo, comm, routes) = figure_1_ring();
        let mut routes = routes;
        noc_deadlock::removal::remove_deadlocks(
            &mut topo,
            &mut routes,
            &noc_deadlock::removal::RemovalConfig::default(),
        )
        .unwrap();
        let vc_map = VcMap::from_design(&topo, &routes);
        assert!(!vc_map.is_single_vc(), "removal bought at least one VC");
        let config = VcSimConfig {
            buffer_depth: 1,
            ..VcSimConfig::default()
        };
        let mut sim = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config);
        let outcome = sim.run(&pressure_traffic());
        assert!(!outcome.deadlocked);
        assert!(outcome.detection.is_none());
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert_eq!(outcome.stranded_packets, 0);

        // The same repaired design simulated VC-obliviously deadlocks
        // again: the VC assignment is what the safety lives in.
        let mut unsafe_sim = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config);
        let unsafe_outcome = unsafe_sim.run(&pressure_traffic());
        assert!(unsafe_outcome.deadlocked);
    }

    #[test]
    fn removal_fixed_ring_does_not_deadlock() {
        // The Figure 1 ring after the deadlock-removal algorithm, caught by
        // the idle timeout alone if the repair were wrong.
        let (mut topo, comm, mut routes) = figure_1_ring();
        noc_deadlock::removal::remove_deadlocks(
            &mut topo,
            &mut routes,
            &noc_deadlock::removal::RemovalConfig::default(),
        )
        .unwrap();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            idle_timeout: 200,
            max_cycles: 200_000,
            ..VcSimConfig::default()
        };
        let outcome = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config)
            .run(&pressure_traffic());
        assert!(!outcome.deadlocked);
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert_eq!(outcome.stranded_packets, 0);
    }

    #[test]
    fn adaptive_escape_delivers_on_an_escape_design() {
        // Bidirectional ring, all-to-all flows, shortest routes: cyclic
        // CDG; escape channels repair it, and the Duato-adaptive policy
        // must deliver everything on the repaired design.
        let generated = generators::bidirectional_ring(6, 1.0);
        let n = 6;
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    comm.add_flow(cores[i], cores[j], 50.0);
                }
            }
        }
        let mut map = CoreMap::new(n);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let mut topo = generated.topology;
        let mut routes = route_all_shortest(&topo, &comm, &map).unwrap();
        noc_deadlock::escape::apply_escape_channels(
            &mut topo,
            &mut routes,
            noc_topology::SwitchId::from_index(0),
        )
        .unwrap();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            ..VcSimConfig::default()
        };
        let traffic = TrafficConfig {
            packets_per_flow: 6,
            packet_length: 5,
            ..TrafficConfig::default()
        };
        for policy in [&AssignedVc as &dyn VcPolicy, &AdaptiveEscape] {
            let mut sim = VcSimulator::new(&comm, &routes, &vc_map, policy, &config);
            let outcome = sim.run(&traffic);
            assert!(!outcome.deadlocked, "policy {}", policy.name());
            assert_eq!(
                outcome.stats.delivered_packets,
                outcome.stats.injected_packets,
                "policy {}",
                policy.name()
            );
        }
    }

    #[test]
    fn dynamic_drain_recovers_a_deadlocked_ring() {
        // The Figure 1 trap built on a *bidirectional* ring: the four flows
        // are forced the long way around the clockwise links, so the run
        // deadlocks exactly like the unidirectional ring — but legal
        // up*/down* recovery routes exist, and with the drain armed every
        // deadlock is resolved and the run completes.
        let generated = generators::bidirectional_ring(4, 1.0);
        let n = 4;
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..n {
            comm.add_flow(cores[i], cores[(i + 2) % n], 100.0);
        }
        let mut map = CoreMap::new(n);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let topo = generated.topology;
        let cw: Vec<LinkId> = (0..n)
            .map(|i| {
                topo.find_link(generated.switches[i], generated.switches[(i + 1) % n])
                    .expect("ring link exists")
            })
            .collect();
        let mut routes = RouteSet::new(n);
        for i in 0..n {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([cw[i], cw[(i + 1) % n]]),
            );
        }
        assert!(noc_deadlock::verify::check_deadlock_free(&topo, &routes).is_err());
        let recovery = noc_routing::updown::route_all_updown(
            &topo,
            &comm,
            &map,
            noc_topology::SwitchId::from_index(0),
        )
        .unwrap();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            max_cycles: 500_000,
            ..VcSimConfig::default()
        };
        let traffic = pressure_traffic();
        let mut sim =
            VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config).with_recovery(recovery);
        let outcome = sim.run(&traffic);
        assert!(!outcome.deadlocked, "every deadlock must be drained");
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert_eq!(outcome.stranded_packets, 0);
        // The run without recovery deadlocks, so the drain genuinely fired.
        let mut bare = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config);
        let bare_outcome = bare.run(&traffic);
        assert!(bare_outcome.deadlocked);
        assert!(outcome.drain.events >= 1);
        assert!(outcome.drain.packets_drained >= 1);
        assert!(outcome.drain.flows_reconfigured >= 1);
        assert!(outcome.detection.is_some());
    }

    #[test]
    fn credit_return_latency_throttles_but_still_delivers() {
        let (topo, comm, routes) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        let traffic = TrafficConfig {
            packets_per_flow: 10,
            packet_length: 4,
            ..TrafficConfig::default()
        };
        let fast = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig {
                credit_return_latency: 0,
                ..VcSimConfig::default()
            },
        )
        .run(&traffic);
        let slow = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig {
                credit_return_latency: 4,
                ..VcSimConfig::default()
            },
        )
        .run(&traffic);
        for outcome in [&fast, &slow] {
            assert!(!outcome.deadlocked);
            assert_eq!(
                outcome.stats.delivered_packets,
                outcome.stats.injected_packets
            );
        }
        assert!(
            slow.stats.cycles > fast.stats.cycles,
            "credit latency must cost cycles ({} vs {})",
            slow.stats.cycles,
            fast.stats.cycles
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let (topo, comm, routes) = figure_1_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig {
            buffer_depth: 1,
            ..VcSimConfig::default()
        };
        let a =
            VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config).run(&pressure_traffic());
        let b =
            VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config).run(&pressure_traffic());
        assert_eq!(a, b);
    }

    /// Bidirectional 6-ring with two disjoint clockwise 2-hop flows — an
    /// acyclic design whose routes a link fault can break.
    fn faultable_ring() -> (
        Topology,
        CommGraph,
        CoreMap,
        RouteSet,
        Vec<noc_topology::SwitchId>,
    ) {
        let generated = generators::bidirectional_ring(6, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..6).map(|i| comm.add_core(format!("c{i}"))).collect();
        comm.add_flow(cores[0], cores[2], 100.0);
        comm.add_flow(cores[3], cores[5], 100.0);
        let mut map = CoreMap::new(6);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        (generated.topology, comm, map, routes, generated.switches)
    }

    #[test]
    fn armed_with_an_empty_plan_is_byte_identical() {
        let (topo, comm, map, routes, _) = faultable_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        let config = VcSimConfig::default();
        let traffic = pressure_traffic();
        let plain = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config).run(&traffic);
        let armed = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config)
            .with_faults(&topo, &map, crate::fault::FaultPlan::none())
            .run(&traffic);
        assert_eq!(plain, armed);
        assert_eq!(
            armed.reconfig,
            noc_deadlock::report::ReconfigStats::default()
        );
    }

    #[test]
    fn link_fault_reroutes_and_delivers() {
        let (topo, comm, map, routes, switches) = faultable_ring();
        let vc_map = VcMap::from_design(&topo, &routes);
        // Kill the clockwise 1→2 link mid-run: flow 0→2 must detour.
        let dead = topo.find_link(switches[1], switches[2]).unwrap();
        let plan = crate::fault::FaultPlan::new(vec![crate::fault::FaultEvent {
            cycle: 20,
            kind: crate::fault::FaultKind::LinkDown(dead),
        }]);
        let mut sim = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        )
        .with_faults(&topo, &map, plan);
        let outcome = sim.run(&pressure_traffic());
        assert!(!outcome.deadlocked);
        assert_eq!(outcome.stranded_packets, 0);
        assert_eq!(outcome.unreachable_packets, 0);
        assert!(outcome.unreachable_flows.is_empty());
        assert_eq!(
            outcome.stats.delivered_packets,
            outcome.stats.injected_packets
        );
        assert_eq!(outcome.reconfig.epochs_committed, 1);
        assert!(outcome.reconfig.flows_rerouted >= 1);
        assert_eq!(outcome.reconfig.cyclic_commits, 0);
    }

    #[test]
    fn partition_is_a_typed_unreachable_not_a_timeout() {
        let generated = generators::chain(3, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 100.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[2]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        let vc_map = VcMap::from_design(&generated.topology, &routes);
        // The destination switch dies mid-run: the flow is stranded.
        let plan = crate::fault::FaultPlan::new(vec![crate::fault::FaultEvent {
            cycle: 30,
            kind: crate::fault::FaultKind::SwitchDown(generated.switches[2]),
        }]);
        let traffic = TrafficConfig {
            packets_per_flow: 10,
            packet_length: 4,
            mean_gap_cycles: 10,
            seed: 1,
            ..TrafficConfig::default()
        };
        let mut sim = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        )
        .with_faults(&generated.topology, &map, plan);
        let outcome = sim.run(&traffic);
        assert!(!outcome.deadlocked, "a partition is not a deadlock");
        assert!(outcome.detection.is_none(), "no knot, no detection");
        assert_eq!(outcome.stranded_packets, 0);
        assert_eq!(outcome.unreachable_flows, vec![FlowId::from_index(0)]);
        assert!(outcome.unreachable_packets >= 1);
        assert_eq!(
            outcome.stats.delivered_packets as usize + outcome.unreachable_packets,
            outcome.stats.injected_packets as usize,
            "delivered + unreachable accounts for every injected packet"
        );
        assert_eq!(outcome.reconfig.events.len(), 1);
        assert_eq!(outcome.reconfig.events[0].flows_unreachable, 1);
        assert_eq!(outcome.reconfig.cyclic_commits, 0);
    }

    #[test]
    fn repair_restores_a_stranded_flow() {
        let generated = generators::chain(3, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 100.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[2]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();
        let vc_map = VcMap::from_design(&generated.topology, &routes);
        let fwd = generated
            .topology
            .find_link(generated.switches[1], generated.switches[2])
            .unwrap();
        let bwd = generated
            .topology
            .find_link(generated.switches[2], generated.switches[1])
            .unwrap();
        let plan = crate::fault::FaultPlan::new(vec![
            crate::fault::FaultEvent {
                cycle: 30,
                kind: crate::fault::FaultKind::LinkDown(fwd),
            },
            crate::fault::FaultEvent {
                cycle: 30,
                kind: crate::fault::FaultKind::LinkDown(bwd),
            },
            crate::fault::FaultEvent {
                cycle: 200,
                kind: crate::fault::FaultKind::LinkUp(fwd),
            },
            crate::fault::FaultEvent {
                cycle: 200,
                kind: crate::fault::FaultKind::LinkUp(bwd),
            },
        ]);
        let traffic = TrafficConfig {
            packets_per_flow: 20,
            packet_length: 4,
            mean_gap_cycles: 20,
            seed: 2,
            ..TrafficConfig::default()
        };
        let mut sim = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        )
        .with_faults(&generated.topology, &map, plan);
        let outcome = sim.run(&traffic);
        assert!(!outcome.deadlocked);
        assert_eq!(outcome.stranded_packets, 0);
        assert!(
            outcome.unreachable_flows.is_empty(),
            "the repair puts the flow back in service"
        );
        assert!(
            outcome.unreachable_packets >= 1,
            "the outage dropped traffic"
        );
        assert!(
            outcome.stats.delivered_packets >= 1,
            "traffic after the repair is delivered"
        );
        assert_eq!(
            outcome.stats.delivered_packets as usize + outcome.unreachable_packets,
            outcome.stats.injected_packets as usize
        );
        assert_eq!(outcome.reconfig.cyclic_commits, 0);
    }

    #[test]
    fn fault_on_a_trapped_ring_commits_acyclic_via_the_fallback() {
        // The Figure 1 trap on a bidirectional ring (cyclic committed
        // routes, single VC) plus a pendant switch.  The pendant link dies
        // at cycle 1, while the ring knot is fully formed: the pendant flow
        // is disconnected, but no surviving candidate crosses the dead
        // link, so the committed cycle reaches the fallback loop — which
        // must reroute the ring flows onto up*/down*, drain the knotted
        // worms, and never commit cyclic.
        let mut generated = generators::bidirectional_ring(4, 1.0);
        let n = 4;
        let pendant_switch = generated.topology.add_switch("pendant");
        let (pendant_link, _) =
            generated
                .topology
                .add_bidirectional_link(pendant_switch, generated.switches[0], 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
        for i in 0..n {
            comm.add_flow(cores[i], cores[(i + 2) % n], 100.0);
        }
        let pendant_core = comm.add_core("cp");
        let pendant_flow = comm.add_flow(pendant_core, cores[2], 100.0);
        let mut map = CoreMap::new(n + 1);
        for (i, &c) in cores.iter().enumerate() {
            map.assign(c, generated.switches[i]).unwrap();
        }
        map.assign(pendant_core, pendant_switch).unwrap();
        let topo = generated.topology;
        let cw: Vec<LinkId> = (0..n)
            .map(|i| {
                topo.find_link(generated.switches[i], generated.switches[(i + 1) % n])
                    .expect("ring link exists")
            })
            .collect();
        let mut routes = RouteSet::new(n + 1);
        for i in 0..n {
            routes.set_route(
                FlowId::from_index(i),
                Route::from_links([cw[i], cw[(i + 1) % n]]),
            );
        }
        routes.set_route(
            pendant_flow,
            Route::from_links([pendant_link, cw[0], cw[1]]),
        );
        assert!(noc_deadlock::verify::check_deadlock_free(&topo, &routes).is_err());
        let vc_map = VcMap::from_design(&topo, &routes);
        // Fire at cycle 1: the exact detector ends a recovery-less run on
        // the first stalled cycle, so the epoch must land while the trap is
        // formed but before detection condemns it.
        let plan = crate::fault::FaultPlan::new(vec![crate::fault::FaultEvent {
            cycle: 1,
            kind: crate::fault::FaultKind::LinkDown(pendant_link),
        }]);
        let config = VcSimConfig {
            buffer_depth: 1,
            max_cycles: 500_000,
            record_reconfig_routes: true,
            ..VcSimConfig::default()
        };
        let mut sim = VcSimulator::new(&comm, &routes, &vc_map, &SingleVc, &config)
            .with_faults(&topo, &map, plan);
        let outcome = sim.run(&pressure_traffic());
        assert!(!outcome.deadlocked, "the epoch protocol resolves the trap");
        assert_eq!(outcome.stranded_packets, 0);
        assert_eq!(outcome.unreachable_flows, vec![pendant_flow]);
        assert!(outcome.stats.delivered_packets >= 1);
        assert_eq!(
            outcome.stats.delivered_packets as usize + outcome.unreachable_packets,
            outcome.stats.injected_packets as usize
        );
        assert_eq!(outcome.reconfig.cyclic_commits, 0);
        assert!(
            outcome.reconfig.flows_rerouted >= n,
            "every trapped ring flow moves onto up*/down*"
        );
        assert!(
            outcome.reconfig.drain_fallbacks >= 1,
            "the cyclic committed routes force the fallback"
        );
        // The recorded epoch snapshot is deadlock-free end to end.
        assert_eq!(outcome.reconfig_routes.len(), 1);
        let snapshot = &outcome.reconfig_routes[0];
        assert!(noc_deadlock::verify::check_deadlock_free(&topo, snapshot).is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown channel")]
    fn routes_outside_the_vc_map_are_rejected() {
        let (topo, comm, mut routes) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        routes
            .route_mut(FlowId::from_index(0))
            .unwrap()
            .channels_mut()[0] = noc_topology::Channel::new(LinkId::from_index(0), 9);
        let _ = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "unknown channel")]
    fn routes_with_unknown_channels_are_rejected() {
        // A link the topology (and so the VC map) does not have at all.
        let (topo, comm, mut routes) = line_design();
        let vc_map = VcMap::from_design(&topo, &routes);
        routes
            .route_mut(FlowId::from_index(0))
            .unwrap()
            .channels_mut()[0] = noc_topology::Channel::new(LinkId::from_index(99), 0);
        let _ = VcSimulator::new(
            &comm,
            &routes,
            &vc_map,
            &AssignedVc,
            &VcSimConfig::default(),
        );
    }
}
