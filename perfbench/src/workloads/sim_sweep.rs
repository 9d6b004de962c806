//! `sim_sweep`: the deadlock strategies on the VC-accurate wormhole engine.
//!
//! For each grid point, six policies run the same workload at injection
//! gaps 0, 8 and 32: the unrepaired design with one VC per link (the
//! unsafe control), the cycle-breaking, resource-ordering and
//! escape-channel designs honouring their VC assignments, the escape
//! design under the Duato-adaptive policy, and the unrepaired design under
//! the DBR-style recovery drain.  Each workload is seeded uniform traffic
//! plus a cycle-stress prefix on the flows inside cyclic CDG SCCs, with
//! one-flit buffers and the exact detector.  Designs are repaired in
//! set-up; one simulator run is one operation.  The pass ends by rendering
//! the sweep artifact and parsing it back.

use super::{sim_config, synthesized_design, verify_repaired, Design, Workload};
use crate::layers::call;
use crate::record::{mix, PassRecord};
use noc_deadlock::cdg::Cdg;
use noc_deadlock::VcMap;
use noc_flow::json::{ObjectWriter, ToJson};
use noc_flow::{
    CycleBreaking, DeadlockStrategy, EscapeChannel, ResourceOrdering, StrategySimStats,
};
use noc_routing::updown::route_all_updown;
use noc_routing::RouteSet;
use noc_sim::traffic::{generate_workload, Workload as SimWorkload};
use noc_sim::{
    AdaptiveEscape, AssignedVc, DetectionKind, Packet, PacketId, SingleVc, TrafficConfig, VcPolicy,
    VcSimConfig, VcSimOutcome, VcSimulator,
};
use noc_topology::benchmarks::Benchmark;
use noc_topology::{FlowId, SwitchId};

/// The grid: D26_media points (acyclic, cheap) and the D36_8 points on
/// which the unsafe baseline deadlocks (18 switches and up).
const GRID: [(Benchmark, usize); 7] = [
    (Benchmark::D26Media, 5),
    (Benchmark::D26Media, 15),
    (Benchmark::D26Media, 25),
    (Benchmark::D36x8, 18),
    (Benchmark::D36x8, 22),
    (Benchmark::D36x8, 26),
    (Benchmark::D36x8, 30),
];

/// Mean injection gaps in cycles, from saturation to light load.
const GAPS: [u64; 3] = [0, 8, 32];

/// The policy axis, in run order.
const POLICIES: [&str; 6] = [
    "unsafe-single-vc",
    "cycle-breaking",
    "resource-ordering",
    "escape-channel",
    "escape-channel-adaptive",
    "recovery-reconfig",
];

/// Index of the unsafe control in [`POLICIES`].
const UNSAFE: usize = 0;

/// Packets and flits per flow of the cycle-stress prefix.
const STRESS_PACKETS: usize = 4;
const STRESS_LENGTH: usize = 8;

/// One grid point after set-up.
struct Point {
    design: Design,
    stress: Vec<FlowId>,
    base_map: VcMap,
    /// Cycle-breaking, resource-ordering and escape-channel designs.
    repaired: [(RouteSet, VcMap); 3],
    recovery: RouteSet,
    /// VCs added and cycles broken by Algorithm 1 on this point.
    removal: (usize, usize),
    traffic_seed: u64,
}

struct SimSweep {
    points: Vec<Point>,
    config: VcSimConfig,
}

/// Synthesizes, routes and repairs every grid point.
pub fn setup(seed: u64, rec: &mut PassRecord) -> Box<dyn Workload> {
    let strategies: [&dyn DeadlockStrategy; 3] = [
        &CycleBreaking::default(),
        &ResourceOrdering,
        &EscapeChannel::default(),
    ];
    let mut points = Vec::new();
    for (salt, &(benchmark, switches)) in GRID.iter().enumerate() {
        let comm = benchmark.comm_graph();
        let Some(design) = synthesized_design(benchmark, &comm, switches, rec) else {
            continue;
        };
        let stress = call("core.cdg_build", || {
            Cdg::build(&design.topology, &design.routes).cyclic_flows()
        });
        let mut repaired = Vec::new();
        let mut removal = (0, 0);
        for strategy in strategies {
            let label = format!("{}/{}", design.label, strategy.name());
            let resolved = call("core.repair", || {
                strategy.resolve_cloned(&design.topology, &design.routes)
            });
            match resolved {
                Ok((topology, routes, resolution)) => {
                    if repaired.is_empty() {
                        removal = (resolution.added_vcs, resolution.cycles_broken);
                    }
                    rec.op(|rec| verify_repaired(&label, &topology, &routes, rec));
                    let map = VcMap::from_design(&topology, &routes);
                    repaired.push((routes, map));
                }
                Err(e) => rec.standalone_check(false, || format!("{label}: failed: {e}")),
            }
        }
        let recovery = call("routing.route", || {
            route_all_updown(
                &design.topology,
                &design.comm,
                &design.core_map,
                SwitchId::from_index(0),
            )
        });
        let recovery = match recovery {
            Ok(routes) => routes,
            Err(e) => {
                let label = &design.label;
                rec.standalone_check(false, || format!("{label}: no up*/down* routes: {e}"));
                continue;
            }
        };
        let Ok(repaired) = <[(RouteSet, VcMap); 3]>::try_from(repaired) else {
            continue;
        };
        points.push(Point {
            base_map: VcMap::from_design(&design.topology, &design.routes),
            design,
            stress,
            repaired,
            recovery,
            removal,
            traffic_seed: mix(seed, salt as u64),
        });
    }
    Box::new(SimSweep {
        points,
        config: sim_config(),
    })
}

/// Seeded uniform traffic plus the cycle-stress prefix: `STRESS_PACKETS`
/// packets of `STRESS_LENGTH` flits on every flow inside a cyclic CDG SCC,
/// all created at cycle 0, so those flows press on the cycle together.
fn stress_workload(point: &Point, traffic: &TrafficConfig) -> SimWorkload {
    let mut packets: Vec<Packet> = point
        .stress
        .iter()
        .flat_map(|&flow| {
            (0..STRESS_PACKETS).map(move |_| Packet {
                id: PacketId(0),
                flow,
                length: STRESS_LENGTH,
                created_at: 0,
            })
        })
        .collect();
    packets.extend(generate_workload(&point.design.comm, traffic).packets);
    for (index, packet) in packets.iter_mut().enumerate() {
        packet.id = PacketId(index);
    }
    packets.sort_by_key(|p| (p.created_at, p.id.0));
    SimWorkload { packets }
}

/// One policy at one gap, as the artifact records it.
struct RatePoint {
    gap: u64,
    stats: StrategySimStats,
    detected_by: Option<&'static str>,
    drain_events: usize,
    packets_drained: usize,
}

impl ToJson for RatePoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("mean_gap_cycles", &self.gap)
            .field("stats", &self.stats)
            .field("detected_by", &self.detected_by)
            .field("recovery_events", &self.drain_events)
            .field("packets_drained", &self.packets_drained)
            .finish();
    }
}

/// One grid point of the artifact.
struct PointRow {
    label: String,
    switches: usize,
    stress_flows: usize,
    series: Vec<PolicySeries>,
}

impl ToJson for PointRow {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("design", &self.label)
            .field("switch_count", &self.switches)
            .field("stress_flows", &self.stress_flows)
            .field("series", &self.series)
            .finish();
    }
}

/// One policy's runs at every gap.
struct PolicySeries {
    policy: &'static str,
    rates: Vec<RatePoint>,
}

impl ToJson for PolicySeries {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("policy", &self.policy)
            .field("rates", &self.rates)
            .finish();
    }
}

impl SimSweep {
    /// Runs one policy on one workload.
    fn simulate(&self, point: &Point, policy: usize, workload: &SimWorkload) -> VcSimOutcome {
        let comm = &point.design.comm;
        let config = &self.config;
        let (routes, map, vc_policy): (&RouteSet, &VcMap, &dyn VcPolicy) = match policy {
            0 => (&point.design.routes, &point.base_map, &SingleVc),
            1..=3 => {
                let (routes, map) = &point.repaired[policy - 1];
                (routes, map, &AssignedVc)
            }
            4 => (&point.repaired[2].0, &point.repaired[2].1, &AdaptiveEscape),
            _ => (&point.design.routes, &point.base_map, &AssignedVc),
        };
        let mut sim = call("sim.new", || {
            let sim = VcSimulator::new(comm, routes, map, vc_policy, config);
            if policy == POLICIES.len() - 1 {
                sim.with_recovery(point.recovery.clone())
            } else {
                sim
            }
        });
        call("sim.run", || sim.run_workload(workload))
    }
}

impl Workload for SimSweep {
    fn pass(&self, rec: &mut PassRecord) {
        let mut rows = Vec::with_capacity(self.points.len());
        for point in &self.points {
            rec.added_vcs += point.removal.0 as u64;
            rec.cycles_broken += point.removal.1 as u64;
            let mut series: Vec<PolicySeries> = POLICIES
                .iter()
                .map(|&policy| PolicySeries {
                    policy,
                    rates: Vec::new(),
                })
                .collect();
            for gap in GAPS {
                let traffic = TrafficConfig {
                    packets_per_flow: 4,
                    packet_length: 8,
                    mean_gap_cycles: gap,
                    seed: point.traffic_seed,
                    ..TrafficConfig::default()
                };
                let workload = call("sim.workload_gen", || stress_workload(point, &traffic));
                for (policy, entry) in series.iter_mut().enumerate() {
                    let outcome = rec.op(|rec| {
                        let outcome = self.simulate(point, policy, &workload);
                        check_outcome(&point.design.label, policy, gap, &outcome, rec);
                        outcome
                    });
                    record_outcome(policy, gap, &outcome, rec);
                    entry.rates.push(RatePoint {
                        gap,
                        stats: StrategySimStats::from_outcome(&outcome),
                        detected_by: outcome.detection.map(|e| e.kind.name()),
                        drain_events: outcome.drain.events,
                        packets_drained: outcome.drain.packets_drained,
                    });
                }
            }
            rows.push(PointRow {
                label: point.design.label.clone(),
                switches: point.design.switches,
                stress_flows: point.stress.len(),
                series,
            });
        }
        crate::artifact::round_trip("perfbench_sim_sweep", &rows, rec);
    }
}

/// Every safe policy delivers every injected packet without deadlock, and
/// every deadlock of the unsafe control is found by the exact detector.
fn check_outcome(
    label: &str,
    policy: usize,
    gap: u64,
    outcome: &VcSimOutcome,
    rec: &mut PassRecord,
) {
    let name = POLICIES[policy];
    if policy == UNSAFE {
        if outcome.deadlocked {
            let kind = outcome.detection.map(|e| e.kind);
            rec.check(kind == Some(DetectionKind::WaitForGraph), || {
                format!("{label}/{name}/gap {gap}: deadlock not found by wait-for-graph")
            });
        }
    } else {
        let stats = &outcome.stats;
        rec.check(
            !outcome.deadlocked && stats.delivered_packets == stats.injected_packets,
            || {
                format!(
                    "{label}/{name}/gap {gap}: delivered {} of {} (deadlocked: {})",
                    stats.delivered_packets, stats.injected_packets, outcome.deadlocked
                )
            },
        );
    }
}

/// Folds one run's simulated outputs into the record.
fn record_outcome(policy: usize, gap: u64, outcome: &VcSimOutcome, rec: &mut PassRecord) {
    let stats = &outcome.stats;
    rec.sim_cycles += stats.cycles;
    rec.delivered_flits += stats.delivered_flits as u64;
    rec.detections += u64::from(outcome.detection.is_some()) + outcome.drain.events as u64;
    rec.drain_events += outcome.drain.events as u64;
    if policy != UNSAFE {
        rec.latencies.extend_from_slice(&stats.latency_samples);
    }
    rec.digest.words(&[
        policy as u64,
        gap,
        stats.injected_packets as u64,
        stats.delivered_packets as u64,
        stats.delivered_flits as u64,
        stats.total_latency_cycles,
        stats.max_latency_cycles,
        stats.cycles,
        u64::from(outcome.deadlocked),
        outcome.detection.map_or(0, |e| e.cycle + 1),
        outcome.drain.events as u64,
        outcome.drain.packets_drained as u64,
        outcome.drain.flows_reconfigured as u64,
    ]);
}
