//! `fault_storm`: repaired designs under live fault reconfiguration.
//!
//! For each grid point, the cycle-breaking, resource-ordering,
//! escape-channel and recovery designs run under the same seeded storm of
//! three link-pair failures (from cycle 150, 250 cycles apart, never
//! repaired, partition-avoiding) with live epoch reconfiguration onto
//! up*/down* routes and 24 packets per flow.  Designs and storm plans are
//! set-up; one simulator run is one operation.

use super::{sim_config, synthesized_design, verify_repaired, Workload};
use crate::layers::call;
use crate::record::{mix, PassRecord};
use noc_deadlock::VcMap;
use noc_flow::{
    CycleBreaking, DeadlockStrategy, EscapeChannel, RecoveryReconfig, ResourceOrdering,
};
use noc_routing::RouteSet;
use noc_sim::traffic::generate_workload;
use noc_sim::{
    AssignedVc, FaultKind, FaultPlan, StormConfig, TrafficConfig, VcSimConfig, VcSimulator,
};
use noc_topology::benchmarks::Benchmark;
use noc_topology::{CommGraph, CoreMap, Topology};

/// The grid: D26_media and D36_8 points across both figures' ranges.
const GRID: [(Benchmark, usize); 8] = [
    (Benchmark::D26Media, 8),
    (Benchmark::D26Media, 14),
    (Benchmark::D26Media, 20),
    (Benchmark::D26Media, 25),
    (Benchmark::D36x8, 12),
    (Benchmark::D36x8, 20),
    (Benchmark::D36x8, 28),
    (Benchmark::D36x8, 35),
];

/// One repaired design, ready to simulate.
struct Repaired {
    strategy: String,
    topology: Topology,
    routes: RouteSet,
    map: VcMap,
}

/// One grid point after set-up.
struct Point {
    label: String,
    comm: CommGraph,
    core_map: CoreMap,
    designs: Vec<Repaired>,
    plan: FaultPlan,
    faults: usize,
    connected: bool,
    traffic: TrafficConfig,
    /// VCs added and cycles broken by Algorithm 1 on this point.
    removal: (usize, usize),
}

struct FaultStorm {
    points: Vec<Point>,
    config: VcSimConfig,
}

/// Synthesizes, routes and repairs every grid point and plans its storm.
pub fn setup(seed: u64, rec: &mut PassRecord) -> Box<dyn Workload> {
    let strategies: [&dyn DeadlockStrategy; 4] = [
        &CycleBreaking::default(),
        &ResourceOrdering,
        &EscapeChannel::default(),
        &RecoveryReconfig::default(),
    ];
    let mut points = Vec::new();
    for (salt, &(benchmark, switches)) in GRID.iter().enumerate() {
        let comm = benchmark.comm_graph();
        let Some(design) = synthesized_design(benchmark, &comm, switches, rec) else {
            continue;
        };
        let point_seed = mix(seed, salt as u64);
        let plan = FaultPlan::storm(
            &design.topology,
            &StormConfig {
                faults: 3,
                first_cycle: 150,
                spacing: 250,
                seed: mix(point_seed, 1),
                repair_after: None,
                avoid_partition: true,
            },
        );
        let faults = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkDown(_) | FaultKind::SwitchDown(_)))
            .count();
        let down = plan.final_faults(&design.topology);
        let connected = design
            .topology
            .connectivity_after(&down)
            .disconnected_flows(&design.comm, &design.core_map)
            .is_empty();
        let mut designs = Vec::new();
        let mut removal = (0, 0);
        for strategy in strategies {
            let label = format!("{}/{}", design.label, strategy.name());
            let resolved = call("core.repair", || {
                strategy.resolve_cloned(&design.topology, &design.routes)
            });
            match resolved {
                Ok((topology, routes, resolution)) => {
                    if designs.is_empty() {
                        removal = (resolution.added_vcs, resolution.cycles_broken);
                    }
                    rec.op(|rec| verify_repaired(&label, &topology, &routes, rec));
                    designs.push(Repaired {
                        strategy: strategy.name().to_string(),
                        map: VcMap::from_design(&topology, &routes),
                        topology,
                        routes,
                    });
                }
                Err(e) => rec.standalone_check(false, || format!("{label}: failed: {e}")),
            }
        }
        points.push(Point {
            label: design.label,
            comm: design.comm,
            core_map: design.core_map,
            designs,
            plan,
            faults,
            connected,
            traffic: TrafficConfig {
                packets_per_flow: 24,
                packet_length: 4,
                mean_gap_cycles: 36,
                seed: mix(point_seed, 2),
                ..TrafficConfig::default()
            },
            removal,
        });
    }
    Box::new(FaultStorm {
        points,
        config: sim_config(),
    })
}

impl Workload for FaultStorm {
    fn pass(&self, rec: &mut PassRecord) {
        for point in &self.points {
            rec.added_vcs += point.removal.0 as u64;
            rec.cycles_broken += point.removal.1 as u64;
            let workload = call("sim.workload_gen", || {
                generate_workload(&point.comm, &point.traffic)
            });
            for design in &point.designs {
                let label = format!("{}/{}", point.label, design.strategy);
                let outcome = rec.op(|rec| {
                    let sim = call("sim.new", || {
                        VcSimulator::new(
                            &point.comm,
                            &design.routes,
                            &design.map,
                            &AssignedVc,
                            &self.config,
                        )
                    });
                    let outcome = call("sim.fault_run", || {
                        sim.with_faults(&design.topology, &point.core_map, point.plan.clone())
                            .run_workload(&workload)
                    });
                    let reconfig = &outcome.reconfig;
                    rec.check(reconfig.cyclic_commits == 0, || {
                        format!("{label}: an epoch committed a cyclic dependency graph")
                    });
                    rec.check(!outcome.deadlocked, || {
                        format!("{label}: deadlocked through the storm")
                    });
                    if point.connected {
                        rec.check(outcome.unreachable_flows.is_empty(), || {
                            format!("{label}: connected storm left flows unreachable")
                        });
                        rec.check(outcome.stats.delivered_packets > 0, || {
                            format!("{label}: connected storm delivered nothing")
                        });
                    }
                    outcome
                });
                let stats = &outcome.stats;
                let reconfig = &outcome.reconfig;
                rec.sim_cycles += stats.cycles;
                rec.delivered_flits += stats.delivered_flits as u64;
                rec.detections +=
                    u64::from(outcome.detection.is_some()) + outcome.drain.events as u64;
                rec.drain_events += outcome.drain.events as u64;
                rec.reconfig_epochs += reconfig.epochs_committed as u64;
                rec.drain_fallbacks += reconfig.drain_fallbacks as u64;
                rec.latencies.extend_from_slice(&stats.latency_samples);
                rec.digest.words(&[
                    point.faults as u64,
                    u64::from(point.connected),
                    stats.injected_packets as u64,
                    stats.delivered_packets as u64,
                    stats.delivered_flits as u64,
                    stats.total_latency_cycles,
                    stats.max_latency_cycles,
                    stats.cycles,
                    u64::from(outcome.deadlocked),
                    reconfig.epochs_committed as u64,
                    reconfig.drain_fallbacks as u64,
                    reconfig.packets_drained as u64,
                    reconfig.flows_rerouted as u64,
                    outcome.unreachable_flows.len() as u64,
                    outcome.unreachable_packets as u64,
                ]);
            }
        }
    }
}
