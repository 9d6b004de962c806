//! Property-style tests for the wormhole simulator: conservation laws and
//! the central deadlock-freedom claim (designs with acyclic CDGs always
//! drain their workload).  Every run rides the VCs the design assigns
//! ([`AssignedVc`]) on the VC-fidelity engine.
//!
//! The crates.io `proptest` crate is unavailable in the offline build
//! environment, so the properties are checked over deterministic parameter
//! grids covering the same ranges the proptest strategies drew from.

use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::verify;
use noc_deadlock::VcMap;
use noc_routing::shortest::route_all_shortest;
use noc_routing::xy::{route_all_xy, MeshCoords};
use noc_routing::RouteSet;
use noc_sim::{AssignedVc, TrafficConfig, VcSimConfig, VcSimOutcome, VcSimulator};
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::benchmarks::Benchmark;
use noc_topology::{generators, CommGraph, CoreMap, Topology};

/// Runs the design with every flow on its assigned VCs.
fn run_assigned(
    topology: &Topology,
    comm: &CommGraph,
    routes: &RouteSet,
    config: &VcSimConfig,
    traffic: &TrafficConfig,
) -> VcSimOutcome {
    let vc_map = VcMap::from_design(topology, routes);
    VcSimulator::new(comm, routes, &vc_map, &AssignedVc, config).run(traffic)
}

/// Builds an all-to-all communication graph and mapping over a generated
/// topology, one core per switch.
fn all_to_all(generated: &generators::Generated, bandwidth: f64) -> (CommGraph, CoreMap) {
    let n = generated.switches.len();
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("c{i}"))).collect();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                comm.add_flow(cores[i], cores[j], bandwidth);
            }
        }
    }
    let mut map = CoreMap::new(n);
    for (i, &c) in cores.iter().enumerate() {
        map.assign(c, generated.switches[i]).unwrap();
    }
    (comm, map)
}

/// XY-routed meshes (acyclic CDG by construction) always deliver every
/// packet, for any mesh size, packet length and buffer depth.
#[test]
fn xy_meshes_never_deadlock() {
    for (rows, cols, packet_length, buffer_depth, packets_per_flow) in [
        (2, 2, 1, 1, 1),
        (2, 3, 5, 1, 3),
        (3, 2, 2, 3, 2),
        (3, 3, 4, 2, 3),
        (2, 2, 3, 2, 2),
        (3, 3, 1, 1, 1),
    ] {
        let generated = generators::mesh2d(rows, cols, 1000.0);
        let coords = MeshCoords::new(rows, cols, generated.switches.clone());
        let (comm, map) = all_to_all(&generated, 100.0);
        let routes = route_all_xy(&generated.topology, &comm, &map, &coords).unwrap();
        assert!(verify::check_deadlock_free(&generated.topology, &routes).is_ok());

        let outcome = run_assigned(
            &generated.topology,
            &comm,
            &routes,
            &VcSimConfig {
                buffer_depth,
                idle_timeout: 2_000,
                max_cycles: 2_000_000,
                ..VcSimConfig::default()
            },
            &TrafficConfig {
                packets_per_flow,
                packet_length,
                mean_gap_cycles: 0,
                seed: 11,
                ..TrafficConfig::default()
            },
        );
        let case = format!("{rows}x{cols} len={packet_length} depth={buffer_depth}");
        assert!(!outcome.deadlocked, "{case}");
        assert_eq!(outcome.detection, None, "{case}");
        assert_eq!(
            outcome.stats.delivered_packets, outcome.stats.injected_packets,
            "{case}"
        );
        assert_eq!(outcome.stranded_packets, 0, "{case}");
        // Flit conservation.
        assert_eq!(
            outcome.stats.delivered_flits,
            outcome.stats.delivered_packets * packet_length.max(1),
            "{case}"
        );
    }
}

/// Repaired benchmark designs always drain the workload, whatever the
/// buffer depth and packet length.
#[test]
fn repaired_designs_always_drain() {
    for (switches, packet_length, buffer_depth) in
        [(4, 1, 1), (6, 4, 2), (8, 2, 1), (10, 3, 2), (11, 1, 2)]
    {
        let comm = Benchmark::D36x6.comm_graph();
        let design = synthesize(&comm, &SynthesisConfig::with_switches(switches)).unwrap();
        let mut topology = design.topology.clone();
        let mut routes = design.routes.clone();
        remove_deadlocks(&mut topology, &mut routes, &RemovalConfig::default()).unwrap();
        assert!(verify::check_deadlock_free(&topology, &routes).is_ok());

        let outcome = run_assigned(
            &topology,
            &comm,
            &routes,
            &VcSimConfig {
                buffer_depth,
                idle_timeout: 2_000,
                max_cycles: 4_000_000,
                ..VcSimConfig::default()
            },
            &TrafficConfig {
                packets_per_flow: 2,
                packet_length,
                mean_gap_cycles: 0,
                seed: 3,
                ..TrafficConfig::default()
            },
        );
        let case = format!("switches={switches} len={packet_length} depth={buffer_depth}");
        assert!(!outcome.deadlocked, "{case}");
        assert_eq!(outcome.detection, None, "{case}");
        assert_eq!(
            outcome.stats.delivered_packets, outcome.stats.injected_packets,
            "{case}"
        );
    }
}

/// Latency sanity: on a contention-free chain, packet latency is at
/// least the hop count and delivery is complete.
#[test]
fn chain_latency_is_at_least_hop_count() {
    for (length, packet_length) in [(2, 1), (3, 5), (4, 2), (5, 4), (7, 3)] {
        let generated = generators::chain(length, 1000.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 100.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[length - 1]).unwrap();
        let routes = route_all_shortest(&generated.topology, &comm, &map).unwrap();

        let outcome = run_assigned(
            &generated.topology,
            &comm,
            &routes,
            &VcSimConfig::default(),
            &TrafficConfig {
                packets_per_flow: 3,
                packet_length,
                mean_gap_cycles: 0,
                seed: 1,
                ..TrafficConfig::default()
            },
        );
        let case = format!("length={length} packet_length={packet_length}");
        assert!(!outcome.deadlocked, "{case}");
        assert_eq!(outcome.stats.delivered_packets, 3, "{case}");
        assert!(
            outcome.stats.mean_latency() >= (length - 1) as f64,
            "{case}"
        );
    }
}
