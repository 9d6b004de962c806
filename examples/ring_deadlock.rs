//! Demonstrates an actual wormhole deadlock in simulation and shows that the
//! repaired design completes the same workload.
//!
//! Four flows chase each other around a unidirectional ring (the paper's
//! Figure 1 configuration).  With small buffers and multi-flit packets the
//! simulation stalls permanently and the exact wait-for-graph detector names
//! the deadlock; after the removal algorithm adds one VC and re-routes one
//! flow, the same workload finishes on the assigned VCs.
//!
//! Run with `cargo run --example ring_deadlock`.

use noc_suite::flow::{CycleBreaking, DesignFlow, ShortestPathRouter};
use noc_suite::sim::{TrafficConfig, VcSimConfig};
use noc_suite::topology::{generators, CommGraph, CoreMap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generated = generators::unidirectional_ring(4, 1000.0);

    // Every core sends to the core two hops away, so every link is shared by
    // two flows and the channel dependency cycle closes.
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("core{i}"))).collect();
    for i in 0..4 {
        comm.add_flow(cores[i], cores[(i + 2) % 4], 400.0);
    }
    let mut core_map = CoreMap::new(comm.core_count());
    for (i, &core) in cores.iter().enumerate() {
        core_map.assign(core, generated.switches[i])?;
    }

    let routed = DesignFlow::from_comm(comm)
        .labelled("ring-deadlock")
        .with_design(generated.topology, core_map)?
        .route(&ShortestPathRouter::default())?;

    let sim_config = VcSimConfig {
        buffer_depth: 1,
        idle_timeout: 300,
        max_cycles: 100_000,
        ..VcSimConfig::default()
    };
    let traffic = TrafficConfig {
        packets_per_flow: 16,
        packet_length: 6,
        mean_gap_cycles: 0,
        seed: 42,
        ..TrafficConfig::default()
    };

    println!("--- original design (cyclic CDG) ---");
    let outcome = routed.simulate_with(&sim_config, &traffic);
    println!(
        "deadlocked: {}, delivered {}/{} packets, {} stranded",
        outcome.deadlocked,
        outcome.stats.delivered_packets,
        outcome.stats.injected_packets,
        outcome.stranded_packets
    );
    if let Some(event) = outcome.detection {
        println!("detected by {} at cycle {}", event.kind.name(), event.cycle);
    }

    let fixed = routed.resolve_deadlocks(&CycleBreaking::default())?;
    println!(
        "--- after deadlock removal ({} VC added, {} cycle broken) ---",
        fixed.resolution().added_vcs,
        fixed.resolution().cycles_broken
    );
    let outcome = fixed.simulate_with(&sim_config, &traffic)?.into_outcome();
    println!(
        "deadlocked: {}, delivered {}/{} packets, mean latency {:.1} cycles",
        outcome.deadlocked,
        outcome.stats.delivered_packets,
        outcome.stats.injected_packets,
        outcome.stats.mean_latency()
    );
    Ok(())
}
