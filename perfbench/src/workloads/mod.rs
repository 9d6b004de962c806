//! The four workloads.  Each builds its inputs from the seed in a set-up
//! step and then runs passes: one pass is a fixed set of closed-loop
//! operations (the next starts when the previous one finishes) on those
//! inputs.

pub mod fault_storm;
pub mod paper_flow;
pub mod sim_sweep;
pub mod torus_removal;

use crate::layers::call;
use crate::record::PassRecord;
use noc_deadlock::verify::check_deadlock_free;
use noc_routing::shortest::route_all_shortest;
use noc_routing::RouteSet;
use noc_sim::VcSimConfig;
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::benchmarks::Benchmark;
use noc_topology::{CommGraph, CoreMap, Topology};

/// A workload after set-up.
pub trait Workload {
    /// Runs one pass, recording operations, checks and outputs into `rec`.
    fn pass(&self, rec: &mut PassRecord);
}

/// A named workload and its set-up step.
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Builds the inputs from the seed; checks made while building them
    /// (synthesis, routing and repaired designs) go into the record.
    pub setup: fn(u64, &mut PassRecord) -> Box<dyn Workload>,
}

/// Every workload, in report order.
pub const ALL: [Spec; 4] = [
    Spec {
        name: "paper_flow",
        setup: paper_flow::setup,
    },
    Spec {
        name: "torus_removal",
        setup: torus_removal::setup,
    },
    Spec {
        name: "sim_sweep",
        setup: sim_sweep::setup,
    },
    Spec {
        name: "fault_storm",
        setup: fault_storm::setup,
    },
];

/// A routed design: the triple the deadlock analysis consumes plus the
/// communication graph it serves.
#[derive(Debug, Clone)]
pub struct Design {
    /// Benchmark name and switch count, or the random design's label.
    pub label: String,
    /// Switch count of the topology.
    pub switches: usize,
    /// The communication graph.
    pub comm: CommGraph,
    /// The topology (one VC per link before repair).
    pub topology: Topology,
    /// The core-to-switch attachment.
    pub core_map: CoreMap,
    /// Deadlock-oblivious shortest-path routes, one per flow.
    pub routes: RouteSet,
}

/// Synthesizes `benchmark` at `switches` switches and routes it with the
/// shortest-path router, recording a failure instead of panicking.
pub fn synthesized_design(
    benchmark: Benchmark,
    comm: &CommGraph,
    switches: usize,
    rec: &mut PassRecord,
) -> Option<Design> {
    let label = format!("{benchmark}/{switches}");
    let synthesized = call("synth.synthesize", || {
        synthesize(comm, &SynthesisConfig::with_switches(switches))
    });
    let synthesized = match synthesized {
        Ok(design) => design,
        Err(e) => {
            rec.check(false, || format!("{label}: synthesis failed: {e}"));
            return None;
        }
    };
    let routes = call("routing.route", || {
        route_all_shortest(&synthesized.topology, comm, &synthesized.core_map)
    });
    match routes {
        Ok(routes) => Some(Design {
            label,
            switches,
            comm: comm.clone(),
            topology: synthesized.topology,
            core_map: synthesized.core_map,
            routes,
        }),
        Err(e) => {
            rec.check(false, || format!("{label}: routing failed: {e}"));
            None
        }
    }
}

/// The repaired-design check: `check_deadlock_free` must accept the
/// design.  A rejection marks the current operation failed.
pub fn verify_repaired(label: &str, topology: &Topology, routes: &RouteSet, rec: &mut PassRecord) {
    let verified = call("core.verify", || check_deadlock_free(topology, routes));
    rec.check(verified.is_ok(), || {
        format!("{label}: repaired design fails check_deadlock_free")
    });
}

/// The Figure 8 (D26_media) and Figure 9 (D36_8) grids.
pub fn figure_grid() -> Vec<(Benchmark, usize)> {
    let fig8 = (5..=25).map(|n| (Benchmark::D26Media, n));
    let fig9 = (10..=35).map(|n| (Benchmark::D36x8, n));
    fig8.chain(fig9).collect()
}

/// The simulator configuration of both simulation workloads: one-flit
/// buffers (the configuration most prone to deadlock) and the exact
/// wait-for-graph detector.
pub fn sim_config() -> VcSimConfig {
    VcSimConfig {
        buffer_depth: 1,
        max_cycles: 600_000,
        ..VcSimConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
    use noc_topology::generators;

    /// The output checks must see a broken input: an unrepaired cyclic
    /// design fed to the repaired-design check fails its operation, so the
    /// fail ratio rises from 0 to 1, while its repaired copy passes.
    #[test]
    fn fail_ratio_rises_on_an_unrepaired_cyclic_design() {
        // Two-hop flows around a unidirectional 4-ring close a CDG cycle.
        let ring = generators::unidirectional_ring(4, 1.0);
        let mut comm = CommGraph::new();
        let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("c{i}"))).collect();
        let mut map = CoreMap::new(4);
        for (i, &core) in cores.iter().enumerate() {
            map.assign(core, ring.switches[i]).expect("ring switch");
            comm.add_flow(core, cores[(i + 2) % 4], 1.0);
        }
        let mut topology = ring.topology;
        let mut routes = route_all_shortest(&topology, &comm, &map).expect("ring routes");

        let mut broken = PassRecord::default();
        broken.op(|rec| verify_repaired("unrepaired ring", &topology, &routes, rec));
        assert_eq!((broken.ops, broken.failed_ops), (1, 1));

        remove_deadlocks(&mut topology, &mut routes, &RemovalConfig::default())
            .expect("removal succeeds on a ring");
        let mut repaired = PassRecord::default();
        repaired.op(|rec| verify_repaired("repaired ring", &topology, &routes, rec));
        assert_eq!((repaired.ops, repaired.failed_ops), (1, 0));
    }
}
