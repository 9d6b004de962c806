//! The staged `DesignFlow` builder.
//!
//! One type per pipeline stage, each owning the artifacts it produced, each
//! transition re-running the matching `validate_*`/`verify` check:
//!
//! ```text
//! DesignFlow ──synthesize──▶ SynthesizedStage ──route──▶ RoutedStage
//!     ──resolve_deadlocks──▶ DeadlockFreeStage ──simulate──▶ SimulatedStage
//! ```
//!
//! Branching is free: `route` and `resolve_deadlocks` take `&self` and copy
//! internally, so comparing two routers or two deadlock strategies on the
//! same synthesized design needs no hand-cloning at the call site.

use crate::error::FlowError;
use crate::router::{Router, ShortestPathRouter};
use crate::strategy::{DeadlockResolution, DeadlockStrategy};
use noc_deadlock::certify::{certify_deadlock_free, CertifyReport};
use noc_deadlock::vcmap::VcMap;
use noc_deadlock::verify::{check_deadlock_free, DeadlockCycle};
use noc_power::{NetworkEstimate, NetworkPowerModel, TechParams};
use noc_routing::updown::route_all_updown;
use noc_routing::validate::validate_routes;
use noc_routing::RouteSet;
use noc_sim::{
    AssignedVc, FaultPlan, TrafficConfig, VcPolicy, VcSimConfig, VcSimOutcome, VcSimulator,
};
use noc_synth::{synthesize, SynthesisConfig};
use noc_topology::benchmarks::Benchmark;
use noc_topology::validate::validate_design;
use noc_topology::{CommGraph, CoreMap, SwitchId, Topology};

/// Entry point of the pipeline: a communication specification waiting for a
/// topology.
///
/// # Example
///
/// The full Figure-8-style pipeline in one chain:
///
/// ```
/// use noc_flow::{CycleBreaking, DesignFlow, ShortestPathRouter};
/// use noc_power::TechParams;
/// use noc_sim::TrafficConfig;
/// use noc_synth::SynthesisConfig;
/// use noc_topology::benchmarks::Benchmark;
///
/// let simulated = DesignFlow::from_benchmark(Benchmark::D26Media)
///     .synthesize(SynthesisConfig::with_switches(12))?
///     .route(&ShortestPathRouter::default())?
///     .resolve_deadlocks(&CycleBreaking::default())?
///     .simulate(&TrafficConfig::default())?;
/// assert!(!simulated.outcome().deadlocked);
/// let estimate = simulated.power(TechParams::default());
/// assert!(estimate.total_power_mw > 0.0);
/// # Ok::<(), noc_flow::FlowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DesignFlow {
    comm: CommGraph,
    label: String,
}

impl DesignFlow {
    /// Starts a flow from one of the paper's six SoC benchmarks.
    pub fn from_benchmark(benchmark: Benchmark) -> Self {
        DesignFlow {
            comm: benchmark.comm_graph(),
            label: benchmark.name().to_string(),
        }
    }

    /// Starts a flow from an arbitrary communication graph.
    pub fn from_comm(comm: CommGraph) -> Self {
        DesignFlow {
            comm,
            label: "custom".to_string(),
        }
    }

    /// Overrides the label used in diagnostics and sweep output.
    pub fn labelled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The communication graph this flow will design for.
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// The flow's label (benchmark name, or `"custom"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Synthesizes an application-specific topology, attachment and default
    /// shortest-path routes, then validates the design triple and the routes
    /// (the checks `tests/end_to_end.rs` used to run by hand).
    pub fn synthesize(self, config: SynthesisConfig) -> Result<SynthesizedStage, FlowError> {
        let mut span = noc_telemetry::span("stage", "synthesize");
        span.arg("label", self.label.as_str());
        // The synthesizer routes with a shortest-path router under the
        // configured cost model; remember which one so route_default() can
        // report the scheme accurately.
        let default_router = ShortestPathRouter::with_cost(config.link_cost)
            .name()
            .to_string();
        let design = synthesize(&self.comm, &config)?;
        validate_design(&design.topology, &self.comm, &design.core_map)?;
        validate_routes(
            &design.topology,
            &self.comm,
            &design.core_map,
            &design.routes,
        )?;
        Ok(SynthesizedStage {
            label: self.label,
            comm: self.comm,
            topology: design.topology,
            core_map: design.core_map,
            default_routes: Some((default_router, design.routes)),
        })
    }

    /// Imports a hand-built topology and core attachment instead of
    /// synthesizing one (validated like a synthesized design).  The
    /// resulting stage has no default routes; route it with an explicit
    /// [`Router`].
    pub fn with_design(
        self,
        topology: Topology,
        core_map: CoreMap,
    ) -> Result<SynthesizedStage, FlowError> {
        validate_design(&topology, &self.comm, &core_map)?;
        Ok(SynthesizedStage {
            label: self.label,
            comm: self.comm,
            topology,
            core_map,
            default_routes: None,
        })
    }
}

/// A validated design triple (topology, communication graph, attachment),
/// ready to be routed.
#[derive(Debug, Clone)]
pub struct SynthesizedStage {
    label: String,
    comm: CommGraph,
    topology: Topology,
    core_map: CoreMap,
    /// `(router name, routes)` the synthesizer produced, when synthesized.
    default_routes: Option<(String, RouteSet)>,
}

impl SynthesizedStage {
    /// The synthesized (or imported) topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The core-to-switch attachment.
    pub fn core_map(&self) -> &CoreMap {
        &self.core_map
    }

    /// The communication graph.
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// The flow's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Routes every flow with the given scheme and validates the result.
    ///
    /// Takes `&self` so several routers can be compared on one synthesized
    /// design without caller-side cloning.
    pub fn route(&self, router: &dyn Router) -> Result<RoutedStage, FlowError> {
        let mut span = noc_telemetry::span("stage", "route");
        span.arg("router", router.name());
        let routes = router.route(&self.topology, &self.comm, &self.core_map)?;
        validate_routes(&self.topology, &self.comm, &self.core_map, &routes)?;
        Ok(RoutedStage {
            label: self.label.clone(),
            router: router.name().to_string(),
            comm: self.comm.clone(),
            topology: self.topology.clone(),
            core_map: self.core_map.clone(),
            routes,
        })
    }

    /// Adopts the deadlock-oblivious shortest-path routes the synthesizer
    /// already computed (the paper's input routing) without re-routing.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoDefaultRoutes`] if the design was imported via
    /// [`DesignFlow::with_design`] rather than synthesized.
    pub fn route_default(&self) -> Result<RoutedStage, FlowError> {
        let (router, routes) = self
            .default_routes
            .clone()
            .ok_or(FlowError::NoDefaultRoutes)?;
        Ok(RoutedStage {
            label: self.label.clone(),
            router,
            comm: self.comm.clone(),
            topology: self.topology.clone(),
            core_map: self.core_map.clone(),
            routes,
        })
    }
}

/// A fully routed design — the exact triple the deadlock analysis consumes.
#[derive(Debug, Clone)]
pub struct RoutedStage {
    label: String,
    router: String,
    comm: CommGraph,
    topology: Topology,
    core_map: CoreMap,
    routes: RouteSet,
}

impl RoutedStage {
    /// The routed topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The route set, one route per flow.
    pub fn routes(&self) -> &RouteSet {
        &self.routes
    }

    /// The communication graph.
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// The core-to-switch attachment.
    pub fn core_map(&self) -> &CoreMap {
        &self.core_map
    }

    /// The flow's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Name of the router that produced the routes.
    pub fn router_name(&self) -> &str {
        &self.router
    }

    /// `true` when the CDG of the routed design is already acyclic.
    pub fn is_deadlock_free(&self) -> bool {
        check_deadlock_free(&self.topology, &self.routes).is_ok()
    }

    /// The smallest CDG cycle of the design, if any — evidence that the
    /// design can deadlock.
    pub fn deadlock_evidence(&self) -> Option<DeadlockCycle> {
        check_deadlock_free(&self.topology, &self.routes).err()
    }

    /// Certifies the routed design with the exact static verifier
    /// (`noc_deadlock::certify`): unlike
    /// [`is_deadlock_free`](Self::is_deadlock_free), which condemns any CDG
    /// cycle, this searches for a genuinely trappable configuration and
    /// returns a three-valued verdict with a machine-checkable witness.
    pub fn certify(&self) -> CertifyReport {
        let _span = noc_telemetry::span("stage", "certify");
        certify_deadlock_free(&self.topology, &self.routes)
    }

    /// VC overhead resource ordering *would* cost on this design, without
    /// modifying anything (the dry-run baseline of Figures 8 and 9).
    pub fn resource_ordering_overhead(&self) -> usize {
        noc_deadlock::resource_ordering::resource_ordering_overhead(&self.topology, &self.routes)
    }

    /// Number of flows that actually enter the switch network.
    pub fn active_flow_count(&self) -> usize {
        self.routes.active_flow_count()
    }

    /// Makes the design deadlock-free with the given strategy, then
    /// re-verifies the CDG is acyclic and the routes still valid.
    ///
    /// Takes `&self` and copies internally, so the paper's central
    /// comparison — the same routed design under
    /// [`CycleBreaking`](crate::CycleBreaking) versus
    /// [`ResourceOrdering`](crate::ResourceOrdering) — is two calls on one
    /// stage, and swapping strategies is a one-line change.
    pub fn resolve_deadlocks(
        &self,
        strategy: &dyn DeadlockStrategy,
    ) -> Result<DeadlockFreeStage, FlowError> {
        let mut span = noc_telemetry::span("stage", "resolve_deadlocks");
        span.arg("strategy", strategy.name());
        let (topology, routes, resolution) =
            strategy.resolve_cloned(&self.topology, &self.routes)?;
        check_deadlock_free(&topology, &routes).map_err(FlowError::StillCyclic)?;
        validate_routes(&topology, &self.comm, &self.core_map, &routes)?;
        Ok(DeadlockFreeStage {
            label: self.label.clone(),
            router: self.router.clone(),
            comm: self.comm.clone(),
            topology,
            core_map: self.core_map.clone(),
            routes,
            resolution,
        })
    }

    /// Simulates the routed design as-is on the VC-fidelity engine, every
    /// flow on its assigned VC ([`AssignedVc`]) — useful for demonstrating
    /// that a deadlock-prone design really does deadlock at runtime (before
    /// any deadlock strategy ran, every hop uses VC 0).  Diagnostic, not a
    /// stage transition: deadlock-prone designs stay on this stage.
    pub fn simulate(&self, traffic: &TrafficConfig) -> VcSimOutcome {
        self.simulate_with(&VcSimConfig::default(), traffic)
    }

    /// Same as [`simulate`](Self::simulate) with an explicit [`VcSimConfig`].
    pub fn simulate_with(&self, sim: &VcSimConfig, traffic: &TrafficConfig) -> VcSimOutcome {
        self.simulate_vc(&AssignedVc, sim, traffic)
    }

    /// The VC assignment of the routed design (all base VCs before any
    /// deadlock strategy ran), as the simulator's [`VcMap`] seam.
    pub fn vc_map(&self) -> VcMap {
        VcMap::from_design(&self.topology, &self.routes)
    }

    /// Simulates the routed design on the VC-fidelity engine under the
    /// given [`VcPolicy`], with exact wait-for-graph deadlock detection.
    pub fn simulate_vc(
        &self,
        policy: &dyn VcPolicy,
        sim: &VcSimConfig,
        traffic: &TrafficConfig,
    ) -> VcSimOutcome {
        let _span = noc_telemetry::span("stage", "simulate_vc");
        let vc_map = self.vc_map();
        VcSimulator::new(&self.comm, &self.routes, &vc_map, policy, sim).run(traffic)
    }

    /// Simulates the routed design on the VC-fidelity engine with the
    /// DBR-style dynamic drain armed: detected deadlocks are drained onto
    /// the up*/down* recovery routing function rooted at `root` — the
    /// runtime execution of the
    /// [`RecoveryReconfig`](crate::RecoveryReconfig) strategy.
    ///
    /// # Errors
    ///
    /// [`FlowError::Routing`] when the recovery routing function cannot
    /// serve the design (e.g. a flow with no up*/down* path).
    pub fn simulate_vc_recovering(
        &self,
        policy: &dyn VcPolicy,
        sim: &VcSimConfig,
        traffic: &TrafficConfig,
        root: SwitchId,
    ) -> Result<VcSimOutcome, FlowError> {
        let _span = noc_telemetry::span("stage", "simulate_vc_recovering");
        let recovery = route_all_updown(&self.topology, &self.comm, &self.core_map, root)?;
        let vc_map = self.vc_map();
        Ok(
            VcSimulator::new(&self.comm, &self.routes, &vc_map, policy, sim)
                .with_recovery(recovery)
                .run(traffic),
        )
    }

    /// Area/power estimate of the design as routed (the "original" bars of
    /// Figure 10).
    pub fn power(&self, params: TechParams) -> NetworkEstimate {
        let _span = noc_telemetry::span("stage", "power");
        NetworkPowerModel::new(params).estimate(&self.topology, &self.comm, &self.routes)
    }
}

/// A design whose CDG has been verified acyclic: it cannot deadlock.
#[derive(Debug, Clone)]
pub struct DeadlockFreeStage {
    label: String,
    router: String,
    comm: CommGraph,
    topology: Topology,
    core_map: CoreMap,
    routes: RouteSet,
    resolution: DeadlockResolution,
}

impl DeadlockFreeStage {
    /// The repaired topology (with any extra VCs).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The repaired route set.
    pub fn routes(&self) -> &RouteSet {
        &self.routes
    }

    /// The communication graph.
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// The core-to-switch attachment.
    pub fn core_map(&self) -> &CoreMap {
        &self.core_map
    }

    /// The flow's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Name of the router that produced the input routes.
    pub fn router_name(&self) -> &str {
        &self.router
    }

    /// What the deadlock strategy did (VCs added, cycles broken, reports).
    pub fn resolution(&self) -> &DeadlockResolution {
        &self.resolution
    }

    /// Certifies the repaired design with the exact static verifier
    /// (`noc_deadlock::certify`).  For stages built by
    /// [`RoutedStage::resolve_deadlocks`] the CDG is already acyclic, so
    /// this takes the fast path and must report
    /// [`CertifyVerdict::CertifiedFree`](noc_deadlock::certify::CertifyVerdict) —
    /// the sound end of the three-way verifier lattice.
    pub fn certify(&self) -> CertifyReport {
        let _span = noc_telemetry::span("stage", "certify");
        certify_deadlock_free(&self.topology, &self.routes)
    }

    /// Simulates the repaired design under the given workload on the
    /// VC-fidelity engine, every flow on the VC the strategy assigned
    /// ([`AssignedVc`]), after re-validating route/topology consistency
    /// (the stage's defensive contract check; it cannot fail for stages
    /// built by [`RoutedStage::resolve_deadlocks`], which already
    /// validated).
    ///
    /// The run's outcome (including the `deadlocked` flag, which must stay
    /// `false` for a correctly repaired design) is data on the returned
    /// stage, not an error.
    pub fn simulate(&self, traffic: &TrafficConfig) -> Result<SimulatedStage, FlowError> {
        self.simulate_with(&VcSimConfig::default(), traffic)
    }

    /// Same as [`simulate`](Self::simulate) with an explicit [`VcSimConfig`].
    pub fn simulate_with(
        &self,
        sim: &VcSimConfig,
        traffic: &TrafficConfig,
    ) -> Result<SimulatedStage, FlowError> {
        self.simulate_vc(&AssignedVc, sim, traffic)
    }

    /// The strategy's VC assignment (per-link VC counts, per-hop flow
    /// assignments) as the [`VcMap`] the VC-fidelity simulator consumes.
    pub fn vc_map(&self) -> VcMap {
        VcMap::from_design(&self.topology, &self.routes)
    }

    /// Simulates the repaired design on the VC-fidelity engine: buffers per
    /// (link × VC) sized from the strategy's [`VcMap`], credit-based flow
    /// control, the given [`VcPolicy`] deciding how the assignment is used
    /// at runtime, and exact wait-for-graph deadlock detection.
    pub fn simulate_vc(
        &self,
        policy: &dyn VcPolicy,
        sim: &VcSimConfig,
        traffic: &TrafficConfig,
    ) -> Result<SimulatedStage, FlowError> {
        let _span = noc_telemetry::span("stage", "simulate_vc");
        validate_routes(&self.topology, &self.comm, &self.core_map, &self.routes)?;
        let vc_map = self.vc_map();
        let outcome = VcSimulator::new(&self.comm, &self.routes, &vc_map, policy, sim).run(traffic);
        Ok(SimulatedStage {
            stage: self.clone(),
            outcome,
        })
    }

    /// Simulates the repaired design on the VC-fidelity engine with the
    /// fault seam armed: the scheduled [`FaultPlan`] is injected mid-run
    /// and every fault epoch live-reconfigures the affected flows through
    /// the cycle-safe two-phase protocol (up*/down* reroutes on the
    /// surviving fabric, scoped drains as the fallback).
    ///
    /// The returned stage's outcome carries the reconfiguration statistics
    /// and the typed unreachable outcome.
    pub fn simulate_vc_faulted(
        &self,
        policy: &dyn VcPolicy,
        sim: &VcSimConfig,
        traffic: &TrafficConfig,
        plan: FaultPlan,
    ) -> Result<SimulatedStage, FlowError> {
        let _span = noc_telemetry::span("stage", "simulate_vc_faulted");
        validate_routes(&self.topology, &self.comm, &self.core_map, &self.routes)?;
        let vc_map = self.vc_map();
        let outcome = VcSimulator::new(&self.comm, &self.routes, &vc_map, policy, sim)
            .with_faults(&self.topology, &self.core_map, plan)
            .run(traffic);
        Ok(SimulatedStage {
            stage: self.clone(),
            outcome,
        })
    }

    /// Area/power estimate of the repaired design (the "removal" /
    /// "ordering" bars of Figure 10, depending on the strategy used).
    pub fn power(&self, params: TechParams) -> NetworkEstimate {
        let _span = noc_telemetry::span("stage", "power");
        NetworkPowerModel::new(params).estimate(&self.topology, &self.comm, &self.routes)
    }
}

/// A deadlock-free design plus the outcome of simulating it.
#[derive(Debug, Clone)]
pub struct SimulatedStage {
    stage: DeadlockFreeStage,
    outcome: VcSimOutcome,
}

impl SimulatedStage {
    /// The simulation outcome (stats, deadlock verdict, drain and
    /// reconfiguration statistics).
    pub fn outcome(&self) -> &VcSimOutcome {
        &self.outcome
    }

    /// The design that was simulated.
    pub fn design(&self) -> &DeadlockFreeStage {
        &self.stage
    }

    /// Consumes the stage, yielding the bare outcome.
    pub fn into_outcome(self) -> VcSimOutcome {
        self.outcome
    }

    /// Area/power estimate of the simulated design.
    pub fn power(&self, params: TechParams) -> NetworkEstimate {
        self.stage.power(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::generators;

    #[test]
    fn single_flow_delivers_all_packets() {
        // An unrepaired routed design simulates on VC 0 everywhere; a
        // single flow along a chain has nothing to deadlock with.
        let generated = generators::chain(3, 1.0);
        let mut comm = CommGraph::new();
        let a = comm.add_core("a");
        let b = comm.add_core("b");
        comm.add_flow(a, b, 100.0);
        let mut map = CoreMap::new(2);
        map.assign(a, generated.switches[0]).unwrap();
        map.assign(b, generated.switches[2]).unwrap();
        let routed = DesignFlow::from_comm(comm)
            .with_design(generated.topology, map)
            .unwrap()
            .route(&ShortestPathRouter::default())
            .unwrap();
        let outcome = routed.simulate(&TrafficConfig {
            packets_per_flow: 10,
            packet_length: 4,
            ..TrafficConfig::default()
        });
        assert!(!outcome.deadlocked);
        assert_eq!(outcome.stats.injected_packets, 10);
        assert_eq!(outcome.stats.delivered_packets, 10);
        assert_eq!(outcome.stats.delivered_flits, 40);
        assert_eq!(outcome.stranded_packets, 0);
        assert_eq!(outcome.policy, "assigned-vc");
        assert!(outcome.stats.mean_latency() >= 2.0, "2 hops minimum");
        assert!(outcome.stats.delivery_ratio() == 1.0);
    }
}
