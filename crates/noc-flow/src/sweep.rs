//! Batch driver for (benchmark × switch-count × strategy) grids.
//!
//! Replaces the old `noc_synth::sweep_switch_counts` helper and the
//! hand-rolled loops behind Figures 8, 9 and 10: one sweep description, any
//! number of deadlock strategies, one pass that synthesizes each design once
//! and charges every strategy against the same routed input.
//!
//! Grid points are independent — and within a point, the strategies are
//! too, because every strategy is charged against its own clone of the same
//! routed design — so the sweep can run on a pool of scoped worker threads:
//! [`FlowSweep::run_parallel`] and [`FlowSweep::run_streaming`] shard the
//! (grid point × strategy) work items across
//! [`worker_threads`](FlowSweep::worker_threads) workers (see [`executor`])
//! and still return points in deterministic grid order, byte-identical to
//! the serial [`run`](FlowSweep::run).

use crate::error::FlowError;
use crate::executor;
pub use crate::executor::SweepProgress;
use crate::router::Router;
use crate::stage::{DesignFlow, RoutedStage};
use crate::strategy::DeadlockStrategy;
use noc_deadlock::certify::CertifyReport;
use noc_deadlock::report::StrategyKind;
use noc_power::TechParams;
use noc_sim::{
    AssignedVc, FaultKind, FaultPlan, StormConfig, TrafficConfig, VcSimConfig, VcSimOutcome,
};
use noc_synth::SynthesisConfig;
use noc_topology::benchmarks::Benchmark;

/// Per-strategy VC-fidelity simulation summary, attached to a
/// [`StrategyOutcome`] when the sweep enables
/// [`FlowSweep::vc_simulation`].  The repaired design is simulated with the
/// [`AssignedVc`] policy — honouring exactly the VC assignment the
/// strategy paid for.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategySimStats {
    /// Packets handed to source queues.
    pub injected: usize,
    /// Packets fully delivered.
    pub delivered: usize,
    /// `true` if the run ended in an unrecovered deadlock (must stay
    /// `false` for correctly repaired designs).
    pub deadlocked: bool,
    /// Mean packet latency in cycles.
    pub mean_latency: f64,
    /// Median packet latency (nearest-rank p50).
    pub p50_latency: u64,
    /// 95th-percentile packet latency.
    pub p95_latency: u64,
    /// 99th-percentile packet latency.
    pub p99_latency: u64,
    /// Worst packet latency.
    pub max_latency: u64,
    /// Delivered flits per simulated cycle.
    pub throughput: f64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl StrategySimStats {
    /// Summarises a VC-engine outcome.
    pub fn from_outcome(outcome: &VcSimOutcome) -> Self {
        let stats = &outcome.stats;
        let percentiles = stats.latency_percentiles(&[50.0, 95.0, 99.0]);
        StrategySimStats {
            injected: stats.injected_packets,
            delivered: stats.delivered_packets,
            deadlocked: outcome.deadlocked,
            mean_latency: stats.mean_latency(),
            p50_latency: percentiles[0],
            p95_latency: percentiles[1],
            p99_latency: percentiles[2],
            max_latency: stats.max_latency_cycles,
            throughput: stats.throughput_flits_per_cycle(),
            cycles: stats.cycles,
        }
    }
}

/// The VC-fidelity simulation a sweep optionally runs against every
/// repaired design ([`FlowSweep::vc_simulation`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VcSweepSim {
    /// Engine parameters (buffer depth, credits, detection).
    pub sim: VcSimConfig,
    /// Workload parameters.
    pub traffic: TrafficConfig,
}

/// The fault-storm simulation a sweep optionally runs against every
/// repaired design ([`FlowSweep::fault_simulation`]): the same VC-fidelity
/// engine, armed with a seeded [`FaultPlan::storm`] over the repaired
/// topology, so each strategy's design is live-reconfigured through an
/// identical failure schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepSim {
    /// Engine parameters (buffer depth, credits, detection).
    pub sim: VcSimConfig,
    /// Workload parameters.
    pub traffic: TrafficConfig,
    /// Storm-generator parameters (fault count, schedule, seed).
    pub storm: StormConfig,
}

/// Per-strategy fault-storm summary, attached to a [`StrategyOutcome`]
/// when [`FlowSweep::fault_simulation`] is enabled: how the strategy's
/// repaired design survived a seeded link-failure storm under cycle-safe
/// live reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunStats {
    /// Failure events the plan scheduled (repairs not counted).
    pub faults_injected: usize,
    /// Reconfiguration epochs the run processed.
    pub reconfig_events: usize,
    /// Epochs committed (every one with an acyclic combined graph).
    pub epochs_committed: usize,
    /// Epochs whose combined graph was still cyclic at commit — the
    /// protocol's core invariant is that this stays zero.
    pub cyclic_commits: usize,
    /// Epochs that needed the scoped-drain / forced-reroute fallback.
    pub drain_fallbacks: usize,
    /// Packets pulled back to their sources by fault epochs.
    pub packets_drained: usize,
    /// Flow reroutes onto the surviving up*/down* function.
    pub flows_rerouted: usize,
    /// Flows left unreachable at the end of the run.
    pub unreachable_flows: usize,
    /// Packets charged to unreachable flows instead of delivery.
    pub unreachable_packets: usize,
    /// Packets handed to source queues.
    pub injected: usize,
    /// Packets fully delivered through the storm.
    pub delivered: usize,
    /// `delivered / injected` (1.0 for an idle workload).
    pub delivered_fraction: f64,
    /// Mean delivered-packet latency in cycles.
    pub mean_latency: f64,
    /// `true` when the plan's final failure state leaves every flow's
    /// endpoints connected (predicted by replaying the plan, not observed).
    pub connected: bool,
    /// `true` if the run ended in an unrecovered deadlock.
    pub deadlocked: bool,
}

impl FaultRunStats {
    /// Summarises a fault-armed VC-engine outcome.
    pub fn from_outcome(outcome: &VcSimOutcome, faults_injected: usize, connected: bool) -> Self {
        let stats = &outcome.stats;
        let reconfig = &outcome.reconfig;
        let injected = stats.injected_packets;
        let delivered = stats.delivered_packets;
        FaultRunStats {
            faults_injected,
            reconfig_events: reconfig.events.len(),
            epochs_committed: reconfig.epochs_committed,
            cyclic_commits: reconfig.cyclic_commits,
            drain_fallbacks: reconfig.drain_fallbacks,
            packets_drained: reconfig.packets_drained,
            flows_rerouted: reconfig.flows_rerouted,
            unreachable_flows: outcome.unreachable_flows.len(),
            unreachable_packets: outcome.unreachable_packets,
            injected,
            delivered,
            delivered_fraction: if injected == 0 {
                1.0
            } else {
                delivered as f64 / injected as f64
            },
            mean_latency: stats.mean_latency(),
            connected,
            deadlocked: outcome.deadlocked,
        }
    }
}

/// Summary of the certified static verifier's verdict on a repaired design,
/// attached to a [`StrategyOutcome`] when [`FlowSweep::certify`] is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyOutcome {
    /// The stable verdict name: `certified-free`, `certified-deadlockable`
    /// or `unknown` ([`noc_deadlock::certify::CertifyVerdict::name`]).
    pub verdict: String,
    /// Whether the repaired design's CDG was cyclic at all.
    pub cdg_cyclic: bool,
    /// Worms of the trap witness (0 unless certified deadlockable).
    pub witness_worms: usize,
    /// Worm placements the trap search tried.
    pub search_steps: usize,
}

impl CertifyOutcome {
    /// Summarises a certification report.
    pub fn from_report(report: &CertifyReport) -> Self {
        CertifyOutcome {
            verdict: report.verdict.name().to_string(),
            cdg_cyclic: report.cyclic_cdg,
            witness_worms: report.witness().map(|w| w.worms.len()).unwrap_or(0),
            search_steps: report.search_steps,
        }
    }
}

/// What one strategy did to one design of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// Strategy name ([`DeadlockStrategy::name`]).
    pub strategy: String,
    /// Which point of the deadlock design space the strategy occupies.
    pub kind: StrategyKind,
    /// VCs the strategy added.
    pub added_vcs: usize,
    /// CDG cycles it broke.
    pub cycles_broken: usize,
    /// Mean hop count of the repaired design's active flows.  Differs from
    /// the point's input [`mean_hops`](SweepPoint::mean_hops) only for
    /// strategies that change physical routes (recovery reconfiguration);
    /// the difference is that strategy's hop-inflation cost.
    pub mean_hops: f64,
    /// Total power of the repaired design in mW
    /// (`None` when [`FlowSweep::power_estimates`] is disabled).
    pub power_mw: Option<f64>,
    /// Total switch area of the repaired design in µm²
    /// (`None` when [`FlowSweep::power_estimates`] is disabled).
    pub area_um2: Option<f64>,
    /// VC-fidelity simulation summary of the repaired design
    /// (`None` unless [`FlowSweep::vc_simulation`] is enabled).
    pub sim: Option<StrategySimStats>,
    /// Certified static verdict on the repaired design
    /// (`None` unless [`FlowSweep::certify`] is enabled).
    pub certify: Option<CertifyOutcome>,
    /// Fault-storm survival summary of the repaired design
    /// (`None` unless [`FlowSweep::fault_simulation`] is enabled).
    pub fault: Option<FaultRunStats>,
}

/// One grid point of a [`FlowSweep`]: a synthesized design plus the outcome
/// of every strategy on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The benchmark the design was synthesized for.
    pub benchmark: Benchmark,
    /// Switch count of the synthesized topology.
    pub switch_count: usize,
    /// Flows that actually enter the switch network.
    pub active_flows: usize,
    /// Mean hop count over those active flows.
    pub mean_hops: f64,
    /// Power of the unmodified (possibly deadlock-prone) design in mW
    /// (`None` when [`FlowSweep::power_estimates`] is disabled).
    pub original_power_mw: Option<f64>,
    /// Area of the unmodified design in µm²
    /// (`None` when [`FlowSweep::power_estimates`] is disabled).
    pub original_area_um2: Option<f64>,
    /// Per-strategy outcomes, in the order the strategies were passed.
    pub outcomes: Vec<StrategyOutcome>,
}

impl SweepPoint {
    /// The outcome of the strategy with the given name, if it was part of
    /// the sweep.
    pub fn outcome(&self, strategy: &str) -> Option<&StrategyOutcome> {
        self.outcomes.iter().find(|o| o.strategy == strategy)
    }
}

/// A declarative sweep over (benchmark × switch-count) with any set of
/// deadlock strategies — the driver behind the Figure 8/9 VC-overhead
/// series and the Figure 10 power bars.
///
/// Switch counts that are infeasible for a benchmark (zero, or more
/// switches than cores) are skipped, exactly like the paper's sweeps only
/// plot feasible topologies.
///
/// # Example
///
/// ```
/// use noc_flow::{CycleBreaking, FlowSweep, ResourceOrdering};
/// use noc_topology::benchmarks::Benchmark;
///
/// let points = FlowSweep::new()
///     .benchmark(Benchmark::D26Media)
///     .switch_counts([6, 10, 14])
///     .run(&[&CycleBreaking::default(), &ResourceOrdering])?;
/// assert_eq!(points.len(), 3);
/// for p in &points {
///     let removal = p.outcome("cycle-breaking").unwrap();
///     let ordering = p.outcome("resource-ordering").unwrap();
///     assert!(removal.added_vcs <= ordering.added_vcs);
/// }
/// # Ok::<(), noc_flow::FlowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowSweep {
    benchmarks: Vec<Benchmark>,
    switch_counts: Vec<usize>,
    template: SynthesisConfig,
    tech: TechParams,
    estimate_power: bool,
    threads: usize,
    vc_sim: Option<VcSweepSim>,
    fault_sim: Option<FaultSweepSim>,
    certify: bool,
}

impl Default for FlowSweep {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowSweep {
    /// An empty sweep with the default synthesis template and technology
    /// parameters.
    pub fn new() -> Self {
        FlowSweep {
            benchmarks: Vec::new(),
            switch_counts: Vec::new(),
            template: SynthesisConfig::with_switches(1),
            tech: TechParams::default(),
            estimate_power: true,
            threads: 0,
            vc_sim: None,
            fault_sim: None,
            certify: false,
        }
    }

    /// Adds one benchmark to the grid.
    ///
    /// Adding the same benchmark twice is harmless: the grid is deduplicated
    /// (preserving first-seen order), so each (benchmark, switch-count) pair
    /// produces exactly one [`SweepPoint`].
    pub fn benchmark(mut self, benchmark: Benchmark) -> Self {
        self.benchmarks.push(benchmark);
        self
    }

    /// Adds several benchmarks to the grid.
    ///
    /// Duplicates (within this call or across calls) are deduplicated,
    /// preserving first-seen order.
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.benchmarks.extend(benchmarks);
        self
    }

    /// Sets the switch counts to sweep.
    ///
    /// Duplicates (within this call or across calls) are deduplicated,
    /// preserving first-seen order.
    pub fn switch_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.switch_counts.extend(counts);
        self
    }

    /// Sets the number of worker threads for
    /// [`run_parallel`](Self::run_parallel) and
    /// [`run_streaming`](Self::run_streaming).
    ///
    /// `0` (the default) auto-sizes to the machine's available parallelism.
    /// The serial [`run`](Self::run) ignores this setting.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the synthesis configuration template (its `switch_count`
    /// field is replaced per grid point).
    pub fn synthesis_template(mut self, template: SynthesisConfig) -> Self {
        self.template = template;
        self
    }

    /// Overrides the technology parameters used for the power estimates.
    pub fn tech_params(mut self, tech: TechParams) -> Self {
        self.tech = tech;
        self
    }

    /// Enables or disables per-point power/area estimation (on by default).
    /// VC-only sweeps like Figures 8 and 9 turn it off to skip three
    /// whole-network power-model passes per grid point.
    pub fn power_estimates(mut self, enabled: bool) -> Self {
        self.estimate_power = enabled;
        self
    }

    /// Additionally simulates every repaired design on the VC-fidelity
    /// engine (the [`AssignedVc`] policy, honouring the strategy's exact
    /// assignment) and attaches a [`StrategySimStats`] summary to each
    /// [`StrategyOutcome`].  Off by default — simulation costs far more
    /// than the repair itself.
    pub fn vc_simulation(mut self, spec: VcSweepSim) -> Self {
        self.vc_sim = Some(spec);
        self
    }

    /// Additionally runs every repaired design through a seeded fault storm
    /// on the fault-armed VC-fidelity engine and attaches a
    /// [`FaultRunStats`] summary to each [`StrategyOutcome`].  The storm is
    /// regenerated per repaired topology from the same [`StormConfig`], so
    /// every strategy faces the identical failure schedule whenever the
    /// strategies share a link numbering (all of the paper's strategies
    /// only add VCs or reroute — they never renumber links).  Off by
    /// default.
    pub fn fault_simulation(mut self, spec: FaultSweepSim) -> Self {
        self.fault_sim = Some(spec);
        self
    }

    /// Additionally runs the certified static verifier
    /// (`noc_deadlock::certify`) on every repaired design and attaches a
    /// [`CertifyOutcome`] to each [`StrategyOutcome`].  Off by default.
    pub fn certify(mut self, enabled: bool) -> Self {
        self.certify = enabled;
        self
    }

    /// Runs the grid: synthesizes each feasible (benchmark, switch-count)
    /// design once — keeping the routes the synthesizer computed under the
    /// template's `link_cost`, the paper's input routing — then charges
    /// every strategy against that same routed design.
    ///
    /// # Errors
    ///
    /// [`FlowError::EmptyStrategySet`] if `strategies` is empty (a sweep
    /// with no strategies would silently yield points with no outcomes);
    /// otherwise the first stage error of the grid.
    pub fn run(&self, strategies: &[&dyn DeadlockStrategy]) -> Result<Vec<SweepPoint>, FlowError> {
        self.run_inner(None, strategies)
    }

    /// Same as [`run`](Self::run), but re-routes every synthesized design
    /// with an explicit input [`Router`] instead of the synthesizer's
    /// default routes.
    pub fn run_with_router(
        &self,
        router: &dyn Router,
        strategies: &[&dyn DeadlockStrategy],
    ) -> Result<Vec<SweepPoint>, FlowError> {
        self.run_inner(Some(router), strategies)
    }

    /// Runs the grid on a pool of scoped worker threads — one task per
    /// (grid point × strategy) pair, so even a single grid point with
    /// several strategies parallelizes — and returns the points in the same
    /// deterministic grid order as [`run`](Self::run): the two are
    /// interchangeable, the parallel path is just faster on multi-core
    /// machines.
    ///
    /// The routed design of a point is prepared once, by whichever worker
    /// reaches the point first; the point's strategies then run against
    /// clones of it, exactly like the serial path.
    ///
    /// The pool size comes from [`worker_threads`](Self::worker_threads)
    /// (auto-sized by default).  On the first failing task the sweep stops
    /// handing out work and returns the error that the serial run would
    /// have reported.
    pub fn run_parallel(
        &self,
        strategies: &[&dyn DeadlockStrategy],
    ) -> Result<Vec<SweepPoint>, FlowError> {
        self.run_streaming(strategies, |_| {})
    }

    /// Same as [`run_parallel`](Self::run_parallel), but streams every
    /// completed point through `observer` as soon as its worker finishes —
    /// in completion order, which under parallelism is *not* grid order —
    /// so long sweeps can report progress while running.  The returned
    /// vector is still in deterministic grid order.
    ///
    /// The observer runs on the calling thread; workers keep computing
    /// while it executes.
    ///
    /// # Example
    ///
    /// ```
    /// use noc_flow::{CycleBreaking, FlowSweep};
    /// use noc_topology::benchmarks::Benchmark;
    ///
    /// let points = FlowSweep::new()
    ///     .benchmark(Benchmark::D26Media)
    ///     .switch_counts([6, 10, 14])
    ///     .power_estimates(false)
    ///     .worker_threads(2)
    ///     .run_streaming(&[&CycleBreaking::default()], |progress| {
    ///         eprintln!(
    ///             "[{}/{}] {} @ {} switches done",
    ///             progress.completed,
    ///             progress.total,
    ///             progress.point.benchmark,
    ///             progress.point.switch_count,
    ///         );
    ///     })?;
    /// assert_eq!(points.len(), 3);
    /// # Ok::<(), noc_flow::FlowError>(())
    /// ```
    pub fn run_streaming(
        &self,
        strategies: &[&dyn DeadlockStrategy],
        observer: impl FnMut(SweepProgress<'_>),
    ) -> Result<Vec<SweepPoint>, FlowError> {
        executor::run_sharded(self, None, strategies, observer)
    }

    /// Parallel + streaming sweep with an explicit input [`Router`], the
    /// parallel counterpart of [`run_with_router`](Self::run_with_router).
    pub fn run_streaming_with_router(
        &self,
        router: &dyn Router,
        strategies: &[&dyn DeadlockStrategy],
        observer: impl FnMut(SweepProgress<'_>),
    ) -> Result<Vec<SweepPoint>, FlowError> {
        executor::run_sharded(self, Some(router), strategies, observer)
    }

    /// The feasible, deduplicated (benchmark, switch-count) grid in
    /// deterministic sweep order: benchmarks in first-seen order, switch
    /// counts in first-seen order within each benchmark.
    ///
    /// Infeasible combinations (zero switches, or more switches than cores)
    /// are skipped; duplicate benchmarks or switch counts contribute a
    /// single grid point each.
    pub(crate) fn grid(&self) -> Vec<(Benchmark, usize)> {
        let benchmarks = dedup_preserving_order(&self.benchmarks);
        let counts = dedup_preserving_order(&self.switch_counts);
        let mut grid = Vec::with_capacity(benchmarks.len() * counts.len());
        for &benchmark in &benchmarks {
            for &switch_count in &counts {
                if switch_count == 0 || switch_count > benchmark.core_count() {
                    continue;
                }
                grid.push((benchmark, switch_count));
            }
        }
        grid
    }

    /// Number of worker threads a parallel run will use.
    pub(crate) fn requested_threads(&self) -> usize {
        self.threads
    }

    /// Prepares one grid point: synthesize, route, estimate the original
    /// design.  The returned [`PointSeed`] is what every strategy task of
    /// the point is charged against — shared by the serial path and the
    /// sharded executor so both produce identical points.
    pub(crate) fn prepare_point(
        &self,
        benchmark: Benchmark,
        switch_count: usize,
        router: Option<&dyn Router>,
    ) -> Result<PointSeed, FlowError> {
        let config = SynthesisConfig {
            switch_count,
            ..self.template.clone()
        };
        let stage = DesignFlow::from_benchmark(benchmark).synthesize(config)?;
        let routed = match router {
            Some(router) => stage.route(router)?,
            None => stage.route_default()?,
        };
        let original = self.estimate_power.then(|| routed.power(self.tech.clone()));
        Ok(PointSeed {
            benchmark,
            switch_count,
            original_power_mw: original.as_ref().map(|e| e.total_power_mw),
            original_area_um2: original.as_ref().map(|e| e.total_area_um2),
            routed,
        })
    }

    /// Charges one strategy against a prepared point (on a clone of the
    /// routed design, so outcomes are independent of execution order).
    pub(crate) fn strategy_outcome(
        &self,
        seed: &PointSeed,
        strategy: &dyn DeadlockStrategy,
    ) -> Result<StrategyOutcome, FlowError> {
        let fixed = seed.routed.resolve_deadlocks(strategy)?;
        let estimate = self.estimate_power.then(|| fixed.power(self.tech.clone()));
        let sim = match &self.vc_sim {
            Some(spec) => {
                let simulated = fixed.simulate_vc(&AssignedVc, &spec.sim, &spec.traffic)?;
                Some(StrategySimStats::from_outcome(simulated.outcome()))
            }
            None => None,
        };
        let fault = match &self.fault_sim {
            Some(spec) => {
                let plan = FaultPlan::storm(fixed.topology(), &spec.storm);
                let faults_injected = plan
                    .events()
                    .iter()
                    .filter(|e| matches!(e.kind, FaultKind::LinkDown(_) | FaultKind::SwitchDown(_)))
                    .count();
                let down = plan.final_faults(fixed.topology());
                let connected = fixed
                    .topology()
                    .connectivity_after(&down)
                    .disconnected_flows(fixed.comm(), fixed.core_map())
                    .is_empty();
                let simulated =
                    fixed.simulate_vc_faulted(&AssignedVc, &spec.sim, &spec.traffic, plan)?;
                Some(FaultRunStats::from_outcome(
                    simulated.outcome(),
                    faults_injected,
                    connected,
                ))
            }
            None => None,
        };
        let certify = self
            .certify
            .then(|| CertifyOutcome::from_report(&fixed.certify()));
        let resolution = fixed.resolution();
        Ok(StrategyOutcome {
            strategy: resolution.strategy.clone(),
            kind: resolution.kind,
            added_vcs: resolution.added_vcs,
            cycles_broken: resolution.cycles_broken,
            mean_hops: fixed.routes().mean_hops(),
            power_mw: estimate.as_ref().map(|e| e.total_power_mw),
            area_um2: estimate.as_ref().map(|e| e.total_area_um2),
            sim,
            certify,
            fault,
        })
    }

    /// The feasible, deduplicated (benchmark, switch-count) grid in
    /// deterministic sweep order — the public face of `FlowSweep::grid`
    /// for callers (like the `noc-jobs` task decomposer) that need to
    /// enumerate a sweep's work units without running it.
    pub fn grid_points(&self) -> Vec<(Benchmark, usize)> {
        self.grid()
    }

    /// Prepares one grid point — synthesize, route, estimate — returning
    /// the shared design every strategy task of the point is charged
    /// against.  Together with [`FlowSweep::charge`] this lets external
    /// schedulers (the `noc-jobs` runner) drive a sweep one (point ×
    /// strategy) task at a time while producing points byte-identical to
    /// [`FlowSweep::run`].
    pub fn prepare(
        &self,
        benchmark: Benchmark,
        switch_count: usize,
    ) -> Result<PreparedPoint, FlowError> {
        self.prepare_point(benchmark, switch_count, None)
            .map(|seed| PreparedPoint { seed })
    }

    /// Charges one strategy against a prepared point (on a clone of the
    /// routed design, so outcomes are independent of execution order).
    pub fn charge(
        &self,
        point: &PreparedPoint,
        strategy: &dyn DeadlockStrategy,
    ) -> Result<StrategyOutcome, FlowError> {
        self.strategy_outcome(&point.seed, strategy)
    }

    fn run_inner(
        &self,
        router: Option<&dyn Router>,
        strategies: &[&dyn DeadlockStrategy],
    ) -> Result<Vec<SweepPoint>, FlowError> {
        if strategies.is_empty() {
            return Err(FlowError::EmptyStrategySet);
        }
        self.grid()
            .into_iter()
            .map(|(benchmark, switch_count)| {
                let seed = self.prepare_point(benchmark, switch_count, router)?;
                let outcomes = strategies
                    .iter()
                    .map(|&strategy| self.strategy_outcome(&seed, strategy))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(seed.point(outcomes))
            })
            .collect()
    }
}

/// A prepared grid point: the routed design every strategy of the point is
/// charged against, plus the point-level metadata the final [`SweepPoint`]
/// carries.
pub(crate) struct PointSeed {
    benchmark: Benchmark,
    switch_count: usize,
    original_power_mw: Option<f64>,
    original_area_um2: Option<f64>,
    routed: RoutedStage,
}

impl PointSeed {
    /// Assembles the final point from the per-strategy outcomes (in
    /// strategy declaration order).
    pub(crate) fn point(&self, outcomes: Vec<StrategyOutcome>) -> SweepPoint {
        SweepPoint {
            benchmark: self.benchmark,
            switch_count: self.switch_count,
            active_flows: self.routed.active_flow_count(),
            mean_hops: self.routed.routes().mean_hops(),
            original_power_mw: self.original_power_mw,
            original_area_um2: self.original_area_um2,
            outcomes,
        }
    }
}

/// A grid point prepared through [`FlowSweep::prepare`]: an opaque handle
/// over the routed design that [`FlowSweep::charge`] charges strategies
/// against and that [`PreparedPoint::assemble`] turns into the final
/// [`SweepPoint`].
pub struct PreparedPoint {
    seed: PointSeed,
}

impl PreparedPoint {
    /// The benchmark this point was prepared for.
    pub fn benchmark(&self) -> Benchmark {
        self.seed.benchmark
    }

    /// The switch count this point was prepared for.
    pub fn switch_count(&self) -> usize {
        self.seed.switch_count
    }

    /// Assembles the final point from the per-strategy outcomes (in
    /// strategy declaration order) — identical to what a full
    /// [`FlowSweep::run`] would have produced for this point.
    pub fn assemble(&self, outcomes: Vec<StrategyOutcome>) -> SweepPoint {
        self.seed.point(outcomes)
    }
}

/// First-seen-order deduplication for the grid axes.
fn dedup_preserving_order<T: Copy + PartialEq>(items: &[T]) -> Vec<T> {
    let mut seen = Vec::with_capacity(items.len());
    for &item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}
