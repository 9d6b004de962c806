//! Experiment harness reproducing the evaluation of the DATE 2010 paper.
//!
//! Each public function regenerates the data behind one figure or one prose
//! claim of the paper's Section 5 by driving the [`noc_flow`] pipeline API;
//! the binaries in `src/bin/` print the corresponding rows/series.  The
//! repository benchmark (`perfbench/`) measures the algorithm's runtime.
//!
//! | Paper artefact | Function | Binary |
//! |---|---|---|
//! | Figure 8 (D26_media, VCs vs. switch count) | [`vc_overhead_sweep`] | `fig8_d26_media` |
//! | Figure 9 (D36_8, VCs vs. switch count) | [`vc_overhead_sweep`] | `fig9_d36_8` |
//! | Figure 10 (normalised power, 6 benchmarks @ 14 switches) | [`power_comparison`] | `fig10_power` |
//! | 88 % VC / 66 % area / 8.6 % power savings, < 5 % overhead | [`summary`] | `summary_table` |
//! | dynamic deadlock validation (beyond the paper) | [`simulate_before_after`] | `sim_validation` |
//! | four-way strategy comparison (beyond the paper) | [`strategy_matrix_sweep`] | `fig_strategy_matrix` |
//! | VC-aware per-strategy simulation sweep (beyond the paper) | [`sim_strategy_sweep`] | `fig_sim_strategies` |
//! | certified-verifier conservatism gap (beyond the paper) | [`conservatism_sweep`] | `fig_conservatism` |
//! | fault-storm survivability per strategy (beyond the paper) | [`fault_strategy_sweep`] | `fig_faults` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use noc_deadlock::cdg::Cdg;
use noc_deadlock::certify::TrapWitness;
use noc_deadlock::removal::RemovalConfig;
use noc_flow::json::{ObjectWriter, ToJson};
use noc_flow::{
    CycleBreaking, DeadlockFreeStage, DeadlockStrategy, DesignFlow, EscapeChannel, FaultRunStats,
    FlowSweep, RecoveryReconfig, ResourceOrdering, RoutedStage, ShortestPathRouter,
    StrategySimStats, SweepPoint, SweepProgress,
};
use noc_rng::SmallRng;
use noc_routing::shortest::route_all_shortest;
use noc_routing::updown::route_all_updown;
use noc_routing::RouteSet;
use noc_sim::traffic::{generate_workload, Workload};
use noc_sim::{
    AdaptiveEscape, AssignedVc, DetectionKind, FaultKind, FaultPlan, Packet, PacketId, SingleVc,
    StormConfig, TrafficConfig, VcSimConfig, VcSimOutcome, VcSimulator,
};
use noc_synth::SynthesisConfig;
use noc_topology::benchmarks::Benchmark;
use noc_topology::{generators, CommGraph, CoreMap, FlowId, SwitchId, Topology};

/// One point of the Figure 8 / Figure 9 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VcSweepPoint {
    /// Switch count of the synthesized topology.
    pub switch_count: usize,
    /// Extra VCs required by the resource-ordering baseline.
    pub resource_ordering_vcs: usize,
    /// Extra VCs added by the deadlock-removal algorithm.
    pub deadlock_removal_vcs: usize,
    /// Number of CDG cycles the removal algorithm had to break.
    pub cycles_broken: usize,
}

/// Regenerates the data of Figures 8 and 9: for each switch count, the VC
/// overhead of resource ordering versus the deadlock-removal algorithm.
///
/// Infeasible switch counts (zero, or more switches than cores) are skipped,
/// like the paper's figures only plot feasible topologies.
///
/// # Panics
///
/// Panics if synthesis or removal fails, which does not happen for the
/// bundled benchmarks (they are exercised by the test suite).
pub fn vc_overhead_sweep(
    benchmark: Benchmark,
    switch_counts: impl IntoIterator<Item = usize>,
) -> Vec<VcSweepPoint> {
    vc_overhead_sweep_streaming(benchmark, switch_counts, 0, |_| {})
}

/// [`vc_overhead_sweep`] on the parallel executor, streaming a progress
/// notification to `observer` as each grid point completes (completion
/// order); the returned points are in switch-count order regardless.
///
/// `threads` is the executor worker count (`0` auto-sizes to the machine,
/// the figure binaries expose it as `--threads N`).
pub fn vc_overhead_sweep_streaming(
    benchmark: Benchmark,
    switch_counts: impl IntoIterator<Item = usize>,
    threads: usize,
    observer: impl FnMut(SweepProgress<'_>),
) -> Vec<VcSweepPoint> {
    let removal = CycleBreaking::default();
    let ordering = ResourceOrdering;
    let points = FlowSweep::new()
        .benchmark(benchmark)
        .switch_counts(switch_counts)
        .power_estimates(false) // Figures 8/9 only plot VC counts
        .worker_threads(threads)
        .run_streaming(&[&removal, &ordering], observer)
        .unwrap_or_else(|e| panic!("sweep failed for {benchmark}: {e}"));
    points
        .into_iter()
        .map(|p| {
            let removal = p.outcome(removal.name()).expect("strategy ran");
            let ordering = p.outcome(ordering.name()).expect("strategy ran");
            VcSweepPoint {
                switch_count: p.switch_count,
                resource_ordering_vcs: ordering.added_vcs,
                deadlock_removal_vcs: removal.added_vcs,
                cycles_broken: removal.cycles_broken,
            }
        })
        .collect()
}

/// One bar group of Figure 10 plus the area/overhead numbers quoted in the
/// paper's prose.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerComparison {
    /// Benchmark name as used in the paper.
    pub benchmark: String,
    /// Power (mW) of the unmodified, deadlock-prone design.
    pub original_power_mw: f64,
    /// Power (mW) after the deadlock-removal algorithm.
    pub removal_power_mw: f64,
    /// Power (mW) after resource ordering.
    pub ordering_power_mw: f64,
    /// Area (µm²) of the unmodified design.
    pub original_area_um2: f64,
    /// Area (µm²) after the deadlock-removal algorithm.
    pub removal_area_um2: f64,
    /// Area (µm²) after resource ordering.
    pub ordering_area_um2: f64,
    /// Extra VCs: removal algorithm.
    pub removal_vcs: usize,
    /// Extra VCs: resource ordering.
    pub ordering_vcs: usize,
}

impl PowerComparison {
    /// Resource-ordering power normalised to the removal algorithm (the bar
    /// plotted in Figure 10; > 1 means ordering burns more power).
    pub fn normalised_ordering_power(&self) -> f64 {
        self.ordering_power_mw / self.removal_power_mw
    }

    /// Power overhead of the removal algorithm over the original design.
    pub fn removal_power_overhead(&self) -> f64 {
        self.removal_power_mw / self.original_power_mw - 1.0
    }

    /// Area overhead of the removal algorithm over the original design.
    pub fn removal_area_overhead(&self) -> f64 {
        self.removal_area_um2 / self.original_area_um2 - 1.0
    }

    /// Area saving of the removal algorithm versus resource ordering,
    /// counted (as the paper does) on the VC-buffer area the two schemes add.
    pub fn area_saving_vs_ordering(&self) -> f64 {
        let removal_added = self.removal_area_um2 - self.original_area_um2;
        let ordering_added = self.ordering_area_um2 - self.original_area_um2;
        if ordering_added <= 0.0 {
            0.0
        } else {
            1.0 - removal_added / ordering_added
        }
    }

    /// VC saving of the removal algorithm versus resource ordering.
    pub fn vc_saving_vs_ordering(&self) -> f64 {
        if self.ordering_vcs == 0 {
            0.0
        } else {
            1.0 - self.removal_vcs as f64 / self.ordering_vcs as f64
        }
    }

    /// Power saving of the removal algorithm versus resource ordering.
    pub fn power_saving_vs_ordering(&self) -> f64 {
        1.0 - self.removal_power_mw / self.ordering_power_mw
    }
}

/// Regenerates one bar group of Figure 10 (default: 14-switch topologies, as
/// in the paper).
pub fn power_comparison(benchmark: Benchmark, switch_count: usize) -> PowerComparison {
    power_comparisons([benchmark], switch_count, 0, |_| {})
        .into_iter()
        .next()
        .unwrap_or_else(|| panic!("switch count {switch_count} infeasible for {benchmark}"))
}

/// Regenerates a whole Figure 10 bar row in one parallel sweep: every
/// benchmark at the same switch count, sharded across `threads` worker
/// threads (`0` auto-sizes), with per-point progress streamed to
/// `observer`.  Infeasible benchmarks are skipped, so the result can be
/// shorter than the input.
pub fn power_comparisons(
    benchmarks: impl IntoIterator<Item = Benchmark>,
    switch_count: usize,
    threads: usize,
    observer: impl FnMut(SweepProgress<'_>),
) -> Vec<PowerComparison> {
    let removal_strategy = CycleBreaking::default();
    let ordering_strategy = ResourceOrdering;
    let points = FlowSweep::new()
        .benchmarks(benchmarks)
        .switch_counts([switch_count])
        .worker_threads(threads)
        .run_streaming(&[&removal_strategy, &ordering_strategy], observer)
        .unwrap_or_else(|e| panic!("flow failed at {switch_count} switches: {e}"));
    points
        .iter()
        .map(|p| comparison_from_point(p, removal_strategy.name(), ordering_strategy.name()))
        .collect()
}

/// Extracts the Figure 10 numbers from one power-enabled sweep point.
fn comparison_from_point(
    point: &SweepPoint,
    removal_name: &str,
    ordering_name: &str,
) -> PowerComparison {
    let removal = point.outcome(removal_name).expect("strategy ran");
    let ordering = point.outcome(ordering_name).expect("strategy ran");
    let enabled = "power estimates are on by default";
    PowerComparison {
        benchmark: point.benchmark.name().to_string(),
        original_power_mw: point.original_power_mw.expect(enabled),
        removal_power_mw: removal.power_mw.expect(enabled),
        ordering_power_mw: ordering.power_mw.expect(enabled),
        original_area_um2: point.original_area_um2.expect(enabled),
        removal_area_um2: removal.area_um2.expect(enabled),
        ordering_area_um2: ordering.area_um2.expect(enabled),
        removal_vcs: removal.added_vcs,
        ordering_vcs: ordering.added_vcs,
    }
}

/// Aggregate savings over a set of comparisons — the numbers quoted in the
/// paper's abstract and Section 5 prose (88 % fewer VCs, 66 % less area,
/// 8.6 % less power, < 5 % overhead versus no removal).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Mean VC saving of the removal algorithm versus resource ordering.
    pub mean_vc_saving: f64,
    /// Mean added-area saving versus resource ordering.
    pub mean_area_saving: f64,
    /// Mean power saving versus resource ordering.
    pub mean_power_saving: f64,
    /// Mean power overhead versus the unmodified (deadlock-prone) design.
    pub mean_power_overhead: f64,
    /// Mean area overhead versus the unmodified design.
    pub mean_area_overhead: f64,
}

/// Aggregates per-benchmark comparisons into the headline percentages.
pub fn summary(comparisons: &[PowerComparison]) -> Summary {
    let n = comparisons.len().max(1) as f64;
    // Benchmarks where neither scheme adds anything are excluded from the
    // saving averages (0/0), matching how the paper reports averages over
    // benchmarks that need deadlock handling.
    let saving_set: Vec<&PowerComparison> =
        comparisons.iter().filter(|c| c.ordering_vcs > 0).collect();
    let saving_n = saving_set.len().max(1) as f64;
    Summary {
        mean_vc_saving: saving_set
            .iter()
            .map(|c| c.vc_saving_vs_ordering())
            .sum::<f64>()
            / saving_n,
        mean_area_saving: saving_set
            .iter()
            .map(|c| c.area_saving_vs_ordering())
            .sum::<f64>()
            / saving_n,
        mean_power_saving: saving_set
            .iter()
            .map(|c| c.power_saving_vs_ordering())
            .sum::<f64>()
            / saving_n,
        mean_power_overhead: comparisons
            .iter()
            .map(|c| c.removal_power_overhead())
            .sum::<f64>()
            / n,
        mean_area_overhead: comparisons
            .iter()
            .map(|c| c.removal_area_overhead())
            .sum::<f64>()
            / n,
    }
}

/// Outcome of the dynamic (simulation) validation of one design.
#[derive(Debug, Clone, PartialEq)]
pub struct SimValidation {
    /// Benchmark name.
    pub benchmark: String,
    /// Whether the CDG of the original design is cyclic.
    pub original_cdg_cyclic: bool,
    /// Whether the original design deadlocked in simulation.
    pub original_deadlocked: bool,
    /// Whether the removal-fixed design deadlocked in simulation (must be
    /// `false`).
    pub fixed_deadlocked: bool,
    /// Packets delivered by the fixed design.
    pub fixed_delivered: usize,
    /// Mean packet latency of the fixed design in cycles.
    pub fixed_mean_latency: f64,
    /// 95th-percentile packet latency of the fixed design in cycles.
    pub fixed_p95_latency: u64,
}

/// Simulates a benchmark design before and after deadlock removal under a
/// high-pressure workload (the experiment behind the `sim_validation`
/// binary; the paper argues this analytically, we also check it dynamically).
///
/// Both runs use the VC-fidelity engine with the [`AssignedVc`] policy and
/// exact wait-for-graph detection, so the "after" run genuinely rides the
/// VCs the removal algorithm assigned (per-(link × VC) buffers, credit
/// backpressure), not just the physical links.
pub fn simulate_before_after(benchmark: Benchmark, switch_count: usize) -> SimValidation {
    let routed = routed_benchmark(benchmark, switch_count);
    let sim_config = VcSimConfig {
        buffer_depth: 1,
        max_cycles: 400_000,
        ..VcSimConfig::default()
    };
    let traffic = TrafficConfig {
        packets_per_flow: 6,
        packet_length: 8,
        mean_gap_cycles: 0,
        seed: 7,
        ..TrafficConfig::default()
    };

    let original_cdg_cyclic = !routed.is_deadlock_free();
    let original = routed.simulate_vc(&AssignedVc, &sim_config, &traffic);

    let fixed = routed
        .resolve_deadlocks(&CycleBreaking::default())
        .expect("removal succeeds on the benchmark suite")
        .simulate_vc(&AssignedVc, &sim_config, &traffic)
        .expect("repaired design is consistent");

    SimValidation {
        benchmark: benchmark.name().to_string(),
        original_cdg_cyclic,
        original_deadlocked: original.deadlocked,
        fixed_deadlocked: fixed.outcome().deadlocked,
        fixed_delivered: fixed.outcome().stats.delivered_packets,
        fixed_mean_latency: fixed.outcome().stats.mean_latency(),
        fixed_p95_latency: fixed.outcome().stats.p95_latency(),
    }
}

/// [`simulate_before_after`] for a whole benchmark list, sharded across
/// `threads` scoped worker threads (`0` auto-sizes to the machine); results
/// come back in input order.  This is what gives the `sim_validation`
/// binary its `--threads` knob — the per-benchmark simulations are fully
/// independent, like the sweep grid points.
pub fn simulate_before_after_all(
    benchmarks: &[Benchmark],
    switch_count: usize,
    threads: usize,
) -> Vec<SimValidation> {
    noc_flow::executor::parallel_map_ordered(benchmarks, threads, |&benchmark| {
        simulate_before_after(benchmark, switch_count)
    })
}

/// The names of the four deadlock strategies of the comparison matrix,
/// derived from `StrategyKind::ALL` so the two can never drift apart.
pub const STRATEGY_MATRIX_NAMES: [&str; 4] = [
    noc_flow::StrategyKind::ALL[0].name(),
    noc_flow::StrategyKind::ALL[1].name(),
    noc_flow::StrategyKind::ALL[2].name(),
    noc_flow::StrategyKind::ALL[3].name(),
];

/// Sweeps **all four** deadlock strategies — the paper's cycle breaking and
/// resource ordering plus escape-channel avoidance and recovery-based
/// reconfiguration — over the Figure 8 (D26_media) and Figure 9 (D36_8)
/// benchmark grids, the data behind the `fig_strategy_matrix` binary.
///
/// Each grid point charges every strategy against the same routed design;
/// the executor shards the (point × strategy) tasks across `threads` worker
/// threads (`0` auto-sizes).  Progress streams to `observer` per completed
/// point, per figure grid; the returned points are the Figure 8 grid
/// followed by the Figure 9 grid, each in switch-count order.
pub fn strategy_matrix_sweep(
    threads: usize,
    mut observer: impl FnMut(SweepProgress<'_>),
) -> Vec<SweepPoint> {
    let cycle_breaking = CycleBreaking::default();
    let ordering = ResourceOrdering;
    let escape = EscapeChannel::default();
    let recovery = RecoveryReconfig::default();
    let strategies: [&dyn DeadlockStrategy; 4] = [&cycle_breaking, &ordering, &escape, &recovery];

    let mut points = Vec::new();
    for (benchmark, counts) in [
        (Benchmark::D26Media, sweeps::FIG8_SWITCH_COUNTS),
        (Benchmark::D36x8, sweeps::FIG9_SWITCH_COUNTS),
    ] {
        let grid = FlowSweep::new()
            .benchmark(benchmark)
            .switch_counts(counts)
            .power_estimates(false)
            .certify(true)
            .worker_threads(threads)
            .run_streaming(&strategies, &mut observer)
            .unwrap_or_else(|e| panic!("strategy matrix failed for {benchmark}: {e}"));
        points.extend(grid);
    }
    points
}

/// The simulation-policy axis of the `fig_sim_strategies` experiment, in
/// sweep order: the deliberately unsafe single-VC baseline (on the
/// unrepaired design), the four deadlock strategies honouring their VC
/// assignments (escape channels twice — static and Duato-adaptive), and the
/// unrepaired design under the DBR-style dynamic drain.
pub const SIM_STRATEGY_POLICIES: [&str; 6] = [
    "unsafe-single-vc",
    "cycle-breaking",
    "resource-ordering",
    "escape-channel",
    "escape-channel-adaptive",
    "recovery-reconfig",
];

/// The injection-rate axis of the `fig_sim_strategies` experiment: mean
/// inter-arrival gaps in cycles, from saturation (0) to light load.
pub const SIM_INJECTION_GAPS: [u64; 3] = [0, 8, 32];

/// One simulated operating point: a policy at one injection rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRatePoint {
    /// Mean inter-arrival gap of the swept workload (0 = saturation).
    pub mean_gap_cycles: u64,
    /// Delivery / latency / throughput summary.
    pub stats: StrategySimStats,
    /// How the deadlock (if any) was established
    /// (`"wait-for-graph"` / `"idle-timeout"`).
    pub detected_by: Option<String>,
    /// DBR drain events executed (recovery policy only).
    pub recovery_events: usize,
    /// Packets drained across those events.
    pub packets_drained: usize,
    /// Flows permanently switched onto the recovery routing function.
    pub flows_reconfigured: usize,
}

impl SimRatePoint {
    fn from_outcome(mean_gap_cycles: u64, outcome: &VcSimOutcome) -> Self {
        SimRatePoint {
            mean_gap_cycles,
            stats: StrategySimStats::from_outcome(outcome),
            detected_by: outcome.detection.map(|e| e.kind.name().to_string()),
            recovery_events: outcome.drain.events,
            packets_drained: outcome.drain.packets_drained,
            flows_reconfigured: outcome.drain.flows_reconfigured,
        }
    }
}

/// The injection-rate series of one policy on one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPolicySeries {
    /// Policy name ([`SIM_STRATEGY_POLICIES`]).
    pub policy: String,
    /// One entry per swept gap, in [`SIM_INJECTION_GAPS`] order.
    pub rates: Vec<SimRatePoint>,
}

/// One grid point of the VC-aware simulation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSweepPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Switch count of the synthesized topology.
    pub switch_count: usize,
    /// Flows that actually enter the switch network.
    pub active_flows: usize,
    /// Whether the unrepaired design's CDG is cyclic — the precondition for
    /// the unsafe baseline to be able to deadlock at all.
    pub baseline_cdg_cyclic: bool,
    /// Flows inside cyclic CDG SCCs (the cycle-stress set; empty when
    /// acyclic).
    pub stress_flows: usize,
    /// Per-policy series, in [`SIM_STRATEGY_POLICIES`] order.
    pub series: Vec<SimPolicySeries>,
}

impl SimSweepPoint {
    /// The series of the given policy, if present.
    pub fn series(&self, policy: &str) -> Option<&SimPolicySeries> {
        self.series.iter().find(|s| s.policy == policy)
    }
}

/// Builds the workload of the VC-aware simulation sweep: the uniform
/// workload of `traffic` plus a *cycle-stress prefix* — `stress_packets`
/// packets of `stress_length` flits on every flow of `stress_flows`, all
/// created at cycle 0 — so the flows that can form a runtime deadlock
/// (the flows inside cyclic CDG SCCs, [`Cdg::cyclic_flows`]) actually press
/// on the cycle simultaneously.  A cyclic CDG is necessary but not
/// *sufficient* for a runtime deadlock; without the stress prefix most
/// benchmark workloads drain before the trap ever closes.
pub fn cycle_stress_workload(
    comm: &noc_topology::CommGraph,
    traffic: &TrafficConfig,
    stress_flows: &[FlowId],
    stress_packets: usize,
    stress_length: usize,
) -> Workload {
    let mut packets: Vec<Packet> = stress_flows
        .iter()
        .flat_map(|&flow| {
            (0..stress_packets).map(move |_| Packet {
                id: PacketId(0),
                flow,
                length: stress_length.max(1),
                created_at: 0,
            })
        })
        .collect();
    packets.extend(generate_workload(comm, traffic).packets);
    for (index, packet) in packets.iter_mut().enumerate() {
        packet.id = PacketId(index);
    }
    packets.sort_by_key(|p| (p.created_at, p.id.0));
    Workload { packets }
}

/// The engine configuration of the VC-aware simulation sweep: minimal
/// buffers (the configuration most prone to deadlock), exact wait-for-graph
/// detection.
fn sim_sweep_config() -> VcSimConfig {
    VcSimConfig {
        buffer_depth: 1,
        max_cycles: 600_000,
        ..VcSimConfig::default()
    }
}

/// Simulates every policy × injection rate of the `fig_sim_strategies`
/// experiment on one synthesized grid point.
///
/// All policies at a given rate run the *same workload* (uniform traffic
/// plus the cycle-stress prefix derived from the unrepaired design's CDG),
/// so the comparison is apples-to-apples: the unsafe baseline deadlocking
/// while every strategy delivers 100 % is a property of the VC handling,
/// not of the traffic.
pub fn sim_strategy_point(benchmark: Benchmark, switch_count: usize) -> SimSweepPoint {
    let routed = routed_benchmark(benchmark, switch_count);
    let comm = routed.comm();
    let cdg = Cdg::build(routed.topology(), routed.routes());
    let stress = cdg.cyclic_flows();

    // The repaired designs, one per VC-assigning strategy (the escape
    // design serves both the static and the Duato-adaptive policy).
    let broken = routed
        .resolve_deadlocks(&CycleBreaking::default())
        .expect("cycle breaking succeeds on the benchmark suite");
    let ordered = routed
        .resolve_deadlocks(&ResourceOrdering)
        .expect("resource ordering succeeds on the benchmark suite");
    let escaped = routed
        .resolve_deadlocks(&EscapeChannel::default())
        .expect("escape channels succeed on the benchmark suite");
    let recovery_routes = route_all_updown(
        routed.topology(),
        comm,
        routed.core_map(),
        SwitchId::from_index(0),
    )
    .expect("up*/down* recovery routes exist on the benchmark suite");

    let base_map = routed.vc_map();
    let broken_map = broken.vc_map();
    let ordered_map = ordered.vc_map();
    let escaped_map = escaped.vc_map();
    let config = sim_sweep_config();

    let mut series: Vec<SimPolicySeries> = SIM_STRATEGY_POLICIES
        .iter()
        .map(|&policy| SimPolicySeries {
            policy: policy.to_string(),
            rates: Vec::new(),
        })
        .collect();
    for gap in SIM_INJECTION_GAPS {
        let traffic = TrafficConfig {
            packets_per_flow: 4,
            packet_length: 8,
            mean_gap_cycles: gap,
            seed: 0xF1C5,
            ..TrafficConfig::default()
        };
        let workload = cycle_stress_workload(comm, &traffic, &stress, 4, 8);
        let outcomes = [
            VcSimulator::new(comm, routed.routes(), &base_map, &SingleVc, &config)
                .run_workload(&workload),
            VcSimulator::new(comm, broken.routes(), &broken_map, &AssignedVc, &config)
                .run_workload(&workload),
            VcSimulator::new(comm, ordered.routes(), &ordered_map, &AssignedVc, &config)
                .run_workload(&workload),
            VcSimulator::new(comm, escaped.routes(), &escaped_map, &AssignedVc, &config)
                .run_workload(&workload),
            VcSimulator::new(
                comm,
                escaped.routes(),
                &escaped_map,
                &AdaptiveEscape,
                &config,
            )
            .run_workload(&workload),
            VcSimulator::new(comm, routed.routes(), &base_map, &AssignedVc, &config)
                .with_recovery(recovery_routes.clone())
                .run_workload(&workload),
        ];
        for (entry, outcome) in series.iter_mut().zip(outcomes.iter()) {
            entry.rates.push(SimRatePoint::from_outcome(gap, outcome));
        }
    }
    SimSweepPoint {
        benchmark: benchmark.name().to_string(),
        switch_count,
        active_flows: routed.active_flow_count(),
        baseline_cdg_cyclic: !stress.is_empty(),
        stress_flows: stress.len(),
        series,
    }
}

/// The full `fig_sim_strategies` sweep: every feasible Figure 8 (D26_media)
/// and Figure 9 (D36_8) grid point, sharded across `threads` worker threads
/// via the existing executor (`0` auto-sizes); points come back in grid
/// order.
pub fn sim_strategy_sweep(threads: usize) -> Vec<SimSweepPoint> {
    let mut grid: Vec<(Benchmark, usize)> = Vec::new();
    for count in sweeps::FIG8_SWITCH_COUNTS {
        grid.push((Benchmark::D26Media, count));
    }
    for count in sweeps::FIG9_SWITCH_COUNTS {
        grid.push((Benchmark::D36x8, count));
    }
    noc_flow::executor::parallel_map_ordered(&grid, threads, |&(benchmark, switch_count)| {
        sim_strategy_point(benchmark, switch_count)
    })
}

/// The strategy axis of the `fig_faults` experiment, in sweep order: every
/// repaired design (one per deadlock-handling scheme) is pushed through the
/// *same* seeded link-failure storm under cycle-safe live reconfiguration,
/// so the survivability comparison isolates the VC handling from the fault
/// schedule.
pub const FAULT_STRATEGIES: [&str; 4] = [
    "cycle-breaking",
    "resource-ordering",
    "escape-channel",
    "recovery-reconfig",
];

/// Deterministic per-grid-point seed of the fault sweep, mixed from the
/// benchmark name and switch count so every point (and every strategy on
/// it) sees its own storm and workload jitter.
fn fault_point_seed(benchmark: Benchmark, switch_count: usize) -> u64 {
    benchmark
        .name()
        .bytes()
        .fold(switch_count as u64, |acc, byte| {
            acc.wrapping_mul(131).wrapping_add(u64::from(byte))
        })
}

/// The storm every `fig_faults` grid point runs: three link-pair failures
/// starting at cycle 150, spaced 250 cycles apart, no repairs, with the
/// partition-avoiding generator (best effort — points it cannot keep
/// connected are still swept and reported with `connected = false`).
pub fn fault_sweep_storm(benchmark: Benchmark, switch_count: usize) -> StormConfig {
    StormConfig {
        faults: 3,
        first_cycle: 150,
        spacing: 250,
        seed: 0xFA17 ^ fault_point_seed(benchmark, switch_count),
        repair_after: None,
        avoid_partition: true,
    }
}

/// The workload of the fault sweep: enough packets per flow, at a light
/// injection rate, that injection extends well past the last storm event
/// (cycle 650) — the sweep measures post-reconfiguration delivery, not just
/// the pre-fault prefix.
pub fn fault_sweep_traffic(benchmark: Benchmark, switch_count: usize) -> TrafficConfig {
    TrafficConfig {
        packets_per_flow: 24,
        packet_length: 4,
        mean_gap_cycles: 36,
        seed: 0xF1C5 ^ fault_point_seed(benchmark, switch_count),
        ..TrafficConfig::default()
    }
}

/// Resolves the routed design under every [`FAULT_STRATEGIES`] scheme, in
/// that order (shared by [`fault_strategy_point`] and the cross-strategy
/// fault-equivalence harness in `tests/`).
///
/// # Panics
///
/// Panics if a strategy fails, which does not happen on the bundled
/// benchmarks.
pub fn fault_strategy_designs(routed: &RoutedStage) -> Vec<DeadlockFreeStage> {
    let breaking = CycleBreaking::default();
    let ordering = ResourceOrdering;
    let escape = EscapeChannel::default();
    let recovery = RecoveryReconfig::default();
    let all: [&dyn DeadlockStrategy; 4] = [&breaking, &ordering, &escape, &recovery];
    all.iter()
        .map(|&strategy| {
            routed
                .resolve_deadlocks(strategy)
                .unwrap_or_else(|e| panic!("{} failed: {e}", strategy.name()))
        })
        .collect()
}

/// Runs one repaired design through a fault storm on the VC engine: the
/// assigned-VC policy, the sweep's minimal-buffer configuration, and the
/// live-reconfiguration seam armed with `plan`.
pub fn fault_run_outcome(
    fixed: &DeadlockFreeStage,
    plan: &FaultPlan,
    traffic: &TrafficConfig,
    config: &VcSimConfig,
) -> VcSimOutcome {
    let vc_map = fixed.vc_map();
    VcSimulator::new(fixed.comm(), fixed.routes(), &vc_map, &AssignedVc, config)
        .with_faults(fixed.topology(), fixed.core_map(), plan.clone())
        .run(traffic)
}

/// One strategy's run through the storm on one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStrategyRun {
    /// Strategy name ([`FAULT_STRATEGIES`]).
    pub strategy: String,
    /// Extra VCs the strategy had added before the storm.
    pub added_vcs: usize,
    /// Survivability summary of the fault-armed run.
    pub stats: FaultRunStats,
}

/// One grid point of the fault-storm sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Switch count of the synthesized topology.
    pub switch_count: usize,
    /// Flows that actually enter the switch network.
    pub active_flows: usize,
    /// Failure events the storm scheduled (repairs not counted).
    pub faults_injected: usize,
    /// Whether the storm's final failure state leaves every flow's
    /// endpoints connected (predicted by replaying the plan).
    pub connected: bool,
    /// Per-strategy runs, in [`FAULT_STRATEGIES`] order.
    pub runs: Vec<FaultStrategyRun>,
}

impl FaultSweepPoint {
    /// The run of the given strategy, if present.
    pub fn run(&self, strategy: &str) -> Option<&FaultStrategyRun> {
        self.runs.iter().find(|r| r.strategy == strategy)
    }
}

/// Simulates every [`FAULT_STRATEGIES`] design through the point's seeded
/// storm and asserts the protocol's hard guarantees in place: no epoch ever
/// commits cyclic, no run ends deadlocked, and on a storm that keeps the
/// fabric connected every strategy keeps delivering (no flow goes
/// unreachable and delivery is non-zero).
///
/// # Panics
///
/// Panics when a guarantee is violated — the `fig_faults` binary and the CI
/// artifact check both lean on these asserts.
pub fn fault_strategy_point(benchmark: Benchmark, switch_count: usize) -> FaultSweepPoint {
    let routed = routed_benchmark(benchmark, switch_count);
    let storm = fault_sweep_storm(benchmark, switch_count);
    let plan = FaultPlan::storm(routed.topology(), &storm);
    let faults_injected = plan
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::LinkDown(_) | FaultKind::SwitchDown(_)))
        .count();
    let down = plan.final_faults(routed.topology());
    let connected = routed
        .topology()
        .connectivity_after(&down)
        .disconnected_flows(routed.comm(), routed.core_map())
        .is_empty();
    let traffic = fault_sweep_traffic(benchmark, switch_count);
    let config = sim_sweep_config();

    let runs = fault_strategy_designs(&routed)
        .iter()
        .map(|fixed| {
            let outcome = fault_run_outcome(fixed, &plan, &traffic, &config);
            let stats = FaultRunStats::from_outcome(&outcome, faults_injected, connected);
            let label = format!("{benchmark}/{switch_count}/{}", fixed.resolution().strategy);
            assert_eq!(
                stats.cyclic_commits, 0,
                "{label}: an epoch committed a cyclic combined graph"
            );
            assert!(
                !stats.deadlocked,
                "{label}: deadlocked through the fault storm"
            );
            if connected {
                assert_eq!(
                    stats.unreachable_flows, 0,
                    "{label}: connected storm left flows unreachable"
                );
                assert!(
                    stats.delivered > 0,
                    "{label}: connected storm delivered nothing"
                );
            }
            FaultStrategyRun {
                strategy: fixed.resolution().strategy.clone(),
                added_vcs: fixed.resolution().added_vcs,
                stats,
            }
        })
        .collect();
    FaultSweepPoint {
        benchmark: benchmark.name().to_string(),
        switch_count,
        active_flows: routed.active_flow_count(),
        faults_injected,
        connected,
        runs,
    }
}

/// The (benchmark × switch-count) grid of the fault sweep: every feasible
/// Figure 8 (D26_media) and Figure 9 (D36_8) point.
pub fn fault_sweep_grid() -> Vec<(Benchmark, usize)> {
    let mut grid: Vec<(Benchmark, usize)> = Vec::new();
    for count in sweeps::FIG8_SWITCH_COUNTS {
        grid.push((Benchmark::D26Media, count));
    }
    for count in sweeps::FIG9_SWITCH_COUNTS {
        grid.push((Benchmark::D36x8, count));
    }
    grid
}

/// The full `fig_faults` sweep, sharded across `threads` worker threads via
/// the existing executor (`0` auto-sizes); points come back in grid order.
pub fn fault_strategy_sweep(threads: usize) -> Vec<FaultSweepPoint> {
    let grid = fault_sweep_grid();
    noc_flow::executor::parallel_map_ordered(&grid, threads, |&(benchmark, switch_count)| {
        fault_strategy_point(benchmark, switch_count)
    })
}

impl ToJson for FaultStrategyRun {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("strategy", &self.strategy)
            .field("added_vcs", &self.added_vcs)
            .field("stats", &self.stats)
            .finish();
    }
}

impl ToJson for FaultSweepPoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmark", &self.benchmark)
            .field("switch_count", &self.switch_count)
            .field("active_flows", &self.active_flows)
            .field("faults_injected", &self.faults_injected)
            .field("connected", &self.connected)
            .field("runs", &self.runs)
            .finish();
    }
}

/// Synthesizes and routes a benchmark through the flow API (shared entry
/// point of the harness functions and the `cdg_incremental` timing binary).
///
/// # Panics
///
/// Panics if synthesis fails, which does not happen for feasible switch
/// counts of the bundled benchmarks.
pub fn routed_benchmark(benchmark: Benchmark, switch_count: usize) -> RoutedStage {
    DesignFlow::from_benchmark(benchmark)
        .synthesize(SynthesisConfig::with_switches(switch_count))
        .unwrap_or_else(|e| panic!("synthesis failed for {benchmark}/{switch_count}: {e}"))
        .route_default()
        .expect("synthesized designs carry default routes")
}

/// Number of seeded random designs the `fig_conservatism` artifact and the
/// three-way agreement harness sweep by default.
pub const DEFAULT_RANDOM_DESIGNS: usize = 200;

/// Builds the *long-worm* workload the certified verifier models: one
/// saturating packet per active flow, all created at cycle 0, each long
/// enough (`hops × buffer_depth + 1` flits) that a blocked worm's tail is
/// still at its source — the packet owns every channel of its claimed route
/// prefix, exactly the footprint semantics of
/// [`noc_deadlock::certify::certify_deadlock_free`].
pub fn long_worm_workload(routes: &RouteSet, buffer_depth: usize) -> Workload {
    let mut packets: Vec<Packet> = routes
        .iter()
        .filter(|(_, route)| !route.is_empty())
        .map(|(flow, route)| Packet {
            id: PacketId(0),
            flow,
            length: (route.hop_count() * buffer_depth.max(1) + 1).max(2),
            created_at: 0,
        })
        .collect();
    for (index, packet) in packets.iter_mut().enumerate() {
        packet.id = PacketId(index);
    }
    Workload { packets }
}

/// Builds the adversarial injection schedule derived from a
/// [`TrapWitness`]: long worms (as in [`long_worm_workload`]) on *exactly*
/// the witness flows, so the simulator presses on the statically found trap
/// and nothing else.
pub fn witness_replay_workload(
    routes: &RouteSet,
    witness: &TrapWitness,
    buffer_depth: usize,
) -> Workload {
    let mut packets: Vec<Packet> = witness
        .worms
        .iter()
        .filter_map(|worm| routes.route(worm.flow).map(|route| (worm.flow, route)))
        .filter(|(_, route)| !route.is_empty())
        .map(|(flow, route)| Packet {
            id: PacketId(0),
            flow,
            length: (route.hop_count() * buffer_depth.max(1) + 1).max(2),
            created_at: 0,
        })
        .collect();
    for (index, packet) in packets.iter_mut().enumerate() {
        packet.id = PacketId(index);
    }
    Workload { packets }
}

/// Generates a random small design — unidirectional ring, chorded ring or
/// 2-D mesh with one core per switch and random flows — routed with the
/// shortest-path router.  Deterministic per seed; rings and chorded rings
/// routinely produce cyclic CDGs (and genuine traps), meshes are mostly
/// acyclic, so the population exercises every certified verdict class.
///
/// # Panics
///
/// Panics if validation or routing fails, which the generator construction
/// rules out (every topology is strongly connected).
pub fn random_routed_design(seed: u64) -> RoutedStage {
    let mut rng = SmallRng::seed_from_u64(seed);
    let generated = match rng.gen_range(0usize..3) {
        0 => generators::unidirectional_ring(rng.gen_range(4usize..10), 1.0),
        1 => {
            // Chorded ring: a unidirectional ring plus 1-2 random shortcut
            // links, the classic adaptive-routing deadlock playground.
            let mut generated = generators::unidirectional_ring(rng.gen_range(5usize..11), 1.0);
            let n = generated.switches.len();
            for _ in 0..rng.gen_range(1usize..3) {
                let from = rng.gen_range(0usize..n);
                let mut to = rng.gen_range(0usize..n);
                if to == from {
                    to = (to + 1) % n;
                }
                generated
                    .topology
                    .add_link(generated.switches[from], generated.switches[to], 1.0);
            }
            generated
        }
        _ => generators::mesh2d(rng.gen_range(2usize..4), rng.gen_range(2usize..5), 1.0),
    };

    let n = generated.switches.len();
    let mut comm = CommGraph::new();
    let cores: Vec<_> = (0..n).map(|i| comm.add_core(format!("core{i}"))).collect();
    let flow_count = rng.gen_range(n..2 * n + 1);
    for _ in 0..flow_count {
        let src = rng.gen_range(0usize..n);
        let mut dst = rng.gen_range(0usize..n);
        if dst == src {
            dst = (dst + 1) % n;
        }
        comm.add_flow(cores[src], cores[dst], 0.05);
    }
    let mut core_map = CoreMap::new(n);
    for (i, &core) in cores.iter().enumerate() {
        core_map
            .assign(core, generated.switches[i])
            .expect("generated switches exist");
    }

    DesignFlow::from_comm(comm)
        .labelled(format!("random-{seed}"))
        .with_design(generated.topology, core_map)
        .unwrap_or_else(|e| panic!("random design {seed} invalid: {e}"))
        .route(&ShortestPathRouter::default())
        .unwrap_or_else(|e| panic!("random design {seed} unroutable: {e}"))
}

/// One routed design run through all three verifiers: the conservative CDG
/// check, the certified trap search, and the exact runtime wait-for-graph
/// detector under the long-worm workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ConservatismPoint {
    /// Benchmark name (`random` for the seeded random population).
    pub benchmark: String,
    /// Switch count of the design.
    pub switch_count: usize,
    /// Flows that actually traverse the switch network.
    pub active_flows: usize,
    /// Verdict of the conservative check: `true` iff the CDG has a cycle.
    pub cdg_cyclic: bool,
    /// Certified verdict name (`certified-free` / `certified-deadlockable`
    /// / `unknown`).
    pub verdict: String,
    /// Worms in the deadlock witness (0 unless certified-deadlockable).
    pub witness_worms: usize,
    /// Worm placements the trap search tried.
    pub search_steps: usize,
    /// VCs Algorithm 1 spends making this design CDG-acyclic — on a
    /// cyclic-but-certified-free point these are the cost of conservatism.
    pub removal_vcs: usize,
    /// The runtime verdict: did the long-worm simulation deadlock?
    pub runtime_deadlocked: bool,
    /// `true` iff the exact wait-for-graph detector (not the idle-timeout
    /// fallback) established the runtime deadlock.
    pub wait_for_graph_fired: bool,
    /// `true` iff a witness-derived replay workload was simulated.
    pub witness_attempted: bool,
    /// `true` iff the replay realized the deadlock via the wait-for-graph
    /// detector (best-effort: FIFO scheduling can drain some true traps).
    pub witness_realized: bool,
}

/// The engine configuration of the conservatism harness: minimal buffers
/// and exact detection, like [`sim_sweep_config`], but with a tighter cycle
/// budget — long-worm workloads either trap almost immediately or drain.
fn conservatism_sim_config() -> VcSimConfig {
    VcSimConfig {
        buffer_depth: 1,
        max_cycles: 200_000,
        ..VcSimConfig::default()
    }
}

fn fired_wait_for_graph(outcome: &VcSimOutcome) -> bool {
    matches!(outcome.detection, Some(e) if matches!(e.kind, DetectionKind::WaitForGraph))
}

/// Runs the three verifiers on one routed design.  Shared by
/// [`conservatism_sweep`] (the `fig_conservatism` artifact) and the
/// three-way agreement test harness, so the artifact invariants and the
/// test assertions are computed by the same code path.
pub fn conservatism_point_for(
    routed: &RoutedStage,
    benchmark: &str,
    switch_count: usize,
) -> ConservatismPoint {
    let report = routed.certify();
    let removal_vcs = routed
        .resolve_deadlocks(&CycleBreaking::default())
        .map(|fixed| fixed.resolution().added_vcs)
        .unwrap_or(0);

    // The runtime leg of the triad, spanned as a whole so workload
    // construction and simulator setup and teardown are attributed too.
    let (outcome, witness_attempted, witness_realized) = {
        let _span = noc_telemetry::span("conservatism", "runtime_check");
        let config = conservatism_sim_config();
        let vc_map = routed.vc_map();
        let workload = long_worm_workload(routed.routes(), config.buffer_depth);
        let outcome = VcSimulator::new(
            routed.comm(),
            routed.routes(),
            &vc_map,
            &AssignedVc,
            &config,
        )
        .run_workload(&workload);

        let (witness_attempted, witness_realized) = match report.witness() {
            Some(witness) => {
                let replay = witness_replay_workload(routed.routes(), witness, config.buffer_depth);
                let replayed = VcSimulator::new(
                    routed.comm(),
                    routed.routes(),
                    &vc_map,
                    &AssignedVc,
                    &config,
                )
                .run_workload(&replay);
                (true, fired_wait_for_graph(&replayed))
            }
            None => (false, false),
        };
        (outcome, witness_attempted, witness_realized)
    };

    ConservatismPoint {
        benchmark: benchmark.to_string(),
        switch_count,
        active_flows: routed.active_flow_count(),
        cdg_cyclic: report.cyclic_cdg,
        verdict: report.verdict.name().to_string(),
        witness_worms: report.witness().map(|w| w.worms.len()).unwrap_or(0),
        search_steps: report.search_steps,
        removal_vcs,
        runtime_deadlocked: outcome.deadlocked,
        wait_for_graph_fired: fired_wait_for_graph(&outcome),
        witness_attempted,
        witness_realized,
    }
}

/// Per-benchmark aggregate of the conservatism sweep: how often the
/// conservative CDG check cries wolf, and what the false alarms cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ConservatismBenchmark {
    /// Benchmark (or `random`) the points belong to.
    pub benchmark: String,
    /// Points with a cyclic CDG (the conservative check says "unsafe").
    pub cyclic_points: usize,
    /// Cyclic points where the trap search found a verified witness.
    pub certified_deadlockable: usize,
    /// The conservatism gap: cyclic points certified deadlock-free — the
    /// conservative check would repair them for nothing.
    pub certified_free_cyclic: usize,
    /// Cyclic points where the bounded search was inconclusive.
    pub unknown: usize,
    /// VCs Algorithm 1 burns on the certified-free cyclic points.
    pub gap_vcs: usize,
    /// Witness replays attempted / realized at runtime (best-effort).
    pub witness_attempts: usize,
    /// Replays where the wait-for-graph detector fired on the witness flows.
    pub witness_realized: usize,
    /// Every point of the group, in sweep order.
    pub points: Vec<ConservatismPoint>,
}

impl ConservatismBenchmark {
    /// Aggregates a group of points under one benchmark label.
    pub fn from_points(benchmark: &str, points: Vec<ConservatismPoint>) -> Self {
        let cyclic: Vec<_> = points.iter().filter(|p| p.cdg_cyclic).collect();
        ConservatismBenchmark {
            benchmark: benchmark.to_string(),
            cyclic_points: cyclic.len(),
            certified_deadlockable: cyclic
                .iter()
                .filter(|p| p.verdict == "certified-deadlockable")
                .count(),
            certified_free_cyclic: cyclic
                .iter()
                .filter(|p| p.verdict == "certified-free")
                .count(),
            unknown: cyclic.iter().filter(|p| p.verdict == "unknown").count(),
            gap_vcs: cyclic
                .iter()
                .filter(|p| p.verdict == "certified-free")
                .map(|p| p.removal_vcs)
                .sum(),
            witness_attempts: points.iter().filter(|p| p.witness_attempted).count(),
            witness_realized: points.iter().filter(|p| p.witness_realized).count(),
            points,
        }
    }
}

/// The full `fig_conservatism` report: one group per benchmark sweep plus
/// the seeded random population.
#[derive(Debug, Clone, PartialEq)]
pub struct ConservatismReport {
    /// Aggregated groups (`D26_media`, `D36_8`, `random`).
    pub benchmarks: Vec<ConservatismBenchmark>,
}

/// The full conservatism sweep behind the `fig_conservatism` artifact:
/// every feasible Figure 8/9 grid point plus `random_designs` seeded random
/// designs (seeds `0..random_designs`), sharded across `threads` workers.
pub fn conservatism_sweep(threads: usize, random_designs: usize) -> ConservatismReport {
    let mut grid: Vec<(Benchmark, usize)> = Vec::new();
    for count in sweeps::FIG8_SWITCH_COUNTS {
        grid.push((Benchmark::D26Media, count));
    }
    for count in sweeps::FIG9_SWITCH_COUNTS {
        grid.push((Benchmark::D36x8, count));
    }
    let bench_points =
        noc_flow::executor::parallel_map_ordered(&grid, threads, |&(benchmark, switch_count)| {
            let routed = {
                let _span = noc_telemetry::span("conservatism", "design");
                routed_benchmark(benchmark, switch_count)
            };
            conservatism_point_for(&routed, benchmark.name(), switch_count)
        });
    let (d26_points, d36_points): (Vec<_>, Vec<_>) = bench_points
        .into_iter()
        .partition(|p| p.benchmark == Benchmark::D26Media.name());

    let seeds: Vec<u64> = (0..random_designs as u64).collect();
    let random_points = noc_flow::executor::parallel_map_ordered(&seeds, threads, |&seed| {
        let routed = {
            let _span = noc_telemetry::span("conservatism", "design");
            random_routed_design(seed)
        };
        let switch_count = routed.topology().switch_count();
        conservatism_point_for(&routed, "random", switch_count)
    });

    ConservatismReport {
        benchmarks: vec![
            ConservatismBenchmark::from_points(Benchmark::D26Media.name(), d26_points),
            ConservatismBenchmark::from_points(Benchmark::D36x8.name(), d36_points),
            ConservatismBenchmark::from_points("random", random_points),
        ],
    }
}

impl ToJson for VcSweepPoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("switch_count", &self.switch_count)
            .field("resource_ordering_vcs", &self.resource_ordering_vcs)
            .field("deadlock_removal_vcs", &self.deadlock_removal_vcs)
            .field("cycles_broken", &self.cycles_broken)
            .finish();
    }
}

impl ToJson for PowerComparison {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmark", &self.benchmark)
            .field("original_power_mw", &self.original_power_mw)
            .field("removal_power_mw", &self.removal_power_mw)
            .field("ordering_power_mw", &self.ordering_power_mw)
            .field("original_area_um2", &self.original_area_um2)
            .field("removal_area_um2", &self.removal_area_um2)
            .field("ordering_area_um2", &self.ordering_area_um2)
            .field("removal_vcs", &self.removal_vcs)
            .field("ordering_vcs", &self.ordering_vcs)
            .field(
                "normalised_ordering_power",
                &self.normalised_ordering_power(),
            )
            .finish();
    }
}

impl ToJson for Summary {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("mean_vc_saving", &self.mean_vc_saving)
            .field("mean_area_saving", &self.mean_area_saving)
            .field("mean_power_saving", &self.mean_power_saving)
            .field("mean_power_overhead", &self.mean_power_overhead)
            .field("mean_area_overhead", &self.mean_area_overhead)
            .finish();
    }
}

impl ToJson for SimValidation {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmark", &self.benchmark)
            .field("original_cdg_cyclic", &self.original_cdg_cyclic)
            .field("original_deadlocked", &self.original_deadlocked)
            .field("fixed_deadlocked", &self.fixed_deadlocked)
            .field("fixed_delivered", &self.fixed_delivered)
            .field("fixed_mean_latency", &self.fixed_mean_latency)
            .field("fixed_p95_latency", &self.fixed_p95_latency)
            .finish();
    }
}

impl ToJson for SimRatePoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("mean_gap_cycles", &self.mean_gap_cycles)
            .field("stats", &self.stats)
            .field("detected_by", &self.detected_by)
            .field("recovery_events", &self.recovery_events)
            .field("packets_drained", &self.packets_drained)
            .field("flows_reconfigured", &self.flows_reconfigured)
            .finish();
    }
}

impl ToJson for SimPolicySeries {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("policy", &self.policy)
            .field("rates", &self.rates)
            .finish();
    }
}

impl ToJson for SimSweepPoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmark", &self.benchmark)
            .field("switch_count", &self.switch_count)
            .field("active_flows", &self.active_flows)
            .field("baseline_cdg_cyclic", &self.baseline_cdg_cyclic)
            .field("stress_flows", &self.stress_flows)
            .field("series", &self.series)
            .finish();
    }
}

impl ToJson for ConservatismPoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmark", &self.benchmark)
            .field("switch_count", &self.switch_count)
            .field("active_flows", &self.active_flows)
            .field("cdg_cyclic", &self.cdg_cyclic)
            .field("verdict", &self.verdict)
            .field("witness_worms", &self.witness_worms)
            .field("search_steps", &self.search_steps)
            .field("removal_vcs", &self.removal_vcs)
            .field("runtime_deadlocked", &self.runtime_deadlocked)
            .field("wait_for_graph_fired", &self.wait_for_graph_fired)
            .field("witness_attempted", &self.witness_attempted)
            .field("witness_realized", &self.witness_realized)
            .finish();
    }
}

impl ToJson for ConservatismBenchmark {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmark", &self.benchmark)
            .field("cyclic_points", &self.cyclic_points)
            .field("certified_deadlockable", &self.certified_deadlockable)
            .field("certified_free_cyclic", &self.certified_free_cyclic)
            .field("unknown", &self.unknown)
            .field("gap_vcs", &self.gap_vcs)
            .field("witness_attempts", &self.witness_attempts)
            .field("witness_realized", &self.witness_realized)
            .field("points", &self.points)
            .finish();
    }
}

impl ToJson for ConservatismReport {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmarks", &self.benchmarks)
            .finish();
    }
}

// ---------------------------------------------------------------------------
// Scaling sweep (`fig_scale`): synthetic topology families at 10²–10⁴
// switches, timing the removal loop phase by phase and charting
// per-strategy VC cost on the smaller points.
// ---------------------------------------------------------------------------

/// One synthetic topology of the scaling grid: a generator family at a
/// concrete size.  The grid spans regular 2-D/3-D meshes and tori plus the
/// fat-tree and dragonfly families from [`noc_topology::generators`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleTopology {
    /// 2-D mesh of `rows × cols` switches.
    Mesh2d {
        /// Mesh rows.
        rows: usize,
        /// Mesh columns.
        cols: usize,
    },
    /// 2-D torus of `rows × cols` switches (wraparound links make the
    /// shortest-path routes deadlock-prone — the interesting case).
    Torus2d {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
    /// 3-D mesh of `dx × dy × dz` switches.
    Mesh3d {
        /// Extent along x.
        dx: usize,
        /// Extent along y.
        dy: usize,
        /// Extent along z.
        dz: usize,
    },
    /// 3-D torus of `dx × dy × dz` switches.
    Torus3d {
        /// Extent along x.
        dx: usize,
        /// Extent along y.
        dy: usize,
        /// Extent along z.
        dz: usize,
    },
    /// Complete `arity`-ary fat tree with `levels` levels.
    FatTree {
        /// Tree levels (root inclusive).
        levels: usize,
        /// Children per switch.
        arity: usize,
    },
    /// Dragonfly of `groups` all-to-all groups of `routers` switches each.
    Dragonfly {
        /// Number of groups.
        groups: usize,
        /// Routers per group.
        routers: usize,
        /// Global ports per router.
        global_ports: usize,
    },
}

impl ScaleTopology {
    /// Generator family name used in tables and the JSON artifact.
    pub fn family(&self) -> &'static str {
        match self {
            ScaleTopology::Mesh2d { .. } => "mesh2d",
            ScaleTopology::Torus2d { .. } => "torus2d",
            ScaleTopology::Mesh3d { .. } => "mesh3d",
            ScaleTopology::Torus3d { .. } => "torus3d",
            ScaleTopology::FatTree { .. } => "fat-tree",
            ScaleTopology::Dragonfly { .. } => "dragonfly",
        }
    }

    /// Switch count of the generated topology (closed form, no generation).
    pub fn switch_count(&self) -> usize {
        match *self {
            ScaleTopology::Mesh2d { rows, cols } | ScaleTopology::Torus2d { rows, cols } => {
                rows * cols
            }
            ScaleTopology::Mesh3d { dx, dy, dz } | ScaleTopology::Torus3d { dx, dy, dz } => {
                dx * dy * dz
            }
            ScaleTopology::FatTree { levels, arity } => {
                (arity.pow(levels as u32) - 1) / (arity - 1)
            }
            ScaleTopology::Dragonfly {
                groups, routers, ..
            } => groups * routers,
        }
    }

    /// Generates the topology.
    pub fn generate(&self) -> generators::Generated {
        match *self {
            ScaleTopology::Mesh2d { rows, cols } => generators::mesh2d(rows, cols, 1.0),
            ScaleTopology::Torus2d { rows, cols } => generators::torus2d(rows, cols, 1.0),
            ScaleTopology::Mesh3d { dx, dy, dz } => generators::mesh3d(dx, dy, dz, 1.0),
            ScaleTopology::Torus3d { dx, dy, dz } => generators::torus3d(dx, dy, dz, 1.0),
            ScaleTopology::FatTree { levels, arity } => generators::fat_tree(levels, arity, 1.0),
            ScaleTopology::Dragonfly {
                groups,
                routers,
                global_ports,
            } => generators::dragonfly(groups, routers, global_ports, 1.0),
        }
    }
}

/// The default scaling grid, in ascending switch-count order: every family
/// at a small and/or ~1k-switch point, tori (whose wraparound shortest-path
/// routes are the cyclic stress case — removal cost grows superlinearly
/// with the cyclic region) up to ~2k switches, and meshes up to the
/// 10⁴-switch headline point.
pub const SCALE_GRID: [ScaleTopology; 11] = [
    ScaleTopology::Mesh2d { rows: 16, cols: 16 },
    ScaleTopology::Torus2d { rows: 16, cols: 16 },
    ScaleTopology::Dragonfly {
        groups: 17,
        routers: 16,
        global_ports: 1,
    },
    ScaleTopology::FatTree {
        levels: 5,
        arity: 4,
    },
    ScaleTopology::Torus3d {
        dx: 8,
        dy: 8,
        dz: 8,
    },
    ScaleTopology::Mesh3d {
        dx: 10,
        dy: 10,
        dz: 10,
    },
    ScaleTopology::Mesh2d { rows: 32, cols: 32 },
    ScaleTopology::Torus2d { rows: 32, cols: 32 },
    ScaleTopology::Torus2d { rows: 45, cols: 45 },
    ScaleTopology::Mesh2d { rows: 64, cols: 64 },
    ScaleTopology::Mesh2d {
        rows: 100,
        cols: 100,
    },
];

/// Seed of the synthetic uniform-random workloads of the scaling grid.
pub const SCALE_SEED: u64 = 0xD47E_2010;

/// Timing runs per grid point; the best (minimum) is reported.
pub const SCALE_RUNS: usize = 2;

/// Version of the `fig_scale` payload layout, written as its
/// `scale_schema` field.  Version 1 timed two SCC modes side by side;
/// version 2 reports one removal time and one phase breakdown per point.
pub const SCALE_SCHEMA: usize = 2;

/// Largest switch count on which the four-strategy comparison runs; beyond
/// it only cycle breaking is timed (the escape and recovery baselines
/// reroute flow-by-flow and would dominate the sweep's wall time without
/// adding information about the cycle search).
pub const SCALE_STRATEGY_SWITCH_CAP: usize = 1100;

/// A generated, routed scaling design ready for deadlock removal.
#[derive(Debug, Clone)]
pub struct ScaleDesign {
    /// The generated topology.
    pub topology: Topology,
    /// Shortest-path routes of the synthetic workload (deadlock-oblivious,
    /// so tori and irregular families produce cyclic CDGs).
    pub routes: RouteSet,
    /// Number of flows in the workload.
    pub flows: usize,
}

/// Builds the routed design of one scaling point: the generated topology,
/// one core per switch, one uniform-random flow per core (seeded with
/// [`SCALE_SEED`]), routed with the deadlock-oblivious shortest-path router.
///
/// # Panics
///
/// Panics if routing fails, which the generators rule out (every family is
/// strongly connected).
pub fn scale_design(spec: ScaleTopology) -> ScaleDesign {
    let generated = spec.generate();
    let workload = generators::uniform_traffic(&generated, 1, SCALE_SEED, 1.0);
    let routes = route_all_shortest(&generated.topology, &workload.comm, &workload.map)
        .expect("generated scaling topologies are strongly connected");
    ScaleDesign {
        topology: generated.topology,
        routes,
        flows: workload.comm.flow_count(),
    }
}

/// One strategy's outcome on a scaling point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleStrategyOutcome {
    /// Strategy name (as reported by [`DeadlockStrategy::name`]).
    pub strategy: String,
    /// Extra VCs the strategy added.
    pub added_vcs: usize,
    /// CDG cycles broken (zero for the non-breaking strategies).
    pub cycles_broken: usize,
    /// Wall time of one resolution run, in milliseconds.
    pub time_ms: f64,
}

/// One point of the scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Generator family name.
    pub family: &'static str,
    /// Switch count of the generated topology.
    pub switches: usize,
    /// Link count of the generated topology.
    pub links: usize,
    /// Channel count of the input design (one VC per link before repair).
    pub channels: usize,
    /// Flow count of the synthetic workload.
    pub flows: usize,
    /// Cycles the removal algorithm broke.
    pub cycles_broken: usize,
    /// Extra VCs the removal algorithm added.
    pub added_vcs: usize,
    /// Best-of-[`SCALE_RUNS`] removal time, in milliseconds (wall time of
    /// [`phases`](Self::phases)).
    pub removal_ms: f64,
    /// Telemetry-attributed phase breakdown of the best run.
    pub phases: RemovalTiming,
    /// Four-strategy comparison rows (empty above
    /// [`SCALE_STRATEGY_SWITCH_CAP`]).
    pub strategies: Vec<ScaleStrategyOutcome>,
}

/// The full scaling sweep: per-point rows plus aggregate totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleArtifact {
    /// One row per [`SCALE_GRID`] entry, in grid order.
    pub points: Vec<ScalePoint>,
    /// Sum of the per-point removal times, in milliseconds.
    pub total_removal_ms: f64,
}

/// Phase breakdown of one `remove_deadlocks` call, attributed from the
/// telemetry spans the removal loop emits: CDG (re)builds, cycle search
/// (net of the SCC passes nested inside it), and the Tarjan SCC passes.  The
/// timing binaries report these instead of ad-hoc stopwatch fields so the
/// CI timing guards read numbers that are *attributed* to a phase, not a
/// lump sum.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RemovalTiming {
    /// Wall time of the whole call (duration of the wrapper span), in
    /// milliseconds.
    pub wall_ms: f64,
    /// Time inside `Cdg::build`, in milliseconds.
    pub build_ms: f64,
    /// Time inside cycle searches excluding nested SCC work, in
    /// milliseconds.
    pub search_ms: f64,
    /// Time inside Tarjan SCC passes, in milliseconds.
    pub scc_ms: f64,
}

impl RemovalTiming {
    /// Wall time the three phases do not cover (cost tables, channel
    /// duplication, re-routing, delta application), in milliseconds.
    pub fn other_ms(&self) -> f64 {
        (self.wall_ms - self.build_ms - self.search_ms - self.scc_ms).max(0.0)
    }
}

impl ToJson for RemovalTiming {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("wall_ms", &self.wall_ms)
            .field("build_ms", &self.build_ms)
            .field("search_ms", &self.search_ms)
            .field("scc_ms", &self.scc_ms)
            .field("other_ms", &self.other_ms())
            .finish();
    }
}

/// Runs `f` (one removal call) under the process-wide telemetry recorder —
/// installing it if no `--trace` session already did — and attributes its
/// wall time into phases from the spans it emitted.
pub fn attributed_removal_run<T>(f: impl FnOnce() -> T) -> (RemovalTiming, T) {
    let recorder = noc_telemetry::install_recorder();
    let span = noc_telemetry::span("timing", "removal_run");
    let enter = span.enter_seq().expect("recorder is installed");
    let value = f();
    drop(span);
    // Copying the recording and scanning it grows with everything traced
    // so far, so it is a phase of its own in a `--trace` session.
    let _attribute = noc_telemetry::span("timing", "attribute_run");
    let snapshot = recorder.snapshot();
    let run = snapshot
        .spans
        .iter()
        .find(|s| s.enter_seq == enter)
        .expect("run span fits the recording ring");
    let mut timing = RemovalTiming {
        wall_ms: run.dur_us as f64 / 1e3,
        ..RemovalTiming::default()
    };
    // Timing runs serially, so "inside the run" is exactly the (enter,
    // exit) sequence window of the wrapper span.
    for event in &snapshot.spans {
        if event.enter_seq <= enter || event.exit_seq >= run.exit_seq {
            continue;
        }
        let ms = event.dur_us as f64 / 1e3;
        match (event.cat, event.name.as_str()) {
            ("removal", "cdg_build") => timing.build_ms += ms,
            ("removal", "cycle_search") => timing.search_ms += ms,
            // SCC spans always nest inside a `cycle_search` span; move
            // their share over so the two phases stay disjoint.
            ("scc", _) => {
                timing.scc_ms += ms;
                timing.search_ms -= ms;
            }
            _ => {}
        }
    }
    timing.search_ms = timing.search_ms.max(0.0);
    (timing, value)
}

/// Times one prepared scaling design: best-of-[`SCALE_RUNS`] cycle
/// breaking (by wall time) and, on points at or below
/// [`SCALE_STRATEGY_SWITCH_CAP`] switches, the four-strategy comparison.
///
/// # Panics
///
/// Panics if a strategy fails.
pub fn scale_point(spec: ScaleTopology, design: &ScaleDesign) -> ScalePoint {
    let mut best: Option<RemovalTiming> = None;
    let mut report = None;
    for _ in 0..SCALE_RUNS {
        let mut topology = design.topology.clone();
        let mut routes = design.routes.clone();
        let (timing, r) = attributed_removal_run(|| {
            noc_deadlock::removal::remove_deadlocks(
                &mut topology,
                &mut routes,
                &RemovalConfig::default(),
            )
            .expect("removal succeeds on the scaling grid")
        });
        if best.is_none_or(|b| timing.wall_ms < b.wall_ms) {
            best = Some(timing);
        }
        report = Some(r);
    }
    let phases = best.expect("at least one timing run");
    let report = report.expect("at least one timing run");

    let mut strategies = Vec::new();
    if spec.switch_count() <= SCALE_STRATEGY_SWITCH_CAP {
        let cycle_breaking = CycleBreaking::default();
        let ordering = ResourceOrdering;
        let escape = EscapeChannel::default();
        let recovery = RecoveryReconfig::default();
        let all: [&dyn DeadlockStrategy; 4] = [&cycle_breaking, &ordering, &escape, &recovery];
        for strategy in all {
            let start = std::time::Instant::now();
            let (_, _, resolution) = strategy
                .resolve_cloned(&design.topology, &design.routes)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} failed on {}/{}: {e}",
                        strategy.name(),
                        spec.family(),
                        spec.switch_count()
                    )
                });
            strategies.push(ScaleStrategyOutcome {
                strategy: resolution.strategy,
                added_vcs: resolution.added_vcs,
                cycles_broken: resolution.cycles_broken,
                time_ms: start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }

    ScalePoint {
        family: spec.family(),
        switches: spec.switch_count(),
        links: design.topology.link_count(),
        channels: design.topology.channel_count(),
        flows: design.flows,
        cycles_broken: report.cycles_broken,
        added_vcs: report.added_vcs,
        removal_ms: phases.wall_ms,
        phases,
        strategies,
    }
}

/// Runs the whole scaling sweep: design preparation (generation + routing)
/// shards across `threads` worker threads (`0` auto-sizes to the machine's
/// available parallelism), then each point is timed serially so the numbers
/// are not polluted by co-running workers.  `observer` fires once per
/// completed point, in grid order, so callers can stream progress.
pub fn scale_sweep(threads: usize, mut observer: impl FnMut(&ScalePoint)) -> ScaleArtifact {
    let designs =
        noc_flow::executor::parallel_map_ordered(&SCALE_GRID, threads, |&spec| scale_design(spec));
    let points: Vec<ScalePoint> = SCALE_GRID
        .iter()
        .zip(&designs)
        .map(|(&spec, design)| {
            let point = scale_point(spec, design);
            observer(&point);
            point
        })
        .collect();
    let total_removal_ms = points.iter().map(|p| p.removal_ms).sum();
    ScaleArtifact {
        points,
        total_removal_ms,
    }
}

impl ToJson for ScaleStrategyOutcome {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("strategy", &self.strategy)
            .field("added_vcs", &self.added_vcs)
            .field("cycles_broken", &self.cycles_broken)
            .field("time_ms", &self.time_ms)
            .finish();
    }
}

impl ToJson for ScalePoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("family", &self.family)
            .field("switches", &self.switches)
            .field("links", &self.links)
            .field("channels", &self.channels)
            .field("flows", &self.flows)
            .field("cycles_broken", &self.cycles_broken)
            .field("added_vcs", &self.added_vcs)
            .field("removal_ms", &self.removal_ms)
            .field("phases", &self.phases)
            .field("strategies", &self.strategies)
            .finish();
    }
}

impl ToJson for ScaleArtifact {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("scale_schema", &SCALE_SCHEMA)
            .field("runs_per_point", &SCALE_RUNS)
            .field("strategy_switch_cap", &SCALE_STRATEGY_SWITCH_CAP)
            .field("total_removal_ms", &self.total_removal_ms)
            .field("points", &self.points)
            .finish();
    }
}

/// The shared figure-binary command line and artifact writer.
///
/// Every figure binary parses the same flags through
/// [`FigureCli`](artifact::FigureCli) —
/// one flag table, one generated usage string, one typed error enum —
/// and writes its artifact through the unified
/// [`Artifact`](noc_flow::json::Artifact) envelope (atomic temp-file +
/// rename, self-validated).  The envelope version lives in
/// `noc_flow::json` as the single crate-level constant; it is
/// re-exported here for convenience.
pub mod artifact {

    use noc_flow::json::{Artifact, ToJson};
    use noc_flow::trace::TraceArtifact;
    use std::fmt;
    use std::path::{Path, PathBuf};

    pub use noc_flow::json::SCHEMA_VERSION;

    /// The flag table the usage text and the parser are both generated
    /// from: `(flag, value placeholder, help)`.
    const FLAGS: [(&str, &str, &str); 5] = [
        ("--json", "<path>", "write the artifact to this exact path"),
        (
            "--threads",
            "<n>",
            "executor worker count (0 or unset: auto-size to the machine)",
        ),
        (
            "--resume",
            "<dir>",
            "run through the resumable job store in this directory",
        ),
        (
            "--out-dir",
            "<dir>",
            "write the artifact to <dir>/<figure>.json (unless --json is given)",
        ),
        (
            "--trace",
            "<path>",
            "record telemetry and write a Chrome-trace JSON to this path",
        ),
    ];

    /// The usage footer, kept next to the flag table it qualifies: flags
    /// compose in any order, and `--resume` does not change where the
    /// artifact lands.
    const USAGE_NOTE: &str = "flags compose in any order; --resume only changes how the sweep \
runs, the artifact still lands at --json (or --out-dir/<figure>.json)";

    /// The command-line options every figure binary accepts.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FigureCli {
        /// The figure name (artifact envelope, default filenames, errors).
        pub figure: String,
        /// `--json <path>`: write the artifact to this exact path.
        pub json: Option<PathBuf>,
        /// `--threads <n>`: executor worker count (`0`, the default,
        /// auto-sizes to the machine's available parallelism).
        pub threads: usize,
        /// `--resume <dir>`: route the sweep through the resumable job
        /// store rooted at this directory.
        pub resume: Option<PathBuf>,
        /// `--out-dir <dir>`: default artifact location
        /// (`<dir>/<figure>.json`) when `--json` is not given.
        pub out_dir: Option<PathBuf>,
        /// `--trace <path>`: install the telemetry recorder for the run and
        /// write a Chrome-trace JSON (also a schema-versioned artifact) to
        /// this path on exit.
        pub trace: Option<PathBuf>,
    }

    /// Why a figure command line was rejected.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum CliError {
        /// A flag that needs a value was last on the line.
        MissingValue {
            /// The flag, e.g. `--json`.
            flag: &'static str,
        },
        /// A flag's value did not parse.
        InvalidValue {
            /// The flag, e.g. `--threads`.
            flag: &'static str,
            /// What was passed.
            value: String,
        },
        /// An argument that matches no known flag.
        UnknownArgument(String),
    }

    impl fmt::Display for CliError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                CliError::MissingValue { flag } => write!(f, "{flag} requires a value"),
                CliError::InvalidValue { flag, value } => {
                    write!(f, "{flag} expects a number, got {value:?}")
                }
                CliError::UnknownArgument(arg) => write!(f, "unknown argument {arg:?}"),
            }
        }
    }

    impl std::error::Error for CliError {}

    impl FigureCli {
        /// Parses the process arguments, printing the error plus the
        /// generated usage text and exiting with status 2 on a bad line.
        pub fn parse(figure: &str) -> Self {
            match Self::from_iter(figure, std::env::args().skip(1)) {
                Ok(cli) => cli,
                Err(error) => {
                    eprintln!("{figure}: {error}");
                    eprintln!("{}", Self::usage(figure));
                    std::process::exit(2);
                }
            }
        }

        /// Parses an explicit argument list (both `--flag value` and
        /// `--flag=value` spellings), returning a typed error instead of
        /// exiting.
        pub fn from_iter(
            figure: &str,
            args: impl IntoIterator<Item = String>,
        ) -> Result<Self, CliError> {
            let mut cli = FigureCli {
                figure: figure.to_string(),
                ..FigureCli::default()
            };
            let mut args = args.into_iter();
            while let Some(arg) = args.next() {
                let (flag, value) = match arg.split_once('=') {
                    Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                    None => (arg, None),
                };
                let known = FLAGS.iter().find(|(name, _, _)| *name == flag);
                let Some(&(name, _, _)) = known else {
                    return Err(CliError::UnknownArgument(flag));
                };
                let value = match value.or_else(|| args.next()) {
                    Some(value) => value,
                    None => return Err(CliError::MissingValue { flag: name }),
                };
                match name {
                    "--json" => cli.json = Some(PathBuf::from(value)),
                    "--resume" => cli.resume = Some(PathBuf::from(value)),
                    "--out-dir" => cli.out_dir = Some(PathBuf::from(value)),
                    "--trace" => cli.trace = Some(PathBuf::from(value)),
                    "--threads" => {
                        cli.threads = value
                            .parse()
                            .map_err(|_| CliError::InvalidValue { flag: name, value })?;
                    }
                    _ => unreachable!("every table entry is matched"),
                }
            }
            Ok(cli)
        }

        /// The usage text, generated from the flag table — the same table
        /// the parser matches against, so the two cannot drift.
        ///
        /// # Example
        ///
        /// ```
        /// let usage = noc_bench::artifact::FigureCli::usage("fig8_d26_media");
        /// // Every flag the parser accepts is documented...
        /// for flag in ["--json", "--threads", "--resume", "--out-dir", "--trace"] {
        ///     assert!(usage.contains(flag), "usage must mention {flag}");
        /// }
        /// // ...including how --resume composes with the artifact flags.
        /// assert!(usage.contains("--resume only changes how the sweep runs"));
        /// ```
        pub fn usage(figure: &str) -> String {
            let mut out = format!("usage: {figure}");
            for (flag, placeholder, _) in FLAGS {
                out.push_str(&format!(" [{flag} {placeholder}]"));
            }
            for (flag, _, help) in FLAGS {
                out.push_str(&format!("\n  {flag:<10} {help}"));
            }
            out.push_str(&format!("\nnote: {USAGE_NOTE}"));
            out
        }

        /// Where the artifact goes: `--json` verbatim, else
        /// `<out-dir>/<figure>.json`, else nowhere.
        pub fn artifact_path(&self) -> Option<PathBuf> {
            self.json.clone().or_else(|| {
                self.out_dir
                    .as_ref()
                    .map(|dir| dir.join(format!("{}.json", self.figure)))
            })
        }

        /// Writes `data` under the versioned envelope to
        /// [`FigureCli::artifact_path`] (no-op when no path was requested),
        /// atomically.  Exits with status 1 on a write failure — the
        /// binary has nothing useful left to do.
        pub fn write_artifact(&self, data: &dyn ToJson) {
            if let Some(path) = self.artifact_path() {
                write_json_artifact(&path, &self.figure, data);
            }
        }

        /// Arms telemetry for the run when `--trace` was given: installs
        /// the recording collector, labels the calling thread `main`, and
        /// opens the root `figure` span.  The returned guard closes the
        /// span and writes the Chrome-trace file when it drops — create it
        /// right after [`parse`](Self::parse) and keep it alive for the
        /// whole of `main`.  Without `--trace` this is a no-op guard and
        /// the collector stays disabled.
        pub fn trace_session(&self) -> TraceSession {
            let Some(path) = &self.trace else {
                return TraceSession {
                    path: None,
                    figure: self.figure.clone(),
                    root: None,
                };
            };
            noc_telemetry::install_recorder();
            noc_telemetry::set_thread_label("main");
            TraceSession {
                path: Some(path.clone()),
                figure: self.figure.clone(),
                root: Some(noc_telemetry::span("figure", self.figure.clone())),
            }
        }
    }

    /// RAII guard of a `--trace` run; see [`FigureCli::trace_session`].
    pub struct TraceSession {
        path: Option<PathBuf>,
        figure: String,
        root: Option<noc_telemetry::SpanGuard>,
    }

    impl Drop for TraceSession {
        fn drop(&mut self) {
            let Some(path) = self.path.take() else {
                return;
            };
            // Close the root span before snapshotting so the trace file
            // records it (and attribution has a wall-time window).
            drop(self.root.take());
            let Some(recorder) = noc_telemetry::uninstall_recorder() else {
                return;
            };
            let snapshot = recorder.snapshot();
            if let Err(error) = TraceArtifact::new(&self.figure, &snapshot).write(&path) {
                eprintln!("{}: {error}", self.figure);
                std::process::exit(1);
            }
            eprintln!("wrote trace {}", path.display());
        }
    }

    /// Renders a figure artifact under the versioned envelope and commits
    /// it to `path` atomically (temp file + rename), re-parsing the output
    /// first so a serializer bug can never publish an unreadable artifact.
    pub fn write_json_artifact(path: &Path, figure: &str, data: &dyn ToJson) {
        let mut span = noc_telemetry::span("artifact", "write");
        span.arg("figure", figure);
        if let Err(error) = Artifact::new(figure, data).write(path) {
            eprintln!("{figure}: {error}");
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn parse(args: &[&str]) -> Result<FigureCli, CliError> {
            FigureCli::from_iter("fig", args.iter().map(|s| s.to_string()))
        }

        #[test]
        fn parses_all_flags_in_both_spellings() {
            let empty = parse(&[]).unwrap();
            assert_eq!(empty.figure, "fig");
            assert_eq!(empty.json, None);
            assert_eq!(empty.threads, 0);

            let a = parse(&["--json", "out.json", "--threads", "4"]).unwrap();
            assert_eq!(a.json.as_deref(), Some(Path::new("out.json")));
            assert_eq!(a.threads, 4);

            let b = parse(&["--threads=2", "--json=x.json", "--resume=st", "--out-dir=o"]).unwrap();
            assert_eq!(b.threads, 2);
            assert_eq!(b.json.as_deref(), Some(Path::new("x.json")));
            assert_eq!(b.resume.as_deref(), Some(Path::new("st")));
            assert_eq!(b.out_dir.as_deref(), Some(Path::new("o")));
        }

        #[test]
        fn rejects_bad_lines_with_typed_errors() {
            assert_eq!(
                parse(&["--threads", "lots"]),
                Err(CliError::InvalidValue {
                    flag: "--threads",
                    value: "lots".to_string()
                })
            );
            assert_eq!(
                parse(&["--frobnicate"]),
                Err(CliError::UnknownArgument("--frobnicate".to_string()))
            );
            assert_eq!(
                parse(&["--json"]),
                Err(CliError::MissingValue { flag: "--json" })
            );
        }

        #[test]
        fn artifact_path_prefers_json_over_out_dir() {
            let both = parse(&["--json=a.json", "--out-dir=d"]).unwrap();
            assert_eq!(both.artifact_path().as_deref(), Some(Path::new("a.json")));
            let dir_only = parse(&["--out-dir=d"]).unwrap();
            assert_eq!(
                dir_only.artifact_path().as_deref(),
                Some(Path::new("d/fig.json"))
            );
            assert_eq!(parse(&[]).unwrap().artifact_path(), None);
        }

        #[test]
        fn usage_lists_every_flag() {
            let usage = FigureCli::usage("fig");
            for (flag, _, _) in FLAGS {
                assert!(usage.contains(flag), "usage must mention {flag}");
            }
        }
    }
}

pub mod jobs;

/// The switch-count ranges used by the paper for its two sweep figures.
pub mod sweeps {
    /// Figure 8 sweeps D26_media from 5 to 25 switches.
    pub const FIG8_SWITCH_COUNTS: std::ops::RangeInclusive<usize> = 5..=25;
    /// Figure 9 sweeps D36_8 from 10 to 35 switches.
    pub const FIG9_SWITCH_COUNTS: std::ops::RangeInclusive<usize> = 10..=35;
    /// Figure 10 uses 14-switch topologies for every benchmark.
    pub const FIG10_SWITCHES: usize = 14;
    /// The dynamic validation simulates every benchmark at 10 switches.
    pub const SIM_SWITCHES: usize = 10;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_reproduce_the_paper_shape() {
        // A small slice of the Figure 8 sweep: the removal algorithm never
        // needs more VCs than resource ordering, and for D26_media it mostly
        // needs none at all (the paper's headline observation).
        let points = vc_overhead_sweep(Benchmark::D26Media, [6, 10, 14]);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.deadlock_removal_vcs <= p.resource_ordering_vcs);
        }
        let zero_overhead = points
            .iter()
            .filter(|p| p.deadlock_removal_vcs == 0)
            .count();
        assert!(
            zero_overhead >= 2,
            "most D26_media topologies are already safe"
        );
    }

    #[test]
    fn fault_point_shape_holds() {
        let point = fault_strategy_point(Benchmark::D26Media, 8);
        assert_eq!(point.runs.len(), FAULT_STRATEGIES.len());
        assert!(point.faults_injected >= 1);
        for (run, &name) in point.runs.iter().zip(FAULT_STRATEGIES.iter()) {
            // fault_strategy_point already asserts the hard guarantees
            // (acyclic commits, no deadlock, delivery when connected);
            // here we pin the row shape the artifact depends on.
            assert_eq!(run.strategy, name);
            assert_eq!(run.stats.faults_injected, point.faults_injected);
            assert_eq!(run.stats.connected, point.connected);
            assert!(run.stats.epochs_committed >= 1);
        }
    }

    #[test]
    fn infeasible_switch_counts_are_skipped() {
        let points = vc_overhead_sweep(Benchmark::D26Media, [0, 10, 100]);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].switch_count, 10);
    }

    #[test]
    fn figure_10_shape_holds_for_a_sample_benchmark() {
        let comparison = power_comparison(Benchmark::D36x8, 10);
        // Resource ordering must cost at least as much power and area.
        assert!(comparison.ordering_power_mw >= comparison.removal_power_mw);
        assert!(comparison.ordering_area_um2 >= comparison.removal_area_um2);
        assert!(comparison.normalised_ordering_power() >= 1.0);
        // The removal overhead versus the original design stays small.
        assert!(comparison.removal_power_overhead() < 0.05);
        assert!(comparison.removal_area_overhead() < 0.10);
    }

    #[test]
    fn summary_aggregates_savings() {
        let comparisons: Vec<PowerComparison> = [Benchmark::D36x8, Benchmark::D36x6]
            .into_iter()
            .map(|b| power_comparison(b, 10))
            .collect();
        let s = summary(&comparisons);
        assert!(s.mean_vc_saving > 0.0 && s.mean_vc_saving <= 1.0);
        assert!(s.mean_power_overhead < 0.05);
    }

    #[test]
    fn simulation_validation_shows_the_fix_working() {
        let v = simulate_before_after(Benchmark::D38Tvopd, 10);
        assert!(!v.fixed_deadlocked);
        assert!(v.fixed_delivered > 0);
        assert!(v.fixed_p95_latency as f64 >= v.fixed_mean_latency.floor());
    }

    #[test]
    fn cycle_stress_workload_prepends_the_stress_packets() {
        let comm = Benchmark::D36x8.comm_graph();
        let stress: Vec<FlowId> = (0..3).map(FlowId::from_index).collect();
        let traffic = TrafficConfig {
            packets_per_flow: 2,
            packet_length: 4,
            ..TrafficConfig::default()
        };
        let workload = cycle_stress_workload(&comm, &traffic, &stress, 5, 8);
        let flow_count = comm.flows().count();
        assert_eq!(workload.len(), 3 * 5 + flow_count * 2);
        // Ids are unique and the list is sorted by creation time.
        let mut ids: Vec<usize> = workload.packets.iter().map(|p| p.id.0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), workload.len());
        assert!(workload
            .packets
            .windows(2)
            .all(|w| w[0].created_at <= w[1].created_at));
        // The stress packets are long worms on the stress flows at cycle 0.
        let stressed: Vec<_> = workload.packets.iter().filter(|p| p.length == 8).collect();
        assert_eq!(stressed.len(), 15);
        assert!(stressed
            .iter()
            .all(|p| p.created_at == 0 && stress.contains(&p.flow)));
    }

    #[test]
    fn sim_strategy_point_pins_the_headline_acceptance() {
        // The smallest Figure 9 grid point where the dynamic trap is
        // realisable: the unsafe single-VC baseline deadlocks (established
        // by the exact wait-for-graph detector), every deadlock strategy
        // delivers 100 % of the same workloads, and the DBR drain fires
        // wherever the baseline died.
        let point = sim_strategy_point(Benchmark::D36x8, 18);
        assert!(point.baseline_cdg_cyclic);
        assert!(point.stress_flows > 0);
        assert_eq!(point.series.len(), SIM_STRATEGY_POLICIES.len());

        let unsafe_series = point.series("unsafe-single-vc").unwrap();
        assert!(
            unsafe_series.rates.iter().any(|r| r.stats.deadlocked),
            "the unsafe baseline must deadlock at some swept injection rate"
        );
        for rate in &unsafe_series.rates {
            if rate.stats.deadlocked {
                assert_eq!(rate.detected_by.as_deref(), Some("wait-for-graph"));
            }
        }
        for series in &point.series {
            if series.policy == "unsafe-single-vc" {
                continue;
            }
            for rate in &series.rates {
                assert!(!rate.stats.deadlocked, "policy {}", series.policy);
                assert_eq!(
                    rate.stats.delivered, rate.stats.injected,
                    "policy {}",
                    series.policy
                );
            }
        }
        let recovery = point.series("recovery-reconfig").unwrap();
        for (unsafe_rate, recovery_rate) in unsafe_series.rates.iter().zip(&recovery.rates) {
            if unsafe_rate.stats.deadlocked {
                assert!(recovery_rate.recovery_events >= 1);
                assert!(recovery_rate.flows_reconfigured >= 1);
            }
        }
    }
}
