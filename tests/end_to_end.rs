//! Repository-level integration tests: exercise the whole stack
//! (benchmark → synthesis → routing → deadlock removal → power → simulation)
//! through the umbrella crate's [`noc_suite::flow`] pipeline API, the way
//! the examples and the experiment harness do.

use noc_suite::flow::{
    CycleBreaking, DeadlockFreeStage, DeadlockStrategy, DesignFlow, FlowSweep, ResourceOrdering,
    ShortestPathRouter,
};
use noc_suite::power::TechParams;
use noc_suite::sim::{TrafficConfig, VcSimConfig};
use noc_suite::synth::SynthesisConfig;
use noc_suite::topology::benchmarks::Benchmark;

/// The full Figure-8-style pipeline for one benchmark and one switch count.
/// Every stage transition auto-runs the `validate_*`/`verify` checks this
/// test used to call by hand.
fn pipeline(benchmark: Benchmark, switches: usize) {
    let routed = DesignFlow::from_benchmark(benchmark)
        .synthesize(SynthesisConfig::with_switches(switches))
        .unwrap()
        .route(&ShortestPathRouter::default())
        .unwrap();

    let baseline = routed.resource_ordering_overhead();

    // The paper's algorithm: deadlock-free and never worse than the baseline.
    let fixed = routed.resolve_deadlocks(&CycleBreaking::default()).unwrap();
    assert!(fixed.resolution().added_vcs <= baseline);

    // The power model sees the extra buffers of the baseline.
    let ordered = routed.resolve_deadlocks(&ResourceOrdering).unwrap();
    let params = TechParams::default();
    let removal_power = fixed.power(params.clone()).total_power_mw;
    let ordering_power = ordered.power(params).total_power_mw;
    assert!(ordering_power >= removal_power);
}

#[test]
fn d26_media_full_pipeline() {
    pipeline(Benchmark::D26Media, 12);
}

#[test]
fn d36_8_full_pipeline() {
    pipeline(Benchmark::D36x8, 14);
}

#[test]
fn d35_bott_full_pipeline() {
    pipeline(Benchmark::D35Bott, 9);
}

/// Swapping the deadlock scheme really is a one-line change: the same flow,
/// parameterised only by the strategy, works for both implementations.
#[test]
fn strategies_are_one_line_swaps() {
    fn fix(strategy: &dyn DeadlockStrategy) -> DeadlockFreeStage {
        DesignFlow::from_benchmark(Benchmark::D36x8)
            .synthesize(SynthesisConfig::with_switches(10))
            .unwrap()
            .route(&ShortestPathRouter::default())
            .unwrap()
            .resolve_deadlocks(strategy) // <- the one line that changes
            .unwrap()
    }

    let removal = fix(&CycleBreaking::default());
    let ordering = fix(&ResourceOrdering);
    assert_eq!(removal.resolution().strategy, "cycle-breaking");
    assert_eq!(ordering.resolution().strategy, "resource-ordering");
    assert!(removal.resolution().added_vcs <= ordering.resolution().added_vcs);
}

#[test]
fn repaired_designs_complete_a_simulated_workload() {
    let simulated = DesignFlow::from_benchmark(Benchmark::D36x6)
        .synthesize(SynthesisConfig::with_switches(10))
        .unwrap()
        .route_default()
        .unwrap()
        .resolve_deadlocks(&CycleBreaking::default())
        .unwrap()
        .simulate_with(
            &VcSimConfig {
                buffer_depth: 2,
                idle_timeout: 1_000,
                max_cycles: 500_000,
                ..VcSimConfig::default()
            },
            &TrafficConfig {
                packets_per_flow: 3,
                packet_length: 4,
                mean_gap_cycles: 4,
                seed: 5,
                ..TrafficConfig::default()
            },
        )
        .unwrap();
    let outcome = simulated.outcome();
    assert!(!outcome.deadlocked);
    assert_eq!(
        outcome.stats.delivered_packets,
        outcome.stats.injected_packets
    );
}

/// The paper's Figure 8 and Figure 9 grids, through the parallel + streaming
/// sweep API the figure binaries use: the sharded executor must produce the
/// exact same point sequence as the serial driver, while streaming every
/// completion to the observer.
#[test]
fn figure_grids_are_identical_serial_and_parallel() {
    let removal = CycleBreaking::default();
    let ordering = ResourceOrdering;
    let strategies: &[&dyn DeadlockStrategy] = &[&removal, &ordering];
    for (benchmark, counts) in [
        (Benchmark::D26Media, 5..=25), // Figure 8
        (Benchmark::D36x8, 10..=35),   // Figure 9
    ] {
        let sweep = FlowSweep::new()
            .benchmark(benchmark)
            .switch_counts(counts)
            .power_estimates(false);
        let serial = sweep.run(strategies).unwrap();
        let mut streamed = 0;
        let parallel = sweep
            .clone()
            .worker_threads(2)
            .run_streaming(strategies, |_| streamed += 1)
            .unwrap();
        assert_eq!(serial, parallel, "{benchmark}: parallel must match serial");
        assert_eq!(streamed, serial.len(), "{benchmark}: every point streamed");
    }
}

#[test]
fn umbrella_reexports_are_usable() {
    // Smoke-test that every re-exported module is reachable through the
    // umbrella crate (what the examples rely on).
    let g: noc_suite::graph::DiGraph<(), ()> = noc_suite::graph::DiGraph::new();
    assert_eq!(g.node_count(), 0);
    assert_eq!(Benchmark::ALL.len(), 6);
    let params = TechParams::default();
    assert!(params.buffer_bits() > 0);
    // The flow API is reachable as noc_suite::flow.
    let flow = DesignFlow::from_benchmark(Benchmark::D26Media);
    assert_eq!(flow.label(), "D26_media");
}
