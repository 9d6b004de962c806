//! Timing comparison of the two CDG maintenance modes of the removal loop:
//! per-iteration full rebuild (the reference) versus incremental delta
//! maintenance (the default).  Both modes share one smallest-cycle search
//! and differ only in how the CDG is kept up to date between breaks.
//!
//! Runs the Figure 8 (D26_media) and Figure 9 (D36_8) sweep grids, times
//! `remove_deadlocks` in both modes on the same routed design, and asserts
//! the two produce the same outcome report on every point before trusting
//! either number.  Pass `--threads <n>` to shard the untimed
//! synthesis/routing preparation (timing itself always runs serially, one
//! mode at a time, best of three) and `--json <path>` to write the rows
//! plus aggregate speedups as a JSON artifact.

use noc_bench::artifact::FigureCli;
use noc_bench::{attributed_removal_run, routed_benchmark, sweeps, RemovalTiming};
use noc_deadlock::removal::{remove_deadlocks, CdgMode, RemovalConfig};
use noc_flow::json::{ObjectWriter, ToJson};
use noc_routing::RouteSet;
use noc_topology::benchmarks::Benchmark;
use noc_topology::Topology;

/// Timing runs per mode per grid point; the best (minimum) is reported.
const RUNS: usize = 3;

/// One timed grid point.
struct TimingPoint {
    benchmark: Benchmark,
    switch_count: usize,
    cycles_broken: usize,
    deps_removed: usize,
    deps_added: usize,
    rebuild: RemovalTiming,
    incremental: RemovalTiming,
}

impl TimingPoint {
    fn speedup(&self) -> f64 {
        if self.incremental.wall_ms > 0.0 {
            self.rebuild.wall_ms / self.incremental.wall_ms
        } else {
            1.0
        }
    }
}

impl ToJson for TimingPoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmark", &self.benchmark.name())
            .field("switch_count", &self.switch_count)
            .field("cycles_broken", &self.cycles_broken)
            .field("deps_removed", &self.deps_removed)
            .field("deps_added", &self.deps_added)
            .field("rebuild_ms", &self.rebuild.wall_ms)
            .field("incremental_ms", &self.incremental.wall_ms)
            .field("rebuild_phases", &self.rebuild)
            .field("incremental_phases", &self.incremental)
            .field("speedup", &self.speedup())
            .finish();
    }
}

/// The artifact payload: per-point rows plus aggregates.
struct TimingArtifact {
    points: Vec<TimingPoint>,
    total_rebuild_ms: f64,
    total_incremental_ms: f64,
}

impl ToJson for TimingArtifact {
    fn write_json(&self, out: &mut String) {
        let overall = if self.total_incremental_ms > 0.0 {
            self.total_rebuild_ms / self.total_incremental_ms
        } else {
            1.0
        };
        ObjectWriter::new(out)
            .field("runs_per_mode", &RUNS)
            .field("total_rebuild_ms", &self.total_rebuild_ms)
            .field("total_incremental_ms", &self.total_incremental_ms)
            .field("overall_speedup", &overall)
            .field("points", &self.points)
            .finish();
    }
}

/// Best-of-[`RUNS`] timing of one removal mode (by wall time), attributed
/// to phases from telemetry spans, plus the report of the last run.
fn time_mode(
    topology: &Topology,
    routes: &RouteSet,
    cdg_mode: CdgMode,
) -> (RemovalTiming, noc_deadlock::RemovalReport) {
    let config = RemovalConfig {
        cdg_mode,
        ..RemovalConfig::default()
    };
    let mut best: Option<RemovalTiming> = None;
    let mut report = None;
    for _ in 0..RUNS {
        let (mut topo, mut routes) = {
            let _span = noc_telemetry::span("timing", "clone_design");
            (topology.clone(), routes.clone())
        };
        let (timing, r) = attributed_removal_run(|| {
            remove_deadlocks(&mut topo, &mut routes, &config).expect("removal succeeds")
        });
        if best.is_none_or(|b| timing.wall_ms < b.wall_ms) {
            best = Some(timing);
        }
        report = Some(r);
    }
    (
        best.expect("at least one run"),
        report.expect("at least one run"),
    )
}

fn main() {
    let args = FigureCli::parse("cdg_incremental");
    let _trace = args.trace_session();
    if noc_bench::jobs::run_resumed(&args) {
        return;
    }
    let grid: Vec<(Benchmark, usize)> = sweeps::FIG8_SWITCH_COUNTS
        .map(|s| (Benchmark::D26Media, s))
        .chain(sweeps::FIG9_SWITCH_COUNTS.map(|s| (Benchmark::D36x8, s)))
        .collect();

    // Untimed preparation: synthesize and route every grid point, sharded
    // across worker threads when --threads asks for it.
    let designs: Vec<(Topology, RouteSet)> =
        noc_flow::executor::parallel_map_ordered(&grid, args.threads, |&(benchmark, switches)| {
            let routed = routed_benchmark(benchmark, switches);
            (routed.topology().clone(), routed.routes().clone())
        });

    println!("# CDG maintenance: full rebuild vs. incremental (best of {RUNS} runs per mode)");
    println!(
        "{:>12} {:>10} {:>8} {:>12} {:>10} {:>14} {:>18} {:>9}",
        "benchmark",
        "switches",
        "breaks",
        "deps_rm",
        "deps_add",
        "rebuild_ms",
        "incremental_ms",
        "speedup"
    );
    let mut points = Vec::with_capacity(grid.len());
    for ((benchmark, switches), (topology, routes)) in grid.iter().zip(designs) {
        let (rebuild, rebuild_report) = time_mode(&topology, &routes, CdgMode::FullRebuild);
        let (incremental, incremental_report) = time_mode(&topology, &routes, CdgMode::Incremental);
        {
            let _span = noc_telemetry::span("timing", "same_outcome");
            assert!(
                incremental_report.same_outcome(&rebuild_report),
                "{benchmark}/{switches}: modes disagree — timing numbers would be meaningless"
            );
        }
        let point = TimingPoint {
            benchmark: *benchmark,
            switch_count: *switches,
            cycles_broken: incremental_report.cycles_broken,
            deps_removed: incremental_report.cdg.deps_removed(),
            deps_added: incremental_report.cdg.deps_added(),
            rebuild,
            incremental,
        };
        println!(
            "{:>12} {:>10} {:>8} {:>12} {:>10} {:>14.3} {:>18.3} {:>8.2}x",
            point.benchmark.name(),
            point.switch_count,
            point.cycles_broken,
            point.deps_removed,
            point.deps_added,
            point.rebuild.wall_ms,
            point.incremental.wall_ms,
            point.speedup()
        );
        println!(
            "{:>12}   phases: rebuild build/search/scc/other = \
             {:.3}/{:.3}/{:.3}/{:.3} ms, incremental = {:.3}/{:.3}/{:.3}/{:.3} ms",
            "",
            point.rebuild.build_ms,
            point.rebuild.search_ms,
            point.rebuild.scc_ms,
            point.rebuild.other_ms(),
            point.incremental.build_ms,
            point.incremental.search_ms,
            point.incremental.scc_ms,
            point.incremental.other_ms()
        );
        points.push(point);
    }

    let total_rebuild_ms: f64 = points.iter().map(|p| p.rebuild.wall_ms).sum();
    let total_incremental_ms: f64 = points.iter().map(|p| p.incremental.wall_ms).sum();
    println!();
    println!(
        "totals: rebuild {total_rebuild_ms:.1} ms, incremental {total_incremental_ms:.1} ms, \
         overall speedup {:.2}x",
        total_rebuild_ms / total_incremental_ms.max(1e-9)
    );

    let data = TimingArtifact {
        points,
        total_rebuild_ms,
        total_incremental_ms,
    };
    args.write_artifact(&data);
}
