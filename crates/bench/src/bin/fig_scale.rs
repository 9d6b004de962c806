//! Scaling sweep of the removal engine over synthetic topology families:
//! 2-D/3-D meshes and tori, fat trees and dragonflies from 256 up to 10⁴
//! switches, each with a seeded uniform-random workload routed by the
//! deadlock-oblivious shortest-path router.
//!
//! Every point times `remove_deadlocks` (best of `SCALE_RUNS` runs) with
//! a telemetry-attributed phase breakdown: CDG build, smallest-cycle
//! search, Tarjan SCC passes and the rest.  Points at or below the strategy
//! cap additionally chart the four-strategy VC-cost comparison.  Pass
//! `--threads <n>` to shard the untimed generation/routing preparation
//! (`0`, the default, auto-sizes to the machine's available parallelism;
//! timing always runs serially) and `--json <path>` to write the rows plus
//! the summed removal time as a JSON artifact.

use noc_bench::artifact::FigureCli;
use noc_bench::{scale_sweep, SCALE_RUNS, SCALE_STRATEGY_SWITCH_CAP};

fn main() {
    let args = FigureCli::parse("fig_scale");
    let _trace = args.trace_session();
    if noc_bench::jobs::run_resumed(&args) {
        return;
    }

    println!("# Removal scaling (best of {SCALE_RUNS} runs per point)");
    println!(
        "{:>10} {:>9} {:>8} {:>9} {:>8} {:>7} {:>6} {:>11} {:>9} {:>10} {:>8} {:>9}",
        "family",
        "switches",
        "links",
        "channels",
        "flows",
        "breaks",
        "vcs",
        "removal_ms",
        "build_ms",
        "search_ms",
        "scc_ms",
        "other_ms"
    );
    let data = scale_sweep(args.threads, |point| {
        println!(
            "{:>10} {:>9} {:>8} {:>9} {:>8} {:>7} {:>6} {:>11.3} {:>9.3} {:>10.3} {:>8.3} {:>9.3}",
            point.family,
            point.switches,
            point.links,
            point.channels,
            point.flows,
            point.cycles_broken,
            point.added_vcs,
            point.removal_ms,
            point.phases.build_ms,
            point.phases.search_ms,
            point.phases.scc_ms,
            point.phases.other_ms()
        );
    });
    println!();
    println!("total removal time: {:.1} ms", data.total_removal_ms);

    println!();
    println!("# Strategy comparison (points up to {SCALE_STRATEGY_SWITCH_CAP} switches)");
    println!(
        "{:>10} {:>9} {:>18} {:>6} {:>7} {:>10}",
        "family", "switches", "strategy", "vcs", "breaks", "time_ms"
    );
    for point in &data.points {
        for row in &point.strategies {
            println!(
                "{:>10} {:>9} {:>18} {:>6} {:>7} {:>10.3}",
                point.family,
                point.switches,
                row.strategy,
                row.added_vcs,
                row.cycles_broken,
                row.time_ms
            );
        }
    }

    args.write_artifact(&data);
}
