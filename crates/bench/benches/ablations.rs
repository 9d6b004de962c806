//! Ablation bench for a design choice the paper asserts: checking both
//! break directions versus forward-only / backward-only.
//!
//! The measured quantity is runtime; the printed summary reports the VC cost
//! of each variant, which is the number the paper's heuristics are meant to
//! minimise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_bench::{run_removal, synthesize_benchmark};
use noc_deadlock::removal::{DirectionPolicy, RemovalConfig};
use noc_topology::benchmarks::Benchmark;

fn ablations(c: &mut Criterion) {
    let design = synthesize_benchmark(Benchmark::D36x8, 14).expect("synthesis succeeds");

    let variants: [(&str, RemovalConfig); 3] = [
        ("paper_default", RemovalConfig::default()),
        (
            "forward_only",
            RemovalConfig {
                direction: DirectionPolicy::ForwardOnly,
                ..RemovalConfig::default()
            },
        ),
        (
            "backward_only",
            RemovalConfig {
                direction: DirectionPolicy::BackwardOnly,
                ..RemovalConfig::default()
            },
        ),
    ];

    let mut group = c.benchmark_group("ablations_d36_8_14sw");
    group.sample_size(10);
    for (name, config) in &variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), config, |b, config| {
            b.iter(|| run_removal(&design, config));
        });
    }
    group.finish();

    println!("\n== Ablation VC costs (D36_8, 14 switches) ==");
    for (name, config) in &variants {
        let report = run_removal(&design, config);
        println!(
            "{:>22}: added VCs = {:>3}, cycles broken = {:>3}, forward = {}, backward = {}",
            name,
            report.added_vcs,
            report.cycles_broken,
            report.forward_breaks(),
            report.backward_breaks()
        );
    }
}

criterion_group!(benches, ablations);
criterion_main!(benches);
