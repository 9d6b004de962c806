//! `paper_flow`: the paper's own traffic through the whole design flow.
//!
//! One pass takes every design of the Figure 8 grid (D26_media, 5–25
//! switches), the Figure 9 grid (D36_8, 10–35), the Figure 10 set (six
//! benchmarks at 14 switches) and a population of small seeded random
//! designs (rings, chorded rings and meshes) through synthesize → route →
//! `Cdg::build` → `remove_deadlocks` → `check_deadlock_free` on the
//! repaired design → `certify_deadlock_free` on the unrepaired one → power
//! estimate.  One design is one operation.  The pass ends by rendering its
//! artifact and parsing it back.

use super::{figure_grid, synthesized_design, verify_repaired, Design, Workload};
use crate::layers::call;
use crate::record::{mix, PassRecord};
use noc_deadlock::cdg::Cdg;
use noc_deadlock::certify::certify_deadlock_free;
use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_flow::json::{ObjectWriter, ToJson};
use noc_power::{NetworkPowerModel, TechParams};
use noc_rng::SmallRng;
use noc_routing::shortest::route_all_shortest;
use noc_routing::RouteSet;
use noc_topology::benchmarks::Benchmark;
use noc_topology::{generators, CommGraph, CoreMap};

/// Seeded random designs per pass.
const RANDOM_DESIGNS: usize = 64;

/// Switch count of the Figure 10 set.
const FIG10_SWITCHES: usize = 14;

struct PaperFlow {
    /// Benchmark designs to synthesize: (benchmark, switches, comm index).
    grid: Vec<(Benchmark, usize, usize)>,
    /// One communication graph per benchmark.
    comms: Vec<CommGraph>,
    /// Random designs, generated but not yet routed (empty route sets).
    random: Vec<Design>,
}

/// Builds the grid and the seeded random designs.
pub fn setup(seed: u64, _rec: &mut PassRecord) -> Box<dyn Workload> {
    let comms: Vec<CommGraph> = Benchmark::ALL.iter().map(|b| b.comm_graph()).collect();
    let index = |b: Benchmark| Benchmark::ALL.iter().position(|&x| x == b).expect("listed");
    let mut grid: Vec<(Benchmark, usize, usize)> = figure_grid()
        .into_iter()
        .map(|(b, n)| (b, n, index(b)))
        .collect();
    grid.extend(
        Benchmark::ALL
            .iter()
            .map(|&b| (b, FIG10_SWITCHES, index(b))),
    );
    let random = (0..RANDOM_DESIGNS as u64)
        .map(|i| random_design(mix(seed, i)))
        .collect();
    Box::new(PaperFlow {
        grid,
        comms,
        random,
    })
}

/// A small random design: a unidirectional ring, a chorded ring or a 2-D
/// mesh with one core per switch and random flows.  Rings and chorded
/// rings routinely give cyclic CDGs, meshes mostly acyclic ones.
fn random_design(seed: u64) -> Design {
    let mut rng = SmallRng::seed_from_u64(seed);
    let generated = match rng.gen_range(0usize..3) {
        0 => generators::unidirectional_ring(rng.gen_range(4usize..10), 1.0),
        1 => {
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
    for _ in 0..rng.gen_range(n..2 * n + 1) {
        let src = rng.gen_range(0usize..n);
        let mut dst = rng.gen_range(0usize..n);
        if dst == src {
            dst = (dst + 1) % n;
        }
        comm.add_flow(cores[src], cores[dst], 0.05);
    }
    let mut core_map = CoreMap::new(n);
    for (&core, &switch) in cores.iter().zip(&generated.switches) {
        core_map
            .assign(core, switch)
            .expect("generated switches exist");
    }
    Design {
        label: format!("random-{seed:016x}"),
        switches: n,
        comm,
        topology: generated.topology,
        core_map,
        routes: RouteSet::new(0),
    }
}

/// One design's row of the artifact.
struct FlowRow {
    label: String,
    switches: usize,
    cyclic_cdg: bool,
    cycles_broken: usize,
    added_vcs: usize,
    certify_verdict: &'static str,
    certify_steps: usize,
    power_mw: f64,
}

impl ToJson for FlowRow {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("design", &self.label)
            .field("switches", &self.switches)
            .field("cyclic_cdg", &self.cyclic_cdg)
            .field("cycles_broken", &self.cycles_broken)
            .field("added_vcs", &self.added_vcs)
            .field("certify_verdict", &self.certify_verdict)
            .field("certify_steps", &self.certify_steps)
            .field("power_mw", &self.power_mw)
            .finish();
    }
}

/// Runs one routed design through removal, verification, certification
/// and the power estimate.
fn analyse(design: &Design, routes: &RouteSet, rec: &mut PassRecord) -> Option<FlowRow> {
    let label = &design.label;
    let cyclic = call("core.cdg_build", || {
        !Cdg::build(&design.topology, routes).is_acyclic()
    });
    let unrepaired = routes;
    let mut topology = design.topology.clone();
    let mut routes = routes.clone();
    let report = call("core.remove_deadlocks", || {
        remove_deadlocks(&mut topology, &mut routes, &RemovalConfig::default())
    });
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            rec.check(false, || format!("{label}: removal failed: {e}"));
            return None;
        }
    };
    verify_repaired(label, &topology, &routes, rec);
    rec.check(report.already_deadlock_free != cyclic, || {
        format!("{label}: removal and Cdg::build disagree on cyclicity")
    });
    let certified = call("core.certify", || {
        certify_deadlock_free(&design.topology, unrepaired)
    });
    rec.check(certified.cyclic_cdg == cyclic, || {
        format!("{label}: certify and Cdg::build disagree on cyclicity")
    });
    let power = call("power.estimate", || {
        NetworkPowerModel::new(TechParams::default()).estimate(&topology, &design.comm, &routes)
    });
    rec.added_vcs += report.added_vcs as u64;
    rec.cycles_broken += report.cycles_broken as u64;
    rec.digest.words(&[
        design.switches as u64,
        u64::from(cyclic),
        report.cycles_broken as u64,
        report.added_vcs as u64,
        certified.search_steps as u64,
        power.total_power_mw.to_bits(),
        power.total_area_um2.to_bits(),
    ]);
    rec.digest.text(certified.verdict.name());
    Some(FlowRow {
        label: label.clone(),
        switches: design.switches,
        cyclic_cdg: cyclic,
        cycles_broken: report.cycles_broken,
        added_vcs: report.added_vcs,
        certify_verdict: certified.verdict.name(),
        certify_steps: certified.search_steps,
        power_mw: power.total_power_mw,
    })
}

impl Workload for PaperFlow {
    fn pass(&self, rec: &mut PassRecord) {
        let mut rows = Vec::with_capacity(self.grid.len() + self.random.len());
        for &(benchmark, switches, comm) in &self.grid {
            let row = rec.op(|rec| {
                let design = synthesized_design(benchmark, &self.comms[comm], switches, rec)?;
                analyse(&design, &design.routes, rec)
            });
            rows.extend(row);
        }
        for generated in &self.random {
            let row = rec.op(|rec| {
                let routes = call("routing.route", || {
                    route_all_shortest(&generated.topology, &generated.comm, &generated.core_map)
                });
                let routes = match routes {
                    Ok(routes) => routes,
                    Err(e) => {
                        let label = &generated.label;
                        rec.check(false, || format!("{label}: routing failed: {e}"));
                        return None;
                    }
                };
                analyse(generated, &routes, rec)
            });
            rows.extend(row);
        }
        crate::artifact::round_trip("perfbench_paper_flow", &rows, rec);
    }
}
