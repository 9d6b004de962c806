//! `torus_removal`: Algorithm 1 on the cyclic stress case.
//!
//! Uniform-random traffic (one flow per core, one core per switch) over
//! torus2d 16×16 and 24×24 and torus3d 8×8×8, routed by the
//! deadlock-oblivious shortest-path router; wraparound links make the CDGs
//! cyclic.  The seed draws the traffic of the eight 16×16 and two 8×8×8
//! tori.  The two 24×24 tori, about 60% of the work, always carry the same
//! two draws: the work of one 24×24 draw varies by about a quarter from
//! seed to seed, which would drown the code's own changes.  No removal
//! takes more than about half a second, so a run holds about ten passes
//! and the host is probed between removals.  Generation and routing
//! are set-up.  One pass runs `remove_deadlocks` on a copy of every design
//! and checks each repaired design with `check_deadlock_free`; one removal
//! is one operation.  No synthesis, no simulation and no artifact.

use super::{verify_repaired, Design, Workload};
use crate::layers::call;
use crate::record::{mix, PassRecord};
use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_routing::shortest::route_all_shortest;
use noc_topology::generators::{self, Generated};

/// Traffic seed of the first 24×24 torus (the `fig_scale` scaling-grid
/// seed); the second uses the next one.
const FIXED_TRAFFIC_SEED: u64 = 0xD47E_2010;

struct TorusRemoval {
    designs: Vec<Design>,
}

/// The tori of one pass, and the fixed traffic seed of those the workload
/// seed does not draw.
fn tori() -> Vec<(&'static str, Generated, Option<u64>)> {
    let mut tori = Vec::new();
    for _ in 0..8 {
        tori.push(("torus2d-16x16", generators::torus2d(16, 16, 1.0), None));
    }
    for fixed in [FIXED_TRAFFIC_SEED, FIXED_TRAFFIC_SEED + 1] {
        tori.push((
            "torus2d-24x24",
            generators::torus2d(24, 24, 1.0),
            Some(fixed),
        ));
    }
    for _ in 0..2 {
        tori.push(("torus3d-8x8x8", generators::torus3d(8, 8, 8, 1.0), None));
    }
    tori
}

/// Generates the tori and their seeded traffic and routes every flow.
pub fn setup(seed: u64, rec: &mut PassRecord) -> Box<dyn Workload> {
    let mut designs = Vec::new();
    for (salt, (label, generated, fixed)) in tori().into_iter().enumerate() {
        let traffic_seed = fixed.unwrap_or_else(|| mix(seed, salt as u64));
        let traffic = generators::uniform_traffic(&generated, 1, traffic_seed, 1.0);
        let routes = call("routing.route", || {
            route_all_shortest(&generated.topology, &traffic.comm, &traffic.map)
        });
        match routes {
            Ok(routes) => designs.push(Design {
                label: label.to_string(),
                switches: generated.switches.len(),
                comm: traffic.comm,
                topology: generated.topology,
                core_map: traffic.map,
                routes,
            }),
            Err(e) => rec.standalone_check(false, || format!("{label}: routing failed: {e}")),
        }
    }
    Box::new(TorusRemoval { designs })
}

impl Workload for TorusRemoval {
    fn pass(&self, rec: &mut PassRecord) {
        for design in &self.designs {
            let label = &design.label;
            let mut topology = design.topology.clone();
            let mut routes = design.routes.clone();
            rec.op(|rec| {
                let report = call("core.remove_deadlocks", || {
                    remove_deadlocks(&mut topology, &mut routes, &RemovalConfig::default())
                });
                let report = match report {
                    Ok(report) => report,
                    Err(e) => {
                        rec.check(false, || format!("{label}: removal failed: {e}"));
                        return;
                    }
                };
                verify_repaired(label, &topology, &routes, rec);
                rec.added_vcs += report.added_vcs as u64;
                rec.cycles_broken += report.cycles_broken as u64;
                rec.digest.words(&[
                    design.switches as u64,
                    report.cycles_broken as u64,
                    report.added_vcs as u64,
                    report.forward_breaks() as u64,
                ]);
            });
        }
    }
}
