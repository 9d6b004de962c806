//! CDG-based deadlock removal for wormhole NoCs.
//!
//! This crate is the reproduction of the core contribution of
//! *"A Method to Remove Deadlocks in Networks-on-Chips with Wormhole Flow
//! Control"* (Seiculescu, Murali, Benini, De Micheli — DATE 2010):
//!
//! * [`cdg`] builds the **Channel Dependency Graph** of Definition 4 from a
//!   topology and a set of static routes,
//! * [`cost`] implements Algorithm 2 — the forward/backward cost tables that
//!   decide which dependency of a cycle is cheapest to break,
//! * [`removal`] implements Algorithm 1 — the smallest-cycle-first loop that
//!   adds virtual channels and re-routes flows until the CDG is acyclic,
//! * [`resource_ordering`] implements the baseline the paper compares
//!   against (ascending channel classes along every route),
//! * [`escape`] implements escape-channel *avoidance* (VC layers restricted
//!   to the up*/down* subgraph — the CDG is acyclic by construction),
//! * [`recovery`] implements DBR-style *recovery* (detect cyclic SCCs,
//!   drain their flows onto up*/down* routes; no VCs, hop inflation and
//!   reconfiguration events instead),
//! * [`verify`] checks deadlock freedom and route integrity after any of the
//!   transformations,
//! * [`vcmap`] snapshots the VC assignment a strategy produced (per-link VC
//!   counts + per-hop flow assignments) as the [`VcMap`] the VC-fidelity
//!   simulator consumes,
//! * [`report`] summarises what a removal run did (VCs added, cycles broken,
//!   direction choices) for the experiment harness, and names the strategy
//!   taxonomy ([`report::StrategyKind`]) the comparison sweeps use.
//!
//! # Quick start
//!
//! ```
//! use noc_topology::{Topology, CommGraph, CoreMap};
//! use noc_routing::shortest::route_all_shortest;
//! use noc_deadlock::{removal::{remove_deadlocks, RemovalConfig}, verify};
//!
//! // The 4-switch ring of Figure 1 with the four flows of the paper.
//! let mut topo = Topology::new();
//! let sw: Vec<_> = (0..4).map(|i| topo.add_switch(format!("SW{}", i + 1))).collect();
//! for i in 0..4 { topo.add_link(sw[i], sw[(i + 1) % 4], 1.0); }
//! let mut comm = CommGraph::new();
//! let cores: Vec<_> = (0..4).map(|i| comm.add_core(format!("c{i}"))).collect();
//! comm.add_flow(cores[0], cores[3], 1.0);
//! comm.add_flow(cores[2], cores[0], 1.0);
//! comm.add_flow(cores[3], cores[1], 1.0);
//! comm.add_flow(cores[0], cores[2], 1.0);
//! let mut map = CoreMap::new(4);
//! for (i, &c) in cores.iter().enumerate() { map.assign(c, sw[i])?; }
//! let mut routes = route_all_shortest(&topo, &comm, &map)?;
//!
//! // The ring CDG is cyclic; the removal algorithm fixes it with one VC.
//! assert!(verify::check_deadlock_free(&topo, &routes).is_err());
//! let report = remove_deadlocks(&mut topo, &mut routes, &RemovalConfig::default())?;
//! assert!(verify::check_deadlock_free(&topo, &routes).is_ok());
//! assert_eq!(report.added_vcs, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # As a pipeline stage
//!
//! Most callers do not drive this crate directly: the `noc-flow` crate wraps
//! it as the [`CycleBreaking`](https://docs.rs/noc-flow) strategy of its
//! staged `DesignFlow` API, where the same ring repair is a chain with the
//! verification built into every stage transition:
//!
//! ```
//! use noc_flow::{CycleBreaking, DesignFlow, ShortestPathRouter};
//! use noc_synth::SynthesisConfig;
//! use noc_topology::benchmarks::Benchmark;
//!
//! let fixed = DesignFlow::from_benchmark(Benchmark::D36x8)
//!     .synthesize(SynthesisConfig::with_switches(10))?
//!     .route(&ShortestPathRouter::default())?
//!     .resolve_deadlocks(&CycleBreaking::default())?; // Algorithm 1 + re-verify
//! assert!(fixed.resolution().removal.is_some());
//! # Ok::<(), noc_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdg;
pub mod certify;
pub mod cost;
pub mod escape;
pub mod recovery;
pub mod removal;
pub mod report;
pub mod resource_ordering;
pub mod vcmap;
pub mod verify;

pub use cdg::{Cdg, CdgDelta};
pub use certify::{
    certify_deadlock_free, certify_with, CertifyConfig, CertifyReport, CertifyVerdict, TrapWitness,
    TrapWorm, UnknownReason, WitnessError,
};
pub use escape::{apply_escape_channels, EscapeChannelResult, EscapeError};
pub use recovery::{apply_recovery_reconfig, RecoveryError, RecoveryResult, RecoveryStep};
pub use removal::{remove_deadlocks, CdgMode, RemovalConfig, RemovalError};
pub use report::{
    CdgDeltaStats, CdgMaintenanceStats, ReconfigEvent, ReconfigStats, RemovalReport, StrategyKind,
};
pub use resource_ordering::{apply_resource_ordering, ResourceOrderingResult};
pub use vcmap::VcMap;
