//! Flit-level wormhole flow-control NoC simulator.
//!
//! The paper argues analytically (via the channel dependency graph) that its
//! modified designs cannot deadlock.  This crate closes the loop dynamically:
//! it simulates wormhole switching with virtual channels and credit-based
//! buffer management over an arbitrary [`Topology`](noc_topology::Topology)
//! and [`RouteSet`](noc_routing::RouteSet), detects runtime deadlocks
//! (in-flight packets that stop making progress), and reports latency and
//! throughput statistics.
//!
//! The model is intentionally simple but faithful to the properties that
//! matter for deadlock behaviour:
//!
//! * a **channel** (physical link × VC) is held by one packet from the
//!   moment its head flit is accepted until its tail flit leaves — the
//!   defining property of wormhole switching,
//! * each channel has a finite input buffer at the downstream switch
//!   (credit-based backpressure),
//! * one flit per channel per cycle,
//! * routes are static per flow (table-based), exactly the routes the
//!   deadlock analysis saw.
//!
//! The engine is [`vc_engine`]: per-(link × VC) buffers sized from a
//! strategy's [`VcMap`](noc_deadlock::vcmap::VcMap), explicit
//! [`credit`]-based flow control, pluggable VC-allocation [`policy`]s
//! (static assignment, Duato-adaptive escape, and a deliberately unsafe
//! single-VC baseline), exact wait-for-graph deadlock [`detect`]ion, and an
//! optional DBR-style dynamic drain onto a recovery routing function.
//!
//! # Example
//!
//! ```
//! use noc_deadlock::vcmap::VcMap;
//! use noc_sim::{AssignedVc, TrafficConfig, VcSimConfig, VcSimulator};
//! use noc_topology::{generators, CommGraph, CoreMap};
//! use noc_routing::shortest::route_all_shortest;
//!
//! let gen = generators::bidirectional_ring(4, 1.0);
//! let mut comm = CommGraph::new();
//! let a = comm.add_core("a");
//! let b = comm.add_core("b");
//! comm.add_flow(a, b, 200.0);
//! let mut map = CoreMap::new(2);
//! map.assign(a, gen.switches[0])?;
//! map.assign(b, gen.switches[2])?;
//! let routes = route_all_shortest(&gen.topology, &comm, &map)?;
//!
//! let vc_map = VcMap::from_design(&gen.topology, &routes);
//! let config = VcSimConfig::default();
//! let mut sim = VcSimulator::new(&comm, &routes, &vc_map, &AssignedVc, &config);
//! let outcome = sim.run(&TrafficConfig { packets_per_flow: 20, ..TrafficConfig::default() });
//! assert!(outcome.stats.delivered_packets > 0);
//! assert!(!outcome.deadlocked);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod credit;
pub mod detect;
pub mod fault;
pub mod packet;
pub mod policy;
pub mod stats;
pub mod traffic;
pub mod vc_engine;

pub use fault::{FaultEvent, FaultKind, FaultPlan, StormConfig};
pub use packet::{Flit, FlitKind, Packet, PacketId};
pub use policy::{AdaptiveEscape, AssignedVc, SingleVc, VcChoice, VcPolicy};
pub use stats::{LatencyBucket, SimStats};
pub use traffic::{TrafficConfig, TrafficPattern};
pub use vc_engine::{
    DeadlockEvent, DetectionKind, DrainStats, VcSimConfig, VcSimOutcome, VcSimulator,
};
