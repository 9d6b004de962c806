//! The pluggable deadlock-handling seam of the pipeline.
//!
//! The paper's evaluation is a comparison between two ways of making the
//! same routed design deadlock-free: its cycle-breaking algorithm
//! (Algorithm 1) and the resource-ordering baseline.  [`DeadlockStrategy`]
//! captures that seam, and the suite now ships the full strategy matrix
//! across the deadlock design space — one implementation per
//! [`StrategyKind`]:
//!
//! | Strategy | Kind | Mechanism | Cost model |
//! |---|---|---|---|
//! | [`CycleBreaking`] | removal | break CDG cycles (Algorithm 1) | few extra VCs |
//! | [`ResourceOrdering`] | prevention | ascending channel classes | many extra VCs |
//! | [`EscapeChannel`] | avoidance | escape-VC layers over the up*/down* subgraph | moderate extra VCs, zero cycles ever broken |
//! | [`RecoveryReconfig`] | recovery | drain cyclic SCCs onto up*/down* routes (DBR-style) | zero VCs, hop inflation + reconfiguration events |
//!
//! All four are interchangeable one-line swaps in a flow and run side by
//! side in [`FlowSweep`](crate::FlowSweep) grids (the `fig_strategy_matrix`
//! experiment).

use crate::FlowError;
use noc_deadlock::escape::{apply_escape_channels, EscapeChannelResult};
use noc_deadlock::recovery::{apply_recovery_reconfig, RecoveryResult};
use noc_deadlock::removal::{remove_deadlocks, RemovalConfig};
use noc_deadlock::report::{RemovalReport, StrategyKind};
use noc_deadlock::resource_ordering::{apply_resource_ordering, ResourceOrderingResult};
use noc_routing::RouteSet;
use noc_topology::{SwitchId, Topology};

/// What a [`DeadlockStrategy`] did to a design.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockResolution {
    /// Name of the strategy that produced this resolution.
    pub strategy: String,
    /// Which point of the deadlock design space the strategy occupies.
    pub kind: StrategyKind,
    /// Total VCs added on top of the single VC every link starts with.
    pub added_vcs: usize,
    /// CDG cycles broken (0 for schemes that restructure wholesale —
    /// resource ordering, escape channels, recovery).
    pub cycles_broken: usize,
    /// Detailed report when the strategy was the paper's removal algorithm.
    pub removal: Option<RemovalReport>,
    /// Detailed result when the strategy was resource ordering.
    pub ordering: Option<ResourceOrderingResult>,
    /// Detailed result when the strategy was escape-channel avoidance.
    pub escape: Option<EscapeChannelResult>,
    /// Detailed result when the strategy was recovery reconfiguration.
    pub recovery: Option<RecoveryResult>,
}

impl DeadlockResolution {
    /// An empty resolution scaffold for `strategy`/`kind`: zero VCs, zero
    /// cycles, no detail block.  Strategy impls fill in what they did.
    pub fn new(strategy: impl Into<String>, kind: StrategyKind) -> Self {
        DeadlockResolution {
            strategy: strategy.into(),
            kind,
            added_vcs: 0,
            cycles_broken: 0,
            removal: None,
            ordering: None,
            escape: None,
            recovery: None,
        }
    }
}

/// A scheme that mutates a routed design until its CDG is acyclic.
///
/// The [`resolve_deadlocks`](crate::RoutedStage::resolve_deadlocks) stage
/// re-verifies deadlock freedom after every call, so implementations that
/// fail to deliver an acyclic CDG are rejected with
/// [`FlowError::StillCyclic`] instead of leaking unsafe designs downstream.
///
/// Strategies are shared by reference across the worker threads of a
/// parallel [`FlowSweep`](crate::FlowSweep) — which shards the strategies of
/// one grid point across workers, so two strategies may run concurrently
/// against clones of the same routed design — hence the `Sync` bound; the
/// design being repaired is owned per task, so implementations only need
/// immutable configuration.
pub trait DeadlockStrategy: Sync {
    /// Human-readable scheme name (used in sweep output and diagnostics).
    fn name(&self) -> &str;

    /// Makes the design deadlock-free in place (extra VCs, re-routed flows).
    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<DeadlockResolution, FlowError>;

    /// Convenience for harnesses that need the repaired design *and* the
    /// pristine input: resolves on an internal copy, leaving the caller's
    /// borrow untouched.
    fn resolve_cloned(
        &self,
        topology: &Topology,
        routes: &RouteSet,
    ) -> Result<(Topology, RouteSet, DeadlockResolution), FlowError> {
        let mut topology = topology.clone();
        let mut routes = routes.clone();
        let resolution = self.resolve(&mut topology, &mut routes)?;
        Ok((topology, routes, resolution))
    }
}

/// The paper's contribution: smallest-cycle-first CDG cycle breaking
/// (Algorithm 1) with forward/backward cost tables (Algorithm 2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CycleBreaking {
    /// Algorithm configuration (iteration bound, CDG maintenance mode).
    pub config: RemovalConfig,
}

impl DeadlockStrategy for CycleBreaking {
    fn name(&self) -> &str {
        "cycle-breaking"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<DeadlockResolution, FlowError> {
        let report = remove_deadlocks(topology, routes, &self.config)?;
        Ok(DeadlockResolution {
            added_vcs: report.added_vcs,
            cycles_broken: report.cycles_broken,
            removal: Some(report),
            ..DeadlockResolution::new(self.name(), StrategyKind::CycleBreaking)
        })
    }
}

/// The baseline the paper compares against: ascending channel classes along
/// every route (Dally & Towles resource ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceOrdering;

impl DeadlockStrategy for ResourceOrdering {
    fn name(&self) -> &str {
        "resource-ordering"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<DeadlockResolution, FlowError> {
        let result = apply_resource_ordering(topology, routes)?;
        Ok(DeadlockResolution {
            added_vcs: result.added_vcs,
            ordering: Some(result),
            ..DeadlockResolution::new(self.name(), StrategyKind::ResourceOrdering)
        })
    }
}

/// Escape-channel *avoidance*: routes keep their physical links but climb
/// one VC layer at every turn the up*/down* order forbids, so every layer is
/// a deadlock-free subgraph and the CDG is acyclic by construction
/// ([`noc_deadlock::escape`]).  Zero cycles are ever broken; the cost is the
/// escape VCs reserved, reported through the same
/// [`RemovalReport`]-style path as the other strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscapeChannel {
    /// Root of the BFS spanning tree defining the up*/down* order.
    pub root: SwitchId,
}

impl Default for EscapeChannel {
    fn default() -> Self {
        EscapeChannel {
            root: SwitchId::from_index(0),
        }
    }
}

impl EscapeChannel {
    /// Escape channels over the up*/down* order rooted at `root` (the
    /// default uses switch 0, which always exists in a non-empty design).
    pub fn rooted_at(root: SwitchId) -> Self {
        EscapeChannel { root }
    }
}

impl DeadlockStrategy for EscapeChannel {
    fn name(&self) -> &str {
        "escape-channel"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<DeadlockResolution, FlowError> {
        let result = apply_escape_channels(topology, routes, self.root)?;
        Ok(DeadlockResolution {
            added_vcs: result.added_vcs,
            escape: Some(result),
            ..DeadlockResolution::new(self.name(), StrategyKind::EscapeChannel)
        })
    }
}

/// Recovery-based reconfiguration (DBR-style, [`noc_deadlock::recovery`]):
/// cyclic CDG regions are detected as strongly-connected components and
/// their flows are drained onto up*/down* routes, whole SCCs at a time,
/// until the CDG is acyclic.  Adds zero VCs — the cost is reconfiguration
/// events and the hop inflation of the recovery routes, reported in the
/// resolution's [`RecoveryResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReconfig {
    /// Root of the BFS spanning tree of the recovery routing function.
    pub root: SwitchId,
}

impl Default for RecoveryReconfig {
    fn default() -> Self {
        RecoveryReconfig {
            root: SwitchId::from_index(0),
        }
    }
}

impl RecoveryReconfig {
    /// Recovery routing over the up*/down* order rooted at `root`.
    pub fn rooted_at(root: SwitchId) -> Self {
        RecoveryReconfig { root }
    }
}

impl DeadlockStrategy for RecoveryReconfig {
    fn name(&self) -> &str {
        "recovery-reconfig"
    }

    fn resolve(
        &self,
        topology: &mut Topology,
        routes: &mut RouteSet,
    ) -> Result<DeadlockResolution, FlowError> {
        let result = apply_recovery_reconfig(topology, routes, self.root)?;
        Ok(DeadlockResolution {
            recovery: Some(result),
            ..DeadlockResolution::new(self.name(), StrategyKind::RecoveryReconfig)
        })
    }
}
