//! Unified staged pipeline API for the deadlock-removal suite.
//!
//! The DATE 2010 paper's whole evaluation is one pipeline — benchmark →
//! topology synthesis → routing → deadlock removal → power/simulation — and
//! before this crate every test, example and experiment binary re-implemented
//! it longhand with its own clone/verify boilerplate.  `noc-flow` makes the
//! pipeline a first-class object:
//!
//! * [`DesignFlow`] is a staged builder whose stages
//!   ([`SynthesizedStage`], [`RoutedStage`], [`DeadlockFreeStage`],
//!   [`SimulatedStage`]) each own their topology/routes and auto-run the
//!   matching `validate_*`/`verify` check on entry,
//! * [`Router`] is the pluggable routing seam
//!   ([`ShortestPathRouter`], [`XyRouter`], [`UpDownRouter`]),
//! * [`DeadlockStrategy`] is the pluggable deadlock-handling seam, with one
//!   implementation per point of the deadlock design space:
//!   [`CycleBreaking`] (the paper's Algorithm 1 — removal),
//!   [`ResourceOrdering`] (its baseline — prevention), [`EscapeChannel`]
//!   (up*/down* escape-VC layers — avoidance) and [`RecoveryReconfig`]
//!   (DBR-style drain-and-reconfigure — recovery); swapping schemes is a
//!   one-line change,
//! * [`FlowSweep`] drives (benchmark × switch-count × strategy) grids, the
//!   shape of the paper's Figures 8–10 — serially via
//!   [`run`](FlowSweep::run) or sharded across scoped worker threads via
//!   [`run_parallel`](FlowSweep::run_parallel) /
//!   [`run_streaming`](FlowSweep::run_streaming), which shard down to
//!   individual (grid point × strategy) tasks, stream completed points to
//!   an observer and still return them in deterministic grid order,
//! * [`json`] is a dependency-free JSON writer/parser ([`ToJson`],
//!   [`JsonValue`]) so sweep results can be exported and plotted outside
//!   Rust.
//!
//! # Quick start
//!
//! ```
//! use noc_flow::{CycleBreaking, DesignFlow, ResourceOrdering, ShortestPathRouter};
//! use noc_synth::SynthesisConfig;
//! use noc_topology::benchmarks::Benchmark;
//!
//! let routed = DesignFlow::from_benchmark(Benchmark::D36x8)
//!     .synthesize(SynthesisConfig::with_switches(10))?
//!     .route(&ShortestPathRouter::default())?;
//!
//! // The same routed design under both schemes — no hand-cloning.
//! let removal = routed.resolve_deadlocks(&CycleBreaking::default())?;
//! let ordering = routed.resolve_deadlocks(&ResourceOrdering)?;
//! assert!(removal.resolution().added_vcs <= ordering.resolution().added_vcs);
//! # Ok::<(), noc_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod executor;
pub mod json;
pub mod router;
pub mod stage;
pub mod strategy;
pub mod sweep;
pub mod trace;

pub use error::FlowError;
pub use executor::SweepProgress;
pub use json::{
    Artifact, ArtifactError, JsonParseError, JsonValue, ParsedArtifact, RawJson, ToJson,
    SCHEMA_VERSION,
};
pub use noc_deadlock::report::StrategyKind;
pub use router::{Router, ShortestPathRouter, UpDownRouter, XyRouter};
pub use stage::{DeadlockFreeStage, DesignFlow, RoutedStage, SimulatedStage, SynthesizedStage};
pub use strategy::{
    CycleBreaking, DeadlockResolution, DeadlockStrategy, EscapeChannel, RecoveryReconfig,
    ResourceOrdering,
};
pub use sweep::{
    CertifyOutcome, FaultRunStats, FaultSweepSim, FlowSweep, PreparedPoint, StrategyOutcome,
    StrategySimStats, SweepPoint, VcSweepSim,
};
pub use trace::{PhaseRow, TraceArtifact, TraceSummary, TRACE_FIGURE};
