//! Layer boundaries and their attribution.
//!
//! [`call`] opens a span named after the layer around one call into a
//! layer crate's public entry point.  Without a recorder installed the span
//! is the telemetry crate's no-op (one relaxed atomic load), so the
//! untraced passes time the layers unobstructed.  [`attribute`] turns the
//! spans of one traced pass into per-layer self time: a span's duration
//! minus the time its child spans cover.  Spans the layer crates emit on
//! their own are folded in — cycle search and SCC maintenance cannot be
//! split from `remove_deadlocks` from outside — and any other crate span
//! counts towards the benchmark span that encloses it.

use noc_telemetry::{Snapshot, SpanEvent};
use std::collections::{BTreeMap, HashMap};

/// Span category of every span the benchmark itself opens.
pub const CATEGORY: &str = "perfbench";

/// Name of the span around one whole pass; its self time is the
/// benchmark's own loop overhead, the part no layer accounts for.
pub const PASS: &str = "pass";

/// Name of the span around a host-speed probe inside a pass.  Probes are
/// not part of the pass: their time is taken out of it.
pub const PROBE: &str = "host.probe";

/// Every layer the benchmark attributes time to, in report order.
pub const LAYERS: [&str; 16] = [
    "graph.cycle_search",
    "graph.scc",
    "core.remove_deadlocks",
    "core.cdg_build",
    "core.verify",
    "core.certify",
    "core.repair",
    "synth.synthesize",
    "routing.route",
    "power.estimate",
    "sim.new",
    "sim.run",
    "sim.workload_gen",
    "sim.fault_run",
    "json.render",
    "json.parse",
];

/// Runs `f`, one call into `layer`, inside a span named after the layer.
pub fn call<T>(layer: &'static str, f: impl FnOnce() -> T) -> T {
    debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
    let _span = noc_telemetry::span(CATEGORY, layer);
    f()
}

/// The layer a span the layer crates emit on their own belongs to, when it
/// is not simply part of the enclosing benchmark span.
fn crate_span_layer(span: &SpanEvent) -> Option<&'static str> {
    match (span.cat, span.name.as_str()) {
        ("removal", "cycle_search") => Some("graph.cycle_search"),
        ("scc", _) => Some("graph.scc"),
        ("removal", "cdg_build") => Some("core.cdg_build"),
        _ => None,
    }
}

/// Per-layer self time of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self time per layer, in microseconds.
    pub self_us: BTreeMap<&'static str, u64>,
    /// Duration of the pass span, in microseconds.
    pub pass_us: u64,
    /// Time inside the pass no layer span covers, in microseconds.
    pub unattributed_us: u64,
}

impl Attribution {
    /// Self time of `layer` in milliseconds (0 when it never ran).
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.self_us.get(layer).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Share of the pass attributed to named layers.
    pub fn attributed_share(&self) -> f64 {
        if self.pass_us == 0 {
            return 0.0;
        }
        1.0 - self.unattributed_us as f64 / self.pass_us as f64
    }
}

/// Attributes the spans recorded inside the pass span opened at sequence
/// number `pass_seq`.
///
/// # Panics
///
/// Panics if the pass span is missing from the snapshot, which means the
/// recording ring overflowed during one pass.
pub fn attribute(snapshot: &Snapshot, pass_seq: u64) -> Attribution {
    let pass = snapshot
        .spans
        .iter()
        .find(|s| s.enter_seq == pass_seq)
        .expect("the pass span fits the recording ring");
    let mut inside: Vec<&SpanEvent> = snapshot
        .spans
        .iter()
        .filter(|s| s.enter_seq >= pass.enter_seq && s.exit_seq <= pass.exit_seq)
        .collect();
    inside.sort_by_key(|s| s.enter_seq);

    // Time covered by each span's direct children.
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for span in &inside {
        if span.enter_seq != pass_seq {
            *child_us.entry(span.parent_seq).or_default() += span.dur_us;
        }
    }

    // Parents open before their children, so one pass in enter order
    // resolves every inherited layer.
    let mut layer_of: HashMap<u64, Option<&'static str>> = HashMap::new();
    let mut attribution = Attribution {
        pass_us: pass.dur_us,
        ..Attribution::default()
    };
    for span in inside {
        if span.cat == CATEGORY && span.name == PROBE {
            attribution.pass_us = attribution.pass_us.saturating_sub(span.dur_us);
            continue;
        }
        let layer = if span.enter_seq == pass_seq {
            None
        } else if span.cat == CATEGORY {
            LAYERS.iter().copied().find(|&l| l == span.name)
        } else {
            crate_span_layer(span).or_else(|| layer_of.get(&span.parent_seq).copied().flatten())
        };
        layer_of.insert(span.enter_seq, layer);
        let self_us = span
            .dur_us
            .saturating_sub(child_us.get(&span.enter_seq).copied().unwrap_or(0));
        match layer {
            Some(layer) => *attribution.self_us.entry(layer).or_default() += self_us,
            None => attribution.unattributed_us += self_us,
        }
    }
    attribution
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &str, seqs: (u64, u64, u64), dur_us: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat,
            start_us: 0,
            dur_us,
            tid: 1,
            enter_seq: seqs.0,
            exit_seq: seqs.1,
            parent_seq: seqs.2,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_folds_crate_spans_and_drops_probes() {
        let snapshot = Snapshot {
            spans: vec![
                span(CATEGORY, PASS, (1, 12, 0), 105),
                span(CATEGORY, "core.remove_deadlocks", (2, 7, 1), 80),
                span("removal", "remove_deadlocks", (3, 6, 2), 75),
                span("removal", "cycle_search", (4, 5, 3), 50),
                span(CATEGORY, "core.verify", (8, 9, 1), 10),
                span(CATEGORY, PROBE, (10, 11, 1), 5),
            ],
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            threads: BTreeMap::new(),
            dropped_spans: 0,
        };
        let a = attribute(&snapshot, 1);
        assert_eq!(a.self_us["graph.cycle_search"], 50);
        // 5 µs of the benchmark span plus 25 µs of the crate's own span.
        assert_eq!(a.self_us["core.remove_deadlocks"], 30);
        assert_eq!(a.self_us["core.verify"], 10);
        // The probe's 5 µs leave the pass.
        assert_eq!(a.pass_us, 100);
        assert_eq!(a.unattributed_us, 10);
        assert!((a.attributed_share() - 0.9).abs() < 1e-12);
    }
}
