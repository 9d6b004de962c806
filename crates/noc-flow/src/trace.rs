//! Telemetry exporters and the trace reader behind `noc_profile`.
//!
//! The write side turns a [`noc_telemetry::Snapshot`] into one file that is
//! simultaneously two things:
//!
//! * a schema-v[`SCHEMA_VERSION`] artifact — the usual `{"figure":
//!   "noc_trace", "schema", "data"}` envelope, where `data` carries the
//!   metrics summary (per-category phase totals, counters, log₂
//!   histograms, thread labels);
//! * a Chrome trace: a top-level `traceEvents` array of complete (`"ph":
//!   "X"`) events plus `thread_name` metadata, which Perfetto and
//!   `about://tracing` load directly.  [`ParsedArtifact`] ignores unknown
//!   envelope keys, so the extra array costs nothing on the artifact side.
//!
//! Every complete event also carries `seq`/`parent` (global enter-sequence
//! numbers from the recorder); trace viewers ignore them, while the read
//! side uses them to reconstruct exact nesting without trusting µs
//! timestamps to break ties.
//!
//! The read side ([`TraceSummary`]) parses a trace file back and answers
//! the profiling question directly: per-phase self time (nested
//! same-category spans are not double-counted) and the share of wall time
//! attributed to named phases, where wall time is the root span — see
//! [`TraceSummary::attribution_pct`].

use crate::json::{
    write_atomic, ArtifactError, JsonValue, ObjectWriter, ParsedArtifact, ToJson, SCHEMA_VERSION,
};
use noc_telemetry::{ArgValue, HistBucket, Snapshot, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Figure name carried in a trace file's artifact envelope.
pub const TRACE_FIGURE: &str = "noc_trace";

impl ToJson for ArgValue {
    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::U64(v) => v.write_json(out),
            ArgValue::F64(v) => v.write_json(out),
            ArgValue::Str(v) => v.write_json(out),
        }
    }
}

impl ToJson for HistBucket {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("lower", &self.lower)
            .field("upper", &self.upper)
            .field("count", &self.count)
            .finish();
    }
}

/// One span rendered as a Chrome complete event.
struct CompleteEvent<'a>(&'a SpanEvent);

impl ToJson for CompleteEvent<'_> {
    fn write_json(&self, out: &mut String) {
        let span = self.0;
        let mut args = String::new();
        {
            let mut object = ObjectWriter::new(&mut args);
            for (key, value) in &span.args {
                object = object.field(key, value);
            }
            object.finish();
        }
        ObjectWriter::new(out)
            .field("name", &span.name)
            .field("cat", &span.cat)
            .field("ph", &"X")
            .field("ts", &span.start_us)
            .field("dur", &span.dur_us)
            .field("pid", &1usize)
            .field("tid", &u64::from(span.tid))
            .field("seq", &span.enter_seq)
            .field("parent", &span.parent_seq)
            .field("args", &crate::json::RawJson(&args))
            .finish();
    }
}

/// The metrics summary serialized under the envelope's `data` key.
struct MetricsData<'a> {
    source: &'a str,
    snapshot: &'a Snapshot,
}

impl ToJson for MetricsData<'_> {
    fn write_json(&self, out: &mut String) {
        let phases = phase_totals(self.snapshot);
        let mut phase_json = String::new();
        {
            let mut sep = false;
            phase_json.push('[');
            for (cat, total_us) in &phases {
                if sep {
                    phase_json.push(',');
                }
                sep = true;
                ObjectWriter::new(&mut phase_json)
                    .field("cat", cat)
                    .field("total_us", total_us)
                    .finish();
            }
            phase_json.push(']');
        }
        let mut counter_json = String::new();
        {
            let mut sep = false;
            counter_json.push('[');
            for (name, value) in &self.snapshot.counters {
                if sep {
                    counter_json.push(',');
                }
                sep = true;
                ObjectWriter::new(&mut counter_json)
                    .field("name", name)
                    .field("value", value)
                    .finish();
            }
            counter_json.push(']');
        }
        let mut hist_json = String::new();
        {
            let mut sep = false;
            hist_json.push('[');
            for (name, buckets) in &self.snapshot.histograms {
                if sep {
                    hist_json.push(',');
                }
                sep = true;
                ObjectWriter::new(&mut hist_json)
                    .field("name", name)
                    .field("buckets", buckets)
                    .finish();
            }
            hist_json.push(']');
        }
        let mut thread_json = String::new();
        {
            let mut sep = false;
            thread_json.push('[');
            for (tid, label) in &self.snapshot.threads {
                if sep {
                    thread_json.push(',');
                }
                sep = true;
                ObjectWriter::new(&mut thread_json)
                    .field("tid", &u64::from(*tid))
                    .field("label", label)
                    .finish();
            }
            thread_json.push(']');
        }
        ObjectWriter::new(out)
            .field("source", &self.source)
            .field("span_count", &self.snapshot.spans.len())
            .field("dropped_spans", &self.snapshot.dropped_spans)
            .field("phases", &crate::json::RawJson(&phase_json))
            .field("counters", &crate::json::RawJson(&counter_json))
            .field("histograms", &crate::json::RawJson(&hist_json))
            .field("threads", &crate::json::RawJson(&thread_json))
            .finish();
    }
}

/// Per-category self time (µs), largest first; nested same-category spans
/// are excluded so a category's total is the time it actually covers.
fn phase_totals(snapshot: &Snapshot) -> Vec<(String, u64)> {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for span in &snapshot.spans {
        totals.entry(span.cat).or_insert(0);
    }
    for (cat, total) in &mut totals {
        *total = snapshot.category_self_us(cat);
    }
    let mut rows: Vec<(String, u64)> = totals
        .into_iter()
        .map(|(cat, total)| (cat.to_string(), total))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// A snapshot ready to serialize as one dual-format trace file.
pub struct TraceArtifact<'a> {
    /// The figure (or job) the trace was recorded from.
    pub source: &'a str,
    /// The recorder contents to export.
    pub snapshot: &'a Snapshot,
}

impl<'a> TraceArtifact<'a> {
    /// Pairs a source name with a snapshot.
    pub fn new(source: &'a str, snapshot: &'a Snapshot) -> Self {
        TraceArtifact { source, snapshot }
    }

    /// The full document: artifact envelope fields plus `traceEvents`,
    /// newline-terminated.  Complete events are sorted by start time (ties
    /// by enter sequence) so per-thread timestamps are monotone, with
    /// `thread_name` metadata events first.
    pub fn render(&self) -> String {
        let mut events: Vec<&SpanEvent> = self.snapshot.spans.iter().collect();
        events.sort_by_key(|s| (s.start_us, s.enter_seq));
        let mut event_json = String::new();
        event_json.push('[');
        let mut sep = false;
        for (tid, label) in &self.snapshot.threads {
            if sep {
                event_json.push(',');
            }
            sep = true;
            let mut args = String::new();
            ObjectWriter::new(&mut args).field("name", label).finish();
            ObjectWriter::new(&mut event_json)
                .field("name", &"thread_name")
                .field("ph", &"M")
                .field("pid", &1usize)
                .field("tid", &u64::from(*tid))
                .field("args", &crate::json::RawJson(&args))
                .finish();
        }
        for event in events {
            if sep {
                event_json.push(',');
            }
            sep = true;
            CompleteEvent(event).write_json(&mut event_json);
        }
        event_json.push(']');
        let data = MetricsData {
            source: self.source,
            snapshot: self.snapshot,
        };
        let mut out = String::new();
        ObjectWriter::new(&mut out)
            .field("figure", &TRACE_FIGURE)
            .field("schema", &SCHEMA_VERSION)
            .field("data", &data)
            .field("traceEvents", &crate::json::RawJson(&event_json))
            .finish();
        out.push('\n');
        out
    }

    /// Renders, self-validates (envelope parse), and writes atomically.
    pub fn write(&self, path: &Path) -> Result<(), ArtifactError> {
        let out = self.render();
        ParsedArtifact::parse(&out)?;
        write_atomic(path, out.as_bytes()).map_err(|source| ArtifactError::Io {
            path: path.to_path_buf(),
            source,
        })
    }
}

/// The metrics summary as newline-delimited JSON: one `counter`,
/// `histogram`, or `phase` object per line.  `noc_serve` streams these on
/// stderr as progress events; they carry the same numbers the trace file
/// folds into its envelope.
pub fn metrics_ndjson(source: &str, snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (cat, total_us) in phase_totals(snapshot) {
        ObjectWriter::new(&mut out)
            .field("event", &"phase")
            .field("source", &source)
            .field("cat", &cat)
            .field("total_us", &total_us)
            .finish();
        out.push('\n');
    }
    for (name, value) in &snapshot.counters {
        ObjectWriter::new(&mut out)
            .field("event", &"counter")
            .field("source", &source)
            .field("name", name)
            .field("value", value)
            .finish();
        out.push('\n');
    }
    for (name, buckets) in &snapshot.histograms {
        ObjectWriter::new(&mut out)
            .field("event", &"histogram")
            .field("source", &source)
            .field("name", name)
            .field("buckets", buckets)
            .finish();
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

/// One complete event read back from a trace file.
#[derive(Debug, Clone, PartialEq)]
struct ReadEvent {
    name: String,
    cat: String,
    ts: u64,
    dur: u64,
    tid: u64,
    seq: u64,
    parent: u64,
}

/// One row of the per-phase breakdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Span category the row aggregates.
    pub cat: String,
    /// Spans counted into the row.
    pub spans: u64,
    /// Self time in microseconds (nested same-category spans excluded).
    pub total_us: u64,
}

/// A trace file reduced to the numbers `noc_profile` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// The figure the trace was recorded from (`data.source`).
    pub source: String,
    /// Wall time in µs: the duration of the root span (the parentless span
    /// with the longest duration), or the overall event extent if no span
    /// is parentless.
    pub wall_us: u64,
    /// µs of the root span's window during which at least one named phase
    /// span was active on any thread (merged intervals, so overlapping
    /// workers are not double-counted).
    pub attributed_us: u64,
    /// Per-category self time, largest first.
    pub phases: Vec<PhaseRow>,
    /// Counters from the metrics summary.
    pub counters: Vec<(String, u64)>,
}

fn read_u64(value: &JsonValue, key: &str) -> Option<u64> {
    let number = value.get(key)?.as_number()?;
    if number.is_finite() && number >= 0.0 {
        Some(number as u64)
    } else {
        None
    }
}

impl TraceSummary {
    /// Parses a trace file (envelope + `traceEvents`) into a summary.
    pub fn parse(text: &str) -> Result<TraceSummary, ArtifactError> {
        let envelope = ParsedArtifact::parse(text)?;
        if envelope.figure != TRACE_FIGURE {
            return Err(ArtifactError::Envelope(format!(
                "expected figure {TRACE_FIGURE:?}, found {:?}",
                envelope.figure
            )));
        }
        let source = envelope
            .data
            .get("source")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ArtifactError::Envelope("missing data field \"source\"".into()))?
            .to_string();
        let counters = envelope
            .data
            .get("counters")
            .and_then(JsonValue::as_array)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        let name = row.get("name")?.as_str()?.to_string();
                        Some((name, read_u64(row, "value")?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        // The envelope parse drops unknown keys; re-parse for traceEvents.
        let document = JsonValue::parse(text)?;
        let raw_events = document
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ArtifactError::Envelope("missing array \"traceEvents\"".into()))?;
        let mut events: Vec<ReadEvent> = Vec::new();
        for raw in raw_events {
            if raw.get("ph").and_then(JsonValue::as_str) != Some("X") {
                continue;
            }
            let event = (|| {
                Some(ReadEvent {
                    name: raw.get("name")?.as_str()?.to_string(),
                    cat: raw.get("cat")?.as_str()?.to_string(),
                    ts: read_u64(raw, "ts")?,
                    dur: read_u64(raw, "dur")?,
                    tid: read_u64(raw, "tid")?,
                    seq: read_u64(raw, "seq")?,
                    parent: read_u64(raw, "parent")?,
                })
            })();
            let event =
                event.ok_or_else(|| ArtifactError::Envelope("malformed complete event".into()))?;
            events.push(event);
        }
        Ok(TraceSummary::from_events(source, counters, &events))
    }

    fn from_events(
        source: String,
        counters: Vec<(String, u64)>,
        events: &[ReadEvent],
    ) -> TraceSummary {
        let cat_of: BTreeMap<u64, &str> = events.iter().map(|e| (e.seq, e.cat.as_str())).collect();
        let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for event in events {
            let row = totals.entry(event.cat.as_str()).or_insert((0, 0));
            row.0 += 1;
            if cat_of.get(&event.parent).copied() != Some(event.cat.as_str()) {
                row.1 = row.1.saturating_add(event.dur);
            }
        }
        let mut phases: Vec<PhaseRow> = totals
            .into_iter()
            .map(|(cat, (spans, total_us))| PhaseRow {
                cat: cat.to_string(),
                spans,
                total_us,
            })
            .collect();
        phases.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.cat.cmp(&b.cat)));

        let root = events
            .iter()
            .filter(|e| e.parent == 0)
            .max_by_key(|e| (e.dur, std::cmp::Reverse(e.seq)));
        let (wall_us, attributed_us) = match root {
            Some(root) => {
                // Union of every non-root span's interval, across all
                // threads, clipped to the root window: the share of wall
                // time during which at least one named phase was active
                // somewhere in the process.  Work mostly happens on
                // executor worker threads while the root span sits on
                // main, so a same-thread filter would see nothing.
                let window = (root.ts, root.ts.saturating_add(root.dur));
                let mut intervals: Vec<(u64, u64)> = events
                    .iter()
                    .filter(|e| e.seq != root.seq)
                    .map(|e| (e.ts.max(window.0), e.ts.saturating_add(e.dur).min(window.1)))
                    .filter(|(lo, hi)| lo < hi)
                    .collect();
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = window.0;
                for (lo, hi) in intervals {
                    let lo = lo.max(cursor);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
                (root.dur, covered)
            }
            None => {
                let lo = events.iter().map(|e| e.ts).min().unwrap_or(0);
                let hi = events
                    .iter()
                    .map(|e| e.ts.saturating_add(e.dur))
                    .max()
                    .unwrap_or(0);
                (hi.saturating_sub(lo), 0)
            }
        };
        TraceSummary {
            source,
            wall_us,
            attributed_us,
            phases,
            counters,
        }
    }

    /// Share of root-span wall time covered by named phases, in percent
    /// (100.0 when the trace has no wall time at all).
    pub fn attribution_pct(&self) -> f64 {
        if self.wall_us == 0 {
            return 100.0;
        }
        100.0 * self.attributed_us as f64 / self.wall_us as f64
    }

    /// The human-readable breakdown `noc_profile summary` prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace source: {}", self.source);
        let _ = writeln!(
            out,
            "wall time: {:.3} ms  attributed to named phases: {:.1}%",
            self.wall_us as f64 / 1000.0,
            self.attribution_pct()
        );
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>7}",
            "phase", "spans", "ms", "%"
        );
        for row in &self.phases {
            let pct = if self.wall_us == 0 {
                0.0
            } else {
                100.0 * row.total_us as f64 / self.wall_us as f64
            };
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12.3} {:>6.1}%",
                row.cat,
                row.spans,
                row.total_us as f64 / 1000.0,
                pct
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<40} {:>12}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<40} {value:>12}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_telemetry::SpanEvent;

    fn span(
        name: &str,
        cat: &'static str,
        start_us: u64,
        dur_us: u64,
        tid: u32,
        (enter_seq, exit_seq, parent_seq): (u64, u64, u64),
    ) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat,
            start_us,
            dur_us,
            tid,
            enter_seq,
            exit_seq,
            parent_seq,
            args: vec![("k".to_string(), ArgValue::U64(1))],
        }
    }

    fn sample_snapshot() -> Snapshot {
        let mut counters = BTreeMap::new();
        counters.insert("scc.full_recomputes".to_string(), 3u64);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "removal.dirty_region".to_string(),
            vec![HistBucket {
                lower: 0,
                upper: 0,
                count: 2,
            }],
        );
        let mut threads = BTreeMap::new();
        threads.insert(1u32, "main".to_string());
        threads.insert(2u32, "worker-0".to_string());
        Snapshot {
            spans: vec![
                // Root covers [0, 1000]; children tile [0, 990].
                span("sweep", "sweep", 0, 900, 1, (2, 7, 1)),
                span("point", "sweep", 10, 200, 2, (3, 4, 0)),
                span("write", "artifact", 900, 90, 1, (8, 9, 1)),
                span("fig8", "figure", 0, 1000, 1, (1, 10, 0)),
            ],
            counters,
            histograms,
            threads,
            dropped_spans: 0,
        }
    }

    #[test]
    fn trace_file_is_both_artifact_and_chrome_trace() {
        let snapshot = sample_snapshot();
        let text = TraceArtifact::new("fig8_d26_media", &snapshot).render();
        let envelope = ParsedArtifact::parse(&text).expect("valid artifact envelope");
        assert_eq!(envelope.figure, TRACE_FIGURE);
        assert_eq!(
            envelope.data.get("source").and_then(JsonValue::as_str),
            Some("fig8_d26_media")
        );
        let document = JsonValue::parse(&text).expect("valid JSON");
        let events = document
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        // 2 thread_name metadata events + 4 complete events.
        assert_eq!(events.len(), 6);
        let metadata: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
            .collect();
        assert_eq!(metadata.len(), 2);
        // Complete events are sorted by ts: per-thread timestamps monotone.
        let complete: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .map(|e| read_u64(e, "ts").expect("ts"))
            .collect();
        assert!(complete.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn summary_attributes_phase_time_to_the_root_window() {
        let snapshot = sample_snapshot();
        let text = TraceArtifact::new("fig8_d26_media", &snapshot).render();
        let summary = TraceSummary::parse(&text).expect("summary parses");
        assert_eq!(summary.source, "fig8_d26_media");
        assert_eq!(summary.wall_us, 1000);
        // Root-thread children: sweep [0,900] + write [900,990].
        assert_eq!(summary.attributed_us, 990);
        assert!((summary.attribution_pct() - 99.0).abs() < 1e-9);
        // Self time: "sweep" counts the worker point span too (its parent
        // is outside the trace), but not nested same-category spans.
        let sweep = summary.phases.iter().find(|p| p.cat == "sweep").unwrap();
        assert_eq!(sweep.spans, 2);
        assert_eq!(sweep.total_us, 1100);
        assert_eq!(summary.counters, vec![("scc.full_recomputes".into(), 3)]);
        let table = summary.render_table();
        assert!(table.contains("attributed to named phases: 99.0%"));
        assert!(table.contains("scc.full_recomputes"));
    }

    #[test]
    fn nested_same_category_spans_count_once() {
        let events = vec![
            ReadEvent {
                name: "outer".into(),
                cat: "removal".into(),
                ts: 0,
                dur: 100,
                tid: 1,
                seq: 1,
                parent: 0,
            },
            ReadEvent {
                name: "inner".into(),
                cat: "removal".into(),
                ts: 10,
                dur: 50,
                tid: 1,
                seq: 2,
                parent: 1,
            },
        ];
        let summary = TraceSummary::from_events("s".into(), Vec::new(), &events);
        let removal = summary.phases.iter().find(|p| p.cat == "removal").unwrap();
        assert_eq!(removal.spans, 2);
        assert_eq!(removal.total_us, 100);
    }

    #[test]
    fn summary_of_saturated_timestamps_does_not_overflow() {
        // Traces are untrusted input: `ts + dur` of the largest values a
        // JSON number can carry must saturate, not panic or wrap.
        let max = u64::MAX;
        let snapshot = Snapshot {
            spans: vec![
                span("a", "sweep", max, max, 1, (1, 2, 0)),
                span("b", "artifact", max, max, 1, (3, 4, 0)),
            ],
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            threads: BTreeMap::new(),
            dropped_spans: 0,
        };
        let text = TraceArtifact::new("overflow", &snapshot).render();
        assert!(text.contains("\"ts\":18446744073709551615"));
        let summary = TraceSummary::parse(&text).expect("summary parses");
        assert_eq!(summary.wall_us, max);
        assert_eq!(summary.attributed_us, 0);

        let event = |seq, parent| ReadEvent {
            name: "e".into(),
            cat: "removal".into(),
            ts: max,
            dur: max,
            tid: 1,
            seq,
            parent,
        };
        // Two unrelated same-category roots: their self times saturate.
        let summary =
            TraceSummary::from_events("s".into(), Vec::new(), &[event(1, 0), event(2, 9)]);
        assert_eq!(summary.phases[0].total_us, max);
        // No root span: the wall time is the saturated event extent.
        let summary =
            TraceSummary::from_events("s".into(), Vec::new(), &[event(1, 9), event(2, 9)]);
        assert_eq!(summary.wall_us, 0);
    }

    #[test]
    fn metrics_ndjson_is_one_valid_object_per_line() {
        let snapshot = sample_snapshot();
        let ndjson = metrics_ndjson("fig8", &snapshot);
        let lines: Vec<&str> = ndjson.lines().collect();
        // 3 phase categories + 1 counter + 1 histogram.
        assert_eq!(lines.len(), 5);
        for line in lines {
            let value = JsonValue::parse(line).expect("valid NDJSON line");
            assert!(value.get("event").and_then(JsonValue::as_str).is_some());
        }
        assert!(ndjson.contains("\"event\":\"counter\""));
        assert!(ndjson.contains("\"event\":\"histogram\""));
    }
}
