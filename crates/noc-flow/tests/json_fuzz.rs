//! Seeded mutation fuzzing of the artifact and trace readers.
//!
//! Artifacts, job-store records and traces are read back from disk, so the
//! parsers face untrusted text.  Starting from a real rendered sweep
//! artifact and a real trace of the same sweep, every case applies a few
//! seeded mutations — byte flips, deletions, insertions of JSON-significant
//! tokens, splices of extreme numbers and duplicated trace events — and
//! checks that
//!
//! * [`JsonValue::parse`], [`ParsedArtifact::parse`] and
//!   [`TraceSummary::parse`] return (`Ok` or `Err`) instead of panicking,
//! * every document [`JsonValue::parse`] accepts round-trips:
//!   re-parsing its `to_json` rendering yields the same value.

use noc_flow::json::{Artifact, ParsedArtifact, ToJson};
use noc_flow::trace::{TraceArtifact, TraceSummary};
use noc_flow::{CycleBreaking, FlowSweep, JsonValue, ResourceOrdering};
use noc_rng::SmallRng;
use noc_telemetry::RecorderScope;
use noc_topology::benchmarks::Benchmark;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Mutated cases per seed document.
const CASES: usize = 1500;

/// Tokens an insertion splices in: structure, escapes and literals.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\udc00",
    "0",
    "-",
    "e",
    ".",
    "true",
    "null",
    " ",
    "\n",
    "\u{7f}",
    "é",
    "\u{10348}",
];

/// Number literals a digit splice writes over a run of digits.
const NUMBERS: &[&str] = &[
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "-0",
    "0.5",
    "1e308",
    "1e309",
    "1e-400",
    "4.9e-324",
    "9007199254740993",
    "00",
    "1.",
    "1e",
];

/// The two seed documents: a rendered D26_media sweep artifact and the
/// trace recorded while computing it.
fn corpus() -> &'static (String, String) {
    static CORPUS: OnceLock<(String, String)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let scope = RecorderScope::new();
        let points = FlowSweep::new()
            .benchmark(Benchmark::D26Media)
            .switch_counts([5, 8])
            .power_estimates(true)
            .certify(true)
            .run(&[&CycleBreaking::default(), &ResourceOrdering])
            .expect("the D26_media sweep runs");
        let snapshot = scope.recorder().snapshot();
        drop(scope);
        let artifact = Artifact::new("fig8_d26_media", &points).render();
        let trace = TraceArtifact::new("fig8_d26_media", &snapshot).render();
        (artifact, trace)
    })
}

/// Byte offsets where a digit run starts.
fn digit_runs(text: &[u8]) -> Vec<usize> {
    (0..text.len())
        .filter(|&i| text[i].is_ascii_digit() && (i == 0 || !text[i - 1].is_ascii_digit()))
        .collect()
}

/// Duplicates a few random elements of the document's `traceEvents` array
/// in place; documents without one are returned unchanged.
fn duplicate_events(text: &str, rng: &mut SmallRng) -> String {
    let Ok(JsonValue::Object(mut members)) = JsonValue::parse(text) else {
        return text.to_string();
    };
    for (key, value) in &mut members {
        if let (true, JsonValue::Array(events)) = (key == "traceEvents", value) {
            for _ in 0..rng.gen_range(1usize..4) {
                if events.is_empty() {
                    break;
                }
                let from = rng.gen_range(0..events.len());
                let to = rng.gen_range(0..events.len() + 1);
                let copy = events[from].clone();
                events.insert(to, copy);
            }
        }
    }
    JsonValue::Object(members).to_json()
}

/// Applies one to four seeded mutations to `seed`.
fn mutate(seed: &str, rng: &mut SmallRng) -> String {
    let mut text = seed.to_string();
    for _ in 0..rng.gen_range(1usize..5) {
        let mut bytes = text.into_bytes();
        match rng.gen_range(0usize..5) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0usize..8);
            }
            1 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(1usize..17).min(bytes.len() - at);
                bytes.drain(at..at + len);
            }
            2 => {
                let at = rng.gen_range(0..bytes.len() + 1);
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                bytes.splice(at..at, token.bytes());
            }
            3 => {
                let runs = digit_runs(&bytes);
                if !runs.is_empty() {
                    let at = runs[rng.gen_range(0..runs.len())];
                    let end = (at..bytes.len())
                        .find(|&i| !bytes[i].is_ascii_digit())
                        .unwrap_or(bytes.len());
                    let number = NUMBERS[rng.gen_range(0..NUMBERS.len())];
                    bytes.splice(at..end, number.bytes());
                }
            }
            _ => {
                let current = String::from_utf8_lossy(&bytes).into_owned();
                bytes = duplicate_events(&current, rng).into_bytes();
            }
        }
        // The readers take `&str`: byte flips and deletions that break
        // UTF-8 are mapped to replacement characters.
        text = String::from_utf8_lossy(&bytes).into_owned();
    }
    text
}

/// Runs every reader on `text` and checks the round-trip property.
fn check_readers(text: &str) {
    if let Ok(value) = JsonValue::parse(text) {
        let rendered = value.to_json();
        let reparsed = JsonValue::parse(&rendered)
            .unwrap_or_else(|e| panic!("accepted value renders unparseable JSON: {e}"));
        assert_eq!(reparsed, value, "accepted value does not round-trip");
    }
    let _ = ParsedArtifact::parse(text);
    let _ = TraceSummary::parse(text);
}

/// Fuzzes `CASES` mutations of `seed_text`; a failing case reports its
/// seed and case index so it can be replayed.
fn fuzz(label: &str, seed_text: &str, seed: u64) {
    check_readers(seed_text);
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..CASES {
        let text = mutate(seed_text, &mut rng);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check_readers(&text))) {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            panic!("{label}: seed {seed:#x}, case {case}: {message}");
        }
    }
}

#[test]
fn mutated_artifacts_never_panic_the_readers() {
    let (artifact, _) = corpus();
    assert!(ParsedArtifact::parse(artifact).is_ok());
    fuzz("artifact", artifact, 0xA27_1FAC);
}

#[test]
fn mutated_traces_never_panic_the_readers() {
    let (_, trace) = corpus();
    let summary = TraceSummary::parse(trace).expect("the recorded trace parses");
    assert!(summary.wall_us > 0);
    fuzz("trace", trace, 0x7_2ACE);
}
