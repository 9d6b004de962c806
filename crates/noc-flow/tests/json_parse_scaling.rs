//! The JSON parser reads every artifact back (`Artifact::write` re-parses
//! its own output, and traces run to megabytes), so it must take time
//! linear in the input.  A string-heavy document four times larger must
//! parse in well under sixteen times as long, the ratio a parser that
//! re-scans the rest of the buffer per string character would show.

use noc_flow::JsonValue;
use std::time::{Duration, Instant};

/// An array of `records` objects whose values are mostly long strings,
/// with multi-byte characters and escapes mixed in.
fn string_heavy_document(records: usize) -> String {
    let mut doc = String::from("[");
    for i in 0..records {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "{{\"name\":\"flow-{i:06} from core-{i} to core-{j} über die Brücke\",\
             \"note\":\"line one\\nline \\\"two\\\" with a tab\\there and more text\",\
             \"id\":{i}}}",
            j = i * 7 % 1000
        ));
    }
    doc.push(']');
    doc
}

/// Fastest of a few parses, so scheduler noise only ever shortens the
/// measurement towards the true cost.
fn best_parse_time(doc: &str, records: usize) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let value = JsonValue::parse(doc).expect("the document is valid JSON");
            let elapsed = start.elapsed();
            assert_eq!(value.as_array().map(<[JsonValue]>::len), Some(records));
            elapsed
        })
        .min()
        .expect("at least one run")
}

#[test]
fn parse_time_grows_linearly_with_string_heavy_input() {
    let small_records = 1_000;
    let large_records = 4 * small_records;
    let small = string_heavy_document(small_records);
    let large = string_heavy_document(large_records);
    assert!(
        small.len() > 100_000,
        "the small document is {} bytes",
        small.len()
    );

    // Warm up allocator and caches before timing.
    best_parse_time(&small, small_records);
    let small_time = best_parse_time(&small, small_records);
    let large_time = best_parse_time(&large, large_records);
    let ratio = large_time.as_secs_f64() / small_time.as_secs_f64().max(1e-9);
    assert!(
        ratio < 8.0,
        "4x the input took {ratio:.1}x the time ({small_time:?} -> {large_time:?}); \
         linear parsing should stay near 4x"
    );
}
