//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the named workload's inputs from the seed, runs one reference
//! pass that fixes the output digest, times the set-up again, then
//! alternates untraced and traced passes until `--seconds` have elapsed
//! since the reference pass began.  Every host time is reported in
//! reference seconds (see [`host`]).
//! End-to-end metrics come from the untraced passes; per-layer metrics
//! from the traced ones, where the telemetry recorder is installed and
//! every call into a layer crate sits inside a span.  Every pass checks
//! its outputs; a failed check counts against the run instead of
//! panicking.  The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  See `README.md` for the workloads and metrics.

mod artifact;
mod host;
mod layers;
mod record;
mod workloads;

use layers::{attribute, Attribution, CATEGORY, LAYERS, PASS};
use noc_flow::trace::TraceArtifact;
use record::{median, percentile, Digest, PassRecord};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed set-up runs at least this many times after the reference pass and
/// until [`SETUP_BUDGET_S`] has passed (at most [`SETUP_MAX_REPS`] times),
/// then once more after every untraced/traced pair, so its samples see the
/// same machine conditions as the passes; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.3;
const SETUP_MAX_REPS: usize = 200;

/// Fewest untraced and traced passes a run makes, however long they take.
const MIN_PASSES: usize = 2;

const USAGE: &str = "usage: perfbench --workload <paper_flow|torus_removal|sim_sweep|fault_storm> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static workloads::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let spec = workloads::ALL
                    .iter()
                    .find(|s| s.name == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(spec);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One traced pass: its wall time, attribution and telemetry counters.
struct TracedPass {
    /// Wall time in reference seconds.
    wall_s: f64,
    /// The factor from host to reference seconds around this pass.
    scale: f64,
    attribution: Attribution,
    cycle_queries: u64,
    detector_calls: u64,
    spans: u64,
    dropped: u64,
}

/// Everything one run measured.  Times are in reference seconds unless
/// named host times.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    /// The reference pass: its outputs define the digest and the counts.
    reference: PassRecord,
    untraced_s: Vec<f64>,
    /// Host wall time of the untraced passes, before scaling.
    host_untraced_s: Vec<f64>,
    /// Peak resident set after set-up and the reference pass, in MiB.
    peak_rss_mb: f64,
    /// Every probe time of the run, in host seconds.
    probe_s: Vec<f64>,
    traced: Vec<TracedPass>,
    /// Latency of every operation of the untraced passes, ascending.
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The last traced pass, kept for export.
    last_trace: Option<noc_telemetry::Snapshot>,
}

impl Run {
    /// Probes the host and returns the factor from host to reference
    /// seconds for the span since the previous probe.
    fn probe(&mut self) -> f64 {
        let before = self.probe_s.last().copied();
        let now = host::probe();
        self.probe_s.push(now);
        host::scale(before.unwrap_or(now), now)
    }

    /// A record for a timed pass, probing the host between its operations.
    fn probed_record(&self) -> PassRecord {
        let before = *self.probe_s.last().expect("a probe precedes every pass");
        let mut rec = PassRecord::default();
        rec.stretches = Some(host::Stretches::start(before));
        rec
    }

    /// Closes a timed pass's probing.  Returns its time in reference
    /// seconds and the factor from its host seconds to those.
    fn finish_probed(&mut self, rec: &mut PassRecord) -> (f64, f64) {
        let stretches = rec.stretches.take().expect("a probed record");
        let (host_s, reference_s, mut probes_s) = stretches.finish();
        self.probe_s.append(&mut probes_s);
        (reference_s, reference_s / host_s)
    }

    /// Folds one record's check outcomes into the run.
    fn tally(&mut self, rec: &mut PassRecord) {
        self.attempted += rec.ops;
        self.failed += rec.failed_ops;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(rec.failures.drain(..).take(room));
    }
}

/// Checks that a pass reproduced the reference pass's outputs.
fn check_digest(rec: &mut PassRecord, reference: Digest) {
    let digest = rec.digest;
    rec.standalone_check(digest == reference, || {
        format!(
            "pass digest {:016x} differs from the reference {:016x}",
            digest.value(),
            reference.value()
        )
    });
}

/// Builds the workload's inputs once more and returns how long it took.
fn timed_setup(args: &Args) -> f64 {
    let start = Instant::now();
    let built = (args.workload.setup)(args.seed, &mut PassRecord::default());
    let elapsed = start.elapsed().as_secs_f64();
    drop(built);
    elapsed
}

fn measure(args: &Args) -> Run {
    let mut run = Run::default();
    // The first set-up builds the inputs, and only its checks count; the
    // timed repetitions below build the same inputs again.
    let mut setup_rec = PassRecord::default();
    let workload = (args.workload.setup)(args.seed, &mut setup_rec);

    // The reference pass also warms caches and the allocator; it counts
    // towards the measuring time but not towards the timings.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reference = PassRecord::default();
    workload.pass(&mut reference);
    let digest = reference.digest;
    run.tally(&mut setup_rec);
    run.tally(&mut reference);
    // Read before the host probe's own memory joins the process.
    run.peak_rss_mb = peak_rss_mb();

    // The set-up repetitions share the probes around them; the first
    // probe warms the allocator and is not counted.
    host::probe();
    run.probe();
    let mut setup_s = Vec::new();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < SETUP_MAX_REPS)
    {
        setup_s.push(timed_setup(args));
    }
    let scale = run.probe();
    run.setup_s = setup_s.iter().map(|s| s * scale).collect();

    while Instant::now() < deadline || run.traced.len() < MIN_PASSES {
        let mut rec = run.probed_record();
        workload.pass(&mut rec);
        let (wall_s, scale) = run.finish_probed(&mut rec);
        run.host_untraced_s.push(wall_s / scale);
        run.untraced_s.push(wall_s);
        run.op_ms.extend(rec.op_ms.drain(..).map(|ms| ms * scale));
        check_digest(&mut rec, digest);
        run.tally(&mut rec);

        let recorder = noc_telemetry::install_recorder();
        let mut rec = run.probed_record();
        let pass_span = noc_telemetry::span(CATEGORY, PASS);
        let pass_seq = pass_span.enter_seq().expect("the recorder is installed");
        workload.pass(&mut rec);
        drop(pass_span);
        noc_telemetry::uninstall_recorder();
        let (wall_s, scale) = run.finish_probed(&mut rec);
        let snapshot = recorder.snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        run.traced.push(TracedPass {
            wall_s,
            scale,
            attribution: attribute(&snapshot, pass_seq),
            cycle_queries: counter("cycles.queries"),
            detector_calls: counter("vc.detector_invocations"),
            spans: recorder.spans_closed(),
            dropped: snapshot.dropped_spans,
        });
        check_digest(&mut rec, digest);
        run.tally(&mut rec);
        run.last_trace = Some(snapshot);

        let host_s = timed_setup(args);
        let scale = run.probe();
        run.setup_s.push(host_s * scale);
    }
    run.op_ms.sort_by(f64::total_cmp);
    run.reference = reference;
    run
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The metric name of a layer's self time.
fn layer_metric(layer: &str) -> String {
    match layer {
        "graph.cycle_search" | "graph.scc" => format!("{layer}_self_ms"),
        _ => format!("{layer}_ms"),
    }
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&run.setup_s), "s"),
        metric("wall_s", median(&run.untraced_s), "s"),
        metric("traced_wall_s", traced_wall_s(run), "s"),
        metric("peak_rss_mb", run.peak_rss_mb, "MB"),
        metric("added_vcs", run.reference.added_vcs as f64, "count"),
    ]
}

fn traced_wall_s(run: &Run) -> f64 {
    median(&run.traced.iter().map(|t| t.wall_s).collect::<Vec<_>>())
}

/// Percentiles of the operation latencies, or `None` with fewer than ten
/// samples beyond the percentile.
fn op_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let beyond = sorted.len() as f64 * (1.0 - p / 100.0);
    if beyond < 10.0 {
        return None;
    }
    percentile(sorted, p)
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let traced_median =
        |f: &dyn Fn(&TracedPass) -> f64| median(&run.traced.iter().map(f).collect::<Vec<_>>());
    let reference = &run.reference;
    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|&layer| {
            let ms = traced_median(&|t| t.attribution.layer_ms(layer) * t.scale);
            metric(layer_metric(layer), ms, "ms")
        })
        .collect();
    let detector_calls = traced_median(&|t| t.detector_calls as f64);
    let sim_ms = traced_median(&|t| {
        (t.attribution.layer_ms("sim.run") + t.attribution.layer_ms("sim.fault_run")) * t.scale
    });
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    metrics.extend([
        metric(
            "graph.cycle_queries",
            traced_median(&|t| t.cycle_queries as f64),
            "count",
        ),
        metric(
            "core.cycles_broken",
            reference.cycles_broken as f64,
            "count",
        ),
        metric("core.added_vcs", reference.added_vcs as f64, "count"),
        metric("sim.cycles", reference.sim_cycles as f64, "count"),
        metric(
            "sim.delivered_flits",
            reference.delivered_flits as f64,
            "count",
        ),
        metric(
            "sim.host_ns_per_sim_cycle",
            ratio(sim_ms * 1e6, reference.sim_cycles as f64),
            "ns",
        ),
        metric("sim.detector_calls", detector_calls, "count"),
        metric(
            "sim.detector_hit_ratio",
            ratio(reference.detections as f64, detector_calls),
            "ratio",
        ),
        metric("sim.drain_events", reference.drain_events as f64, "count"),
        metric(
            "sim.reconfig_epochs",
            reference.reconfig_epochs as f64,
            "count",
        ),
        metric(
            "sim.drain_fallbacks",
            reference.drain_fallbacks as f64,
            "count",
        ),
        metric("json.bytes", reference.json_bytes as f64, "bytes"),
        metric(
            "telemetry.overhead_ratio",
            ratio(traced_wall_s(run), median(&run.untraced_s)),
            "ratio",
        ),
        metric(
            "telemetry.spans_recorded",
            traced_median(&|t| t.spans as f64),
            "count",
        ),
        metric(
            "telemetry.dropped_spans",
            run.traced.iter().map(|t| t.dropped).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "telemetry.attributed_share",
            traced_median(&|t| t.attribution.attributed_share()),
            "ratio",
        ),
        metric("host.probe_ms", median(&run.probe_s) * 1e3, "ms"),
        metric("host.wall_s", median(&run.host_untraced_s), "s"),
    ]);
    metrics
}

/// End-to-end figures that only some workloads define.  They are printed
/// with the end-to-end metrics and ride in the JSON with the per-layer
/// metrics, which carry no bound.
fn workload_specific(run: &Run) -> Vec<Metric> {
    let reference = &run.reference;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut latencies = reference.latencies.clone();
    latencies.sort_unstable();
    vec![
        metric(
            "op_ms.p50",
            percentile(&run.op_ms, 50.0).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "op_ms.p90",
            percentile(&run.op_ms, 90.0).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "sim_cycles_per_s",
            ratio(reference.sim_cycles as f64, median(&run.untraced_s)),
            "cycles/s",
        ),
        metric(
            "sim_latency_cycles.p50",
            percentile(&latencies, 50.0).unwrap_or(0) as f64,
            "cycles",
        ),
        metric(
            "sim_latency_cycles.p99",
            percentile(&latencies, 99.0).unwrap_or(0) as f64,
            "cycles",
        ),
        metric(
            "fail_ratio",
            ratio(run.failed as f64, run.attempted as f64),
            "ratio",
        ),
    ]
}

/// Writes the last traced pass as a Chrome trace under the build
/// directory, which the benchmark already owns.
fn export_trace(run: &Run, args: &Args) -> Option<PathBuf> {
    let snapshot = run.last_trace.as_ref()?;
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench");
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name, args.seed));
    let source = format!("perfbench {}", args.workload.name);
    let text = TraceArtifact::new(&source, snapshot).render();
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::write(&path, text).ok()?;
    Some(path)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn report(run: &Run, args: &Args) {
    let name = args.workload.name;
    println!(
        "# perfbench {name} seed {}: set-up x{}, 1 reference + {} untraced + {} traced passes",
        args.seed,
        run.setup_s.len(),
        run.untraced_s.len(),
        run.traced.len()
    );
    println!(
        "digest {name} seed {}: {:016x}",
        args.seed,
        run.reference.digest.value()
    );
    let seconds = |v: Vec<f64>| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "untraced passes (host s): {}",
        seconds(run.host_untraced_s.clone())
    );
    println!("untraced passes (s): {}", seconds(run.untraced_s.clone()));
    println!(
        "traced passes (s):   {}",
        seconds(run.traced.iter().map(|t| t.wall_s).collect())
    );
    println!(
        "checks: {} operations attempted, {} failed",
        run.attempted, run.failed
    );
    for failure in &run.failures {
        println!("  FAILED: {failure}");
    }

    let e2e = end_to_end(run);
    let specific = workload_specific(run);
    let layers = per_layer(run);
    let find = |name: &str| layers.iter().find(|m| m.name == name).map(|m| m.value);
    println!(
        "end-to-end (untraced passes; n = {} operations):",
        run.op_ms.len()
    );
    let has_sim = run.reference.sim_cycles > 0;
    for m in e2e.iter().chain(&specific) {
        let missing = match m.name.as_str() {
            "op_ms.p50" | "op_ms.p90" => {
                let p = if m.name.ends_with("50") { 50.0 } else { 90.0 };
                op_percentile(&run.op_ms, p)
                    .is_none()
                    .then_some("fewer than 10 samples beyond it")
            }
            name if name.starts_with("sim_") && !has_sim => Some("no simulation in this workload"),
            _ => None,
        };
        match missing {
            None => println!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit),
            Some(why) => println!("  {:<24} {:>16} ({why})", m.name, "n/a"),
        }
    }

    let traced = traced_wall_s(run);
    println!("per-layer self time (median traced pass, {:.3} s):", traced);
    for &layer in &LAYERS {
        let ms = find(&layer_metric(layer)).unwrap_or(0.0);
        if ms > 0.0 {
            println!(
                "  {:<24} {:>12.3} ms {:>6.1}%",
                layer,
                ms,
                100.0 * ms / (traced * 1e3)
            );
        }
    }
    println!(
        "  attributed to named layers: {:.1}% of traced_wall_s",
        100.0 * find("telemetry.attributed_share").unwrap_or(0.0)
    );
    let is_layer_time = |m: &Metric| LAYERS.iter().any(|&layer| layer_metric(layer) == m.name);
    for m in layers.iter().filter(|m| !is_layer_time(m)) {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        if let Some(path) = export_trace(run, args) {
            println!("trace of the last traced pass: {}", path.display());
        }
    }

    let metrics = if args.trace {
        layers.into_iter().chain(specific).collect()
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        json_metrics(&metrics)
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = measure(&args);
    report(&run, &args);
    ExitCode::SUCCESS
}
