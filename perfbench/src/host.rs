//! The host-speed probe and the reference seconds every host time is
//! reported in.
//!
//! The benchmark runs on shared machines whose speed drifts.  Other
//! tenants' cache and memory traffic slows every operation alike, by up to
//! about 1.7x, in stretches that last from under a second to many minutes,
//! so two runs of the same code can differ by more than any useful
//! regression bound.  The probe is a small fixed task with the same
//! character as the workloads (allocation and pointer-chasing over an
//! ordered map of several megabytes, larger than a core's private caches,
//! like the workloads' own data) that is timed before and after
//! every timed pass, and between its operations every
//! [`PROBE_EVERY_S`].  A stretch of host time between two probes is then
//! reported in reference seconds: its wall time times [`REFERENCE_S`]
//! divided by the mean of the two probe times around it, which is the time
//! it would have taken on a host where the probe takes exactly
//! [`REFERENCE_S`].  A pass is the sum of its stretches, so a long pass is
//! scaled by the host speed of each stretch, not only of its two ends.
//!
//! The probe calls no layer crate, so no change to the program moves it.
//! It must itself never change: it is the yardstick that makes runs of two
//! commits comparable.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time of the reference host.  A fixed round figure, a little under
/// the fastest probe times seen on the shared Intel Xeon vCPUs the
/// benchmark was written on (36–56 ms), so reference seconds read somewhat
/// below host seconds.  Like the probe, it must never change.
pub const REFERENCE_S: f64 = 0.032;

/// Host time after which a pass probes again, at the next gap between two
/// operations.  The host's slow stretches can be shorter than a second.
pub const PROBE_EVERY_S: f64 = 0.5;

/// Keys inserted into, then looked up in, the probe's ordered map.
const KEYS: u64 = 80_000;

/// Words in each value of the map: with the keys, about 6 MB in all.
const VALUE_WORDS: usize = 8;

/// Runs the probe once and returns its wall time in seconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        // xorshift64: a fixed key sequence, independent of any crate.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % 10_000_019
    };
    let mut map = BTreeMap::new();
    for i in 0..KEYS {
        map.insert(next(), [i; VALUE_WORDS]);
    }
    let mut sum = 0u64;
    for _ in 0..KEYS {
        if let Some(value) = map.get(&next()) {
            sum = sum.wrapping_add(value[VALUE_WORDS - 1]);
        }
    }
    black_box(sum);
    drop(black_box(map));
    start.elapsed().as_secs_f64()
}

/// The factor that turns host seconds measured between two probes into
/// reference seconds.
pub fn scale(probe_before_s: f64, probe_after_s: f64) -> f64 {
    REFERENCE_S / ((probe_before_s + probe_after_s) / 2.0)
}

/// The stretches of one pass between probes.
#[derive(Debug)]
pub struct Stretches {
    /// The probe that opened the current stretch, in host seconds.
    probe_before_s: f64,
    start: Instant,
    /// The closed stretches, in host and in reference seconds.
    host_s: f64,
    reference_s: f64,
    /// Every probe taken, in host seconds.
    probes_s: Vec<f64>,
}

impl Stretches {
    /// Opens the first stretch, after a probe that took `probe_before_s`.
    pub fn start(probe_before_s: f64) -> Self {
        Stretches {
            probe_before_s,
            start: Instant::now(),
            host_s: 0.0,
            reference_s: 0.0,
            probes_s: Vec::new(),
        }
    }

    /// Called between two operations: probes when the current stretch has
    /// lasted [`PROBE_EVERY_S`].
    pub fn between_ops(&mut self) {
        if self.start.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            let _span = noc_telemetry::span(crate::layers::CATEGORY, crate::layers::PROBE);
            self.cut();
        }
    }

    /// Closes the current stretch with a probe and opens the next one.
    fn cut(&mut self) {
        let host_s = self.start.elapsed().as_secs_f64();
        let probe_s = probe();
        self.host_s += host_s;
        self.reference_s += host_s * scale(self.probe_before_s, probe_s);
        self.probes_s.push(probe_s);
        self.probe_before_s = probe_s;
        self.start = Instant::now();
    }

    /// Closes the last stretch with a probe.  Returns the pass in host and
    /// in reference seconds, probes excluded, and every probe time.
    pub fn finish(mut self) -> (f64, f64, Vec<f64>) {
        self.cut();
        (self.host_s, self.reference_s, self.probes_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_reference_speed_keeps_its_seconds() {
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        // A host running the probe twice as slowly halves every time.
        assert_eq!(scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
        assert!(probe() > 0.0);
    }

    #[test]
    fn stretches_exclude_the_probes_and_end_with_one() {
        let stretches = Stretches::start(REFERENCE_S);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (host_s, reference_s, probes_s) = stretches.finish();
        assert_eq!(probes_s.len(), 1);
        assert!(host_s >= 0.002);
        let expected = host_s * scale(REFERENCE_S, probes_s[0]);
        assert!((reference_s - expected).abs() < 1e-12);
    }
}
