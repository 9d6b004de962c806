//! What one pass over a workload produced: per-operation host latencies,
//! output-check outcomes, a digest of every modelled and simulated output,
//! and the modelled counts the metrics are built from.

use crate::host::Stretches;
use std::time::Instant;

/// FNV-1a over 64-bit words: a stable, dependency-free digest of the
/// modelled outputs.  Two passes (or two builds) that compute the same
/// breaks, VCs and simulator statistics produce the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds several words into the digest.
    pub fn words(&mut self, values: &[u64]) {
        for value in values {
            self.bytes(&value.to_le_bytes());
        }
    }

    /// Folds a string (its length, then its bytes) into the digest.
    pub fn text(&mut self, text: &str) {
        self.words(&[text.len() as u64]);
        self.bytes(text.as_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Everything one pass recorded.
#[derive(Debug, Default)]
pub struct PassRecord {
    /// Host latency of every operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations attempted.
    pub ops: u64,
    /// Operations with at least one failed output check.
    pub failed_ops: u64,
    /// The first few failed checks, for the report.
    pub failures: Vec<String>,
    /// Digest of the modelled and simulated outputs.
    pub digest: Digest,
    /// VCs added by Algorithm 1 (cycle breaking).
    pub added_vcs: u64,
    /// CDG cycles Algorithm 1 broke.
    pub cycles_broken: u64,
    /// Simulated cycles over all simulator runs.
    pub sim_cycles: u64,
    /// Flits delivered over all simulator runs.
    pub delivered_flits: u64,
    /// Deadlocks the runtime detector reported (run-ending detections plus
    /// detections that triggered a recovery drain).
    pub detections: u64,
    /// DBR drain events executed by the recovery policy.
    pub drain_events: u64,
    /// Fault-reconfiguration epochs committed.
    pub reconfig_epochs: u64,
    /// Epochs that needed the scoped-drain fallback.
    pub drain_fallbacks: u64,
    /// Simulated latency of every packet delivered under a safe policy.
    pub latencies: Vec<u64>,
    /// Bytes of the rendered artifact.
    pub json_bytes: u64,
    /// Host-speed probes between operations, in a timed pass.
    pub stretches: Option<Stretches>,
    op_failed: bool,
}

impl PassRecord {
    /// Runs one operation, timing it and counting it as failed when any
    /// [`check`](Self::check) inside it fails.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op_failed = false;
        let start = Instant::now();
        let value = f(self);
        self.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.ops += 1;
        if self.op_failed {
            self.failed_ops += 1;
        }
        if let Some(stretches) = &mut self.stretches {
            stretches.between_ops();
        }
        value
    }

    /// Records one output check; a failure marks the current operation
    /// failed instead of panicking.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.op_failed = true;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Counts a check made outside any timed operation (set-up, or a
    /// cross-pass comparison) as one operation of its own.
    pub fn standalone_check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed_ops += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Derives an independent sub-seed from the workload seed (SplitMix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    #[test]
    fn failed_checks_count_operations_not_panics() {
        let mut rec = PassRecord::default();
        rec.op(|r| r.check(true, || "fine".into()));
        rec.op(|r| {
            r.check(false, || "first".into());
            r.check(false, || "second".into());
        });
        assert_eq!((rec.ops, rec.failed_ops), (2, 1));
        assert_eq!(rec.failures, ["first", "second"]);
    }
}
