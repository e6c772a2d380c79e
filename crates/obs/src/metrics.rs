//! Lock-cheap metrics: atomic counters and log-bucketed histograms
//! behind a [`MetricsRegistry`].
//!
//! Design constraints, in order:
//!
//! 1. **Cheap when on.** Recording is one relaxed atomic RMW (plus two
//!    for histogram min/max). No locks, no allocation, no formatting on
//!    the hot path; names are resolved to dense indices at registration
//!    time.
//! 2. **Free when off.** Instrumented code holds an `Option<&...>`; the
//!    disabled path is a single never-taken branch.
//! 3. **Shareable.** Registration needs `&mut`, recording needs `&` —
//!    a registry is built up front and then shared by reference across
//!    scoped worker threads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds exactly the value 0; bucket `k ≥ 1` holds the range
/// `[2^(k−1), 2^k)`. Exact count/sum/min/max are tracked alongside, so
/// means are exact and only quantiles are approximate (within their
/// bucket, estimated by within-bucket linear interpolation).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Bucket index of a value: 0 for 0, else `64 − leading_zeros`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive-exclusive value range `[lo, hi)` covered by bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        (1u64 << (i - 1), if i >= 64 { u64::MAX } else { 1u64 << i })
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough snapshot (relaxed reads; exactness only
    /// matters once producers have quiesced, which is when reports are
    /// built).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets: Vec<(u64, u64, u64)> = (0..BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let (lo, hi) = bucket_range(i);
                    (lo, hi, n)
                })
            })
            .collect();
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let mut rank = q * count as f64;
            for &(lo, hi, n) in &buckets {
                if rank <= n as f64 {
                    let frac = (rank / n as f64).clamp(0.0, 1.0);
                    return lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                }
                rank -= n as f64;
            }
            self.max.load(Ordering::Relaxed) as f64
        };
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50: quantile(0.5),
            p90: quantile(0.9),
            p99: quantile(0.99),
            buckets,
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Exact mean (`sum / count`).
    pub mean: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 90th percentile.
    pub p90: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
    /// Non-empty buckets as `(lo, hi, count)` with values in `[lo, hi)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Handle to a registered counter (a dense index — `Copy`, no lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A named collection of counters and histograms.
///
/// Metrics are registered once (by `&mut`) and recorded concurrently
/// (by `&`). Registering the same name twice returns the existing
/// handle, so composable instrumentation cannot collide.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, Counter)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter named `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), Counter::new()));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a histogram named `name`.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `n` to a registered counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id.0].1.add(n);
    }

    /// Adds one to a registered counter.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Records an observation into a registered histogram.
    #[inline]
    pub fn record(&self, id: HistogramId, v: u64) {
        self.histograms[id.0].1.record(v);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1.get()
    }

    /// Snapshot of a single histogram.
    pub fn histogram_snapshot(&self, id: HistogramId) -> HistogramSnapshot {
        self.histograms[id.0].1.snapshot()
    }

    /// Snapshot of every registered metric, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(_, h)| h.count() > 0)
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time view of a whole [`MetricsRegistry`]. Empty histograms
/// are omitted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024] {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(lo <= v && (v < hi || hi == u64::MAX), "{v} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn histogram_summaries() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 110);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean - 22.0).abs() < 1e-9);
        assert!(s.p50 >= 1.0 && s.p50 <= 8.0, "p50 {}", s.p50);
        assert!(s.p99 >= 64.0, "p99 {} should land in the top bucket", s.p99);
        let total: u64 = s.buckets.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.mean, 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn registry_roundtrip_and_dedup() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("a");
        let a2 = r.counter("a");
        assert_eq!(a, a2);
        let h = r.histogram("h");
        r.add(a, 3);
        r.inc(a);
        r.record(h, 9);
        assert_eq!(r.counter_value(a), 4);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a"], 4);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn empty_histograms_omitted_from_snapshot() {
        let mut r = MetricsRegistry::new();
        let _ = r.histogram("never_recorded");
        assert!(r.snapshot().histograms.is_empty());
    }

    #[test]
    fn concurrent_recording() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                s.spawn(move || {
                    for v in 0..1000u64 {
                        r.inc(c);
                        r.record(h, v);
                    }
                });
            }
        });
        assert_eq!(r.counter_value(c), 4000);
        let snap = r.histogram_snapshot(h);
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 999);
    }
}
