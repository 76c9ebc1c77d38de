//! The metric registry: named counters, gauges and log-linear histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of an
//! `Option<Arc<..>>`; a handle minted from a disabled [`crate::Obs`] is
//! `None` and every operation on it is a single never-taken branch, so
//! hot loops can hoist the registry lookup once and record unconditionally.
//!
//! Histograms are **log-linear** (HDR-style): values below
//! [`LINEAR_BUCKETS`] get exact unit buckets, and every power-of-two
//! octave above that is split into [`SUB_BUCKETS`] equal sub-buckets —
//! constant relative error (≤ 1/16) across the full `u64` range with a
//! fixed [`BUCKETS`]-slot array and wait-free atomic recording.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Values below this get exact unit buckets.
pub const LINEAR_BUCKETS: u64 = 16;
/// Sub-buckets per power-of-two octave above the linear range.
pub const SUB_BUCKETS: usize = 16;
/// Total bucket count: 16 linear + 16 per octave for octaves 4..=63.
pub const BUCKETS: usize = LINEAR_BUCKETS as usize + (63 - 4 + 1) * SUB_BUCKETS;

/// The bucket index recording `v`. Total over `0..=u64::MAX`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4 since v >= 16
        let sub = ((v >> (msb - 4)) & 15) as usize;
        LINEAR_BUCKETS as usize + (msb - 4) * SUB_BUCKETS + sub
    }
}

/// The inclusive `(lo, hi)` value range of bucket `i` — the exact inverse
/// of [`bucket_index`]: every `v` in the range maps back to `i`, and
/// consecutive buckets tile `u64` with no gaps.
///
/// # Panics
///
/// Panics if `i >= BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket {i} out of range");
    if i < LINEAR_BUCKETS as usize {
        (i as u64, i as u64)
    } else {
        let msb = (i - LINEAR_BUCKETS as usize) / SUB_BUCKETS + 4;
        let sub = ((i - LINEAR_BUCKETS as usize) % SUB_BUCKETS) as u64;
        let width = 1u64 << (msb - 4);
        let lo = (1u64 << msb) + sub * width;
        (lo, lo + (width - 1))
    }
}

/// A monotone event counter. Disabled handles are free to call.
#[derive(Clone, Default, Debug)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current total (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins instantaneous gauge.
#[derive(Clone, Default, Debug)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrites the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (a high-water mark).
    #[inline]
    pub fn fetch_max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Shared histogram state: wait-free recording into atomic buckets.
#[derive(Debug)]
pub(crate) struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistInner {
    fn new() -> HistInner {
        HistInner {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-linear latency/size histogram.
#[derive(Clone, Default, Debug)]
pub struct Histogram(pub(crate) Option<Arc<HistInner>>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.max.load(Ordering::Relaxed))
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` (0.0..=1.0), reported as the upper bound
    /// of the bucket holding that rank (clamped to the exact max). 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(h) = &self.0 else { return 0 };
        let n = h.count.load(Ordering::Relaxed);
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in h.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_bounds(i).1.min(h.max.load(Ordering::Relaxed));
            }
        }
        h.max.load(Ordering::Relaxed)
    }
}

/// A thread-safe name → metric map. Lookups take a lock; the returned
/// handles do not, so callers hoist them out of hot loops.
#[derive(Default, Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<HistInner>>>,
}

impl Registry {
    /// Gets or registers the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.counters.lock().expect("registry poisoned");
        Counter(Some(m.entry(name.to_string()).or_default().clone()))
    }

    /// Gets or registers the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.gauges.lock().expect("registry poisoned");
        Gauge(Some(m.entry(name.to_string()).or_default().clone()))
    }

    /// Gets or registers the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.hists.lock().expect("registry poisoned");
        Histogram(Some(
            m.entry(name.to_string()).or_insert_with(|| Arc::new(HistInner::new())).clone(),
        ))
    }

    /// Every counter as `(name, value)`, name-sorted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let m = self.counters.lock().expect("registry poisoned");
        m.iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect()
    }

    /// Every gauge as `(name, value)`, name-sorted.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let m = self.gauges.lock().expect("registry poisoned");
        m.iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect()
    }

    /// Every histogram as `(name, handle)`, name-sorted.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let m = self.hists.lock().expect("registry poisoned");
        m.iter().map(|(k, v)| (k.clone(), Histogram(Some(v.clone())))).collect()
    }

    /// A fixed-width plain-text table of every metric — the `profile`
    /// subcommand's summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let w = 28;
        for (name, v) in self.counters() {
            out.push_str(&format!("counter  {name:<w$} {v}\n"));
        }
        for (name, v) in self.gauges() {
            out.push_str(&format!("gauge    {name:<w$} {v}\n"));
        }
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "hist     {name:<w$} count={} mean={:.1} p50={} p90={} p99={} max={}\n",
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_identity_below_linear_range() {
        for v in 0..LINEAR_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        // Every bucket's bounds map back to that bucket, at both edges.
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn buckets_tile_u64_without_gaps() {
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} starts where {} ended", i.max(1) - 1);
            assert!(hi >= lo);
            if i == BUCKETS - 1 {
                assert_eq!(hi, u64::MAX);
            } else {
                expect_lo = hi + 1;
            }
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Above the linear range each bucket spans < 1/16 of its lo value.
        for v in [16u64, 100, 1000, 12_345, 1 << 20, u64::MAX / 3, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            assert!((hi - lo) as f64 <= lo as f64 / 16.0 + 1.0, "bucket too wide at {v}");
        }
    }

    #[test]
    fn quantiles_and_moments() {
        let r = Registry::default();
        let h = r.histogram("t");
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        // Bucketed quantiles carry ≤ 1/16 relative error.
        assert!((44..=57).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn registry_reuses_metrics_by_name() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("x").get(), 3);
        let g = r.gauge("w");
        g.set(7);
        g.fetch_max(3);
        assert_eq!(r.gauge("w").get(), 7);
        assert_eq!(r.counters(), vec![("x".to_string(), 3)]);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::default();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = Histogram::default();
        h.record(123);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
