//! Live progress: a lock-free done/total/phase tracker threaded through
//! the grid executor, the SAT attack's DIP loop, and the DSE engine —
//! the per-job heartbeat a daemon (ROADMAP item 2) can stream.
//!
//! [`ProgressTracker`] follows the same `Option<Arc>` discipline as
//! [`crate::Obs`]: the default handle is disabled and every operation
//! on it is a single never-taken branch, so instrumented code pays
//! nothing until a caller attaches a tracker. The hot path
//! ([`ProgressTracker::tick`]) is atomics only; snapshots are published
//! to a pluggable [`ProgressSink`] at a stride of the total (so a
//! million ticks cause ~hundreds of publishes, not a million).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Phase-name slots: registration is rare (a handful per run), so a
/// fixed capacity with first-fit scan keeps reads lock-free.
const MAX_PHASES: usize = 32;

/// A point-in-time view of the tracked job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Current phase label (empty before the first `set_phase`).
    pub phase: &'static str,
    /// Work items finished so far.
    pub done: u64,
    /// Work items announced so far (callers `add_total` up front, so
    /// this is deterministic at any worker count).
    pub total: u64,
    /// Nanoseconds since the tracker was created.
    pub elapsed_ns: u64,
    /// Naive remaining-time estimate (`elapsed * remaining / done`),
    /// absent until the first item completes or once done ≥ total.
    pub eta_ns: Option<u64>,
}

impl ProgressSnapshot {
    /// done / total as a percentage, clamped to `0.0..=100.0`.
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.done as f64 * 100.0 / self.total as f64).min(100.0)
        }
    }
}

/// A progress event consumer. Implementations must be cheap and
/// thread-safe; publishes arrive stride-gated, not per tick.
pub trait ProgressSink: Send + Sync {
    /// Consumes one snapshot.
    fn publish(&self, snap: &ProgressSnapshot);
}

impl<S: ProgressSink + ?Sized> ProgressSink for Arc<S> {
    #[inline]
    fn publish(&self, snap: &ProgressSnapshot) {
        (**self).publish(snap);
    }
}

struct ProgressInner {
    epoch: Instant,
    done: AtomicU64,
    total: AtomicU64,
    /// Index into `phases` of the current phase.
    phase: AtomicUsize,
    phases: [OnceLock<&'static str>; MAX_PHASES],
    phase_len: AtomicUsize,
    /// Next `done` value at which to publish a snapshot.
    next_publish: AtomicU64,
    /// Publish stride, recomputed as totals are announced.
    stride: AtomicU64,
    sink: Box<dyn ProgressSink>,
}

/// A cloneable handle to a live progress feed. The default handle is
/// disabled and free; see the module docs.
#[derive(Clone, Default)]
pub struct ProgressTracker(Option<Arc<ProgressInner>>);

impl std::fmt::Debug for ProgressTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.snapshot() {
            None => f.write_str("ProgressTracker(off)"),
            Some(s) => write!(f, "ProgressTracker({}/{} {:?})", s.done, s.total, s.phase),
        }
    }
}

/// Handle identity, like [`crate::Obs`]: two trackers are equal when
/// they share the same feed (or are both disabled).
impl PartialEq for ProgressTracker {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for ProgressTracker {}

impl ProgressTracker {
    /// The disabled handle: every operation is inert.
    pub fn off() -> Self {
        ProgressTracker(None)
    }

    /// A live tracker publishing stride-gated snapshots to `sink`.
    pub fn new(sink: impl ProgressSink + 'static) -> Self {
        ProgressTracker(Some(Arc::new(ProgressInner {
            epoch: Instant::now(),
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
            phase: AtomicUsize::new(MAX_PHASES),
            phases: [const { OnceLock::new() }; MAX_PHASES],
            phase_len: AtomicUsize::new(0),
            next_publish: AtomicU64::new(1),
            stride: AtomicU64::new(1),
            sink: Box::new(sink),
        })))
    }

    /// Whether this handle is attached to a live feed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Announces `n` more work items. Call up front with the full
    /// deterministic count (kernels × space, max DIPs, trial count) so
    /// `total` does not depend on scheduling.
    pub fn add_total(&self, n: u64) {
        let Some(inner) = &self.0 else { return };
        let total = inner.total.fetch_add(n, Ordering::Relaxed) + n;
        // ~256 publishes per job regardless of size.
        inner.stride.store((total / 256).max(1), Ordering::Relaxed);
        self.publish(inner);
    }

    /// Switches the current phase label and publishes a snapshot.
    /// Labels are interned in a fixed table; beyond `MAX_PHASES`
    /// distinct labels the phase stops changing (progress still
    /// counts).
    pub fn set_phase(&self, name: &'static str) {
        let Some(inner) = &self.0 else { return };
        let len = inner.phase_len.load(Ordering::Acquire);
        let mut idx = None;
        for (i, slot) in inner.phases.iter().enumerate().take(len) {
            if slot.get().copied() == Some(name) {
                idx = Some(i);
                break;
            }
        }
        let idx = idx.or_else(|| {
            let i = inner.phase_len.fetch_add(1, Ordering::AcqRel);
            if i >= MAX_PHASES {
                return None;
            }
            // A racing set_phase with the same name burns a slot —
            // harmless, both indices read back the same label.
            let _ = inner.phases[i].set(name);
            Some(i)
        });
        if let Some(i) = idx {
            inner.phase.store(i, Ordering::Release);
        }
        self.publish(inner);
    }

    /// Marks one work item done.
    #[inline]
    pub fn tick(&self) {
        self.add_done(1);
    }

    /// Marks `n` work items done, publishing when the count crosses
    /// the current stride boundary.
    #[inline]
    pub fn add_done(&self, n: u64) {
        let Some(inner) = &self.0 else { return };
        let done = inner.done.fetch_add(n, Ordering::Relaxed) + n;
        let next = inner.next_publish.load(Ordering::Relaxed);
        if done >= next {
            let stride = inner.stride.load(Ordering::Relaxed);
            if inner
                .next_publish
                .compare_exchange(next, done + stride, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.publish(inner);
            }
        }
    }

    /// The current snapshot, or `None` on a disabled handle.
    pub fn snapshot(&self) -> Option<ProgressSnapshot> {
        self.0.as_ref().map(|inner| self.snap(inner))
    }

    fn snap(&self, inner: &ProgressInner) -> ProgressSnapshot {
        let done = inner.done.load(Ordering::Relaxed);
        let total = inner.total.load(Ordering::Relaxed);
        let phase = inner
            .phases
            .get(inner.phase.load(Ordering::Acquire))
            .and_then(|s| s.get().copied())
            .unwrap_or("");
        let elapsed_ns = inner.epoch.elapsed().as_nanos() as u64;
        let eta_ns = if done == 0 || done >= total {
            None
        } else {
            Some((elapsed_ns as u128 * u128::from(total - done) / u128::from(done)) as u64)
        };
        ProgressSnapshot { phase, done, total, elapsed_ns, eta_ns }
    }

    fn publish(&self, inner: &ProgressInner) {
        let snap = self.snap(inner);
        inner.sink.publish(&snap);
    }
}

/// Buffers every published snapshot — the test/daemon sink.
#[derive(Default)]
pub struct ProgressBuffer {
    snaps: Mutex<Vec<ProgressSnapshot>>,
}

impl ProgressBuffer {
    /// An empty buffer (wrap in an `Arc` to keep a reading handle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Every snapshot published so far, in publish order.
    pub fn snapshots(&self) -> Vec<ProgressSnapshot> {
        self.snaps.lock().expect("progress buffer poisoned").clone()
    }

    /// The most recent snapshot, if any.
    pub fn last(&self) -> Option<ProgressSnapshot> {
        self.snaps.lock().expect("progress buffer poisoned").last().copied()
    }
}

impl ProgressSink for ProgressBuffer {
    fn publish(&self, snap: &ProgressSnapshot) {
        self.snaps.lock().expect("progress buffer poisoned").push(*snap);
    }
}

/// Renders `[phase 12/80 15.0% eta 3.2s]` progress lines to stderr, at
/// most one per `min_interval` (publishes are already stride-gated, so
/// the mutex here is off the callers' hot path).
pub struct StderrTicker {
    min_interval: std::time::Duration,
    last: Mutex<Option<Instant>>,
}

impl StderrTicker {
    /// A ticker printing at most one line per `min_interval`.
    pub fn new(min_interval: std::time::Duration) -> Self {
        StderrTicker { min_interval, last: Mutex::new(None) }
    }
}

impl Default for StderrTicker {
    fn default() -> Self {
        StderrTicker::new(std::time::Duration::from_millis(250))
    }
}

impl ProgressSink for StderrTicker {
    fn publish(&self, snap: &ProgressSnapshot) {
        let mut last = self.last.lock().expect("ticker poisoned");
        let now = Instant::now();
        if let Some(prev) = *last {
            if now.duration_since(prev) < self.min_interval {
                return;
            }
        }
        *last = Some(now);
        let eta = match snap.eta_ns {
            Some(ns) => format!(" eta {:.1}s", ns as f64 / 1e9),
            None => String::new(),
        };
        eprintln!(
            "[{} {}/{} {:.1}%{}]",
            if snap.phase.is_empty() { "…" } else { snap.phase },
            snap.done,
            snap.total,
            snap.percent(),
            eta
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_equal_to_itself() {
        let p = ProgressTracker::off();
        assert!(!p.enabled());
        p.add_total(100);
        p.set_phase("x");
        p.tick();
        assert_eq!(p.snapshot(), None);
        assert_eq!(p, ProgressTracker::off());
        assert_eq!(p, p.clone());
        assert_eq!(format!("{p:?}"), "ProgressTracker(off)");
    }

    #[test]
    fn tracks_done_total_phase_and_percent() {
        let buf = Arc::new(ProgressBuffer::new());
        let p = ProgressTracker::new(Arc::clone(&buf));
        assert!(p.enabled());
        assert_ne!(p, ProgressTracker::off());
        assert_eq!(p, p.clone(), "clones share the feed");
        p.set_phase("grid");
        p.add_total(4);
        for _ in 0..3 {
            p.tick();
        }
        let s = p.snapshot().expect("live handle snapshots");
        assert_eq!((s.phase, s.done, s.total), ("grid", 3, 4));
        assert_eq!(s.percent(), 75.0);
        assert!(s.eta_ns.is_some(), "mid-run has an ETA");
        p.tick();
        let s = p.snapshot().expect("live");
        assert_eq!(s.done, 4);
        assert_eq!(s.eta_ns, None, "complete jobs have no ETA");
        let snaps = buf.snapshots();
        assert!(!snaps.is_empty());
        let done: Vec<u64> = snaps.iter().map(|s| s.done).collect();
        assert!(done.windows(2).all(|w| w[0] <= w[1]), "monotone publishes: {done:?}");
        assert_eq!(buf.last().expect("published").done, 4);
    }

    #[test]
    fn small_totals_publish_every_tick_large_totals_stride() {
        let buf = Arc::new(ProgressBuffer::new());
        let p = ProgressTracker::new(Arc::clone(&buf));
        p.add_total(10_000);
        for _ in 0..10_000 {
            p.tick();
        }
        let n = buf.snapshots().len();
        assert!(n < 600, "stride-gated: {n} publishes for 10k ticks");
        assert!(n >= 2, "but still publishes: {n}");
    }

    #[test]
    fn phase_table_interns_repeated_labels() {
        let buf = Arc::new(ProgressBuffer::new());
        let p = ProgressTracker::new(Arc::clone(&buf));
        for _ in 0..MAX_PHASES {
            p.set_phase("a");
            p.set_phase("b");
        }
        p.set_phase("a");
        assert_eq!(p.snapshot().expect("live").phase, "a");
        p.set_phase("b");
        assert_eq!(p.snapshot().expect("live").phase, "b");
    }

    #[test]
    fn ticks_from_many_threads_sum_deterministically() {
        let buf = Arc::new(ProgressBuffer::new());
        let p = ProgressTracker::new(Arc::clone(&buf));
        p.add_total(8 * 50);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        p.tick();
                    }
                });
            }
        });
        let snap = p.snapshot().expect("live");
        assert_eq!((snap.done, snap.total), (400, 400));
    }
}
