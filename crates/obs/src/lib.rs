//! Zero-cost-when-disabled structured telemetry for the TAO
//! reproduction's engines.
//!
//! The whole layer hangs off one cheap handle, [`Obs`]: a
//! `Option<Arc<..>>` that is `None` when telemetry is off. Every
//! operation on a disabled handle is a single never-taken branch —
//! metric handles minted from it are inert, [`Obs::span`] returns a
//! guard that drops without side effects, and no clock is ever read —
//! so instrumented hot loops (the grid executor's trial loop, the CDCL
//! search) run the same machine code as before within measurement noise
//! (the `key-sweep` benchmark workload runs the grid with every hook off,
//! and its `trace.overhead` metric times the hooks on, with a real sink).
//!
//! When enabled, the handle carries:
//!
//! * a [`Registry`] of named [`Counter`]s / [`Gauge`]s / log-linear
//!   [`Histogram`]s (wait-free recording, lock only on lookup);
//! * RAII **spans** ([`Obs::span`]) with per-thread parent linkage and
//!   nanosecond timing, plus point-in-time **samples** ([`Obs::sample`])
//!   for counter-over-time series;
//! * a pluggable [`Sink`]: [`NoopSink`] (A/B overhead probes),
//!   [`JsonlSink`] (greppable event log), or [`ChromeTraceSink`] —
//!   whose [`ChromeTraceSink::to_json`] output opens directly in
//!   `chrome://tracing` / <https://ui.perfetto.dev>.
//!
//! The **consumption** side lives in [`analyze`] (span-forest
//! reconstruction, wall-clock attribution, critical path, worker
//! utilization, flamegraphs) and [`progress`] (a lock-free live
//! done/total/phase [`ProgressTracker`] with the same disabled-handle
//! discipline as [`Obs`]).
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(obs::ChromeTraceSink::new());
//! let o = obs::Obs::new(sink.clone());
//! let trials = o.counter("grid.trials");
//! {
//!     let mut s = o.span("grid.run");
//!     trials.inc();
//!     s.arg("n", 1);
//! }
//! assert_eq!(trials.get(), 1);
//! assert!(sink.to_json().contains("grid.run"));
//!
//! let off = obs::Obs::off(); // disabled: every call below is free
//! let c = off.counter("unused");
//! c.inc();
//! assert_eq!(c.get(), 0);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod json;
mod metrics;
pub mod progress;
mod sink;

pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, Registry, BUCKETS, LINEAR_BUCKETS,
    SUB_BUCKETS,
};
pub use progress::{ProgressBuffer, ProgressSink, ProgressSnapshot, ProgressTracker, StderrTicker};
pub use sink::{ChromeTraceSink, Event, JsonlSink, NoopSink, Sink};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The shared state behind an enabled [`Obs`] handle.
struct ObsInner {
    epoch: Instant,
    registry: Registry,
    sink: Box<dyn Sink>,
    next_span: AtomicU64,
}

impl ObsInner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The telemetry handle threaded through instrumented engines.
///
/// `Obs::off()` (also [`Default`]) is the disabled handle; cloning is one
/// `Arc` bump (or a no-op when off). Equality is identity: two handles
/// are equal iff they share the same inner state (or are both off) —
/// which keeps option structs carrying an `Obs` comparable.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() { "Obs(on)" } else { "Obs(off)" })
    }
}

impl PartialEq for Obs {
    fn eq(&self, other: &Obs) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Obs {}

impl Obs {
    /// The disabled handle: every operation is a never-taken branch.
    pub fn off() -> Obs {
        Obs::default()
    }

    /// An enabled handle writing events to `sink`. Pass an
    /// `Arc<ChromeTraceSink>` (keeping a clone) to read the trace back
    /// after the run.
    pub fn new(sink: impl Sink + 'static) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                epoch: Instant::now(),
                registry: Registry::default(),
                sink: Box::new(sink),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    /// An enabled handle that discards events ([`NoopSink`]) — metrics
    /// still record; spans still read the clock. The A/B middle ground
    /// between `off` and a real sink.
    pub fn noop() -> Obs {
        Obs::new(NoopSink)
    }

    /// `true` when telemetry is on. Engines use this to pick the
    /// instrumented code path; the disabled path stays untouched.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since this handle was created (0 when disabled — the
    /// clock is never read on the off path).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now_ns())
    }

    /// The counter `name` (inert handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.as_ref().map_or_else(Counter::default, |i| i.registry.counter(name))
    }

    /// The gauge `name` (inert handle when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.as_ref().map_or_else(Gauge::default, |i| i.registry.gauge(name))
    }

    /// The histogram `name` (inert handle when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.as_ref().map_or_else(Histogram::default, |i| i.registry.histogram(name))
    }

    /// Opens a timed span; the returned guard closes it on drop. Spans
    /// opened while another span is live **on the same thread** link to
    /// it as their parent (the Chrome trace nests them).
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { live: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let tid = thread_id();
        let ts_ns = inner.now_ns();
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        inner.sink.event(&Event::SpanBegin { id, parent, name, tid, ts_ns });
        SpanGuard {
            live: Some(LiveSpan {
                inner: inner.clone(),
                id,
                name,
                start_ns: ts_ns,
                args: Vec::new(),
            }),
        }
    }

    /// Emits one point-in-time sample of the series `name` (a counter
    /// value over time; a Chrome `ph:"C"` track).
    #[inline]
    pub fn sample(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.sink.event(&Event::Sample {
                name,
                tid: thread_id(),
                ts_ns: inner.now_ns(),
                value,
            });
        }
    }

    /// The fixed-width metrics table ([`Registry::summary`]); empty when
    /// disabled.
    pub fn summary(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| i.registry.summary())
    }

    /// Read access to the registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_ref().map(|i| &i.registry)
    }
}

// Dense per-thread telemetry ids: assigned on first use, stable for the
// thread's lifetime. Not the OS tid — Chrome traces just need distinct
// small integers per lane.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's telemetry id (dense, ≥ 1, assigned on first use).
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

struct LiveSpan {
    inner: Arc<ObsInner>,
    id: u64,
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
}

/// An open span; dropping it records the end event with the accumulated
/// args. Guards from a disabled handle are inert zero-field drops.
#[must_use = "a span measures the scope holding the guard"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// Attaches a key/value pair reported on the span's end event.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(l) = &mut self.live {
            l.args.push((key, value));
        }
    }

    /// `true` when this guard is actually recording.
    pub fn recording(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(l) = self.live.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards normally drop in LIFO order; tolerate out-of-order
            // drops (e.g. a span stored then closed late) by removing the
            // id wherever it sits.
            if s.last() == Some(&l.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&x| x == l.id) {
                s.remove(pos);
            }
        });
        let end = l.inner.now_ns();
        l.inner.sink.event(&Event::SpanEnd {
            id: l.id,
            name: l.name,
            tid: thread_id(),
            ts_ns: end,
            dur_ns: end.saturating_sub(l.start_ns),
            args: &l.args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let o = Obs::off();
        assert!(!o.enabled());
        assert_eq!(o.now_ns(), 0);
        let c = o.counter("c");
        c.add(5);
        assert_eq!(c.get(), 0);
        {
            let mut s = o.span("dead");
            assert!(!s.recording());
            s.arg("k", 1);
        }
        o.sample("s", 1);
        assert!(o.summary().is_empty());
        assert!(o.registry().is_none());
    }

    #[test]
    fn equality_is_identity() {
        let a = Obs::noop();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, Obs::noop());
        assert_eq!(Obs::off(), Obs::off());
        assert_ne!(a, Obs::off());
    }

    #[test]
    fn spans_nest_by_thread_and_record_args() {
        let sink = Arc::new(JsonlSink::new());
        let o = Obs::new(sink.clone());
        {
            let _outer = o.span("outer");
            {
                let mut inner = o.span("inner");
                inner.arg("x", 42);
            }
        }
        let text = sink.contents();
        // Four events: two begins, two ends; inner's begin names outer
        // as parent, inner ends first.
        assert_eq!(text.lines().count(), 4);
        let inner_begin = text.lines().find(|l| l.contains(r#""name":"inner""#)).unwrap();
        assert!(inner_begin.contains(r#""parent":1"#), "{inner_begin}");
        let ends: Vec<&str> = text.lines().filter(|l| l.contains(r#""ev":"e""#)).collect();
        assert!(ends[0].contains("inner") && ends[1].contains("outer"));
        assert!(ends[0].contains(r#""x":42"#));
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let sink = Arc::new(JsonlSink::new());
        let o = Obs::new(sink.clone());
        {
            let _p = o.span("parent");
            let _a = o.span("a");
            drop(_a);
            let _b = o.span("b");
        }
        let text = sink.contents();
        for name in ["a", "b"] {
            let begin = text
                .lines()
                .find(|l| l.contains(&format!(r#""name":"{name}""#)) && l.contains(r#""ev":"b""#))
                .unwrap();
            assert!(begin.contains(r#""parent":1"#), "{begin}");
        }
    }

    #[test]
    fn metrics_share_the_registry() {
        let o = Obs::noop();
        o.counter("hits").add(3);
        o.gauge("w").set(9);
        o.histogram("lat").record(100);
        let summary = o.summary();
        assert!(summary.contains("hits"));
        assert!(summary.contains("count=1"));
        let again = o.counter("hits");
        assert_eq!(again.get(), 3);
    }

    #[test]
    fn thread_ids_are_distinct_and_stable() {
        let here = thread_id();
        assert_eq!(here, thread_id());
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, other);
    }
}
