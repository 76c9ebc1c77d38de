//! Trace intelligence: turns a [`crate::ChromeTraceSink`] `trace.json`
//! back into answers — where the wall-clock went, what the critical
//! path was, whether the grid's workers were actually busy — plus
//! collapsed-stack and SVG flamegraph exports. Pure std, built on
//! [`crate::json`].
//!
//! The Chrome trace deliberately carries no span ids: a `ph:"X"`
//! complete event is just `(name, tid, ts, dur, args)`. RAII spans on
//! one thread are properly nested in time, so [`parse_trace`]
//! reconstructs the span forest per thread lane by **interval
//! containment** — an event is a child of the tightest still-open
//! event on the same `tid` that contains it.
//!
//! ```
//! let json = r#"{"traceEvents":[
//!   {"name":"run","ph":"X","pid":1,"tid":1,"ts":0.000,"dur":10.000,"args":{}},
//!   {"name":"solve","ph":"X","pid":1,"tid":1,"ts":2.000,"dur":6.000,"args":{}}
//! ]}"#;
//! let trace = obs::analyze::parse_trace(json).unwrap();
//! let attr = obs::analyze::attribution(&trace);
//! let run = attr.iter().find(|p| p.name == "run").unwrap();
//! assert_eq!((run.total_ns, run.self_ns), (10_000, 4_000));
//! assert_eq!(obs::analyze::critical_path(&trace).len(), 2);
//! ```

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reconstructed span: a node of the per-thread span forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (the `obs::Obs::span` label, e.g. `"grid.worker"`).
    pub name: String,
    /// Telemetry thread lane the span ran on.
    pub tid: u64,
    /// Start time in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Elapsed nanoseconds.
    pub dur_ns: u64,
    /// Key/value args attached at span end (`busy_ns`, `trials`, …).
    pub args: BTreeMap<String, u64>,
    /// Spans nested inside this one on the same thread, start-ordered.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// End time in nanoseconds since the trace epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Nanoseconds spent in this span but not in any child span.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.children.iter().map(|c| c.dur_ns).sum())
    }
}

/// One `ph:"C"` counter sample ([`crate::Obs::sample`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Series name.
    pub name: String,
    /// Thread lane the sample was taken on.
    pub tid: u64,
    /// Sample time in nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Sampled value.
    pub value: u64,
}

/// A parsed trace: the reconstructed span forest plus counter samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Root spans across every thread lane, start-ordered.
    pub roots: Vec<SpanNode>,
    /// Every counter sample, time-ordered.
    pub counters: Vec<CounterSample>,
}

/// `ts`/`dur` microseconds (decimal, ns fraction) back to integer ns.
fn ns_of_micros(us: f64) -> u64 {
    (us * 1000.0).round().max(0.0) as u64
}

/// Parses a `{"traceEvents": [...]}` Chrome trace and reconstructs the
/// span forest (see the module docs for the containment rule).
///
/// # Errors
///
/// Returns a description when the JSON is malformed, `traceEvents` is
/// missing, or an event lacks a required field.
pub fn parse_trace(trace_json: &str) -> Result<Trace, String> {
    let v = json::parse(trace_json).map_err(|e| format!("trace does not parse: {e}"))?;
    let events =
        v.get("traceEvents").and_then(Value::as_arr).ok_or("trace has no traceEvents array")?;
    let mut spans: Vec<SpanNode> = Vec::new();
    let mut counters: Vec<CounterSample> = Vec::new();
    for ev in events {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event without a name: {ev:?}"))?
            .to_string();
        let ph = ev.get("ph").and_then(Value::as_str).ok_or("event without a ph")?;
        let tid = ev.get("tid").and_then(Value::as_f64).ok_or("event without a tid")? as u64;
        let ts_ns = ns_of_micros(ev.get("ts").and_then(Value::as_f64).ok_or("event without a ts")?);
        match ph {
            "X" => {
                let dur_ns = ns_of_micros(
                    ev.get("dur").and_then(Value::as_f64).ok_or("complete event without a dur")?,
                );
                let mut args = BTreeMap::new();
                if let Some(Value::Obj(m)) = ev.get("args") {
                    for (k, v) in m {
                        if let Some(n) = v.as_f64() {
                            args.insert(k.clone(), n as u64);
                        }
                    }
                }
                spans.push(SpanNode {
                    name,
                    tid,
                    start_ns: ts_ns,
                    dur_ns,
                    args,
                    children: Vec::new(),
                });
            }
            "C" => {
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0) as u64;
                counters.push(CounterSample { name, tid, ts_ns, value });
            }
            _ => {}
        }
    }
    counters.sort_by_key(|c| c.ts_ns);
    Ok(Trace { roots: build_forest(spans), counters })
}

/// Nests flat spans per tid by interval containment: sorted by (start
/// asc, dur desc), an open enclosing span on the same lane adopts each
/// event it fully contains; everything else is a root.
fn build_forest(mut spans: Vec<SpanNode>) -> Vec<SpanNode> {
    spans.sort_by(|a, b| {
        (a.tid, a.start_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
            b.tid,
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
        ))
    });
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    let flush = |stack: &mut Vec<SpanNode>, roots: &mut Vec<SpanNode>, upto: Option<&SpanNode>| {
        while let Some(top) = stack.last() {
            let contains = upto.is_some_and(|ev| {
                ev.tid == top.tid && ev.start_ns >= top.start_ns && ev.end_ns() <= top.end_ns()
            });
            if contains {
                break;
            }
            let done = stack.pop().expect("non-empty stack");
            match stack.last_mut() {
                Some(parent) => parent.children.push(done),
                None => roots.push(done),
            }
        }
    };
    for ev in spans {
        flush(&mut stack, &mut roots, Some(&ev));
        stack.push(ev);
    }
    flush(&mut stack, &mut roots, None);
    roots.sort_by_key(|r| r.start_ns);
    roots
}

// ---------------------------------------------------------- attribution

/// Aggregate wall-clock attribution of one span name across the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Span name.
    pub name: String,
    /// How many spans carried this name.
    pub count: u64,
    /// Summed duration of those spans (nested same-name spans both
    /// count — this is "time with the phase on the stack").
    pub total_ns: u64,
    /// Summed duration minus time spent in child spans — the exclusive
    /// wall-clock this phase is itself responsible for.
    pub self_ns: u64,
}

fn walk<'a>(node: &'a SpanNode, f: &mut impl FnMut(&'a SpanNode)) {
    f(node);
    for c in &node.children {
        walk(c, f);
    }
}

/// Per-phase self/total wall-clock attribution, sorted by self time
/// (descending). The self times of every span in the forest sum to the
/// summed duration of the roots — nothing is counted twice.
pub fn attribution(trace: &Trace) -> Vec<PhaseStat> {
    let mut by_name: BTreeMap<&str, PhaseStat> = BTreeMap::new();
    for root in &trace.roots {
        walk(root, &mut |n| {
            let e = by_name.entry(&n.name).or_insert_with(|| PhaseStat {
                name: n.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += n.dur_ns;
            e.self_ns += n.self_ns();
        });
    }
    let mut out: Vec<PhaseStat> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    out
}

/// Renders the attribution as a fixed-width table (share of the summed
/// root wall-clock, self and total nanoseconds as milliseconds).
pub fn render_attribution(stats: &[PhaseStat]) -> String {
    let wall: u64 = stats.iter().map(|p| p.self_ns).sum();
    let mut out = String::from("Per-phase wall-clock attribution (self-time ordered)\n");
    let _ = writeln!(
        out,
        "{:<20} {:>7} {:>12} {:>12} {:>7}",
        "phase", "count", "self_ms", "total_ms", "self%"
    );
    for p in stats {
        let _ = writeln!(
            out,
            "{:<20} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            p.name,
            p.count,
            p.self_ns as f64 / 1e6,
            p.total_ns as f64 / 1e6,
            if wall == 0 { 0.0 } else { p.self_ns as f64 * 100.0 / wall as f64 },
        );
    }
    out
}

// --------------------------------------------------------- critical path

/// One step of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Thread lane.
    pub tid: u64,
    /// The span's full duration.
    pub dur_ns: u64,
    /// The span's exclusive time (duration minus its children).
    pub self_ns: u64,
}

/// The critical path through the nested spans: starting from the
/// longest root, descend into the longest child at every level until a
/// leaf. Step durations are non-increasing (children are contained in
/// their parents), so this is the longest root-to-leaf chain — the
/// chain of spans that bounded the run's wall-clock. Empty only for an
/// empty trace.
pub fn critical_path(trace: &Trace) -> Vec<PathStep> {
    let mut path = Vec::new();
    let mut cur = trace.roots.iter().max_by_key(|r| (r.dur_ns, std::cmp::Reverse(r.start_ns)));
    while let Some(n) = cur {
        path.push(PathStep {
            name: n.name.clone(),
            tid: n.tid,
            dur_ns: n.dur_ns,
            self_ns: n.self_ns(),
        });
        cur = n.children.iter().max_by_key(|c| (c.dur_ns, std::cmp::Reverse(c.start_ns)));
    }
    path
}

/// Renders the critical path one indented step per line.
pub fn render_critical_path(path: &[PathStep]) -> String {
    let mut out = String::from("Critical path (longest root-to-leaf span chain)\n");
    for (depth, s) in path.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:indent$}{} [tid {}] {:.3} ms ({:.3} ms self)",
            "",
            s.name,
            s.tid,
            s.dur_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            indent = depth * 2,
        );
    }
    out
}

// ----------------------------------------------------- worker utilization

/// Aggregated `grid.worker` telemetry for one thread lane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Thread lane.
    pub tid: u64,
    /// Fan-outs this lane participated in (`grid.worker` spans seen).
    pub spans: u64,
    /// Trials the lane completed.
    pub trials: u64,
    /// Chunks the lane stole from the shared cursor.
    pub steals: u64,
    /// Nanoseconds spent inside trial bodies.
    pub busy_ns: u64,
    /// Nanoseconds spent minting the context, waiting on the cursor, or,
    /// once out of work, waiting for the fan-out's other workers.
    pub idle_ns: u64,
}

impl WorkerStat {
    /// busy / (busy + idle) as a percentage — in `0.0..=100.0` by
    /// construction (both terms are non-negative), 0 for an empty lane.
    pub fn utilization_pct(&self) -> f64 {
        let denom = self.busy_ns + self.idle_ns;
        if denom == 0 {
            0.0
        } else {
            self.busy_ns as f64 * 100.0 / denom as f64
        }
    }

    /// Trials per steal — how much work each cursor hit amortized.
    pub fn trials_per_steal(&self) -> f64 {
        if self.steals == 0 {
            0.0
        } else {
            self.trials as f64 / self.steals as f64
        }
    }
}

/// Per-worker utilization/steal-efficiency rows derived from the grid
/// executor's `grid.worker` spans (their `busy_ns` / `idle_ns` /
/// `steals` / `trials` args), tid-ordered. Empty when the trace holds
/// no grid fan-out.
///
/// A worker that runs out of work ends its span while the others still
/// run, so each span is also charged, as idle, the rest of the tightest
/// `grid.run` (on any lane) that contains it.
pub fn worker_stats(trace: &Trace) -> Vec<WorkerStat> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for root in &trace.roots {
        walk(root, &mut |n| {
            if n.name == "grid.run" {
                runs.push((n.start_ns, n.end_ns()));
            }
        });
    }
    let mut by_tid: BTreeMap<u64, WorkerStat> = BTreeMap::new();
    for root in &trace.roots {
        walk(root, &mut |n| {
            if n.name != "grid.worker" {
                return;
            }
            let end = n.end_ns();
            let wait = runs
                .iter()
                .filter(|&&(s, e)| s <= n.start_ns && end <= e)
                .min_by_key(|&&(s, e)| e - s)
                .map_or(0, |&(_, e)| e - end);
            let w = by_tid
                .entry(n.tid)
                .or_insert_with(|| WorkerStat { tid: n.tid, ..Default::default() });
            w.spans += 1;
            w.trials += n.args.get("trials").copied().unwrap_or(0);
            w.steals += n.args.get("steals").copied().unwrap_or(0);
            w.busy_ns += n.args.get("busy_ns").copied().unwrap_or(0);
            w.idle_ns += n.args.get("idle_ns").copied().unwrap_or(0) + wait;
        });
    }
    by_tid.into_values().collect()
}

/// Renders the worker rows as a fixed-width table.
pub fn render_worker_stats(workers: &[WorkerStat]) -> String {
    let mut out = String::from("Grid worker utilization (from grid.worker spans)\n");
    let _ = writeln!(
        out,
        "{:<6} {:>7} {:>8} {:>8} {:>11} {:>11} {:>6} {:>12}",
        "tid", "spans", "trials", "steals", "busy_ms", "idle_ms", "util%", "trials/steal"
    );
    for w in workers {
        let _ = writeln!(
            out,
            "{:<6} {:>7} {:>8} {:>8} {:>11.3} {:>11.3} {:>5.1}% {:>12.1}",
            w.tid,
            w.spans,
            w.trials,
            w.steals,
            w.busy_ns as f64 / 1e6,
            w.idle_ns as f64 / 1e6,
            w.utilization_pct(),
            w.trials_per_steal(),
        );
    }
    out
}

// ----------------------------------------------------------- flamegraphs

/// Collapsed-stack flamegraph export: one `name;name;name count` line
/// per distinct root-to-node path, where `count` is the path's summed
/// **self** nanoseconds (so a flamegraph tool's widths reproduce the
/// real time split). Lines are path-sorted and merged; zero-self paths
/// are dropped. Span names must not contain `;` (ours never do).
pub fn collapsed_stacks(trace: &Trace) -> String {
    let mut by_path: BTreeMap<String, u64> = BTreeMap::new();
    fn descend(node: &SpanNode, prefix: &str, by_path: &mut BTreeMap<String, u64>) {
        let path =
            if prefix.is_empty() { node.name.clone() } else { format!("{prefix};{}", node.name) };
        let own = node.self_ns();
        if own > 0 {
            *by_path.entry(path.clone()).or_insert(0) += own;
        }
        for c in &node.children {
            descend(c, &path, by_path);
        }
    }
    for root in &trace.roots {
        descend(root, "", &mut by_path);
    }
    let mut out = String::new();
    for (path, ns) in by_path {
        let _ = writeln!(out, "{path} {ns}");
    }
    out
}

/// Parses collapsed-stack text back into `(frames, count)` rows —
/// [`collapsed_stacks`]'s exact inverse (rendering the parsed rows
/// reproduces the text byte for byte).
///
/// # Errors
///
/// Returns a description for a line without a count or with an empty
/// stack.
pub fn parse_collapsed(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (stack, count) =
            line.rsplit_once(' ').ok_or_else(|| format!("line {}: no count: {line:?}", i + 1))?;
        let count: u64 =
            count.parse().map_err(|e| format!("line {}: bad count {count:?}: {e}", i + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        rows.push((stack.split(';').map(str::to_string).collect(), count));
    }
    Ok(rows)
}

/// A merged flamegraph frame: children keyed by name, widths by total
/// nanoseconds under the frame.
#[derive(Default)]
struct Frame {
    self_ns: u64,
    children: BTreeMap<String, Frame>,
}

impl Frame {
    fn total(&self) -> u64 {
        self.self_ns + self.children.values().map(Frame::total).sum::<u64>()
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Frame::depth).max().unwrap_or(0)
    }
}

/// Deterministic warm color per frame name (FNV-1a hash into a
/// red/orange/yellow band, the classic flamegraph palette).
fn frame_color(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let r = 205 + (h % 50) as u32;
    let g = 60 + ((h >> 8) % 130) as u32;
    let b = (h >> 16) % 40;
    format!("rgb({r},{g},{b})")
}

/// Renders a self-contained SVG flamegraph of the trace: one rect per
/// merged frame, width proportional to the frame's total time, hover
/// titles carrying exact nanoseconds. Pure std string building — the
/// output opens in any browser.
pub fn flamegraph_svg(trace: &Trace) -> String {
    // Merge the forest by path (flamegraph semantics: same stack from
    // different tids/instances becomes one frame).
    let mut root = Frame::default();
    fn absorb(node: &SpanNode, frame: &mut Frame) {
        let f = frame.children.entry(node.name.clone()).or_default();
        f.self_ns += node.self_ns();
        for c in &node.children {
            absorb(c, f);
        }
    }
    for r in &trace.roots {
        absorb(r, &mut root);
    }
    let total = root.total().max(1);
    let (width, row_h, font) = (1200.0_f64, 18.0_f64, 12.0_f64);
    let depth = root.depth().saturating_sub(1).max(1);
    let height = depth as f64 * row_h + 40.0;
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="monospace" font-size="{font}">"#
    );
    let _ = writeln!(
        svg,
        r#"<text x="8" y="16">flamegraph: {total} ns total, {depth} levels (width = share of total)</text>"#
    );
    fn rects(frame: &Frame, name: &str, x: f64, y: f64, scale: f64, row_h: f64, out: &mut String) {
        let w = frame.total() as f64 * scale;
        if !name.is_empty() && w >= 0.1 {
            let color = frame_color(name);
            let _ = writeln!(
                out,
                r#"<g><title>{} ({} ns)</title><rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{}" stroke="white"/>{}</g>"#,
                xml_escape(name),
                frame.total(),
                x,
                y,
                w,
                row_h - 1.0,
                color,
                if w > 40.0 {
                    format!(
                        r#"<text x="{:.2}" y="{:.2}" fill="black">{}</text>"#,
                        x + 3.0,
                        y + row_h - 5.0,
                        xml_escape(name)
                    )
                } else {
                    String::new()
                },
            );
        }
        let mut cx = x;
        for (cname, child) in &frame.children {
            rects(
                child,
                cname,
                cx,
                y + if name.is_empty() { 0.0 } else { row_h },
                scale,
                row_h,
                out,
            );
            cx += child.total() as f64 * scale;
        }
    }
    rects(&root, "", 0.0, 30.0, width / total as f64, row_h, &mut svg);
    svg.push_str("</svg>\n");
    svg
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{ChromeTraceSink, Event, Sink};

    /// One test span: `(name, tid, start, dur, args)`.
    type Spec<'a> = (&'a str, u64, u64, u64, &'a [(&'a str, u64)]);

    /// Feeds `(name, tid, start, dur, args)` tuples straight into a
    /// Chrome sink (the exact event shape `SpanGuard::drop` emits) and
    /// parses the JSON back.
    fn trace_of(spans: &[Spec<'_>]) -> Trace {
        let sink = ChromeTraceSink::new();
        for (i, &(name, tid, start, dur, args)) in spans.iter().enumerate() {
            sink.event(&Event::SpanEnd {
                id: i as u64 + 1,
                name,
                tid,
                ts_ns: start + dur,
                dur_ns: dur,
                args,
            });
        }
        parse_trace(&sink.to_json()).expect("round-tripped trace parses")
    }

    #[test]
    fn forest_reconstruction_nests_by_containment_per_tid() {
        let t = trace_of(&[
            ("root", 1, 0, 1000, &[]),
            ("mid", 1, 100, 400, &[]),
            ("leaf", 1, 150, 100, &[]),
            ("late", 1, 600, 300, &[]),
            ("other", 2, 0, 500, &[]),
        ]);
        assert_eq!(t.roots.len(), 2);
        let root = &t.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "mid");
        assert_eq!(root.children[0].children[0].name, "leaf");
        assert_eq!(root.children[1].name, "late");
        assert_eq!(t.roots[1].name, "other");
        assert_eq!(t.roots[1].tid, 2);
    }

    #[test]
    fn same_start_ties_make_the_longer_span_the_parent() {
        let t = trace_of(&[("inner", 1, 0, 400, &[]), ("outer", 1, 0, 1000, &[])]);
        assert_eq!(t.roots.len(), 1);
        assert_eq!(t.roots[0].name, "outer");
        assert_eq!(t.roots[0].children[0].name, "inner");
    }

    #[test]
    fn attribution_self_times_sum_to_root_wall_clock() {
        let t = trace_of(&[
            ("a", 1, 0, 1000, &[]),
            ("b", 1, 100, 300, &[]),
            ("b", 1, 500, 200, &[]),
            ("c", 1, 550, 100, &[]),
        ]);
        let attr = attribution(&t);
        let self_sum: u64 = attr.iter().map(|p| p.self_ns).sum();
        assert_eq!(self_sum, 1000);
        let b = attr.iter().find(|p| p.name == "b").unwrap();
        assert_eq!((b.count, b.total_ns, b.self_ns), (2, 500, 400));
        let table = render_attribution(&attr);
        assert!(table.contains("phase") && table.contains('a'), "{table}");
    }

    #[test]
    fn critical_path_descends_longest_children() {
        let t = trace_of(&[
            ("short_root", 1, 0, 100, &[]),
            ("long_root", 2, 0, 1000, &[]),
            ("small", 2, 0, 200, &[]),
            ("big", 2, 300, 600, &[]),
            ("leaf", 2, 400, 450, &[]),
        ]);
        let path = critical_path(&t);
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["long_root", "big", "leaf"]);
        assert!(path.windows(2).all(|w| w[0].dur_ns >= w[1].dur_ns));
        assert!(render_critical_path(&path).contains("long_root"));
    }

    #[test]
    fn worker_stats_aggregate_grid_worker_args_within_bounds() {
        // Two fan-outs; in the first, tid 3 runs out of work at 610 and
        // waits 390 ns for the run to end at 1000.
        let t = trace_of(&[
            ("grid.run", 1, 0, 1000, &[("trials", 8)]),
            (
                "grid.worker",
                2,
                10,
                900,
                &[("trials", 5), ("steals", 3), ("busy_ns", 700), ("idle_ns", 200)],
            ),
            (
                "grid.worker",
                3,
                10,
                600,
                &[("trials", 3), ("steals", 2), ("busy_ns", 300), ("idle_ns", 300)],
            ),
            ("grid.run", 1, 1000, 600, &[("trials", 2)]),
            (
                "grid.worker",
                2,
                1000,
                500,
                &[("trials", 2), ("steals", 1), ("busy_ns", 400), ("idle_ns", 100)],
            ),
        ]);
        let ws = worker_stats(&t);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].tid, 2);
        assert_eq!((ws[0].spans, ws[0].trials, ws[0].steals), (2, 7, 4));
        assert_eq!((ws[0].busy_ns, ws[0].idle_ns), (1100, 200 + 90 + 100 + 100));
        assert_eq!((ws[1].busy_ns, ws[1].idle_ns), (300, 300 + 390));
        for w in &ws {
            let u = w.utilization_pct();
            assert!((0.0..=100.0).contains(&u), "tid {}: {u}", w.tid);
        }
        assert!((ws[1].utilization_pct() - 30.303).abs() < 0.01);
        assert!(render_worker_stats(&ws).contains("util%"));
    }

    #[test]
    fn collapsed_stacks_round_trip_and_sum_to_wall_clock() {
        let t = trace_of(&[
            ("a", 1, 0, 1000, &[]),
            ("b", 1, 100, 300, &[]),
            ("c", 1, 150, 200, &[]),
            ("b", 2, 0, 500, &[]),
        ]);
        let text = collapsed_stacks(&t);
        let rows = parse_collapsed(&text).expect("own output parses");
        let total: u64 = rows.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 1000 + 500, "self times sum to root wall-clock");
        let rendered: String =
            rows.iter().map(|(stack, n)| format!("{} {n}\n", stack.join(";"))).collect();
        assert_eq!(rendered, text, "parse is the exact inverse of render");
        assert!(text.contains("a;b;c 200"));
        assert!(parse_collapsed("nocount").is_err());
        assert!(parse_collapsed(" 5").is_err());
    }

    #[test]
    fn flamegraph_svg_is_well_formed_and_merges_stacks() {
        let t = trace_of(&[
            ("a", 1, 0, 1000, &[]),
            ("b", 1, 0, 400, &[]),
            ("a", 2, 0, 600, &[]),
            ("b", 2, 100, 100, &[]),
        ]);
        let svg = flamegraph_svg(&t);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.matches("<rect").count() >= 2);
        // Same-path frames from both tids merged into one 'a' rect.
        assert_eq!(svg.matches(">a (").count(), 1, "{svg}");
        assert!(svg.contains("1600 ns total"));
    }

    #[test]
    fn empty_and_malformed_traces_are_handled() {
        assert!(parse_trace("nope").is_err());
        assert!(parse_trace("{}").is_err());
        let t = parse_trace("{\"traceEvents\":[]}").unwrap();
        assert!(t.roots.is_empty());
        assert!(critical_path(&t).is_empty());
        assert!(attribution(&t).is_empty());
        assert_eq!(collapsed_stacks(&t), "");
        assert!(flamegraph_svg(&t).contains("</svg>"));
    }

    #[test]
    fn counter_samples_parse_time_ordered() {
        let sink = ChromeTraceSink::new();
        sink.event(&Event::Sample { name: "sat.conflicts", tid: 1, ts_ns: 500, value: 10 });
        sink.event(&Event::Sample { name: "sat.conflicts", tid: 1, ts_ns: 100, value: 3 });
        let t = parse_trace(&sink.to_json()).unwrap();
        assert_eq!(t.counters.len(), 2);
        assert_eq!((t.counters[0].ts_ns, t.counters[0].value), (100, 3));
        assert_eq!(t.counters[1].value, 10);
    }
}
