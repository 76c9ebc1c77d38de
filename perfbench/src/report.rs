//! Statistics and output: item-time percentiles, peak memory, the metric
//! tables and the final JSON line.

use crate::flow::Counts;
use obs::analyze::PhaseStat;
use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// What it measures (the call it times, for per-layer metrics).
    pub what: String,
}

impl Metric {
    /// A metric; non-finite values (an empty division) read as 0.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        what: impl Into<String>,
    ) -> Metric {
        Metric { name, unit, value: if value.is_finite() { value } else { 0.0 }, what: what.into() }
    }
}

/// The median of `v` (unsorted; empty gives 0).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The geometric mean over items of each item's median time. Unlike the
/// median of all item times it has no gap to jump across when a seed
/// shifts a few items past the middle, and it weighs every item alike.
pub fn geomean_of_medians(per_item: &[Vec<f64>]) -> f64 {
    let logs: Vec<f64> = per_item.iter().map(|t| median(t).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The time at the highest percentile that still has at least ten
/// samples beyond it, with that percentile; `None` below twenty samples,
/// where that percentile would fall below the median.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (n >= 20).then(|| (s[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// Peak resident set (`VmHWM`) of this process in MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reads per-layer metrics off a trace's span attribution and the run's
/// work counts.
pub struct Layers<'a> {
    /// `obs::analyze::attribution` of the traced run.
    pub attr: &'a [PhaseStat],
    /// Work counts of the traced run.
    pub counts: &'a Counts,
}

impl Layers<'_> {
    fn stat(&self, span: &str) -> (f64, f64) {
        self.attr
            .iter()
            .find(|p| p.name == span)
            .map_or((0.0, 0.0), |p| (p.count as f64, p.total_ns as f64))
    }

    /// A count.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    /// Mean milliseconds per `span`.
    pub fn mean_ms(&self, span: &str) -> f64 {
        let (n, ns) = self.stat(span);
        ns / n / 1e6
    }

    /// Total milliseconds in `span` per attack.
    pub fn per_attack_ms(&self, span: &str) -> f64 {
        self.stat(span).1 / self.count("attack.attacks") / 1e6
    }

    /// Count `work` per second spent in `span`.
    pub fn rate(&self, work: &str, span: &str) -> f64 {
        self.count(work) / (self.stat(span).1 / 1e9)
    }

    /// Total seconds in `span`.
    pub fn total_s(&self, span: &str) -> f64 {
        self.stat(span).1 / 1e9
    }
}

/// Prints a metric table.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(out, "  {:<28} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.what);
    }
    out
}

/// The final result line.
pub fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
