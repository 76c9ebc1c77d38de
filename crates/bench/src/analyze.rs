//! `reproduce -- analyze <trace.json>`: turn a recorded Chrome trace
//! into answers — where did the wall-clock go (per-phase self/total
//! attribution), what was the longest serial chain (critical path), how
//! busy were the grid workers, and what does the time profile look like
//! as a flamegraph.
//!
//! The heavy lifting lives in [`obs::analyze`]; this module is the
//! filesystem-facing wrapper: it reads the trace, renders the three
//! report tables, and writes the collapsed-stack file (`<stem>.folded`,
//! one `a;b;c count` line per unique stack — the format `flamegraph.pl`
//! and speedscope ingest) plus a self-contained SVG flamegraph
//! (`<stem>.svg`) next to the input.

use obs::analyze::{
    attribution, collapsed_stacks, critical_path, flamegraph_svg, parse_collapsed, parse_trace,
    render_attribution, render_critical_path, render_worker_stats, worker_stats,
};
use std::path::{Path, PathBuf};

/// Everything one analysis pass produces.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The rendered attribution + critical-path + worker tables.
    pub report: String,
    /// Where the collapsed-stack file landed.
    pub folded_path: PathBuf,
    /// Where the SVG flamegraph landed.
    pub svg_path: PathBuf,
}

/// Analyzes a `trace.json` on disk: parses the span forest, renders
/// attribution / critical path / worker utilization, and writes
/// `<stem>.folded` and `<stem>.svg` siblings.
///
/// # Errors
///
/// Returns a description when the file is unreadable, the JSON is
/// malformed, or the siblings cannot be written.
pub fn analyze_trace_file(path: &Path) -> Result<AnalyzeReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let trace = parse_trace(&text)?;

    let mut report = format!("Trace analysis of {}\n\n", path.display());
    report.push_str(&render_attribution(&attribution(&trace)));
    report.push('\n');
    report.push_str(&render_critical_path(&critical_path(&trace)));
    report.push('\n');
    report.push_str(&render_worker_stats(&worker_stats(&trace)));

    let folded = collapsed_stacks(&trace);
    let folded_path = path.with_extension("folded");
    std::fs::write(&folded_path, &folded)
        .map_err(|e| format!("cannot write {}: {e}", folded_path.display()))?;
    let svg_path = path.with_extension("svg");
    std::fs::write(&svg_path, flamegraph_svg(&trace))
        .map_err(|e| format!("cannot write {}: {e}", svg_path.display()))?;

    Ok(AnalyzeReport { report, folded_path, svg_path })
}

/// CI-sized analysis check: runs the smoke profile on `gsm` in-process,
/// analyzes the resulting trace, and asserts the acceptance criteria —
/// non-empty critical path, per-worker utilization inside `[0, 100]`,
/// a well-formed SVG, and a collapsed-stack file that parses back.
/// Returns a human-readable summary.
///
/// # Panics
///
/// Panics when any of those criteria fails.
pub fn analyze_smoke() -> String {
    let rep = crate::profile::profile_kernel("gsm", true, obs::ProgressTracker::off());
    let trace_path = PathBuf::from("target/trace_analyze_smoke.json");
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).expect("target dir");
    }
    std::fs::write(&trace_path, &rep.trace_json).expect("trace written");

    let out = analyze_trace_file(&trace_path).expect("analysis succeeds");
    let trace = parse_trace(&rep.trace_json).expect("trace parses");

    let path = critical_path(&trace);
    assert!(!path.is_empty(), "critical path is empty");
    let workers = worker_stats(&trace);
    assert!(!workers.is_empty(), "no grid.worker spans in profile trace");
    for w in &workers {
        let u = w.utilization_pct();
        assert!((0.0..=100.0).contains(&u), "worker {} utilization {u} out of range", w.tid);
    }

    let svg = std::fs::read_to_string(&out.svg_path).expect("svg readable");
    assert!(svg.starts_with("<svg"), "svg missing opening tag");
    assert!(svg.trim_end().ends_with("</svg>"), "svg missing closing tag");
    let folded = std::fs::read_to_string(&out.folded_path).expect("folded readable");
    let stacks = parse_collapsed(&folded).expect("collapsed stacks parse back");
    assert!(!stacks.is_empty(), "collapsed stack file is empty");

    assert!(out.report.contains("Critical path"), "{}", out.report);
    format!(
        "analyze-smoke: {}-step critical path, {} workers (all in [0,100]%), {} collapsed \
         stacks, SVG well-formed — wrote {} and {}",
        path.len(),
        workers.len(),
        stacks.len(),
        out.folded_path.display(),
        out.svg_path.display(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_rejects_missing_and_malformed_files() {
        assert!(analyze_trace_file(Path::new("target/definitely_missing.json")).is_err());
        let p = PathBuf::from("target/analyze_malformed_test.json");
        std::fs::create_dir_all("target").unwrap();
        std::fs::write(&p, "not json").unwrap();
        assert!(analyze_trace_file(&p).unwrap_err().contains("parse"));
    }

    /// Golden test on a real recorded profile trace: the full smoke
    /// pipeline (profile → analyze → folded/SVG round-trip) holds.
    #[test]
    fn smoke_analysis_of_a_real_profile_trace_passes() {
        let line = analyze_smoke();
        assert!(line.contains("critical path"), "{line}");
        assert!(line.contains("SVG well-formed"), "{line}");
    }
}
