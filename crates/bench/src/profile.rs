//! `reproduce -- profile <kernel>`: one instrumented pass over the three
//! heavy subsystems — the parallel (case × key) grid, the SAT attack and
//! the DSE sweep — with the `obs` telemetry layer enabled, exported as a
//! Chrome `trace.json` (load in `chrome://tracing` or
//! <https://ui.perfetto.dev>) plus a metrics summary table.
//!
//! `profile-smoke` is the CI-sized variant: it runs the same pass with
//! tight budgets, parses the trace back with `obs::json`, and fails
//! unless the trace is well-formed JSON covering grid, SAT *and* DSE
//! spans with non-zero core counters.

use crate::experiments::{locking_key, test_case};
use hls_dse::{explore, ConfigSpace, DseOptions, Kernel};
use obs::{ChromeTraceSink, Obs, ProgressTracker};
use rtl::{CompiledFsmd, SimOptions, TestCase};
use sim_core::GridExec;
use std::sync::Arc;
use tao::{SatAttackConfig, TaoOptions};

/// Everything one profiled pass produces.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Kernel the pass profiled.
    pub kernel: String,
    /// Chrome trace_event JSON (`{"traceEvents": [...]}`).
    pub trace_json: String,
    /// Fixed-width metrics table from the shared registry.
    pub summary: String,
    /// Grid trials the instrumented executor ran.
    pub grid_trials: u64,
    /// DIPs the budgeted SAT attack found.
    pub sat_dips: u64,
    /// Lattice points the DSE sweep evaluated.
    pub dse_points: u64,
}

/// Profiles one suite kernel: a parallel grid sweep, a budgeted SAT
/// attack and a smoke-sized DSE sweep, all feeding one shared [`Obs`]
/// handle whose sink is a Chrome trace. `smoke` tightens every budget
/// to CI size. `progress` is threaded through every stage (grid trials,
/// attack DIPs, DSE points); pass [`ProgressTracker::off()`] for a
/// silent pass.
///
/// # Panics
///
/// Panics when `kernel` is not in the benchmark suite or any stage
/// fails to compile/lock — the suite kernels are fixtures, so that is a
/// bug, not an input error.
pub fn profile_kernel(kernel: &str, smoke: bool, progress: ProgressTracker) -> ProfileReport {
    let sink = Arc::new(ChromeTraceSink::new());
    let obs = Obs::new(Arc::clone(&sink));

    // Stage 1 — the parallel (case × key) grid on the locked kernel.
    let b = benchmarks::by_name(kernel).expect("suite kernel");
    let lk = locking_key(0x5eed);
    let m = b.compile().expect("kernel compiles");
    let d = tao::lock(&m, b.top, &lk, &TaoOptions::default()).expect("lock succeeds");
    let wk = d.working_key(&lk);
    let case: TestCase = test_case(&b, &d, 1);
    let ctape = CompiledFsmd::compile(&d.fsmd);
    let n_keys = if smoke { 8 } else { 25 };
    let mut keys = vec![wk.clone()];
    for i in 1..n_keys as u64 {
        keys.push(d.working_key(&locking_key(0x6e1d ^ i)));
    }
    let budget = SimOptions { max_cycles: 2_000_000, snapshot_on_timeout: true };
    progress.set_phase("profile-grid");
    let exec = GridExec::default().with_obs(obs.clone()).with_progress(progress.clone());
    let grid = exec.grid(&ctape, std::slice::from_ref(&case), &keys, &budget);
    let grid_trials = grid.iter().flatten().count() as u64;

    // Stage 2 — the budgeted SAT attack on the same locked design
    // (an 8-cycle window: the pass measures effort, not full recovery).
    let cfg = SatAttackConfig {
        unroll: Some(8),
        max_dips: Some(if smoke { 4 } else { 16 }),
        conflict_budget: Some(if smoke { 500 } else { 2_000 }),
        obs: obs.clone(),
        progress: progress.clone(),
        ..SatAttackConfig::default()
    };
    let att = tao::sat_attack_design(&d, &wk, std::slice::from_ref(&case), &cfg)
        .expect("emitted text parses");
    let sat_dips = att.outcome.dips;

    // Stage 3 — a smoke-sized DSE sweep over the same kernel, with the
    // handle forwarded through `DseOptions`: per-phase `dse.*` spans and
    // the memo counters (no SAT sign-off runs, so no solver spans).
    let stim = &b.stimuli(1, 7)[0];
    let dse_kernels =
        vec![Kernel::new(b.name, b.source, b.top, stim.args.clone())
            .with_arrays(stim.arrays.clone())];
    let space = ConfigSpace::smoke();
    let report = explore(
        &dse_kernels,
        &space,
        &DseOptions { obs: obs.clone(), progress: progress.clone(), ..Default::default() },
    )
    .expect("dse sweep");
    let dse_points = report.points.len() as u64;

    ProfileReport {
        kernel: kernel.to_string(),
        trace_json: sink.to_json(),
        summary: obs.summary(),
        grid_trials,
        sat_dips,
        dse_points,
    }
}

/// Validates a Chrome trace produced by [`profile_kernel`]: parses it
/// back, checks the `traceEvents` shape (every event has `name`/`ph`/
/// `pid`/`tid`/`ts`), and returns the distinct event names.
///
/// # Errors
///
/// Returns a description when the JSON is malformed or an event is
/// missing a required field.
pub fn check_trace(trace_json: &str) -> Result<Vec<String>, String> {
    let v = obs::json::parse(trace_json).map_err(|e| format!("trace does not parse: {e}"))?;
    let events =
        v.get("traceEvents").and_then(|e| e.as_arr()).ok_or("trace has no traceEvents array")?;
    let mut names: Vec<String> = Vec::new();
    for ev in events {
        let name = ev
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("event without a name: {ev:?}"))?;
        for field in ["ph", "pid", "tid", "ts"] {
            if ev.get(field).is_none() {
                return Err(format!("event `{name}` missing `{field}`"));
            }
        }
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    }
    Ok(names)
}

/// The spans a complete profile trace must cover: one per instrumented
/// subsystem (grid, SAT solver, DSE phases) plus the attack loop's
/// stages (the whole attack, its initial encode, each DIP solve and the
/// final key search).
pub const REQUIRED_SPANS: [&str; 9] = [
    "grid.run",
    "grid.worker",
    "sat.solve",
    "attack.sat",
    "attack.encode",
    "attack.dip",
    "attack.model",
    "dse.explore",
    "dse.point",
];

/// Runs the CI-sized profile pass and asserts the acceptance criteria:
/// well-formed Chrome trace covering grid, SAT and DSE spans, with
/// non-zero core counters. Returns a human-readable summary.
///
/// # Panics
///
/// Panics when the trace is malformed, a required span is missing, or a
/// core counter stayed at zero.
pub fn profile_smoke() -> String {
    let rep = profile_kernel("sobel", true, ProgressTracker::off());
    let names = check_trace(&rep.trace_json).expect("profile trace is well-formed");
    for span in REQUIRED_SPANS {
        assert!(names.iter().any(|n| n == span), "trace covers no `{span}` span: {names:?}");
    }
    assert!(rep.grid_trials > 0, "grid ran no trials");
    assert!(rep.dse_points > 0, "dse evaluated no points");
    for needle in ["grid.trials", "sat.conflicts", "dse.points"] {
        assert!(
            rep.summary.lines().any(|l| l.contains(needle) && !l.ends_with(" 0")),
            "summary counter `{needle}` missing or zero:\n{}",
            rep.summary
        );
    }
    format!(
        "profile-smoke: {} trace event names across {} grid trials, {} DIPs, {} DSE points — \
         all {} required spans present",
        names.len(),
        rep.grid_trials,
        rep.sat_dips,
        rep.dse_points,
        REQUIRED_SPANS.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_covers_all_three_subsystems() {
        let line = profile_smoke();
        assert!(line.contains("required spans present"));
    }

    #[test]
    fn check_trace_rejects_malformed_input() {
        assert!(check_trace("not json").is_err());
        assert!(check_trace("{}").is_err());
        assert!(check_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        let ok = "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"pid\": 1, \
                  \"tid\": 1, \"ts\": 0.5}]}";
        assert_eq!(check_trace(ok).unwrap(), vec!["a".to_string()]);
    }
}
