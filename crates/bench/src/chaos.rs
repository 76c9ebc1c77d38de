//! The chaos smoke: one deterministic fault-injection pass over every
//! long-running loop in the workspace — grid sweeps, differential
//! verification, the CDCL solver, the DIP attack and the DSE engine —
//! asserting the degradation guarantees the `sim_core::ctrl` control
//! plane promises: a panicking trial injures only its own slot, a
//! cancelled sweep drains to a consistent partial result, and the
//! process never aborts.
//!
//! Every fault is injected by logical coordinate through a seeded
//! [`FaultPlan`] armed on the governing [`Budget`], so the same work item
//! dies at every worker count and the surviving slots can be compared
//! bit for bit against a fault-free reference run.

use crate::experiments::locking_key;
use hls_dse::{ConfigSpace, DseOptions, Kernel};
use rtl::{CompiledFsmd, SimOptions, TestCase};
use sim_core::faultpoint::sites;
use sim_core::{Budget, FaultPlan, GridExec, SimError};
use std::time::Duration;
use tao::{DifferentialReport, ExhaustCause, SatAttackConfig, SatAttackStatus, TaoOptions};

const KERNEL: &str = r#"
    int mix(int a, int b) {
        int r = a ^ 21;
        if (r > b) r = r + b;
        else r = r - b;
        return r ^ 5;
    }
"#;

/// Runs the whole chaos pass and returns a human-readable summary.
///
/// # Panics
///
/// Panics when any degradation guarantee is violated — an injured trial
/// escaping its slot, a cancelled loop losing completed work, or a fault
/// escalating past its isolation boundary.
pub fn chaos_smoke() -> String {
    sim_core::faultpoint::install_quiet_hook();
    let mut lines = Vec::new();

    let m = hls_frontend::compile(KERNEL, "mix").expect("kernel compiles");
    let lk = locking_key(0xC4A05);
    let d = tao::lock(&m, "mix", &lk, &TaoOptions::default()).expect("lock succeeds");
    let wk = d.working_key(&lk);
    let cases = [TestCase::args(&[5, 2]), TestCase::args(&[2, 5])];
    let mut keys = vec![wk.clone()];
    for i in 0..5u64 {
        keys.push(d.working_key(&locking_key(0xB0 ^ (i + 1))));
    }
    let ctape = CompiledFsmd::compile(&d.fsmd);
    let opts = SimOptions { max_cycles: 100_000, snapshot_on_timeout: true };
    let reference = GridExec::sequential().grid(&ctape, &cases, &keys, &opts);
    let n_cases = cases.len();
    let total = n_cases * keys.len();

    // --- grid: one panicking trial per worker count ---------------------
    let panic_coord = 3u64;
    for workers in [1usize, 2, 5] {
        let plan = FaultPlan::new().panic_at(sites::GRID_TRIAL, panic_coord);
        let budget = Budget::unlimited().with_faults(plan);
        let rows = GridExec::new(workers).with_budget(budget).grid(&ctape, &cases, &keys, &opts);
        for (i, got) in rows.iter().flatten().enumerate() {
            if i as u64 == panic_coord {
                assert!(
                    matches!(got, Err(SimError::WorkerPanic { .. })),
                    "workers={workers}: injured trial {i} must report WorkerPanic, got {got:?}"
                );
            } else {
                assert_eq!(
                    got,
                    &reference[i / n_cases][i % n_cases],
                    "workers={workers}: surviving trial {i} diverged from fault-free run"
                );
            }
        }
    }
    lines.push(format!(
        "grid-panic: trial {panic_coord}/{total} injured at workers 1/2/5, \
         all other slots bit-identical to fault-free"
    ));

    // --- grid: spurious cancellation drains to a prefix on one worker ---
    let plan = FaultPlan::new().cancel_at(sites::GRID_TRIAL, 2);
    let budget = Budget::unlimited().with_faults(plan);
    let rows = GridExec::new(1).with_budget(budget).grid(&ctape, &cases, &keys, &opts);
    let flat: Vec<_> = rows.iter().flatten().collect();
    let done = flat.iter().take_while(|r| !matches!(r, Err(SimError::Cancelled))).count();
    assert!(done < total, "cancellation must skip a tail");
    assert!(done >= 3, "the in-flight chunk still completes");
    for (i, got) in flat.iter().enumerate() {
        if i < done {
            assert_eq!(*got, &reference[i / n_cases][i % n_cases], "prefix trial {i} diverged");
        } else {
            assert!(matches!(got, Err(SimError::Cancelled)), "tail trial {i} must be Cancelled");
        }
    }
    lines.push(format!(
        "grid-cancel: drained after {done}/{total} trials, prefix bit-identical, \
         tail reported Cancelled"
    ));

    // --- differential verification: one injured pair, one drained sweep -
    let trials = tao::standard_trials(&d, &lk, 5, 0xC4A05);
    let pairs = n_cases * trials.len();
    let verify = |exec: &GridExec| {
        tao::verify::differential_verify_on(&d, &cases, &trials, &opts, exec)
            .expect("emitted text parses")
    };
    let fault_free = verify(&GridExec::sequential());
    // Coordinate 1 names (case 1, trial 0) in both fan-outs: a correct-key
    // pair, which adds nothing to the report but its comparison.
    let injured = DifferentialReport {
        comparisons: fault_free.comparisons - 1,
        panics: 1,
        panic_labels: vec!["correct/case-1".into()],
        ..fault_free.clone()
    };
    for workers in [1usize, 2, 5] {
        let budget =
            Budget::unlimited().with_faults(FaultPlan::new().panic_at(sites::GRID_TRIAL, 1));
        let got = verify(&GridExec::new(workers).with_budget(budget));
        assert_eq!(got, injured, "workers={workers}: the injured pair must be the only change");
    }
    lines.push(format!(
        "differential-panic: pair 1/{pairs} (correct/case-1) injured at workers 1/2/5, \
         every other count equal to fault-free"
    ));

    let mut drained = None;
    for workers in [1usize, 2, 5] {
        let budget =
            Budget::unlimited().with_faults(FaultPlan::new().cancel_at(sites::GRID_TRIAL, 4));
        let got = verify(&GridExec::new(workers).with_budget(budget));
        assert!(got.was_cancelled && !got.is_clean(), "workers={workers}: {got}");
        assert_eq!(
            (got.comparisons + got.skipped, got.panics),
            (pairs, 0),
            "workers={workers}: every pair is compared or skipped"
        );
        // The cancel fires in the first fan-out, and the second starts no
        // pair after it, so the split is the same at every worker count.
        let split = (got.comparisons, got.skipped);
        assert_eq!(*drained.get_or_insert(split), split, "workers={workers}");
    }
    let (compared, skipped) = drained.unwrap_or_default();
    lines.push(format!(
        "differential-cancel: cancel at pair 4/{pairs} drained to {compared} compared + \
         {skipped} skipped at workers 1/2/5, report unclean"
    ));

    // --- attack: expired deadline / step budget / mid-run cancel --------
    let att = |cfg: &SatAttackConfig| {
        tao::sat_attack_design(&d, &wk, &[TestCase::args(&[5, 2])], cfg)
            .expect("emitted text parses")
    };
    let expired = att(&SatAttackConfig {
        budget: Budget::unlimited().with_deadline_after(Duration::ZERO),
        ..SatAttackConfig::default()
    });
    assert_eq!(expired.outcome.status, SatAttackStatus::Exhausted(ExhaustCause::Deadline));
    assert_eq!(expired.outcome.unroll_final, 0, "an expired deadline encodes no frame");
    assert!(expired.outcome.key.is_some(), "even an expired attack hands back a model");

    let stepped = att(&SatAttackConfig { step_budget: Some(50), ..SatAttackConfig::default() });
    assert_eq!(stepped.outcome.status, SatAttackStatus::Exhausted(ExhaustCause::StepBudget));
    // One propagation round may overshoot the budget by at most the
    // variable count; nothing after the DIP loop may spend more.
    assert!(
        stepped.outcome.propagations <= 50 + stepped.outcome.vars as u64,
        "step budget overrun: {} propagations against 50 over {} vars",
        stepped.outcome.propagations,
        stepped.outcome.vars
    );

    let cancelled = att(&SatAttackConfig {
        budget: Budget::unlimited()
            .with_faults(FaultPlan::new().cancel_at(sites::ATTACK_ORACLE, 0)),
        ..SatAttackConfig::default()
    });
    assert_eq!(cancelled.outcome.status, SatAttackStatus::Exhausted(ExhaustCause::Cancelled));
    assert_eq!(cancelled.outcome.dips, 1, "the in-flight DIP completes before draining");
    assert_eq!(cancelled.outcome.constraints.len(), 1, "its I/O constraint is handed back");
    lines.push(format!(
        "sat-attack: deadline/step-budget/cancel all degrade to Exhausted partials \
         (deadline encoded {} frames; step budget 50 spent {} propagations; \
         {} constraint retained after mid-run cancel)",
        expired.outcome.unroll_final,
        stepped.outcome.propagations,
        cancelled.outcome.constraints.len()
    ));

    // --- DSE: cancel mid-sweep, keep the partial front ------------------
    let kernels = vec![Kernel::new("mix", KERNEL, "mix", vec![5, 2])];
    let space = ConfigSpace::smoke();
    let full = hls_dse::explore(&kernels, &space, &DseOptions::default()).expect("full sweep");
    let dse_opts = DseOptions {
        threads: 1,
        budget: Budget::unlimited().with_faults(FaultPlan::new().cancel_at(sites::DSE_POINT, 1)),
        ..DseOptions::default()
    };
    let part = hls_dse::explore(&kernels, &space, &dse_opts).expect("partial sweep");
    assert!(part.was_cancelled);
    assert!(part.skipped > 0, "cancellation must skip points");
    assert_eq!(part.points.as_slice(), &full.points[..part.points.len()], "completed prefix");
    assert!(part.pareto.iter().all(|&i| i < part.points.len()), "front indexes completed points");
    lines.push(format!(
        "dse-cancel: {}/{} points kept with a sound partial front ({} on it), {} skipped",
        part.points.len(),
        full.points.len(),
        part.pareto.len(),
        part.skipped
    ));

    format!("chaos-smoke: all degradation guarantees held\n  {}", lines.join("\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_smoke_passes() {
        let summary = chaos_smoke();
        assert!(summary.contains("all degradation guarantees held"));
        assert!(summary.contains("grid-panic"));
        assert!(summary.contains("differential-panic"));
        assert!(summary.contains("differential-cancel"));
        assert!(summary.contains("dse-cancel"));
    }
}
