//! Three-way differential verification of locked designs (paper Sec. 4.1).
//!
//! The paper validates TAO by simulating the generated RTL with extended
//! testbenches that "specify different locking keys as input and verify
//! the implementation for each of them". This module makes that loop
//! executable over *three* independent implementations of a locked
//! design's semantics:
//!
//! 1. the IR interpreter (`hls_ir::Interpreter`) — the golden software
//!    specification;
//! 2. the compiled FSMD tape (`rtl::CompiledFsmd`) — the in-memory RTL
//!    model;
//! 3. the compiled Verilog tape (`vlog::VlogTape`) — executing the
//!    *emitted* text, the foundry-visible artifact.
//!
//! Layers 2 and 3 must agree **bit for bit and cycle for cycle on every
//! key** — correct or wrong — including `CycleLimit` behaviour, because
//! they implement the same circuit. Layer 1 must agree with them exactly
//! when the key is correct, and must be corrupted by every wrong key.
//! Any disagreement is a real bug in the emitter or one of the
//! simulators, which is what makes every future emitter change provable.
//!
//! A wrong key that bends a loop bound never finishes, and both tapes
//! fast-forward such a run once its whole state recurs: under a
//! snapshot budget they still return the exact state at the budget,
//! and without one they return `CycleLimit` as soon as the loop is
//! proven. Either way the pair counts as a timeout. A pair both layers
//! reject with any other error (a key of the wrong width) ran nothing;
//! it is listed in [`DifferentialReport::rejected`] and leaves the
//! report unclean.

use crate::flow::LockedDesign;
use hls_core::{verilog, Fsmd, KeyBits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtl::{
    golden_outputs, images_equal, CompiledFsmd, OutputImage, SimError, SimOptions, SimStats,
    TestCase,
};
use sim_core::{GridExec, TrialCell};
use std::fmt;
use vlog::{VlogError, VlogTape};

/// One working key to drive through the differential testbench.
#[derive(Debug, Clone)]
pub struct KeyTrial {
    /// Display label (e.g. `"correct"`, `"wrong-3"`).
    pub label: String,
    /// The working key applied to both RTL layers.
    pub working_key: KeyBits,
    /// Whether the golden model must match (true only for the correct
    /// key).
    pub expect_golden: bool,
}

/// The correct working key plus `n_wrong` random wrong keys derived from
/// random locking keys (through the design's own key-management power-up,
/// as an adversary supplying locking keys would).
pub fn standard_trials(
    design: &LockedDesign,
    locking: &KeyBits,
    n_wrong: usize,
    seed: u64,
) -> Vec<KeyTrial> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trials = vec![KeyTrial {
        label: "correct".into(),
        working_key: design.working_key(locking),
        expect_golden: true,
    }];
    for i in 0..n_wrong {
        let wrong_lk = KeyBits::from_fn(locking.width(), || rng.gen());
        trials.push(KeyTrial {
            label: format!("wrong-{i}"),
            working_key: design.working_key(&wrong_lk),
            expect_golden: false,
        });
    }
    trials
}

/// Outcome of a differential run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DifferentialReport {
    /// Design name.
    pub design: String,
    /// `(trial, case)` pairs executed.
    pub comparisons: usize,
    /// FSMD-vs-Verilog divergences (must be empty — each entry describes
    /// a real emitter/simulator bug).
    pub rtl_vlog_mismatches: Vec<String>,
    /// Correct-key runs that failed to reproduce the golden outputs (must
    /// be empty).
    pub golden_failures: Vec<String>,
    /// Wrong-key runs that still produced the golden outputs (weak keys;
    /// the paper's validation requires 0).
    pub wrong_key_clean: usize,
    /// Wrong-key runs with corrupted outputs.
    pub wrong_key_corrupted: usize,
    /// Runs cut off by the cycle budget (wrong keys altering loop bounds):
    /// a budget-cut snapshot, or `CycleLimit` on both layers. Since the
    /// tapes fast-forward a run whose state recurs, a run without
    /// snapshots returns `CycleLimit` as soon as it provably loops; it
    /// counts here all the same.
    pub timeouts: usize,
    /// `"{trial}/case-{c}: …"` for pairs that both layers rejected with
    /// the same error other than `CycleLimit` (a key of the wrong width,
    /// a wrong argument count): nothing was simulated, so the pair can
    /// neither time out nor corrupt. Must be empty.
    pub rejected: Vec<String>,
    /// Mean output-corruptibility Hamming fraction over wrong-key runs.
    pub avg_wrong_hd: f64,
    /// `(trial, case)` pairs left uncompared because the executor's
    /// budget ran out before both of their halves ran.
    pub skipped: usize,
    /// `(trial, case)` pairs whose worker body panicked; each carries its
    /// own label in [`DifferentialReport::panic_labels`].
    pub panics: usize,
    /// `"{trial}/case-{c}"` coordinates of the panicked pairs.
    pub panic_labels: Vec<String>,
    /// The executor's budget was cancelled or expired during the sweep.
    pub was_cancelled: bool,
}

impl DifferentialReport {
    /// `true` when every comparison ran and all three layers agreed
    /// everywhere they must.
    pub fn is_clean(&self) -> bool {
        self.rtl_vlog_mismatches.is_empty()
            && self.golden_failures.is_empty()
            && self.rejected.is_empty()
            && self.wrong_key_clean == 0
            && self.skipped == 0
            && self.panics == 0
    }
}

impl fmt::Display for DifferentialReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} comparisons | rtl≡vlog mismatches: {} | golden failures: {} | \
             wrong keys: {} corrupted, {} clean, {} timeouts | avg HD {:.3}",
            self.design,
            self.comparisons,
            self.rtl_vlog_mismatches.len(),
            self.golden_failures.len(),
            self.wrong_key_corrupted,
            self.wrong_key_clean,
            self.timeouts,
            self.avg_wrong_hd,
        )?;
        for m in self.rtl_vlog_mismatches.iter().chain(&self.golden_failures).chain(&self.rejected)
        {
            writeln!(f, "  ✗ {m}")?;
        }
        for label in &self.panic_labels {
            writeln!(f, "  ✗ {label}: worker panicked")?;
        }
        if self.skipped > 0 {
            writeln!(f, "  ✗ {} comparisons skipped by the budget", self.skipped)?;
        }
        Ok(())
    }
}

/// The FSMD half of one `(case, trial)` pair, kept from the first
/// fan-out for the second: the full state the Verilog half must
/// reproduce, or the error the run ended with.
type FsmdHalf = Result<FsmdState, SimError>;

/// Everything the full-state comparison reads from a terminated FSMD
/// run.
struct FsmdState {
    stats: SimStats,
    regs: Vec<u64>,
    mems: Vec<Vec<u64>>,
    image: OutputImage,
}

/// One (case, trial) comparison's outcome, produced on a worker thread
/// and folded into the [`DifferentialReport`] in deterministic trial
/// order.
struct TrialOutcome {
    /// FSMD-vs-Verilog divergence description, if any.
    mismatch: Option<String>,
    /// The run counted toward the timeout tally (budget-cut snapshot or
    /// `CycleLimit` on both layers).
    timed_out: bool,
    /// The error both layers rejected the run with, when it is not
    /// `CycleLimit`.
    rejected: Option<SimError>,
    /// Both layers terminated, so the FSMD output image is the pair's
    /// output.
    terminated: bool,
}

/// Runs the three-way differential testbench: every trial key over every
/// test case, on the FSMD simulator and on the emitted Verilog text, with
/// the IR interpreter as golden reference for correct-key trials.
///
/// The (case × trial) grid is sharded over [`GridExec::default`]; the
/// report is bit-identical for every worker count.
///
/// # Errors
///
/// Returns [`VlogError`] when the emitted text fails to parse — itself a
/// differential finding (the emitter produced unexecutable Verilog).
///
/// # Panics
///
/// Panics if the golden interpreter rejects a test case (the golden model
/// must accept every stimulus, as in `rtl::testbench`).
pub fn differential_verify(
    design: &LockedDesign,
    cases: &[TestCase],
    trials: &[KeyTrial],
    opts: &SimOptions,
) -> Result<DifferentialReport, VlogError> {
    differential_verify_on(design, cases, trials, opts, &GridExec::default())
}

/// [`differential_verify`] on an explicit executor (worker count of the
/// caller's choosing; results are identical for every value), under the
/// executor's budget.
///
/// The sweep is two fan-outs on `exec`, each taking one `(case, trial)`
/// pair per steal in key-major order, so pair `(c, t)` is slot and
/// [`GRID_TRIAL`](sim_core::faultpoint::sites::GRID_TRIAL) coordinate
/// `t * cases.len() + c` in both:
///
/// 1. the FSMD tape runs every pair and keeps its outcome and full state,
///    while the calling thread emits and elaborates the Verilog text and
///    runs the golden interpreter as the fan-out's lead job;
/// 2. the Verilog tape runs every pair whose FSMD half completed and
///    compares it with the kept state.
///
/// A panicking pair — in either fan-out — injures only itself: it is
/// listed in [`DifferentialReport::panic_labels`] instead of being
/// folded. A fault planted at a pair's coordinate fires in both
/// fan-outs. A cancelled or expired budget drains the sweep, and only
/// pairs whose two halves both ran are folded: the second fan-out starts
/// no pair once the budget is exceeded, so a budget exhausted during the
/// first leaves every pair that did not panic skipped. Both leave the
/// report unclean.
///
/// # Errors
///
/// Returns [`VlogError`] when the emitted text fails to parse (after the
/// FSMD halves have run).
///
/// # Panics
///
/// As [`differential_verify`].
pub fn differential_verify_on(
    design: &LockedDesign,
    cases: &[TestCase],
    trials: &[KeyTrial],
    opts: &SimOptions,
    exec: &GridExec,
) -> Result<DifferentialReport, VlogError> {
    verify_emitted(design, &design.fsmd, cases, trials, opts, exec)
}

/// [`differential_verify_on`] with the Verilog text emitted from
/// `emitted` rather than from `design.fsmd`, so that a test can plant an
/// emitter bug that the FSMD model does not share.
fn verify_emitted(
    design: &LockedDesign,
    emitted: &Fsmd,
    cases: &[TestCase],
    trials: &[KeyTrial],
    opts: &SimOptions,
    exec: &GridExec,
) -> Result<DifferentialReport, VlogError> {
    // Both RTL layers run on their compiled tape backends: each is built
    // once, and every worker mints one runner per fan-out and reuses its
    // buffers across the pairs it steals. One pair per steal balances
    // pairs whose cost ranges from a loop proven at once to a whole
    // budget; key-major order keeps most consecutive steals on one key.
    let ctape = CompiledFsmd::compile(&design.fsmd);
    let n_cases = cases.len();
    let n = n_cases * trials.len();
    let (front, fsmd) = exec.run_cells_with_lead(
        n,
        1,
        || -> Result<_, VlogError> {
            let vtape = VlogTape::new(&verilog::emit(emitted))?;
            let goldens: Vec<OutputImage> = cases
                .iter()
                .map(|case| golden_outputs(&design.module, &design.top, case))
                .collect();
            Ok((vtape, goldens))
        },
        || ctape.runner(),
        |frun, i| -> FsmdHalf {
            let stats =
                frun.run_case(&cases[i % n_cases], &trials[i / n_cases].working_key, opts)?;
            Ok(FsmdState {
                regs: frun.regs().to_vec(),
                mems: frun.mems().to_vec(),
                image: frun.image(&stats),
                stats,
            })
        },
    );
    let (vtape, goldens) = front?;
    let vlog = exec.run_cells(
        n,
        1,
        || vtape.runner(),
        |vrun, i| {
            let TrialCell::Done(fsmd) = &fsmd[i] else { return None };
            Some(compare_pair(fsmd, vrun, &cases[i % n_cases], &trials[i / n_cases], opts, design))
        },
    );
    let mut report = fold_outcomes(design, cases, trials, &goldens, &fsmd, &vlog);
    report.was_cancelled = exec.budget().is_exceeded();
    Ok(report)
}

/// Runs one `(case, trial)` pair's Verilog half and compares it with the
/// kept FSMD half.
fn compare_pair(
    fsmd: &FsmdHalf,
    vrun: &mut vlog::TapeRunner<'_>,
    case: &TestCase,
    trial: &KeyTrial,
    opts: &SimOptions,
    design: &LockedDesign,
) -> TrialOutcome {
    let v = vrun.run_case(case, &trial.working_key, opts, &design.fsmd.mem_of_array);
    let diverged = |what: String| TrialOutcome {
        mismatch: Some(format!("{}: {what}", trial.label)),
        timed_out: false,
        rejected: None,
        terminated: false,
    };
    match (fsmd, &v) {
        (Ok(f), Ok(vr)) => {
            // Full-state comparison, as the tree backends' `SimResult`
            // equality did: scalar outcome, every register, every memory
            // image.
            let mismatch = if f.stats != *vr || f.regs != vrun.regs() {
                Some(format!(
                    "{}: state diverged (fsmd {} cycles ret {:?} vs vlog {} cycles ret {:?})",
                    trial.label, f.stats.cycles, f.stats.ret, vr.cycles, vr.ret
                ))
            } else if f.mems != vrun.mems() || !images_equal(&f.image, &vrun.image(vr)) {
                Some(format!(
                    "{}: output images diverged ({:?} vs {:?})",
                    trial.label,
                    f.image,
                    vrun.image(vr)
                ))
            } else {
                None
            };
            TrialOutcome {
                mismatch,
                timed_out: f.stats.timed_out,
                rejected: None,
                terminated: true,
            }
        }
        (Err(re), Err(ve)) if re == ve => TrialOutcome {
            mismatch: None,
            timed_out: *re == SimError::CycleLimit,
            rejected: (*re != SimError::CycleLimit).then(|| re.clone()),
            terminated: false,
        },
        (Err(re), Err(ve)) => diverged(format!("errors diverged (fsmd {re} vs vlog {ve})")),
        (Ok(_), Err(e)) => diverged(format!("fsmd completed but vlog failed ({e})")),
        (Err(e), Ok(_)) => diverged(format!("vlog completed but fsmd failed ({e})")),
    }
}

/// Deterministic fold in (case-major, trial-minor) order — the same order
/// the sequential loop reported in. A pair that panicked in either
/// fan-out, or that the budget left without both halves, is tallied,
/// not folded; `comparisons` counts only completed pairs.
fn fold_outcomes(
    design: &LockedDesign,
    cases: &[TestCase],
    trials: &[KeyTrial],
    goldens: &[OutputImage],
    fsmd: &[TrialCell<FsmdHalf>],
    vlog: &[TrialCell<Option<TrialOutcome>>],
) -> DifferentialReport {
    let (n_cases, n_trials) = (cases.len(), trials.len());
    let mut report = DifferentialReport { design: design.top.clone(), ..Default::default() };
    let mut hd_sum = 0.0;
    let mut hd_n = 0usize;
    for (c, t) in (0..n_cases).flat_map(|c| (0..n_trials).map(move |t| (c, t))) {
        let i = t * n_cases + c;
        let (golden, trial) = (&goldens[c], &trials[t]);
        let (half, outcome) = match (&fsmd[i], &vlog[i]) {
            (TrialCell::Done(half), TrialCell::Done(Some(o))) => (half, o),
            (TrialCell::Panicked { .. }, _) | (_, TrialCell::Panicked { .. }) => {
                report.panics += 1;
                report.panic_labels.push(format!("{}/case-{c}", trial.label));
                continue;
            }
            _ => {
                report.skipped += 1;
                continue;
            }
        };
        report.comparisons += 1;
        if let Some(m) = &outcome.mismatch {
            report.rtl_vlog_mismatches.push(m.clone());
        }
        if let Some(e) = &outcome.rejected {
            report
                .rejected
                .push(format!("{}/case-{c}: both layers rejected the run ({e})", trial.label));
            continue;
        }
        if outcome.timed_out {
            report.timeouts += 1;
        }
        let image = half.as_ref().ok().filter(|_| outcome.terminated).map(|s| &s.image);
        if trial.expect_golden {
            match image {
                Some(img) if images_equal(golden, img) => {}
                Some(_) => report
                    .golden_failures
                    .push(format!("{}: correct key diverged from golden", trial.label)),
                None => report
                    .golden_failures
                    .push(format!("{}: correct key did not terminate", trial.label)),
            }
        } else if let Some(img) = image {
            if images_equal(golden, img) {
                report.wrong_key_clean += 1;
            } else {
                report.wrong_key_corrupted += 1;
            }
            // A design without an observable output bit has no Hamming
            // fraction to average.
            let (d, t) = golden.hamming(img);
            if t > 0 {
                hd_sum += d as f64 / t as f64;
                hd_n += 1;
            }
        } else {
            // Non-terminating wrong key: corrupted by definition.
            report.wrong_key_corrupted += 1;
        }
    }
    report.avg_wrong_hd = if hd_n > 0 { hd_sum / hd_n as f64 } else { 0.0 };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{lock, TaoOptions};
    use rtl::rtl_outputs;
    use vlog::{vlog_outputs, VlogSim};

    const KERNEL: &str = r#"
        short taps[4] = {3, -1, 4, 1};
        int fir(int a, int b) {
            int acc = 0;
            for (int i = 0; i < 4; i++) {
                if (i % 2 == 0) acc += taps[i] * a;
                else acc += taps[i] * b;
            }
            return acc;
        }
    "#;

    fn locking(seed: u64) -> KeyBits {
        let mut s = seed | 1;
        KeyBits::from_fn(256, || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
    }

    #[test]
    fn three_way_differential_is_clean_on_locked_fir() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(7);
        let d = lock(&m, "fir", &lk, &TaoOptions::default()).unwrap();
        let cases = [TestCase::args(&[3, 4]), TestCase::args(&[100, 0])];
        let trials = standard_trials(&d, &lk, 6, 0xd1ff);
        let budget = SimOptions { max_cycles: 200_000, snapshot_on_timeout: true };
        let report = differential_verify(&d, &cases, &trials, &budget).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.comparisons, 14);
        assert_eq!(report.wrong_key_corrupted, 12);
    }

    #[test]
    fn differential_report_is_identical_across_worker_counts() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(11);
        let d = lock(&m, "fir", &lk, &TaoOptions::default()).unwrap();
        let cases = [TestCase::args(&[2, 7]), TestCase::args(&[0, 1])];
        let mut trials = standard_trials(&d, &lk, 6, 0xabc);
        let short = KeyBits::from_fn(d.fsmd.key_width - 1, || u64::MAX);
        trials.push(KeyTrial { label: "short".into(), working_key: short, expect_golden: false });
        let budget = SimOptions { max_cycles: 20_000, snapshot_on_timeout: true };
        // The planted emitter bug of `a_planted_emitter_bug_is_caught`:
        // the text stores flipped constants the FSMD model does not.
        let mut tampered = d.fsmd.clone();
        for c in &mut tampered.consts {
            c.bits ^= 1;
        }
        let sweep = |emitted: &Fsmd| {
            let run = |workers| {
                let exec = GridExec::new(workers);
                verify_emitted(&d, emitted, &cases, &trials, &budget, &exec).unwrap()
            };
            let one = run(1);
            for workers in [2, 3, 8] {
                assert_eq!(run(workers), one, "workers={workers}");
            }
            one
        };
        let honest = sweep(&d.fsmd);
        assert!(honest.rtl_vlog_mismatches.is_empty(), "{honest}");
        assert!(honest.timeouts > 0, "the sweep must hold a timed-out wrong key: {honest}");
        assert_eq!(honest.rejected.len(), cases.len(), "{honest}");
        let planted = sweep(&tampered);
        assert!(!planted.rtl_vlog_mismatches.is_empty(), "{planted}");
    }

    #[test]
    fn a_design_without_outputs_averages_no_hamming_fraction() {
        let m = hls_frontend::compile("void f(int a) { int b = a + 1; }", "t").unwrap();
        let lk = locking(3);
        let d = lock(&m, "f", &lk, &TaoOptions::default()).unwrap();
        let trials = standard_trials(&d, &lk, 3, 0x0b5);
        let opts = SimOptions { max_cycles: 1_000, snapshot_on_timeout: true };
        let report = differential_verify(&d, &[TestCase::args(&[4])], &trials, &opts).unwrap();
        assert_eq!(report.comparisons, 4, "{report}");
        assert_eq!(report.avg_wrong_hd, 0.0, "{report}");
        assert!(!report.to_string().contains("NaN"), "{report}");
    }

    #[test]
    fn a_pre_cancelled_differential_folds_nothing_and_says_so() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(17);
        let d = lock(&m, "fir", &lk, &TaoOptions::default()).unwrap();
        let cases = [TestCase::args(&[3, 4])];
        let trials = standard_trials(&d, &lk, 2, 0xfee);
        let opts = SimOptions { max_cycles: 200_000, snapshot_on_timeout: true };
        let budget = sim_core::Budget::unlimited();
        budget.cancel();
        let exec = GridExec::new(2).with_budget(budget);
        let out = differential_verify_on(&d, &cases, &trials, &opts, &exec).unwrap();
        assert!(out.was_cancelled);
        assert_eq!(out.comparisons, 0);
        assert_eq!(out.skipped, cases.len() * trials.len());
        assert!(!out.is_clean(), "skipped work must not read as a clean verdict");
    }

    #[test]
    fn a_run_both_layers_reject_is_not_a_clean_timeout() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(7);
        let d = lock(&m, "fir", &lk, &TaoOptions::default()).unwrap();
        let cases = [TestCase::args(&[3, 4])];
        let mut trials = standard_trials(&d, &lk, 1, 0x5407);
        let short = KeyBits::from_fn(d.fsmd.key_width - 1, || u64::MAX);
        trials.push(KeyTrial { label: "short".into(), working_key: short, expect_golden: false });
        let opts = SimOptions { max_cycles: 200_000, snapshot_on_timeout: true };
        let report = differential_verify(&d, &cases, &trials, &opts).unwrap();
        assert!(!report.is_clean(), "{report}");
        assert_eq!((report.comparisons, report.timeouts), (3, 0), "{report}");
        assert_eq!(report.wrong_key_corrupted, 1, "{report}");
        assert_eq!(report.rejected.len(), 1, "{report}");
        let shown = report.to_string();
        assert!(shown.contains("short/case-0") && shown.contains("-bit working key"), "{shown}");
    }

    #[test]
    fn baseline_differential_is_clean() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let d = crate::flow::baseline(&m, "fir", &Default::default()).unwrap();
        // Wrap the bare FSMD in the differential manually: no key.
        let text = hls_core::verilog::emit(&d);
        let sim = VlogSim::new(&text).unwrap();
        let case = TestCase::args(&[5, 9]);
        let r = rtl_outputs(&d, &case, &KeyBits::zero(0), &SimOptions::default()).unwrap();
        let v =
            vlog_outputs(&sim, &case, &KeyBits::zero(0), &SimOptions::default(), &d.mem_of_array)
                .unwrap();
        assert_eq!(r.1, v.1);
        assert!(images_equal(&r.0, &v.0));
    }

    #[test]
    fn a_planted_emitter_bug_is_caught() {
        // Plant a bug in the foundry-visible artifact: flip the low bit of
        // every stored (encrypted) constant before emission. The FSMD model
        // keeps the true constants, so the text must diverge under the
        // correct key.
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(9);
        let d = lock(&m, "fir", &lk, &TaoOptions::default()).unwrap();
        let mut tampered = d.fsmd.clone();
        for c in &mut tampered.consts {
            c.bits ^= 1;
        }
        let sim = VlogSim::new(&verilog::emit(&tampered)).unwrap();
        let case = TestCase::args(&[3, 4]);
        let wk = d.working_key(&lk);
        let opts = SimOptions { max_cycles: 200_000, snapshot_on_timeout: true };
        let (ri, _) = rtl_outputs(&d.fsmd, &case, &wk, &opts).unwrap();
        let (vi, _) = vlog_outputs(&sim, &case, &wk, &opts, &d.fsmd.mem_of_array).unwrap();
        assert!(!images_equal(&ri, &vi), "planted divergence went undetected");
    }
}
