//! The `vlog-diff` experiment: three-way differential verification of the
//! emitted Verilog over the benchmark suite (paper Sec. 4.1, executed on
//! the foundry-visible text).
//!
//! Each row runs one kernel's locked design through `tao::verify`: the IR
//! interpreter (golden), the FSMD cycle simulator and the Verilog-text
//! simulator, under the correct working key and a batch of wrong keys.
//! The two RTL layers must agree bit-for-bit and cycle-for-cycle on every
//! key — timeouts included — while every wrong key corrupts the outputs.

use crate::experiments::{locking_key, test_case};
use benchmarks::Benchmark;
use rtl::{CompiledFsmd, SimOptions, TestCase};
use sim_core::GridExec;
use tao::{differential_verify, standard_trials, TaoOptions};

/// One benchmark's differential-verification outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct VlogDiffRow {
    /// Benchmark name.
    pub name: String,
    /// Working-key bits.
    pub w_bits: u32,
    /// Correct-key latency in cycles (both RTL layers).
    pub base_cycles: u64,
    /// `(trial, case)` pairs compared.
    pub comparisons: usize,
    /// FSMD-vs-Verilog divergences (must be 0).
    pub rtl_vlog_mismatches: usize,
    /// Correct-key golden divergences (must be 0).
    pub golden_failures: usize,
    /// Wrong-key runs with corrupted outputs.
    pub wrong_corrupted: usize,
    /// Wrong-key runs still matching golden (must be 0).
    pub wrong_clean: usize,
    /// Budget-limited runs (wrong keys altering loop bounds).
    pub timeouts: usize,
    /// Runs both RTL layers rejected before simulating (must be 0).
    pub rejected: usize,
    /// Mean wrong-key output Hamming fraction.
    pub avg_hd: f64,
}

fn diff_benchmark(b: &Benchmark, n_cases: usize, n_wrong: usize) -> VlogDiffRow {
    let lk = locking_key(0x71D);
    let m = b.compile().expect("benchmark compiles");
    let d = tao::lock(&m, b.top, &lk, &TaoOptions::default()).expect("lock succeeds");
    let cases: Vec<TestCase> = (0..n_cases as u64).map(|s| test_case(b, &d, 20 + s)).collect();
    let trials = standard_trials(&d, &lk, n_wrong, 0xD1FF ^ b.name.len() as u64);
    let wk = d.working_key(&lk);
    // Budget from the slowest stimulus: a data-dependent case must not
    // time out under the correct key. The probe is a 1-key grid on the
    // shared executor (one tape runner per worker).
    let compiled = CompiledFsmd::compile(&d.fsmd);
    let probe = GridExec::default().grid(
        &compiled,
        &cases,
        std::slice::from_ref(&wk),
        &SimOptions::default(),
    );
    let base_cycles = probe[0]
        .iter()
        .map(|r| r.as_ref().expect("correct key runs").cycles)
        .max()
        .expect("at least one case");
    // Fixed-duration testbench: stuck wrong-key circuits snapshot their
    // state, which both RTL layers must agree on exactly.
    let budget = SimOptions { max_cycles: base_cycles * 4 + 10_000, snapshot_on_timeout: true };
    let report = differential_verify(&d, &cases, &trials, &budget)
        .expect("emitted text parses and elaborates");
    VlogDiffRow {
        name: b.name.to_string(),
        w_bits: d.fsmd.key_width,
        base_cycles,
        comparisons: report.comparisons,
        rtl_vlog_mismatches: report.rtl_vlog_mismatches.len(),
        golden_failures: report.golden_failures.len(),
        wrong_corrupted: report.wrong_key_corrupted,
        wrong_clean: report.wrong_key_clean,
        timeouts: report.timeouts,
        rejected: report.rejected.len(),
        avg_hd: report.avg_wrong_hd,
    }
}

/// Full differential sweep: all five kernels, 2 stimuli, the correct key
/// and `n_wrong` wrong keys each.
pub fn vlog_diff(n_wrong: usize) -> Vec<VlogDiffRow> {
    benchmarks::all().iter().map(|b| diff_benchmark(b, 2, n_wrong)).collect()
}

/// `true` when every row satisfies the differential contract.
pub fn vlog_diff_clean(rows: &[VlogDiffRow]) -> bool {
    rows.iter().all(|r| {
        r.rtl_vlog_mismatches == 0
            && r.golden_failures == 0
            && r.rejected == 0
            && r.wrong_clean == 0
            && r.wrong_corrupted > 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_differential_is_clean() {
        // Every kernel, 2 stimuli × (1 correct + 1 wrong) keys.
        let rows = vlog_diff(1);
        assert_eq!(rows.len(), 5);
        assert!(vlog_diff_clean(&rows), "{rows:?}");
        for r in &rows {
            assert_eq!(r.comparisons, 4, "{}", r.name);
        }
    }
}
