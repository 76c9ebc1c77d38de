//! Property-based tests of the shared (case × key) grid executor: for
//! randomly generated kernels, stimuli and keys, the parallel grid must
//! be **bit-identical and identically ordered** for every worker count
//! (1, 2, N) and equal to a plain nested `run_case` loop with no
//! executor, on both tape backends — including error outcomes
//! (`CycleLimit`, interface mismatches) and snapshot-on-timeout runs.

// `run_golden` is for the sibling suites.
#[allow(dead_code)]
mod common;

use common::{gen_program, reference_grid};
use hls_core::{verilog, KeyBits};
use proptest::prelude::*;
use rtl::{CompiledFsmd, SimError, SimOptions, TestCase};
use sim_core::{GridExec, TrialCell};
use vlog::VlogTape;

fn locking_key(seed: u64) -> KeyBits {
    let mut s = seed | 1;
    KeyBits::from_fn(256, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    })
}

/// A locked random design plus the grid stimuli/keys driving it.
struct GridFixture {
    design: tao::LockedDesign,
    cases: Vec<TestCase>,
    keys: Vec<KeyBits>,
}

fn fixture(seed: u64) -> GridFixture {
    let prog = gen_program(seed);
    let m = hls_frontend::compile(&prog.source, "t").expect("generated program compiles");
    let lk = locking_key(seed ^ 0x6417);
    let design =
        tao::lock(&m, "f", &lk, &tao::TaoOptions::default()).expect("generated program locks");
    let cases = vec![
        TestCase::args(&[0, 0, 0]),
        TestCase::args(&[1, 2, 3]),
        TestCase::args(&[100, 50, 25]),
        // Wrong arity: every backend must report ArityMismatch, in place.
        TestCase::args(&[7]),
    ];
    let mut keys = vec![design.working_key(&lk)];
    for i in 0..3u64 {
        keys.push(design.working_key(&locking_key(seed.rotate_left(i as u32 + 7) ^ 0xbad)));
    }
    // Wrong key width: every backend must report KeyWidthMismatch.
    keys.push(KeyBits::zero(design.fsmd.key_width + 3));
    GridFixture { design, cases, keys }
}

/// Asserts the grid is identical across worker counts and equal to the
/// executor-free reference loop, on both tape backends.
fn assert_grid_deterministic(f: &GridFixture, opts: &SimOptions, ctx: &str) {
    let ctape = CompiledFsmd::compile(&f.design.fsmd);
    let seq = reference_grid(&ctape, &f.cases, &f.keys, opts);
    assert_eq!(seq.len(), f.keys.len(), "{ctx}");
    for workers in [1usize, 2, 5] {
        let par = GridExec::new(workers).grid(&ctape, &f.cases, &f.keys, opts);
        assert_eq!(par, seq, "fsmd grid diverged at {workers} workers: {ctx}");
    }

    let vtape = VlogTape::new(&verilog::emit(&f.design.fsmd)).expect("emitted text parses");
    let bound = vtape.with_mems(&f.design.fsmd.mem_of_array);
    let vseq = reference_grid(&bound, &f.cases, &f.keys, opts);
    for workers in [1usize, 2, 5] {
        let par = GridExec::new(workers).grid(&bound, &f.cases, &f.keys, opts);
        assert_eq!(par, vseq, "vlog grid diverged at {workers} workers: {ctx}");
    }

    // The two backends agree trial for trial (the differential claim,
    // here at grid granularity).
    assert_eq!(seq, vseq, "fsmd vs vlog grids diverged: {ctx}");

    // The interface-error rows came out as errors, in place.
    for row in &seq {
        assert!(matches!(row[3], Err(SimError::ArityMismatch { .. })), "{ctx}");
    }
    // (Arity is checked before key width, so the wrong-arity case keeps
    // reporting ArityMismatch even on the wrong-width key row.)
    for cell in &seq.last().expect("wrong-width key row")[..3] {
        assert!(matches!(cell, Err(SimError::KeyWidthMismatch { .. })), "{ctx}");
    }

    // Chunk-granular stealing (the `grid` fast path steals all cases of
    // one key per steal) is bit-identical to single-trial stealing for
    // every chunk size and worker count — including chunks that do not
    // divide the trial count.
    let n = f.keys.len() * f.cases.len();
    let n_cases = f.cases.len();
    let flat_seq: Vec<_> = seq.iter().flatten().cloned().map(TrialCell::Done).collect();
    for workers in [3usize] {
        for chunk in [1usize, n_cases, n_cases + 1] {
            let flat = GridExec::new(workers).run_cells(
                n,
                chunk,
                || ctape.runner(),
                |runner, i| runner.run_case(&f.cases[i % n_cases], &f.keys[i / n_cases], opts),
            );
            assert_eq!(
                flat, flat_seq,
                "chunked steal diverged (workers={workers} chunk={chunk}): {ctx}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    #[test]
    fn parallel_grids_are_deterministic_across_worker_counts(seed in any::<u64>()) {
        let f = fixture(seed);
        // Fixed-duration testbench: wrong keys that spin time out into
        // snapshots, which must also be identical everywhere.
        let opts = SimOptions { max_cycles: 200_000, snapshot_on_timeout: true };
        assert_grid_deterministic(&f, &opts, &format!("seed={seed}"));
    }

    #[test]
    fn cycle_limit_errors_are_deterministic_across_worker_counts(seed in any::<u64>()) {
        let f = fixture(seed);
        // A budget tight enough that some wrong-key (and possibly
        // correct-key) runs exhaust it, with snapshots disabled:
        // CycleLimit errors must land in the same cells everywhere.
        let opts = SimOptions { max_cycles: 40, snapshot_on_timeout: false };
        assert_grid_deterministic(&f, &opts, &format!("seed={seed} tight"));
    }
}

#[test]
fn grid_runners_do_not_leak_state_between_trials() {
    // One runner serving interleaved (case, key) trials must equal fresh
    // one-shot runs — the statelessness GridExec's determinism rests on.
    let f = fixture(0x5eed);
    let ctape = CompiledFsmd::compile(&f.design.fsmd);
    let opts = SimOptions { max_cycles: 200_000, snapshot_on_timeout: true };
    let grid = GridExec::sequential().grid(&ctape, &f.cases, &f.keys, &opts);
    for (k, key) in f.keys.iter().enumerate() {
        for (c, case) in f.cases.iter().enumerate() {
            let mut fresh = ctape.runner();
            let one = fresh.run_case(case, key, &opts);
            assert_eq!(one, grid[k][c], "trial ({k},{c})");
        }
    }
}
