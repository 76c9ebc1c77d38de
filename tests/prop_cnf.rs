//! Property-based equivalence of the CNF encoder and the compiled
//! Verilog tape on randomly generated locked designs.
//!
//! For random kernels × stimuli × keys, the k-cycle CNF unrolling of the
//! emitted text (all inputs and the key pinned) must be satisfiable
//! exactly when the Verilog tape produces those outputs under
//! `max_cycles = k`: the `done` literal mirrors `Ok` vs `CycleLimit`,
//! the frozen `ret` vector mirrors the returned value, pinning the
//! outputs to the observed values stays SAT, pinning them to anything
//! else goes UNSAT — and the two-copy miter is UNSAT when both key
//! copies are pinned equal (no key distinguishes itself).
//!
//! Pinned-input unrollings constant-fold through the gate layer, so
//! these checks run the encoder's full semantics (context sizing,
//! division guards, shifts, multi-cycle pipelines, variant dispatch)
//! without large solver instances.

// `run_golden` and `reference_grid` are for the sibling suites; this one
// only generates.
#[allow(dead_code)]
mod common;

use attack_sat::{Encoder, KeyLits};
use common::gen_program;
use hls_core::{verilog, KeyBits};
use proptest::prelude::*;
use rtl::SimError;
use sat::{Gates, SolveOutcome};
use vlog::{VlogSim, VlogTape};

fn locking_key(seed: u64) -> KeyBits {
    let mut s = seed | 1;
    KeyBits::from_fn(256, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    })
}

fn arg_sets() -> Vec<[u64; 3]> {
    vec![[0, 0, 0], [7, 3, 12], [0x8000_0000, 2, 1]]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Pinned unrolling ≡ tape run, for the correct key and wrong keys,
    /// at the exact done cycle and one cycle short of it.
    #[test]
    fn pinned_unrolling_matches_the_tape(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p")
            .unwrap_or_else(|e| panic!("compile: {e}\n{}", prog.source));
        let lk = locking_key(seed);
        let design = tao::lock(&module, "f", &lk, &tao::TaoOptions::default())
            .unwrap_or_else(|e| panic!("lock: {e}\n{}", prog.source));
        let text = verilog::emit(&design.fsmd);
        let sim = VlogSim::new(&text)
            .unwrap_or_else(|e| panic!("emitted text rejected: {e}\n{}", prog.source));
        let tape = VlogTape::compile(&sim).expect("tape compiles");
        let mut runner = tape.runner();
        let enc = Encoder::new(&sim);

        let wk = design.working_key(&lk);
        let mut wrong = wk.clone();
        wrong.set_bit(seed as u32 % wk.width(), !wrong.bit(seed as u32 % wk.width()));
        let keys = [wk, wrong];

        // A bounded window that usually covers the correct-key run but
        // keeps wrong-key spins cheap.
        let k: u32 = 160;
        let opts = rtl::SimOptions { max_cycles: k as u64, snapshot_on_timeout: false };
        for key in &keys {
            for args in arg_sets() {
                let want = runner.run(&args, key, &[], &opts);
                let mut g = Gates::new();
                let inputs = enc.pinned_inputs(&mut g, &args, &[]);
                let klits = KeyLits::pinned(&mut g, key);
                let u = enc.unroll(&mut g, k, &inputs, &klits);
                // Everything is pinned: the observables fold to constants.
                let done = g.const_value(u.done).expect("pinned unrolling folds");
                match &want {
                    Ok(res) => {
                        prop_assert!(done, "tape finished but CNF not done\n{}", prog.source);
                        if let (Some(rv), Some(want_ret)) = (&u.ret, res.ret) {
                            let got = rv.const_value(&g).expect("pinned ret folds");
                            prop_assert_eq!(
                                got, want_ret,
                                "ret diverged (args {:?})\n{}", args, &prog.source
                            );
                            // "Satisfiable exactly when": pin to the
                            // observed value → SAT; to its complement →
                            // UNSAT (constants make this immediate).
                            let yes = rv.equals_const(&mut g, want_ret);
                            let no = rv.equals_const(&mut g, want_ret ^ 1);
                            prop_assert!(g.const_value(yes) == Some(true));
                            prop_assert!(g.const_value(no) == Some(false));
                        }
                        // One cycle short of the observed latency the
                        // design must not be done — freeze timing is
                        // cycle-exact.
                        if res.cycles > 1 {
                            let mut g2 = Gates::new();
                            let inputs2 = enc.pinned_inputs(&mut g2, &args, &[]);
                            let klits2 = KeyLits::pinned(&mut g2, key);
                            let u2 = enc.unroll(&mut g2, res.cycles as u32 - 1, &inputs2, &klits2);
                            prop_assert_eq!(
                                g2.const_value(u2.done), Some(false),
                                "done rose early\n{}", &prog.source
                            );
                        }
                    }
                    Err(SimError::CycleLimit) => {
                        prop_assert!(!done, "CNF done but tape hit the budget\n{}", prog.source);
                    }
                    Err(e) => panic!("unexpected tape error: {e}\n{}", prog.source),
                }
            }
        }
    }

    /// The miter over free inputs is UNSAT when both key copies are
    /// pinned to the same key: no key distinguishes itself.
    #[test]
    fn miter_with_equal_keys_is_unsat(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p").unwrap();
        let lk = locking_key(!seed);
        let design = tao::lock(&module, "f", &lk, &tao::TaoOptions::default())
            .unwrap_or_else(|e| panic!("lock: {e}\n{}", prog.source));
        let text = verilog::emit(&design.fsmd);
        let sim = VlogSim::new(&text).expect("emitted text parses");
        let enc = Encoder::new(&sim);
        let wk = design.working_key(&lk);

        // Any window works for this property; a short one keeps the
        // symbolic-input instance small.
        let k = 6u32;
        let mut g = Gates::new();
        let inputs = enc.fresh_inputs(&mut g);
        let ka = KeyLits::pinned(&mut g, &wk);
        let kb = KeyLits::pinned(&mut g, &wk);
        let ua = enc.unroll(&mut g, k, &inputs, &ka);
        let ub = enc.unroll(&mut g, k, &inputs, &kb);
        // Identical pinned keys hash-cons the two copies into the same
        // literals: every observable pair is bit-identical.
        let dd = g.xor(ua.done, ub.done);
        let mut diff = dd;
        if let (Some(ra), Some(rb)) = (&ua.ret, &ub.ret) {
            for (&x, &y) in ra.0.iter().zip(&rb.0) {
                let d = g.xor(x, y);
                diff = g.or(diff, d);
            }
        }
        g.assert_true(diff);
        prop_assert_eq!(g.solver().solve(), SolveOutcome::Unsat);
    }

    /// Staged incremental growth is invisible in the observables: for
    /// pinned inputs and keys, an unrolling grown in uneven stages folds
    /// to the same `(done, ret)` constants as the one-shot fixed-k
    /// encoding.
    #[test]
    fn staged_growth_matches_the_fixed_k_encoding(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p").unwrap();
        let lk = locking_key(seed.rotate_left(17));
        let design = tao::lock(&module, "f", &lk, &tao::TaoOptions::default())
            .unwrap_or_else(|e| panic!("lock: {e}\n{}", prog.source));
        let text = verilog::emit(&design.fsmd);
        let sim = VlogSim::new(&text).expect("emitted text parses");
        let enc = Encoder::new(&sim);

        let wk = design.working_key(&lk);
        let mut wrong = wk.clone();
        wrong.set_bit(seed as u32 % wk.width(), !wrong.bit(seed as u32 % wk.width()));
        let k: u32 = 40;
        for key in [&wk, &wrong] {
            for args in arg_sets() {
                let observe = |stages: &[u32]| {
                    let mut g = Gates::new();
                    let inputs = enc.pinned_inputs(&mut g, &args, &[]);
                    let klits = KeyLits::pinned(&mut g, key);
                    let mut u = enc.begin(&mut g, &inputs, &klits);
                    for &d in stages {
                        enc.grow(&mut g, &mut u, d);
                    }
                    let obs = enc.observables(&mut g, &u);
                    let done = g.const_value(obs.done).expect("pinned unrolling folds");
                    let ret = obs.ret.map(|rv| rv.const_value(&g).expect("pinned ret folds"));
                    (done, ret)
                };
                prop_assert_eq!(
                    observe(&[k]), observe(&[3, 5, k - 9, 1]),
                    "staged growth changed the observable (args {:?})\n{}", args, &prog.source
                );
            }
        }
    }
}

/// The lazily-grown attack and the eager fixed-k attack agree on
/// TAO-locked HLS kernels: same collapse verdict, and the recovered
/// keys are interchangeable in the bounded observable (checked against
/// the tape on fresh stimuli).
///
/// Full DIP loops are far too expensive for arbitrary generated
/// kernels in this suite (their latencies start around 55 cycles and
/// free-input unrollings at that depth dominate the runtime), so this
/// drives the whole flow — compile, lock, emit, tape oracle, attack —
/// on two small fixed kernels with different key compositions instead.
#[test]
fn lazy_attack_agrees_with_eager_fixed_k() {
    use attack_sat::{sat_attack, AttackQuery, OracleResponse, SatAttackOptions, SatAttackStatus};
    use tao::PlanConfig;

    // (kernel, lock shape): branch-polarity keys only, then
    // constant + branch keys. DFG variants are excluded the same way
    // the in-crate attack tests exclude them — variant mux trees blow
    // up the miter without changing the lazy-vs-eager contract.
    let branch_only = tao::TaoOptions {
        plan: PlanConfig { constants: false, dfg_variants: false, ..PlanConfig::default() },
        ..tao::TaoOptions::default()
    };
    let const_and_branch = tao::TaoOptions {
        plan: PlanConfig { dfg_variants: false, ..PlanConfig::default() },
        ..tao::TaoOptions::default()
    };
    let kernels: [(&str, &tao::TaoOptions); 2] = [
        (
            r#"
            int f(int a, int b, int c) {
                int r = a + b;
                if (r > c) r = r - c;
                else r = c - r;
                return r;
            }
            "#,
            &branch_only,
        ),
        (
            r#"
            int f(int a, int b, int c) {
                int r = a ^ 21;
                if (r > b) r = r + b;
                else r = r - b;
                return (r + c) ^ 5;
            }
            "#,
            &const_and_branch,
        ),
    ];

    for (i, (src, topts)) in kernels.iter().enumerate() {
        let module = hls_frontend::compile(src, "p").unwrap();
        let lk = locking_key((i as u64).rotate_right(9) | 1);
        let design = tao::lock(&module, "f", &lk, topts).unwrap();
        let text = verilog::emit(&design.fsmd);
        let sim = VlogSim::new(&text).expect("emitted text parses");
        let tape = VlogTape::compile(&sim).expect("tape compiles");
        let wk = design.working_key(&lk);

        // Bound the observable just above the correct-key latency.
        let mut probe = tape.runner();
        let latency = arg_sets()
            .iter()
            .map(|args| {
                probe
                    .run(args, &wk, &[], &rtl::SimOptions::default())
                    .expect("correct key terminates")
                    .cycles
            })
            .max()
            .unwrap() as u32;
        let k = latency + 4;

        let run_mode = |initial: u32| {
            let mut runner = tape.runner();
            let opts = rtl::SimOptions { max_cycles: k as u64, snapshot_on_timeout: false };
            let mut oracle = |q: &AttackQuery| match runner.run(&q.args, &wk, &[], &opts) {
                Ok(res) => OracleResponse { done: true, ret: res.ret, mems: vec![] },
                Err(SimError::CycleLimit) => {
                    OracleResponse { done: false, ret: None, mems: vec![] }
                }
                Err(e) => panic!("oracle failed: {e}"),
            };
            sat_attack(
                &sim,
                &SatAttackOptions {
                    unroll_cycles: k,
                    initial_unroll: initial,
                    ..Default::default()
                },
                &mut oracle,
            )
        };
        let lazy = run_mode(2);
        let eager = run_mode(k);
        assert_eq!(lazy.status, eager.status, "verdicts diverged (kernel {i})");
        assert_eq!(lazy.status, SatAttackStatus::Recovered, "kernel {i} not recovered");
        assert!(lazy.unroll_final <= k);
        assert_eq!(eager.growths, 0, "eager mode must never grow");

        // Both recovered keys must land in the same observable
        // equivalence class as the true key.
        let opts = rtl::SimOptions { max_cycles: k as u64, snapshot_on_timeout: false };
        let mut check = tape.runner();
        for key in [lazy.key.as_ref().unwrap(), eager.key.as_ref().unwrap()] {
            for args in arg_sets() {
                let want = match check.run(&args, &wk, &[], &opts) {
                    Ok(res) => Some(res.ret),
                    Err(_) => None,
                };
                let have = match check.run(&args, key, &[], &opts) {
                    Ok(res) => Some(res.ret),
                    Err(_) => None,
                };
                assert_eq!(
                    want, have,
                    "recovered key observable-diverges (kernel {i}, args {args:?})"
                );
            }
        }
    }
}
