//! Property-based differential testing of the entire pipeline on randomly
//! generated programs in the C subset:
//!
//! 1. the optimizer preserves the interpreter's semantics;
//! 2. the synthesized FSMD simulates to the same results as the
//!    interpreter (golden model);
//! 3. a TAO-locked design under the *correct* key is indistinguishable
//!    from the baseline in results and cycle count;
//! 4. the whole flow is deterministic.

// `reference_grid` is for the grid suites.
#[allow(dead_code)]
mod common;

use common::{gen_program, run_golden};
use hls_core::KeyBits;
use proptest::prelude::*;
use rtl::{simulate, SimOptions};

fn arg_sets() -> Vec<[u64; 3]> {
    vec![
        [0, 0, 0],
        [1, 2, 3],
        [100, 50, 25],
        [u32::MAX as u64, 1, 7],
        [12345, 67890, 13579],
        [0x8000_0000, 3, 2],
    ]
}

fn locking_key(seed: u64) -> KeyBits {
    let mut s = seed | 1;
    KeyBits::from_fn(256, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn optimizer_preserves_semantics(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let unopt = hls_frontend::compile_unoptimized(&prog.source, "p")
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{}", prog.source));
        let mut opt = unopt.clone();
        hls_ir::passes::optimize(&mut opt);
        for args in arg_sets() {
            let want = run_golden(&unopt, &args);
            let got = run_golden(&opt, &args);
            prop_assert_eq!(want, got, "args {:?}\n{}", args, prog.source);
        }
    }

    #[test]
    fn fsmd_simulation_matches_interpreter(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p")
            .unwrap_or_else(|e| panic!("compile: {e}\n{}", prog.source));
        let fsmd = hls_core::synthesize(&module, "f", &hls_core::HlsOptions::default())
            .unwrap_or_else(|e| panic!("synthesize: {e}\n{}", prog.source));
        for args in arg_sets() {
            let want = run_golden(&module, &args);
            let got = simulate(&fsmd, &args, &KeyBits::zero(0), &[], &SimOptions::default())
                .unwrap_or_else(|e| panic!("simulate: {e}\n{}", prog.source));
            prop_assert_eq!(Some(want), got.ret, "args {:?}\n{}", args, prog.source);
        }
    }

    #[test]
    fn locked_design_with_correct_key_is_faithful(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p")
            .unwrap_or_else(|e| panic!("compile: {e}\n{}", prog.source));
        let lk = locking_key(seed);
        let design = tao::lock(&module, "f", &lk, &tao::TaoOptions::default())
            .unwrap_or_else(|e| panic!("lock: {e}\n{}", prog.source));
        let wk = design.working_key(&lk);
        for args in arg_sets() {
            let base =
                simulate(&design.baseline, &args, &KeyBits::zero(0), &[], &SimOptions::default())
                    .unwrap();
            let locked = simulate(&design.fsmd, &args, &wk, &[], &SimOptions::default())
                .unwrap_or_else(|e| panic!("locked sim: {e}\n{}", prog.source));
            prop_assert_eq!(base.ret, locked.ret, "args {:?}\n{}", args, prog.source);
            // Paper Sec. 4.2: zero cycle overhead under the correct key.
            prop_assert_eq!(base.cycles, locked.cycles, "args {:?}\n{}", args, prog.source);
        }
    }

    #[test]
    fn flow_is_deterministic(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p").unwrap();
        let lk = locking_key(seed);
        let a = tao::lock(&module, "f", &lk, &tao::TaoOptions::default()).unwrap();
        let b = tao::lock(&module, "f", &lk, &tao::TaoOptions::default()).unwrap();
        prop_assert_eq!(a.fsmd, b.fsmd);
        prop_assert_eq!(hls_core::verilog::emit(&a.baseline), hls_core::verilog::emit(&b.baseline));
    }
}
