//! The SAT attack against *emitted* Verilog of synthesized designs,
//! locked by hand exactly the way `tao`'s obfuscations lock them
//! (constant key-XOR storage, branch-polarity masks), with the FSMD tape
//! simulator as the golden oracle. Locking is applied manually here so
//! this crate's tests stay below `tao` in the dependency order; the
//! full-flow attacks live in `tao`'s own tests and `tests/prop_cnf.rs`.

use attack_sat::{
    sat_attack, AttackQuery, ExhaustCause, OracleResponse, SatAttackOptions, SatAttackStatus,
};
use hls_core::{verilog, Fsmd, KeyBits, KeyRange, NextState};
use rtl::{CompiledFsmd, SimOptions, TestCase};
use vlog::VlogSim;

fn synth(src: &str, top: &str) -> Fsmd {
    let m = hls_frontend::compile(src, "t").expect("kernel compiles");
    hls_core::synthesize(&m, top, &hls_core::HlsOptions::default()).expect("synthesizes")
}

/// Locks every constant behind a key XOR and every branch behind a
/// polarity bit, mirroring `tao::obfuscate_constants` / `_branches`.
fn lock_by_hand(fsmd: &mut Fsmd, key: &KeyBits) {
    let mut next = 0u32;
    for c in &mut fsmd.consts {
        let w = c.storage_width as u32;
        let range = KeyRange { lo: next, width: w };
        next += w;
        let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
        c.bits = (c.bits ^ key.range(range)) & mask;
        c.key_xor = Some(range);
    }
    for st in &mut fsmd.states {
        if let NextState::Branch { test, key_bit: None, then_s, else_s } = st.next {
            let bit = next;
            next += 1;
            let (then_s, else_s) = if key.bit(bit) { (else_s, then_s) } else { (then_s, else_s) };
            st.next = NextState::Branch { test, key_bit: Some(bit), then_s, else_s };
        }
    }
    assert!(next <= key.width(), "key too narrow: need {next}");
    fsmd.key_width = key.width();
}

fn xorshift_key(width: u32, seed: u64) -> KeyBits {
    let mut s = seed | 1;
    KeyBits::from_fn(width, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    })
}

/// Builds the oracle closure: the FSMD tape bound to the correct key,
/// observed through the same k-cycle bounded window the CNF encodes.
fn run_attack(fsmd: &Fsmd, key: &KeyBits, k: u32) -> attack_sat::SatAttackOutcome {
    let text = verilog::emit(fsmd);
    let sim = VlogSim::new(&text).expect("emitted text parses");
    let compiled = CompiledFsmd::compile(fsmd);
    let mut runner = compiled.runner();
    let opts = SimOptions { max_cycles: k as u64, snapshot_on_timeout: false };
    let mut oracle = |q: &AttackQuery| {
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, key, &opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(rtl::SimError::CycleLimit) => {
                OracleResponse { done: false, ret: None, mems: Vec::new() }
            }
            Err(e) => panic!("oracle failed: {e}"),
        }
    };
    sat_attack(&sim, &SatAttackOptions { unroll_cycles: k, ..Default::default() }, &mut oracle)
}

#[test]
fn recovers_constant_key_on_straightline_kernel() {
    // XOR-masked constants on separate operand paths: every key bit is
    // individually observable, so recovery must be bit-exact. (A kernel
    // like `(a + c1) * c2 - c3` would *not* have that property — only
    // `c2` and `c1*c2 - c3` are observable, and the SAT attack correctly
    // collapses to that equivalence class instead of a point.)
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xA11CE);
    lock_by_hand(&mut fsmd, &key);
    let out = run_attack(&fsmd, &key, 16);
    assert_eq!(out.status, SatAttackStatus::Recovered, "dips={}", out.dips);
    assert_eq!(out.key.as_ref().expect("key recovered"), &key, "exact working key");
    assert!(out.dips >= 1, "a wrong constant must be distinguishable");
}

#[test]
fn recovers_branch_and_constant_key_on_branching_kernel() {
    let src = r#"
        int f(int a, int b) {
            int r = a ^ 21;
            if (a > b) r = r + b;
            else r = r - b;
            if (r > 50) r = r ^ 9;
            return r;
        }
    "#;
    let mut fsmd = synth(src, "f");
    let n_branches =
        fsmd.states.iter().filter(|s| matches!(s.next, NextState::Branch { .. })).count() as u32;
    assert!(n_branches >= 2, "kernel must keep its conditionals");
    let key_bits: u32 =
        fsmd.consts.iter().map(|c| c.storage_width as u32).sum::<u32>() + n_branches;
    let key = xorshift_key(key_bits, 0xB0B);
    lock_by_hand(&mut fsmd, &key);
    let out = run_attack(&fsmd, &key, 24);
    assert_eq!(out.status, SatAttackStatus::Recovered, "dips={}", out.dips);
    assert_eq!(out.key.as_ref().expect("key recovered"), &key);
}

#[test]
fn recovered_key_is_functionally_correct_even_with_loops() {
    // A loop whose bound mixes a locked constant: wrong keys change the
    // latency, so the done-within-k observable itself distinguishes.
    let src = r#"
        int f(int a) {
            int s = 0;
            for (int i = 0; i < 3; i++) s += a + i;
            return s;
        }
    "#;
    let mut fsmd = synth(src, "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum::<u32>()
        + fsmd.states.iter().filter(|s| matches!(s.next, NextState::Branch { .. })).count() as u32;
    let key = xorshift_key(key_bits, 0x5EED);
    lock_by_hand(&mut fsmd, &key);

    // Bound the window just above the correct latency (the observable is
    // the bounded run, so a slim margin keeps the CNF small).
    let latency = CompiledFsmd::compile(&fsmd)
        .runner()
        .run_case(&TestCase::args(&[7]), &key, &SimOptions::default())
        .expect("correct key runs")
        .cycles;
    let k = latency as u32 + 6;
    let out = run_attack(&fsmd, &key, k);
    assert_eq!(out.status, SatAttackStatus::Recovered, "dips={}", out.dips);
    let got = out.key.expect("key recovered");

    // The recovered key must drive the design to golden behaviour on
    // fresh stimuli (bit-exactness additionally holds when every key bit
    // is observable; loops can leave dead constant high bits, so the
    // functional check is the contract here).
    let compiled = CompiledFsmd::compile(&fsmd);
    let mut runner = compiled.runner();
    for a in [0u64, 1, 9, 1 << 16] {
        let case = TestCase::args(&[a]);
        let want = runner.run_case(&case, &key, &SimOptions::default()).expect("golden");
        let have = runner.run_case(&case, &got, &SimOptions::default()).expect("recovered");
        assert_eq!(want.ret, have.ret, "a={a}");
        assert_eq!(want.cycles, have.cycles, "a={a}");
    }
}

#[test]
fn telemetry_never_changes_the_attack() {
    // The zero-cost contract, checked end to end: the identical attack
    // with telemetry disabled, recording into a no-op sink, and
    // recording into a real Chrome-trace sink must produce bit-identical
    // outcomes — same key, same DIPs, same solver effort counters.
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xA11CE);
    lock_by_hand(&mut fsmd, &key);
    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("emitted text parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let sink = std::sync::Arc::new(obs::ChromeTraceSink::new());

    let mut outcomes = Vec::new();
    for o in [obs::Obs::off(), obs::Obs::noop(), obs::Obs::new(std::sync::Arc::clone(&sink))] {
        let mut runner = compiled.runner();
        let opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };
        let mut oracle = |q: &AttackQuery| {
            let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
            match runner.run_case(&case, &key, &opts) {
                Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
                Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
            }
        };
        let out = sat_attack(
            &sim,
            &SatAttackOptions { unroll_cycles: 16, obs: o, ..Default::default() },
            &mut oracle,
        );
        outcomes.push((out.status, out.key, out.dips, out.conflicts, out.propagations, out.vars));
    }
    assert_eq!(outcomes[0], outcomes[1], "no-op sink changed the attack");
    assert_eq!(outcomes[0], outcomes[2], "recording sink changed the attack");
    assert_eq!(outcomes[0].0, SatAttackStatus::Recovered);
    // And the recording run actually recorded the attack spans.
    let trace = sink.to_json();
    for span in ["attack.sat", "attack.dip", "sat.solve"] {
        assert!(trace.contains(span), "trace missing `{span}`");
    }
}

#[test]
fn dip_budget_stops_early_with_partial_key() {
    let mut fsmd = synth("int f(int a, int b) { return a * 77 + b * 13; }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xCAFE);
    lock_by_hand(&mut fsmd, &key);

    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let mut runner = compiled.runner();
    let opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };
    let mut oracle = |q: &AttackQuery| {
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, &key, &opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
        }
    };
    let out = sat_attack(
        &sim,
        &SatAttackOptions { unroll_cycles: 16, max_dips: Some(0), ..Default::default() },
        &mut oracle,
    );
    assert_eq!(out.status, SatAttackStatus::Exhausted(ExhaustCause::DipBudget));
    assert_eq!(out.dips, 0);
    assert!(out.constraints.is_empty(), "no DIPs were queried");
    assert!(out.key.is_some(), "an unconstrained key model still exists");
}

#[test]
fn cancelling_the_attack_returns_partial_but_consistent_results() {
    use sim_core::Budget;
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xD00D);
    lock_by_hand(&mut fsmd, &key);

    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let mut runner = compiled.runner();
    let sim_opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };

    // The oracle itself pulls the plug after the first labelled DIP —
    // the caller-visible shape of a user hitting ^C mid-attack.
    let budget = Budget::unlimited();
    let cancel = budget.token().clone();
    let mut oracle = |q: &AttackQuery| {
        cancel.cancel();
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, &key, &sim_opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
        }
    };
    let out = sat_attack(
        &sim,
        &SatAttackOptions { unroll_cycles: 16, budget, ..Default::default() },
        &mut oracle,
    );
    assert_eq!(out.status, SatAttackStatus::Exhausted(ExhaustCause::Cancelled));
    assert_eq!(out.dips, 1, "exactly the in-flight DIP completed");
    assert_eq!(out.constraints.len(), 1, "the labelled DIP is handed back");
    assert_eq!(out.dips, out.constraints.len() as u64);
    // A cancelled attack searches for no key, but any key it does hand
    // back satisfies every constraint collected so far.
    if let Some(partial) = &out.key {
        for c in &out.constraints {
            let case = TestCase { args: c.query.args.clone(), mem_inputs: Vec::new() };
            let mut check = compiled.runner();
            let got = match check.run_case(&case, partial, &sim_opts) {
                Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
                Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
            };
            assert_eq!(got, c.response, "partial key violates a returned constraint");
        }
    }
}

#[test]
fn lazy_unrolling_collapses_below_the_full_bound() {
    // A short-latency kernel under a deliberately generous cycle bound:
    // the lazy loop must finish at its small starting depth (growing at
    // most once), with the boundary probe certifying the shallow proof —
    // and still recover the exact key the eager full-k encoding would.
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xA11CE);
    lock_by_hand(&mut fsmd, &key);
    let out = run_attack(&fsmd, &key, 64);
    assert_eq!(out.status, SatAttackStatus::Recovered, "dips={}", out.dips);
    assert_eq!(out.key.as_ref().expect("key recovered"), &key, "exact working key");
    assert!(out.unroll_final < 64, "lazy growth paid the full bound: k = {}", out.unroll_final);
}

#[test]
fn eager_depth_matches_lazy_verdict() {
    // Forcing initial_unroll = unroll_cycles recovers the old eager
    // behavior; both modes must agree on status and recovered key.
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0x1DEA);
    lock_by_hand(&mut fsmd, &key);
    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let sim_opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };
    let run_with = |initial: u32| {
        let mut runner = compiled.runner();
        let mut oracle = |q: &AttackQuery| {
            let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
            match runner.run_case(&case, &key, &sim_opts) {
                Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
                Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
            }
        };
        sat_attack(
            &sim,
            &SatAttackOptions { unroll_cycles: 16, initial_unroll: initial, ..Default::default() },
            &mut oracle,
        )
    };
    let lazy = run_with(2);
    let eager = run_with(16);
    assert_eq!(lazy.status, SatAttackStatus::Recovered);
    assert_eq!(eager.status, SatAttackStatus::Recovered);
    assert_eq!(lazy.key, eager.key, "lazy and eager disagree on the key");
    assert_eq!(eager.unroll_final, 16, "eager mode must sit at the full bound");
    assert_eq!(eager.growths, 0, "eager mode must never grow");
}
