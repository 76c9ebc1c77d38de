//! Property-based tests of the robustness layer: randomly generated
//! locked kernels under seeded fault plans. The degradation guarantees
//! under test:
//!
//! - a panicking trial injures only its own slot — every surviving slot
//!   is bit-identical to the fault-free run, at every worker count;
//! - a cancelled sweep drains to a prefix-consistent partial result on
//!   one worker, and completed slots match the fault-free run at every
//!   worker count;
//! - a cancelled DSE sweep returns a partial front whose points are
//!   bit-identical to their full-run counterparts and whose Pareto set
//!   is exactly the front over the completed subset;
//! - a SAT attack stops within its step budget (plus at most one
//!   propagation round), encodes no frame past an expired deadline,
//!   reports a cancel raised inside a solve as `Cancelled`, and any key
//!   it returns reproduces every constraint it returns.

// `run_golden` is for the sibling suites.
#[allow(dead_code)]
mod common;

use attack_sat::{
    sat_attack, ExhaustCause, OracleResponse, SatAttackOptions, SatAttackOutcome, SatAttackStatus,
};
use common::{gen_program, reference_grid};
use hls_core::{verilog, KeyBits};
use proptest::prelude::*;
use rtl::{CompiledFsmd, SimError, SimOptions, TestCase};
use sim_core::faultpoint::sites;
use sim_core::{Budget, FaultPlan, GridExec};
use std::time::Duration;
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

/// A locked random design plus the grid stimuli/keys driving it.
struct Fixture {
    design: tao::LockedDesign,
    cases: Vec<TestCase>,
    keys: Vec<KeyBits>,
}

fn fixture(seed: u64) -> Fixture {
    let prog = gen_program(seed);
    let m = hls_frontend::compile(&prog.source, "t").expect("generated program compiles");
    let lk = locking_key(seed ^ 0xfa17);
    let design =
        tao::lock(&m, "f", &lk, &tao::TaoOptions::default()).expect("generated program locks");
    let cases = vec![TestCase::args(&[0, 0, 0]), TestCase::args(&[1, 2, 3])];
    let mut keys = vec![design.working_key(&lk)];
    for i in 0..3u64 {
        keys.push(design.working_key(&locking_key(seed.rotate_left(i as u32 + 5) ^ 0xfee1)));
    }
    Fixture { design, cases, keys }
}

const OPTS: SimOptions = SimOptions { max_cycles: 200_000, snapshot_on_timeout: true };

/// Injects one panic at a seed-chosen trial coordinate and asserts the
/// blast radius is exactly that slot, at worker counts 1, 2 and 5.
fn assert_panic_isolated(f: &Fixture, seed: u64, ctx: &str) {
    let ctape = CompiledFsmd::compile(&f.design.fsmd);
    let reference = reference_grid(&ctape, &f.cases, &f.keys, &OPTS);
    let n_cases = f.cases.len();
    let total = n_cases * f.keys.len();
    let coord = seed % total as u64;
    for workers in [1usize, 2, 5] {
        let plan = FaultPlan::new().panic_at(sites::GRID_TRIAL, coord);
        let budget = Budget::unlimited().with_faults(plan);
        let exec = GridExec::new(workers).with_budget(budget.clone());
        let rows = exec.grid(&ctape, &f.cases, &f.keys, &OPTS);
        for (i, got) in rows.iter().flatten().enumerate() {
            if i as u64 == coord {
                match got {
                    Err(SimError::WorkerPanic { payload }) => {
                        assert!(
                            sim_core::faultpoint::is_injected_payload(payload),
                            "payload must carry the injection marker: {payload:?} ({ctx})"
                        );
                    }
                    other => panic!(
                        "workers={workers}: injured trial {i} must be WorkerPanic, \
                         got {other:?} ({ctx})"
                    ),
                }
            } else {
                assert_eq!(
                    got,
                    &reference[i / n_cases][i % n_cases],
                    "workers={workers}: surviving trial {i} diverged ({ctx})"
                );
            }
        }
        assert_eq!(budget.faults_fired(), vec![(sites::GRID_TRIAL.to_string(), coord)], "{ctx}");
    }
}

/// Injects one spurious cancellation and asserts the sweep drains to a
/// prefix on one worker, and that completed slots match the fault-free
/// run at every worker count.
fn assert_cancel_consistent(f: &Fixture, seed: u64, ctx: &str) {
    let ctape = CompiledFsmd::compile(&f.design.fsmd);
    let reference = reference_grid(&ctape, &f.cases, &f.keys, &OPTS);
    let n_cases = f.cases.len();
    let total = n_cases * f.keys.len();
    let coord = seed % total as u64;
    for workers in [1usize, 2, 5] {
        let plan = FaultPlan::new().cancel_at(sites::GRID_TRIAL, coord);
        let budget = Budget::unlimited().with_faults(plan);
        let exec = GridExec::new(workers).with_budget(budget.clone());
        let rows = exec.grid(&ctape, &f.cases, &f.keys, &OPTS);
        let flat: Vec<_> = rows.iter().flatten().collect();
        assert_eq!(flat.len(), total, "every slot still reported ({ctx})");
        let mut done = 0usize;
        for (i, got) in flat.iter().enumerate() {
            match got {
                Err(SimError::Cancelled) => {}
                other => {
                    done += 1;
                    assert_eq!(
                        *other,
                        &reference[i / n_cases][i % n_cases],
                        "workers={workers}: completed trial {i} diverged ({ctx})"
                    );
                }
            }
        }
        // The trial that tripped the fault always completes (the fault
        // fires inside its evaluation, after which the budget is seen).
        assert!(done >= 1, "workers={workers}: the tripping trial completes ({ctx})");
        if workers == 1 {
            // One worker drains in order: completed slots are a prefix.
            let prefix = flat.iter().take_while(|r| !matches!(r, Err(SimError::Cancelled))).count();
            assert_eq!(prefix, done, "workers=1: partial result must be a prefix ({ctx})");
            assert!(
                flat[prefix..].iter().all(|r| matches!(r, Err(SimError::Cancelled))),
                "workers=1: tail must be uniformly Cancelled ({ctx})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    #[test]
    fn injected_panics_injure_exactly_one_slot(seed in any::<u64>()) {
        sim_core::faultpoint::install_quiet_hook();
        let f = fixture(seed);
        assert_panic_isolated(&f, seed, &format!("seed={seed}"));
    }

    #[test]
    fn injected_cancellations_drain_to_consistent_partials(seed in any::<u64>()) {
        let f = fixture(seed);
        assert_cancel_consistent(&f, seed, &format!("seed={seed}"));
    }
}

#[test]
fn dse_partial_front_is_the_front_over_the_completed_subset() {
    use hls_dse::{dominates, explore, ConfigSpace, DseOptions, Kernel};
    let space = ConfigSpace::smoke();
    for seed in [1u64, 4, 9] {
        // The small kernel family from the DSE property suite: quick to
        // evaluate under every configuration of the smoke space.
        let mul = 3 + (seed % 5) as i64;
        let bound = 3 + (seed % 4);
        let source = format!(
            r#"
            int f(int a, int b) {{
                int acc = {mul};
                for (int i = 0; i < {bound}; i++) {{
                    if ((a + i) % 2 == 0) acc += a * {mul} + i;
                    else acc -= b - i;
                }}
                if (acc < 0) acc = -acc;
                return acc;
            }}
            "#
        );
        let kernels = vec![Kernel::new(format!("k{seed}"), source, "f", vec![seed % 97, 11])];
        let full = explore(&kernels, &space, &DseOptions::default()).expect("full sweep succeeds");
        let cut = 1 + (seed as usize % (full.points.len() - 1));
        let plan = FaultPlan::new().cancel_at(sites::DSE_POINT, cut as u64);
        let opts = DseOptions {
            threads: 1,
            budget: Budget::unlimited().with_faults(plan),
            ..DseOptions::default()
        };
        let part = explore(&kernels, &space, &opts).expect("partial sweep succeeds");
        assert!(part.was_cancelled, "seed={seed}");
        assert!(
            part.skipped > 0 && part.points.len() + part.skipped == full.points.len(),
            "seed={seed}: partial + skipped must cover the space"
        );
        // Completed points are bit-identical to their full-run
        // counterparts (a prefix on one worker)...
        assert_eq!(part.points.as_slice(), &full.points[..part.points.len()], "seed={seed}");
        // ...and the partial front is exactly the Pareto set over that
        // completed subset: sound (no front point dominated) and complete
        // (no non-dominated point left off) relative to what ran.
        let objs: Vec<_> = part.points.iter().map(|p| p.objectives()).collect();
        for (i, o) in objs.iter().enumerate() {
            let on_front = part.pareto.contains(&i);
            let dominated = objs.iter().enumerate().any(|(j, q)| j != i && dominates(q, o));
            assert_eq!(
                on_front, !dominated,
                "seed={seed}: point {i} front membership inconsistent with dominance"
            );
        }
    }
}

/// Two kernels of the `sat-attack` corpus, inlined so the test depends
/// on nothing outside this file: `(source, top, the corpus's unroll
/// bound)`.
const ATTACK_KERNELS: [(&str, &str, u32); 2] = [
    (
        r#"
        int clamp(int a, int b) {
            int r = a + 37;
            if (r > 200) r = r - 150;
            if (r < b) r = b ^ 3;
            return r;
        }
        "#,
        "clamp",
        16,
    ),
    (
        r#"
        int chk(int a, int b) {
            int s = a;
            for (int i = 0; i < 3; i++) s = (s ^ 11) + b;
            return s;
        }
        "#,
        "chk",
        27,
    ),
];

/// Attacks a kernel locked with constants + branches (`cb-`), with the
/// `VlogTape` bound to the working key as the oracle at the attack's
/// bound `k`, and checks the contract every outcome keeps: a collapse
/// carries a key, and any returned key reproduces every returned
/// constraint on the tape at the full bound.
fn budgeted_attack(
    (source, top, k): (&str, &str, u32),
    budget: Budget,
    step_budget: Option<u64>,
) -> SatAttackOutcome {
    let m = hls_frontend::compile(source, top).expect("kernel compiles");
    let lk = locking_key(0x5a7);
    let opts = tao::TaoOptions {
        plan: tao::PlanConfig::techniques(true, true, false),
        ..tao::TaoOptions::default()
    };
    let design = tao::lock(&m, top, &lk, &opts).expect("lock succeeds");
    let wk = design.working_key(&lk);
    let sim = VlogSim::new(&verilog::emit(&design.fsmd)).expect("emitted text parses");
    let tape = VlogTape::compile(&sim).expect("tape compiles");
    let sim_opts = SimOptions { max_cycles: u64::from(k), snapshot_on_timeout: false };
    let mut runner = tape.runner();
    let mut label = |args: &[u64], key: &KeyBits| match runner.run(args, key, &[], &sim_opts) {
        Ok(res) => OracleResponse { done: true, ret: res.ret, mems: vec![] },
        Err(SimError::CycleLimit) => OracleResponse { done: false, ret: None, mems: vec![] },
        Err(e) => panic!("{top}: tape run failed: {e}"),
    };
    let attack_opts =
        SatAttackOptions { unroll_cycles: k, step_budget, budget, ..Default::default() };
    let out = sat_attack(&sim, &attack_opts, &mut |q| label(&q.args, &wk));
    assert!(!out.status.is_recovered() || out.key.is_some(), "{top}: a collapse carries a key");
    if let Some(key) = &out.key {
        for c in &out.constraints {
            assert_eq!(label(&c.query.args, key), c.response, "{top}: key violates a constraint");
        }
    }
    out
}

#[test]
fn attack_budgets_bound_the_effort_and_keep_keys_consistent() {
    let mut checked = 0;
    for kernel @ (_, top, _) in ATTACK_KERNELS {
        // 20,000 propagations stop both attacks before their first DIP;
        // 800,000 let each label a few, so the key check has work to do.
        for steps in [20_000u64, 800_000] {
            let out = budgeted_attack(kernel, Budget::unlimited(), Some(steps));
            assert_eq!(out.status, SatAttackStatus::Exhausted(ExhaustCause::StepBudget), "{top}");
            // One propagation round may overshoot by at most the
            // variable count.
            assert!(
                out.propagations <= steps + out.vars as u64,
                "{top}: {} propagations against a {steps} budget over {} vars",
                out.propagations,
                out.vars
            );
            if out.key.is_some() {
                checked += out.constraints.len();
            }
        }
    }
    assert!(checked > 0, "no budgeted attack returned a key over a constraint");
    let out = budgeted_attack(
        ATTACK_KERNELS[0],
        Budget::unlimited().with_deadline_after(Duration::ZERO),
        None,
    );
    assert_eq!(out.status, SatAttackStatus::Exhausted(ExhaustCause::Deadline));
    assert_eq!(out.unroll_final, 0, "an expired deadline encodes no frame");
    assert!(out.key.is_some(), "with no constraint every key is consistent");
    // A cancel raised inside a solve, at the solver's `sat.propagate`
    // check ordinal: ordinal 0 lands in the first miter solve, before
    // any DIP; ordinal 1,600 (about 410k propagated literals) lands
    // after both attacks have labelled some.
    for (coord, labelled) in [(0u64, false), (1_600, true)] {
        for kernel @ (_, top, _) in ATTACK_KERNELS {
            let budget = Budget::unlimited()
                .with_faults(FaultPlan::new().cancel_at(sites::SAT_PROPAGATE, coord));
            let out = budgeted_attack(kernel, budget.clone(), None);
            assert_eq!(
                out.status,
                SatAttackStatus::Exhausted(ExhaustCause::Cancelled),
                "{top}: cancel at check {coord}"
            );
            assert_eq!(budget.faults_fired(), vec![(sites::SAT_PROPAGATE.to_string(), coord)]);
            assert_eq!(out.dips > 0, labelled, "{top}: {} DIPs before check {coord}", out.dips);
        }
    }
}
