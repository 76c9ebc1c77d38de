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
//!   is exactly the front over the completed subset.

// `run_golden` is for the sibling suites.
#[allow(dead_code)]
mod common;

use common::{gen_program, reference_grid};
use hls_core::KeyBits;
use proptest::prelude::*;
use rtl::{CompiledFsmd, SimError, SimOptions, TestCase};
use sim_core::faultpoint::sites;
use sim_core::{Budget, FaultPlan, GridExec};

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
