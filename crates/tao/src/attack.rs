//! Attack models and key-space analysis (paper Sec. 4.3 discussion).
//!
//! The paper argues that TAO's constants and branches "cannot be weakened
//! even with SAT-based attacks … because the oracle chip is unavailable in
//! the untrusted foundry threat model". This module makes that argument
//! executable:
//!
//! - [`KeySpace`] quantifies the search space each technique contributes;
//! - [`oracle_guided_branch_attack`] implements the strongest practical
//!   oracle-style attack *inside* the threat model's boundary case — an
//!   attacker who somehow obtained I/O oracles and enumerates branch-mask
//!   bits (the only sub-exponential component) while treating the rest of
//!   the key as unknown.
//!
//! Without an oracle, even an attacker who knows every other key bit
//! cannot test a branch bit: both polarities yield *logical but
//! incorrect* executions (Sec. 3.2.2) that terminate with well-formed
//! outputs, so only reference outputs, which the foundry does not have,
//! tell the true polarity apart.

use crate::flow::LockedDesign;
use attack_sat::{AttackQuery, OracleResponse, SatAttackOptions, SatAttackOutcome};
pub use attack_sat::{ExhaustCause, IoConstraint, SatAttackStatus};
use hls_core::{verilog, KeyBits};
use hls_ir::ArrayId;
use rtl::{images_equal, CompiledFsmd, OutputImage, SimOptions, TestCase};
use sim_core::{BatchRunner, GridExec, Simulator};
use std::time::{Duration, Instant};
use vlog::{VlogError, VlogSim};

/// Per-technique key-space accounting for a locked design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpace {
    /// Bits protecting constants (`Num_const * C`).
    pub constant_bits: u64,
    /// Bits masking branches (`Num_if`).
    pub branch_bits: u64,
    /// Bits selecting DFG variants (`Σ B_i`).
    pub variant_bits: u64,
}

impl KeySpace {
    /// Reads the accounting off a locked design's key plan.
    pub fn of(design: &LockedDesign) -> KeySpace {
        KeySpace {
            constant_bits: design.plan.const_ranges.iter().flatten().map(|r| r.width as u64).sum(),
            branch_bits: design.plan.branch_bits.len() as u64,
            variant_bits: design.plan.block_ranges.values().map(|r| r.width as u64).sum(),
        }
    }

    /// Total working-key bits.
    pub fn total_bits(&self) -> u64 {
        self.constant_bits + self.branch_bits + self.variant_bits
    }

    /// Whether exhaustive search is feasible at a given budget of tries
    /// (an attacker with an oracle and `budget_log2` simulations).
    pub fn brute_force_feasible(&self, budget_log2: u32) -> bool {
        self.total_bits() <= budget_log2 as u64
    }
}

/// Result of the oracle-guided branch-bit attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchAttackOutcome {
    /// Number of branch-bit candidates enumerated.
    pub candidates_tried: u64,
    /// Candidate assignments that matched the oracle on every test case.
    pub candidates_surviving: u64,
    /// Whether the true branch-bit assignment is among the survivors.
    pub true_key_survives: bool,
}

/// An oracle-guided enumeration of the *branch* key bits only — the
/// strongest practical attack component, because `Num_if` is the one
/// sub-exponential term in Eq. 1. The attacker is granted everything the
/// threat model denies them: I/O oracles (`oracle` outputs for the cases)
/// *and* the correct values of all non-branch key bits. The outcome shows
/// how many assignments survive; without the oracle (the paper's actual
/// model) the attacker cannot even rank candidates.
///
/// `sim` is the design compiled for any simulation backend: a
/// [`CompiledFsmd`] runs the model, a [`vlog::VlogTape::with_mems`]
/// binding runs the *emitted Verilog text* and shows the
/// foundry-visible artifact leaks exactly as much. The candidate space
/// is sharded over the shared [`sim_core::GridExec`] — one runner and
/// key buffer per worker — and the outcome is identical for every
/// worker count.
///
/// # Panics
///
/// Panics if the design has more than 24 branch bits (enumeration is the
/// point of this analysis, not a general solver).
pub fn oracle_guided_branch_attack<S: Simulator>(
    design: &LockedDesign,
    sim: &S,
    correct_key: &KeyBits,
    cases: &[TestCase],
    oracle: &[OutputImage],
    opts: &SimOptions,
) -> BranchAttackOutcome {
    let branch_bits: Vec<u32> = design.plan.branch_bits.values().copied().collect();
    let n = branch_bits.len();
    assert!(n <= 24, "branch enumeration limited to 24 bits, got {n}");
    // The enumeration runs the same design under thousands of candidate
    // keys: every worker binds its own runner and rewrites one key buffer
    // per stolen candidate. Workers steal contiguous candidate *chunks*
    // and reduce each to a survivor count locally, so memory stays
    // O(chunks) even at the 24-bit cap (a per-candidate result vector
    // would be 2^24 entries).
    let total = 1u64 << n;
    let exec = GridExec::default();
    let n_chunks = (exec.workers_for(total as usize) * 8).min(total as usize);
    let chunk = total.div_ceil(n_chunks as u64);
    let truth = true_assignment(correct_key, &branch_bits);
    let parts: Vec<(u64, bool)> = exec.run(
        n_chunks,
        || (sim.new_runner(), correct_key.clone()),
        |(runner, key), ci| {
            let (mut surviving, mut true_survives) = (0u64, false);
            for candidate in (ci as u64 * chunk)..((ci as u64 + 1) * chunk).min(total) {
                assign_candidate(key, &branch_bits, candidate);
                let ok = cases.iter().zip(oracle).all(|(case, want)| {
                    match runner.outputs(case, key, opts) {
                        Ok((img, _)) => images_equal(want, &img),
                        Err(_) => false,
                    }
                });
                if ok {
                    surviving += 1;
                    if candidate == truth {
                        true_survives = true;
                    }
                }
            }
            (surviving, true_survives)
        },
    );
    BranchAttackOutcome {
        candidates_tried: total,
        candidates_surviving: parts.iter().map(|(s, _)| s).sum(),
        true_key_survives: parts.iter().any(|&(_, t)| t),
    }
}

/// Writes enumeration candidate `candidate` into the branch bits of
/// `key` (bit `i` of the candidate drives `branch_bits[i]`).
fn assign_candidate(key: &mut KeyBits, branch_bits: &[u32], candidate: u64) {
    for (i, &b) in branch_bits.iter().enumerate() {
        key.set_bit(b, (candidate >> i) & 1 == 1);
    }
}

/// The candidate index encoding the correct key's branch-bit values.
fn true_assignment(correct_key: &KeyBits, branch_bits: &[u32]) -> u64 {
    branch_bits.iter().enumerate().map(|(i, &b)| (correct_key.bit(b) as u64) << i).sum()
}

// ------------------------------------------------------------ SAT attack

/// Extra cycles the design-level attack adds to the probed correct-key
/// latency when no depth is given (room for wrong keys whose last
/// distinguishing write lands late).
const PROBE_SLACK: u32 = 8;

/// Options for the design-level SAT attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatAttackConfig {
    /// Explicit unrolling depth, or `None` to probe the correct-key
    /// latency over the given cases and add 8 cycles of slack. An
    /// explicit depth of 0 is read as 1, the shallowest observable (as
    /// [`SatAttackOptions::unroll_cycles`] reads it). The lazy unrolling
    /// starts at the worst latency the probe measured, clamped to this
    /// depth, and grows toward it only when a proof touches the
    /// k-boundary frame.
    pub unroll: Option<u32>,
    /// Stop after this many DIPs.
    pub max_dips: Option<u64>,
    /// Total solver conflict budget.
    pub conflict_budget: Option<u64>,
    /// Total solver propagation ("step") budget.
    pub step_budget: Option<u64>,
    /// Cooperative cancellation + wall-clock deadline, forwarded into the
    /// DIP loop and its CDCL solver. A cancelled or expired attack comes
    /// back `Exhausted` with its partial effort and constraints.
    pub budget: sim_core::Budget,
    /// Telemetry handle, forwarded into the DIP loop and its CDCL solver
    /// (disabled by default).
    pub obs: obs::Obs,
    /// Live progress feed, forwarded into the DIP loop (disabled by
    /// default): ticks once per distinguishing input, with `max_dips`
    /// announced as the total when bounded.
    pub progress: obs::ProgressTracker,
}

impl Default for SatAttackConfig {
    fn default() -> Self {
        SatAttackConfig {
            unroll: None,
            max_dips: None,
            conflict_budget: None,
            step_budget: None,
            budget: sim_core::Budget::unlimited(),
            obs: obs::Obs::off(),
            progress: obs::ProgressTracker::off(),
        }
    }
}

/// Result of [`sat_attack_design`]: the raw attack outcome plus the
/// design-house-side verification only this crate can perform (it holds
/// the true working key).
#[derive(Debug, Clone)]
pub struct SatDesignAttack {
    /// The DIP loop's outcome and effort counters.
    pub outcome: SatAttackOutcome,
    /// The unrolling depth used (the bounded observable's cycle budget;
    /// at least 1).
    pub unroll: u32,
    /// The recovered key equals the true working key bit for bit.
    pub key_exact: bool,
    /// The recovered key reproduces the true key's outputs on every
    /// verification case (the equivalence-class guarantee; `key_exact`
    /// additionally requires every key bit to be observable).
    pub key_functional: bool,
}

impl SatDesignAttack {
    /// `true` when the key space collapsed (the attack ran to completion
    /// rather than hitting a DIP or conflict budget).
    pub fn recovered(&self) -> bool {
        self.outcome.status == attack_sat::SatAttackStatus::Recovered
    }
}

/// Runs the SAT-based oracle-guided attack against a locked design's
/// *emitted Verilog text*, with the FSMD tape bound to the correct
/// working key as the oracle (the activated chip), and verifies the
/// recovered key against the truth.
///
/// `cases` drive the latency probe (when `cfg.unroll` is `None`) and the
/// functional verification of the recovered key. The attacker's input
/// space is every argument port plus every pure-input external memory;
/// oracle queries run through the design's own array map, exactly like a
/// testbench stimulus.
///
/// # Errors
///
/// Returns [`VlogError`] when the emitted text fails to parse — itself a
/// differential finding.
///
/// # Panics
///
/// Panics if the design has no key bits or the correct key fails to
/// terminate on a probe case (both are flow bugs, not attack outcomes).
pub fn sat_attack_design(
    design: &LockedDesign,
    correct_key: &KeyBits,
    cases: &[TestCase],
    cfg: &SatAttackConfig,
) -> Result<SatDesignAttack, VlogError> {
    let text = verilog::emit(&design.fsmd);
    let sim = VlogSim::new(&text)?;
    let compiled = CompiledFsmd::compile(&design.fsmd);

    // Bound the observable window: the attacker measures the activated
    // chip's latency on a few stimuli and adds slack. The same probe
    // seeds the lazy unrolling — real executions finish within `worst`
    // cycles, so starting the DIP loop any shallower only yields
    // boundary artifacts.
    let mut probe = compiled.runner();
    let (unroll, probed_worst) = match cfg.unroll {
        Some(k) => {
            let k = k.max(1);
            let probe_opts = SimOptions { max_cycles: u64::from(k), snapshot_on_timeout: false };
            let worst = cases
                .iter()
                .map(|c| match probe.run_case(c, correct_key, &probe_opts) {
                    Ok(stats) => stats.cycles as u32,
                    Err(rtl::SimError::CycleLimit) => k,
                    Err(e) => panic!("latency probe failed: {e}"),
                })
                .max()
                .unwrap_or(k);
            (k, worst)
        }
        None => {
            let worst = cases
                .iter()
                .map(|c| {
                    probe
                        .run_case(c, correct_key, &SimOptions::default())
                        .expect("correct key terminates on probe cases")
                        .cycles
                })
                .max()
                .unwrap_or(64) as u32;
            (worst + PROBE_SLACK, worst)
        }
    };

    let enc = attack_sat::Encoder::new(&sim);
    let free_mems = enc.free_mem_ids();
    let out_mems = enc.out_mem_ids();
    let array_of_mem = invert_mem_map(design);
    let oracle_opts = SimOptions { max_cycles: unroll as u64, snapshot_on_timeout: false };
    let mut oracle_runner = compiled.runner();
    let mut oracle = |q: &AttackQuery| {
        let case = TestCase {
            args: q.args.clone(),
            mem_inputs: free_mems
                .iter()
                .zip(&q.mems)
                .filter_map(|(&mi, data)| Some((*array_of_mem.get(&mi)?, data.clone())))
                .collect(),
        };
        match oracle_runner.run_case(&case, correct_key, &oracle_opts) {
            Ok(stats) => OracleResponse {
                done: true,
                ret: stats.ret,
                mems: out_mems.iter().map(|&mi| oracle_runner.mems()[mi].clone()).collect(),
            },
            Err(rtl::SimError::CycleLimit) => {
                OracleResponse { done: false, ret: None, mems: Vec::new() }
            }
            Err(e) => panic!("oracle query failed: {e}"),
        }
    };

    let opts = SatAttackOptions {
        unroll_cycles: unroll,
        initial_unroll: probed_worst.clamp(1, unroll),
        max_dips: cfg.max_dips,
        conflict_budget: cfg.conflict_budget,
        step_budget: cfg.step_budget,
        budget: cfg.budget.clone(),
        obs: cfg.obs.clone(),
        progress: cfg.progress.clone(),
    };
    let outcome = attack_sat::sat_attack(&sim, &opts, &mut oracle);

    // Design-house verification: bit-exactness and functional parity in
    // the attack's own observable — done-within-k plus the output image.
    // Latency is deliberately *not* compared: keys differing only in
    // cycle count are CNF-indistinguishable by construction, so a
    // collapsed class may legitimately contain both.
    let (key_exact, key_functional) = match &outcome.key {
        Some(got) => {
            let exact = got == correct_key;
            let mut runner = compiled.runner();
            let functional = cases.iter().all(|c| {
                let want = runner.outputs(c, correct_key, &oracle_opts);
                let have = runner.outputs(c, got, &oracle_opts);
                match (want, have) {
                    (Ok((wi, _)), Ok((hi, _))) => images_equal(&wi, &hi),
                    (Err(we), Err(he)) => we == he,
                    _ => false,
                }
            });
            (exact, functional)
        }
        None => (false, false),
    };
    Ok(SatDesignAttack { outcome, unroll, key_exact, key_functional })
}

/// MemIdx → ArrayId, the inverse of the design's array map.
fn invert_mem_map(design: &LockedDesign) -> std::collections::BTreeMap<usize, ArrayId> {
    design.fsmd.mem_of_array.iter().map(|(&aid, &mi)| (mi.0 as usize, aid)).collect()
}

// ------------------------------------------------------- attack comparison

/// Side-by-side effort of the two oracle-guided attacks on one design:
/// the branch-bit enumeration (the weak attacker the repo has always
/// measured) vs the SAT attack (the literature's canonical adversary).
#[derive(Debug, Clone)]
pub struct AttackComparison {
    /// Branch enumeration outcome (`None` when the design has no branch
    /// bits or too many to enumerate).
    pub branch: Option<BranchAttackOutcome>,
    /// Oracle queries the enumeration spent (candidates × cases).
    pub branch_queries: u64,
    /// Wall time of the enumeration.
    pub branch_wall: Duration,
    /// The SAT attack's outcome and verification.
    pub sat: SatDesignAttack,
}

impl AttackComparison {
    /// `true` when the SAT attack recovered a key the branch attack
    /// cannot even rank: full-key recovery vs branch-bit survival.
    pub fn sat_strictly_stronger(&self) -> bool {
        self.sat.key_functional
            && self.branch.as_ref().map(|b| b.candidates_surviving > 1).unwrap_or(true)
    }
}

/// Runs both attacks on one locked design and reports their efforts side
/// by side: the branch enumeration needs `candidates × cases` simulations
/// and only ever resolves branch bits; the SAT attack queries the oracle
/// once per DIP and recovers the whole working key.
pub fn compare_attacks(
    design: &LockedDesign,
    correct_key: &KeyBits,
    cases: &[TestCase],
    oracle: &[OutputImage],
    sim_opts: &SimOptions,
    sat_cfg: &SatAttackConfig,
) -> Result<AttackComparison, VlogError> {
    let n_branch = design.plan.branch_bits.len();
    let (branch, branch_queries, branch_wall) = if n_branch > 0 && n_branch <= 24 {
        let t0 = Instant::now();
        let ctape = CompiledFsmd::compile(&design.fsmd);
        let out = oracle_guided_branch_attack(design, &ctape, correct_key, cases, oracle, sim_opts);
        let queries = out.candidates_tried * cases.len() as u64;
        (Some(out), queries, t0.elapsed())
    } else {
        (None, 0, Duration::ZERO)
    };
    let sat = sat_attack_design(design, correct_key, cases, sat_cfg)?;
    Ok(AttackComparison { branch, branch_queries, branch_wall, sat })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{lock, TaoOptions};
    use crate::plan::PlanConfig;
    use rtl::golden_outputs;

    const KERNEL: &str = r#"
        int f(int a, int b) {
            int r = 0;
            if (a > b) r = a * 3;
            else r = b - a;
            if (r > 100) r -= 50;
            return r;
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

    fn branch_only() -> TaoOptions {
        TaoOptions {
            plan: PlanConfig { constants: false, dfg_variants: false, ..PlanConfig::default() },
            ..TaoOptions::default()
        }
    }

    #[test]
    fn key_space_accounting_matches_plan() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(1);
        let d = lock(&m, "f", &lk, &TaoOptions::default()).unwrap();
        let ks = KeySpace::of(&d);
        assert_eq!(ks.total_bits(), d.fsmd.key_width as u64);
        assert!(ks.constant_bits >= 32); // at least one 32-bit constant
        assert!(ks.branch_bits >= 2);
        assert!(ks.variant_bits >= 4);
        assert!(!ks.brute_force_feasible(64));
        // Branch bits alone would be trivially enumerable.
        assert!(ks.branch_bits < 64);
    }

    #[test]
    fn oracle_attack_recovers_branch_bits_but_needs_the_oracle() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(2);
        let d = lock(&m, "f", &lk, &branch_only()).unwrap();
        let wk = d.working_key(&lk);
        let cases: Vec<TestCase> = [(9u64, 3u64), (3, 9), (200, 1), (1, 200)]
            .iter()
            .map(|&(a, b)| TestCase::args(&[a, b]))
            .collect();
        let oracle: Vec<_> = cases.iter().map(|c| golden_outputs(&d.module, "f", c)).collect();
        let opts = SimOptions { max_cycles: 100_000, snapshot_on_timeout: true };
        let ctape = CompiledFsmd::compile(&d.fsmd);
        let out = oracle_guided_branch_attack(&d, &ctape, &wk, &cases, &oracle, &opts);
        // With I/O oracles, enumeration works: the true key survives and
        // the survivor set is tiny.
        assert!(out.true_key_survives);
        assert!(out.candidates_surviving >= 1);
        assert!(
            out.candidates_surviving < out.candidates_tried / 2,
            "oracle should prune most candidates ({}/{})",
            out.candidates_surviving,
            out.candidates_tried
        );
    }

    #[test]
    fn sat_attack_recovers_branch_key_exactly() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(6);
        let d = lock(&m, "f", &lk, &branch_only()).unwrap();
        let wk = d.working_key(&lk);
        assert!(wk.width() >= 2, "kernel keeps its two conditionals");
        let cases: Vec<TestCase> = [(9u64, 3u64), (3, 9), (200, 1)]
            .iter()
            .map(|&(a, b)| TestCase::args(&[a, b]))
            .collect();
        let att = sat_attack_design(&d, &wk, &cases, &SatAttackConfig::default()).unwrap();
        assert_eq!(att.outcome.status, attack_sat::SatAttackStatus::Recovered);
        assert!(att.key_exact, "branch polarities are fully observable");
        assert!(att.key_functional);
        assert!(att.outcome.dips >= 1, "wrong polarities must be distinguishable");
    }

    #[test]
    fn sat_attack_recovers_constants_and_branches() {
        // XOR-masked constants plus branch polarities: every key bit is
        // individually observable, so full exact recovery is required —
        // the upgrade over the branch enumeration, which cannot even
        // rank constant bits. The branch must test `r` (not `a`): with
        // `a > b` the two constants' MSBs form a genuine two-key
        // equivalence class (carries never propagate past the MSB, so
        // flipping bit 31 of both constants is invisible) and the attack
        // correctly collapses to the class instead of the point.
        let src = r#"
            int g(int a, int b) {
                int r = a ^ 21;
                if (r > b) r = r + b;
                else r = r - b;
                return r ^ 5;
            }
        "#;
        let m = hls_frontend::compile(src, "t").unwrap();
        let lk = locking(7);
        let opts = TaoOptions {
            plan: PlanConfig { dfg_variants: false, ..PlanConfig::default() },
            ..TaoOptions::default()
        };
        let d = lock(&m, "g", &lk, &opts).unwrap();
        let wk = d.working_key(&lk);
        assert!(wk.width() > 32, "constants dominate the key");
        let cases: Vec<TestCase> =
            [(5u64, 2u64), (2, 5)].iter().map(|&(a, b)| TestCase::args(&[a, b])).collect();
        let att = sat_attack_design(&d, &wk, &cases, &SatAttackConfig::default()).unwrap();
        assert_eq!(att.outcome.status, attack_sat::SatAttackStatus::Recovered);
        let got = att.outcome.key.as_ref().expect("key recovered");
        assert!(att.key_exact, "all {} key bits observable, got hd {}", wk.width(), {
            got.hamming_distance(&wk)
        });
        assert!(att.key_functional);
    }

    #[test]
    fn a_zero_unroll_bound_reads_as_one_cycle() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(10);
        let opts = TaoOptions {
            plan: PlanConfig { dfg_variants: false, ..PlanConfig::default() },
            ..TaoOptions::default()
        };
        let d = lock(&m, "f", &lk, &opts).unwrap();
        let wk = d.working_key(&lk);
        let cases = [TestCase::args(&[9, 3])];
        let cfg = SatAttackConfig { unroll: Some(0), ..SatAttackConfig::default() };
        let att = sat_attack_design(&d, &wk, &cases, &cfg).unwrap();
        assert_eq!(att.unroll, 1);
        assert_eq!(att.outcome.unroll_final, 1);
        // No key finishes within one cycle, so no input tells two keys
        // apart and the space collapses without a DIP.
        assert!(att.recovered());
        assert_eq!(att.outcome.dips, 0);
        assert!(att.key_functional);
    }

    #[test]
    fn attack_comparison_shows_sat_strictly_stronger() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(8);
        let d = lock(&m, "f", &lk, &branch_only()).unwrap();
        let wk = d.working_key(&lk);
        let cases: Vec<TestCase> =
            [(9u64, 3u64), (3, 9)].iter().map(|&(a, b)| TestCase::args(&[a, b])).collect();
        let oracle: Vec<_> = cases.iter().map(|c| golden_outputs(&d.module, "f", c)).collect();
        let sim_opts = SimOptions { max_cycles: 100_000, snapshot_on_timeout: true };
        let cmp = compare_attacks(&d, &wk, &cases, &oracle, &sim_opts, &SatAttackConfig::default())
            .unwrap();
        let br = cmp.branch.as_ref().expect("branch space enumerable");
        assert!(br.true_key_survives);
        assert!(cmp.branch_queries >= br.candidates_tried);
        assert!(cmp.sat.key_functional);
        // The SAT attack answers with *one* key for the whole space and
        // needs orders of magnitude fewer oracle queries than the
        // enumeration needs simulations.
        assert!(cmp.sat.outcome.dips < cmp.branch_queries);
        assert!(cmp.sat_strictly_stronger() || br.candidates_surviving == 1);
    }

    #[test]
    fn constants_make_enumeration_infeasible() {
        let m = hls_frontend::compile(KERNEL, "t").unwrap();
        let lk = locking(4);
        let d = lock(&m, "f", &lk, &TaoOptions::default()).unwrap();
        let ks = KeySpace::of(&d);
        // Even granting the attacker 2^80 simulations, constants alone
        // exceed the budget — the paper's core quantitative claim.
        assert!(ks.constant_bits > 80);
        assert!(!ks.brute_force_feasible(80));
    }
}
