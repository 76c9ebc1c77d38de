//! The SAT-attack experiments: measured oracle-guided key recovery on
//! locked designs, side by side with the branch enumeration.
//!
//! The paper's security argument (Sec. 4.3) is qualitative — "cannot be
//! weakened even with SAT-based attacks … because the oracle chip is
//! unavailable". These experiments quantify the *with-oracle* half of
//! that claim: grant the attacker the oracle the threat model denies and
//! measure how fast the SAT attack (Subramanyan–Ray–Malik) recovers the
//! working key of small locked kernels under per-technique reduced key
//! budgets, versus the branch-bit enumeration that needs `candidates ×
//! cases` simulations and still only resolves branch bits.
//!
//! The five paper benchmarks run thousands of cycles per invocation —
//! far past what a k-cycle CNF unrolling can carry — so the full attack
//! corpus is a set of *attack kernels* sized to the bounded-model window,
//! and [`sat_attack_paper_attempt`] attacks one paper benchmark head-on
//! under an explicit effort ceiling.

use crate::experiments::locking_key;
use rtl::{golden_outputs, SimOptions, TestCase};
use tao::{
    compare_attacks, AttackComparison, LockedDesign, PlanConfig, SatAttackConfig, TaoOptions,
};

/// One attack kernel: a source small enough for CNF unrolling with every
/// key bit observable under constant/branch locking.
#[derive(Debug, Clone, Copy)]
pub struct AttackKernel {
    /// Display name.
    pub name: &'static str,
    /// C-subset source.
    pub source: &'static str,
    /// Top function.
    pub top: &'static str,
    /// Stimulus argument sets (also the latency probes and the recovered
    /// key's verification cases).
    pub cases: &'static [[u64; 2]],
}

/// The attack-kernel corpus: multiplier-free datapaths (CDCL-friendly
/// equivalence proofs). The first three kernels' constants and branch
/// polarities are all individually observable, so their `cb-` locks
/// must be recovered bit-exact; `chk` deliberately carries an
/// unobservable loop-control equivalence class (see its comment) that
/// the attack must collapse to functionally.
pub fn attack_kernels() -> Vec<AttackKernel> {
    vec![
        AttackKernel {
            name: "mix",
            source: r#"
                int mix(int a, int b) {
                    int r = a ^ 21;
                    if (r > b) r = r + b;
                    else r = r - b;
                    return r ^ 5;
                }
            "#,
            top: "mix",
            cases: &[[5, 2], [2, 5], [1000, 1]],
        },
        AttackKernel {
            name: "clamp",
            source: r#"
                int clamp(int a, int b) {
                    int r = a + 37;
                    if (r > 200) r = r - 150;
                    if (r < b) r = b ^ 3;
                    return r;
                }
            "#,
            top: "clamp",
            cases: &[[0, 0], [400, 3], [10, 90]],
        },
        AttackKernel {
            name: "blend",
            source: r#"
                int blend(int a, int b) {
                    int x = a ^ 77;
                    int y = b + 1023;
                    if (x < y) x = x + y;
                    else x = x - y;
                    return x ^ 258;
                }
            "#,
            top: "blend",
            cases: &[[9, 4], [4, 9], [5000, 5000]],
        },
        AttackKernel {
            name: "chk",
            // The loop representative — and a deliberate equivalence-class
            // exhibit: its induction variable never feeds the datapath, so
            // the loop's init/bound/step constants are observable only
            // through the iteration count, and triples like (0,3,1) and
            // (1,4,1) are genuinely indistinguishable. The attack must
            // still collapse the space and return a *functionally* correct
            // key; bit-exactness is impossible here by construction.
            source: r#"
                int chk(int a, int b) {
                    int s = a;
                    for (int i = 0; i < 3; i++) s = (s ^ 11) + b;
                    return s;
                }
            "#,
            top: "chk",
            cases: &[[1, 2], [77, 0], [500, 41]],
        },
    ]
}

/// The per-technique lock configurations of the effort table: branch
/// bits alone, constants + branches, and the reduced-variant plan.
pub fn attack_plans() -> Vec<(&'static str, PlanConfig)> {
    vec![
        ("b--", PlanConfig::techniques(false, true, false)),
        ("cb-", PlanConfig::techniques(true, true, false)),
        ("-bv", PlanConfig::techniques(false, true, true).with_bits_per_block(1)),
    ]
}

/// One row of the SAT-attack effort table.
#[derive(Debug, Clone)]
pub struct SatAttackRow {
    /// Kernel name.
    pub kernel: String,
    /// Technique label (`PlanConfig::label` style).
    pub plan: String,
    /// Working-key bits.
    pub key_bits: u32,
    /// Unrolling depth the attack used.
    pub unroll: u32,
    /// The two attacks' outcomes.
    pub cmp: AttackComparison,
}

impl SatAttackRow {
    /// Whether the SAT attack ran to key-space collapse.
    pub fn recovered(&self) -> bool {
        self.cmp.sat.recovered()
    }
}

fn lock_kernel(k: &AttackKernel, plan: PlanConfig, seed: u64) -> (LockedDesign, hls_core::KeyBits) {
    let m = hls_frontend::compile(k.source, k.name).expect("attack kernel compiles");
    let lk = locking_key(seed);
    let opts = TaoOptions { plan, ..TaoOptions::default() };
    let d = tao::lock(&m, k.top, &lk, &opts).expect("lock succeeds");
    let wk = d.working_key(&lk);
    (d, wk)
}

/// Runs both attacks over the whole corpus × technique table.
pub fn sat_attack_rows() -> Vec<SatAttackRow> {
    let mut rows = Vec::new();
    for k in attack_kernels() {
        for (label, plan) in attack_plans() {
            let (d, wk) = lock_kernel(&k, plan, 0x5a7);
            let cases: Vec<TestCase> = k.cases.iter().map(|args| TestCase::args(args)).collect();
            let oracle: Vec<_> =
                cases.iter().map(|c| golden_outputs(&d.module, k.top, c)).collect();
            let sim_opts = SimOptions { max_cycles: 100_000, snapshot_on_timeout: true };
            let cfg = SatAttackConfig {
                max_dips: Some(256),
                conflict_budget: Some(1_000_000),
                ..SatAttackConfig::default()
            };
            let cmp = compare_attacks(&d, &wk, &cases, &oracle, &sim_opts, &cfg)
                .expect("emitted text parses");
            rows.push(SatAttackRow {
                kernel: k.name.to_string(),
                plan: label.to_string(),
                key_bits: wk.width(),
                unroll: cmp.sat.unroll,
                cmp,
            });
        }
    }
    rows
}

/// CI-sized check: one kernel, constants + branches, tight budgets —
/// asserts the exact working key comes back.
///
/// # Panics
///
/// Panics when the attack fails to collapse the key space or the
/// recovered key is not the working key — a correctness regression in
/// the solver, the encoder or the attack loop.
pub fn sat_attack_smoke() -> String {
    let k = attack_kernels().into_iter().find(|k| k.name == "mix").expect("mix exists");
    let (d, wk) = lock_kernel(&k, PlanConfig::techniques(true, true, false), 0x51de);
    let cases: Vec<TestCase> = k.cases.iter().map(|args| TestCase::args(args)).collect();
    let cfg = SatAttackConfig {
        max_dips: Some(64),
        conflict_budget: Some(1_000_000),
        ..SatAttackConfig::default()
    };
    let att = tao::sat_attack_design(&d, &wk, &cases, &cfg).expect("emitted text parses");
    assert!(att.recovered(), "key space must collapse: {:?}", att.outcome.status);
    assert!(att.key_exact, "recovered key must equal the working key bit for bit");
    assert!(att.key_functional, "recovered key must unlock the chip");
    format!(
        "sat-smoke: mix/cb- {} key bits recovered exactly in {} DIPs, {} conflicts, \
         {} vars, {} clauses, {:.0} ms",
        wk.width(),
        att.outcome.dips,
        att.outcome.conflicts,
        att.outcome.vars,
        att.outcome.clauses,
        att.outcome.wall.as_secs_f64() * 1e3,
    )
}

/// Renders the effort table. `k-fin` is the depth the lazy unrolling
/// actually reached (≤ the configured `unroll` bound); `cnf` is the
/// attack's whole CNF in vars/clauses when it stopped: both miter
/// copies, every I/O-constraint unrolling, and the learnt clauses the
/// solver still held.
pub fn render_sat_attack(rows: &[SatAttackRow]) -> String {
    let mut out = String::new();
    out.push_str("SAT attack vs branch enumeration (oracle granted; paper's model denies it)\n");
    out.push_str(&format!(
        "{:<8} {:<5} {:>7} {:>7} {:>6} {:>6} {:>9} {:>10} {:>8} {:>6} {:>6} \
         {:>17} {:>12} {:>10}\n",
        "kernel",
        "plan",
        "keybits",
        "unroll",
        "k-fin",
        "dips",
        "conflicts",
        "sat-ms",
        "status",
        "exact",
        "func",
        "cnf",
        "branch-q",
        "branch-ms"
    ));
    for r in rows {
        let (bq, bms) = match &r.cmp.branch {
            Some(_) => (
                r.cmp.branch_queries.to_string(),
                format!("{:.1}", r.cmp.branch_wall.as_secs_f64() * 1e3),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<8} {:<5} {:>7} {:>7} {:>6} {:>6} {:>9} {:>10.1} {:>8} {:>6} {:>6} \
             {:>17} {:>12} {:>10}\n",
            r.kernel,
            r.plan,
            r.key_bits,
            r.unroll,
            r.cmp.sat.outcome.unroll_final,
            r.cmp.sat.outcome.dips,
            r.cmp.sat.outcome.conflicts,
            r.cmp.sat.outcome.wall.as_secs_f64() * 1e3,
            render_status(r.cmp.sat.outcome.status),
            if r.cmp.sat.key_exact { "yes" } else { "no" },
            if r.cmp.sat.key_functional { "yes" } else { "no" },
            format!("{}/{}", r.cmp.sat.outcome.vars, r.cmp.sat.outcome.clauses),
            bq,
            bms,
        ));
        // An exhausted attack is a *partial* result, not a blank row: say
        // what stopped it, how deep it got, and what it still hands back.
        if let tao::SatAttackStatus::Exhausted(cause) = r.cmp.sat.outcome.status {
            out.push_str(&format!(
                "{:<8} {:<5} partial: stopped on {cause} at depth {}; {} I/O constraints \
                 retained, key {}\n",
                "",
                "",
                r.cmp.sat.outcome.unroll_final,
                r.cmp.sat.outcome.constraints.len(),
                if r.cmp.sat.outcome.key.is_some() { "consistent-so-far" } else { "none" },
            ));
        }
    }
    out
}

/// Compact status cell: `collapse` on recovery, the exhaust cause
/// otherwise.
fn render_status(status: tao::SatAttackStatus) -> &'static str {
    match status {
        tao::SatAttackStatus::Recovered => "collapse",
        tao::SatAttackStatus::Exhausted(cause) => match cause {
            tao::ExhaustCause::DipBudget => "dips",
            tao::ExhaustCause::ConflictBudget => "conflict",
            tao::ExhaustCause::StepBudget => "steps",
            tao::ExhaustCause::Deadline => "deadline",
            tao::ExhaustCause::Cancelled => "cancel",
        },
    }
}

/// The paper-scale attempt: the `viterbi` benchmark's full multi-
/// thousand-bit lock attacked head-on with the lazily-unrolled miter
/// under an explicit effort ceiling. The design runs thousands of
/// cycles per invocation, so a full-depth collapse is out of reach by
/// construction; the value of the row is the measured *effort frontier*
/// — how deep the lazy unrolling got, how large the CNF grew, and what
/// partial result (I/O constraints, consistent key) the bounded
/// attacker still walks away with.
pub fn sat_attack_paper_attempt() -> (SatAttackRow, String) {
    let b = benchmarks::by_name("viterbi").expect("suite kernel");
    let lk = locking_key(0x7a9e);
    let m = b.compile().expect("kernel compiles");
    let d = tao::lock(&m, b.top, &lk, &TaoOptions::default()).expect("lock succeeds");
    let wk = d.working_key(&lk);
    let case = crate::experiments::test_case(&b, &d, 33);
    let cases = std::slice::from_ref(&case);
    let oracle = vec![golden_outputs(&d.module, b.top, &case)];
    let sim_opts = SimOptions { max_cycles: 100_000, snapshot_on_timeout: true };
    let cfg = SatAttackConfig {
        unroll: Some(64),
        max_dips: Some(32),
        conflict_budget: Some(100_000),
        ..SatAttackConfig::default()
    };
    let cmp =
        compare_attacks(&d, &wk, cases, &oracle, &sim_opts, &cfg).expect("emitted text parses");
    let row = SatAttackRow {
        kernel: b.name.to_string(),
        plan: "cbv".to_string(),
        key_bits: wk.width(),
        unroll: cmp.sat.unroll,
        cmp,
    };
    let out = &row.cmp.sat.outcome;
    let frontier = format!(
        "paper-scale: viterbi carries {} key bits; bounded attacker reached depth \
         {}/{} ({} growths), spent {} DIPs / {} conflicts, retained {} I/O constraints, \
         key {}",
        row.key_bits,
        out.unroll_final,
        row.unroll,
        out.growths,
        out.dips,
        out.conflicts,
        out.constraints.len(),
        match (out.status == tao::SatAttackStatus::Recovered, out.key.is_some()) {
            (true, _) => "recovered",
            (false, true) => "consistent-so-far",
            (false, false) => "none",
        },
    );
    (row, frontier)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_recovers_the_exact_key() {
        let line = sat_attack_smoke();
        assert!(line.contains("recovered exactly"));
    }

    #[test]
    fn corpus_kernels_compile_and_lock() {
        for k in attack_kernels() {
            for (_, plan) in attack_plans() {
                let (d, wk) = lock_kernel(&k, plan, 1);
                assert!(wk.width() > 0, "{}: key must be non-empty", k.name);
                assert_eq!(d.fsmd.key_width, wk.width());
            }
        }
    }
}
