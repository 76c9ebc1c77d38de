//! Search-identity pins for the CDCL kernel.
//!
//! Each case solves a fixed, seeded instance and compares the solver's
//! exact effort counters (conflicts, decisions, propagations, binary
//! propagations, learnt clauses held, minimized literals, glue-protected
//! clauses) and a fingerprint of every answer and model with fixed
//! values. The values were recorded with the solver that kept clause
//! headers in a side table, before the inline-header arena. A kernel
//! change that is meant to be a pure speed-up must leave every number
//! here alone; one that changes the search on purpose re-records them and
//! says why.
//!
//! The last case pins one whole SAT attack on a locked kernel: DIPs,
//! conflicts, propagations, and the miter's final variable and clause
//! counts (the clause count includes the learnt clauses still held). It
//! was re-recorded when the attack stopped solving for its final key
//! once a key of the last DIP answer reproduces every oracle label; the
//! DIP loop's search is unchanged.

use attack_sat::{sat_attack, AttackQuery, OracleResponse, SatAttackOptions, SatAttackStatus};
use hls_core::{verilog, KeyBits};
use rtl::SimError;
use sat::{Lit, SolveOutcome, Solver, SolverStats, Var};
use vlog::{VlogSim, VlogTape};

/// Deterministic xorshift stream, local so the pins depend on nothing
/// outside this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn lit(&mut self, vars: &[Var]) -> Lit {
        let v = vars[self.below(vars.len())];
        if self.next() & 1 == 1 {
            v.pos()
        } else {
            v.neg()
        }
    }
}

/// What one pinned case must reproduce exactly: the final statistics and
/// an FNV-1a fingerprint over every answer and every SAT model.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    stats: SolverStats,
    fingerprint: u64,
}

#[derive(Default)]
struct Fingerprint(u64);

impl Fingerprint {
    fn add(&mut self, x: u64) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn outcome(&mut self, s: &Solver, vars: &[Var], out: SolveOutcome) {
        self.add(out as u64);
        if out == SolveOutcome::Sat {
            for &v in vars {
                self.add(u64::from(s.value(v)));
            }
        }
    }
}

/// The fingerprint of a single `Unsat` answer.
const UNSAT: u64 = 9929646806074584996;

fn stats(
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    bin_props: u64,
    learnt: u64,
    minimized: u64,
    glue_kept: u64,
) -> SolverStats {
    SolverStats {
        conflicts,
        bin_props,
        decisions,
        propagations,
        restarts: 0,
        learnt,
        minimized,
        glue_kept,
    }
}

/// `stats()` with `restarts` cleared: restarts follow from the conflict
/// count and the Luby schedule, so pinning them adds nothing.
fn pin(s: &Solver, fp: Fingerprint) -> Pin {
    Pin { stats: SolverStats { restarts: 0, ..s.stats() }, fingerprint: fp.0 }
}

fn random_3sat(seed: u64, n: usize, m: usize) -> (Solver, Vec<Var>, Vec<Vec<Lit>>) {
    let mut rng = Rng(seed);
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    let clauses: Vec<Vec<Lit>> = (0..m).map(|_| (0..3).map(|_| rng.lit(&vars)).collect()).collect();
    for c in &clauses {
        s.add_clause(c);
    }
    (s, vars, clauses)
}

fn check_model(s: &Solver, clauses: &[Vec<Lit>]) {
    for c in clauses {
        assert!(c.iter().any(|&l| s.lit_true(l)), "model violates {c:?}");
    }
}

/// Random 3-SAT near the threshold: a mix of SAT and UNSAT answers, each
/// long enough that the learnt database is reduced during the search.
fn random_3sat_case(seed: u64) -> Pin {
    let (mut s, vars, clauses) = random_3sat(seed, 190, 809);
    let mut fp = Fingerprint::default();
    let out = s.solve();
    if out == SolveOutcome::Sat {
        check_model(&s, &clauses);
    }
    fp.outcome(&s, &vars, out);
    pin(&s, fp)
}

/// PHP(pigeons, holes): UNSAT, binary-heavy.
fn pigeonhole_case(pigeons: usize, holes: usize) -> Pin {
    let mut s = Solver::new();
    let x: Vec<Vec<Var>> =
        (0..pigeons).map(|_| (0..holes).map(|_| s.new_var()).collect()).collect();
    for row in &x {
        let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
        s.add_clause(&c);
    }
    for h in 0..holes {
        for (p1, row1) in x.iter().enumerate() {
            for row2 in x.iter().skip(p1 + 1) {
                s.add_clause(&[row1[h].neg(), row2[h].neg()]);
            }
        }
    }
    let mut fp = Fingerprint::default();
    let out = s.solve();
    assert_eq!(out, SolveOutcome::Unsat);
    fp.outcome(&s, &[], out);
    pin(&s, fp)
}

/// Incremental use: solves under a sequence of assumption sets, with
/// clauses added between some of them, on one solver.
fn assumption_sequence_case(seed: u64) -> Pin {
    let (mut s, vars, mut clauses) = random_3sat(seed, 170, 700);
    let mut rng = Rng(seed ^ 0x5eed);
    let mut fp = Fingerprint::default();
    for round in 0..40 {
        let assumptions: Vec<Lit> = (0..6).map(|_| rng.lit(&vars)).collect();
        let out = s.solve_assuming(&assumptions);
        if out == SolveOutcome::Sat {
            check_model(&s, &clauses);
            assert!(assumptions.iter().all(|&l| s.lit_true(l)), "assumptions not honoured");
        }
        fp.outcome(&s, &vars, out);
        if round % 3 == 2 {
            let c: Vec<Lit> = (0..3).map(|_| rng.lit(&vars)).collect();
            s.add_clause(&c);
            clauses.push(c);
        }
    }
    pin(&s, fp)
}

#[test]
fn random_3sat_search_is_pinned() {
    let want = [
        (
            1u64,
            Pin { stats: stats(8825, 10609, 331669, 8421, 3820, 31882, 83), fingerprint: UNSAT },
        ),
        (
            2,
            Pin {
                stats: stats(7089, 8689, 263388, 4343, 5098, 22565, 29),
                fingerprint: 7863950678416521125,
            },
        ),
        (
            3,
            Pin {
                stats: stats(5470, 6629, 197104, 1434, 3490, 16401, 33),
                fingerprint: 14789171167877724420,
            },
        ),
        (4, Pin { stats: stats(9925, 11954, 355293, 7366, 4921, 31748, 87), fingerprint: UNSAT }),
    ];
    for (seed, pin) in want {
        assert_eq!(random_3sat_case(seed), pin, "random 3-SAT seed {seed}");
    }
}

#[test]
fn pigeonhole_search_is_pinned() {
    assert_eq!(
        pigeonhole_case(6, 5),
        Pin { stats: stats(155, 192, 1720, 1170, 147, 205, 0), fingerprint: UNSAT },
        "PHP(6,5)"
    );
    assert_eq!(
        pigeonhole_case(8, 7),
        Pin { stats: stats(3568, 4293, 42262, 29425, 3556, 11855, 0), fingerprint: UNSAT },
        "PHP(8,7)"
    );
}

#[test]
fn assumption_sequence_search_is_pinned() {
    for (seed, pin) in [
        (
            11u64,
            Pin {
                stats: stats(9552, 11235, 316918, 7589, 4597, 22419, 79),
                fingerprint: 909731786559300485,
            },
        ),
        (
            12,
            Pin {
                stats: stats(6257, 7423, 212614, 9855, 4274, 12832, 33),
                fingerprint: 18359558512287326820,
            },
        ),
    ] {
        assert_eq!(assumption_sequence_case(seed), pin, "assumption sequence seed {seed}");
    }
}

/// The `mix` kernel of the attack corpus, locked with constants and
/// branches, attacked through its emitted Verilog with the compiled tape
/// as the oracle.
#[test]
fn sat_attack_outcome_is_pinned() {
    const SOURCE: &str = r#"
        int mix(int a, int b) {
            int r = a ^ 21;
            if (r > b) r = r + b;
            else r = r - b;
            return r ^ 5;
        }
    "#;
    let module = hls_frontend::compile(SOURCE, "mix").expect("kernel compiles");
    let mut st = 0x51de_u64;
    let lk = KeyBits::from_fn(256, || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    });
    let opts = tao::TaoOptions {
        plan: tao::PlanConfig::techniques(true, true, false),
        ..tao::TaoOptions::default()
    };
    let design = tao::lock(&module, "mix", &lk, &opts).expect("lock succeeds");
    let wk = design.working_key(&lk);
    let sim = VlogSim::new(&verilog::emit(&design.fsmd)).expect("emitted text parses");
    let tape = VlogTape::compile(&sim).expect("tape compiles");
    let k = 24;
    let sim_opts = rtl::SimOptions { max_cycles: k as u64, snapshot_on_timeout: false };
    let mut runner = tape.runner();
    let mut oracle = |q: &AttackQuery| match runner.run(&q.args, &wk, &[], &sim_opts) {
        Ok(res) => OracleResponse { done: true, ret: res.ret, mems: vec![] },
        Err(SimError::CycleLimit) => OracleResponse { done: false, ret: None, mems: vec![] },
        Err(e) => panic!("oracle failed: {e}"),
    };
    let out =
        sat_attack(&sim, &SatAttackOptions { unroll_cycles: k, ..Default::default() }, &mut oracle);
    assert_eq!(out.status, SatAttackStatus::Recovered);
    assert_eq!(
        (out.dips, out.conflicts, out.propagations, out.vars, out.clauses),
        (6, 3016, 388141, 5581, 25906),
        "mix/cb- attack effort"
    );
}
