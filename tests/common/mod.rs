//! Shared helpers for the integration/property test suites: a seeded
//! random-program generator for the C subset, used to differentially test
//! the whole pipeline (interpreter vs optimizer vs FSMD simulator vs
//! locked design), and the executor-free reference grid the parallel
//! grid properties compare against.

use hls_core::KeyBits;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_core::{BatchRunner, SimError, SimOptions, SimStats, Simulator, TestCase};
use std::fmt::Write as _;

/// A generated program plus the variables available at top scope.
pub struct GenProgram {
    /// The C source text.
    pub source: String,
}

/// Generates a random, always-terminating program in the C subset:
/// one function `int f(int a, int b, int c)` with bounded loops, nested
/// control flow, a local scratch array with masked indices, and total
/// integer expressions (division is total in the subset semantics).
pub fn gen_program(seed: u64) -> GenProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    writeln!(src, "int f(int a, int b, int c) {{").unwrap();
    writeln!(src, "    int arr[8];").unwrap();
    writeln!(src, "    for (int z = 0; z < 8; z++) arr[z] = a + z * b;").unwrap();
    let mut ctx = GenCtx {
        rng: &mut rng,
        vars: vec!["a".into(), "b".into(), "c".into()],
        next_var: 0,
        next_loop: 0,
    };
    let n = ctx.rng.gen_range(3..9);
    for _ in 0..n {
        let s = ctx.stmt(2);
        src.push_str(&s);
    }
    let ret = ctx.expr(3);
    writeln!(src, "    return {ret};").unwrap();
    writeln!(src, "}}").unwrap();
    GenProgram { source: src }
}

struct GenCtx<'r> {
    rng: &'r mut StdRng,
    /// Assignable scalar variables in scope (flat scope: generated decls
    /// all live at the top level of their block, so shadowing is avoided
    /// by unique names).
    vars: Vec<String>,
    next_var: u32,
    next_loop: u32,
}

impl GenCtx<'_> {
    fn var(&mut self) -> String {
        self.vars[self.rng.gen_range(0..self.vars.len())].clone()
    }

    fn literal(&mut self) -> i64 {
        match self.rng.gen_range(0..6) {
            0 => 0,
            1 => 1,
            2 => -1,
            3 => self.rng.gen_range(-100..100),
            4 => 1 << self.rng.gen_range(1..8),
            _ => [255, 256, 4096, -32768, 65535][self.rng.gen_range(0..5)],
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.gen_bool(0.3) {
            return match self.rng.gen_range(0..3) {
                0 => self.var(),
                1 => format!("{}", self.literal()),
                _ => {
                    let i = self.expr(0);
                    format!("arr[({i}) & 7]")
                }
            };
        }
        match self.rng.gen_range(0..12) {
            0..=6 => {
                let op =
                    ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"][self.rng.gen_range(0..10)];
                let l = self.expr(depth - 1);
                let r = self.expr(depth - 1);
                // Keep shift amounts small and well-defined.
                if op == "<<" || op == ">>" {
                    format!("(({l}) {op} (({r}) & 15))")
                } else {
                    format!("(({l}) {op} ({r}))")
                }
            }
            7 => {
                let e = self.expr(depth - 1);
                format!("(-({e}))")
            }
            8 => {
                let e = self.expr(depth - 1);
                format!("(~({e}))")
            }
            9 => {
                let c = self.cond(depth - 1);
                let t = self.expr(depth - 1);
                let e = self.expr(depth - 1);
                format!("(({c}) ? ({t}) : ({e}))")
            }
            10 => {
                let l = self.expr(depth - 1);
                format!("((char)({l}))")
            }
            _ => {
                let c = self.cond(depth - 1);
                format!("({c})")
            }
        }
    }

    fn cond(&mut self, depth: u32) -> String {
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6)];
        let l = self.expr(depth);
        let r = self.expr(depth);
        if self.rng.gen_bool(0.25) {
            let l2 = self.expr(depth);
            let r2 = self.expr(depth);
            let joiner = if self.rng.gen_bool(0.5) { "&&" } else { "||" };
            format!("(({l}) {op} ({r})) {joiner} (({l2}) != ({r2}))")
        } else {
            format!("(({l}) {op} ({r}))")
        }
    }

    fn stmt(&mut self, depth: u32) -> String {
        let choice = if depth == 0 { self.rng.gen_range(0..3) } else { self.rng.gen_range(0..7) };
        match choice {
            0 => {
                // New scalar declaration.
                let name = format!("v{}", self.next_var);
                self.next_var += 1;
                let e = self.expr(2);
                self.vars.push(name.clone());
                format!("    int {name} = {e};\n")
            }
            1 => {
                // Assignment (possibly compound).
                let v = self.var();
                let op = ["=", "+=", "-=", "*=", "^=", "|=", "&="][self.rng.gen_range(0..7)];
                let e = self.expr(2);
                format!("    {v} {op} {e};\n")
            }
            2 => {
                // Array store with a masked index.
                let i = self.expr(1);
                let e = self.expr(2);
                format!("    arr[({i}) & 7] = {e};\n")
            }
            3 => {
                // if / else. Declarations inside the arms are block-scoped:
                // drop them from the generator's context afterwards.
                let c = self.cond(1);
                let mark = self.vars.len();
                let t = self.stmt(depth - 1);
                self.vars.truncate(mark);
                if self.rng.gen_bool(0.5) {
                    let e = self.stmt(depth - 1);
                    self.vars.truncate(mark);
                    format!("    if ({c}) {{\n{t}    }} else {{\n{e}    }}\n")
                } else {
                    format!("    if ({c}) {{\n{t}    }}\n")
                }
            }
            4 => {
                // Bounded for loop; the induction variable is never
                // assigned by inner statements (it is not in `vars`), and
                // body-scoped declarations do not escape.
                let iv = format!("i{}", self.next_loop);
                self.next_loop += 1;
                let bound = self.rng.gen_range(1..6);
                let mark = self.vars.len();
                let body = self.stmt(depth - 1);
                self.vars.truncate(mark);
                format!("    for (int {iv} = 0; {iv} < {bound}; {iv}++) {{\n{body}    }}\n")
            }
            5 => {
                // switch over a small scrutinee; each case body ends in
                // break (the subset forbids fallthrough).
                let e = self.expr(1);
                let n_cases = self.rng.gen_range(1..4);
                let mut out = format!("    switch (({e}) & 3) {{\n");
                for k in 0..n_cases {
                    let mark = self.vars.len();
                    let body = self.stmt(0);
                    self.vars.truncate(mark);
                    out.push_str(&format!("    case {k}:\n{body}    break;\n"));
                }
                if self.rng.gen_bool(0.5) {
                    let mark = self.vars.len();
                    let body = self.stmt(0);
                    self.vars.truncate(mark);
                    out.push_str(&format!("    default:\n{body}"));
                }
                out.push_str("    }\n");
                out
            }
            _ => {
                // Two sequenced statements.
                let a = self.stmt(depth - 1);
                let b = self.stmt(depth - 1);
                format!("{a}{b}")
            }
        }
    }
}

/// The (case × key) grid as a plain nested loop on one runner, with no
/// executor: `grid[k][c]` for key `k` and case `c`. The reference that
/// `sim_core::GridExec` grids are checked against, so a bug in the
/// executor's one-worker path cannot hide in both sides of a comparison.
pub fn reference_grid<S: Simulator>(
    sim: &S,
    cases: &[TestCase],
    keys: &[KeyBits],
    opts: &SimOptions,
) -> Vec<Vec<Result<SimStats, SimError>>> {
    let mut runner = sim.new_runner();
    keys.iter()
        .map(|key| cases.iter().map(|case| runner.run_case(case, key, opts)).collect())
        .collect()
}

/// Interprets `f(a, b, c)` in a module, returning the 32-bit result.
pub fn run_golden(module: &hls_ir::Module, args: &[u64]) -> u64 {
    hls_ir::Interpreter::new(module)
        .run_by_name("f", args)
        .expect("golden run")
        .ret
        .expect("f returns int")
}
