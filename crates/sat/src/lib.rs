//! # sat — a self-contained CDCL SAT solver
//!
//! The logic-locking literature's canonical adversary is the *SAT-based
//! oracle-guided attack* (Subramanyan, Ray, Malik — HOST 2015): instead of
//! enumerating the key space, the attacker asks a SAT solver for
//! *distinguishing inputs* that prune it. This crate supplies the solver
//! half of that attack for the workspace — pure `std`, no external
//! dependencies:
//!
//! - [`Solver`]: conflict-driven clause learning with two-watched-literal
//!   propagation plus dedicated binary-clause implication lists, VSIDS
//!   variable activity with phase saving, first-UIP clause learning with
//!   recursive learnt-clause minimization, LBD (glue) tracking with
//!   (glue, activity)-ordered database reduction, Luby restarts,
//!   conflict budgets, and incremental solving under assumptions, with
//!   one fixed search configuration (VSIDS decay 0.95, clause-activity
//!   decay 0.999, Luby unit 128 conflicts, a fresh variable's first
//!   decision is false), so a given sequence of calls always takes the
//!   same search;
//! - [`Gates`]: a small CNF-building API — Tseitin-encoded `and` / `or` /
//!   `xor` / `mux` gates with constant folding and structural hashing —
//!   the layer the `attack-sat` bit-blaster builds word-level circuits on.
//!
//! ## Example
//!
//! ```
//! use sat::{Gates, SolveOutcome};
//!
//! // A 2-bit adder bit: s = a ⊕ b, c = a ∧ b; assert s ∧ c — impossible.
//! let mut g = Gates::new();
//! let (a, b) = (g.fresh(), g.fresh());
//! let s = g.xor(a, b);
//! let c = g.and(a, b);
//! let both = g.and(s, c);
//! g.assert_true(both);
//! assert_eq!(g.solver().solve(), SolveOutcome::Unsat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gates;
pub mod solver;

pub use gates::Gates;
pub use solver::{Lit, SolveOutcome, Solver, SolverStats, Var};
