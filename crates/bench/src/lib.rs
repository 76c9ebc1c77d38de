//! # bench — experiment harness regenerating every table and figure
//!
//! Each public function reproduces one evaluation artifact of the TAO
//! paper (the README's *Reproduce the paper* section lists them) and
//! returns structured rows; the `reproduce` binary formats them next to
//! the paper's reported values:
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- all
//! ```
//!
//! ## Design-space exploration
//!
//! The paper evaluates one hand-picked configuration per benchmark;
//! [`dse_sweep`] instead drives the `hls-dse` engine over the full
//! configuration lattice — `Allocation` budgets × unroll factors ×
//! technique plans — for several kernels at once, in parallel, and
//! extracts the per-kernel Pareto front of `(area, latency, key bits,
//! attack effort)`:
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- dse
//! ```
//!
//! prints every evaluated point (Pareto rows starred) and writes
//! `target/dse_sweep.jsonl` — one JSON object per point — for trajectory
//! tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod chaos;
pub mod dse;
pub mod experiments;
pub mod format;
pub mod profile;
pub mod satattack;
pub mod simbench;
pub mod vlogdiff;

pub use analyze::{analyze_smoke, analyze_trace_file, AnalyzeReport};
pub use chaos::chaos_smoke;
pub use dse::{dse_kernels, dse_sweep, smoke_sweep};
pub use experiments::*;
pub use profile::{check_trace, profile_kernel, profile_smoke, ProfileReport, REQUIRED_SPANS};
pub use satattack::{
    attack_kernels, attack_plans, render_sat_attack, sat_attack_paper_attempt, sat_attack_rows,
    sat_attack_smoke, AttackKernel, SatAttackRow,
};
pub use simbench::{
    check_floor, check_grid_floor, grid_smoke, render_sim_bench, sim_bench, sim_bench_smoke,
    SimBenchRow, GRID_FLOOR, GRID_FLOOR_MIN_WORKERS, VLOG_TAPE_FLOOR,
};
pub use vlogdiff::{vlog_diff, vlog_diff_clean, VlogDiffRow};
