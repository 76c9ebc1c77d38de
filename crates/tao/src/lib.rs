//! # tao — Techniques for Algorithm-level Obfuscation during HLS
//!
//! A faithful reimplementation of *TAO* (Pilato, Regazzoni, Karri, Garg —
//! DAC 2018) on top of this workspace's HLS flow. TAO locks an
//! HLS-generated design with a key so that an untrusted foundry holding
//! the full layout cannot recover the algorithm: constants are stored
//! XOR-encrypted at a fixed width ([`obfuscate_constants`], Sec. 3.3.2),
//! branch polarities are masked with key bits ([`obfuscate_branches`],
//! Sec. 3.3.3), and every basic block's scheduled DFG is merged with up to
//! `2^{B_i}` decoy variants selected by key bits
//! ([`obfuscate_dfg_variants`], Sec. 3.3.4 / Algorithm 1). Key bits are
//! apportioned by Eq. 1 ([`KeyPlan`]) and delivered through either
//! locking-key replication or an AES-256 + NVM scheme ([`KeyManagement`],
//! Sec. 3.4).
//!
//! ## Example
//!
//! ```
//! use hls_core::KeyBits;
//! use rtl::{golden_outputs, images_equal, rtl_outputs, SimOptions, TestCase};
//! use tao::{lock, TaoOptions};
//!
//! let m = hls_frontend::compile(
//!     "int mac(int a, int b, int c) { return a * b + c; }", "demo")?;
//! let locking = KeyBits::from_fn(256, || 42);
//! let design = lock(&m, "mac", &locking, &TaoOptions::default())?;
//!
//! // The correct key unlocks the exact original behaviour...
//! let wk = design.working_key(&locking);
//! let case = TestCase::args(&[3, 4, 5]);
//! let golden = golden_outputs(&design.module, "mac", &case);
//! let (img, _) = rtl_outputs(&design.fsmd, &case, &wk, &SimOptions::default())?;
//! assert!(images_equal(&golden, &img));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
mod branches;
mod constants;
mod flow;
mod keymgmt;
mod plan;
mod report;
mod variants;
pub mod verify;

pub use attack::{
    compare_attacks, oracle_guided_branch_attack, sat_attack_design, AttackComparison,
    BranchAttackOutcome, ExhaustCause, IoConstraint, KeySpace, SatAttackConfig, SatAttackStatus,
    SatDesignAttack,
};
pub use branches::obfuscate_branches;
pub use constants::obfuscate_constants;
pub use flow::{baseline, lock, lock_from_baseline, LockedDesign, TaoError, TaoOptions};
pub use keymgmt::{KeyManagement, KeyMgmtError, KeyScheme};
pub use plan::{KeyPlan, PlanConfig};
pub use report::ObfuscationReport;
pub use variants::{obfuscate_dfg_variants, VariantOptions};
pub use verify::{differential_verify, standard_trials, DifferentialReport, KeyTrial};
