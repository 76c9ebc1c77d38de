//! # attack-sat — SAT-based oracle-guided key recovery
//!
//! The canonical adversary in the logic-locking literature is the SAT
//! attack (Subramanyan, Ray, Malik — HOST 2015): instead of enumerating
//! keys, the attacker builds a two-copy *miter* of the locked netlist and
//! asks a SAT solver for **distinguishing input patterns** that an
//! activated chip (the oracle) then labels, pruning the key space until
//! it collapses to one observable-equivalence class. TAO's security
//! argument (paper Sec. 4.3) is that this attacker is denied the oracle;
//! this crate builds the attacker anyway, so every locked design in the
//! workspace gets a *measured* attack-effort number instead of a
//! key-width estimate.
//!
//! Three pieces:
//!
//! - [`bitvec::Bv`]: word-level circuit vectors over the [`sat::Gates`]
//!   CNF layer, with the `vlog` simulator's exact two-state semantics;
//! - [`Encoder`]: Tseitin bit-blasting of the **emitted Verilog netlist**
//!   (via `vlog`'s elaborated-netlist view) into CNF over a bounded
//!   k-cycle unrolling of the FSMD — reset protocol, done-freeze, wide
//!   working keys, memories, multi-cycle pipelines and all;
//! - [`sat_attack`]: the DIP loop, generic over the oracle closure and
//!   lazily unrolled (the miter starts shallow and grows only when a
//!   model or UNSAT proof touches the k-boundary frame), on one solver
//!   with one fixed search configuration, so an attack without a
//!   wall-clock deadline is deterministic.
//!
//! ## Example
//!
//! Lock a constant behind a key XOR by hand and recover it:
//!
//! ```
//! use attack_sat::{sat_attack, AttackQuery, OracleResponse, SatAttackOptions, SatAttackStatus};
//! use vlog::VlogSim;
//!
//! // ret = arg0 + (stored ^ key): stored = 5 ^ 9 = 12, true key = 9.
//! let text = r#"
//!     module m (
//!         input  wire clk,
//!         input  wire rst,
//!         input  wire start,
//!         input  wire [3:0] working_key,
//!         input  wire [7:0] arg0,
//!         output wire [7:0] ret,
//!         output reg  done
//!     );
//!       reg [7:0] r0;
//!       assign ret = r0;
//!       wire [3:0] const0 = 4'd12 ^ working_key[3:0];
//!       always @(posedge clk) begin
//!         if (rst) begin
//!           done <= 1'b0;
//!           r0 <= arg0;
//!         end else if (start) begin
//!           r0 <= r0 + {4'd0, const0};
//!           done <= 1'b1;
//!         end
//!       end
//!     endmodule
//! "#;
//! let sim = VlogSim::new(text)?;
//! // The oracle: an activated chip with key 9 computes arg0 + 5.
//! let mut oracle = |q: &AttackQuery| OracleResponse {
//!     done: true,
//!     ret: Some((q.args[0] + 5) & 0xff),
//!     mems: vec![],
//! };
//! let opts = SatAttackOptions { unroll_cycles: 4, ..Default::default() };
//! let out = sat_attack(&sim, &opts, &mut oracle);
//! assert_eq!(out.status, SatAttackStatus::Recovered);
//! assert_eq!(out.key.unwrap().words()[0], 9);
//! # Ok::<(), vlog::VlogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod bitvec;
pub mod encode;

pub use attack::{
    sat_attack, AttackQuery, ExhaustCause, IoConstraint, OracleResponse, SatAttackOptions,
    SatAttackOutcome, SatAttackStatus,
};
pub use bitvec::Bv;
pub use encode::{EncInputs, Encoder, KeyLits, UnrollState, Unrolling};
