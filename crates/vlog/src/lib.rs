//! # vlog — executing the emitted Verilog
//!
//! The TAO paper validates its locked designs by *simulating the
//! generated RTL* with extended testbenches that "specify different
//! locking keys as input and verify the implementation for each of them"
//! (Sec. 4.1). This crate closes that loop for the reproduction: it
//! lexes and parses the synthesizable subset that
//! `hls_core::verilog::emit` produces into a netlist AST, elaborates it,
//! and executes it with a two-phase event-driven simulator — all
//! nonblocking right-hand sides evaluate against the pre-edge state, all
//! updates commit at the clock edge.
//!
//! The simulator speaks the shared [`sim_core`] contract
//! ([`SimOptions`](sim_core::SimOptions) / [`SimResult`](sim_core::SimResult)
//! / [`SimError`](sim_core::SimError)) — the same interface as the FSMD
//! simulator — so the emitted *text*, the foundry-visible artifact, can
//! be differentially checked bit-for-bit and cycle-for-cycle against the
//! in-memory model (`tao::verify` runs the three-way oracle: IR
//! interpreter vs FSMD vs Verilog text), and the compiled tape plugs
//! into the parallel `sim_core::GridExec` via [`VlogTape::with_mems`].
//!
//! ## Example
//!
//! ```
//! use hls_core::KeyBits;
//! use rtl::SimOptions;
//!
//! let m = hls_frontend::compile("int inc(int x) { return x + 1; }", "demo")?;
//! let fsmd = hls_core::synthesize(&m, "inc", &hls_core::HlsOptions::default())?;
//! let text = hls_core::verilog::emit(&fsmd);
//!
//! let sim = vlog::VlogSim::new(&text)?;
//! let res = sim.simulate(&[41], &KeyBits::zero(0), &[], &SimOptions::default())?;
//! assert_eq!(res.ret, Some(42));
//!
//! // Bit-for-bit, cycle-for-cycle agreement with the FSMD simulator.
//! let fsmd_res = rtl::simulate(&fsmd, &[41], &KeyBits::zero(0), &[], &SimOptions::default())?;
//! assert_eq!(res, fsmd_res);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `vcd` module captures IEEE-1364 value-change dumps from the
//! compiled tape ([`trace_tape`]) and parses them back ([`parse_vcd`]),
//! closing the same loop for `rtl::vcd` waveforms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod sim;
pub mod tape;
pub mod vcd;

pub use parser::{parse, ParseError};
pub use sim::{vlog_outputs, CExpr, CMem, CStmt, Sig, SigKind, VlogError, VlogSim};
pub use tape::{GridRunner, GridTape, TapeRunner, VlogTape};
pub use vcd::{parse_vcd, trace_tape, SignalTrace, Vcd, VcdChange, VcdError, VcdVar, Waveform};
