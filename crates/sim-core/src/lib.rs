//! # sim-core — the shared simulation contract and the grid executor
//!
//! Every simulator backend in the reproduction — the FSMD tree walker and
//! compiled tape in `rtl`, the Verilog-text tree walker and compiled tape
//! in `vlog` — speaks one interface, and every evaluation loop of the TAO
//! paper (corruptibility sweeps, differential verification, oracle-guided
//! attacks, DSE sign-off) is a **(case × key) grid** over that interface.
//! This crate owns both halves:
//!
//! - [`contract`]: the types a simulation run consumes and produces —
//!   [`SimOptions`], [`SimResult`], [`SimStats`], [`SimError`],
//!   [`TestCase`] and [`OutputImage`]. `rtl` and `vlog` re-export these,
//!   so there is exactly one definition to drift.
//! - [`traits`]: the [`Simulator`] / [`BatchRunner`] pair — a compiled
//!   design that can mint independent per-worker runners, and the runner
//!   that executes one trial at a time while reusing its buffers.
//! - [`grid`]: [`GridExec`], the work-stealing parallel executor that
//!   shards (case × key) trials over worker threads with **one bound
//!   runner per worker**. Results land in slots indexed by trial, so the
//!   output is bit-identical for any worker count. One worker body
//!   serves every entry point; it evaluates each trial panic-isolated (a
//!   dying trial becomes a per-slot [`SimError::WorkerPanic`] cell, never
//!   a poisoned sweep) and checks the executor's [`Budget`] before every
//!   steal.
//! - [`loops`]: [`LoopDetector`], Brent's cycle detection over a run's
//!   full state. Both compiled tapes use it to fast-forward a run that
//!   provably loops (a wrong key that bends a loop bound) to its cycle
//!   budget, exactly, instead of simulating every lap.
//! - [`ctrl`]: the cooperative control plane — [`CancelToken`],
//!   [`Deadline`] and the combined [`Budget`] handle that every
//!   long-running loop (grid, SAT search, DIP attack, DSE) checks to
//!   drain gracefully instead of vanishing.
//! - [`faultpoint`]: the deterministic fault-injection harness — named
//!   sites that are no-ops unless a seeded [`FaultPlan`] is armed on
//!   the governing [`Budget`], injecting panics, stalls and spurious
//!   cancellations under test.
//!
//! ## Example
//!
//! ```
//! use sim_core::{GridExec, SimError, SimOptions, SimStats, TestCase};
//! use sim_core::{BatchRunner, Simulator};
//! use hls_core::KeyBits;
//!
//! /// A toy backend: ret = args[0] + key bit 0, in one cycle.
//! struct Toy;
//! struct ToyRunner;
//! impl Simulator for Toy {
//!     type Runner<'a> = ToyRunner;
//!     fn new_runner(&self) -> ToyRunner { ToyRunner }
//! }
//! impl BatchRunner for ToyRunner {
//!     fn run_case(
//!         &mut self, case: &TestCase, key: &KeyBits, _opts: &SimOptions,
//!     ) -> Result<SimStats, SimError> {
//!         let ret = case.args[0] + key.bit(0) as u64;
//!         Ok(SimStats { ret: Some(ret), cycles: 1, timed_out: false })
//!     }
//!     fn outputs(
//!         &mut self, case: &TestCase, key: &KeyBits, opts: &SimOptions,
//!     ) -> Result<(sim_core::OutputImage, SimStats), SimError> {
//!         let stats = self.run_case(case, key, opts)?;
//!         let ret = stats.ret.map(|v| (v, hls_ir::Type::int(32, false)));
//!         Ok((sim_core::OutputImage { ret, mems: Vec::new() }, stats))
//!     }
//! }
//!
//! let cases = [TestCase::args(&[10]), TestCase::args(&[20])];
//! let keys = [KeyBits::zero(1), KeyBits::from_fn(1, || 1)];
//! let grid = GridExec::default().grid(&Toy, &cases, &keys, &SimOptions::default());
//! assert_eq!(grid[0][0].as_ref().unwrap().ret, Some(10));
//! assert_eq!(grid[1][1].as_ref().unwrap().ret, Some(21));
//! // Deterministic for every worker count.
//! assert_eq!(grid, GridExec::sequential().grid(&Toy, &cases, &keys, &SimOptions::default()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod ctrl;
pub mod faultpoint;
pub mod grid;
pub mod loops;
pub mod traits;
pub mod wave;

pub use contract::{
    images_equal, OutputImage, SimError, SimOptions, SimResult, SimStats, TestCase,
};
pub use ctrl::{Budget, CancelKind, CancelToken, Deadline};
pub use faultpoint::{FaultAction, FaultPlan, FaultSpec};
pub use grid::{GridExec, TrialCell};
pub use loops::LoopDetector;
pub use traits::{BatchRunner, Simulator};
pub use wave::{SignalTrace, Waveform};
