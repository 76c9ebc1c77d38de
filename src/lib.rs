//! # tao-repro — TAO (DAC 2018) reproduction workspace facade
//!
//! A from-scratch reproduction of *TAO: Techniques for Algorithm-level
//! Obfuscation during High-Level Synthesis* (Pilato, Regazzoni, Karri,
//! Garg — DAC 2018), grown into a multi-crate Rust system. This root crate
//! re-exports every workspace layer so downstream users depend on one
//! name:
//!
//! | Crate | Role |
//! |---|---|
//! | [`hls_frontend`] | C-subset front end → IR (paper Fig. 2 "Compiler Steps") |
//! | [`hls_ir`] | IR, optimization passes, interpreter (the golden model) |
//! | [`hls_core`] | Allocation, scheduling, binding, FSMD synthesis |
//! | [`sim_core`] | Shared simulation contract + `Simulator`/`BatchRunner` traits + parallel `GridExec` + `ctrl` control plane (budgets, cancellation, deadlines, fault injection) |
//! | [`rtl`] | Cycle-accurate simulation (tree + compiled tape backends), area/timing, testbenches |
//! | [`vlog`] | Verilog-subset parser + simulators for the emitted text (tree + compiled tape) |
//! | [`tao`] | The three obfuscations, key management, attack analysis, differential verify |
//! | [`tao_crypto`] | Self-contained AES-256 for the NVM key scheme |
//! | [`sat`] | CDCL SAT solver (watched literals, VSIDS, 1-UIP, restarts, assumptions) + Tseitin gate layer |
//! | [`attack_sat`] | SAT-based oracle-guided key recovery: netlist bit-blasting + the DIP loop |
//! | [`benchmarks`] | The five paper kernels + seeded stimuli |
//! | [`hls_dse`] | Parallel design-space exploration + Pareto extraction (optional SAT-effort sign-off) |
//! | [`obs`] | Zero-cost structured telemetry: spans, metrics, Chrome-trace export |
//!
//! ## Quick start
//!
//! ```
//! use tao_repro::hls_core::KeyBits;
//! use tao_repro::rtl::{golden_outputs, images_equal, rtl_outputs, SimOptions, TestCase};
//! use tao_repro::tao::{lock, TaoOptions};
//!
//! let m = tao_repro::hls_frontend::compile(
//!     "int mac(int a, int b, int c) { return a * b + c; }", "demo")?;
//! let locking = KeyBits::from_fn(256, || 42);
//! let design = lock(&m, "mac", &locking, &TaoOptions::default())?;
//! let wk = design.working_key(&locking);
//! let case = TestCase::args(&[3, 4, 5]);
//! let golden = golden_outputs(&design.module, "mac", &case);
//! let (img, _) = rtl_outputs(&design.fsmd, &case, &wk, &SimOptions::default())?;
//! assert!(images_equal(&golden, &img));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Design-space exploration
//!
//! ```
//! use tao_repro::hls_dse::{explore, ConfigSpace, DseOptions, Kernel};
//!
//! let kernels = vec![Kernel::new(
//!     "inc", "int inc(int x) { return x + 1; }", "inc", vec![41])];
//! let report = explore(&kernels, &ConfigSpace::smoke(), &DseOptions::default())?;
//! assert!(!report.pareto.is_empty());
//! # Ok::<(), tao_repro::hls_dse::DseError>(())
//! ```
//!
//! ## Executing the emitted Verilog
//!
//! The emitted text — the foundry-visible artifact — is executable: the
//! [`vlog`] crate parses and simulates it on the same interface as the
//! FSMD simulator, and `tao::verify` runs the three-way differential
//! oracle (interpreter vs FSMD vs Verilog text) the `reproduce --
//! vlog-diff` experiment drives over the whole suite.
//!
//! ```
//! use tao_repro::hls_core::{self, KeyBits};
//! use tao_repro::rtl::SimOptions;
//! use tao_repro::vlog::VlogSim;
//!
//! let m = tao_repro::hls_frontend::compile("int sq(int x) { return x * x; }", "d")?;
//! let fsmd = hls_core::synthesize(&m, "sq", &hls_core::HlsOptions::default())?;
//! let sim = VlogSim::new(&hls_core::verilog::emit(&fsmd))?;
//! let vr = sim.simulate(&[9], &KeyBits::zero(0), &[], &SimOptions::default())?;
//! let rr = tao_repro::rtl::simulate(&fsmd, &[9], &KeyBits::zero(0), &[], &SimOptions::default())?;
//! assert_eq!(vr, rr); // bit-for-bit, cycle-for-cycle
//! assert_eq!(vr.ret, Some(81));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Compiled (tape) backends and the batch API
//!
//! Both simulators also compile to linear op-tapes for the hot loops
//! that run one design under many stimuli and keys (testbenches,
//! corruptibility sweeps, attacks, DSE sign-off). The tape backends are
//! bit-for-bit and cycle-for-cycle identical to the tree interpreters —
//! errors and `CycleLimit` snapshots included — and expose batch
//! runners that reuse every buffer across runs: compile once, then
//! [`rtl::FsmdRunner::run_case`] / [`vlog::TapeRunner::run_case`] (or
//! a [`sim_core::GridExec::grid`] over the compiled design) per trial.
//!
//! ```
//! use tao_repro::hls_core::{self, KeyBits};
//! use tao_repro::rtl::{CompiledFsmd, SimOptions};
//! use tao_repro::vlog::VlogTape;
//!
//! let m = tao_repro::hls_frontend::compile("int sq(int x) { return x * x; }", "d")?;
//! let fsmd = hls_core::synthesize(&m, "sq", &hls_core::HlsOptions::default())?;
//! let ctape = CompiledFsmd::compile(&fsmd);
//! let vtape = VlogTape::new(&hls_core::verilog::emit(&fsmd))?;
//! let (mut frun, mut vrun) = (ctape.runner(), vtape.runner());
//! for x in [3u64, 9, 12] {
//!     let f = frun.run(&[x], &KeyBits::zero(0), &[], &SimOptions::default())?;
//!     let v = vrun.run(&[x], &KeyBits::zero(0), &[], &SimOptions::default())?;
//!     assert_eq!(f, v);
//!     assert_eq!(f.ret, Some(x * x));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The cycle budget binds the tape as it binds the tree interpreter: a
//! run that outlives `max_cycles` fails with the same
//! [`rtl::SimError::CycleLimit`], or, under `snapshot_on_timeout`,
//! returns the same register and memory snapshot:
//!
//! ```
//! use tao_repro::hls_core::{self, KeyBits};
//! use tao_repro::rtl::{CompiledFsmd, SimError, SimOptions};
//!
//! let src = "int sum(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + i; return s; }";
//! let m = tao_repro::hls_frontend::compile(src, "d")?;
//! let fsmd = hls_core::synthesize(&m, "sum", &hls_core::HlsOptions::default())?;
//! let ctape = CompiledFsmd::compile(&fsmd);
//! let k = KeyBits::zero(0);
//! let tight = SimOptions { max_cycles: 20, snapshot_on_timeout: false };
//! assert_eq!(ctape.simulate(&[1000], &k, &[], &tight), Err(SimError::CycleLimit));
//! assert_eq!(tao_repro::rtl::simulate(&fsmd, &[1000], &k, &[], &tight), Err(SimError::CycleLimit));
//! let snap = SimOptions { snapshot_on_timeout: true, ..tight };
//! let s = ctape.simulate(&[1000], &k, &[], &snap)?;
//! assert!(s.timed_out);
//! assert_eq!(s.cycles, 20);
//! assert_eq!(s, tao_repro::rtl::simulate(&fsmd, &[1000], &k, &[], &snap)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## SAT-based oracle-guided key recovery
//!
//! The [`sat`] crate is a self-contained CDCL solver; [`attack_sat`]
//! Tseitin-encodes the **emitted Verilog netlist** over a bounded
//! k-cycle unrolling and runs the distinguishing-input (DIP) loop of
//! the canonical SAT attack. [`tao::sat_attack_design`] wires it to a
//! locked design with the FSMD tape as the oracle and verifies the
//! recovered key against the truth:
//!
//! ```
//! use tao_repro::hls_core::KeyBits;
//! use tao_repro::rtl::TestCase;
//! use tao_repro::tao::{lock, sat_attack_design, PlanConfig, SatAttackConfig, TaoOptions};
//!
//! let m = tao_repro::hls_frontend::compile(
//!     "int f(int a, int b) { int r = a ^ 9; if (r > b) r = r + b; return r; }", "d")?;
//! let locking = KeyBits::from_fn(256, || 0x5eed_cafe_f00d_1234);
//! let opts = TaoOptions {
//!     plan: PlanConfig { dfg_variants: false, ..PlanConfig::default() },
//!     ..TaoOptions::default()
//! };
//! let design = lock(&m, "f", &locking, &opts)?;
//! let wk = design.working_key(&locking);
//!
//! // The attacker holds the netlist and a black-box activated chip;
//! // the DIP loop collapses the key space to the working key.
//! let cases = [TestCase::args(&[5, 3]), TestCase::args(&[3, 5])];
//! let attack = sat_attack_design(&design, &wk, &cases, &SatAttackConfig::default())?;
//! assert!(attack.recovered());
//! assert!(attack.key_functional);
//! assert_eq!(attack.outcome.key.as_ref(), Some(&wk));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! One solver with one fixed search configuration runs the whole loop,
//! so without a wall-clock deadline an attack's DIPs, conflicts and
//! recovered key are the same on every run:
//!
//! ```
//! use tao_repro::hls_core::KeyBits;
//! use tao_repro::rtl::TestCase;
//! use tao_repro::tao::{lock, sat_attack_design, PlanConfig, SatAttackConfig, TaoOptions};
//!
//! let m = tao_repro::hls_frontend::compile(
//!     "int f(int a, int b) { int r = a ^ 9; if (r > b) r = r + b; return r; }", "d")?;
//! let locking = KeyBits::from_fn(256, || 0x5eed_cafe_f00d_1234);
//! let opts = TaoOptions {
//!     plan: PlanConfig { dfg_variants: false, ..PlanConfig::default() },
//!     ..TaoOptions::default()
//! };
//! let design = lock(&m, "f", &locking, &opts)?;
//! let wk = design.working_key(&locking);
//! let cases = [TestCase::args(&[5, 3]), TestCase::args(&[3, 5])];
//!
//! let first = sat_attack_design(&design, &wk, &cases, &SatAttackConfig::default())?.outcome;
//! let again = sat_attack_design(&design, &wk, &cases, &SatAttackConfig::default())?.outcome;
//! assert_eq!(first.status, again.status);
//! assert_eq!(first.key, again.key);
//! assert_eq!((first.dips, first.conflicts), (again.dips, again.conflicts));
//! assert_eq!((first.propagations, first.clauses), (again.propagations, again.clauses));
//! assert_eq!(first.constraints, again.constraints, "same DIPs in the same order");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## The shared simulation layer and the parallel grid executor
//!
//! Every backend speaks the [`sim_core`] contract: the types above
//! (`SimOptions`, `SimResult`, `SimStats`, `SimError`, `TestCase`,
//! `OutputImage`) have exactly one definition, re-exported by [`rtl`]
//! and [`vlog`]. On top of it, the [`sim_core::Simulator`] /
//! [`sim_core::BatchRunner`] trait pair abstracts "a compiled design
//! that mints per-worker runners", and [`sim_core::GridExec`] shards a
//! (case × key) grid over work-stealing worker threads — one bound
//! runner per worker, results in deterministic trial order for **any**
//! worker count. Corruptibility sweeps, differential verification,
//! oracle-guided attacks, DSE sign-off and the `vlog-diff` experiment
//! all run through it.
//!
//! ```
//! use tao_repro::hls_core::{self, KeyBits};
//! use tao_repro::rtl::{CompiledFsmd, SimOptions, TestCase};
//! use tao_repro::sim_core::GridExec;
//!
//! let m = tao_repro::hls_frontend::compile("int sq(int x) { return x * x; }", "d")?;
//! let fsmd = hls_core::synthesize(&m, "sq", &hls_core::HlsOptions::default())?;
//! let ctape = CompiledFsmd::compile(&fsmd);
//! let cases: Vec<TestCase> = (1u64..=4).map(|x| TestCase::args(&[x])).collect();
//! let keys = [KeyBits::zero(0)];
//!
//! // All cores, one runner per worker — same grid, any worker count.
//! let par = GridExec::default().grid(&ctape, &cases, &keys, &SimOptions::default());
//! assert_eq!(par, GridExec::sequential().grid(&ctape, &cases, &keys, &SimOptions::default()));
//! assert_eq!(par[0][3].as_ref().unwrap().ret, Some(16));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Robustness: budgets, cancellation, and panic isolation
//!
//! Every long-running loop — grid sweeps, the CDCL solver, the DIP
//! attack, the DSE engine — is governed by a [`sim_core::Budget`]: a
//! cooperative [`sim_core::CancelToken`] plus an optional wall-clock
//! deadline, checked at loop boundaries. Cancelled work degrades to a
//! consistent partial result instead of vanishing: the grid finishes
//! its in-flight chunk and marks the tail [`sim_core::SimError::Cancelled`],
//! the attack hands back its DIPs/constraints/best-key so far, and DSE
//! returns the Pareto front over the points it completed. A worker
//! panic is caught per trial and surfaces as
//! [`sim_core::SimError::WorkerPanic`] in that slot only — every other
//! slot stays bit-identical to a fault-free run at any worker count
//! (the `chaos-smoke` CI gate and `tests/prop_faults.rs` enforce this
//! under deterministic fault injection via [`sim_core::FaultPlan`]).
//!
//! Cancelling a grid sweep from another thread:
//!
//! ```
//! use tao_repro::hls_core::{self, KeyBits};
//! use tao_repro::rtl::{CompiledFsmd, SimError, SimOptions, TestCase};
//! use tao_repro::sim_core::{Budget, GridExec};
//!
//! let m = tao_repro::hls_frontend::compile("int sq(int x) { return x * x; }", "d")?;
//! let fsmd = hls_core::synthesize(&m, "sq", &hls_core::HlsOptions::default())?;
//! let ctape = CompiledFsmd::compile(&fsmd);
//! let cases: Vec<TestCase> = (1u64..=4).map(|x| TestCase::args(&[x])).collect();
//! let keys: Vec<KeyBits> = (0..3).map(|_| KeyBits::zero(0)).collect();
//!
//! let budget = Budget::unlimited();
//! let token = budget.token().clone(); // hand this to a watchdog thread…
//! token.cancel();                     // …which decides to pull the plug
//!
//! // The executor carries the budget. The sweep drains gracefully:
//! // every slot still reports, as Cancelled.
//! let exec = GridExec::new(2).with_budget(budget);
//! let rows = exec.grid(&ctape, &cases, &keys, &SimOptions::default());
//! assert_eq!(rows.len(), keys.len());
//! assert!(rows.iter().flatten().all(|r| matches!(r, Err(SimError::Cancelled))));
//!
//! // An unlimited budget is the plain grid, bit for bit.
//! let full = GridExec::new(2).with_budget(Budget::unlimited());
//! assert_eq!(
//!     full.grid(&ctape, &cases, &keys, &SimOptions::default()),
//!     GridExec::new(2).grid(&ctape, &cases, &keys, &SimOptions::default())
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Deadlines compose the same way (`Budget::unlimited()
//! .with_deadline_after(dur)`). The grid executor takes its budget
//! through [`sim_core::GridExec::with_budget`] (so
//! [`tao::verify::differential_verify_on`] runs under its executor's),
//! and [`tao::SatAttackConfig`], [`attack_sat::SatAttackOptions`] and
//! [`hls_dse::DseOptions`] all carry a `budget` field that forwards into
//! their inner loops.
//!
//! ## Observability
//!
//! The [`obs`] crate threads zero-cost structured telemetry through the
//! heavy subsystems: hand any of [`sim_core::GridExec`],
//! [`tao::SatAttackConfig`], [`attack_sat::SatAttackOptions`] or
//! [`hls_dse::DseOptions`] an enabled [`obs::Obs`] and the run records
//! RAII spans (per-worker steal/idle accounting, per-DIP solver effort,
//! per-phase DSE throughput), counters and log-linear latency
//! histograms into a pluggable sink — including a Chrome `trace.json`
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>. The
//! default handle is disabled and costs one never-taken branch;
//! disabled runs are bit-identical to uninstrumented ones.
//!
//! ```
//! use std::sync::Arc;
//! use tao_repro::hls_core::{self, KeyBits};
//! use tao_repro::obs::{ChromeTraceSink, Obs};
//! use tao_repro::rtl::{CompiledFsmd, SimOptions, TestCase};
//! use tao_repro::sim_core::GridExec;
//!
//! let m = tao_repro::hls_frontend::compile("int sq(int x) { return x * x; }", "d")?;
//! let fsmd = hls_core::synthesize(&m, "sq", &hls_core::HlsOptions::default())?;
//! let ctape = CompiledFsmd::compile(&fsmd);
//! let cases: Vec<TestCase> = (1u64..=4).map(|x| TestCase::args(&[x])).collect();
//! let keys = [KeyBits::zero(0)];
//!
//! let sink = Arc::new(ChromeTraceSink::new());
//! let obs = Obs::new(Arc::clone(&sink));
//! let grid = GridExec::default().with_obs(obs.clone());
//! let traced = grid.grid(&ctape, &cases, &keys, &SimOptions::default());
//! // Telemetry never changes results…
//! assert_eq!(traced, GridExec::default().grid(&ctape, &cases, &keys, &SimOptions::default()));
//! // …and the run left a span trail plus a trial counter behind.
//! assert!(sink.to_json().contains("grid.run"));
//! assert_eq!(obs.counter("grid.trials").get(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Trace intelligence
//!
//! Recording a trace is half the story; [`obs::analyze`] consumes it.
//! It reconstructs the span forest from a Chrome `trace.json`, then
//! answers the profiling questions directly: per-phase wall-clock
//! attribution (self vs total), the critical path (greedy longest
//! root-to-leaf chain), per-worker utilization from `grid.worker`
//! spans, and flamegraph exports (collapsed stacks + self-contained
//! SVG). [`obs::progress`] covers the *live* side: a lock-free
//! [`obs::ProgressTracker`] (done/total/phase/ETA) threaded through the
//! grid, the SAT attacks and the DSE sweep, with the same
//! disabled-by-default zero-cost discipline as [`obs::Obs`].
//!
//! ```
//! use std::sync::Arc;
//! use tao_repro::hls_core::{self, KeyBits};
//! use tao_repro::obs::analyze::{attribution, critical_path, parse_trace};
//! use tao_repro::obs::{ChromeTraceSink, Obs};
//! use tao_repro::rtl::{CompiledFsmd, SimOptions, TestCase};
//! use tao_repro::sim_core::GridExec;
//!
//! let m = tao_repro::hls_frontend::compile("int sq(int x) { return x * x; }", "d")?;
//! let fsmd = hls_core::synthesize(&m, "sq", &hls_core::HlsOptions::default())?;
//! let ctape = CompiledFsmd::compile(&fsmd);
//! let cases: Vec<TestCase> = (1u64..=4).map(|x| TestCase::args(&[x])).collect();
//! let keys = [KeyBits::zero(0)];
//!
//! let sink = Arc::new(ChromeTraceSink::new());
//! let obs = Obs::new(Arc::clone(&sink));
//! GridExec::default().with_obs(obs).grid(&ctape, &cases, &keys, &SimOptions::default());
//!
//! // Parse the recorded trace back and attribute the wall-clock.
//! let trace = parse_trace(&sink.to_json())?;
//! let stats = attribution(&trace);
//! assert!(stats.iter().any(|s| s.name == "grid.run"));
//! // Self time never exceeds total time, and the critical path starts
//! // at the longest root span.
//! assert!(stats.iter().all(|s| s.self_ns <= s.total_ns));
//! assert!(!critical_path(&trace).is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use attack_sat;
pub use benchmarks;
pub use hls_core;
pub use hls_dse;
pub use hls_frontend;
pub use hls_ir;
pub use obs;
pub use rtl;
pub use sat;
pub use sim_core;
pub use tao;
pub use tao_crypto;
pub use vlog;
