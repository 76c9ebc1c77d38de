//! Compiled simulation of a parsed module: the linear op-tape backend.
//!
//! [`crate::VlogSim`] interprets the compiled expression *tree* — every
//! cycle it recurses through `Box`ed [`CExpr`] nodes, re-deriving each
//! operator's context width and signedness, and re-evaluates every wire
//! on demand at every read. That is the dominant cost of the paper's
//! evaluation loops (extended testbenches, corruptibility sweeps,
//! oracle-guided attacks), which run the same module over many stimuli
//! and keys.
//!
//! [`VlogTape`] compiles the elaborated module once more, into a flat
//! program over a single **unified value array** `V = [signal values |
//! wire slots | scratch frame | constant pool]`:
//!
//! - **direct operands** — signal reads and (folded) constants are plain
//!   indices into `V`, not ops: `r1 <= r1 + r0` is *one* tape op, with
//!   every context width, signedness and mask resolved at compile time;
//! - **commit tagging** — the final op of a nonblocking assignment
//!   carries the target signal in its destination field (tag bit set),
//!   so committing costs no extra op;
//! - **lazy levelized wires** — the continuous-assign graph is
//!   topologically sorted at compile time; each wire evaluates at most
//!   once per cycle, and only when an executed op actually reads it.
//!   Wires whose transitive inputs are run-stable (the working key and
//!   the argument ports — TAO's decrypt-constant nets all qualify)
//!   evaluate **once per run**;
//! - **cached key dispatch** — `case` statements over run-stable
//!   subjects (TAO's variant selects on working-key slices) resolve
//!   their jump target once per run and replay it from a cache;
//! - **batch execution** — [`TapeRunner`] reuses every buffer across
//!   stimuli and keys, and returns [`SimStats`] without cloning memory
//!   images;
//! - **loop fast-forward** — [`TapeRunner::run`] snapshots the run's
//!   state (every signal value and every memory the module writes) on
//!   Brent's schedule with a [`LoopDetector`]. When the state recurs
//!   before `done` rises, the run repeats that lap until its budget, so
//!   the runner returns `CycleLimit` at once, or, with
//!   `snapshot_on_timeout`, skips the whole laps that fit and simulates
//!   only the remainder. Wires need no snapshot: they are recomputed
//!   every cycle, and run-stable wires and switch caches are constant
//!   within a run. The filter word compared after every edge is the
//!   `state` register that `hls_core::verilog::emit` declares; a text
//!   without a `state` register filters on `done`, which is low on every
//!   cycle the check runs, so each cycle takes the full comparison:
//!   slower, and still exact. [`TapeRunner::run_traced`] never
//!   fast-forwards, so its observer sees every cycle.
//!
//! The backend is bit-for-bit and cycle-for-cycle identical to the tree
//! interpreter — including `CycleLimit`, snapshot and interface-error
//! behaviour — which `tests/prop_vlog.rs` enforces on random kernels ×
//! stimuli × keys, wrong keys that loop and mutated texts included.

use crate::ast;
use crate::sim::{extend, mask, to_signed, CExpr, CStmt, SigKind, VlogError, VlogSim};
use hls_core::KeyBits;
use sim_core::{LoopDetector, OutputImage, SimError, SimOptions, SimResult, SimStats, TestCase};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

fn err<T>(msg: impl Into<String>) -> Result<T, VlogError> {
    Err(VlogError { msg: msg.into() })
}

/// Destination tag: the op's value is pushed onto the nonblocking update
/// list for signal `dst & !COMMIT` instead of written to `V[dst]`.
const COMMIT: u32 = 1 << 31;
/// Provisional address space for constant-pool operands, relocated to
/// the end of the value array once the scratch frame size is known.
const POOL_BASE: u32 = 1 << 30;

// ------------------------------------------------------------------- ops

/// Opcodes of the linear tape. Operand fields `a`/`b`/`imm` index the
/// unified value array `V`, carry a pre-computed context mask, or hold a
/// jump target — per opcode, as documented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Code {
    /// `v = V[a] & imm`.
    Copy,
    /// `v = bit V[a] of V[b]` (`imm` = source width; out of range reads 0).
    SelBit,
    /// `v = bit V[a] of the wide key words`.
    SelBitWide,
    /// `v = mems[b][V[a]] & imm` (out of range reads 0).
    LdMem,
    /// `v = (V[b] >> a) & imm`.
    Part,
    /// `v = wide key bits starting at `a`, & imm`.
    PartWide,
    /// Freshen wire `b` (lazy levelized evaluation); no value.
    Ensure,
    /// `v = !V[a] & imm`.
    Not,
    /// `v = -V[a] & imm`.
    Neg,
    /// `v = (V[a] == 0)`.
    LogNot,
    /// `v = (V[a] + V[b]) & imm` (and so on for the arithmetic group).
    Add,
    Sub,
    Mul,
    /// Unsigned division; division by zero yields `imm` (the all-ones
    /// context mask), matching the tree backend.
    DivU,
    /// Signed division at the width encoded by `imm`.
    DivS,
    /// Unsigned remainder; remainder by zero yields the dividend.
    RemU,
    /// Signed remainder at the width encoded by `imm`.
    RemS,
    And,
    Or,
    Xor,
    /// `v = (V[a] << V[b]) & imm` (shift ≥ 64 yields 0).
    Shl,
    /// `v = V[a] >> V[b]` (shift ≥ 64 yields 0).
    ShrU,
    /// Arithmetic right shift at the width encoded by `imm`.
    ShrS,
    CmpEq,
    CmpNe,
    CmpLtU,
    CmpLeU,
    CmpGtU,
    CmpGeU,
    /// Signed comparisons at the width encoded by `imm`.
    CmpLtS,
    CmpLeS,
    CmpGtS,
    CmpGeS,
    LAnd,
    LOr,
    /// Fused compare-and-branch: evaluate like the base comparison,
    /// then consume the following (position-preserved) `JmpZ`, jumping
    /// to its target when the result is 0.
    FCmpEq,
    FCmpNe,
    FCmpLtU,
    FCmpLeU,
    FCmpGtU,
    FCmpGeU,
    FCmpLtS,
    FCmpLeS,
    FCmpGtS,
    FCmpGeS,
    FLAnd,
    FLOr,
    /// `v = V[a] != 0 ? V[b] : V[imm]`.
    Sel,
    /// `v = sign-extend(V[a] from b bits) & imm`.
    SExt,
    /// `v = (V[a] << b) | V[imm]` (concat/repeat step).
    ShlOr,
    /// `pc = imm`.
    Jmp,
    /// `if V[a] == 0 { pc = imm }`.
    JmpZ,
    /// Run-cached dispatch: if `cache[b]` is valid, jump there; else
    /// fall through to the subject evaluation + storing switch.
    JmpCached,
    /// Dense jump table `b` on subject `V[a]`.
    SwitchDense,
    /// Dense jump table `b`, storing the resolved target in `cache[imm]`.
    SwitchDenseStore,
    /// Sparse (binary-searched) jump table `b` on subject `V[a]`.
    SwitchSparse,
    /// Sparse jump table `b`, storing the target in `cache[imm]`.
    SwitchSparseStore,
    /// Fused run of `b` consecutive commit-`Copy` ops (this one and the
    /// `b - 1` that follow): one dispatch pushes all of them. The
    /// following ops stay in place as plain `Copy`s so jumps into the
    /// middle of the run still execute correctly.
    CopyBlock,
    /// Nonblocking memory commit: `mems[b][V[a]] = V[imm]` (skipped when
    /// the index is out of range).
    SetMem,
    /// End of segment.
    End,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    code: Code,
    dst: u32,
    a: u32,
    b: u32,
    imm: u64,
}

#[derive(Debug, Clone)]
struct DenseTable {
    base: u64,
    targets: Vec<u32>,
    default: u32,
}

#[derive(Debug, Clone)]
struct SparseTable {
    entries: Vec<(u64, u32)>,
    default: u32,
}

#[derive(Debug, Clone)]
struct TapeMem {
    name: String,
    elem_width: u32,
    len: usize,
    external: bool,
    written: bool,
}

// ------------------------------------------------------------------ tape

/// A module compiled to the linear op-tape backend. Construction
/// levelizes the wire graph, folds constants into a pool, and lowers
/// every expression and statement with widths and signedness resolved;
/// [`VlogTape::simulate`] and [`TapeRunner`] then execute the flat
/// program with no recursion and no per-cycle allocation.
#[derive(Debug, Clone)]
pub struct VlogTape {
    name: String,
    /// Arena of per-wire evaluation segments (each `End`-terminated).
    wire_ops: Vec<Op>,
    /// `(start, end)` span into `wire_ops`, indexed by signal id
    /// (meaningful for wire-kind signals only).
    wire_span: Vec<(u32, u32)>,
    /// Arena of per-wire transitive dependency closures in topological
    /// order (the wire itself last).
    closures: Vec<u32>,
    /// `(start, end)` span into `closures`, indexed by signal id.
    closure_of: Vec<(u32, u32)>,
    /// Wires whose transitive dependencies are only run-stable inputs
    /// (the working key and the argument ports), in topological order:
    /// evaluated once at the start of every run instead of once per
    /// cycle (TAO's decrypt-constant nets all land here).
    run_const_wires: Vec<u32>,
    body_seg: Vec<Op>,
    dense: Vec<DenseTable>,
    sparse: Vec<SparseTable>,
    /// Folded constants, loaded into the tail of the value array.
    pool: Vec<u64>,
    /// Start of the pool region (= total frame size without the pool).
    pool_base: u32,
    /// Number of run-cached switch dispatch slots.
    n_caches: u32,
    n_sigs: usize,
    mems: Vec<TapeMem>,
    init: Vec<(usize, usize, u64)>,
    rst: usize,
    start: usize,
    args: Vec<(usize, u64)>,
    /// `(sig id, declared width)`; widths > 64 route through the wide
    /// key words.
    key: Option<(usize, u32)>,
    /// `(sig id, is_wire)` of the `ret` port.
    ret: Option<(usize, bool)>,
    /// Declared width of the `ret` port (0 when absent).
    ret_width: u32,
    done: usize,
    /// Signal whose value is the loop detector's filter word: the `state`
    /// register, or `done` in a text that declares no `state` (see the
    /// module docs).
    filter: usize,
    reg_ids: Vec<usize>,
    /// Declared width of each datapath register (`r{i}` in index order;
    /// 1 for indices the module never declared).
    reg_widths: Vec<u32>,
}

impl VlogTape {
    /// Parses, elaborates and tape-compiles Verilog text.
    ///
    /// # Errors
    ///
    /// Returns [`VlogError`] on parse/elaboration failures or a
    /// combinational loop in the continuous assigns.
    pub fn new(text: &str) -> Result<VlogTape, VlogError> {
        VlogTape::compile(&VlogSim::new(text)?)
    }

    /// Compiles an elaborated module into the tape form.
    ///
    /// # Errors
    ///
    /// Returns [`VlogError`] when the continuous-assign graph has a
    /// combinational loop (the tree backend would recurse forever on
    /// such a net, so the emitted subset never contains one).
    pub fn compile(sim: &VlogSim) -> Result<VlogTape, VlogError> {
        TapeCompiler::compile(sim)
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar argument ports.
    pub fn num_args(&self) -> usize {
        self.args.len()
    }

    /// Declared working-key width (0 when the design has no key port).
    pub fn key_width(&self) -> u32 {
        self.key.map(|(_, w)| w).unwrap_or(0)
    }

    /// Declared width of each datapath register (`r{i}` in index order).
    pub fn reg_widths(&self) -> &[u32] {
        &self.reg_widths
    }

    /// A fresh batch runner borrowing this tape.
    pub fn runner(&self) -> TapeRunner<'_> {
        let mut v = vec![0u64; self.pool_base as usize + self.pool.len()];
        v[self.pool_base as usize..].copy_from_slice(&self.pool);
        TapeRunner {
            t: self,
            v,
            mems: self.mems.iter().map(|m| vec![0u64; m.len]).collect(),
            key_words: Vec::new(),
            upd_sigs: Vec::new(),
            upd_mems: Vec::new(),
            wstamp: vec![0; self.n_sigs],
            stamp: 0,
            switch_cache: vec![u32::MAX; self.n_caches as usize],
            det: LoopDetector::default(),
        }
    }

    /// One-shot run mirroring [`VlogSim::simulate`] exactly (same
    /// results, same errors), on the compiled backend.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interface mismatches or an exhausted
    /// cycle budget (unless `opts.snapshot_on_timeout`).
    pub fn simulate(
        &self,
        args: &[u64],
        key: &KeyBits,
        mem_overrides: &[(usize, Vec<u64>)],
        opts: &SimOptions,
    ) -> Result<SimResult, SimError> {
        let mut runner = self.runner();
        let borrowed: Vec<(usize, &[u64])> =
            mem_overrides.iter().map(|(i, d)| (*i, d.as_slice())).collect();
        let stats = runner.run(args, key, &borrowed, opts)?;
        Ok(SimResult {
            ret: stats.ret,
            cycles: stats.cycles,
            regs: runner.regs(),
            mems: runner.mems,
            timed_out: stats.timed_out,
        })
    }

    /// Binds this tape to a design's `ArrayId → MemIdx` map, yielding a
    /// [`GridTape`] that implements the shared [`sim_core::Simulator`]
    /// contract. The map is the missing half of the grid interface: test
    /// cases name their input arrays by IR id, and only the synthesized
    /// design knows which emitted memory each id landed in.
    pub fn with_mems<'a>(
        &'a self,
        mem_of_array: &'a BTreeMap<hls_ir::ArrayId, hls_core::MemIdx>,
    ) -> GridTape<'a> {
        GridTape { tape: self, mem_of_array }
    }
}

/// A [`VlogTape`] bound to a design's array-to-memory map — the form in
/// which the Verilog backend enters the shared [`sim_core`] grid
/// machinery ([`sim_core::GridExec::grid`]). Create with
/// [`VlogTape::with_mems`].
#[derive(Debug, Clone, Copy)]
pub struct GridTape<'a> {
    tape: &'a VlogTape,
    mem_of_array: &'a BTreeMap<hls_ir::ArrayId, hls_core::MemIdx>,
}

impl sim_core::Simulator for GridTape<'_> {
    type Runner<'a>
        = GridRunner<'a>
    where
        Self: 'a;

    fn new_runner(&self) -> GridRunner<'_> {
        GridRunner { runner: self.tape.runner(), mem_of_array: self.mem_of_array }
    }
}

/// A [`TapeRunner`] carrying its design's array-to-memory map, so it can
/// resolve [`TestCase`] inputs on its own — the [`sim_core::BatchRunner`]
/// half of [`GridTape`].
#[derive(Debug, Clone)]
pub struct GridRunner<'a> {
    runner: TapeRunner<'a>,
    mem_of_array: &'a BTreeMap<hls_ir::ArrayId, hls_core::MemIdx>,
}

impl<'a> GridRunner<'a> {
    /// The underlying tape runner (final memory images, register values,
    /// output assembly).
    pub fn inner(&mut self) -> &mut TapeRunner<'a> {
        &mut self.runner
    }
}

impl sim_core::BatchRunner for GridRunner<'_> {
    fn run_case(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<SimStats, SimError> {
        self.runner.run_case(case, key, opts, self.mem_of_array)
    }

    fn outputs(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<(OutputImage, SimStats), SimError> {
        self.runner.outputs(case, key, opts, self.mem_of_array)
    }
}

// ---------------------------------------------------------------- runner

/// The images of the memories the module writes, in declaration order.
fn written_mems<'a>(t: &'a VlogTape, mems: &'a [Vec<u64>]) -> impl Iterator<Item = &'a [u64]> {
    mems.iter().zip(&t.mems).filter(|(_, m)| m.written).map(|(d, _)| d.as_slice())
}

/// Reusable execution state for a [`VlogTape`]: the unified value array,
/// the memory images, the wire stamps and the dispatch caches, all
/// allocated once and reused across runs — the batch half of the
/// compiled backend.
#[derive(Debug, Clone)]
pub struct TapeRunner<'a> {
    t: &'a VlogTape,
    /// `[signal values | wire slots | scratch | constant pool]`.
    v: Vec<u64>,
    mems: Vec<Vec<u64>>,
    key_words: Vec<u64>,
    upd_sigs: Vec<(u32, u64)>,
    upd_mems: Vec<(u32, u32, u64)>,
    /// Per-wire "evaluated at stamp" markers driving the lazy wire
    /// evaluation (a wire is computed at most once per cycle, and only
    /// when some executed op actually reads it; run-constant wires are
    /// pinned at `u64::MAX`).
    wstamp: Vec<u64>,
    stamp: u64,
    /// Resolved targets of run-cached switches (`u32::MAX` = invalid).
    switch_cache: Vec<u32>,
    /// Brent's snapshots of the untraced run path (see [`sim_core::loops`]).
    det: LoopDetector,
}

impl TapeRunner<'_> {
    /// Runs one stimulus, mirroring [`VlogSim::simulate`] bit for bit
    /// and cycle for cycle. Memory overrides borrow their contents; read
    /// the final images through [`TapeRunner::mems`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interface mismatches or an exhausted
    /// cycle budget (unless `opts.snapshot_on_timeout`).
    pub fn run(
        &mut self,
        args: &[u64],
        key: &KeyBits,
        mem_overrides: &[(usize, &[u64])],
        opts: &SimOptions,
    ) -> Result<SimStats, SimError> {
        self.run_inner::<false, _>(args, key, mem_overrides, opts, |_, _, _| {})
    }

    /// Runs one stimulus while reporting the post-edge register file to
    /// `observe` after every counted cycle, mirroring
    /// `rtl::FsmdRunner::run_traced`. The observer receives the 1-based
    /// cycle number, the datapath registers (`r{i}` in index order) and
    /// the done flag; cycles cut by the budget are never reported. The
    /// untraced [`TapeRunner::run`] monomorphizes the same loop with the
    /// observer compiled out, so tracing costs nothing when unused, and
    /// the loop detector compiled in. This path never fast-forwards a run
    /// that loops, so the observer sees every cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interface mismatches or an exhausted
    /// cycle budget (unless `opts.snapshot_on_timeout`).
    pub fn run_traced<F: FnMut(u64, &[u64], bool)>(
        &mut self,
        args: &[u64],
        key: &KeyBits,
        mem_overrides: &[(usize, &[u64])],
        opts: &SimOptions,
        observe: F,
    ) -> Result<SimStats, SimError> {
        self.run_inner::<true, _>(args, key, mem_overrides, opts, observe)
    }

    fn run_inner<const TRACED: bool, F: FnMut(u64, &[u64], bool)>(
        &mut self,
        args: &[u64],
        key: &KeyBits,
        mem_overrides: &[(usize, &[u64])],
        opts: &SimOptions,
        mut observe: F,
    ) -> Result<SimStats, SimError> {
        let t = self.t;
        if args.len() != t.args.len() {
            return Err(SimError::ArityMismatch { expected: t.args.len(), got: args.len() });
        }
        if key.width() != t.key_width() {
            return Err(SimError::KeyWidthMismatch { expected: t.key_width(), got: key.width() });
        }

        // Reset signal and wire values (scratch and pool keep), stamps,
        // caches; then memory init images and testbench overrides.
        self.v[..2 * t.n_sigs].iter_mut().for_each(|x| *x = 0);
        self.wstamp.iter_mut().for_each(|x| *x = 0);
        self.stamp = 0;
        self.switch_cache.iter_mut().for_each(|x| *x = u32::MAX);
        for data in &mut self.mems {
            data.iter_mut().for_each(|x| *x = 0);
        }
        for &(m, i, val) in &t.init {
            self.mems[m][i] = val;
        }
        for (idx, contents) in mem_overrides {
            let (len, w) = (t.mems[*idx].len, t.mems[*idx].elem_width);
            let data = &mut self.mems[*idx];
            for (i, val) in contents.iter().enumerate().take(len) {
                data[i] = *val & mask(w);
            }
        }
        // Drive input ports.
        for (&(sig, m), &val) in t.args.iter().zip(args) {
            self.v[sig] = val & m;
        }
        self.key_words.clear();
        if let Some((sig, w)) = t.key {
            if w > 64 {
                self.key_words.extend_from_slice(key.words());
            } else {
                self.v[sig] = key.words().first().copied().unwrap_or(0) & mask(w);
            }
        }

        // Run-stable wires: evaluate once per run in topological order
        // and mark fresh for the rest of it (the key and the argument
        // ports cannot change until the next run).
        for &w in &t.run_const_wires {
            let (s, e) = t.wire_span[w as usize];
            self.run_seg(&t.wire_ops[s as usize..e as usize]);
            self.wstamp[w as usize] = u64::MAX;
        }

        // Reset edge: rst high, start low.
        self.v[t.rst] = 1;
        self.v[t.start] = 0;
        self.posedge();
        self.v[t.rst] = 0;
        self.v[t.start] = 1;

        // Scratch register file for the observer — allocated once per
        // run, and only on the traced instantiation.
        let mut scratch: Vec<u64> = if TRACED { vec![0; t.reg_ids.len()] } else { Vec::new() };
        let mut cycles = 0u64;
        // Brent's snapshot schedule rides on the budget compare: `limit`
        // is the budget or the next snapshot cycle, whichever comes
        // first. `filt` is the snapshot's filter word.
        let mut limit =
            if TRACED { opts.max_cycles } else { opts.max_cycles.min(self.det.start()) };
        let mut filt = u64::MAX;
        loop {
            cycles += 1;
            if cycles > limit {
                if TRACED || cycles > opts.max_cycles {
                    if opts.snapshot_on_timeout {
                        return Ok(self.stats(cycles - 1, true));
                    }
                    return Err(SimError::CycleLimit);
                }
                limit = opts.max_cycles.min(self.snapshot(cycles - 1));
                filt = self.v[t.filter];
            }
            self.posedge();
            let done = self.v[t.done] & 1 == 1;
            if TRACED {
                for (slot, &id) in scratch.iter_mut().zip(&t.reg_ids) {
                    *slot = if id == usize::MAX { 0 } else { self.v[id] };
                }
                observe(cycles, &scratch, done);
            }
            if done {
                return Ok(self.stats(cycles, false));
            }
            if !TRACED && self.v[t.filter] == filt {
                if let Some(at) = self.fast_forward(cycles, opts.max_cycles) {
                    // The state after `cycles` recurs: the run never
                    // finishes, and at cycle `at` it is here again.
                    if !opts.snapshot_on_timeout {
                        return Err(SimError::CycleLimit);
                    }
                    cycles = at;
                    limit = opts.max_cycles;
                }
            }
        }
    }

    /// Snapshots the state after `cycle` and returns the next snapshot
    /// cycle. The state is every signal and every written memory: wires
    /// are recomputed each cycle, run-stable wires and switch caches are
    /// constant within a run, and so are memories the module never
    /// writes.
    #[cold]
    #[inline(never)]
    fn snapshot(&mut self, cycle: u64) -> u64 {
        let (t, state) = (self.t, &self.v[..self.t.n_sigs]);
        self.det.snapshot(cycle, state[t.filter], state, written_mems(t, &self.mems))
    }

    /// When the state after `cycle` equals the snapshot, skips the whole
    /// laps that fit in `budget` (see [`LoopDetector::skip`]) and
    /// returns the cycle it lands on.
    #[cold]
    #[inline(never)]
    fn fast_forward(&mut self, cycle: u64, budget: u64) -> Option<u64> {
        let (t, state) = (self.t, &self.v[..self.t.n_sigs]);
        let tail = || written_mems(t, &self.mems);
        self.det.skip(cycle, budget, state[t.filter], state, tail).map(|skip| cycle + skip)
    }

    /// Runs an `rtl::TestCase`, resolving array inputs through
    /// `mem_of_array` without cloning their contents.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`TapeRunner::run`].
    pub fn run_case(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
        mem_of_array: &BTreeMap<hls_ir::ArrayId, hls_core::MemIdx>,
    ) -> Result<SimStats, SimError> {
        let overrides: Vec<(usize, &[u64])> = case
            .mem_inputs
            .iter()
            .map(|(id, data)| (mem_of_array[id].0 as usize, data.as_slice()))
            .collect();
        self.run(&case.args, key, &overrides, opts)
    }

    /// Runs a test case and assembles the observable [`OutputImage`]
    /// (return value + written external memories), mirroring
    /// [`crate::vlog_outputs`] on the tape backend.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`TapeRunner::run`].
    pub fn outputs(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
        mem_of_array: &BTreeMap<hls_ir::ArrayId, hls_core::MemIdx>,
    ) -> Result<(OutputImage, SimStats), SimError> {
        let stats = self.run_case(case, key, opts, mem_of_array)?;
        Ok((self.image(&stats), stats))
    }

    /// The observable [`OutputImage`] of the last run (return value +
    /// written external memories). Only the output memories are cloned.
    pub fn image(&self, stats: &SimStats) -> OutputImage {
        let ret = stats
            .ret
            .zip(self.t.ret.map(|_| hls_ir::Type::int(self.t.ret_width.min(64) as u8, false)));
        let mems = self
            .t
            .mems
            .iter()
            .zip(&self.mems)
            .filter(|(m, _)| m.external && m.written)
            .map(|(m, data)| {
                (m.name.clone(), hls_ir::Type::int(m.elem_width.min(64) as u8, false), data.clone())
            })
            .collect();
        OutputImage { ret, mems }
    }

    /// Final memory images of the last run (indexed like the module's
    /// memory declarations). After a run that returned an error they
    /// hold wherever it stopped: a run that provably loops stops before
    /// its budget.
    pub fn mems(&self) -> &[Vec<u64>] {
        &self.mems
    }

    /// Final datapath register values (`r{i}` in index order) of the
    /// last run (after an error, see [`TapeRunner::mems`]).
    pub fn regs(&self) -> Vec<u64> {
        self.t.reg_ids.iter().map(|&id| if id == usize::MAX { 0 } else { self.v[id] }).collect()
    }

    /// Assembles a full [`SimResult`] from the last run's state (clones
    /// memories — use only when the caller keeps them).
    pub fn to_result(&self, stats: &SimStats) -> SimResult {
        SimResult {
            ret: stats.ret,
            cycles: stats.cycles,
            mems: self.mems.clone(),
            timed_out: stats.timed_out,
            regs: self.regs(),
        }
    }

    fn stats(&mut self, cycles: u64, timed_out: bool) -> SimStats {
        // A wire-kind `ret` must read its value at the committed final
        // state (the tree backend evaluates it on demand here): open a
        // fresh stamp window and evaluate just that wire's closure.
        self.stamp += 1;
        let ret = match self.t.ret {
            Some((id, true)) => {
                self.ensure_wire(id);
                Some(self.v[self.t.n_sigs + id])
            }
            Some((id, false)) => Some(self.v[id]),
            None => None,
        };
        SimStats { ret, cycles, timed_out }
    }

    fn posedge(&mut self) {
        // New stamp window: every non-run-constant wire is stale until
        // first read.
        self.stamp += 1;
        let t = self.t;
        self.run_seg(&t.body_seg);
        for &(id, val) in &self.upd_sigs {
            self.v[id as usize] = val;
        }
        for &(m, i, val) in &self.upd_mems {
            self.mems[m as usize][i as usize] = val;
        }
        self.upd_sigs.clear();
        self.upd_mems.clear();
    }

    /// Makes wire `id`'s slot current for this stamp window, evaluating
    /// its topologically ordered dependency closure on first read.
    fn ensure_wire(&mut self, id: usize) {
        if self.wstamp[id] >= self.stamp {
            return;
        }
        let t = self.t;
        let (cs, ce) = t.closure_of[id];
        for i in cs as usize..ce as usize {
            let w = t.closures[i] as usize;
            if self.wstamp[w] < self.stamp {
                let (s, e) = t.wire_span[w];
                self.run_seg(&t.wire_ops[s as usize..e as usize]);
                self.wstamp[w] = self.stamp;
            }
        }
    }

    /// Executes one tape segment (the clocked body or one wire's
    /// evaluation span).
    #[allow(clippy::too_many_lines)]
    fn run_seg(&mut self, seg: &[Op]) {
        let mut pc = 0usize;
        loop {
            let op = seg[pc];
            pc += 1;
            let (a, b) = (op.a as usize, op.b as usize);
            let v = match op.code {
                Code::Copy => self.v[a] & op.imm,
                Code::SelBit => {
                    let i = self.v[a];
                    if i < op.imm {
                        (self.v[b] >> i) & 1
                    } else {
                        0
                    }
                }
                Code::SelBitWide => {
                    let i = self.v[a];
                    if i > u32::MAX as u64 {
                        0
                    } else {
                        let word = self.key_words.get((i / 64) as usize).copied().unwrap_or(0);
                        (word >> (i % 64)) & 1
                    }
                }
                Code::LdMem => self.mems[b].get(self.v[a] as usize).copied().unwrap_or(0) & op.imm,
                Code::Part => (self.v[b] >> op.a) & op.imm,
                Code::PartWide => {
                    let (wi, off) = ((op.a / 64) as usize, op.a % 64);
                    let lo = self.key_words.get(wi).copied().unwrap_or(0) >> off;
                    let hi = if off == 0 {
                        0
                    } else {
                        self.key_words.get(wi + 1).copied().unwrap_or(0) << (64 - off)
                    };
                    (lo | hi) & op.imm
                }
                Code::Ensure => {
                    self.ensure_wire(b);
                    continue;
                }
                Code::Not => !self.v[a] & op.imm,
                Code::Neg => self.v[a].wrapping_neg() & op.imm,
                Code::LogNot => (self.v[a] == 0) as u64,
                Code::Add => self.v[a].wrapping_add(self.v[b]) & op.imm,
                Code::Sub => self.v[a].wrapping_sub(self.v[b]) & op.imm,
                Code::Mul => self.v[a].wrapping_mul(self.v[b]) & op.imm,
                Code::DivU => self.v[a].checked_div(self.v[b]).unwrap_or(op.imm),
                Code::DivS => {
                    let (va, vb) = (self.v[a], self.v[b]);
                    let w = width_of(op.imm);
                    if vb == 0 {
                        op.imm
                    } else {
                        (to_signed(va, w).wrapping_div(to_signed(vb, w)) as u64) & op.imm
                    }
                }
                Code::RemU => {
                    let va = self.v[a];
                    va.checked_rem(self.v[b]).unwrap_or(va)
                }
                Code::RemS => {
                    let (va, vb) = (self.v[a], self.v[b]);
                    let w = width_of(op.imm);
                    if vb == 0 {
                        va
                    } else {
                        (to_signed(va, w).wrapping_rem(to_signed(vb, w)) as u64) & op.imm
                    }
                }
                Code::And => self.v[a] & self.v[b],
                Code::Or => self.v[a] | self.v[b],
                Code::Xor => self.v[a] ^ self.v[b],
                Code::Shl => {
                    let sh = self.v[b];
                    if sh >= 64 {
                        0
                    } else {
                        self.v[a].wrapping_shl(sh as u32) & op.imm
                    }
                }
                Code::ShrU => {
                    let sh = self.v[b];
                    if sh >= 64 {
                        0
                    } else {
                        self.v[a].wrapping_shr(sh as u32)
                    }
                }
                Code::ShrS => {
                    let sh = self.v[b];
                    let w = width_of(op.imm);
                    ((to_signed(self.v[a], w) >> sh.min(63)) as u64) & op.imm
                }
                Code::CmpEq => (self.v[a] == self.v[b]) as u64,
                Code::CmpNe => (self.v[a] != self.v[b]) as u64,
                Code::CmpLtU => (self.v[a] < self.v[b]) as u64,
                Code::CmpLeU => (self.v[a] <= self.v[b]) as u64,
                Code::CmpGtU => (self.v[a] > self.v[b]) as u64,
                Code::CmpGeU => (self.v[a] >= self.v[b]) as u64,
                Code::CmpLtS => {
                    let w = width_of(op.imm);
                    (to_signed(self.v[a], w) < to_signed(self.v[b], w)) as u64
                }
                Code::CmpLeS => {
                    let w = width_of(op.imm);
                    (to_signed(self.v[a], w) <= to_signed(self.v[b], w)) as u64
                }
                Code::CmpGtS => {
                    let w = width_of(op.imm);
                    (to_signed(self.v[a], w) > to_signed(self.v[b], w)) as u64
                }
                Code::CmpGeS => {
                    let w = width_of(op.imm);
                    (to_signed(self.v[a], w) >= to_signed(self.v[b], w)) as u64
                }
                Code::LAnd => ((self.v[a] != 0) && (self.v[b] != 0)) as u64,
                Code::LOr => ((self.v[a] != 0) || (self.v[b] != 0)) as u64,
                Code::FCmpEq
                | Code::FCmpNe
                | Code::FCmpLtU
                | Code::FCmpLeU
                | Code::FCmpGtU
                | Code::FCmpGeU
                | Code::FCmpLtS
                | Code::FCmpLeS
                | Code::FCmpGtS
                | Code::FCmpGeS
                | Code::FLAnd
                | Code::FLOr => {
                    let (va, vb) = (self.v[a], self.v[b]);
                    let cond = match op.code {
                        Code::FCmpEq => va == vb,
                        Code::FCmpNe => va != vb,
                        Code::FCmpLtU => va < vb,
                        Code::FCmpLeU => va <= vb,
                        Code::FCmpGtU => va > vb,
                        Code::FCmpGeU => va >= vb,
                        Code::FLAnd => (va != 0) && (vb != 0),
                        Code::FLOr => (va != 0) || (vb != 0),
                        _ => {
                            let w = width_of(op.imm);
                            let (sa, sb) = (to_signed(va, w), to_signed(vb, w));
                            match op.code {
                                Code::FCmpLtS => sa < sb,
                                Code::FCmpLeS => sa <= sb,
                                Code::FCmpGtS => sa > sb,
                                _ => sa >= sb,
                            }
                        }
                    };
                    let target = seg[pc].imm;
                    pc += 1;
                    if !cond {
                        pc = target as usize;
                    }
                    continue;
                }
                Code::Sel => {
                    if self.v[a] != 0 {
                        self.v[b]
                    } else {
                        self.v[op.imm as usize]
                    }
                }
                Code::SExt => extend(self.v[a], op.b, 64, true) & op.imm,
                Code::ShlOr => (self.v[a] << op.b) | self.v[op.imm as usize],
                Code::Jmp => {
                    pc = op.imm as usize;
                    continue;
                }
                Code::JmpZ => {
                    if self.v[a] == 0 {
                        pc = op.imm as usize;
                    }
                    continue;
                }
                Code::JmpCached => {
                    let c = self.switch_cache[b];
                    if c != u32::MAX {
                        pc = c as usize;
                    }
                    continue;
                }
                Code::SwitchDense | Code::SwitchDenseStore => {
                    let table = &self.t.dense[b];
                    let subj = self.v[a];
                    let target = if subj >= table.base {
                        table
                            .targets
                            .get((subj - table.base) as usize)
                            .copied()
                            .unwrap_or(table.default)
                    } else {
                        table.default
                    };
                    if op.code == Code::SwitchDenseStore {
                        self.switch_cache[op.imm as usize] = target;
                    }
                    pc = target as usize;
                    continue;
                }
                Code::SwitchSparse | Code::SwitchSparseStore => {
                    let table = &self.t.sparse[b];
                    let subj = self.v[a];
                    let target = match table.entries.binary_search_by_key(&subj, |&(k, _)| k) {
                        Ok(i) => table.entries[i].1,
                        Err(_) => table.default,
                    };
                    if op.code == Code::SwitchSparseStore {
                        self.switch_cache[op.imm as usize] = target;
                    }
                    pc = target as usize;
                    continue;
                }
                Code::CopyBlock => {
                    let len = b;
                    let run = &seg[pc - 1..pc - 1 + len];
                    self.upd_sigs.extend(
                        run.iter().map(|o| (o.dst & !COMMIT, self.v[o.a as usize] & o.imm)),
                    );
                    pc += len - 1;
                    continue;
                }
                Code::SetMem => {
                    let idx = self.v[a];
                    if (idx as usize) < self.mems[b].len() {
                        self.upd_mems.push((op.b, idx as u32, self.v[op.imm as usize]));
                    }
                    continue;
                }
                Code::End => return,
            };
            if op.dst & COMMIT != 0 {
                self.upd_sigs.push((op.dst & !COMMIT, v));
            } else {
                self.v[op.dst as usize] = v;
            }
        }
    }
}

/// Width encoded by a context mask (`mask(w)` is invertible for
/// `w ∈ 1..=64`).
fn width_of(m: u64) -> u32 {
    m.trailing_ones()
}

// -------------------------------------------------------------- compiler

struct TapeCompiler<'a> {
    sim: &'a VlogSim,
    ops: Vec<Op>,
    dense: Vec<DenseTable>,
    sparse: Vec<SparseTable>,
    pool: Vec<u64>,
    pool_map: BTreeMap<u64, u32>,
    /// Per-signal run-constant flags (wire-kind signals only).
    run_const: Vec<bool>,
    /// First scratch index of the active region (body, then wires).
    scratch_base: u32,
    sp: u32,
    frame: u32,
    n_caches: u32,
}

impl<'a> TapeCompiler<'a> {
    fn compile(sim: &'a VlogSim) -> Result<VlogTape, VlogError> {
        let n = sim.sigs.len();
        let mut c = TapeCompiler {
            sim,
            ops: Vec::new(),
            dense: Vec::new(),
            sparse: Vec::new(),
            pool: Vec::new(),
            pool_map: BTreeMap::new(),
            run_const: vec![false; n],
            scratch_base: 2 * n as u32,
            sp: 2 * n as u32,
            frame: 2 * n as u32,
            n_caches: 0,
        };

        // Levelize the wire graph, then classify run-constant wires:
        // every transitive dependency a run-stable input (working key,
        // argument ports). TAO's decrypt-constant wires
        // (`32'hX ^ working_key[..]`) all land here, so key decryption
        // happens once per run, not per cycle.
        let order = c.levelize()?;
        let mut run_const_wires = Vec::new();
        for &sig_id in &order {
            let SigKind::Wire(widx) = sim.sigs[sig_id].kind else { unreachable!() };
            if c.is_run_const(&sim.wires[widx]) {
                c.run_const[sig_id] = true;
                run_const_wires.push(sig_id as u32);
            }
        }

        // --- body segment.
        c.stmt(&sim.body);
        c.emit(Code::End, 0, 0, 0, 0);
        let mut body_seg = std::mem::take(&mut c.ops);

        // --- per-wire evaluation segments. A wire evaluates lazily (at
        // most once per cycle, only when read), possibly in the middle
        // of a body expression; the disjoint scratch region keeps it
        // from clobbering live body slots.
        c.scratch_base = c.frame;
        let mut wire_span = vec![(0u32, 0u32); n];
        for &sig_id in &order {
            let SigKind::Wire(widx) = sim.sigs[sig_id].kind else { unreachable!() };
            c.sp = c.scratch_base;
            let start = c.ops.len() as u32;
            let width = sim.sigs[sig_id].width;
            c.commit_assign(&sim.wires[widx], width, (n + sig_id) as u32);
            c.emit(Code::End, 0, 0, 0, 0);
            wire_span[sig_id] = (start, c.ops.len() as u32);
        }
        let mut wire_ops = std::mem::take(&mut c.ops);

        // Relocate provisional pool operands to the arena tail, now that
        // the scratch frame size is final.
        let pool_base = c.frame;
        for op in body_seg.iter_mut().chain(wire_ops.iter_mut()) {
            relocate(op, pool_base);
        }

        // Collapse jump chains (and jumps straight to `End`), fuse
        // compare-and-branch pairs, then fuse maximal runs of
        // consecutive commit-copies (register moves, pipeline advances,
        // reset latches) into one dispatch each.
        thread_jumps(&mut body_seg, &mut c.dense, &mut c.sparse);
        fuse_cmp_branches(&mut body_seg, &c.dense, &c.sparse);
        fuse_copy_blocks(&mut body_seg);
        fuse_copy_blocks(&mut wire_ops);

        // Per-wire transitive dependency closures in topological order:
        // the runner walks one flat span to freshen everything a wire
        // needs, with no recursion into stale dependencies.
        let mut closures = Vec::new();
        let mut closure_of = vec![(0u32, 0u32); n];
        for &sig_id in &order {
            let start = closures.len() as u32;
            let mut seen = vec![false; n];
            c.closure_visit(sig_id, &mut seen, &mut closures);
            closure_of[sig_id] = (start, closures.len() as u32);
        }

        let ret = sim.ret.map(|(id, _)| (id, matches!(sim.sigs[id].kind, SigKind::Wire(_))));
        Ok(VlogTape {
            name: sim.name.clone(),
            wire_ops,
            wire_span,
            closures,
            closure_of,
            run_const_wires,
            body_seg,
            dense: c.dense,
            sparse: c.sparse,
            pool: c.pool,
            pool_base,
            n_caches: c.n_caches,
            n_sigs: n,
            mems: sim
                .mems
                .iter()
                .map(|m| TapeMem {
                    name: m.name.clone(),
                    elem_width: m.elem_width,
                    len: m.len,
                    external: m.external,
                    written: m.written,
                })
                .collect(),
            init: sim.init.clone(),
            rst: sim.rst,
            start: sim.start,
            args: sim.args.iter().map(|&id| (id, mask(sim.sigs[id].width))).collect(),
            key: sim.key,
            ret,
            ret_width: sim.ret.map(|(_, w)| w).unwrap_or(0),
            done: sim.done,
            filter: sim.sigs.iter().position(|s| s.name == "state").unwrap_or(sim.done),
            reg_widths: sim
                .reg_ids
                .iter()
                .map(|&id| if id == usize::MAX { 1 } else { sim.sigs[id].width })
                .collect(),
            reg_ids: sim.reg_ids.clone(),
        })
    }

    /// Topologically sorts the continuous assigns so each net is
    /// evaluated after every net it reads.
    fn levelize(&self) -> Result<Vec<usize>, VlogError> {
        let sim = self.sim;
        let wire_sigs: Vec<usize> = (0..sim.sigs.len())
            .filter(|&id| matches!(sim.sigs[id].kind, SigKind::Wire(_)))
            .collect();
        let mut order = Vec::with_capacity(wire_sigs.len());
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state = vec![0u8; sim.sigs.len()];
        for &root in &wire_sigs {
            self.visit(root, &mut state, &mut order)?;
        }
        Ok(order)
    }

    fn visit(&self, id: usize, state: &mut [u8], order: &mut Vec<usize>) -> Result<(), VlogError> {
        match state[id] {
            2 => return Ok(()),
            1 => {
                return err(format!("combinational loop through net `{}`", self.sim.sigs[id].name));
            }
            _ => {}
        }
        state[id] = 1;
        let SigKind::Wire(widx) = self.sim.sigs[id].kind else { unreachable!() };
        let mut deps = Vec::new();
        collect_wire_deps(self.sim, &self.sim.wires[widx], &mut deps);
        for d in deps {
            self.visit(d, state, order)?;
        }
        state[id] = 2;
        order.push(id);
        Ok(())
    }

    /// Appends `root`'s transitive wire dependencies (topological order,
    /// `root` last) to `out`. The graph is acyclic — `levelize` ran.
    fn closure_visit(&self, id: usize, seen: &mut [bool], out: &mut Vec<u32>) {
        if seen[id] {
            return;
        }
        seen[id] = true;
        let SigKind::Wire(widx) = self.sim.sigs[id].kind else { unreachable!() };
        let mut deps = Vec::new();
        collect_wire_deps(self.sim, &self.sim.wires[widx], &mut deps);
        for d in deps {
            self.closure_visit(d, seen, out);
        }
        out.push(id as u32);
    }

    /// Whether `e` reads only run-stable state: constants, the working
    /// key, the argument ports, and wires already known run-constant.
    /// `rst`/`start` toggle during the protocol and registers/memories
    /// change every cycle, so any such read disqualifies the wire.
    fn is_run_const(&self, e: &CExpr) -> bool {
        let sim = self.sim;
        let stable_sig = |id: usize| {
            matches!(sim.key, Some((kid, _)) if kid == id)
                || sim.args.contains(&id)
                || (matches!(sim.sigs[id].kind, SigKind::Wire(_)) && self.run_const[id])
        };
        match e {
            CExpr::Const { .. } => true,
            CExpr::Sig { id, .. } | CExpr::PartSig { id, .. } => stable_sig(*id),
            CExpr::SelBit { id, index } => stable_sig(*id) && self.is_run_const(index),
            CExpr::SelMem { .. } => false,
            CExpr::Unary { a, .. } | CExpr::Signed(a) | CExpr::Repeat { a, .. } => {
                self.is_run_const(a)
            }
            CExpr::Binary { a, b, .. } => self.is_run_const(a) && self.is_run_const(b),
            CExpr::Cond { c, t, e } => {
                self.is_run_const(c) && self.is_run_const(t) && self.is_run_const(e)
            }
            CExpr::Concat(parts) => parts.iter().all(|p| self.is_run_const(p)),
        }
    }

    fn emit(&mut self, code: Code, dst: u32, a: u32, b: u32, imm: u64) -> usize {
        self.ops.push(Op { code, dst, a, b, imm });
        self.ops.len() - 1
    }

    fn alloc(&mut self) -> u32 {
        let s = self.sp;
        self.sp += 1;
        self.frame = self.frame.max(self.sp);
        s
    }

    /// Provisional pool operand for a folded constant.
    fn pool_idx(&mut self, v: u64) -> u32 {
        if let Some(&i) = self.pool_map.get(&v) {
            return POOL_BASE + i;
        }
        let i = self.pool.len() as u32;
        self.pool.push(v);
        self.pool_map.insert(v, i);
        POOL_BASE + i
    }

    /// Emits assignment-context evaluation committed to `dst` (a
    /// `COMMIT`-tagged signal for nonblocking assigns, a plain wire-slot
    /// index for continuous assigns): size is `max(target, rhs
    /// self-size)`, type is the right-hand side's own, truncated to the
    /// target width — exactly [`VlogSim`]'s `eval_assign`. When the
    /// value's final op is the tape's last, the commit rides on it; a
    /// direct operand gets one `Copy`.
    fn commit_assign(&mut self, e: &CExpr, target_width: u32, dst: u32) {
        let w = target_width.max(e.self_width());
        let idx = self.expr(e, w, e.self_signed());
        // The commit may ride on the tape's last op only when that op
        // actually *produced* `idx` — i.e. `idx` is a scratch slot (a
        // direct signal/pool operand emits no op, and the incidental
        // `dst` field of a non-value op like `SetMem`/`Jmp` is 0, which
        // would collide with signal id 0).
        let is_scratch = idx >= 2 * self.sim.sigs.len() as u32 && idx < POOL_BASE;
        if w > target_width {
            self.emit(Code::Copy, dst, idx, 0, mask(target_width));
        } else if is_scratch && self.ops.last().map(|o| o.dst) == Some(idx) {
            // The value bound v ≤ mask(w) = mask(target) holds for every
            // value-producing op, so the commit needs no extra mask.
            self.ops.last_mut().expect("just checked").dst = dst;
        } else {
            self.emit(Code::Copy, dst, idx, 0, mask(target_width));
        }
    }

    /// Evaluates `e` in assignment context into a readable value-array
    /// index (for memory-write data).
    fn value_at(&mut self, e: &CExpr, target_width: u32) -> u32 {
        let w = target_width.max(e.self_width());
        let idx = self.expr(e, w, e.self_signed());
        if w > target_width {
            let dst = self.alloc();
            self.emit(Code::Copy, dst, idx, 0, mask(target_width));
            dst
        } else {
            idx
        }
    }

    /// Emits self-determined evaluation (conditions, indices, case
    /// subjects).
    fn expr_self(&mut self, e: &CExpr) -> u32 {
        self.expr(e, e.self_width(), e.self_signed())
    }

    /// Returns a value-array index holding `eval(e, st, w, s)`, emitting
    /// ops only where a signal or pool read does not suffice — mirroring
    /// the tree evaluator arm for arm with the context resolved at
    /// compile time.
    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &CExpr, w: u32, s: bool) -> u32 {
        use ast::BinOp as B;
        use ast::UnOp as U;
        let sim = self.sim;
        let sp0 = self.sp;
        match e {
            CExpr::Const { value, width, signed, unsz } => {
                let v =
                    if *unsz { value & mask(w) } else { extend(*value, *width, w, s && *signed) };
                self.pool_idx(v)
            }
            CExpr::Sig { id, width } => {
                // `extend(read, width, w, false)`: values are stored
                // masked, so only a narrowing context needs a mask op —
                // otherwise the signal's array entry is the operand.
                let src = self.sig_src(*id);
                if w < *width {
                    let dst = self.alloc();
                    self.emit(Code::Copy, dst, src, 0, mask(w));
                    dst
                } else {
                    src
                }
            }
            CExpr::SelBit { id, index } => {
                let i = self.expr_self(index);
                self.sp = sp0;
                let dst = self.alloc();
                if self.is_wide(*id) {
                    self.emit(Code::SelBitWide, dst, i, *id as u32, 0);
                } else {
                    let src = self.sig_src(*id);
                    self.emit(Code::SelBit, dst, i, src, sim.sigs[*id].width as u64);
                }
                dst
            }
            CExpr::SelMem { mem, index, elem_width: _ } => {
                let i = self.expr_self(index);
                self.sp = sp0;
                let dst = self.alloc();
                self.emit(Code::LdMem, dst, i, *mem as u32, mask(w));
                dst
            }
            CExpr::PartSig { id, hi, lo } => {
                let sel_w = hi - lo + 1;
                let m = mask(w.min(sel_w));
                if self.is_wide(*id) {
                    let dst = self.alloc();
                    self.emit(Code::PartWide, dst, *lo, *id as u32, m);
                    dst
                } else if *lo >= 64 {
                    self.pool_idx(0)
                } else {
                    let src = self.sig_src(*id);
                    let dst = self.alloc();
                    self.emit(Code::Part, dst, *lo, src, m);
                    dst
                }
            }
            CExpr::Unary { op, a } => match op {
                U::Not | U::Neg => {
                    let va = self.expr(a, w, s);
                    self.sp = sp0;
                    let dst = self.alloc();
                    let code = if *op == U::Not { Code::Not } else { Code::Neg };
                    self.emit(code, dst, va, 0, mask(w));
                    dst
                }
                U::LogNot => {
                    let va = self.expr_self(a);
                    self.sp = sp0;
                    let dst = self.alloc();
                    self.emit(Code::LogNot, dst, va, 0, 0);
                    dst
                }
            },
            CExpr::Binary { op, a, b } => match op {
                B::Add | B::Sub | B::Mul | B::Div | B::Rem | B::And | B::Or | B::Xor => {
                    let va = self.expr(a, w, s);
                    let vb = self.expr(b, w, s);
                    self.sp = sp0;
                    let dst = self.alloc();
                    let code = match (op, s) {
                        (B::Add, _) => Code::Add,
                        (B::Sub, _) => Code::Sub,
                        (B::Mul, _) => Code::Mul,
                        (B::Div, false) => Code::DivU,
                        (B::Div, true) => Code::DivS,
                        (B::Rem, false) => Code::RemU,
                        (B::Rem, true) => Code::RemS,
                        (B::And, _) => Code::And,
                        (B::Or, _) => Code::Or,
                        (B::Xor, _) => Code::Xor,
                        _ => unreachable!(),
                    };
                    self.emit(code, dst, va, vb, mask(w));
                    dst
                }
                B::Shl | B::Shr | B::AShr => {
                    let va = self.expr(a, w, s);
                    let vb = self.expr_self(b);
                    self.sp = sp0;
                    let dst = self.alloc();
                    match (op, s) {
                        (B::Shl, _) => self.emit(Code::Shl, dst, va, vb, mask(w)),
                        (B::AShr, true) => self.emit(Code::ShrS, dst, va, vb, mask(w)),
                        _ => self.emit(Code::ShrU, dst, va, vb, 0),
                    };
                    dst
                }
                B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge => {
                    let cw = a.self_width().max(b.self_width());
                    let cs = a.self_signed() && b.self_signed();
                    let va = self.expr(a, cw, cs);
                    let vb = self.expr(b, cw, cs);
                    self.sp = sp0;
                    let dst = self.alloc();
                    let code = match (op, cs) {
                        (B::Eq, _) => Code::CmpEq,
                        (B::Ne, _) => Code::CmpNe,
                        (B::Lt, false) => Code::CmpLtU,
                        (B::Le, false) => Code::CmpLeU,
                        (B::Gt, false) => Code::CmpGtU,
                        (B::Ge, false) => Code::CmpGeU,
                        (B::Lt, true) => Code::CmpLtS,
                        (B::Le, true) => Code::CmpLeS,
                        (B::Gt, true) => Code::CmpGtS,
                        (B::Ge, true) => Code::CmpGeS,
                        _ => unreachable!(),
                    };
                    self.emit(code, dst, va, vb, mask(cw));
                    dst
                }
                B::LAnd | B::LOr => {
                    let va = self.expr_self(a);
                    let vb = self.expr_self(b);
                    self.sp = sp0;
                    let dst = self.alloc();
                    let code = if *op == B::LAnd { Code::LAnd } else { Code::LOr };
                    self.emit(code, dst, va, vb, 0);
                    dst
                }
            },
            CExpr::Cond { c, t, e: ee } => {
                // Both arms are pure and total, so the tape evaluates
                // both and selects — no intra-expression jumps.
                let vc = self.expr_self(c);
                let vt = self.expr(t, w, s);
                let ve = self.expr(ee, w, s);
                self.sp = sp0;
                let dst = self.alloc();
                self.emit(Code::Sel, dst, vc, vt, ve as u64);
                dst
            }
            CExpr::Signed(a) => {
                let aw = a.self_width();
                let va = self.expr(a, aw, a.self_signed());
                if s && w > aw {
                    self.sp = sp0;
                    let dst = self.alloc();
                    self.emit(Code::SExt, dst, va, aw, mask(w));
                    dst
                } else if w < aw {
                    self.sp = sp0;
                    let dst = self.alloc();
                    self.emit(Code::Copy, dst, va, 0, mask(w));
                    dst
                } else {
                    // Value already bounded by mask(aw) ≤ mask(w).
                    va
                }
            }
            CExpr::Concat(parts) => {
                let total: u32 = parts.iter().map(|p| p.self_width()).sum();
                let mut acc: Option<u32> = None;
                for p in parts {
                    let pw = p.self_width();
                    // A leading all-zero constant part (the emitter's
                    // `{N'd0, x}` zero-pad idiom) contributes no bits:
                    // `(0 << pw) | v` is `v`.
                    if acc.is_none() && matches!(p, CExpr::Const { value: 0, .. }) {
                        continue;
                    }
                    let vp = self.expr(p, pw, p.self_signed());
                    acc = Some(match acc {
                        // A part of 64 bits or more shifts the accumulated
                        // bits out: the value is the part's.
                        Some(prev) if pw < 64 => {
                            let dst = self.alloc();
                            self.emit(Code::ShlOr, dst, prev, pw, vp as u64);
                            dst
                        }
                        _ => vp,
                    });
                }
                match acc {
                    // Every part was a zero constant: the value is 0.
                    None => {
                        self.sp = sp0;
                        self.pool_idx(0)
                    }
                    Some(acc) if w >= total => {
                        // Accumulated bits never exceed the concat's own
                        // width: the context mask is a no-op.
                        acc
                    }
                    Some(acc) => {
                        self.sp = sp0;
                        let dst = self.alloc();
                        self.emit(Code::Copy, dst, acc, 0, mask(w));
                        dst
                    }
                }
            }
            CExpr::Repeat { n: reps, a } => {
                let aw = a.self_width();
                // Self-determined operand values are already masked to
                // their width — the repeated unit needs no extra mask.
                let unit = self.expr(a, aw, a.self_signed());
                let mut acc = None;
                for _ in 0..*reps {
                    acc = Some(match acc {
                        Some(prev) if aw < 64 => {
                            let dst = self.alloc();
                            self.emit(Code::ShlOr, dst, prev, aw, unit as u64);
                            dst
                        }
                        _ => unit,
                    });
                }
                match acc {
                    // `{0{x}}` never parses, but mirror eval's `acc = 0`.
                    None => {
                        self.sp = sp0;
                        self.pool_idx(0)
                    }
                    Some(acc) if w >= reps * aw => acc,
                    Some(acc) => {
                        self.sp = sp0;
                        let dst = self.alloc();
                        self.emit(Code::Copy, dst, acc, 0, mask(w));
                        dst
                    }
                }
            }
        }
    }

    /// The value-array index holding signal `id`'s current value: a wire
    /// reads its slot, freshened first unless it is run-constant.
    fn sig_src(&mut self, id: usize) -> u32 {
        match self.sim.sigs[id].kind {
            SigKind::Wire(_) => {
                if !self.run_const[id] {
                    self.emit(Code::Ensure, u32::MAX, 0, id as u32, 0);
                }
                (self.sim.sigs.len() + id) as u32
            }
            _ => id as u32,
        }
    }

    fn is_wide(&self, id: usize) -> bool {
        // Only the working key ever lands in the tree backend's wide-map
        // (it is the only input the emitter declares wider than 64
        // bits); every other signal reads through the value array.
        matches!(self.sim.key, Some((kid, kw)) if kid == id && kw > 64)
    }

    fn stmt(&mut self, s: &CStmt) {
        match s {
            CStmt::Block(body) => self.seq(body),
            CStmt::If { cond, then_s, else_s } => {
                self.sp = self.scratch_base;
                let c = self.expr_self(cond);
                let jz = self.emit(Code::JmpZ, 0, c, 0, 0);
                self.stmt(then_s);
                match else_s {
                    Some(e) => {
                        let jend = self.emit(Code::Jmp, 0, 0, 0, 0);
                        self.ops[jz].imm = self.ops.len() as u64;
                        self.stmt(e);
                        self.ops[jend].imm = self.ops.len() as u64;
                    }
                    None => {
                        self.ops[jz].imm = self.ops.len() as u64;
                    }
                }
            }
            CStmt::Case { subject, arms, map, default } => {
                self.case(subject, arms.len(), |c, i| c.stmt(&arms[i]), map, *default);
            }
            CStmt::AssignSig { id, width, value } => {
                self.sp = self.scratch_base;
                self.commit_assign(value, *width, COMMIT | *id as u32);
            }
            CStmt::AssignMem { mem, index, elem_width, value } => {
                self.sp = self.scratch_base;
                let i = self.expr_self(index);
                let v = self.value_at(value, *elem_width);
                self.emit(Code::SetMem, 0, i, *mem as u32, v as u64);
            }
            CStmt::Null => {}
        }
    }

    /// Lowers a statement sequence, merging each maximal run of
    /// consecutive `case` statements over the *same* subject expression
    /// into one dispatch. The emitter produces one variant-select `case`
    /// per micro-op, all dispatching on the state's working-key slice;
    /// because every expression is pure and every write is nonblocking
    /// (evaluation never observes this cycle's commits), executing
    /// `armA(v); armB(v)` under one dispatch is observationally identical
    /// to two dispatches of the same `v` — and saves a cached jump + a
    /// trailing jump per merged case per cycle.
    fn seq<S: Borrow<CStmt>>(&mut self, stmts: &[S]) {
        let mut i = 0;
        while i < stmts.len() {
            if let CStmt::Case { subject, .. } = stmts[i].borrow() {
                let same =
                    |s: &S| matches!(s.borrow(), CStmt::Case { subject: t, .. } if t == subject);
                let run = 1 + stmts[i + 1..].iter().take_while(|s| same(s)).count();
                if run >= 2 {
                    self.merged_case(subject, &stmts[i..i + run]);
                    i += run;
                    continue;
                }
            }
            self.stmt(stmts[i].borrow());
            i += 1;
        }
    }

    /// Lowers a run of same-subject cases as one dispatch: for every label
    /// in the union, the merged arm executes each case's arm for that
    /// label (its explicit arm, else its default, else nothing), in the
    /// original statement order; likewise for the merged default. Merged
    /// arms borrow the original statements.
    fn merged_case<S: Borrow<CStmt>>(&mut self, subject: &CExpr, cases: &[S]) {
        static NULL: CStmt = CStmt::Null;
        type CasePart<'a> = (&'a [CStmt], &'a BTreeMap<u64, usize>, Option<usize>);
        let parts: Vec<CasePart> = cases
            .iter()
            .map(|c| match c.borrow() {
                CStmt::Case { arms, map, default, .. } => (&arms[..], map, *default),
                _ => unreachable!("merged_case only receives cases"),
            })
            .collect();
        fn arm_for<'a>(&(arms, map, default): &CasePart<'a>, v: u64) -> &'a CStmt {
            match (map.get(&v), default) {
                (Some(&i), _) | (None, Some(i)) => &arms[i],
                (None, None) => &NULL,
            }
        }
        let labels: BTreeSet<u64> =
            parts.iter().flat_map(|(_, map, _)| map.keys().copied()).collect();
        let mut arms: Vec<Vec<&CStmt>> = Vec::with_capacity(labels.len() + 1);
        let mut map = BTreeMap::new();
        for &v in &labels {
            map.insert(v, arms.len());
            arms.push(parts.iter().map(|p| arm_for(p, v)).collect());
        }
        let default = if parts.iter().any(|(_, _, d)| d.is_some()) {
            arms.push(parts.iter().map(|&(arms, _, d)| d.map_or(&NULL, |i| &arms[i])).collect());
            Some(arms.len() - 1)
        } else {
            None
        };
        self.case(subject, arms.len(), |c, i| c.seq(&arms[i]), &map, default);
    }

    /// Lowers a `case` dispatch over `subject` whose `n_arms` arm bodies
    /// `arm(self, i)` lowers; `map` takes label values to arm indices and
    /// `default` is the default arm's index.
    fn case(
        &mut self,
        subject: &CExpr,
        n_arms: usize,
        mut arm: impl FnMut(&mut Self, usize),
        map: &BTreeMap<u64, usize>,
        default: Option<usize>,
    ) {
        self.sp = self.scratch_base;
        // A run-stable subject (TAO's variant selects read
        // working-key slices) resolves its dispatch once per
        // run; later cycles jump straight from the cache.
        let cached = self.is_run_const(subject);
        let cache_idx = if cached {
            let i = self.n_caches;
            self.n_caches += 1;
            self.emit(Code::JmpCached, 0, 0, i, 0);
            Some(i)
        } else {
            None
        };
        let subj = self.expr_self(subject);
        let sw = self.emit(Code::Jmp, 0, subj, 0, 0); // patched below
        let mut arm_pcs = Vec::with_capacity(n_arms);
        let mut arm_jends = Vec::with_capacity(n_arms);
        for i in 0..n_arms {
            arm_pcs.push(self.ops.len() as u32);
            arm(self, i);
            // The final arm falls through to the end of the case.
            if i + 1 < n_arms {
                arm_jends.push(self.emit(Code::Jmp, 0, 0, 0, 0));
            }
        }
        let end = self.ops.len() as u64;
        for j in arm_jends {
            self.ops[j].imm = end;
        }
        let default_pc = match default {
            Some(d) => arm_pcs[d],
            None => end as u32,
        };
        // Build the dispatch table from the first-label-wins map.
        let entries: Vec<(u64, u32)> = map.iter().map(|(&v, &arm)| (v, arm_pcs[arm])).collect();
        let span = match (entries.first(), entries.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => hi - lo,
            _ => 0,
        };
        let (code, table_idx) = if !entries.is_empty() && span < 4096 {
            let base = entries[0].0;
            let mut targets = vec![default_pc; span as usize + 1];
            for &(v, pc) in &entries {
                targets[(v - base) as usize] = pc;
            }
            self.dense.push(DenseTable { base, targets, default: default_pc });
            let code = if cached { Code::SwitchDenseStore } else { Code::SwitchDense };
            (code, self.dense.len() - 1)
        } else {
            self.sparse.push(SparseTable { entries, default: default_pc });
            let code = if cached { Code::SwitchSparseStore } else { Code::SwitchSparse };
            (code, self.sparse.len() - 1)
        };
        self.ops[sw] =
            Op { code, dst: 0, a: subj, b: table_idx as u32, imm: cache_idx.unwrap_or(0) as u64 };
    }
}

/// Final landing pc of a jump to `t`: unconditional jump chains
/// collapse to their last hop (our emission only produces forward
/// jumps, but the hop count is bounded anyway for safety).
fn resolve_target(seg: &[Op], mut t: u32) -> u32 {
    for _ in 0..64 {
        match seg.get(t as usize) {
            Some(op) if op.code == Code::Jmp => t = op.imm as u32,
            _ => break,
        }
    }
    t
}

/// Retargets every jump (including dispatch tables) past intermediate
/// `Jmp`s, and converts unconditional jumps that land on `End` into
/// `End` — the tail of a final `case` arm returns directly instead of
/// hopping.
fn thread_jumps(seg: &mut [Op], dense: &mut [DenseTable], sparse: &mut [SparseTable]) {
    for i in 0..seg.len() {
        match seg[i].code {
            Code::Jmp | Code::JmpZ => {
                let t = resolve_target(seg, seg[i].imm as u32);
                seg[i].imm = t as u64;
                if seg[i].code == Code::Jmp && seg[t as usize].code == Code::End {
                    seg[i] = Op { code: Code::End, dst: 0, a: 0, b: 0, imm: 0 };
                }
            }
            _ => {}
        }
    }
    for table in dense.iter_mut() {
        for t in &mut table.targets {
            *t = resolve_target(seg, *t);
        }
        table.default = resolve_target(seg, table.default);
    }
    for table in sparse.iter_mut() {
        for (_, t) in &mut table.entries {
            *t = resolve_target(seg, *t);
        }
        table.default = resolve_target(seg, table.default);
    }
}

/// Fuses `Cmp*/LAnd/LOr` ops immediately consumed by a `JmpZ` into one
/// dispatch. The `JmpZ` stays in place (the fused op reads its target
/// and skips it), so no position shifts; fusion is skipped when any
/// jump or dispatch table can land on the `JmpZ` itself, or when the
/// comparison's scratch result could be read elsewhere (it cannot be,
/// by construction — `JmpZ` only follows a freshly evaluated condition
/// root — but the operand check keeps this local and safe).
fn fuse_cmp_branches(seg: &mut [Op], dense: &[DenseTable], sparse: &[SparseTable]) {
    // Jump targets are pcs in `0..=seg.len()`.
    let mut is_target = vec![false; seg.len() + 1];
    let jumps = seg.iter().filter(|op| matches!(op.code, Code::Jmp | Code::JmpZ));
    let tables = dense.iter().flat_map(|t| t.targets.iter().chain([&t.default]));
    let sparse_tables =
        sparse.iter().flat_map(|t| t.entries.iter().map(|(_, pc)| pc).chain([&t.default]));
    for pc in jumps.map(|op| op.imm as u32).chain(tables.chain(sparse_tables).copied()) {
        is_target[pc as usize] = true;
    }
    for i in 0..seg.len().saturating_sub(1) {
        let fused = match seg[i].code {
            Code::CmpEq => Code::FCmpEq,
            Code::CmpNe => Code::FCmpNe,
            Code::CmpLtU => Code::FCmpLtU,
            Code::CmpLeU => Code::FCmpLeU,
            Code::CmpGtU => Code::FCmpGtU,
            Code::CmpGeU => Code::FCmpGeU,
            Code::CmpLtS => Code::FCmpLtS,
            Code::CmpLeS => Code::FCmpLeS,
            Code::CmpGtS => Code::FCmpGtS,
            Code::CmpGeS => Code::FCmpGeS,
            Code::LAnd => Code::FLAnd,
            Code::LOr => Code::FLOr,
            _ => continue,
        };
        let next = seg[i + 1];
        if next.code == Code::JmpZ
            && next.a == seg[i].dst
            && seg[i].dst & COMMIT == 0
            && !is_target[i + 1]
        {
            seg[i].code = fused;
        }
    }
}

/// Marks each maximal run of ≥ 2 consecutive `Copy` ops with committing
/// destinations as a [`Code::CopyBlock`]: the eval phase never reads a
/// committed value (nonblocking semantics), so batching the pushes into
/// one dispatch is observationally identical. Ops after the head keep
/// their positions and stay valid `Copy`s, so jump targets into the run
/// need no adjustment.
fn fuse_copy_blocks(seg: &mut [Op]) {
    let mut i = 0;
    while i < seg.len() {
        let mut j = i;
        while j < seg.len() && seg[j].code == Code::Copy && seg[j].dst & COMMIT != 0 {
            j += 1;
        }
        if j - i >= 2 {
            seg[i].code = Code::CopyBlock;
            seg[i].b = (j - i) as u32;
        }
        i = j.max(i + 1);
    }
}

/// Rewrites provisional pool operands (`POOL_BASE + i`) to their final
/// location at the arena tail. Only fields that hold value-array indices
/// are touched, per opcode.
fn relocate(op: &mut Op, pool_base: u32) {
    let fix = |x: &mut u32| {
        if *x >= POOL_BASE {
            *x = pool_base + (*x - POOL_BASE);
        }
    };
    let fix_imm = |imm: &mut u64| {
        if *imm >= POOL_BASE as u64 {
            *imm = (pool_base + (*imm as u32 - POOL_BASE)) as u64;
        }
    };
    match op.code {
        Code::Copy
        | Code::CopyBlock
        | Code::Not
        | Code::Neg
        | Code::LogNot
        | Code::SExt
        | Code::LdMem => {
            fix(&mut op.a);
        }
        Code::SelBit => {
            fix(&mut op.a);
            fix(&mut op.b);
        }
        Code::SelBitWide | Code::JmpZ => fix(&mut op.a),
        Code::Part => fix(&mut op.b),
        Code::Add
        | Code::Sub
        | Code::Mul
        | Code::DivU
        | Code::DivS
        | Code::RemU
        | Code::RemS
        | Code::And
        | Code::Or
        | Code::Xor
        | Code::Shl
        | Code::ShrU
        | Code::ShrS
        | Code::CmpEq
        | Code::CmpNe
        | Code::CmpLtU
        | Code::CmpLeU
        | Code::CmpGtU
        | Code::CmpGeU
        | Code::CmpLtS
        | Code::CmpLeS
        | Code::CmpGtS
        | Code::CmpGeS
        | Code::LAnd
        | Code::LOr
        | Code::FCmpEq
        | Code::FCmpNe
        | Code::FCmpLtU
        | Code::FCmpLeU
        | Code::FCmpGtU
        | Code::FCmpGeU
        | Code::FCmpLtS
        | Code::FCmpLeS
        | Code::FCmpGtS
        | Code::FCmpGeS
        | Code::FLAnd
        | Code::FLOr => {
            fix(&mut op.a);
            fix(&mut op.b);
        }
        Code::Sel => {
            fix(&mut op.a);
            fix(&mut op.b);
            fix_imm(&mut op.imm);
        }
        Code::ShlOr => {
            fix(&mut op.a);
            fix_imm(&mut op.imm);
        }
        Code::SwitchDense
        | Code::SwitchDenseStore
        | Code::SwitchSparse
        | Code::SwitchSparseStore => fix(&mut op.a),
        Code::SetMem => {
            fix(&mut op.a);
            fix_imm(&mut op.imm);
        }
        Code::PartWide | Code::Ensure | Code::Jmp | Code::JmpCached | Code::End => {}
    }
}

/// Wire-kind signals read by `e` (dependencies for levelization).
fn collect_wire_deps(sim: &VlogSim, e: &CExpr, out: &mut Vec<usize>) {
    let mut push = |id: usize| {
        if matches!(sim.sigs[id].kind, SigKind::Wire(_)) {
            out.push(id);
        }
    };
    match e {
        CExpr::Const { .. } => {}
        CExpr::Sig { id, .. } => push(*id),
        CExpr::SelBit { id, index } => {
            push(*id);
            collect_wire_deps(sim, index, out);
        }
        CExpr::SelMem { index, .. } => collect_wire_deps(sim, index, out),
        CExpr::PartSig { id, .. } => push(*id),
        CExpr::Unary { a, .. } | CExpr::Signed(a) | CExpr::Repeat { a, .. } => {
            collect_wire_deps(sim, a, out)
        }
        CExpr::Binary { a, b, .. } => {
            collect_wire_deps(sim, a, out);
            collect_wire_deps(sim, b, out);
        }
        CExpr::Cond { c, t, e } => {
            collect_wire_deps(sim, c, out);
            collect_wire_deps(sim, t, out);
            collect_wire_deps(sim, e, out);
        }
        CExpr::Concat(parts) => {
            for p in parts {
                collect_wire_deps(sim, p, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both backends on the same text must produce identical outcomes.
    fn assert_backends_agree(text: &str, args: &[u64], key: &KeyBits, opts: &SimOptions) {
        let tree = VlogSim::new(text).unwrap();
        let tape = VlogTape::compile(&tree).unwrap();
        let a = tree.simulate(args, key, &[], opts);
        let b = tape.simulate(args, key, &[], opts);
        assert_eq!(a, b, "tree vs tape diverged");
    }

    const COUNTER: &str = r#"
        module cnt (
            input  wire clk,
            input  wire rst,
            input  wire start,
            input  wire [31:0] arg0,
            output wire [31:0] ret,
            output reg  done
        );
          reg [0:0] state;
          localparam S0 = 1'd0;
          localparam S1 = 1'd1;
          reg [31:0] r0;
          reg [31:0] r1;
          assign ret = r1;
          always @(posedge clk) begin
            if (rst) begin
              state <= S0;
              done <= 1'b0;
              r0 <= arg0;
            end else if (start || state != S0) begin
              case (state)
                S0: begin
                  r1 <= r1 + r0;
                  state <= (r0 == 32'd0) ? S1 : S0;
                  r0 <= r0 - 32'd1;
                end
                S1: begin
                  done <= 1'b1;
                end
                default: state <= S0;
              endcase
            end
          end
        endmodule
    "#;

    #[test]
    fn counter_matches_tree_backend() {
        for n in [0u64, 1, 4, 100] {
            assert_backends_agree(COUNTER, &[n], &KeyBits::zero(0), &SimOptions::default());
        }
    }

    #[test]
    fn cycle_limit_and_snapshot_match_tree_backend() {
        let tight = SimOptions { max_cycles: 5, snapshot_on_timeout: false };
        assert_backends_agree(COUNTER, &[100], &KeyBits::zero(0), &tight);
        let snap = SimOptions { max_cycles: 5, snapshot_on_timeout: true };
        assert_backends_agree(COUNTER, &[100], &KeyBits::zero(0), &snap);
    }

    #[test]
    fn interface_errors_match_tree_backend() {
        let tape = VlogTape::new(COUNTER).unwrap();
        assert!(matches!(
            tape.simulate(&[], &KeyBits::zero(0), &[], &SimOptions::default()),
            Err(SimError::ArityMismatch { .. })
        ));
        assert!(matches!(
            tape.simulate(&[1], &KeyBits::zero(8), &[], &SimOptions::default()),
            Err(SimError::KeyWidthMismatch { .. })
        ));
    }

    #[test]
    fn wide_key_part_and_bit_selects_match() {
        let src = r#"
            module t (
                input  wire clk,
                input  wire rst,
                input  wire start,
                input  wire [299:0] working_key,
                output wire [31:0] ret,
                output reg  done
            );
              reg [31:0] r0;
              assign ret = r0;
              wire [31:0] const0 = 32'h0 ^ working_key[287:256];
              wire [31:0] const1 = {24'd0, working_key[71:64]} + const0;
              always @(posedge clk) begin
                if (rst) begin
                  done <= 1'b0;
                end else if (start) begin
                  r0 <= const1 + {31'd0, working_key[5]};
                  done <= 1'b1;
                end
              end
            endmodule
        "#;
        let mut key = KeyBits::zero(300);
        for b in [5u32, 64, 66, 71, 256, 258, 287, 299] {
            key.set_bit(b, true);
        }
        assert_backends_agree(src, &[], &key, &SimOptions::default());
        // And a key straddling word boundaries with different bits.
        let mut s = 0x1234_5678_9abc_def0u64;
        let key2 = KeyBits::from_fn(300, || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        });
        assert_backends_agree(src, &[], &key2, &SimOptions::default());
    }

    #[test]
    fn run_constant_wires_follow_each_runs_key_and_args() {
        // const0/const1 read only the key; mix0 also reads an argument
        // port. All three are evaluated afresh at the start of every run.
        let src = r#"
            module t (
                input  wire clk,
                input  wire rst,
                input  wire start,
                input  wire [15:0] working_key,
                input  wire [31:0] arg0,
                output wire [31:0] ret,
                output reg  done
            );
              reg [31:0] r0;
              assign ret = r0;
              wire [31:0] const0 = 32'hbeef ^ {16'd0, working_key[15:0]};
              wire [31:0] const1 = const0 + 32'd7;
              wire [31:0] mix0 = const1 ^ arg0;
              always @(posedge clk) begin
                if (rst) begin
                  done <= 1'b0;
                end else if (start) begin
                  r0 <= mix0 + {31'd0, working_key[3]};
                  done <= 1'b1;
                end
              end
            endmodule
        "#;
        let tape = VlogTape::new(src).unwrap();
        assert_eq!(tape.run_const_wires.len(), 3, "const0, const1 and mix0 are run-constant");

        let mut ka = KeyBits::zero(16);
        ka.set_bit(3, true);
        ka.set_bit(9, true);
        let mut kb = KeyBits::zero(16);
        kb.set_bit(0, true);
        let opts = SimOptions::default();
        let mut runner = tape.runner();
        // The same key with new args, a new key, then the first key
        // again: every run must equal a fresh one-shot.
        for (key, arg) in [(&ka, 3u64), (&ka, 0xffff_0001), (&kb, 3), (&ka, 3)] {
            let got = runner.run(&[arg], key, &[], &opts).unwrap();
            let want = tape.simulate(&[arg], key, &[], &opts).unwrap();
            assert_eq!((got.ret, got.cycles), (want.ret, want.cycles), "key={key:?} arg={arg}");
            assert_eq!(runner.regs(), want.regs);
        }
    }

    #[test]
    fn signed_contexts_match() {
        let src = r#"
            module t (
                input  wire clk,
                input  wire rst,
                input  wire start,
                input  wire [7:0] arg0,
                input  wire [31:0] arg1,
                output wire [31:0] ret,
                output reg  done
            );
              reg [7:0] r0;
              reg [31:0] r1;
              reg [31:0] r2;
              assign ret = r2;
              always @(posedge clk) begin
                if (rst) begin
                  r0 <= arg0;
                  r1 <= arg1;
                  done <= 1'b0;
                end else if (start) begin
                  r2 <= ($signed(r0) < $signed(8'd0))
                        ? ($signed({{24{r0[7]}}, r0}) / $signed(32'd3))
                        : ($signed(r1) >>> 2) + ($signed(r0) % $signed(8'd5));
                  done <= 1'b1;
                end
              end
            endmodule
        "#;
        for (a, b) in [(0xffu64, 0x8000_0000u64), (0x7f, 17), (0x80, 0xffff_fffc), (0, 0)] {
            assert_backends_agree(src, &[a, b], &KeyBits::zero(0), &SimOptions::default());
        }
    }

    #[test]
    fn chained_wires_levelize_and_match() {
        // const2 depends on const1 depends on const0: declaration order is
        // already topological (as the emitter guarantees), but the compiler
        // must also follow actual dependencies.
        let src = r#"
            module t (
                input  wire clk,
                input  wire rst,
                input  wire start,
                input  wire [31:0] arg0,
                output wire [31:0] ret,
                output reg  done
            );
              reg [31:0] r0;
              wire [31:0] w0 = r0 + 32'd1;
              wire [31:0] w1 = w0 * 32'd3;
              wire [31:0] w2 = w1 ^ w0;
              assign ret = w2;
              always @(posedge clk) begin
                if (rst) begin
                  r0 <= arg0;
                  done <= 1'b0;
                end else if (start) begin
                  r0 <= w2;
                  done <= r0[4];
                end
              end
            endmodule
        "#;
        // `a = 0` settles on a fixed point whose bit 4 stays clear, so
        // `done` never rises: a tight budget, in both timeout modes, keeps
        // the tree interpreter from spinning through the default one.
        for a in [0u64, 3, 0xdead_beef] {
            for snapshot_on_timeout in [false, true] {
                let opts = SimOptions { max_cycles: 10_000, snapshot_on_timeout };
                assert_backends_agree(src, &[a], &KeyBits::zero(0), &opts);
            }
        }
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let src = r#"
            module t (
                input  wire clk,
                input  wire rst,
                input  wire start,
                output wire [31:0] ret,
                output reg  done
            );
              wire [31:0] w0 = w1 + 32'd1;
              wire [31:0] w1 = w0 ^ 32'd3;
              assign ret = w0;
              always @(posedge clk) begin
                if (rst) done <= 1'b0;
                else done <= 1'b1;
              end
            endmodule
        "#;
        let e = VlogTape::new(src).unwrap_err();
        assert!(e.msg.contains("combinational loop"), "{e}");
    }

    #[test]
    fn memory_kernel_matches_with_overrides() {
        let src = r#"
            module t (
                input  wire clk,
                input  wire rst,
                input  wire start,
                input  wire [31:0] arg0,
                output wire [31:0] ret,
                output reg  done
            );
              (* external *) reg [31:0] mem0 [0:3];
              reg [31:0] r0;
              reg [2:0] i;
              assign ret = r0;
              always @(posedge clk) begin
                if (rst) begin
                  r0 <= 32'd0;
                  i <= 3'd0;
                  done <= 1'b0;
                end else if (start) begin
                  if (i < 3'd4) begin
                    r0 <= r0 + mem0[i[1:0]] * arg0;
                    mem0[i[1:0]] <= r0;
                    i <= i + 3'd1;
                  end else begin
                    done <= 1'b1;
                  end
                end
              end
            endmodule
        "#;
        let tree = VlogSim::new(src).unwrap();
        let tape = VlogTape::compile(&tree).unwrap();
        let overrides = vec![(0usize, vec![7u64, 11, 13, 17])];
        let a = tree.simulate(&[3], &KeyBits::zero(0), &overrides, &SimOptions::default());
        let b = tape.simulate(&[3], &KeyBits::zero(0), &overrides, &SimOptions::default());
        assert_eq!(a, b);
        assert!(a.unwrap().ret.is_some());
    }

    #[test]
    fn runner_reuse_is_stateless_across_runs() {
        let tape = VlogTape::new(COUNTER).unwrap();
        let mut runner = tape.runner();
        let one = runner.run(&[7], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        let two = runner.run(&[2], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        let fresh = tape.simulate(&[2], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        assert_eq!(two.ret, fresh.ret);
        assert_eq!(two.cycles, fresh.cycles);
        assert_ne!(one.ret, two.ret);
    }

    #[test]
    fn memory_write_before_assignment_from_signal_zero() {
        // Regression: `mem0[...] <= ...;` emits a `SetMem` whose unused
        // `dst` field is 0; a following assignment whose RHS is a bare
        // read of signal id 0 (the first-declared port) must not ride
        // its commit on that `SetMem`. The tape must match the tree.
        let src = r#"
            module t (
                input  wire [31:0] arg0,
                input  wire clk,
                input  wire rst,
                input  wire start,
                output wire [31:0] ret,
                output reg  done
            );
              (* external *) reg [31:0] mem0 [0:3];
              reg [31:0] r0;
              assign ret = r0;
              always @(posedge clk) begin
                if (rst) begin
                  done <= 1'b0;
                end else if (start) begin
                  mem0[0] <= 32'd7;
                  r0 <= arg0;
                  done <= 1'b1;
                end
              end
            endmodule
        "#;
        assert_backends_agree(src, &[42], &KeyBits::zero(0), &SimOptions::default());
        let tape = VlogTape::new(src).unwrap();
        let res = tape.simulate(&[42], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        assert_eq!(res.ret, Some(42));
        assert_eq!(res.mems[0][0], 7);
    }

    #[test]
    fn sequential_grid_matches_singles() {
        let tape = VlogTape::new(COUNTER).unwrap();
        let cases = [TestCase::args(&[3]), TestCase::args(&[9])];
        let keys = [KeyBits::zero(0)];
        let mems = BTreeMap::new();
        let grid = sim_core::GridExec::sequential().grid(
            &tape.with_mems(&mems),
            &cases,
            &keys,
            &SimOptions::default(),
        );
        for (case, got) in cases.iter().zip(&grid[0]) {
            let want = tape.simulate(&case.args, &keys[0], &[], &SimOptions::default()).unwrap();
            assert_eq!(got.as_ref().unwrap().ret, want.ret);
            assert_eq!(got.as_ref().unwrap().cycles, want.cycles);
        }
    }

    /// Tape-compiles the emitted Verilog of C function `top` in `src`.
    fn tape_of(src: &str, top: &str) -> VlogTape {
        let m = hls_frontend::compile(src, "t").expect("compile");
        let fsmd = hls_core::synthesize(&m, top, &hls_core::HlsOptions::default()).unwrap();
        VlogTape::new(&hls_core::verilog::emit(&fsmd)).expect("emitted text compiles")
    }

    /// Spins unless `n == 7`, storing a multi-cycle product every
    /// iteration: after a short pre-period every signal and memory word
    /// repeats every four iterations.
    const CHURN: &str = r#"
        int buf[4];
        int churn(int n) {
            int x = 1;
            int i = 0;
            while (n != 7) {
                buf[i] = x * 3;
                x = (x * 5) & 15;
                i = (i + 1) & 3;
            }
            return x;
        }
    "#;

    #[test]
    fn fast_forward_matches_the_traced_run_at_every_budget() {
        // `run` fast-forwards a run that loops; `run_traced` simulates
        // every cycle. Every budget up to 300 covers the pre-period and
        // the budgets on and one past each of the first period
        // boundaries; the far window covers them after many laps.
        let tape = tape_of(CHURN, "churn");
        let (mut fast, mut slow) = (tape.runner(), tape.runner());
        let key = KeyBits::zero(0);
        for max_cycles in (0..=300).chain(20_000..20_060) {
            for snapshot_on_timeout in [false, true] {
                let opts = SimOptions { max_cycles, snapshot_on_timeout };
                for n in [0, 7] {
                    let got = fast.run(&[n], &key, &[], &opts);
                    let want = slow.run_traced(&[n], &key, &[], &opts, |_, _, _| {});
                    assert_eq!(got, want, "n {n}, {opts:?}");
                    // An error leaves no result behind; a run that
                    // returns one must match in every register and
                    // memory word.
                    if got.is_ok() {
                        assert_eq!(fast.regs(), slow.regs(), "n {n}, {opts:?}");
                        assert_eq!(fast.mems(), slow.mems(), "n {n}, {opts:?}");
                    }
                }
            }
        }
        // The loop is caught (a run of 2^40 cycles would not return).
        let far = SimOptions { max_cycles: 1 << 40, snapshot_on_timeout: true };
        assert_eq!(fast.run(&[0], &key, &[], &far).unwrap().cycles, 1 << 40);
    }

    #[test]
    fn a_trillion_cycle_budget_lands_on_the_closed_form() {
        let tape = tape_of(
            "int toggle(int n) { int x = 0; while (n != 7) { x = 1 - x; } return x; }",
            "toggle",
        );
        let mut runner = tape.runner();
        let key = KeyBits::zero(0);
        // From the traced run: the register holding `x` flips every
        // `lap` cycles from cycle `first` on, so after cycle `t ≥ first`
        // it holds `((t − first) / lap + 1) mod 2`.
        let mut trace = Vec::new();
        let opts = SimOptions { max_cycles: 400, snapshot_on_timeout: true };
        runner.run_traced(&[0], &key, &[], &opts, |_, regs, _| trace.push(regs.to_vec())).unwrap();
        let x = (0..trace[0].len())
            .find(|&r| {
                trace.iter().all(|regs| regs[r] <= 1)
                    && trace.iter().filter(|regs| regs[r] == 1).count() > 50
            })
            .expect("a register toggles");
        let flips: Vec<u64> = (1..trace.len())
            .filter(|&t| trace[t][x] != trace[t - 1][x])
            .map(|t| t as u64 + 1)
            .collect();
        let (first, lap) = (flips[0], flips[1] - flips[0]);
        let closed = |t: u64| if t < first { 0 } else { ((t - first) / lap + 1) % 2 };
        for (t, regs) in trace.iter().enumerate() {
            assert_eq!(regs[x], closed(t as u64 + 1), "cycle {}", t + 1);
        }
        for budget in [1_000_000_000_000u64, 1_000_000_000_001] {
            let opts = SimOptions { max_cycles: budget, snapshot_on_timeout: true };
            let stats = runner.run(&[0], &key, &[], &opts).unwrap();
            assert_eq!((stats.cycles, stats.timed_out), (budget, true));
            assert_eq!(runner.regs()[x], closed(budget));
            let opts = SimOptions { max_cycles: budget, snapshot_on_timeout: false };
            assert_eq!(runner.run(&[0], &key, &[], &opts), Err(SimError::CycleLimit));
        }
    }
}
