//! Compiled FSMD simulation: the tape backend.
//!
//! [`crate::simulate`] walks the [`Fsmd`] structure directly: every cycle
//! it indexes the state's micro-ops, selects the key-driven DFG variant
//! per op, and decrypts key-XORed constants bit by bit via
//! [`KeyBits::range`]. That is correct but wasteful in the loops that
//! dominate the reproduction — corruptibility sweeps, oracle-guided
//! attacks and DSE sign-off all run the *same design* under *many keys
//! and stimuli*.
//!
//! [`CompiledFsmd`] flattens the design once: every `(state, variant)`
//! micro-op list becomes a contiguous slice of a single op arena with
//! resolved latencies and register masks. [`FsmdRunner`] then binds a
//! working key once (decrypting every constant, selecting every state's
//! variant slice, resolving every branch's key-bit XOR) and reuses its
//! register/memory/pending buffers across runs, so the per-cycle loop is
//! a linear walk over plain slices — no per-read key-bit loops, no
//! per-cycle allocation, no `mems` clone for discarded results.
//!
//! [`FsmdRunner::run`] also fast-forwards a run that provably loops. The
//! state of a run is its FSM state, every register, every memory some op
//! stores to, and the pending multi-cycle results with their due cycles
//! taken relative to the current one. A [`LoopDetector`] snapshots it on
//! Brent's schedule; the FSM state is the filter word compared after
//! every transition. When the state recurs before the design finishes,
//! the run repeats that lap until its budget, so the runner returns
//! `CycleLimit` at once, or, with `snapshot_on_timeout`, advances the
//! cycle counter (and the pending due cycles) by the whole laps that fit
//! and simulates only the remainder. [`FsmdRunner::run_traced`] is the
//! same loop with the check compiled out, so its observer sees every
//! cycle.
//!
//! The backend is bit-for-bit and cycle-for-cycle identical to
//! [`crate::simulate`], including error and snapshot-on-timeout
//! behaviour; `tests/prop_vlog.rs` proves it on random kernels × stimuli
//! × keys, wrong keys that loop included.

use crate::sim::{wrap_index, SimError, SimOptions, SimResult, SimStats};
use crate::testbench::{OutputImage, TestCase};
use hls_core::{Fsmd, FuOp, KeyBits, KeyRange, NextState};
use hls_ir::{ArrayId, Type};
use sim_core::LoopDetector;
use std::collections::BTreeMap;

/// Operand source with the constant index pre-resolved into the runner's
/// decrypted-constant table.
#[derive(Debug, Clone, Copy)]
enum TSrc {
    Reg(u32),
    Const(u32),
    None,
}

/// One flattened micro-operation (one alternative of one FSMD micro-op).
#[derive(Debug, Clone, Copy)]
struct TOp {
    op: FuOp,
    ty: Type,
    /// Destination register (`u32::MAX` = discarded result / store).
    dst: u32,
    a: TSrc,
    b: TSrc,
    latency: u8,
}

/// Next-state logic with compile-time structure (key bit resolved at
/// bind time into [`FsmdRunner::branch_xor`]).
#[derive(Debug, Clone, Copy)]
enum TNext {
    Goto(u32),
    Branch { test: u32, then_s: u32, else_s: u32 },
    Done,
}

#[derive(Debug, Clone)]
struct TState {
    /// First entry in [`CompiledFsmd::variants`] for this state.
    var_base: u32,
    /// Number of variant slices (1 for unobfuscated states).
    n_variants: u32,
    variant_key: Option<KeyRange>,
    branch_key_bit: Option<u32>,
    next: TNext,
}

#[derive(Debug, Clone)]
struct TMem {
    name: String,
    elem_ty: Type,
    len: usize,
    init: Option<Vec<u64>>,
    external: bool,
    written: bool,
}

/// Constant-store entry with the decryption recipe resolved.
#[derive(Debug, Clone, Copy)]
struct TConst {
    bits: u64,
    key_xor: Option<KeyRange>,
    mask: u64,
}

/// A compiled FSMD: the design flattened into an op arena with one
/// contiguous slice per `(state, DFG variant)` pair. Compile once with
/// [`CompiledFsmd::compile`], then run stimuli through [`FsmdRunner`]
/// (or the one-shot [`CompiledFsmd::simulate`]).
#[derive(Debug, Clone)]
pub struct CompiledFsmd {
    states: Vec<TState>,
    /// `(start, len)` slices into `ops`, indexed via `TState::var_base`.
    variants: Vec<(u32, u32)>,
    ops: Vec<TOp>,
    consts: Vec<TConst>,
    mems: Vec<TMem>,
    mem_of_array: BTreeMap<ArrayId, u32>,
    entry: u32,
    params: Vec<u32>,
    ret_reg: Option<u32>,
    ret_ty: Option<Type>,
    reg_masks: Vec<u64>,
    key_width: u32,
}

impl CompiledFsmd {
    /// Flattens `fsmd` into the tape form. Cost is linear in
    /// `Σ states × variants × ops` — negligible next to a single
    /// simulation run.
    pub fn compile(fsmd: &Fsmd) -> CompiledFsmd {
        let mut ops = Vec::new();
        let mut variants = Vec::new();
        let mut states = Vec::with_capacity(fsmd.states.len());
        for st in &fsmd.states {
            let n_variants = st.variant_key.map(|kr| 1u32 << kr.width.min(20)).unwrap_or(1).max(1);
            let var_base = variants.len() as u32;
            for sel in 0..n_variants as usize {
                let start = ops.len() as u32;
                for op in &st.ops {
                    let alt = &op.alts[sel.min(op.alts.len() - 1)];
                    let latency = fsmd.fus[op.fu.0 as usize].kind.latency();
                    let src = |s: hls_core::Src| match s {
                        hls_core::Src::Reg(r) => TSrc::Reg(r.index() as u32),
                        hls_core::Src::Const(c) => TSrc::Const(c.0),
                    };
                    ops.push(TOp {
                        op: alt.op,
                        ty: op.ty,
                        dst: op.dst.map(|d| d.index() as u32).unwrap_or(u32::MAX),
                        a: src(alt.a),
                        b: alt.b.map(src).unwrap_or(TSrc::None),
                        latency: latency as u8,
                    });
                }
                variants.push((start, ops.len() as u32 - start));
            }
            let (branch_key_bit, next) = match st.next {
                NextState::Goto(t) => (None, TNext::Goto(t.0)),
                NextState::Branch { test, key_bit, then_s, else_s } => (
                    key_bit,
                    TNext::Branch { test: test.index() as u32, then_s: then_s.0, else_s: else_s.0 },
                ),
                NextState::Done => (None, TNext::Done),
            };
            states.push(TState {
                var_base,
                n_variants,
                variant_key: st.variant_key,
                branch_key_bit,
                next,
            });
        }

        let mut written = vec![false; fsmd.mems.len()];
        for op in &ops {
            if let FuOp::Store { mem } = op.op {
                written[mem.0 as usize] = true;
            }
        }
        let mems = fsmd
            .mems
            .iter()
            .zip(&written)
            .map(|(m, &w)| TMem {
                name: m.name.clone(),
                elem_ty: m.elem_ty,
                len: m.len,
                init: m.init.as_ref().map(|init| {
                    let mut data = vec![0u64; m.len];
                    for (i, v) in init.iter().enumerate().take(m.len) {
                        data[i] = m.elem_ty.truncate(*v);
                    }
                    data
                }),
                external: m.external,
                written: w,
            })
            .collect();

        CompiledFsmd {
            states,
            variants,
            ops,
            consts: fsmd
                .consts
                .iter()
                .map(|c| TConst {
                    bits: c.bits,
                    key_xor: c.key_xor,
                    mask: Type::int(c.storage_width.clamp(1, 64), false).mask(),
                })
                .collect(),
            mems,
            mem_of_array: fsmd.mem_of_array.iter().map(|(a, m)| (*a, m.0)).collect(),
            entry: fsmd.entry.0,
            params: fsmd.params.iter().map(|r| r.index() as u32).collect(),
            ret_reg: fsmd.ret_reg.map(|r| r.index() as u32),
            ret_ty: fsmd.ret_reg.map(|r| Type::int(fsmd.reg_widths[r.index()], false)),
            reg_masks: fsmd
                .reg_widths
                .iter()
                .map(|&w| Type::int(w.clamp(1, 64), false).mask())
                .collect(),
            key_width: fsmd.key_width,
        }
    }

    /// Declared working-key width.
    pub fn key_width(&self) -> u32 {
        self.key_width
    }

    /// Number of scalar argument ports.
    pub fn num_args(&self) -> usize {
        self.params.len()
    }

    /// A fresh batch runner borrowing this compiled design.
    pub fn runner(&self) -> FsmdRunner<'_> {
        FsmdRunner {
            c: self,
            regs: vec![0; self.reg_masks.len()],
            mems: self.mems.iter().map(|m| vec![0u64; m.len]).collect(),
            pending: Vec::new(),
            reg_writes: Vec::new(),
            mem_writes: Vec::new(),
            consts_dec: vec![0; self.consts.len()],
            sel_variant: vec![0; self.states.len()],
            branch_xor: vec![0; self.states.len()],
            bound_key: None,
            det: LoopDetector::default(),
            pending_rel: Vec::new(),
        }
    }

    /// One-shot run mirroring [`crate::simulate`] exactly (same results,
    /// same errors), without the per-call memory clone: the final memory
    /// images are moved into the returned [`SimResult`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interface mismatches or an exhausted cycle
    /// budget.
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
            mems: runner.mems,
            timed_out: stats.timed_out,
            regs: runner.regs,
        })
    }
}

impl sim_core::Simulator for CompiledFsmd {
    type Runner<'a> = FsmdRunner<'a>;

    fn new_runner(&self) -> FsmdRunner<'_> {
        self.runner()
    }
}

/// A [`CompiledFsmd`] under the name the `perfbench/` harness runs it by.
///
/// The harness builds one with [`SpecFsmd::from_compiled`] and runs
/// [`SpecFsmd::runner`], which is the tape's own [`FsmdRunner`]. The type
/// exists only for the benchmark, until its next change calls
/// [`CompiledFsmd`] directly; other code should use [`CompiledFsmd`].
#[derive(Debug)]
pub struct SpecFsmd(CompiledFsmd);

impl SpecFsmd {
    /// Wraps a compiled design.
    pub fn from_compiled(c: CompiledFsmd) -> SpecFsmd {
        SpecFsmd(c)
    }

    /// The wrapped design's [`CompiledFsmd::runner`].
    pub fn runner(&self) -> FsmdRunner<'_> {
        self.0.runner()
    }
}

impl sim_core::BatchRunner for FsmdRunner<'_> {
    fn run_case(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<SimStats, SimError> {
        FsmdRunner::run_case(self, case, key, opts)
    }

    fn outputs(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<(OutputImage, SimStats), SimError> {
        FsmdRunner::outputs(self, case, key, opts)
    }
}

/// Reusable simulation state for a [`CompiledFsmd`]: register, memory and
/// pending-write buffers plus the per-key binding (decrypted constants,
/// selected variant slices, resolved branch XORs). Create with
/// [`CompiledFsmd::runner`]; run many stimuli and keys through
/// [`FsmdRunner::run`] / [`FsmdRunner::run_case`] without reallocating.
#[derive(Debug, Clone)]
pub struct FsmdRunner<'a> {
    c: &'a CompiledFsmd,
    regs: Vec<u64>,
    mems: Vec<Vec<u64>>,
    pending: Vec<(u64, u32, u64)>,
    reg_writes: Vec<(u32, u64)>,
    mem_writes: Vec<(u32, u32, u64)>,
    consts_dec: Vec<u64>,
    sel_variant: Vec<u32>,
    branch_xor: Vec<u64>,
    bound_key: Option<KeyBits>,
    /// Brent's snapshots of the untraced run path (see [`sim_core::loops`]).
    det: LoopDetector,
    /// `pending` with due cycles relative to the current one, the form in
    /// which the loop detector stores and compares it.
    pending_rel: Vec<u64>,
}

impl FsmdRunner<'_> {
    /// Binds `key`: decrypts the constant store, selects every state's
    /// variant slice and resolves branch key bits. Skipped when the key
    /// is already bound (the common batch pattern: one key, many
    /// stimuli).
    fn bind(&mut self, key: &KeyBits) {
        if self.bound_key.as_ref() == Some(key) {
            return;
        }
        for (dst, c) in self.consts_dec.iter_mut().zip(&self.c.consts) {
            *dst = match c.key_xor {
                None => c.bits,
                Some(kr) => (c.bits ^ key.range(kr)) & c.mask,
            };
        }
        for (i, st) in self.c.states.iter().enumerate() {
            let sel = st.variant_key.map(|kr| key.range(kr)).unwrap_or(0) as u32;
            self.sel_variant[i] = st.var_base + sel.min(st.n_variants - 1);
            self.branch_xor[i] = st.branch_key_bit.map(|kb| key.bit(kb) as u64).unwrap_or(0);
        }
        self.bound_key = Some(key.clone());
    }

    /// Runs one stimulus, mirroring [`crate::simulate`] bit for bit and
    /// cycle for cycle. Memory overrides borrow their contents; read the
    /// final images through [`FsmdRunner::mems`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interface mismatches or an exhausted cycle
    /// budget (unless `opts.snapshot_on_timeout`).
    pub fn run(
        &mut self,
        args: &[u64],
        key: &KeyBits,
        mem_overrides: &[(usize, &[u64])],
        opts: &SimOptions,
    ) -> Result<SimStats, SimError> {
        self.run_inner::<true, _>(args, key, mem_overrides, opts, |_, _, _| {})
    }

    /// [`FsmdRunner::run`] with a per-cycle change observer: after every
    /// clock edge, `on_cycle(cycle, regs, done)` receives the 1-based
    /// cycle count, the post-edge register file and whether the
    /// controller finished this cycle. The VCD tracer ([`crate::vcd`])
    /// records waveforms from these change records in a single pass
    /// instead of replaying the design state by state; the untraced
    /// [`FsmdRunner::run`] passes a no-op observer that monomorphizes
    /// away.
    ///
    /// Cycles cut off by the budget never reach the observer — their
    /// clock edge did not happen. The observer sees every cycle: this
    /// path never fast-forwards a run that loops.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interface mismatches or an exhausted cycle
    /// budget (unless `opts.snapshot_on_timeout`).
    pub fn run_traced<F>(
        &mut self,
        args: &[u64],
        key: &KeyBits,
        mem_overrides: &[(usize, &[u64])],
        opts: &SimOptions,
        on_cycle: F,
    ) -> Result<SimStats, SimError>
    where
        F: FnMut(u64, &[u64], bool),
    {
        self.run_inner::<false, _>(args, key, mem_overrides, opts, on_cycle)
    }

    /// The cycle loop of [`FsmdRunner::run`] (`DETECT`: fast-forwards a
    /// run whose full state recurs) and [`FsmdRunner::run_traced`] (the
    /// same loop with the check compiled out).
    fn run_inner<const DETECT: bool, F>(
        &mut self,
        args: &[u64],
        key: &KeyBits,
        mem_overrides: &[(usize, &[u64])],
        opts: &SimOptions,
        mut on_cycle: F,
    ) -> Result<SimStats, SimError>
    where
        F: FnMut(u64, &[u64], bool),
    {
        let c = self.c;
        if args.len() != c.params.len() {
            return Err(SimError::ArityMismatch { expected: c.params.len(), got: args.len() });
        }
        if key.width() != c.key_width {
            return Err(SimError::KeyWidthMismatch { expected: c.key_width, got: key.width() });
        }
        self.bind(key);

        // Reset: registers zero, memories at init image, then overrides.
        self.regs.iter_mut().for_each(|r| *r = 0);
        for (data, m) in self.mems.iter_mut().zip(&c.mems) {
            match &m.init {
                Some(init) => data.copy_from_slice(init),
                None => data.iter_mut().for_each(|v| *v = 0),
            }
        }
        for (idx, contents) in mem_overrides {
            let (data, ty) = (&mut self.mems[*idx], c.mems[*idx].elem_ty);
            for (slot, v) in data.iter_mut().zip(contents.iter()) {
                *slot = ty.truncate(*v);
            }
        }
        for (&reg, &val) in c.params.iter().zip(args) {
            self.regs[reg as usize] = val & c.reg_masks[reg as usize];
        }
        self.pending.clear();

        let mut state = c.entry as usize;
        let mut cycles = 0u64;
        // Brent's snapshot schedule rides on the budget compare: `limit`
        // is the budget or the next snapshot cycle, whichever comes
        // first. `filt` is the snapshot's FSM state, the detector's
        // filter word.
        let mut limit =
            if DETECT { opts.max_cycles.min(self.det.start()) } else { opts.max_cycles };
        let mut filt = usize::MAX;
        loop {
            cycles += 1;
            if cycles > limit {
                if !DETECT || cycles > opts.max_cycles {
                    if opts.snapshot_on_timeout {
                        return Ok(SimStats {
                            ret: c.ret_reg.map(|r| self.regs[r as usize]),
                            cycles: cycles - 1,
                            timed_out: true,
                        });
                    }
                    return Err(SimError::CycleLimit);
                }
                limit = opts.max_cycles.min(self.snapshot(state, cycles - 1));
                filt = state;
            }
            let (start, len) = c.variants[self.sel_variant[state] as usize];
            let ops = &c.ops[start as usize..(start + len) as usize];

            // Evaluate phase (reads see start-of-cycle values).
            self.reg_writes.clear();
            self.mem_writes.clear();
            for op in ops {
                let read = |s: TSrc| -> u64 {
                    match s {
                        TSrc::Reg(r) => self.regs[r as usize],
                        TSrc::Const(ci) => self.consts_dec[ci as usize],
                        TSrc::None => 0,
                    }
                };
                let a = read(op.a);
                let v = match op.op {
                    FuOp::Bin(bop) => bop.eval(op.ty, a, read(op.b)),
                    FuOp::Un(uop) => uop.eval(op.ty, a),
                    FuOp::Cmp(pred) => pred.eval(op.ty, a, read(op.b)) as u64,
                    FuOp::Pass => op.ty.truncate(a),
                    FuOp::Conv { from, to } => from.convert_to(a, to),
                    FuOp::Load { mem } => {
                        let m = &self.mems[mem.0 as usize];
                        op.ty.truncate(m[wrap_index(a, m.len())])
                    }
                    FuOp::Store { mem } => {
                        let len = self.mems[mem.0 as usize].len();
                        self.mem_writes.push((
                            mem.0,
                            wrap_index(a, len) as u32,
                            op.ty.truncate(read(op.b)),
                        ));
                        continue;
                    }
                };
                if op.dst != u32::MAX {
                    if op.latency <= 1 {
                        self.reg_writes.push((op.dst, v));
                    } else {
                        self.pending.push((cycles + op.latency as u64 - 1, op.dst, v));
                    }
                }
            }

            // Next-state decision over pre-edge register values.
            let st = &c.states[state];
            let next = match st.next {
                TNext::Goto(t) => Some(t as usize),
                TNext::Branch { test, then_s, else_s } => {
                    let t = (self.regs[test as usize] & 1) ^ self.branch_xor[state];
                    Some(if t == 1 { then_s as usize } else { else_s as usize })
                }
                TNext::Done => None,
            };

            // Clock edge: single-cycle writes in op order, then due
            // multi-cycle results, then memory writes.
            for &(r, v) in &self.reg_writes {
                self.regs[r as usize] = v & c.reg_masks[r as usize];
            }
            if !self.pending.is_empty() {
                let (regs, masks) = (&mut self.regs, &c.reg_masks);
                self.pending.retain(|&(due, r, v)| {
                    if due == cycles {
                        regs[r as usize] = v & masks[r as usize];
                        false
                    } else {
                        true
                    }
                });
            }
            for &(m, i, v) in &self.mem_writes {
                self.mems[m as usize][i as usize] = v;
            }

            on_cycle(cycles, &self.regs, next.is_none());

            match next {
                Some(t) => {
                    state = t;
                    if DETECT && t == filt {
                        if let Some(at) = self.fast_forward(t, cycles, opts.max_cycles) {
                            // The state after `cycles` recurs: the run
                            // never finishes, and at cycle `at` it is
                            // here again.
                            if !opts.snapshot_on_timeout {
                                return Err(SimError::CycleLimit);
                            }
                            cycles = at;
                            limit = opts.max_cycles;
                        }
                    }
                }
                None => {
                    return Ok(SimStats {
                        ret: c.ret_reg.map(|r| self.regs[r as usize]),
                        cycles,
                        timed_out: false,
                    });
                }
            }
        }
    }

    /// Snapshots the state after `cycle` (FSM state, registers, written
    /// memories, pending results) and returns the next snapshot cycle.
    #[cold]
    #[inline(never)]
    fn snapshot(&mut self, state: usize, cycle: u64) -> u64 {
        let FsmdRunner { c, regs, mems, pending, det, pending_rel, .. } = self;
        relative_pending(pending_rel, pending, cycle);
        det.snapshot(cycle, state as u64, regs, written_mems(c, mems).chain([&pending_rel[..]]))
    }

    /// When the state after `cycle` equals the snapshot, skips the whole
    /// laps that fit in `budget` (see [`LoopDetector::skip`]) and
    /// returns the cycle it lands on. Memories no op stores to are
    /// constant within a run, so they are left out of the state.
    #[cold]
    #[inline(never)]
    fn fast_forward(&mut self, state: usize, cycle: u64, budget: u64) -> Option<u64> {
        let FsmdRunner { c, regs, mems, pending, det, pending_rel, .. } = self;
        let skip = det.skip(cycle, budget, state as u64, regs, || {
            relative_pending(pending_rel, pending, cycle);
            let rel: &[u64] = pending_rel;
            written_mems(c, mems).chain([rel])
        })?;
        for p in pending.iter_mut() {
            p.0 += skip;
        }
        Some(cycle + skip)
    }

    /// Runs an `rtl::TestCase`, resolving array inputs through the
    /// design's memory map without cloning their contents.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`FsmdRunner::run`].
    pub fn run_case(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<SimStats, SimError> {
        let overrides: Vec<(usize, &[u64])> = case
            .mem_inputs
            .iter()
            .map(|(id, data)| (self.c.mem_of_array[id] as usize, data.as_slice()))
            .collect();
        self.run(&case.args, key, &overrides, opts)
    }

    /// Runs a test case and assembles the observable [`OutputImage`]
    /// (return value + written external memories), mirroring
    /// [`crate::rtl_outputs`] on the tape backend.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`FsmdRunner::run`].
    pub fn outputs(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<(OutputImage, SimStats), SimError> {
        let stats = self.run_case(case, key, opts)?;
        Ok((self.image(&stats), stats))
    }

    /// The observable [`OutputImage`] of the last run (return value +
    /// written external memories). Only the output memories are cloned.
    pub fn image(&self, stats: &SimStats) -> OutputImage {
        let ret = stats.ret.zip(self.c.ret_ty);
        let mems = self
            .c
            .mems
            .iter()
            .zip(&self.mems)
            .filter(|(m, _)| m.external && m.written)
            .map(|(m, data)| (m.name.clone(), m.elem_ty, data.clone()))
            .collect();
        OutputImage { ret, mems }
    }

    /// Final memory images of the last run (indexed like `Fsmd::mems`).
    /// After a run that returned an error they hold wherever it stopped:
    /// a run that provably loops stops before its budget.
    pub fn mems(&self) -> &[Vec<u64>] {
        &self.mems
    }

    /// Final register values of the last run (after an error, see
    /// [`FsmdRunner::mems`]).
    pub fn regs(&self) -> &[u64] {
        &self.regs
    }

    /// Assembles a full [`SimResult`] from the last run's state (clones
    /// memories and registers — use only when the caller keeps them).
    pub fn to_result(&self, stats: &SimStats) -> SimResult {
        SimResult {
            ret: stats.ret,
            cycles: stats.cycles,
            mems: self.mems.clone(),
            timed_out: stats.timed_out,
            regs: self.regs.clone(),
        }
    }
}

/// The images of the memories some op stores to, in memory order.
fn written_mems<'a>(c: &'a CompiledFsmd, mems: &'a [Vec<u64>]) -> impl Iterator<Item = &'a [u64]> {
    mems.iter().zip(&c.mems).filter(|(_, m)| m.written).map(|(d, _)| d.as_slice())
}

/// Encodes `pending` as its length, then `(due − cycle, reg, value)` per
/// result in order: two states with equal encodings apply the same writes
/// at the same offsets from now.
fn relative_pending(out: &mut Vec<u64>, pending: &[(u64, u32, u64)], cycle: u64) {
    out.clear();
    out.push(pending.len() as u64);
    for &(due, r, v) in pending {
        out.extend([due - cycle, u64::from(r), v]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::testbench::{golden_outputs, images_equal, rtl_outputs};
    use hls_core::{synthesize, HlsOptions};

    fn synth(src: &str, top: &str) -> Fsmd {
        let m = hls_frontend::compile(src, "t").expect("compile");
        synthesize(&m, top, &HlsOptions::default()).expect("synthesize")
    }

    #[test]
    fn tape_matches_tree_on_loop_kernel() {
        let fsmd = synth(
            "int sum(int n) { int s = 0; for (int i = 0; i < n; i++) s += i * i; return s; }",
            "sum",
        );
        let c = CompiledFsmd::compile(&fsmd);
        for n in [0u64, 1, 5, 33] {
            let want =
                simulate(&fsmd, &[n], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
            let got = c.simulate(&[n], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn tape_matches_tree_on_memory_kernel_with_overrides() {
        let src = r#"
            int buf[4];
            int out[4];
            void scale(int k) { for (int i = 0; i < 4; i++) out[i] = buf[i] * k; }
        "#;
        let fsmd = synth(src, "scale");
        let c = CompiledFsmd::compile(&fsmd);
        let overrides = vec![(0usize, vec![5u64, 6, 7, 8]), (1, vec![0; 4])];
        // Drive whichever index holds `buf`; both backends see the same.
        let want =
            simulate(&fsmd, &[3], &KeyBits::zero(0), &overrides, &SimOptions::default()).unwrap();
        let got = c.simulate(&[3], &KeyBits::zero(0), &overrides, &SimOptions::default()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn tape_matches_tree_errors_and_snapshots() {
        let fsmd =
            synth("int spin(int n) { int s = 0; while (s < n) { s = s - 1; } return s; }", "spin");
        let c = CompiledFsmd::compile(&fsmd);
        let tight = SimOptions { max_cycles: 500, snapshot_on_timeout: false };
        assert_eq!(
            c.simulate(&[5], &KeyBits::zero(0), &[], &tight).unwrap_err(),
            simulate(&fsmd, &[5], &KeyBits::zero(0), &[], &tight).unwrap_err(),
        );
        let snap = SimOptions { max_cycles: 500, snapshot_on_timeout: true };
        assert_eq!(
            c.simulate(&[5], &KeyBits::zero(0), &[], &snap).unwrap(),
            simulate(&fsmd, &[5], &KeyBits::zero(0), &[], &snap).unwrap(),
        );
        // Interface errors too.
        assert!(matches!(
            c.simulate(&[], &KeyBits::zero(0), &[], &SimOptions::default()),
            Err(SimError::ArityMismatch { .. })
        ));
        assert!(matches!(
            c.simulate(&[1], &KeyBits::zero(7), &[], &SimOptions::default()),
            Err(SimError::KeyWidthMismatch { .. })
        ));
    }

    #[test]
    fn runner_reuse_is_stateless_across_runs() {
        let fsmd = synth("int f(int a, int b) { return (a + b) * (a - b); }", "f");
        let c = CompiledFsmd::compile(&fsmd);
        let mut runner = c.runner();
        let one = runner.run(&[9, 4], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        // A second, different run must not see stale state.
        let two = runner.run(&[2, 1], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        let fresh = c.simulate(&[2, 1], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        assert_eq!(two.ret, fresh.ret);
        assert_eq!(two.cycles, fresh.cycles);
        assert_ne!(one.ret, two.ret);
    }

    #[test]
    fn outputs_match_rtl_outputs() {
        let src = r#"
            int data[4] = {3, 1, 4, 1};
            int out[4];
            void dbl() { for (int i = 0; i < 4; i++) out[i] = data[i] * 2; }
        "#;
        let m = hls_frontend::compile(src, "t").unwrap();
        let fsmd = synthesize(&m, "dbl", &HlsOptions::default()).unwrap();
        let c = CompiledFsmd::compile(&fsmd);
        let case = TestCase::args(&[]);
        let golden = golden_outputs(&m, "dbl", &case);
        let (want, _) =
            rtl_outputs(&fsmd, &case, &KeyBits::zero(0), &SimOptions::default()).unwrap();
        let mut runner = c.runner();
        let (got, _) = runner.outputs(&case, &KeyBits::zero(0), &SimOptions::default()).unwrap();
        assert_eq!(got, want);
        assert!(images_equal(&golden, &got));
    }

    #[test]
    fn sequential_grid_matches_singles() {
        let fsmd = synth("int f(int a) { return a * 3 + 1; }", "f");
        let c = CompiledFsmd::compile(&fsmd);
        let cases = [TestCase::args(&[1]), TestCase::args(&[10])];
        let keys = [KeyBits::zero(0)];
        let grid = sim_core::GridExec::sequential().grid(&c, &cases, &keys, &SimOptions::default());
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].len(), 2);
        for (case, got) in cases.iter().zip(&grid[0]) {
            let want = simulate(&fsmd, &case.args, &keys[0], &[], &SimOptions::default()).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(got.ret, want.ret);
            assert_eq!(got.cycles, want.cycles);
        }
    }

    /// Spins unless `n == 7`, storing a multi-cycle product every
    /// iteration: after a short pre-period the full state (FSM state,
    /// `x`, `i`, `buf`, the pending products) repeats every four
    /// iterations.
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

    /// Spins unless `n == 7`, toggling `x` every iteration.
    const TOGGLE: &str = "int toggle(int n) { int x = 0; while (n != 7) { x = 1 - x; } return x; }";

    #[test]
    fn fast_forward_matches_the_traced_run_at_every_budget() {
        // `run` fast-forwards a run that loops; `run_traced` simulates
        // every cycle. Every budget up to 300 covers the pre-period and
        // the budgets on and one past each of the first period
        // boundaries; the far window covers them after many laps.
        let fsmd = synth(CHURN, "churn");
        let c = CompiledFsmd::compile(&fsmd);
        let (mut fast, mut slow) = (c.runner(), c.runner());
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

    /// The register file after each cycle of a traced `len`-cycle run.
    fn trace_regs(runner: &mut FsmdRunner<'_>, len: u64) -> Vec<Vec<u64>> {
        let mut trace = Vec::new();
        let opts = SimOptions { max_cycles: len, snapshot_on_timeout: true };
        runner
            .run_traced(&[0], &KeyBits::zero(0), &[], &opts, |_, regs, _| trace.push(regs.to_vec()))
            .unwrap();
        trace
    }

    #[test]
    fn a_trillion_cycle_budget_lands_on_the_closed_form() {
        let fsmd = synth(TOGGLE, "toggle");
        let c = CompiledFsmd::compile(&fsmd);
        let mut runner = c.runner();
        // From the traced run: the register holding `x` flips every
        // `lap` cycles from cycle `first` on, so after cycle `t ≥ first`
        // it holds `((t − first) / lap + 1) mod 2`.
        let trace = trace_regs(&mut runner, 400);
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
            let stats = runner.run(&[0], &KeyBits::zero(0), &[], &opts).unwrap();
            assert_eq!((stats.cycles, stats.timed_out), (budget, true));
            assert_eq!(runner.regs()[x], closed(budget));
            let opts = SimOptions { max_cycles: budget, snapshot_on_timeout: false };
            assert_eq!(runner.run(&[0], &KeyBits::zero(0), &[], &opts), Err(SimError::CycleLimit));
        }
    }
}
