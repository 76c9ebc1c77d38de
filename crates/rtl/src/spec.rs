//! Bind-time specialization: lowering a bound-key tape to threaded code.
//!
//! The [`crate::tape`] backend already flattens the FSMD once and binds a
//! working key once, but its cycle loop still pays interpreter dispatch
//! on every micro-op: a `match` over [`FuOp`], a nested `match` inside
//! `BinOp::eval`, two `match`es decoding [`TSrc`] operands, a
//! `reg_masks` lookup and a buffered `reg_writes` push/drain per write.
//! None of that work depends on the stimulus — it is all decided by the
//! design and the key. [`SpecFsmd`] therefore runs a **bind-time
//! lowering pipeline** per `(design, key)` and emits a *threaded-code*
//! program of plain function pointers with pre-resolved operand indices:
//!
//! 1. **Decrypt-constant folding** — every key-XORed constant is
//!    decrypted once into a unified value array shared with the register
//!    file, so constant operands become plain indexed reads (and ops
//!    whose inputs are all constants fold to a single precomputed
//!    immediate store).
//! 2. **Untaken-variant-arm elision** — only the key-selected DFG
//!    variant slice of each state is lowered; the other arms never
//!    reach the program.
//! 3. **Dead-op / dead-state elimination** — ops whose result is
//!    discarded (`dst == u32::MAX`, non-store) are dropped, and states
//!    unreachable from the entry under the bound control graph are
//!    never lowered.
//! 4. **Copy propagation / write-hazard routing** — a register written
//!    by a state is only routed through a scratch slot (plus one
//!    end-of-state copyback) when a *later* op of the same state reads
//!    it; the common case writes the destination directly, eliminating
//!    the per-cycle write buffer entirely.
//! 5. **Superinstruction fusion** — branch key-bit XORs are pre-applied
//!    by swapping branch targets, each handler fuses
//!    evaluate+mask+commit into one call, and adjacent immediate stores
//!    / copybacks merge pairwise into two-target superinstructions.
//!
//! The result implements the same [`sim_core::Simulator`] /
//! [`sim_core::BatchRunner`] contract as the tape backends, so
//! `GridExec`, differential verification, the attacks and DSE ride it
//! unchanged — and it stays **bit-for-bit and cycle-for-cycle
//! identical** to [`crate::simulate`] (errors and snapshot-on-timeout
//! included), which `tests/prop_vlog.rs` proves five-way against both
//! tree walkers and both tapes on random kernels × stimuli × keys.
//!
//! The architecture mirrors a classic hybrid AOT+bytecode pipeline:
//! compile the design once ([`CompiledFsmd`]), lower per key at bind
//! time, then dispatch through an indirect call per op — no per-op
//! `match` anywhere on the hot path.

use crate::sim::{wrap_index, SimError, SimOptions, SimResult, SimStats};
use crate::tape::{CompiledFsmd, TNext, TOp, TSrc};
use crate::testbench::{OutputImage, TestCase};
use hls_core::{Fsmd, FuOp, KeyBits};
use hls_ir::{BinOp, CmpPred, Type, UnOp};

/// One threaded-code handler: the op's whole evaluate+mask+commit step.
type Handler = fn(&mut Frame<'_>, &SpecOp);

/// One lowered operation with pre-resolved operand indices. `a`/`b`/`dst`
/// index the unified value array (registers, decrypted constants, the
/// zero slot and scratch share one address space); `mask` is the op's
/// combined result mask (operation width ∧ destination width) baked in
/// at lowering time, so no handler computes a type mask at run time.
#[derive(Debug, Clone, Copy)]
struct SpecOp {
    f: Handler,
    a: u32,
    b: u32,
    dst: u32,
    /// Memory index (loads/stores).
    mem: u32,
    /// `latency - 1` for multi-cycle (pending) flavors.
    lat: u32,
    /// Operation type (`eval`-based handlers: Div/Rem only).
    ty: Type,
    /// Handler-specific bind-time constant: folded-constant value
    /// (`h_imm*`), operand type mask (compares, stores), sign-extension
    /// shift (signed compares/shifts/conversions), operation width
    /// (shifts), or second source index (fused copybacks).
    imm: u64,
    /// Combined result mask; second immediate for fused immediate stores.
    mask: u64,
}

/// Bound control decision, key XOR pre-applied by target swap.
#[derive(Debug, Clone, Copy)]
enum SCtrl {
    Goto(u32),
    Branch { then_s: u32, else_s: u32 },
    Done,
}

/// Sentinel successor marking design completion ([`SCtrl::Done`]).
const DONE: u32 = u32::MAX;

/// One specialized state: a slice of the threaded program plus the
/// resolved control decision, flattened for branchless dispatch — a
/// `Goto` stores the same target twice, `Done` stores [`DONE`] twice,
/// and the run loop selects on the captured branch bit unconditionally.
#[derive(Debug, Clone, Copy)]
struct SState {
    start: u32,
    end: u32,
    then_s: u32,
    else_s: u32,
}

/// Mutable execution state threaded through the handlers.
struct Frame<'f> {
    /// `[registers | decrypted constants | zero slot | scratch]`.
    vals: &'f mut [u64],
    mems: &'f mut [Vec<u64>],
    /// In-flight results of ops with latency ≥ 3: `(due cycle, reg,
    /// value)`, scanned against the cycle counter at every edge.
    pending: &'f mut Vec<(u64, u32, u64)>,
    /// Latency-2 results landing at the *next* edge (`(reg, value)`).
    /// The common multi-cycle case (pipelined multipliers): bind-time
    /// latency dispatch sends them here so the edge applies them with no
    /// due-cycle compares, then swaps this buffer with [`Frame::land`].
    land_next: &'f mut Vec<(u32, u64)>,
    /// Latency-2 results landing at *this* edge.
    land: &'f mut Vec<(u32, u64)>,
    /// Buffered stores: `(mem, index, value)`, applied at the edge.
    mem_writes: &'f mut Vec<(u32, u32, u64)>,
    cycle: u64,
    /// Captured branch-test bit (pre-edge).
    branch: u64,
}

// ------------------------------------------------------------- handlers
//
// One monomorphized handler per (operation, write flavor): `_d` writes
// the destination slot directly (single-cycle results, mask baked in),
// `_p` pushes a pre-masked pending write due `lat` cycles later. Type
// legalization happens at bind time: `op.mask` carries the combined
// operation∧destination mask and `op.imm` the operand mask / extension
// shift / width the operation needs, so the handlers never touch
// [`Type`] — only Div/Rem (where the division itself dominates) still
// go through `eval`.
//
// Wrapping add/sub/mul/neg and the bitwise ops commute with low-bit
// truncation, so operands are used raw and only the result is masked.
// Compares and shift *amounts* see the operand type's value range, so
// they re-truncate (`& op.imm`) or sign-extend (shift pair by `op.imm`)
// their inputs exactly as `eval` does.

macro_rules! alu {
    ($d:ident, $p:ident, $l:ident, $c:ident, |$op:ident, $a:ident, $b:ident| $v:expr) => {
        fn $d(f: &mut Frame<'_>, $op: &SpecOp) {
            let $a = f.vals[$op.a as usize];
            let $b = f.vals[$op.b as usize];
            f.vals[$op.dst as usize] = ($v) & $op.mask;
        }
        fn $p(f: &mut Frame<'_>, $op: &SpecOp) {
            let $a = f.vals[$op.a as usize];
            let $b = f.vals[$op.b as usize];
            let v = ($v) & $op.mask;
            f.pending.push((f.cycle + $op.lat as u64, $op.dst, v));
        }
        fn $l(f: &mut Frame<'_>, $op: &SpecOp) {
            let $a = f.vals[$op.a as usize];
            let $b = f.vals[$op.b as usize];
            let v = ($v) & $op.mask;
            f.land_next.push(($op.dst, v));
        }
        /// Direct flavor fused with the branch-test capture: `lat`
        /// carries the test-register index (free in direct flavors).
        fn $c(f: &mut Frame<'_>, $op: &SpecOp) {
            let $a = f.vals[$op.a as usize];
            let $b = f.vals[$op.b as usize];
            f.vals[$op.dst as usize] = ($v) & $op.mask;
            f.branch = f.vals[$op.lat as usize] & 1;
        }
    };
}

alu!(h_add_d, h_add_p, h_add_l, h_add_c, |_op, a, b| a.wrapping_add(b));
alu!(h_sub_d, h_sub_p, h_sub_l, h_sub_c, |_op, a, b| a.wrapping_sub(b));
alu!(h_mul_d, h_mul_p, h_mul_l, h_mul_c, |_op, a, b| a.wrapping_mul(b));
alu!(h_div_d, h_div_p, h_div_l, h_div_c, |op, a, b| BinOp::Div.eval(op.ty, a, b));
alu!(h_rem_d, h_rem_p, h_rem_l, h_rem_c, |op, a, b| BinOp::Rem.eval(op.ty, a, b));
alu!(h_and_d, h_and_p, h_and_l, h_and_c, |_op, a, b| a & b);
alu!(h_or_d, h_or_p, h_or_l, h_or_c, |_op, a, b| a | b);
alu!(h_xor_d, h_xor_p, h_xor_l, h_xor_c, |_op, a, b| a ^ b);
alu!(h_shl_d, h_shl_p, h_shl_l, h_shl_c, |op, a, b| {
    let w = op.imm;
    let m = u64::MAX >> (64 - w as u32);
    a.wrapping_shl(((b & m) % w) as u32)
});
alu!(h_ushr_d, h_ushr_p, h_ushr_l, h_ushr_c, |op, a, b| {
    let w = op.imm;
    let m = u64::MAX >> (64 - w as u32);
    (a & m) >> (((b & m) % w) as u32)
});
alu!(h_sshr_d, h_sshr_p, h_sshr_l, h_sshr_c, |op, a, b| {
    let w = op.imm;
    let e = 64 - w as u32;
    let m = u64::MAX >> e;
    ((((a << e) as i64) >> e) >> (((b & m) % w) as u32)) as u64
});
alu!(h_not_d, h_not_p, h_not_l, h_not_c, |_op, a, _b| !a);
alu!(h_neg_d, h_neg_p, h_neg_l, h_neg_c, |_op, a, _b| (!a).wrapping_add(1));
alu!(h_eq_d, h_eq_p, h_eq_l, h_eq_c, |op, a, b| (((a ^ b) & op.imm) == 0) as u64);
alu!(h_ne_d, h_ne_p, h_ne_l, h_ne_c, |op, a, b| (((a ^ b) & op.imm) != 0) as u64);
alu!(h_ult_d, h_ult_p, h_ult_l, h_ult_c, |op, a, b| ((a & op.imm) < (b & op.imm)) as u64);
alu!(h_ule_d, h_ule_p, h_ule_l, h_ule_c, |op, a, b| ((a & op.imm) <= (b & op.imm)) as u64);
alu!(h_ugt_d, h_ugt_p, h_ugt_l, h_ugt_c, |op, a, b| ((a & op.imm) > (b & op.imm)) as u64);
alu!(h_uge_d, h_uge_p, h_uge_l, h_uge_c, |op, a, b| ((a & op.imm) >= (b & op.imm)) as u64);
alu!(h_slt_d, h_slt_p, h_slt_l, h_slt_c, |op, a, b| {
    let e = op.imm as u32;
    ((((a << e) as i64) >> e) < (((b << e) as i64) >> e)) as u64
});
alu!(h_sle_d, h_sle_p, h_sle_l, h_sle_c, |op, a, b| {
    let e = op.imm as u32;
    ((((a << e) as i64) >> e) <= (((b << e) as i64) >> e)) as u64
});
alu!(h_sgt_d, h_sgt_p, h_sgt_l, h_sgt_c, |op, a, b| {
    let e = op.imm as u32;
    ((((a << e) as i64) >> e) > (((b << e) as i64) >> e)) as u64
});
alu!(h_sge_d, h_sge_p, h_sge_l, h_sge_c, |op, a, b| {
    let e = op.imm as u32;
    ((((a << e) as i64) >> e) >= (((b << e) as i64) >> e)) as u64
});
alu!(h_pass_d, h_pass_p, h_pass_l, h_pass_c, |_op, a, _b| a);
alu!(h_uconv_d, h_uconv_p, h_uconv_l, h_uconv_c, |_op, a, _b| a);
alu!(h_sconv_d, h_sconv_p, h_sconv_l, h_sconv_c, |op, a, _b| {
    let e = op.imm as u32;
    (((a << e) as i64) >> e) as u64
});

fn h_load_d(f: &mut Frame<'_>, op: &SpecOp) {
    let a = f.vals[op.a as usize];
    let m = &f.mems[op.mem as usize];
    f.vals[op.dst as usize] = m[wrap_index(a, m.len())] & op.mask;
}

fn h_load_p(f: &mut Frame<'_>, op: &SpecOp) {
    let a = f.vals[op.a as usize];
    let m = &f.mems[op.mem as usize];
    let v = m[wrap_index(a, m.len())] & op.mask;
    f.pending.push((f.cycle + op.lat as u64, op.dst, v));
}

fn h_load_l(f: &mut Frame<'_>, op: &SpecOp) {
    let a = f.vals[op.a as usize];
    let m = &f.mems[op.mem as usize];
    let v = m[wrap_index(a, m.len())] & op.mask;
    f.land_next.push((op.dst, v));
}

fn h_load_c(f: &mut Frame<'_>, op: &SpecOp) {
    let a = f.vals[op.a as usize];
    let m = &f.mems[op.mem as usize];
    f.vals[op.dst as usize] = m[wrap_index(a, m.len())] & op.mask;
    f.branch = f.vals[op.lat as usize] & 1;
}

fn h_store(f: &mut Frame<'_>, op: &SpecOp) {
    let a = f.vals[op.a as usize];
    let b = f.vals[op.b as usize];
    let len = f.mems[op.mem as usize].len();
    f.mem_writes.push((op.mem, wrap_index(a, len) as u32, b & op.imm));
}

/// Store fused with the branch-test capture (`lat` = test register).
fn h_store_c(f: &mut Frame<'_>, op: &SpecOp) {
    let a = f.vals[op.a as usize];
    let b = f.vals[op.b as usize];
    let len = f.mems[op.mem as usize].len();
    f.mem_writes.push((op.mem, wrap_index(a, len) as u32, b & op.imm));
    f.branch = f.vals[op.lat as usize] & 1;
}

/// Direct store, applied at evaluate time: bind-time analysis proved no
/// later op of the state loads from this memory, so skipping the edge
/// buffer is unobservable.
fn h_store_d(f: &mut Frame<'_>, op: &SpecOp) {
    let a = f.vals[op.a as usize];
    let b = f.vals[op.b as usize];
    let m = &mut f.mems[op.mem as usize];
    let i = wrap_index(a, m.len());
    m[i] = b & op.imm;
}

/// Direct store fused with the branch-test capture.
fn h_store_dc(f: &mut Frame<'_>, op: &SpecOp) {
    let a = f.vals[op.a as usize];
    let b = f.vals[op.b as usize];
    let m = &mut f.mems[op.mem as usize];
    let i = wrap_index(a, m.len());
    m[i] = b & op.imm;
    f.branch = f.vals[op.lat as usize] & 1;
}

/// Folded-constant store (value precomputed and pre-masked at bind).
fn h_imm_d(f: &mut Frame<'_>, op: &SpecOp) {
    f.vals[op.dst as usize] = op.imm;
}

fn h_imm_p(f: &mut Frame<'_>, op: &SpecOp) {
    f.pending.push((f.cycle + op.lat as u64, op.dst, op.imm));
}

fn h_imm_l(f: &mut Frame<'_>, op: &SpecOp) {
    f.land_next.push((op.dst, op.imm));
}

/// Immediate store fused with the branch-test capture (`lat` = test
/// register).
fn h_imm_c(f: &mut Frame<'_>, op: &SpecOp) {
    f.vals[op.dst as usize] = op.imm;
    f.branch = f.vals[op.lat as usize] & 1;
}

/// Fused pair of immediate stores (`dst ← imm; a ← mask`).
fn h_imm2(f: &mut Frame<'_>, op: &SpecOp) {
    f.vals[op.dst as usize] = op.imm;
    f.vals[op.a as usize] = op.mask;
}

/// Captures the branch-test bit before the clock edge.
fn h_capture(f: &mut Frame<'_>, op: &SpecOp) {
    f.branch = f.vals[op.a as usize] & 1;
}

/// End-of-state copyback of a hazard-routed scratch slot (pre-masked).
fn h_copy(f: &mut Frame<'_>, op: &SpecOp) {
    f.vals[op.dst as usize] = f.vals[op.a as usize];
}

/// Fused pair of copybacks (`dst ← a; b ← imm`).
fn h_copy2(f: &mut Frame<'_>, op: &SpecOp) {
    f.vals[op.dst as usize] = f.vals[op.a as usize];
    f.vals[op.b as usize] = f.vals[op.imm as usize];
}

/// Selects the handler flavors of a value-producing op — direct,
/// pending, landing, and capture-fused direct — and pre-resolves its
/// type legalization: returns `(hd, hp, hl, hc, imm, mask)` where
/// `mask` is the combined result mask the handler applies and `imm`
/// carries whatever bind-time constant the handler needs (operand
/// mask, sign-extension shift, operation width).
fn lower_value_op(op: &TOp, dstmask: u64) -> (Handler, Handler, Handler, Handler, u64, u64) {
    let t = op.ty;
    let tm = t.mask();
    let cm = tm & dstmask;
    let ext = (64 - t.width()) as u64;
    match op.op {
        FuOp::Bin(b) => match b {
            BinOp::Add => (h_add_d, h_add_p, h_add_l, h_add_c, 0, cm),
            BinOp::Sub => (h_sub_d, h_sub_p, h_sub_l, h_sub_c, 0, cm),
            BinOp::Mul => (h_mul_d, h_mul_p, h_mul_l, h_mul_c, 0, cm),
            BinOp::Div => (h_div_d, h_div_p, h_div_l, h_div_c, 0, dstmask),
            BinOp::Rem => (h_rem_d, h_rem_p, h_rem_l, h_rem_c, 0, dstmask),
            BinOp::And => (h_and_d, h_and_p, h_and_l, h_and_c, 0, cm),
            BinOp::Or => (h_or_d, h_or_p, h_or_l, h_or_c, 0, cm),
            BinOp::Xor => (h_xor_d, h_xor_p, h_xor_l, h_xor_c, 0, cm),
            BinOp::Shl => (h_shl_d, h_shl_p, h_shl_l, h_shl_c, t.width() as u64, cm),
            BinOp::Shr if t.is_signed() => {
                (h_sshr_d, h_sshr_p, h_sshr_l, h_sshr_c, t.width() as u64, cm)
            }
            BinOp::Shr => (h_ushr_d, h_ushr_p, h_ushr_l, h_ushr_c, t.width() as u64, cm),
        },
        FuOp::Un(u) => match u {
            UnOp::Not => (h_not_d, h_not_p, h_not_l, h_not_c, 0, cm),
            UnOp::Neg => (h_neg_d, h_neg_p, h_neg_l, h_neg_c, 0, cm),
        },
        FuOp::Cmp(p) => {
            let (hd, hp, hl, hc): (Handler, Handler, Handler, Handler) = match (p, t.is_signed()) {
                (CmpPred::Eq, _) => (h_eq_d, h_eq_p, h_eq_l, h_eq_c),
                (CmpPred::Ne, _) => (h_ne_d, h_ne_p, h_ne_l, h_ne_c),
                (CmpPred::Lt, false) => (h_ult_d, h_ult_p, h_ult_l, h_ult_c),
                (CmpPred::Le, false) => (h_ule_d, h_ule_p, h_ule_l, h_ule_c),
                (CmpPred::Gt, false) => (h_ugt_d, h_ugt_p, h_ugt_l, h_ugt_c),
                (CmpPred::Ge, false) => (h_uge_d, h_uge_p, h_uge_l, h_uge_c),
                (CmpPred::Lt, true) => (h_slt_d, h_slt_p, h_slt_l, h_slt_c),
                (CmpPred::Le, true) => (h_sle_d, h_sle_p, h_sle_l, h_sle_c),
                (CmpPred::Gt, true) => (h_sgt_d, h_sgt_p, h_sgt_l, h_sgt_c),
                (CmpPred::Ge, true) => (h_sge_d, h_sge_p, h_sge_l, h_sge_c),
            };
            let needs_ext = t.is_signed() && !matches!(p, CmpPred::Eq | CmpPred::Ne);
            (hd, hp, hl, hc, if needs_ext { ext } else { tm }, dstmask)
        }
        FuOp::Pass => (h_pass_d, h_pass_p, h_pass_l, h_pass_c, 0, cm),
        FuOp::Conv { from, to } => {
            if from.is_signed() {
                (
                    h_sconv_d,
                    h_sconv_p,
                    h_sconv_l,
                    h_sconv_c,
                    (64 - from.width()) as u64,
                    to.mask() & dstmask,
                )
            } else {
                (h_uconv_d, h_uconv_p, h_uconv_l, h_uconv_c, 0, from.mask() & to.mask() & dstmask)
            }
        }
        FuOp::Load { .. } => (h_load_d, h_load_p, h_load_l, h_load_c, 0, cm),
        FuOp::Store { .. } => unreachable!("stores have no value handler"),
    }
}

/// Evaluates an all-constant op at bind time (the tape's evaluate phase
/// with both operands known).
fn fold(op: &TOp, a: u64, b: u64) -> u64 {
    match op.op {
        FuOp::Bin(bo) => bo.eval(op.ty, a, b),
        FuOp::Un(u) => u.eval(op.ty, a),
        FuOp::Cmp(p) => p.eval(op.ty, a, b) as u64,
        FuOp::Pass => op.ty.truncate(a),
        FuOp::Conv { from, to } => from.convert_to(a, to),
        FuOp::Load { .. } | FuOp::Store { .. } => unreachable!("memory ops never fold"),
    }
}

/// A specialized compiled FSMD: the bind-time lowering backend. Owns a
/// [`CompiledFsmd`] and mints [`SpecRunner`]s that lower the design to
/// threaded code per working key. Compile once with
/// [`SpecFsmd::compile`] (or wrap an existing tape with
/// [`SpecFsmd::from_compiled`]), then run stimuli through a runner or
/// the one-shot [`SpecFsmd::simulate`].
#[derive(Debug, Clone)]
pub struct SpecFsmd {
    c: CompiledFsmd,
}

impl SpecFsmd {
    /// Compiles `fsmd` into the specializable tape form.
    pub fn compile(fsmd: &Fsmd) -> SpecFsmd {
        SpecFsmd { c: CompiledFsmd::compile(fsmd) }
    }

    /// Wraps an already-compiled tape (shares the flattening work).
    pub fn from_compiled(c: CompiledFsmd) -> SpecFsmd {
        SpecFsmd { c }
    }

    /// Declared working-key width.
    pub fn key_width(&self) -> u32 {
        self.c.key_width
    }

    /// Number of scalar argument ports.
    pub fn num_args(&self) -> usize {
        self.c.params.len()
    }

    /// A fresh batch runner borrowing this design. The runner lowers the
    /// design to threaded code on first use of each key and re-lowers
    /// only when the key changes — the batch pattern (one key, many
    /// stimuli) pays for specialization once.
    pub fn runner(&self) -> SpecRunner<'_> {
        SpecRunner {
            c: &self.c,
            prog: Vec::new(),
            states: Vec::new(),
            n_regs: self.c.reg_masks.len() as u32,
            vals: Vec::new(),
            mems: self.c.mems.iter().map(|m| vec![0u64; m.len]).collect(),
            pending: Vec::new(),
            land: [Vec::new(), Vec::new()],
            mem_writes: Vec::new(),
            has_pending: false,
            has_land: false,
            bound_key: None,
        }
    }

    /// One-shot run mirroring [`crate::simulate`] exactly (same results,
    /// same errors, same cycle counts).
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
        let regs = runner.vals[..runner.n_regs as usize].to_vec();
        Ok(SimResult {
            ret: stats.ret,
            cycles: stats.cycles,
            mems: runner.mems,
            timed_out: stats.timed_out,
            regs,
        })
    }
}

impl sim_core::Simulator for SpecFsmd {
    type Runner<'a> = SpecRunner<'a>;

    fn new_runner(&self) -> SpecRunner<'_> {
        self.runner()
    }
}

impl sim_core::BatchRunner for SpecRunner<'_> {
    fn run_case(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<SimStats, SimError> {
        SpecRunner::run_case(self, case, key, opts)
    }

    fn outputs(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<(OutputImage, SimStats), SimError> {
        SpecRunner::outputs(self, case, key, opts)
    }
}

/// Reusable execution state for a [`SpecFsmd`]: the per-key threaded
/// program plus value/memory/pending buffers, all reused across runs.
#[derive(Debug, Clone)]
pub struct SpecRunner<'a> {
    c: &'a CompiledFsmd,
    prog: Vec<SpecOp>,
    states: Vec<SState>,
    n_regs: u32,
    vals: Vec<u64>,
    mems: Vec<Vec<u64>>,
    pending: Vec<(u64, u32, u64)>,
    /// Double-buffered latency-2 landing queues (`[next edge, this edge]`).
    land: [Vec<(u32, u64)>; 2],
    mem_writes: Vec<(u32, u32, u64)>,
    /// Bound program contains latency ≥ 3 ops (pending-queue flavors).
    has_pending: bool,
    /// Bound program contains latency-2 ops (landing-buffer flavors).
    has_land: bool,
    bound_key: Option<KeyBits>,
}

impl SpecRunner<'_> {
    /// Runs the lowering pipeline for `key` (no-op when already bound).
    fn bind(&mut self, key: &KeyBits) {
        if self.bound_key.as_ref() == Some(key) {
            return;
        }
        let c = self.c;
        let n_regs = c.reg_masks.len();
        let n_consts = c.consts.len();
        let zero_slot = (n_regs + n_consts) as u32;

        // Pass 1: decrypt-constant folding into the unified value array.
        let mut vals = vec![0u64; n_regs + n_consts + 1];
        for (slot, cst) in vals[n_regs..n_regs + n_consts].iter_mut().zip(&c.consts) {
            *slot = match cst.key_xor {
                None => cst.bits,
                Some(kr) => (cst.bits ^ key.range(kr)) & cst.mask,
            };
        }

        // Pass 2: variant selection + branch key-bit pre-application.
        let mut sel = Vec::with_capacity(c.states.len());
        let mut ctrls = Vec::with_capacity(c.states.len());
        let mut tests = Vec::with_capacity(c.states.len());
        for st in &c.states {
            let s = st.variant_key.map(|kr| key.range(kr)).unwrap_or(0) as u32;
            sel.push(st.var_base + s.min(st.n_variants - 1));
            let flip = st.branch_key_bit.map(|kb| key.bit(kb)).unwrap_or(false);
            let (ctrl, test) = match st.next {
                TNext::Goto(t) => (SCtrl::Goto(t), None),
                TNext::Branch { test, then_s, else_s } => {
                    // `(bit ^ 1 == 1)` selects the then-branch, so a set
                    // key bit is exactly a target swap.
                    let (t, e) = if flip { (else_s, then_s) } else { (then_s, else_s) };
                    (SCtrl::Branch { then_s: t, else_s: e }, Some(test))
                }
                TNext::Done => (SCtrl::Done, None),
            };
            ctrls.push(ctrl);
            tests.push(test);
        }

        // Pass 3a: dead-state elimination — reachability over the bound
        // control graph (branch targets are data-dependent, but the edge
        // set itself is fixed once the key is bound).
        let mut reach = vec![false; c.states.len()];
        let mut stack = vec![c.entry as usize];
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut reach[s], true) {
                continue;
            }
            match ctrls[s] {
                SCtrl::Goto(t) => stack.push(t as usize),
                SCtrl::Branch { then_s, else_s } => {
                    stack.push(then_s as usize);
                    stack.push(else_s as usize);
                }
                SCtrl::Done => {}
            }
        }

        // Passes 3b–5 per reachable state: dead-op elision, hazard
        // routing, threaded-code emission, superinstruction fusion.
        let mut prog = Vec::new();
        let mut states = Vec::with_capacity(c.states.len());
        let mut max_scratch = 0u32;
        let mut buf = Vec::new();
        let (mut has_pending, mut has_land) = (false, false);
        for (si, _) in c.states.iter().enumerate() {
            let start = prog.len() as u32;
            if reach[si] {
                let (os, ol) = c.variants[sel[si] as usize];
                let ops = &c.ops[os as usize..(os + ol) as usize];
                let (used, p, l) =
                    lower_state(c, ops, tests[si], &vals, n_regs as u32, zero_slot, &mut buf);
                max_scratch = max_scratch.max(used);
                has_pending |= p;
                has_land |= l;
                prog.append(&mut buf);
            }
            let (then_s, else_s) = match ctrls[si] {
                SCtrl::Goto(t) => (t, t),
                SCtrl::Branch { then_s, else_s } => (then_s, else_s),
                SCtrl::Done => (DONE, DONE),
            };
            states.push(SState { start, end: prog.len() as u32, then_s, else_s });
        }
        vals.resize(n_regs + n_consts + 1 + max_scratch as usize, 0);

        self.prog = prog;
        self.states = states;
        self.vals = vals;
        self.has_pending = has_pending;
        self.has_land = has_land;
        self.bound_key = Some(key.clone());
    }

    /// Runs one stimulus, mirroring [`crate::simulate`] bit for bit and
    /// cycle for cycle.
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
        let c = self.c;
        if args.len() != c.params.len() {
            return Err(SimError::ArityMismatch { expected: c.params.len(), got: args.len() });
        }
        if key.width() != c.key_width {
            return Err(SimError::KeyWidthMismatch { expected: c.key_width, got: key.width() });
        }
        self.bind(key);

        // Reset: registers zero, memories at init image, then overrides.
        self.vals[..self.n_regs as usize].iter_mut().for_each(|v| *v = 0);
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
            self.vals[reg as usize] = val & c.reg_masks[reg as usize];
        }
        self.pending.clear();
        self.land[0].clear();
        self.land[1].clear();
        self.mem_writes.clear();

        let prog = &self.prog;
        let states = &self.states;
        let [land_next_buf, land_buf] = &mut self.land;
        let mut frame = Frame {
            vals: &mut self.vals,
            mems: &mut self.mems,
            pending: &mut self.pending,
            land_next: land_next_buf,
            land: land_buf,
            mem_writes: &mut self.mem_writes,
            cycle: 0,
            branch: 0,
        };
        // The cycle loop is monomorphized on the bound program's latency
        // classes: a program with no latency ≥ 3 ops never touches the
        // pending queue (or the cycle stamp that only it reads), and one
        // with no latency-2 ops never touches the landing buffers.
        match (self.has_pending, self.has_land) {
            (false, false) => exec::<false, false>(c, prog, states, &mut frame, opts),
            (false, true) => exec::<false, true>(c, prog, states, &mut frame, opts),
            (true, false) => exec::<true, false>(c, prog, states, &mut frame, opts),
            (true, true) => exec::<true, true>(c, prog, states, &mut frame, opts),
        }
    }

    /// Runs an `rtl::TestCase`, resolving array inputs through the
    /// design's memory map without cloning their contents.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`SpecRunner::run`].
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

    /// Runs a test case and assembles the observable [`OutputImage`].
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`SpecRunner::run`].
    pub fn outputs(
        &mut self,
        case: &TestCase,
        key: &KeyBits,
        opts: &SimOptions,
    ) -> Result<(OutputImage, SimStats), SimError> {
        let stats = self.run_case(case, key, opts)?;
        Ok((self.image(&stats), stats))
    }

    /// The observable [`OutputImage`] of the last run.
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
    pub fn mems(&self) -> &[Vec<u64>] {
        &self.mems
    }

    /// Final register values of the last run.
    pub fn regs(&self) -> &[u64] {
        &self.vals[..self.n_regs as usize]
    }

    /// Ops in the bound threaded program (post-lowering; for tests and
    /// diagnostics).
    pub fn program_len(&self) -> usize {
        self.prog.len()
    }
}

/// The specialized cycle loop, monomorphized on the bound program's
/// latency classes (`PENDING`: any latency ≥ 3 op; `LAND`: any latency-2
/// op), so programs without a class pay nothing for its edge machinery.
fn exec<const PENDING: bool, const LAND: bool>(
    c: &CompiledFsmd,
    prog: &[SpecOp],
    states: &[SState],
    frame: &mut Frame<'_>,
    opts: &SimOptions,
) -> Result<SimStats, SimError> {
    let mut state = c.entry as usize;
    let mut cycles = 0u64;
    loop {
        cycles += 1;
        if cycles > opts.max_cycles {
            if opts.snapshot_on_timeout {
                return Ok(SimStats {
                    ret: c.ret_reg.map(|r| frame.vals[r as usize]),
                    cycles: cycles - 1,
                    timed_out: true,
                });
            }
            return Err(SimError::CycleLimit);
        }
        let st = &states[state];
        if PENDING {
            frame.cycle = cycles;
        }
        for op in &prog[st.start as usize..st.end as usize] {
            (op.f)(frame, op);
        }

        // Clock edge tail: due multi-cycle results, then memory
        // writes (single-cycle register writes already landed —
        // either directly or through the end-of-state copybacks).
        // Latency-2 results land from the double buffer with no
        // due-cycle compares; latency ≥ 3 scans the pending queue.
        if LAND && (!frame.land.is_empty() || !frame.land_next.is_empty()) {
            let Frame { vals, land, land_next, .. } = frame;
            for &(r, v) in land.iter() {
                vals[r as usize] = v;
            }
            land.clear();
            std::mem::swap(*land, *land_next);
        }
        if PENDING && !frame.pending.is_empty() {
            let Frame { vals, pending, .. } = frame;
            pending.retain(|&(due, r, v)| {
                if due == cycles {
                    vals[r as usize] = v;
                    false
                } else {
                    true
                }
            });
        }
        if !frame.mem_writes.is_empty() {
            for &(m, i, v) in frame.mem_writes.iter() {
                frame.mems[m as usize][i as usize] = v;
            }
            frame.mem_writes.clear();
        }

        // Branchless successor select: gotos carry equal targets, so
        // a stale branch bit never misroutes; only the completion
        // sentinel needs a (perfectly predicted) compare.
        let next = if frame.branch == 1 { st.then_s } else { st.else_s };
        if next == DONE {
            return Ok(SimStats {
                ret: c.ret_reg.map(|r| frame.vals[r as usize]),
                cycles,
                timed_out: false,
            });
        }
        state = next as usize;
    }
}

/// Lowers one state's selected micro-op slice into `buf` and returns
/// `(scratch slots used, emitted a latency ≥ 3 op, emitted a latency-2
/// op)`. `vals` carries the decrypted constants for bind-time folding;
/// `test` is the branch-test register when the state branches.
fn lower_state(
    c: &CompiledFsmd,
    ops: &[TOp],
    test: Option<u32>,
    vals: &[u64],
    n_regs: u32,
    zero_slot: u32,
    buf: &mut Vec<SpecOp>,
) -> (u32, bool, bool) {
    buf.clear();
    let (mut has_pending, mut has_land) = (false, false);

    // Dead-op elimination: an op that neither stores nor keeps its
    // result has no architectural effect.
    let live = |op: &TOp| op.dst != u32::MAX || matches!(op.op, FuOp::Store { .. });

    let src = |s: TSrc| -> u32 {
        match s {
            TSrc::Reg(r) => r,
            TSrc::Const(ci) => n_regs + ci,
            TSrc::None => zero_slot,
        }
    };

    // Hazard analysis: a register written by a single-cycle op must be
    // routed through scratch iff some *later* position of this state
    // still reads its pre-edge value (the branch-test capture reads at
    // position `len`, after every op). Multi-cycle results go through
    // the pending queue and never clobber the evaluate phase.
    let mut first_writer: Vec<(u32, usize)> = Vec::new(); // (reg, position)
    let mut last_reader: Vec<(u32, usize)> = Vec::new();
    let note_read = |lr: &mut Vec<(u32, usize)>, s: TSrc, pos: usize| {
        if let TSrc::Reg(r) = s {
            match lr.iter_mut().find(|(reg, _)| *reg == r) {
                Some(e) => e.1 = e.1.max(pos),
                None => lr.push((r, pos)),
            }
        }
    };
    for (pos, op) in ops.iter().filter(|op| live(op)).enumerate() {
        note_read(&mut last_reader, op.a, pos);
        note_read(&mut last_reader, op.b, pos);
        if op.dst != u32::MAX
            && op.latency <= 1
            && !matches!(op.op, FuOp::Store { .. })
            && !first_writer.iter().any(|(r, _)| *r == op.dst)
        {
            first_writer.push((op.dst, pos));
        }
    }
    if let Some(t) = test {
        note_read(&mut last_reader, TSrc::Reg(t), ops.len());
    }
    // (reg, scratch slot) for every hazarded register.
    let mut scratch: Vec<(u32, u32)> = Vec::new();
    for &(r, wpos) in &first_writer {
        let hazard = last_reader.iter().any(|&(rr, rpos)| rr == r && rpos > wpos);
        if hazard {
            scratch.push((r, zero_slot + 1 + scratch.len() as u32));
        }
    }
    let route = |dst: u32| -> u32 {
        scratch.iter().find(|(r, _)| *r == dst).map(|&(_, s)| s).unwrap_or(dst)
    };

    // Emission with inline pairwise fusion of adjacent immediate stores
    // and copybacks.
    #[derive(PartialEq)]
    enum Last {
        Imm,
        Copy,
        Other,
    }
    let mut last = Last::Other;
    let mut push = |buf: &mut Vec<SpecOp>, op: SpecOp, kind: Last| match (&last, &kind) {
        (Last::Imm, Last::Imm) => {
            let prev = buf.last_mut().expect("fusion follows a push");
            prev.f = h_imm2;
            prev.a = op.dst;
            prev.mask = op.imm;
            last = Last::Other;
        }
        (Last::Copy, Last::Copy) => {
            let prev = buf.last_mut().expect("fusion follows a push");
            prev.f = h_copy2;
            prev.b = op.dst;
            prev.imm = op.a as u64;
            last = Last::Other;
        }
        _ => {
            buf.push(op);
            last = kind;
        }
    };

    let nop = SpecOp {
        f: h_capture,
        a: 0,
        b: 0,
        dst: 0,
        mem: 0,
        lat: 0,
        ty: Type::BOOL,
        imm: 0,
        mask: 0,
    };
    // Capture-fused variant of the op most recently pushed (direct
    // flavors only — their `lat` field is free to carry the test
    // register). `None` when the last op cannot absorb the capture.
    let mut cap: Option<Handler> = None;
    let ops_live: Vec<&TOp> = ops.iter().filter(|op| live(op)).collect();
    for (pos, &op) in ops_live.iter().enumerate() {
        if let FuOp::Store { mem } = op.op {
            // A store only needs the edge buffer when a *later* op of
            // this state loads from the same memory (loads read pre-edge
            // contents); otherwise it commits directly at evaluate time.
            let later_load = ops_live[pos + 1..]
                .iter()
                .any(|o| matches!(o.op, FuOp::Load { mem: m2 } if m2.0 == mem.0));
            let (f, fc): (Handler, Handler) =
                if later_load { (h_store, h_store_c) } else { (h_store_d, h_store_dc) };
            push(
                buf,
                SpecOp { f, a: src(op.a), b: src(op.b), mem: mem.0, imm: op.ty.mask(), ..nop },
                Last::Other,
            );
            cap = Some(fc);
            continue;
        }
        let mask = c.reg_masks[op.dst as usize];
        let pending = op.latency > 1;
        let lat = op.latency.saturating_sub(1) as u32;
        let foldable = !matches!(op.op, FuOp::Load { .. })
            && !matches!(op.a, TSrc::Reg(_))
            && !matches!(op.b, TSrc::Reg(_));
        if foldable {
            let v = fold(op, vals[src(op.a) as usize], vals[src(op.b) as usize]) & mask;
            if pending {
                let f = if lat == 1 { h_imm_l } else { h_imm_p };
                has_pending |= lat > 1;
                has_land |= lat == 1;
                push(buf, SpecOp { f, dst: op.dst, imm: v, lat, ..nop }, Last::Other);
                cap = None;
            } else {
                let before = buf.len();
                push(buf, SpecOp { f: h_imm_d, dst: route(op.dst), imm: v, ..nop }, Last::Imm);
                // A pairwise-fused h_imm2 keeps its `a` slot busy, so
                // only an unfused immediate can absorb the capture.
                cap = (buf.len() > before).then_some(h_imm_c as Handler);
            }
            continue;
        }
        let (hd, hp, hl, hc, imm, mask) = lower_value_op(op, mask);
        let (f, dst) = match (pending, lat) {
            (false, _) => (hd, route(op.dst)),
            (true, 1) => (hl, op.dst),
            (true, _) => (hp, op.dst),
        };
        has_pending |= pending && lat > 1;
        has_land |= pending && lat == 1;
        cap = (!pending).then_some(hc);
        let mem = match op.op {
            FuOp::Load { mem } => mem.0,
            _ => 0,
        };
        push(
            buf,
            SpecOp { f, a: src(op.a), b: src(op.b), dst, mem, lat, ty: op.ty, imm, mask },
            Last::Other,
        );
    }
    if let Some(t) = test {
        // Superinstruction fusion, capture flavor: the branch-test
        // capture rides the state's last op instead of paying its own
        // dispatch. Hazard routing has already redirected any same-state
        // single-cycle write to `t` into scratch, so the fused read still
        // sees the pre-edge value of the test register.
        match cap {
            Some(hc) => {
                let prev = buf.last_mut().expect("capture fusion follows an emitted op");
                prev.f = hc;
                prev.lat = t;
            }
            None => push(buf, SpecOp { f: h_capture, a: t, ..nop }, Last::Other),
        }
    }
    for &(r, s) in &scratch {
        push(buf, SpecOp { f: h_copy, dst: r, a: s, ..nop }, Last::Copy);
    }
    (scratch.len() as u32, has_pending, has_land)
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
    fn spec_matches_tree_on_loop_kernel() {
        let fsmd = synth(
            "int sum(int n) { int s = 0; for (int i = 0; i < n; i++) s += i * i; return s; }",
            "sum",
        );
        let s = SpecFsmd::compile(&fsmd);
        for n in [0u64, 1, 5, 33] {
            let want =
                simulate(&fsmd, &[n], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
            let got = s.simulate(&[n], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn spec_matches_tree_on_memory_kernel_with_overrides() {
        let src = r#"
            int buf[4];
            int out[4];
            void scale(int k) { for (int i = 0; i < 4; i++) out[i] = buf[i] * k; }
        "#;
        let fsmd = synth(src, "scale");
        let s = SpecFsmd::compile(&fsmd);
        let overrides = vec![(0usize, vec![5u64, 6, 7, 8]), (1, vec![0; 4])];
        let want =
            simulate(&fsmd, &[3], &KeyBits::zero(0), &overrides, &SimOptions::default()).unwrap();
        let got = s.simulate(&[3], &KeyBits::zero(0), &overrides, &SimOptions::default()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn spec_matches_tree_errors_and_snapshots() {
        let fsmd =
            synth("int spin(int n) { int s = 0; while (s < n) { s = s - 1; } return s; }", "spin");
        let s = SpecFsmd::compile(&fsmd);
        let tight = SimOptions { max_cycles: 500, snapshot_on_timeout: false };
        assert_eq!(
            s.simulate(&[5], &KeyBits::zero(0), &[], &tight).unwrap_err(),
            simulate(&fsmd, &[5], &KeyBits::zero(0), &[], &tight).unwrap_err(),
        );
        let snap = SimOptions { max_cycles: 500, snapshot_on_timeout: true };
        assert_eq!(
            s.simulate(&[5], &KeyBits::zero(0), &[], &snap).unwrap(),
            simulate(&fsmd, &[5], &KeyBits::zero(0), &[], &snap).unwrap(),
        );
        assert!(matches!(
            s.simulate(&[], &KeyBits::zero(0), &[], &SimOptions::default()),
            Err(SimError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.simulate(&[1], &KeyBits::zero(7), &[], &SimOptions::default()),
            Err(SimError::KeyWidthMismatch { .. })
        ));
    }

    #[test]
    fn runner_rebinds_on_key_change_and_stays_stateless() {
        let fsmd = synth("int f(int a, int b) { return (a + b) * (a - b); }", "f");
        let s = SpecFsmd::compile(&fsmd);
        let mut runner = s.runner();
        let one = runner.run(&[9, 4], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        let two = runner.run(&[2, 1], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        let fresh = s.simulate(&[2, 1], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
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
        let s = SpecFsmd::compile(&fsmd);
        let case = TestCase::args(&[]);
        let golden = golden_outputs(&m, "dbl", &case);
        let (want, _) =
            rtl_outputs(&fsmd, &case, &KeyBits::zero(0), &SimOptions::default()).unwrap();
        let mut runner = s.runner();
        let (got, _) = runner.outputs(&case, &KeyBits::zero(0), &SimOptions::default()).unwrap();
        assert_eq!(got, want);
        assert!(images_equal(&golden, &got));
    }

    #[test]
    fn grid_matches_tape_grid() {
        let fsmd = synth("int f(int a) { return a * 3 + 1; }", "f");
        let tape = CompiledFsmd::compile(&fsmd);
        let spec = SpecFsmd::from_compiled(tape.clone());
        let cases = [TestCase::args(&[1]), TestCase::args(&[10])];
        let keys = [KeyBits::zero(0)];
        let opts = SimOptions::default();
        let seq = sim_core::GridExec::sequential();
        assert_eq!(seq.grid(&spec, &cases, &keys, &opts), seq.grid(&tape, &cases, &keys, &opts));
    }

    #[test]
    fn lowering_folds_and_fuses() {
        // Two constant initializations in one design: the lowered
        // program must be shorter than the raw op count (dead ops,
        // folded constants and fused immediate pairs all shrink it).
        let fsmd = synth(
            "int f(int n) { int a = 3; int b = 4; int s = 0; \
             for (int i = 0; i < n; i++) s += a * b; return s; }",
            "f",
        );
        let s = SpecFsmd::compile(&fsmd);
        let mut runner = s.runner();
        runner.run(&[4], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        let raw_ops: usize = {
            let want = simulate(&fsmd, &[4], &KeyBits::zero(0), &[], &SimOptions::default());
            assert!(want.is_ok());
            fsmd.states.iter().map(|st| st.ops.len()).sum()
        };
        assert!(
            runner.program_len() <= raw_ops + fsmd.states.len(),
            "lowered {} vs raw {raw_ops}",
            runner.program_len()
        );
    }
}
