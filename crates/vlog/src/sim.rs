//! Event-driven two-phase simulation of a parsed module.
//!
//! The simulator executes `always @(posedge clk)` processes with IEEE-1364
//! nonblocking semantics: at every clock edge all right-hand sides are
//! evaluated against the pre-edge state, then all updates commit together
//! (later assignments to the same target win, as in source order). Wires
//! are combinational and evaluated on demand from the current state.
//! Expression evaluation implements the standard context-sizing rules —
//! expression size is the maximum operand self-size, signedness is the
//! conjunction of operand signedness, and context size/type propagate
//! down to context-determined operands — restricted to two-state values
//! of at most 64 bits (wider signals, like a long `working_key`, may only
//! be read through bit- and part-selects, which is all synthesizable
//! datapaths do; a whole read is an elaboration error). A concatenation
//! part or replicated unit of 64 bits or more shifts everything before it
//! out of the value.
//!
//! The run protocol mirrors the paper's extended testbenches (Sec. 4.1):
//! one reset edge latches the argument ports, then `start` is held high
//! and the clock runs until `done` rises or the cycle budget lapses. The
//! interface deliberately reuses `rtl`'s [`SimOptions`] / [`SimResult`] /
//! [`SimError`] so a Verilog-text run is directly comparable — bit for
//! bit, cycle for cycle, including `CycleLimit` behaviour — with the FSMD
//! simulator it must agree with.

use crate::ast::{self, Dir, Expr, ExprId, Module, Stmt, StmtId};
use crate::lexer::Sym;
use crate::parser::{parse, ParseError, MAX_MEM_WORDS, MAX_WIDTH};
use hls_core::KeyBits;
use sim_core::{OutputImage, SimError, SimOptions, SimResult, TestCase};
use std::collections::BTreeMap;
use std::fmt;

/// Errors constructing a simulator from Verilog text (parse or
/// elaboration failures — interface errors at run time use
/// [`SimError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VlogError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for VlogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verilog: {}", self.msg)
    }
}

impl std::error::Error for VlogError {}

impl From<ParseError> for VlogError {
    fn from(e: ParseError) -> Self {
        VlogError { msg: e.to_string() }
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, VlogError> {
    Err(VlogError { msg: msg.into() })
}

// ------------------------------------------------------------ compiled IR
//
// The elaborated netlist: every identifier resolved to a dense signal or
// memory id, every localparam folded, every `case` labelled with its
// dispatch map. This is the form the tape compiler (`crate::tape`) *and*
// external encoders (the `attack-sat` CNF bit-blaster) consume, so the
// types are public; [`VlogSim`] exposes read-only views below.

/// An elaborated expression (identifiers resolved, parameters folded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CExpr {
    /// Numeric literal.
    Const {
        /// Value bits.
        value: u64,
        /// Declared width (32 when unsized).
        width: u32,
        /// Signed literal.
        signed: bool,
        /// Originally unsized (self-size 32, but fills any context).
        unsz: bool,
    },
    /// Whole-signal read.
    Sig {
        /// Signal id (index into [`VlogSim::sigs`]).
        id: usize,
        /// The signal's declared width.
        width: u32,
    },
    /// Dynamic bit-select `sig[e]`.
    SelBit {
        /// Signal id.
        id: usize,
        /// Index expression (self-determined).
        index: Box<CExpr>,
    },
    /// Memory element read `mem[e]`.
    SelMem {
        /// Memory id (index into [`VlogSim::cmems`]).
        mem: usize,
        /// Index expression (self-determined).
        index: Box<CExpr>,
        /// The memory's element width.
        elem_width: u32,
    },
    /// Constant part-select `sig[hi:lo]`.
    PartSig {
        /// Signal id.
        id: usize,
        /// High bit.
        hi: u32,
        /// Low bit.
        lo: u32,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: ast::UnOp,
        /// Operand.
        a: Box<CExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: ast::BinOp,
        /// Left operand.
        a: Box<CExpr>,
        /// Right operand.
        b: Box<CExpr>,
    },
    /// Conditional `c ? t : e`.
    Cond {
        /// Condition (self-determined).
        c: Box<CExpr>,
        /// Then-value.
        t: Box<CExpr>,
        /// Else-value.
        e: Box<CExpr>,
    },
    /// `$signed(e)` reinterpretation.
    Signed(Box<CExpr>),
    /// Concatenation (parts MSB-first).
    Concat(Vec<CExpr>),
    /// Replication `{n{e}}`.
    Repeat {
        /// Replication count.
        n: u32,
        /// Replicated expression.
        a: Box<CExpr>,
    },
}

/// An elaborated procedural statement.
#[derive(Debug, Clone)]
pub enum CStmt {
    /// Statement sequence.
    Block(Vec<CStmt>),
    /// Two-way branch on a self-determined condition.
    If {
        /// Condition (true when nonzero).
        cond: CExpr,
        /// Taken when true.
        then_s: Box<CStmt>,
        /// Taken when false.
        else_s: Option<Box<CStmt>>,
    },
    /// `case` dispatch.
    Case {
        /// Dispatch subject (self-determined).
        subject: CExpr,
        /// Arm bodies (the default arm, when present, is the entry
        /// `default` points at).
        arms: Vec<CStmt>,
        /// Label value → arm index (first arm wins for duplicate labels).
        map: BTreeMap<u64, usize>,
        /// Index of the `default:` arm body in `arms`.
        default: Option<usize>,
    },
    /// Nonblocking signal assignment.
    AssignSig {
        /// Target signal id.
        id: usize,
        /// Target width (the value truncates to it).
        width: u32,
        /// Right-hand side.
        value: CExpr,
    },
    /// Nonblocking memory-element assignment.
    AssignMem {
        /// Target memory id.
        mem: usize,
        /// Element index (self-determined; out-of-range writes drop).
        index: CExpr,
        /// Element width.
        elem_width: u32,
        /// Right-hand side.
        value: CExpr,
    },
    /// Null statement.
    Null,
}

/// How a signal is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigKind {
    /// Externally driven port.
    Input,
    /// Procedurally driven register.
    Reg,
    /// Continuously driven net (index into the wire table).
    Wire(usize),
}

/// One elaborated scalar signal.
#[derive(Debug, Clone)]
pub struct Sig {
    /// Source name.
    pub name: String,
    /// Bit width.
    pub width: u32,
    /// Driver kind.
    pub kind: SigKind,
}

/// A compiled, elaborated module ready to simulate. Construction parses
/// and type-checks once; [`VlogSim::simulate`] is `&self` and can run many
/// stimuli concurrently.
#[derive(Debug, Clone)]
pub struct VlogSim {
    pub(crate) name: String,
    pub(crate) sigs: Vec<Sig>,
    pub(crate) wires: Vec<CExpr>,
    pub(crate) mems: Vec<CMem>,
    pub(crate) body: CStmt,
    pub(crate) init: Vec<(usize, usize, u64)>,
    // Port roles.
    pub(crate) rst: usize,
    pub(crate) start: usize,
    pub(crate) args: Vec<usize>,
    pub(crate) key: Option<(usize, u32)>,
    pub(crate) ret: Option<(usize, u32)>,
    pub(crate) done: usize,
    /// Datapath registers `r{i}` in index order (`usize::MAX` = missing).
    pub(crate) reg_ids: Vec<usize>,
}

/// One elaborated memory.
#[derive(Debug, Clone)]
pub struct CMem {
    /// Source name.
    pub name: String,
    /// Element width in bits.
    pub elem_width: u32,
    /// Element count.
    pub len: usize,
    /// Carried an `(* external *)` attribute (accelerator I/O).
    pub external: bool,
    /// The module writes this memory somewhere in its body.
    pub written: bool,
}

struct RunState {
    vals: Vec<u64>,
    /// Wide input values (> 64 bits), by signal id.
    wide: BTreeMap<usize, Vec<u64>>,
    mems: Vec<Vec<u64>>,
}

struct Updates {
    sigs: Vec<(usize, u64)>,
    mems: Vec<(usize, usize, u64)>,
}

pub(crate) fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Widens `bits` (valid at `from` bits) to `to` bits, sign-extending when
/// the propagated context type is signed.
pub(crate) fn extend(bits: u64, from: u32, to: u32, signed: bool) -> u64 {
    if to <= from {
        return bits & mask(to);
    }
    let bits = bits & mask(from);
    if signed && from > 0 && (bits >> (from - 1)) & 1 == 1 {
        (bits | !mask(from)) & mask(to)
    } else {
        bits
    }
}

pub(crate) fn to_signed(bits: u64, w: u32) -> i64 {
    extend(bits, w, 64, true) as i64
}

impl VlogSim {
    /// Parses, elaborates and compiles Verilog text.
    ///
    /// # Errors
    ///
    /// Returns [`VlogError`] when the text does not parse, uses constructs
    /// outside the subset, or lacks the `clk`/`rst`/`start`/`done`
    /// handshake ports.
    pub fn new(text: &str) -> Result<VlogSim, VlogError> {
        let module = parse(text)?;
        Compiler::compile(&module)
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

    // ------------------------------------------- elaborated netlist view
    //
    // Read-only access to the compiled design, for external encoders
    // (the `attack-sat` CNF bit-blaster walks exactly this form).

    /// All elaborated signals, indexed by signal id.
    pub fn sigs(&self) -> &[Sig] {
        &self.sigs
    }

    /// Continuous-assign right-hand sides, indexed by [`SigKind::Wire`].
    pub fn wires(&self) -> &[CExpr] {
        &self.wires
    }

    /// All elaborated memories, indexed by memory id.
    pub fn cmems(&self) -> &[CMem] {
        &self.mems
    }

    /// The single `always @(posedge clk)` process body.
    pub fn body(&self) -> &CStmt {
        &self.body
    }

    /// Constant memory loads from `initial` blocks: `(mem, index, value)`.
    pub fn init_image(&self) -> &[(usize, usize, u64)] {
        &self.init
    }

    /// Signal id of the `rst` port.
    pub fn rst_id(&self) -> usize {
        self.rst
    }

    /// Signal id of the `start` port.
    pub fn start_id(&self) -> usize {
        self.start
    }

    /// Signal id of the `done` port.
    pub fn done_id(&self) -> usize {
        self.done
    }

    /// Signal ids of the `arg{i}` ports, in argument order.
    pub fn arg_ids(&self) -> &[usize] {
        &self.args
    }

    /// Signal id and width of the `working_key` port, when present.
    pub fn key_sig(&self) -> Option<(usize, u32)> {
        self.key
    }

    /// Signal id and declared width of the `ret` port, when present.
    pub fn ret_sig(&self) -> Option<(usize, u32)> {
        self.ret
    }

    /// Simulates the module with the given argument values and working
    /// key, mirroring `rtl::simulate`: one reset edge latches the
    /// arguments, then the clock runs with `start` high until `done` rises
    /// or `opts.max_cycles` lapses.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on interface mismatches or an exhausted cycle
    /// budget (unless `opts.snapshot_on_timeout`).
    pub fn simulate(
        &self,
        args: &[u64],
        key: &KeyBits,
        mem_overrides: &[(usize, Vec<u64>)],
        opts: &SimOptions,
    ) -> Result<SimResult, SimError> {
        if args.len() != self.args.len() {
            return Err(SimError::ArityMismatch { expected: self.args.len(), got: args.len() });
        }
        if key.width() != self.key_width() {
            return Err(SimError::KeyWidthMismatch {
                expected: self.key_width(),
                got: key.width(),
            });
        }

        let mut st = RunState {
            vals: vec![0; self.sigs.len()],
            wide: BTreeMap::new(),
            mems: self.mems.iter().map(|m| vec![0u64; m.len]).collect(),
        };
        // Init images (initial blocks), then testbench memory overrides.
        for &(m, i, v) in &self.init {
            st.mems[m][i] = v;
        }
        for (idx, contents) in mem_overrides {
            let (len, w) = (self.mems[*idx].len, self.mems[*idx].elem_width);
            for (i, v) in contents.iter().enumerate().take(len) {
                st.mems[*idx][i] = *v & mask(w);
            }
        }
        // Drive input ports.
        for (&sig, &v) in self.args.iter().zip(args) {
            st.vals[sig] = v & mask(self.sigs[sig].width);
        }
        if let Some((sig, w)) = self.key {
            if w > 64 {
                st.wide.insert(sig, key.words().to_vec());
            } else {
                st.vals[sig] = key.words().first().copied().unwrap_or(0) & mask(w);
            }
        }

        // Reset edge: rst high, start low.
        st.vals[self.rst] = 1;
        st.vals[self.start] = 0;
        self.posedge(&mut st);
        st.vals[self.rst] = 0;
        st.vals[self.start] = 1;

        let mut cycles = 0u64;
        loop {
            cycles += 1;
            if cycles > opts.max_cycles {
                if opts.snapshot_on_timeout {
                    return Ok(self.result(st, cycles - 1, true));
                }
                return Err(SimError::CycleLimit);
            }
            self.posedge(&mut st);
            if st.vals[self.done] & 1 == 1 {
                return Ok(self.result(st, cycles, false));
            }
        }
    }

    fn result(&self, st: RunState, cycles: u64, timed_out: bool) -> SimResult {
        let ret = self
            .ret
            .map(|(sig, w)| extend(self.read_sig(sig, &st), self.sigs[sig].width, w, false));
        let regs =
            self.reg_ids.iter().map(|&id| if id == usize::MAX { 0 } else { st.vals[id] }).collect();
        // `st` is owned: the memory images move into the result instead of
        // being cloned (they are the run's only surviving allocation).
        SimResult { ret, cycles, mems: st.mems, timed_out, regs }
    }

    // ----------------------------------------------------------- engine

    fn posedge(&self, st: &mut RunState) {
        let mut up = Updates { sigs: Vec::new(), mems: Vec::new() };
        self.exec(&self.body, st, &mut up);
        for (id, v) in up.sigs {
            st.vals[id] = v;
        }
        for (m, i, v) in up.mems {
            st.mems[m][i] = v;
        }
    }

    fn exec(&self, s: &CStmt, st: &RunState, up: &mut Updates) {
        match s {
            CStmt::Block(body) => {
                for s in body {
                    self.exec(s, st, up);
                }
            }
            CStmt::If { cond, then_s, else_s } => {
                if self.eval_self(cond, st) != 0 {
                    self.exec(then_s, st, up);
                } else if let Some(e) = else_s {
                    self.exec(e, st, up);
                }
            }
            CStmt::Case { subject, arms, map, default } => {
                let v = self.eval_self(subject, st);
                match map.get(&v) {
                    Some(&i) => self.exec(&arms[i], st, up),
                    None => {
                        if let Some(d) = default {
                            self.exec(&arms[*d], st, up);
                        }
                    }
                }
            }
            CStmt::AssignSig { id, width, value } => {
                let v = self.eval_assign(value, *width, st);
                up.sigs.push((*id, v));
            }
            CStmt::AssignMem { mem, index, elem_width, value } => {
                let idx = self.eval_self(index, st) as usize;
                if idx < self.mems[*mem].len {
                    let v = self.eval_assign(value, *elem_width, st);
                    up.mems.push((*mem, idx, v));
                }
            }
            CStmt::Null => {}
        }
    }

    /// Assignment-context evaluation: size is `max(lhs, rhs self-size)`,
    /// type is the right-hand side's own; the result truncates to the
    /// target width.
    fn eval_assign(&self, e: &CExpr, target_width: u32, st: &RunState) -> u64 {
        let w = target_width.max(e.self_width());
        let v = self.eval(e, st, w, e.self_signed());
        v & mask(target_width)
    }

    /// Self-determined evaluation (conditions, indices, case subjects).
    fn eval_self(&self, e: &CExpr, st: &RunState) -> u64 {
        self.eval(e, st, e.self_width(), e.self_signed())
    }

    fn read_sig(&self, id: usize, st: &RunState) -> u64 {
        match self.sigs[id].kind {
            SigKind::Input | SigKind::Reg => st.vals[id],
            SigKind::Wire(w) => {
                let e = &self.wires[w];
                self.eval_assign(e, self.sigs[id].width, st)
            }
        }
    }

    fn read_bits(&self, id: usize, hi: u32, lo: u32, st: &RunState) -> u64 {
        let width = hi - lo + 1;
        if let Some(words) = st.wide.get(&id) {
            let mut v = 0u64;
            for (k, bit) in (lo..=hi).enumerate() {
                let word = words.get((bit / 64) as usize).copied().unwrap_or(0);
                v |= ((word >> (bit % 64)) & 1) << k;
            }
            v
        } else {
            let v = self.read_sig(id, st);
            if lo >= 64 {
                0
            } else {
                (v >> lo) & mask(width)
            }
        }
    }

    fn eval(&self, e: &CExpr, st: &RunState, w: u32, s: bool) -> u64 {
        use ast::BinOp as B;
        use ast::UnOp as U;
        match e {
            CExpr::Const { value, width, signed, unsz } => {
                if *unsz {
                    value & mask(w)
                } else {
                    extend(*value, *width, w, s && *signed)
                }
            }
            CExpr::Sig { id, width } => extend(self.read_sig(*id, st), *width, w, false),
            CExpr::SelBit { id, index } => {
                let i = self.eval_self(index, st);
                let bit =
                    if i > u32::MAX as u64 { 0 } else { self.read_bits_checked(*id, i as u32, st) };
                bit & mask(w)
            }
            CExpr::SelMem { mem, index, elem_width } => {
                let i = self.eval_self(index, st) as usize;
                let v = self.mem_read(*mem, i, st);
                extend(v, *elem_width, w, false)
            }
            CExpr::PartSig { id, hi, lo } => {
                extend(self.read_bits(*id, *hi, *lo, st), hi - lo + 1, w, false)
            }
            CExpr::Unary { op, a } => match op {
                U::Not => !self.eval(a, st, w, s) & mask(w),
                U::Neg => self.eval(a, st, w, s).wrapping_neg() & mask(w),
                U::LogNot => ((self.eval_self(a, st) == 0) as u64) & mask(w),
            },
            CExpr::Binary { op, a, b } => match op {
                B::Add => self.eval(a, st, w, s).wrapping_add(self.eval(b, st, w, s)) & mask(w),
                B::Sub => self.eval(a, st, w, s).wrapping_sub(self.eval(b, st, w, s)) & mask(w),
                B::Mul => self.eval(a, st, w, s).wrapping_mul(self.eval(b, st, w, s)) & mask(w),
                B::Div => {
                    let (va, vb) = (self.eval(a, st, w, s), self.eval(b, st, w, s));
                    if vb == 0 {
                        // Two-state stand-in for `x`: the all-ones pattern,
                        // matching the FSMD model's divider.
                        mask(w)
                    } else if s {
                        (to_signed(va, w).wrapping_div(to_signed(vb, w)) as u64) & mask(w)
                    } else {
                        (va / vb) & mask(w)
                    }
                }
                B::Rem => {
                    let (va, vb) = (self.eval(a, st, w, s), self.eval(b, st, w, s));
                    if vb == 0 {
                        va
                    } else if s {
                        (to_signed(va, w).wrapping_rem(to_signed(vb, w)) as u64) & mask(w)
                    } else {
                        (va % vb) & mask(w)
                    }
                }
                B::And => self.eval(a, st, w, s) & self.eval(b, st, w, s),
                B::Or => self.eval(a, st, w, s) | self.eval(b, st, w, s),
                B::Xor => self.eval(a, st, w, s) ^ self.eval(b, st, w, s),
                B::Shl => {
                    let va = self.eval(a, st, w, s);
                    let sh = self.eval_self(b, st);
                    if sh >= 64 {
                        0
                    } else {
                        va.wrapping_shl(sh as u32) & mask(w)
                    }
                }
                B::Shr => {
                    let va = self.eval(a, st, w, s);
                    let sh = self.eval_self(b, st);
                    if sh >= 64 {
                        0
                    } else {
                        va.wrapping_shr(sh as u32)
                    }
                }
                B::AShr => {
                    let va = self.eval(a, st, w, s);
                    let sh = self.eval_self(b, st);
                    if s {
                        // Arithmetic shift saturates at the sign bit.
                        ((to_signed(va, w) >> sh.min(63)) as u64) & mask(w)
                    } else if sh >= 64 {
                        0
                    } else {
                        va.wrapping_shr(sh as u32)
                    }
                }
                B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge => {
                    let cw = a.self_width().max(b.self_width());
                    let cs = a.self_signed() && b.self_signed();
                    let (va, vb) = (self.eval(a, st, cw, cs), self.eval(b, st, cw, cs));
                    let r = if cs {
                        let (ia, ib) = (to_signed(va, cw), to_signed(vb, cw));
                        match op {
                            B::Eq => ia == ib,
                            B::Ne => ia != ib,
                            B::Lt => ia < ib,
                            B::Le => ia <= ib,
                            B::Gt => ia > ib,
                            _ => ia >= ib,
                        }
                    } else {
                        match op {
                            B::Eq => va == vb,
                            B::Ne => va != vb,
                            B::Lt => va < vb,
                            B::Le => va <= vb,
                            B::Gt => va > vb,
                            _ => va >= vb,
                        }
                    };
                    (r as u64) & mask(w)
                }
                B::LAnd => {
                    (((self.eval_self(a, st) != 0) && (self.eval_self(b, st) != 0)) as u64)
                        & mask(w)
                }
                B::LOr => {
                    (((self.eval_self(a, st) != 0) || (self.eval_self(b, st) != 0)) as u64)
                        & mask(w)
                }
            },
            CExpr::Cond { c, t, e: ee } => {
                if self.eval_self(c, st) != 0 {
                    self.eval(t, st, w, s)
                } else {
                    self.eval(ee, st, w, s)
                }
            }
            CExpr::Signed(a) => {
                let aw = a.self_width();
                let v = self.eval(a, st, aw, a.self_signed());
                extend(v, aw, w, s)
            }
            // A part or unit of 64 bits or more shifts everything before
            // it out of the 64-bit value.
            CExpr::Concat(parts) => {
                let mut acc = 0u64;
                for p in parts {
                    let pw = p.self_width();
                    let v = self.eval(p, st, pw, p.self_signed());
                    acc = acc.checked_shl(pw).unwrap_or(0) | (v & mask(pw));
                }
                acc & mask(w)
            }
            CExpr::Repeat { n, a } => {
                let aw = a.self_width();
                let v = self.eval(a, st, aw, a.self_signed()) & mask(aw);
                let mut acc = 0u64;
                for _ in 0..*n {
                    acc = acc.checked_shl(aw).unwrap_or(0) | v;
                }
                acc & mask(w)
            }
        }
    }

    fn read_bits_checked(&self, id: usize, bit: u32, st: &RunState) -> u64 {
        if st.wide.contains_key(&id) || bit < self.sigs[id].width {
            self.read_bits(id, bit, bit, st)
        } else {
            0
        }
    }

    fn mem_read(&self, mem: usize, idx: usize, st: &RunState) -> u64 {
        st.mems[mem].get(idx).copied().unwrap_or(0)
    }
}

impl CExpr {
    /// IEEE-1364 self-determined size — the context width at which
    /// conditions, indices, shift amounts and case subjects evaluate.
    /// Public so external encoders apply the same sizing rules the
    /// simulator does. Elaboration bounds every expression's width by
    /// [`MAX_WIDTH`], so the sums and products here cannot overflow.
    pub fn self_width(&self) -> u32 {
        use ast::BinOp as B;
        match self {
            CExpr::Const { width, unsz, .. } => {
                if *unsz {
                    32
                } else {
                    *width
                }
            }
            CExpr::Sig { width, .. } => *width,
            CExpr::SelBit { .. } => 1,
            CExpr::SelMem { elem_width, .. } => *elem_width,
            CExpr::PartSig { hi, lo, .. } => hi - lo + 1,
            CExpr::Unary { op: ast::UnOp::LogNot, .. } => 1,
            CExpr::Unary { a, .. } => a.self_width(),
            CExpr::Binary { op, a, b } => match op {
                B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge | B::LAnd | B::LOr => 1,
                B::Shl | B::Shr | B::AShr => a.self_width(),
                _ => a.self_width().max(b.self_width()),
            },
            CExpr::Cond { t, e, .. } => t.self_width().max(e.self_width()),
            CExpr::Signed(a) => a.self_width(),
            CExpr::Concat(parts) => parts.iter().map(CExpr::self_width).sum(),
            CExpr::Repeat { n, a } => n * a.self_width(),
        }
    }

    /// Self-determined signedness (the conjunction rule: an operation is
    /// signed only if every operand is). Public for the same reason as
    /// [`CExpr::self_width`].
    pub fn self_signed(&self) -> bool {
        use ast::BinOp as B;
        match self {
            CExpr::Const { signed, .. } => *signed,
            CExpr::Signed(_) => true,
            CExpr::Unary { op: ast::UnOp::LogNot, .. } => false,
            CExpr::Unary { a, .. } => a.self_signed(),
            CExpr::Binary { op, a, b } => match op {
                B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge | B::LAnd | B::LOr => false,
                B::Shl | B::Shr | B::AShr => a.self_signed(),
                _ => a.self_signed() && b.self_signed(),
            },
            CExpr::Cond { t, e, .. } => t.self_signed() && e.self_signed(),
            _ => false,
        }
    }
}

// -------------------------------------------------------------- compiler

/// What one symbol names. Signals, memories and localparams are separate
/// namespaces, so one name may bind all three; each use site picks its
/// namespace (an identifier reads a localparam before a signal, a select
/// or assignment target a memory before a signal).
#[derive(Debug, Clone, Copy, Default)]
struct Binding {
    sig: Option<usize>,
    mem: Option<usize>,
    param: Option<(u64, u32)>,
}

struct Compiler<'m, 'a> {
    /// The parsed module: its symbol table and node arenas.
    m: &'m Module<'a>,
    /// Bindings, indexed by symbol.
    binds: Vec<Binding>,
    sigs: Vec<Sig>,
    wires: Vec<CExpr>,
    mems: Vec<CMem>,
}

impl<'m, 'a> Compiler<'m, 'a> {
    fn compile(module: &'m Module<'a>) -> Result<VlogSim, VlogError> {
        let mut c = Compiler {
            m: module,
            binds: vec![Binding::default(); module.names.len()],
            sigs: Vec::new(),
            wires: Vec::new(),
            mems: Vec::new(),
        };

        for p in &module.ports {
            let kind = match (p.dir, p.is_reg) {
                (Dir::Input, _) => SigKind::Input,
                (Dir::Output, true) => SigKind::Reg,
                // Output wires are driven by a continuous assign resolved
                // below; placeholder index patched when the assign appears.
                (Dir::Output, false) => SigKind::Reg,
            };
            c.add_sig(p.name, p.width, kind)?;
        }
        for n in &module.nets {
            c.add_sig(n.name, n.width, SigKind::Reg)?;
        }
        let mut words = 0u64;
        for m in &module.mems {
            let (name, bind) = (c.name(m.name), &mut c.binds[m.name.index()]);
            if bind.mem.replace(c.mems.len()).is_some() {
                return err(format!("duplicate memory `{name}`"));
            }
            words += m.len as u64;
            if words > MAX_MEM_WORDS {
                return err(format!("memories exceed the {MAX_MEM_WORDS}-element cap at `{name}`"));
            }
            c.mems.push(CMem {
                name: name.to_string(),
                elem_width: m.elem_width,
                len: m.len,
                external: m.external,
                written: false,
            });
        }
        for &(name, e) in &module.params {
            let ce = c.cexpr(e)?;
            let Some(v) = const_value(&ce) else {
                return err(format!("localparam `{}` is not a constant", c.name(name)));
            };
            let w = match &ce {
                CExpr::Const { width, unsz: false, .. } => *width,
                _ => 32,
            };
            c.binds[name.index()].param = Some((v, w));
        }
        // Parameters may be referenced by earlier-compiled expressions only
        // through statements/assigns compiled after this point, which is
        // the order `emit` produces (localparams precede uses).
        for &(name, e) in &module.assigns {
            let Some(id) = c.binds[name.index()].sig else {
                return err(format!("assign to undeclared net `{}`", c.name(name)));
            };
            let ce = c.cexpr(e)?;
            let widx = c.wires.len();
            c.wires.push(ce);
            c.sigs[id].kind = SigKind::Wire(widx);
        }

        // Initial blocks: constant memory image loads.
        let mut init = Vec::new();
        for &s in &module.initials {
            c.flatten_initial(s, &mut init)?;
        }

        if module.always.len() != 1 {
            return err(format!(
                "expected exactly one always block, found {}",
                module.always.len()
            ));
        }
        let (clock, body) = module.always[0];
        let clock = c.name(clock);
        if clock != "clk" {
            return err(format!("always block must be clocked by `clk`, found `{clock}`"));
        }
        let mut written = vec![false; c.mems.len()];
        let body = c.cstmt(body, &mut written)?;
        for (m, w) in written.iter().enumerate() {
            c.mems[m].written = *w;
        }

        // Port roles.
        let get = |name: &str| c.m.names.get(name).and_then(|s| c.binds[s.index()].sig);
        let (Some(rst), Some(start), Some(done)) = (get("rst"), get("start"), get("done")) else {
            return err("missing rst/start/done handshake ports");
        };
        if get("clk").is_none() {
            return err("missing clk port");
        }
        let mut args = Vec::new();
        while let Some(id) = get(&format!("arg{}", args.len())) {
            args.push(id);
        }
        let key = get("working_key").map(|id| (id, c.sigs[id].width));
        let ret = get("ret").map(|id| (id, c.sigs[id].width));

        // Datapath registers r0..rN.
        let mut regs: Vec<(usize, usize)> = Vec::new();
        for (id, s) in c.sigs.iter().enumerate() {
            if let Some(num) = s.name.strip_prefix('r').and_then(|n| n.parse::<usize>().ok()) {
                if num >= MAX_REGS {
                    return err(format!(
                        "register `{}` exceeds the {MAX_REGS}-register cap",
                        s.name
                    ));
                }
                regs.push((num, id));
            }
        }
        let nregs = regs.iter().map(|&(n, _)| n + 1).max().unwrap_or(0);
        let mut reg_ids = vec![usize::MAX; nregs];
        for (n, id) in regs {
            reg_ids[n] = id;
        }

        Ok(VlogSim {
            name: c.name(module.name).to_string(),
            sigs: c.sigs,
            wires: c.wires,
            mems: c.mems,
            body,
            init,
            rst,
            start,
            args,
            key,
            ret,
            done,
            reg_ids,
        })
    }

    fn name(&self, s: Sym) -> &'a str {
        self.m.names.name(s)
    }

    fn add_sig(&mut self, sym: Sym, width: u32, kind: SigKind) -> Result<usize, VlogError> {
        let name = self.name(sym);
        if width > 64 && kind != SigKind::Input {
            return err(format!("`{name}`: only input ports may exceed 64 bits"));
        }
        let id = self.sigs.len();
        if self.binds[sym.index()].sig.replace(id).is_some() {
            return err(format!("duplicate signal `{name}`"));
        }
        self.sigs.push(Sig { name: name.to_string(), width, kind });
        Ok(id)
    }

    fn flatten_initial(
        &self,
        s: StmtId,
        out: &mut Vec<(usize, usize, u64)>,
    ) -> Result<(), VlogError> {
        match *self.m.stmt(s) {
            Stmt::Block(body) => {
                for &s in self.m.block(body) {
                    self.flatten_initial(s, out)?;
                }
                Ok(())
            }
            Stmt::Blocking { target, value } => {
                let Some(m) = self.binds[target.base.index()].mem else {
                    return err("initial blocks may only load memories");
                };
                let Some(idx_e) = target.index else {
                    return err("initial memory load needs an index");
                };
                let (&Expr::Num { value: idx, .. }, &Expr::Num { value: v, .. }) =
                    (self.m.expr(idx_e), self.m.expr(value))
                else {
                    return err("initial memory loads must be constant");
                };
                let idx = idx as usize;
                if idx < self.mems[m].len {
                    out.push((m, idx, v & mask(self.mems[m].elem_width)));
                }
                Ok(())
            }
            Stmt::Null => Ok(()),
            _ => err("unsupported statement in initial block"),
        }
    }

    fn cstmt(&self, s: StmtId, written: &mut Vec<bool>) -> Result<CStmt, VlogError> {
        Ok(match *self.m.stmt(s) {
            Stmt::Block(body) => CStmt::Block(
                self.m
                    .block(body)
                    .iter()
                    .map(|&s| self.cstmt(s, written))
                    .collect::<Result<_, _>>()?,
            ),
            Stmt::If { cond, then_s, else_s } => CStmt::If {
                cond: self.cexpr(cond)?,
                then_s: Box::new(self.cstmt(then_s, written)?),
                else_s: match else_s {
                    Some(e) => Some(Box::new(self.cstmt(e, written)?)),
                    None => None,
                },
            },
            Stmt::Case { subject, arms, default } => {
                let subject = self.cexpr(subject)?;
                let arms = self.m.arms(arms);
                let mut carms = Vec::with_capacity(arms.len() + 1);
                let mut map = BTreeMap::new();
                for &(label, body) in arms {
                    let le = self.cexpr(label)?;
                    let Some(v) = const_value(&le) else {
                        return err("case labels must be constant");
                    };
                    map.entry(v).or_insert(carms.len());
                    carms.push(self.cstmt(body, written)?);
                }
                let default = match default {
                    Some(d) => {
                        carms.push(self.cstmt(d, written)?);
                        Some(carms.len() - 1)
                    }
                    None => None,
                };
                CStmt::Case { subject, arms: carms, map, default }
            }
            Stmt::NonBlocking { target, value } | Stmt::Blocking { target, value } => {
                let value = self.cexpr(value)?;
                let (base, bind) = (self.name(target.base), self.binds[target.base.index()]);
                if let Some(m) = bind.mem {
                    let Some(idx) = target.index else {
                        return err(format!("memory `{base}` assigned without index"));
                    };
                    written[m] = true;
                    CStmt::AssignMem {
                        mem: m,
                        index: self.cexpr(idx)?,
                        elem_width: self.mems[m].elem_width,
                        value,
                    }
                } else {
                    let Some(id) = bind.sig else {
                        return err(format!("assignment to undeclared `{base}`"));
                    };
                    if target.index.is_some() {
                        return err(format!("bit-select assignment to `{base}` unsupported"));
                    }
                    CStmt::AssignSig { id, width: self.sigs[id].width, value }
                }
            }
            Stmt::Null => CStmt::Null,
        })
    }

    fn cexpr(&self, e: ExprId) -> Result<CExpr, VlogError> {
        let undeclared = |name: Sym| err(format!("undeclared identifier `{}`", self.name(name)));
        Ok(match *self.m.expr(e) {
            Expr::Num { size, signed, value } => {
                CExpr::Const { value, width: size.unwrap_or(32), signed, unsz: size.is_none() }
            }
            Expr::Ident(name) => {
                let bind = self.binds[name.index()];
                if let Some((v, w)) = bind.param {
                    CExpr::Const { value: v, width: w, signed: false, unsz: false }
                } else if let Some(id) = bind.sig {
                    let width = self.sigs[id].width;
                    if width > 64 {
                        return err(format!(
                            "whole read of the {width}-bit `{}` unsupported (at most 64 bits; \
                             use a part-select)",
                            self.name(name)
                        ));
                    }
                    CExpr::Sig { id, width }
                } else {
                    return undeclared(name);
                }
            }
            Expr::Select { base, index } => {
                let index = Box::new(self.cexpr(index)?);
                let bind = self.binds[base.index()];
                if let Some(m) = bind.mem {
                    CExpr::SelMem { mem: m, index, elem_width: self.mems[m].elem_width }
                } else if let Some(id) = bind.sig {
                    CExpr::SelBit { id, index }
                } else {
                    return undeclared(base);
                }
            }
            Expr::Part { base, hi, lo } => {
                let Some(id) = self.binds[base.index()].sig else {
                    return undeclared(base);
                };
                if hi < lo || hi - lo >= 64 {
                    return err(format!("bad part-select [{hi}:{lo}] on `{}`", self.name(base)));
                }
                CExpr::PartSig { id, hi, lo }
            }
            Expr::Unary { op, a } => CExpr::Unary { op, a: Box::new(self.cexpr(a)?) },
            Expr::Binary { op, a, b } => {
                CExpr::Binary { op, a: Box::new(self.cexpr(a)?), b: Box::new(self.cexpr(b)?) }
            }
            Expr::Cond { c, t, e } => CExpr::Cond {
                c: Box::new(self.cexpr(c)?),
                t: Box::new(self.cexpr(t)?),
                e: Box::new(self.cexpr(e)?),
            },
            Expr::Signed(a) => CExpr::Signed(Box::new(self.cexpr(a)?)),
            Expr::Concat(parts) => {
                let parts = self
                    .m
                    .parts(parts)
                    .iter()
                    .map(|&p| self.cexpr(p))
                    .collect::<Result<Vec<_>, _>>()?;
                let width: u64 = parts.iter().map(|p| u64::from(p.self_width())).sum();
                capped_width(width, "concatenation")?;
                CExpr::Concat(parts)
            }
            Expr::Repeat { n, a } => {
                let a = Box::new(self.cexpr(a)?);
                capped_width(u64::from(n) * u64::from(a.self_width()), "replication")?;
                CExpr::Repeat { n, a }
            }
        })
    }
}

/// Rejects a concatenation or replication wider than [`MAX_WIDTH`] (the
/// operands are already bounded, so only these two can grow a width).
fn capped_width(width: u64, what: &str) -> Result<(), VlogError> {
    if width > u64::from(MAX_WIDTH) {
        return err(format!("{width}-bit {what} exceeds the {MAX_WIDTH}-bit width cap"));
    }
    Ok(())
}

/// Most datapath registers `r{i}` a module may declare (each is one slot
/// of every [`SimResult::regs`]).
const MAX_REGS: usize = 1 << 16;

fn const_value(e: &CExpr) -> Option<u64> {
    match e {
        CExpr::Const { value, width, unsz, .. } => {
            Some(if *unsz { *value } else { value & mask(*width) })
        }
        _ => None,
    }
}

// ------------------------------------------------------------- testbench

/// Runs the Verilog-text simulation on an `rtl::TestCase`, mirroring
/// `rtl::rtl_outputs`: memory inputs are resolved through the design's
/// array map, and the returned [`OutputImage`] contains the return value
/// plus every written external memory, in declaration order.
///
/// # Errors
///
/// Propagates [`SimError`] from the underlying run.
pub fn vlog_outputs(
    sim: &VlogSim,
    case: &TestCase,
    key: &KeyBits,
    opts: &SimOptions,
    mem_of_array: &BTreeMap<hls_ir::ArrayId, hls_core::MemIdx>,
) -> Result<(OutputImage, SimResult), SimError> {
    let overrides: Vec<(usize, Vec<u64>)> = case
        .mem_inputs
        .iter()
        .map(|(id, data)| (mem_of_array[id].0 as usize, data.clone()))
        .collect();
    let res = sim.simulate(&case.args, key, &overrides, opts)?;
    let ret = res.ret.zip(sim.ret.map(|(_, w)| hls_ir::Type::int(w.min(64) as u8, false)));
    let mut mems = Vec::new();
    for (i, m) in sim.mems.iter().enumerate() {
        if m.external && m.written {
            mems.push((
                m.name.clone(),
                hls_ir::Type::int(m.elem_width.min(64) as u8, false),
                res.mems[i].clone(),
            ));
        }
    }
    Ok((OutputImage { ret, mems }, res))
}

#[cfg(test)]
mod tests {
    use super::*;

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
          reg [31:0] r0; // n
          reg [31:0] r1; // acc
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
    fn counter_accumulates_and_counts_cycles() {
        let sim = VlogSim::new(COUNTER).unwrap();
        // Sums n, n-1, …, 0 then one done cycle.
        let res = sim.simulate(&[4], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        assert_eq!(res.ret, Some(4 + 3 + 2 + 1));
        assert_eq!(res.cycles, 6); // 5 accumulate states + done state
        assert!(!res.timed_out);
    }

    #[test]
    fn cycle_budget_enforced() {
        let sim = VlogSim::new(COUNTER).unwrap();
        let err = sim
            .simulate(
                &[100],
                &KeyBits::zero(0),
                &[],
                &SimOptions { max_cycles: 5, snapshot_on_timeout: false },
            )
            .unwrap_err();
        assert_eq!(err, SimError::CycleLimit);
        let snap = sim
            .simulate(
                &[100],
                &KeyBits::zero(0),
                &[],
                &SimOptions { max_cycles: 5, snapshot_on_timeout: true },
            )
            .unwrap();
        assert!(snap.timed_out);
        assert_eq!(snap.cycles, 5);
    }

    #[test]
    fn interface_mismatches_detected() {
        let sim = VlogSim::new(COUNTER).unwrap();
        assert!(matches!(
            sim.simulate(&[], &KeyBits::zero(0), &[], &SimOptions::default()),
            Err(SimError::ArityMismatch { .. })
        ));
        assert!(matches!(
            sim.simulate(&[1], &KeyBits::zero(8), &[], &SimOptions::default()),
            Err(SimError::KeyWidthMismatch { .. })
        ));
    }

    #[test]
    fn signed_context_rules() {
        // -1 (8-bit) sign-extends through $signed into a 32-bit compare.
        let src = r#"
            module t (
                input  wire clk,
                input  wire rst,
                input  wire start,
                input  wire [7:0] arg0,
                output wire [31:0] ret,
                output reg  done
            );
              reg [7:0] r0;
              reg [31:0] r1;
              assign ret = r1;
              always @(posedge clk) begin
                if (rst) begin
                  r0 <= arg0;
                  done <= 1'b0;
                end else if (start) begin
                  r1 <= ($signed(r0) < $signed(8'd0)) ? 32'd1 : 32'd2;
                  done <= 1'b1;
                end
              end
            endmodule
        "#;
        let sim = VlogSim::new(src).unwrap();
        let neg = sim.simulate(&[0xff], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        assert_eq!(neg.ret, Some(1));
        let pos = sim.simulate(&[0x7f], &KeyBits::zero(0), &[], &SimOptions::default()).unwrap();
        assert_eq!(pos.ret, Some(2));
    }

    #[test]
    fn wide_key_part_selects() {
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
              always @(posedge clk) begin
                if (rst) begin
                  done <= 1'b0;
                end else if (start) begin
                  r0 <= const0 + {31'd0, working_key[5]};
                  done <= 1'b1;
                end
              end
            endmodule
        "#;
        let sim = VlogSim::new(src).unwrap();
        let mut key = KeyBits::zero(300);
        key.set_bit(5, true);
        key.set_bit(256, true);
        key.set_bit(258, true);
        let res = sim.simulate(&[], &key, &[], &SimOptions::default()).unwrap();
        assert_eq!(res.ret, Some(0b101 + 1));
    }
}
