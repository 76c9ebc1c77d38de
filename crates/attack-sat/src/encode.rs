//! CNF encoding of the emitted-Verilog netlist over a bounded k-cycle
//! unrolling.
//!
//! The encoder walks the **elaborated netlist** `vlog` exposes
//! ([`VlogSim::body`], [`VlogSim::wires`], [`VlogSim::sigs`]) and mirrors
//! the simulator's evaluation semantics *exactly* — the same IEEE-1364
//! context sizing ([`CExpr::self_width`] / [`CExpr::self_signed`]),
//! the same two-state 64-bit value domain, the same divide-by-zero and
//! shift rules, the same nonblocking commit order — except that every
//! value is a vector of CNF literals instead of a `u64`. The workspace
//! property suite (`tests/prop_cnf.rs`) pins this equivalence against the
//! compiled Verilog tape on random locked designs.
//!
//! The run protocol is the simulator's too: one reset edge (`rst` high,
//! `start` low), then `start` held high for `k` clock edges. Once `done`
//! rises the state **freezes** — later edges keep the registers and
//! memories of the first done cycle — so the unrolling's observable
//! `(done within k, frozen outputs)` equals what
//! `simulate(max_cycles = k)` returns: `Ok(result)` exactly when the
//! encoding's `done` literal is true.
//!
//! Inputs (argument ports and pure-input external memories) and the
//! working key can be free literals (miter copies) or pinned constants
//! (oracle I/O constraints); pinned unrollings mostly fold away through
//! the gate layer's constant propagation.

use crate::bitvec::{clamp_width, Bv};
use hls_core::KeyBits;
use sat::{Gates, Lit};
use vlog::ast::{BinOp, UnOp};
use vlog::{CExpr, CStmt, SigKind, VlogSim};

/// The free/pinned input surface of one unrolling: argument ports plus
/// the contents of every *pure input* external memory (external, never
/// written by the design, no `initial` image).
#[derive(Debug, Clone)]
pub struct EncInputs {
    /// One vector per `arg{i}` port, at the port width.
    pub args: Vec<Bv>,
    /// `(memory id, per-element vectors)` for each free memory, in
    /// [`Encoder::free_mem_ids`] order.
    pub mems: Vec<(usize, Vec<Bv>)>,
}

/// One key operand of an unrolling: free literals (a miter copy) or a
/// pinned constant key.
#[derive(Debug, Clone)]
pub struct KeyLits(pub Vec<Lit>);

impl KeyLits {
    /// Fresh free key literals for a design.
    pub fn fresh(g: &mut Gates, sim: &VlogSim) -> KeyLits {
        KeyLits((0..sim.key_width()).map(|_| g.fresh()).collect())
    }

    /// A pinned constant key.
    pub fn pinned(g: &mut Gates, key: &KeyBits) -> KeyLits {
        KeyLits((0..key.width()).map(|i| g.constant(key.bit(i))).collect())
    }

    /// The model value of the key after a satisfiable solve.
    pub fn model_key(&self, g: &Gates) -> KeyBits {
        let mut k = KeyBits::zero(self.0.len() as u32);
        for (i, &l) in self.0.iter().enumerate() {
            k.set_bit(i as u32, g.model(l));
        }
        k
    }
}

/// The observables of one k-cycle unrolling.
#[derive(Debug, Clone)]
pub struct Unrolling {
    /// `done` rose within the k cycles (⇔ `simulate(max_cycles = k)`
    /// returns `Ok`).
    pub done: Lit,
    /// Frozen `ret` port value at the first done cycle.
    pub ret: Option<Bv>,
    /// `(memory id, frozen per-element vectors)` for each external
    /// written memory — the output image the testbenches compare.
    pub out_mems: Vec<(usize, Vec<Bv>)>,
    /// The unrolled depth.
    pub cycles: u32,
}

/// Per-cycle symbolic state: one vector per signal, the full-width bit
/// array of wide (> 64-bit) input ports, and per-element memory vectors.
#[derive(Clone)]
struct St {
    vals: Vec<Bv>,
    wide: Vec<Option<Vec<Lit>>>,
    mems: Vec<Vec<Bv>>,
}

/// An in-progress unrolling that can be extended frame by frame — the
/// substrate of the attack's lazy incremental growth. Created by
/// [`Encoder::begin`] (which applies the reset edge); [`Encoder::grow`]
/// re-encodes only the new frames, and [`Encoder::observables`] reads
/// the `(done, outputs)` surface at the current depth.
#[derive(Clone)]
pub struct UnrollState {
    st: St,
    done: Lit,
    cycles: u32,
}

impl UnrollState {
    /// `done` rose within the frames encoded so far.
    pub fn done(&self) -> Lit {
        self.done
    }

    /// Frames encoded so far (excluding the reset edge).
    pub fn cycles(&self) -> u32 {
        self.cycles
    }
}

/// One guarded nonblocking update, in source order (later updates win).
enum Upd {
    Sig { id: usize, val: Bv, guard: Lit },
    Mem { mem: usize, idx: Bv, val: Bv, guard: Lit },
}

/// The netlist-to-CNF encoder for one elaborated design.
#[derive(Debug, Clone)]
pub struct Encoder<'a> {
    sim: &'a VlogSim,
}

impl<'a> Encoder<'a> {
    /// An encoder over an elaborated design.
    pub fn new(sim: &'a VlogSim) -> Encoder<'a> {
        Encoder { sim }
    }

    /// Memory ids whose initial contents are attacker inputs: external,
    /// never written by the design, and without an `initial` image.
    pub fn free_mem_ids(&self) -> Vec<usize> {
        let with_init: Vec<usize> = self.sim.init_image().iter().map(|&(m, _, _)| m).collect();
        self.sim
            .cmems()
            .iter()
            .enumerate()
            .filter(|(i, m)| m.external && !m.written && !with_init.contains(i))
            .map(|(i, _)| i)
            .collect()
    }

    /// Memory ids of the output image: external memories the design
    /// writes, in declaration order (the `vlog_outputs` filter).
    pub fn out_mem_ids(&self) -> Vec<usize> {
        self.sim
            .cmems()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.external && m.written)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fresh free input literals for every argument port and free memory.
    pub fn fresh_inputs(&self, g: &mut Gates) -> EncInputs {
        let args =
            self.sim.arg_ids().iter().map(|&id| Bv::fresh(g, self.sim.sigs()[id].width)).collect();
        let mems = self
            .free_mem_ids()
            .into_iter()
            .map(|mi| {
                let m = &self.sim.cmems()[mi];
                (mi, (0..m.len).map(|_| Bv::fresh(g, m.elem_width)).collect())
            })
            .collect();
        EncInputs { args, mems }
    }

    /// Pinned constant inputs (an oracle I/O constraint's stimulus).
    /// `mem_contents` supplies the free memories in
    /// [`Encoder::free_mem_ids`] order; missing elements read as zero.
    pub fn pinned_inputs(
        &self,
        g: &mut Gates,
        args: &[u64],
        mem_contents: &[Vec<u64>],
    ) -> EncInputs {
        let enc_args = self
            .sim
            .arg_ids()
            .iter()
            .zip(args)
            .map(|(&id, &v)| Bv::constant(g, v, self.sim.sigs()[id].width))
            .collect();
        let mems = self
            .free_mem_ids()
            .into_iter()
            .enumerate()
            .map(|(slot, mi)| {
                let m = &self.sim.cmems()[mi];
                let data = mem_contents.get(slot);
                let elems = (0..m.len)
                    .map(|j| {
                        let v = data.and_then(|d| d.get(j)).copied().unwrap_or(0);
                        Bv::constant(g, v, m.elem_width)
                    })
                    .collect();
                (mi, elems)
            })
            .collect();
        EncInputs { args: enc_args, mems }
    }

    /// Unrolls the design for `k` clock edges after the reset edge and
    /// returns its observables.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`/`key` do not match the design's port shapes.
    pub fn unroll(&self, g: &mut Gates, k: u32, inputs: &EncInputs, key: &KeyLits) -> Unrolling {
        let mut u = self.begin(g, inputs, key);
        self.grow(g, &mut u, k);
        self.observables(g, &u)
    }

    /// Starts an extendable unrolling: builds the initial state and
    /// applies the reset edge (`rst` high, `start` low), leaving `start`
    /// high for the frames [`Encoder::grow`] adds.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`/`key` do not match the design's port shapes.
    pub fn begin(&self, g: &mut Gates, inputs: &EncInputs, key: &KeyLits) -> UnrollState {
        assert_eq!(inputs.args.len(), self.sim.num_args(), "argument count mismatch");
        assert_eq!(key.0.len() as u32, self.sim.key_width(), "key width mismatch");
        let mut st = self.initial_state(g, inputs, key);
        self.drive_bit(g, &mut st, self.sim.rst_id(), true);
        self.drive_bit(g, &mut st, self.sim.start_id(), false);
        st = self.posedge(g, &st);
        self.drive_bit(g, &mut st, self.sim.rst_id(), false);
        self.drive_bit(g, &mut st, self.sim.start_id(), true);
        UnrollState { st, done: g.fls(), cycles: 0 }
    }

    /// Extends an unrolling by `delta` clock edges, encoding only the
    /// new frames against the stored boundary state.
    pub fn grow(&self, g: &mut Gates, u: &mut UnrollState, delta: u32) {
        let done_id = self.sim.done_id();
        for _ in 0..delta {
            let next = self.posedge(g, &u.st);
            // Freeze once done: the edge that raises `done` commits fully
            // (the simulator reads results after that edge); every later
            // edge keeps the frozen state.
            u.st = merge_frozen(g, u.done, &u.st, next);
            let done_now = u.st.vals[done_id].0[0];
            u.done = g.or(u.done, done_now);
        }
        u.cycles += delta;
    }

    /// The `(done, outputs)` observable surface at the current depth.
    pub fn observables(&self, g: &mut Gates, u: &UnrollState) -> Unrolling {
        let mut cache = self.fresh_cache();
        let ret = self.sim.ret_sig().map(|(id, w)| {
            let v = self.read_sig(g, &u.st, &mut cache, id);
            v.extend(g, w, false)
        });
        let out_mems =
            self.out_mem_ids().into_iter().map(|mi| (mi, u.st.mems[mi].clone())).collect();
        Unrolling { done: u.done, ret, out_mems, cycles: u.cycles }
    }

    // -------------------------------------------------------- state

    fn initial_state(&self, g: &mut Gates, inputs: &EncInputs, key: &KeyLits) -> St {
        let zero_of = |g: &mut Gates, w: u32| Bv::constant(g, 0, w);
        let mut st = St {
            vals: self.sim.sigs().iter().map(|s| zero_of(g, s.width)).collect(),
            wide: vec![None; self.sim.sigs().len()],
            mems: self
                .sim
                .cmems()
                .iter()
                .map(|m| (0..m.len).map(|_| zero_of(g, m.elem_width)).collect())
                .collect(),
        };
        // Init images, then the free-memory inputs (mirroring the
        // simulator's init-then-override order).
        for &(m, i, v) in self.sim.init_image() {
            st.mems[m][i] = Bv::constant(g, v, self.sim.cmems()[m].elem_width);
        }
        for (mi, elems) in &inputs.mems {
            for (j, e) in elems.iter().enumerate().take(self.sim.cmems()[*mi].len) {
                st.mems[*mi][j] = e.extend(g, self.sim.cmems()[*mi].elem_width, false);
            }
        }
        // Drive argument ports.
        for (&id, v) in self.sim.arg_ids().iter().zip(&inputs.args) {
            st.vals[id] = v.extend(g, self.sim.sigs()[id].width, false);
        }
        // Drive the key: wide keys live in the side table read only
        // through bit- and part-selects, like the simulator's wide map.
        if let Some((id, w)) = self.sim.key_sig() {
            if w > 64 {
                st.wide[id] = Some(key.0.clone());
            } else {
                st.vals[id] = Bv(key.0.clone());
            }
        }
        st
    }

    fn drive_bit(&self, g: &mut Gates, st: &mut St, id: usize, v: bool) {
        st.vals[id] = Bv::constant(g, v as u64, self.sim.sigs()[id].width);
    }

    fn fresh_cache(&self) -> Vec<Option<Bv>> {
        vec![None; self.sim.wires().len()]
    }

    /// One clock edge: evaluate every guarded right-hand side against the
    /// pre-edge state, then commit the updates in source order.
    fn posedge(&self, g: &mut Gates, st: &St) -> St {
        let mut cache = self.fresh_cache();
        let mut ups = Vec::new();
        let tru = g.tru();
        self.exec(g, st, &mut cache, self.sim.body(), tru, &mut ups);
        let mut next = St { vals: st.vals.clone(), wide: st.wide.clone(), mems: st.mems.clone() };
        for up in ups {
            match up {
                Upd::Sig { id, val, guard } => {
                    next.vals[id] = val.mux(g, guard, &next.vals[id]);
                }
                Upd::Mem { mem, idx, val, guard } => {
                    for j in 0..self.sim.cmems()[mem].len {
                        let here = idx.equals_const(g, j as u64);
                        let sel = g.and(guard, here);
                        next.mems[mem][j] = val.mux(g, sel, &next.mems[mem][j]);
                    }
                }
            }
        }
        next
    }

    // ----------------------------------------------------- statements

    fn exec(
        &self,
        g: &mut Gates,
        st: &St,
        cache: &mut Vec<Option<Bv>>,
        s: &CStmt,
        guard: Lit,
        ups: &mut Vec<Upd>,
    ) {
        if g.is_const(guard, false) {
            return; // dead path: nothing can commit
        }
        match s {
            CStmt::Block(body) => {
                for s in body {
                    self.exec(g, st, cache, s, guard, ups);
                }
            }
            CStmt::If { cond, then_s, else_s } => {
                let c = self.eval_self(g, st, cache, cond);
                let c = c.nonzero(g);
                let then_g = g.and(guard, c);
                self.exec(g, st, cache, then_s, then_g, ups);
                if let Some(e) = else_s {
                    let else_g = g.and(guard, !c);
                    self.exec(g, st, cache, e, else_g, ups);
                }
            }
            CStmt::Case { subject, arms, map, default } => {
                let subj = self.eval_self(g, st, cache, subject);
                if let Some(v) = subj.const_value(g) {
                    // Constant dispatch (pinned-input unrollings): walk
                    // the taken arm only.
                    if let Some(&i) = map.get(&v).or(default.as_ref()) {
                        self.exec(g, st, cache, &arms[i], guard, ups);
                    }
                    return;
                }
                // Guard per arm: the disjunction of its label matches.
                let mut arm_guard: Vec<Lit> = vec![g.fls(); arms.len()];
                let mut any = g.fls();
                for (&label, &arm) in map {
                    let here = subj.equals_const(g, label);
                    arm_guard[arm] = g.or(arm_guard[arm], here);
                    any = g.or(any, here);
                }
                if let Some(d) = default {
                    arm_guard[*d] = g.or(arm_guard[*d], !any);
                }
                for (i, arm) in arms.iter().enumerate() {
                    let ag = g.and(guard, arm_guard[i]);
                    self.exec(g, st, cache, arm, ag, ups);
                }
            }
            CStmt::AssignSig { id, width, value } => {
                let val = self.eval_assign(g, st, cache, value, *width);
                ups.push(Upd::Sig { id: *id, val, guard });
            }
            CStmt::AssignMem { mem, index, elem_width, value } => {
                let idx = self.eval_self(g, st, cache, index);
                let val = self.eval_assign(g, st, cache, value, *elem_width);
                ups.push(Upd::Mem { mem: *mem, idx, val, guard });
            }
            CStmt::Null => {}
        }
    }

    // ---------------------------------------------------- expressions

    fn eval_assign(
        &self,
        g: &mut Gates,
        st: &St,
        cache: &mut Vec<Option<Bv>>,
        e: &CExpr,
        target_width: u32,
    ) -> Bv {
        let w = target_width.max(e.self_width());
        let v = self.eval(g, st, cache, e, w, e.self_signed());
        v.extend(g, target_width, false)
    }

    fn eval_self(&self, g: &mut Gates, st: &St, cache: &mut Vec<Option<Bv>>, e: &CExpr) -> Bv {
        self.eval(g, st, cache, e, e.self_width(), e.self_signed())
    }

    /// A signal's current value at its declared width (wires evaluate
    /// on demand against the current state, cached per edge).
    fn read_sig(&self, g: &mut Gates, st: &St, cache: &mut Vec<Option<Bv>>, id: usize) -> Bv {
        match self.sim.sigs()[id].kind {
            SigKind::Input | SigKind::Reg => st.vals[id].clone(),
            SigKind::Wire(w) => {
                if let Some(v) = &cache[w] {
                    return v.clone();
                }
                let e = self.sim.wires()[w].clone();
                let v = self.eval_assign(g, st, cache, &e, self.sim.sigs()[id].width);
                cache[w] = Some(v.clone());
                v
            }
        }
    }

    /// One bit of a signal at a symbolic index: the simulator's
    /// `read_bits_checked` (wide inputs read their side table; bits past
    /// the width, or indexes past `u32`, read zero).
    fn select_bit(
        &self,
        g: &mut Gates,
        st: &St,
        cache: &mut Vec<Option<Bv>>,
        id: usize,
        index: &Bv,
    ) -> Lit {
        let huge: Vec<Lit> = index.0.iter().skip(32).copied().collect();
        let huge = g.or_many(&huge);
        let bits: Vec<Lit> = match &st.wide[id] {
            Some(words) => words.clone(),
            None => self.read_sig(g, st, cache, id).0,
        };
        let mut acc = g.fls();
        for (j, &bit) in bits.iter().enumerate() {
            if g.is_const(bit, false) {
                continue;
            }
            let here = index.equals_const(g, j as u64);
            let take = g.and(here, bit);
            acc = g.or(acc, take);
        }
        g.and(!huge, acc)
    }

    /// A constant part-select, as the simulator's `read_bits`.
    fn part_select(
        &self,
        g: &mut Gates,
        st: &St,
        cache: &mut Vec<Option<Bv>>,
        id: usize,
        hi: u32,
        lo: u32,
    ) -> Bv {
        let width = hi - lo + 1;
        if let Some(words) = &st.wide[id] {
            let fls = g.fls();
            return Bv((lo..=hi).map(|b| words.get(b as usize).copied().unwrap_or(fls)).collect());
        }
        let v = self.read_sig(g, st, cache, id);
        if lo >= 64 {
            return Bv::constant(g, 0, width);
        }
        let fls = g.fls();
        Bv((lo..=hi).map(|b| v.0.get(b as usize).copied().unwrap_or(fls)).collect())
    }

    fn eval(
        &self,
        g: &mut Gates,
        st: &St,
        cache: &mut Vec<Option<Bv>>,
        e: &CExpr,
        w: u32,
        s: bool,
    ) -> Bv {
        match e {
            CExpr::Const { value, width, signed, unsz } => {
                if *unsz {
                    Bv::constant(g, *value, w)
                } else {
                    let from = Bv::constant(g, *value, *width);
                    from.extend(g, w, s && *signed)
                }
            }
            CExpr::Sig { id, .. } => {
                let v = self.read_sig(g, st, cache, *id);
                v.extend(g, w, false)
            }
            CExpr::SelBit { id, index } => {
                let idx = self.eval_self(g, st, cache, index);
                let bit = self.select_bit(g, st, cache, *id, &idx);
                let mut bits = vec![bit];
                let fls = g.fls();
                bits.resize(clamp_width(w), fls);
                Bv(bits)
            }
            CExpr::SelMem { mem, index, .. } => {
                let idx = self.eval_self(g, st, cache, index);
                let v = self.mem_select(g, st, *mem, &idx);
                v.extend(g, w, false)
            }
            CExpr::PartSig { id, hi, lo } => {
                let v = self.part_select(g, st, cache, *id, *hi, *lo);
                v.extend(g, w, false)
            }
            CExpr::Unary { op, a } => match op {
                UnOp::Not => {
                    let v = self.eval(g, st, cache, a, w, s);
                    v.not(g)
                }
                UnOp::Neg => {
                    let v = self.eval(g, st, cache, a, w, s);
                    v.neg(g)
                }
                UnOp::LogNot => {
                    let v = self.eval_self(g, st, cache, a);
                    let nz = v.nonzero(g);
                    let mut bits = vec![!nz];
                    let fls = g.fls();
                    bits.resize(clamp_width(w), fls);
                    Bv(bits)
                }
            },
            CExpr::Binary { op, a, b } => self.eval_binary(g, st, cache, *op, a, b, w, s),
            CExpr::Cond { c, t, e: ee } => {
                let cv = self.eval_self(g, st, cache, c);
                let cl = cv.nonzero(g);
                let tv = self.eval(g, st, cache, t, w, s);
                let ev = self.eval(g, st, cache, ee, w, s);
                tv.mux(g, cl, &ev)
            }
            CExpr::Signed(a) => {
                let aw = a.self_width();
                let v = self.eval(g, st, cache, a, aw, a.self_signed());
                v.extend(g, w, s)
            }
            CExpr::Concat(parts) => {
                let mut acc: Vec<Lit> = Vec::new();
                for p in parts {
                    let pw = p.self_width();
                    let v = self.eval(g, st, cache, p, pw, p.self_signed());
                    // acc = (acc << pw) | v, truncated to the 64-bit
                    // value domain like the simulator's u64 accumulator.
                    let mut next = v.0;
                    next.extend_from_slice(&acc);
                    next.truncate(64);
                    acc = next;
                }
                Bv(acc).extend(g, w, false)
            }
            CExpr::Repeat { n, a } => {
                let aw = a.self_width();
                let v = self.eval(g, st, cache, a, aw, a.self_signed());
                let mut acc: Vec<Lit> = Vec::new();
                for _ in 0..*n {
                    let mut next = v.0.clone();
                    next.extend_from_slice(&acc);
                    next.truncate(64);
                    acc = next;
                }
                Bv(acc).extend(g, w, false)
            }
        }
    }

    /// Memory element at a symbolic index (out of range reads zero).
    fn mem_select(&self, g: &mut Gates, st: &St, mem: usize, idx: &Bv) -> Bv {
        let elem_width = self.sim.cmems()[mem].elem_width;
        let mut acc = Bv::constant(g, 0, elem_width);
        if let Some(v) = idx.const_value(g) {
            return match st.mems[mem].get(v as usize) {
                Some(e) => e.clone(),
                None => acc,
            };
        }
        for (j, elem) in st.mems[mem].iter().enumerate() {
            let here = idx.equals_const(g, j as u64);
            acc = elem.mux(g, here, &acc);
        }
        acc
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_binary(
        &self,
        g: &mut Gates,
        st: &St,
        cache: &mut Vec<Option<Bv>>,
        op: BinOp,
        a: &CExpr,
        b: &CExpr,
        w: u32,
        s: bool,
    ) -> Bv {
        use BinOp as B;
        match op {
            B::Add | B::Sub | B::Mul | B::And | B::Or | B::Xor => {
                let va = self.eval(g, st, cache, a, w, s);
                let vb = self.eval(g, st, cache, b, w, s);
                match op {
                    B::Add => va.add(g, &vb),
                    B::Sub => va.sub(g, &vb),
                    B::Mul => va.mul(g, &vb),
                    B::And => va.and(g, &vb),
                    B::Or => va.or(g, &vb),
                    _ => va.xor(g, &vb),
                }
            }
            B::Div | B::Rem => {
                let va = self.eval(g, st, cache, a, w, s);
                let vb = self.eval(g, st, cache, b, w, s);
                if op == B::Div {
                    va.div(g, &vb, s)
                } else {
                    va.rem(g, &vb, s)
                }
            }
            B::Shl | B::Shr | B::AShr => {
                let va = self.eval(g, st, cache, a, w, s);
                let sh = self.eval_self(g, st, cache, b);
                match op {
                    B::Shl => va.shl(g, &sh),
                    B::Shr => va.shr(g, &sh),
                    _ => {
                        if s {
                            va.ashr(g, &sh)
                        } else {
                            va.shr(g, &sh)
                        }
                    }
                }
            }
            B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge => {
                let cw = a.self_width().max(b.self_width());
                let cs = a.self_signed() && b.self_signed();
                let va = self.eval(g, st, cache, a, cw, cs);
                let vb = self.eval(g, st, cache, b, cw, cs);
                let r = match op {
                    B::Eq => va.equals(g, &vb),
                    B::Ne => {
                        let eq = va.equals(g, &vb);
                        !eq
                    }
                    B::Lt => {
                        if cs {
                            va.slt(g, &vb)
                        } else {
                            va.ult(g, &vb)
                        }
                    }
                    B::Le => {
                        let gt = if cs { vb.slt(g, &va) } else { vb.ult(g, &va) };
                        !gt
                    }
                    B::Gt => {
                        if cs {
                            vb.slt(g, &va)
                        } else {
                            vb.ult(g, &va)
                        }
                    }
                    _ => {
                        let lt = if cs { va.slt(g, &vb) } else { va.ult(g, &vb) };
                        !lt
                    }
                };
                bool_to_bv(g, r, w)
            }
            B::LAnd => {
                let va = self.eval_self(g, st, cache, a);
                let vb = self.eval_self(g, st, cache, b);
                let na = va.nonzero(g);
                let nb = vb.nonzero(g);
                let r = g.and(na, nb);
                bool_to_bv(g, r, w)
            }
            B::LOr => {
                let va = self.eval_self(g, st, cache, a);
                let vb = self.eval_self(g, st, cache, b);
                let na = va.nonzero(g);
                let nb = vb.nonzero(g);
                let r = g.or(na, nb);
                bool_to_bv(g, r, w)
            }
        }
    }
}

/// `done_any ? frozen : next` over the whole state (unchanged literals
/// fold away through the gate layer).
fn merge_frozen(g: &mut Gates, done_any: Lit, frozen: &St, next: St) -> St {
    if g.is_const(done_any, false) {
        return next;
    }
    St {
        vals: frozen.vals.iter().zip(&next.vals).map(|(f, n)| f.mux(g, done_any, n)).collect(),
        wide: next.wide,
        mems: frozen
            .mems
            .iter()
            .zip(&next.mems)
            .map(|(fm, nm)| fm.iter().zip(nm).map(|(f, n)| f.mux(g, done_any, n)).collect())
            .collect(),
    }
}

fn bool_to_bv(g: &mut Gates, l: Lit, w: u32) -> Bv {
    let mut bits = vec![l];
    let fls = g.fls();
    bits.resize(clamp_width(w), fls);
    Bv(bits)
}
