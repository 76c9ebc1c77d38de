//! Verilog code generation (paper Fig. 2, "Code Generation").
//!
//! Emits a single synthesizable-style module for an [`Fsmd`]: a state
//! register with one `case` arm per controller state, datapath registers,
//! behavioural memories, and a `working_key` input port. All three TAO
//! obfuscations appear structurally in the text: constants as
//! `stored ^ working_key[hi:lo]` expressions, masked branches as
//! `(test ^ working_key[j])` next-state selects, and DFG variants as
//! nested `case` statements over the block's key-bit selector.
//!
//! The emitted text is *executable*: the `vlog` crate parses and simulates
//! it, and the three-way differential oracle (`tao::verify`) checks it
//! bit-for-bit and cycle-for-cycle against the FSMD simulator in `rtl`
//! and the IR interpreter, reproducing the paper's Sec. 4.1 extended
//! testbenches on the foundry-visible artifact itself. Fidelity rules the
//! emitter therefore follows:
//!
//! - every operand is rendered at exactly the width the FSMD model reads
//!   it (part-selects narrow, zero-pad concats widen), so Verilog's
//!   context-sizing rules coincide with the model's typed evaluation;
//! - multi-cycle units (`*`, `/`) issue into explicit `(value, target,
//!   valid)` pipeline registers and retire `latency - 1` edges later,
//!   exactly when the simulator's pending-write queue commits;
//! - division and remainder carry the model's defined divide-by-zero
//!   results (`if`/`else` guards, all-ones resp. the dividend);
//! - shift amounts are reduced modulo the operand width, and memory
//!   addresses are wrapped with the model's Euclidean-remainder decode;
//! - memory init images are emitted as `initial` blocks and external
//!   memories carry an `(* external *)` attribute.
//!
//! Every line is written straight into one output `String`, pre-sized
//! from an estimate: operands, `$signed` wrappers and address decodes are
//! small `Display` values formatted in place, and a statement takes no
//! temporary `String` or `Vec` of its own.

use crate::fsmd::{Fsmd, FuOp, NextState, OpAlt, Src, State};
use crate::regbind::RegId;
use hls_ir::{BinOp, CmpPred, Type, UnOp};
use std::fmt::{self, Write as _};

/// Emits the Verilog for `fsmd`.
pub fn emit(fsmd: &Fsmd) -> String {
    let mut v = String::with_capacity(size_estimate(fsmd));
    let w = &mut v;
    let kw = fsmd.key_width;

    writeln!(w, "// Generated by the TAO reproduction flow.").unwrap();
    writeln!(
        w,
        "// Design: {} | states: {} | working key: {} bits",
        fsmd.name,
        fsmd.states.len(),
        kw
    )
    .unwrap();
    w.push_str("module ");
    w.extend(fsmd.name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
    w.push_str(" (\n");
    writeln!(w, "    input  wire clk,").unwrap();
    writeln!(w, "    input  wire rst,").unwrap();
    writeln!(w, "    input  wire start,").unwrap();
    if kw > 0 {
        writeln!(w, "    input  wire [{}:0] working_key,", kw - 1).unwrap();
    }
    for (i, r) in fsmd.params.iter().enumerate() {
        let width = fsmd.reg_widths[r.index()];
        writeln!(w, "    input  wire [{}:0] arg{},", width - 1, i).unwrap();
    }
    if let Some(rr) = fsmd.ret_reg {
        let width = fsmd.reg_widths[rr.index()];
        writeln!(w, "    output wire [{}:0] ret,", width - 1).unwrap();
    }
    writeln!(w, "    output reg  done").unwrap();
    writeln!(w, ");").unwrap();

    // State encoding.
    let n_states = fsmd.states.len().max(1);
    let sbits = (usize::BITS - (n_states - 1).leading_zeros()).max(1);
    writeln!(w, "\n  // controller").unwrap();
    writeln!(w, "  reg [{}:0] state;", sbits - 1).unwrap();
    for i in 0..n_states {
        writeln!(w, "  localparam S{i} = {sbits}'d{i};").unwrap();
    }

    // Registers.
    writeln!(w, "\n  // datapath registers").unwrap();
    for (i, (&width, name)) in fsmd.reg_widths.iter().zip(&fsmd.reg_names).enumerate() {
        writeln!(w, "  reg [{}:0] r{}; // {}", width - 1, i, name).unwrap();
    }
    if let Some(rr) = fsmd.ret_reg {
        writeln!(w, "  assign ret = r{};", rr.index()).unwrap();
    }

    // Multi-cycle unit pipelines: a result issued at cycle t must land at
    // the edge of cycle t + latency - 1 (the write moment register binding
    // counts on), so each multi-cycle FU carries latency - 1 stages of
    // (value, target register, valid) flops.
    let pipes = collect_pipes(fsmd);
    let tw = reg_tag_width(fsmd.reg_widths.len());
    if !pipes.is_empty() {
        writeln!(w, "\n  // multi-cycle unit pipelines").unwrap();
        for p in &pipes {
            writeln!(
                w,
                "  // fu{}: {:?}, latency {} ({} stage{})",
                p.fu,
                fsmd.fus[p.fu].kind,
                p.latency,
                p.stages(),
                if p.stages() == 1 { "" } else { "s" }
            )
            .unwrap();
            for s in 1..=p.stages() {
                writeln!(
                    w,
                    "  reg [63:0] fu{0}_d{1}; reg [{2}:0] fu{0}_t{1}; reg fu{0}_v{1};",
                    p.fu,
                    s,
                    tw - 1
                )
                .unwrap();
            }
        }
    }

    // Memories.
    if !fsmd.mems.is_empty() {
        writeln!(w, "\n  // memories").unwrap();
        for (i, m) in fsmd.mems.iter().enumerate() {
            writeln!(
                w,
                "  {}reg [{}:0] mem{} [0:{}]; // {}",
                if m.external { "(* external *) " } else { "" },
                m.elem_ty.width() - 1,
                i,
                m.len.max(1) - 1,
                m.name,
            )
            .unwrap();
        }
        for (i, m) in fsmd.mems.iter().enumerate() {
            let Some(init) = &m.init else { continue };
            writeln!(w, "  initial begin // init image of {}", m.name).unwrap();
            for (j, val) in init.iter().enumerate().take(m.len) {
                writeln!(
                    w,
                    "    mem{}[{}] = {}'h{:x};",
                    i,
                    j,
                    m.elem_ty.width(),
                    m.elem_ty.truncate(*val)
                )
                .unwrap();
            }
            writeln!(w, "  end").unwrap();
        }
    }

    // Constants (TAO: stored encrypted, decrypted with key bits).
    writeln!(w, "\n  // constant store").unwrap();
    for (i, c) in fsmd.consts.iter().enumerate() {
        match c.key_xor {
            None => {
                // Baseline constants are hardwired at their logical width;
                // `storage_width` records the bit-width-aware area sizing.
                let tyw = c.ty.width();
                writeln!(
                    w,
                    "  wire [{}:0] const{} = {}'h{:x}; // {} significant bits",
                    tyw - 1,
                    i,
                    tyw,
                    c.ty.truncate(c.bits),
                    c.storage_width
                )
                .unwrap();
            }
            Some(kr) => {
                let sw = c.storage_width;
                writeln!(
                    w,
                    "  wire [{}:0] const{} = {}'h{:x} ^ working_key[{}:{}]; // TAO Eq. 3",
                    sw - 1,
                    i,
                    sw,
                    c.bits,
                    kr.lo + kr.width - 1,
                    kr.lo
                )
                .unwrap();
            }
        }
    }

    // Main FSM.
    writeln!(w, "\n  always @(posedge clk) begin").unwrap();
    writeln!(w, "    if (rst) begin").unwrap();
    writeln!(w, "      state <= S{};", fsmd.entry.index()).unwrap();
    writeln!(w, "      done <= 1'b0;").unwrap();
    for (i, r) in fsmd.params.iter().enumerate() {
        writeln!(w, "      r{} <= arg{};", r.index(), i).unwrap();
    }
    for p in &pipes {
        for s in 1..=p.stages() {
            writeln!(w, "      fu{}_v{} <= 1'b0;", p.fu, s).unwrap();
        }
    }
    writeln!(w, "    end else if (start || state != S{}) begin", fsmd.entry.index()).unwrap();
    if !pipes.is_empty() {
        writeln!(w, "      // advance multi-cycle pipelines (occupied stages only:").unwrap();
        writeln!(w, "      // empty slots must not toggle data/tag registers)").unwrap();
        for p in &pipes {
            writeln!(w, "      fu{}_v1 <= 1'b0;", p.fu).unwrap();
            for s in 2..=p.stages() {
                writeln!(
                    w,
                    "      if (fu{0}_v{2}) begin fu{0}_d{1} <= fu{0}_d{2}; fu{0}_t{1} <= fu{0}_t{2}; end",
                    p.fu,
                    s,
                    s - 1
                )
                .unwrap();
                writeln!(w, "      fu{0}_v{1} <= fu{0}_v{2};", p.fu, s, s - 1).unwrap();
            }
        }
    }
    writeln!(w, "      case (state)").unwrap();
    for (si, st) in fsmd.states.iter().enumerate() {
        writeln!(w, "        S{si}: begin // block bb{}", st.block.0).unwrap();
        emit_state_body(w, fsmd, st, tw);
        emit_transition(w, st);
        writeln!(w, "        end").unwrap();
    }
    writeln!(w, "        default: state <= S{};", fsmd.entry.index()).unwrap();
    writeln!(w, "      endcase").unwrap();
    // Retires come after the state case: a pending multi-cycle result
    // landing this edge overrides a same-cycle single-cycle write, exactly
    // like the simulator's pending-queue commit order.
    for p in &pipes {
        let s = p.stages();
        writeln!(w, "      // retire fu{} results", p.fu).unwrap();
        writeln!(w, "      if (fu{}_v{}) begin", p.fu, s).unwrap();
        writeln!(w, "        case (fu{}_t{})", p.fu, s).unwrap();
        for &d in &p.dsts {
            writeln!(w, "          {}'d{}: r{} <= fu{}_d{};", tw, d, d, p.fu, s).unwrap();
        }
        writeln!(w, "          default: ;").unwrap();
        writeln!(w, "        endcase").unwrap();
        writeln!(w, "      end").unwrap();
    }
    writeln!(w, "    end").unwrap();
    writeln!(w, "  end").unwrap();
    writeln!(w, "endmodule").unwrap();
    v
}

/// One multi-cycle functional unit needing a result pipeline.
struct Pipe {
    fu: usize,
    latency: u32,
    /// Register indices this unit can retire into.
    dsts: Vec<usize>,
}

impl Pipe {
    fn stages(&self) -> u32 {
        self.latency - 1
    }
}

fn collect_pipes(fsmd: &Fsmd) -> Vec<Pipe> {
    let mut pipes: Vec<Pipe> = Vec::new();
    for (_, op) in fsmd.micro_ops() {
        let latency = fsmd.fus[op.fu.0 as usize].kind.latency();
        let Some(d) = op.dst else { continue };
        if latency <= 1 {
            continue;
        }
        match pipes.iter_mut().find(|p| p.fu == op.fu.0 as usize) {
            Some(p) => {
                if !p.dsts.contains(&d.index()) {
                    p.dsts.push(d.index());
                }
            }
            None => pipes.push(Pipe { fu: op.fu.0 as usize, latency, dsts: vec![d.index()] }),
        }
    }
    for p in &mut pipes {
        p.dsts.sort_unstable();
    }
    pipes.sort_by_key(|p| p.fu);
    pipes
}

/// Bits needed to tag a destination register index.
fn reg_tag_width(nregs: usize) -> u32 {
    (usize::BITS - nregs.max(2).saturating_sub(1).leading_zeros()).max(1)
}

fn emit_state_body(w: &mut String, fsmd: &Fsmd, st: &State, tw: u32) {
    for op in &st.ops {
        let fu = op.fu.0 as usize;
        let sink = match op.dst {
            Some(d) if fsmd.fus[fu].kind.latency() > 1 => Sink::Pipe { fu, dst: d, tw },
            Some(d) => Sink::Direct(d),
            None => Sink::Dropped,
        };
        match (st.variant_key, op.alts.len()) {
            (Some(kr), n) if n > 1 => {
                // TAO DFG variants: the key bits select the alternative.
                let (hi, lo) = (kr.lo + kr.width - 1, kr.lo);
                writeln!(w, "          case (working_key[{hi}:{lo}]) // TAO variant select")
                    .unwrap();
                for (vi, alt) in op.alts.iter().enumerate() {
                    if sink.statements(alt) == 1 {
                        write!(w, "            {}'d{}: ", kr.width, vi).unwrap();
                        emit_alt(w, fsmd, op.ty, alt, &sink, "");
                    } else {
                        writeln!(w, "            {}'d{}: begin", kr.width, vi).unwrap();
                        emit_alt(w, fsmd, op.ty, alt, &sink, "              ");
                        w.push_str("            end\n");
                    }
                }
                w.push_str("          endcase\n");
            }
            _ => emit_alt(w, fsmd, op.ty, &op.alts[0], &sink, "          "),
        }
    }
}

fn emit_transition(w: &mut String, st: &State) {
    match st.next {
        NextState::Goto(t) => writeln!(w, "          state <= S{};", t.index()),
        NextState::Branch { test, key_bit: None, then_s, else_s } => writeln!(
            w,
            "          state <= (r{}[0] == 1'b1) ? S{} : S{};",
            test.index(),
            then_s.index(),
            else_s.index()
        ),
        // TAO Eq. 4: test ^ K_j == 1.
        NextState::Branch { test, key_bit: Some(kb), then_s, else_s } => writeln!(
            w,
            "          state <= ((r{}[0] ^ working_key[{}]) == 1'b1) ? S{} : S{};",
            test.index(),
            kb,
            then_s.index(),
            else_s.index()
        ),
        NextState::Done => writeln!(w, "          done <= 1'b1;"),
    }
    .unwrap();
}

/// An operand rendered at exactly `use_width` bits: the raw bit pattern
/// the FSMD simulator's typed read sees (narrow sources zero-extend, wide
/// sources truncate).
#[derive(Clone, Copy)]
enum Operand {
    /// A register `r{index}` or a constant `const{index}`, declared
    /// `width` bits wide.
    Named { prefix: &'static str, index: usize, width: u8, use_width: u8 },
    /// An absent port, which reads as zero.
    Zero { use_width: u8 },
}

impl Operand {
    fn of(fsmd: &Fsmd, s: Src, use_width: u8) -> Operand {
        let (prefix, index, width) = match s {
            Src::Reg(r) => ("r", r.index(), fsmd.reg_widths[r.index()]),
            Src::Const(c) => {
                let e = &fsmd.consts[c.0 as usize];
                let declared = match e.key_xor {
                    Some(_) => e.storage_width,
                    None => e.ty.width(),
                };
                ("const", c.0 as usize, declared)
            }
        };
        Operand::Named { prefix, index, width, use_width }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Operand::Named { prefix, index, width, use_width } => {
                if width == use_width {
                    f.write_str(prefix)?;
                    index.fmt(f)
                } else if width > use_width {
                    write!(f, "{prefix}{index}[{}:0]", use_width - 1)
                } else {
                    write!(f, "{{{}'d0, {prefix}{index}}}", use_width - width)
                }
            }
            Operand::Zero { use_width } => write!(f, "{use_width}'d0"),
        }
    }
}

/// `$signed(x)` when the flag is set, else `x` as it is.
struct Signed<T>(bool, T);

impl<T: fmt::Display> fmt::Display for Signed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 {
            f.write_str("$signed(")?;
            self.1.fmt(f)?;
            f.write_str(")")
        } else {
            self.1.fmt(f)
        }
    }
}

/// The model's address decode: interpret the low 32 address bits as a
/// signed index and wrap it into `[0, len)` (Euclidean remainder). For
/// power-of-two lengths the unsigned remainder is identical and reads as
/// the usual low-bits decode.
struct WrapIndex {
    a32: Operand,
    len: usize,
}

impl fmt::Display for WrapIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a32, l) = (self.a32, self.len.max(1));
        if l.is_power_of_two() {
            write!(f, "({a32} % 32'd{l})")
        } else {
            write!(f, "((($signed({a32}) % 32'sd{l}) + 32'sd{l}) % 32'sd{l})")
        }
    }
}

/// Where a micro-op's register result lands: directly in its destination
/// register (single-cycle) or issued into a multi-cycle unit's pipeline.
enum Sink {
    Direct(RegId),
    Pipe { fu: usize, dst: RegId, tw: u32 },
    Dropped,
}

impl Sink {
    /// How many statements one alternative writes through this sink.
    fn statements(&self, alt: &OpAlt) -> usize {
        match (self, alt.op) {
            (_, FuOp::Store { .. }) => 1,
            (Sink::Pipe { .. }, _) => 2,
            _ => 1,
        }
    }

    /// Writes the statements committing `expr` through this sink, each on
    /// a line of its own after `indent`. A `guard` (the divide-by-zero
    /// test) and its fallback commit the fallback when the guard holds.
    fn assign(
        &self,
        w: &mut String,
        indent: &str,
        guard: Option<[fmt::Arguments<'_>; 2]>,
        expr: fmt::Arguments<'_>,
    ) {
        match (self, guard) {
            (Sink::Direct(d), None) => writeln!(w, "{indent}r{} <= {expr};", d.index()),
            (Sink::Direct(d), Some([g, f])) => {
                writeln!(w, "{indent}if ({g}) r{0} <= {f}; else r{0} <= {expr};", d.index())
            }
            (Sink::Pipe { fu, .. }, None) => writeln!(w, "{indent}fu{fu}_d1 <= {expr};"),
            (Sink::Pipe { fu, .. }, Some([g, f])) => {
                writeln!(w, "{indent}if ({g}) fu{fu}_d1 <= {f}; else fu{fu}_d1 <= {expr};")
            }
            (Sink::Dropped, None) => writeln!(w, "{indent}; // dropped: {expr}"),
            (Sink::Dropped, Some([g, f])) => {
                writeln!(w, "{indent}; // dropped: {g} ? {f} : {expr}")
            }
        }
        .unwrap();
        // A pipeline issue also tags the value with its destination
        // register and marks the first stage occupied.
        if let Sink::Pipe { fu, dst, tw } = self {
            writeln!(w, "{indent}fu{fu}_t1 <= {tw}'d{}; fu{fu}_v1 <= 1'b1;", dst.index()).unwrap();
        }
    }
}

/// Writes the statements of one alternative, each on a line of its own
/// after `indent`.
fn emit_alt(w: &mut String, fsmd: &Fsmd, ty: Type, alt: &OpAlt, sink: &Sink, indent: &str) {
    let uw = ty.width();
    let sg = ty.is_signed();
    let src = |s: Src| Operand::of(fsmd, s, uw);
    // A decoy variant can place a binary opcode on a one-input micro-op
    // (Algorithm 1 swaps operation types freely); the missing port reads
    // as zero, matching the simulator.
    let port_b = || alt.b.map_or(Operand::Zero { use_width: uw }, src);
    match alt.op {
        FuOp::Bin(op) => {
            let (a, b) = (src(alt.a), port_b());
            let (sa, sb) = (Signed(sg, a), Signed(sg, b));
            // The model's defined divide-by-zero results (all-ones for `/`,
            // the dividend for `%`) — real x-propagation has no two-state
            // rendering, so the text carries the guard.
            let b_zero = format_args!("{b} == {uw}'d0");
            let all_ones = format_args!("{{{uw}{{1'b1}}}}");
            match op {
                BinOp::Add => sink.assign(w, indent, None, format_args!("{sa} + {sb}")),
                BinOp::Sub => sink.assign(w, indent, None, format_args!("{sa} - {sb}")),
                BinOp::Mul => sink.assign(w, indent, None, format_args!("{sa} * {sb}")),
                BinOp::And => sink.assign(w, indent, None, format_args!("{sa} & {sb}")),
                BinOp::Or => sink.assign(w, indent, None, format_args!("{sa} | {sb}")),
                BinOp::Xor => sink.assign(w, indent, None, format_args!("{sa} ^ {sb}")),
                BinOp::Div => {
                    sink.assign(w, indent, Some([b_zero, all_ones]), format_args!("{sa} / {sb}"))
                }
                BinOp::Rem => {
                    let dividend = format_args!("{a}");
                    sink.assign(w, indent, Some([b_zero, dividend]), format_args!("{sa} % {sb}"))
                }
                // Shift amounts reduce modulo the operand width (the
                // simulator's barrel-shifter semantics).
                BinOp::Shl => {
                    sink.assign(w, indent, None, format_args!("{sa} << ({b} % {uw}'d{uw})"))
                }
                BinOp::Shr if sg => {
                    sink.assign(w, indent, None, format_args!("{sa} >>> ({b} % {uw}'d{uw})"))
                }
                BinOp::Shr => {
                    sink.assign(w, indent, None, format_args!("{sa} >> ({b} % {uw}'d{uw})"))
                }
            }
        }
        FuOp::Un(UnOp::Not) => sink.assign(w, indent, None, format_args!("~{}", src(alt.a))),
        FuOp::Un(UnOp::Neg) => {
            sink.assign(w, indent, None, format_args!("-{}", Signed(sg, src(alt.a))))
        }
        FuOp::Cmp(pred) => {
            let sym = match pred {
                CmpPred::Eq => "==",
                CmpPred::Ne => "!=",
                CmpPred::Lt => "<",
                CmpPred::Le => "<=",
                CmpPred::Gt => ">",
                CmpPred::Ge => ">=",
            };
            let (sa, sb) = (Signed(sg, src(alt.a)), Signed(sg, port_b()));
            sink.assign(w, indent, None, format_args!("{sa} {sym} {sb}"))
        }
        FuOp::Pass => sink.assign(w, indent, None, format_args!("{}", src(alt.a))),
        FuOp::Conv { from, to } => {
            // Sign extension: the assignment context widens a $signed
            // operand with its sign bit.
            let a = Signed(
                from.is_signed() && to.width() > from.width(),
                Operand::of(fsmd, alt.a, from.width()),
            );
            sink.assign(w, indent, None, format_args!("{a}"))
        }
        FuOp::Load { mem } => {
            let idx =
                WrapIndex { a32: Operand::of(fsmd, alt.a, 32), len: fsmd.mems[mem.0 as usize].len };
            sink.assign(w, indent, None, format_args!("mem{}[{idx}]", mem.0))
        }
        FuOp::Store { mem } => {
            let b = alt.b.expect("store has data");
            let idx =
                WrapIndex { a32: Operand::of(fsmd, alt.a, 32), len: fsmd.mems[mem.0 as usize].len };
            writeln!(w, "{indent}mem{}[{idx}] <= {};", mem.0, src(b)).unwrap();
        }
    }
}

/// A cheap estimate of the emitted text's length, so that the output
/// buffer rarely grows: a typical line's length per declaration, state,
/// statement and init-image entry.
fn size_estimate(fsmd: &Fsmd) -> usize {
    let alts: usize = fsmd.micro_ops().map(|(_, op)| op.alts.len()).sum();
    let init: usize =
        fsmd.mems.iter().map(|m| m.init.as_ref().map_or(0, |init| init.len().min(m.len))).sum();
    1024 + 128 * fsmd.states.len()
        + 40 * fsmd.reg_widths.len()
        + 64 * fsmd.consts.len()
        + 24 * init
        + 60 * alts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{synthesize, HlsOptions};
    use crate::fsmd::KeyRange;

    fn demo() -> Fsmd {
        let m = hls_frontend::compile(
            r#"
            int tbl[4] = {9, 8, 7, 6};
            int f(int a, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i & 1) s += a * tbl[i & 3];
                    else s -= tbl[i & 3];
                }
                return s;
            }
            "#,
            "demo",
        )
        .unwrap();
        synthesize(&m, "f", &HlsOptions::default()).unwrap()
    }

    #[test]
    fn baseline_verilog_has_expected_structure() {
        let v = emit(&demo());
        for needle in [
            "module f",
            "input  wire clk",
            "output reg  done",
            "localparam S0",
            "case (state)",
            "endmodule",
            "mem0",
        ] {
            assert!(v.contains(needle), "missing `{needle}`:\n{v}");
        }
        // Baseline has no key port.
        assert!(!v.contains("working_key"));
    }

    #[test]
    fn locked_verilog_shows_constant_and_branch_obfuscation() {
        let mut fsmd = demo();
        fsmd.key_width = 64;
        fsmd.consts[0].key_xor =
            Some(KeyRange { lo: 0, width: fsmd.consts[0].storage_width as u32 });
        for st in &mut fsmd.states {
            if let NextState::Branch { test, then_s, else_s, .. } = st.next {
                st.next = NextState::Branch { test, key_bit: Some(40), then_s, else_s };
                break;
            }
        }
        let v = emit(&fsmd);
        assert!(v.contains("input  wire [63:0] working_key"));
        assert!(v.contains("^ working_key["), "constant decrypt missing");
        assert!(v.contains("^ working_key[40]"), "branch mask missing");
    }

    #[test]
    fn variant_verilog_emits_selector_cases() {
        let mut fsmd = demo();
        fsmd.key_width = 8;
        let kr = KeyRange { lo: 2, width: 1 };
        for st in &mut fsmd.states {
            if !st.ops.is_empty() {
                for op in st.ops.iter_mut() {
                    let a = op.alts[0];
                    op.alts = vec![a, a];
                }
                st.variant_key = Some(kr);
                break;
            }
        }
        let v = emit(&fsmd);
        assert!(v.contains("TAO variant select"), "variant case missing:\n{v}");
    }

    #[test]
    fn emission_is_deterministic() {
        assert_eq!(emit(&demo()), emit(&demo()));
    }

    #[test]
    fn multi_cycle_units_emit_pipelines() {
        // The demo multiplies, and Mul has latency 2: its result must flow
        // through an explicit one-stage pipeline with a retire case.
        let v = emit(&demo());
        assert!(v.contains("multi-cycle unit pipelines"), "pipeline decls missing:\n{v}");
        assert!(v.contains("_v1 <= 1'b1;"), "pipeline issue missing");
        assert!(v.contains("// retire fu"), "pipeline retire missing");
    }

    #[test]
    fn pipeline_advance_is_occupancy_gated() {
        // Div has latency 4 (three pipeline stages), so the emitted
        // advance must shift data/tag only when the feeding stage holds a
        // result; valid bits always shift (they *are* the occupancy).
        let m = hls_frontend::compile("int f(int a, int b) { return a / (b + 1); }", "t").unwrap();
        let fsmd = synthesize(&m, "f", &HlsOptions::default()).unwrap();
        let v = emit(&fsmd);
        let gated = v
            .lines()
            .filter(|l| l.contains(") begin fu") && l.contains("_d") && l.contains("_t"))
            .count();
        assert!(gated >= 2, "gated data/tag advance missing:\n{v}");
        // The old ungated advance fused d/t/v into one statement line
        // (`fuN_d2 <= fuN_d1; ... fuN_v2 <= fuN_v1;`).
        assert!(
            !v.lines().any(|l| {
                let l = l.trim_start();
                l.starts_with("fu") && l.contains("_d") && l.contains("_v")
            }),
            "ungated combined d/t/v shift resurfaced:\n{v}"
        );
    }

    #[test]
    fn memory_init_images_are_emitted() {
        // `tbl` carries an init image; the text must reproduce it.
        let v = emit(&demo());
        assert!(v.contains("initial begin"), "initial block missing:\n{v}");
        assert!(v.contains("mem0[0] = 32'h9;"), "init value missing:\n{v}");
    }
}
