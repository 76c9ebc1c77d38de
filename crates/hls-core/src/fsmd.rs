//! The FSMD (finite-state machine with datapath) model — the "RTL" of this
//! reproduction.
//!
//! HLS produces a controller + datapath pair (paper Sec. 2, citing De
//! Micheli): the controller steps through states; in each state it asserts
//! control signals selecting, for every functional unit, an operation and
//! its operand sources, and which register latches the result.
//!
//! All three TAO obfuscations are expressible as local edits of this
//! structure, mirroring Sec. 3.3 of the paper:
//!
//! - **constants** ([`ConstEntry::key_xor`]): the stored bits are
//!   `V_e = V_p ⊕ K_i` at a fixed `storage_width` `C`; the datapath XORs the
//!   working-key bits back at use (Eqs. 2–3).
//! - **branches** ([`NextState::Branch::key_bit`]): the transition tests
//!   `test ⊕ K_j == 1` with the two targets pre-swapped according to the
//!   key bit (Eq. 4, Fig. 3).
//! - **DFG variants** ([`MicroOp::alts`] + [`State::variant_key`]): each
//!   state's micro-operations carry `2^{B_i}` alternatives; the working-key
//!   bits of the owning basic block select which one executes (Fig. 4).

use crate::regbind::RegId;
use crate::resource::FuKind;
use hls_ir::{ArrayId, BinOp, BlockId, CmpPred, Type, UnOp};
use std::collections::BTreeMap;
use std::fmt;

/// A controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Index into [`Fsmd::consts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstIdx(pub u32);

/// Index into [`Fsmd::fus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuIdx(pub u32);

/// Index into [`Fsmd::mems`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemIdx(pub u32);

/// A range of working-key bits `[lo, lo + width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// First working-key bit index.
    pub lo: u32,
    /// Number of bits.
    pub width: u32,
}

/// An operand source feeding a functional-unit port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Src {
    /// A datapath register.
    Reg(RegId),
    /// An entry of the constant store.
    Const(ConstIdx),
}

/// A stored constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstEntry {
    /// The stored bit pattern. Baseline: the plain value. Obfuscated:
    /// `V_e = V_p ⊕ K_i` over `storage_width` bits.
    pub bits: u64,
    /// The logical type the constant is used at.
    pub ty: Type,
    /// Bits implemented in hardware. Baseline: the value's significant
    /// bits (bit-width-aware sizing, paper reference \[4\]). Obfuscated: the fixed
    /// width `C`.
    pub storage_width: u8,
    /// Key bits XORed with the stored value at use (TAO constant
    /// obfuscation); `None` in the baseline.
    pub key_xor: Option<KeyRange>,
}

/// Operations a functional unit can perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant payloads are self-describing
pub enum FuOp {
    /// Binary arithmetic/logic.
    Bin(BinOp),
    /// Unary arithmetic/logic.
    Un(UnOp),
    /// Comparison (1-bit result).
    Cmp(CmpPred),
    /// Register move.
    Pass,
    /// Width conversion.
    Conv { from: Type, to: Type },
    /// Memory read: `dst = mem[a]`.
    Load { mem: MemIdx },
    /// Memory write: `mem[a] = b`.
    Store { mem: MemIdx },
}

/// One alternative of a micro-operation (all alternatives share the FU and
/// destination; the opcode and sources differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpAlt {
    /// The operation.
    pub op: FuOp,
    /// First operand port.
    pub a: Src,
    /// Second operand port, if the operation is binary (or a store's data).
    pub b: Option<Src>,
}

/// A micro-operation: one FU activation within one state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroOp {
    /// The executing functional unit.
    pub fu: FuIdx,
    /// The operation/result type.
    pub ty: Type,
    /// Destination register (`None` for stores and discarded results).
    pub dst: Option<RegId>,
    /// Alternatives; index selected by the owning block's key bits
    /// ([`State::variant_key`]). Baseline FSMDs have exactly one.
    pub alts: Vec<OpAlt>,
}

/// State transition logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextState {
    /// Unconditional next state.
    Goto(StateId),
    /// Two-way branch on a 1-bit register, optionally masked with a working
    /// key bit (TAO branch obfuscation, Eq. 4): the effective test is
    /// `test ⊕ key[key_bit]`, and `then_s` is taken when it equals 1.
    Branch {
        /// Register holding the test bit.
        test: RegId,
        /// Working-key bit index to XOR with the test (`None` = baseline).
        key_bit: Option<u32>,
        /// Target when the (masked) test is 1.
        then_s: StateId,
        /// Target when the (masked) test is 0.
        else_s: StateId,
    },
    /// The computation is finished; the return register holds the result.
    Done,
}

/// One controller state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Micro-operations issued in this state.
    pub ops: Vec<MicroOp>,
    /// Transition taken at the end of this state.
    pub next: NextState,
    /// The IR basic block this state was scheduled from.
    pub block: BlockId,
    /// Key bits selecting the DFG variant for this state's block (`None` =
    /// baseline or un-obfuscated block).
    pub variant_key: Option<KeyRange>,
}

/// A memory (RAM) of the datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemDecl {
    /// Debug name.
    pub name: String,
    /// Element type.
    pub elem_ty: Type,
    /// Element count.
    pub len: usize,
    /// Reset-time contents (zeroes when `None`).
    pub init: Option<Vec<u64>>,
    /// Whether the memory is externally visible (accelerator I/O).
    pub external: bool,
}

/// A functional-unit instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuDecl {
    /// The kind of unit.
    pub kind: FuKind,
    /// Datapath width of the unit (max over bound operations).
    pub width: u8,
}

/// A synthesized (possibly obfuscated) FSMD design.
#[derive(Debug, Clone, PartialEq)]
pub struct Fsmd {
    /// Design name.
    pub name: String,
    /// Controller states; `entry` is executed first.
    pub states: Vec<State>,
    /// Initial state.
    pub entry: StateId,
    /// Widths of the datapath registers.
    pub reg_widths: Vec<u8>,
    /// Debug names of the registers.
    pub reg_names: Vec<String>,
    /// Functional units.
    pub fus: Vec<FuDecl>,
    /// Constant store.
    pub consts: Vec<ConstEntry>,
    /// Memories (function-local and global arrays).
    pub mems: Vec<MemDecl>,
    /// Map from IR array ids to memories (testbenches use it to load
    /// inputs and read outputs).
    pub mem_of_array: BTreeMap<ArrayId, MemIdx>,
    /// Input registers, one per top-function parameter.
    pub params: Vec<RegId>,
    /// Output register holding the return value, if any.
    pub ret_reg: Option<RegId>,
    /// Total working-key bits the design consumes (0 for the baseline).
    pub key_width: u32,
}

impl Fsmd {
    /// Number of controller states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Iterates over every `(state, micro-op)` pair.
    pub fn micro_ops(&self) -> impl Iterator<Item = (StateId, &MicroOp)> + '_ {
        self.states
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.ops.iter().map(move |op| (StateId(i as u32), op)))
    }

    /// Structural sanity checks (used by tests and after obfuscation
    /// passes): indices in range, variant counts consistent with key
    /// ranges, branch targets valid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let nr = self.reg_widths.len();
        if self.reg_names.len() != nr {
            return Err("register name/width length mismatch".into());
        }
        let check_src = |s: Src| -> Result<(), String> {
            match s {
                Src::Reg(r) if r.index() >= nr => Err(format!("dangling register {r}")),
                Src::Const(c) if c.0 as usize >= self.consts.len() => {
                    Err(format!("dangling constant index {}", c.0))
                }
                _ => Ok(()),
            }
        };
        for (si, st) in self.states.iter().enumerate() {
            for op in &st.ops {
                if op.fu.0 as usize >= self.fus.len() {
                    return Err(format!("state {si}: dangling FU index {}", op.fu.0));
                }
                if op.alts.is_empty() {
                    return Err(format!("state {si}: micro-op with no alternatives"));
                }
                if let Some(kr) = st.variant_key {
                    let expect = 1usize << kr.width.min(20);
                    if op.alts.len() != expect {
                        return Err(format!(
                            "state {si}: {} alternatives but key range selects {expect}",
                            op.alts.len()
                        ));
                    }
                } else if op.alts.len() != 1 {
                    return Err(format!("state {si}: variants without a variant key"));
                }
                if let Some(d) = op.dst {
                    if d.index() >= nr {
                        return Err(format!("state {si}: dangling destination {d}"));
                    }
                }
                for alt in &op.alts {
                    check_src(alt.a)?;
                    if let Some(b) = alt.b {
                        check_src(b)?;
                    }
                    if let FuOp::Load { mem } | FuOp::Store { mem } = alt.op {
                        if mem.0 as usize >= self.mems.len() {
                            return Err(format!("state {si}: dangling memory {}", mem.0));
                        }
                    }
                }
            }
            match st.next {
                NextState::Goto(t) => {
                    if t.index() >= self.states.len() {
                        return Err(format!("state {si}: goto dangling {t}"));
                    }
                }
                NextState::Branch { test, then_s, else_s, key_bit } => {
                    if test.index() >= nr {
                        return Err(format!("state {si}: dangling test register"));
                    }
                    if let Some(kb) = key_bit {
                        if kb >= self.key_width {
                            return Err(format!(
                                "state {si}: key bit {kb} out of key width {}",
                                self.key_width
                            ));
                        }
                    }
                    for t in [then_s, else_s] {
                        if t.index() >= self.states.len() {
                            return Err(format!("state {si}: branch to dangling {t}"));
                        }
                    }
                }
                NextState::Done => {}
            }
            if let Some(kr) = st.variant_key {
                if kr.lo + kr.width > self.key_width {
                    return Err(format!("state {si}: variant key range exceeds key width"));
                }
            }
        }
        for (ci, c) in self.consts.iter().enumerate() {
            if let Some(kr) = c.key_xor {
                if kr.lo + kr.width > self.key_width {
                    return Err(format!("constant {ci}: key range exceeds key width"));
                }
                if kr.width != c.storage_width as u32 {
                    return Err(format!("constant {ci}: key range width != storage width"));
                }
            }
            if c.storage_width == 0 || c.storage_width > 64 {
                return Err(format!("constant {ci}: bad storage width"));
            }
        }
        if self.entry.index() >= self.states.len() {
            return Err("dangling entry state".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fsmd {
        Fsmd {
            name: "t".into(),
            states: vec![State {
                ops: vec![MicroOp {
                    fu: FuIdx(0),
                    ty: Type::I32,
                    dst: Some(RegId(0)),
                    alts: vec![OpAlt { op: FuOp::Pass, a: Src::Const(ConstIdx(0)), b: None }],
                }],
                next: NextState::Done,
                block: BlockId(0),
                variant_key: None,
            }],
            entry: StateId(0),
            reg_widths: vec![32],
            reg_names: vec!["r0".into()],
            fus: vec![FuDecl { kind: FuKind::Wire, width: 32 }],
            consts: vec![ConstEntry { bits: 7, ty: Type::I32, storage_width: 3, key_xor: None }],
            mems: vec![],
            mem_of_array: BTreeMap::new(),
            params: vec![],
            ret_reg: Some(RegId(0)),
            key_width: 0,
        }
    }

    #[test]
    fn tiny_validates() {
        tiny().validate().unwrap();
    }

    #[test]
    fn dangling_register_caught() {
        let mut f = tiny();
        f.states[0].ops[0].dst = Some(RegId(9));
        assert!(f.validate().is_err());
    }

    #[test]
    fn variant_count_mismatch_caught() {
        let mut f = tiny();
        f.key_width = 4;
        f.states[0].variant_key = Some(KeyRange { lo: 0, width: 2 });
        // Only 1 alternative but the key selects among 4.
        assert!(f.validate().is_err());
    }

    #[test]
    fn key_range_overflow_caught() {
        let mut f = tiny();
        f.consts[0].key_xor = Some(KeyRange { lo: 0, width: 3 });
        // key_width is 0: range exceeds it.
        assert!(f.validate().is_err());
        f.key_width = 3;
        f.validate().unwrap();
    }

    #[test]
    fn micro_ops_iterator() {
        let f = tiny();
        assert_eq!(f.micro_ops().count(), 1);
        assert_eq!(f.num_states(), 1);
    }
}
