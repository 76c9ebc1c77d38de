//! IR instructions and block terminators.
//!
//! The IR is a three-address code over virtual registers. Each basic block
//! holds a straight-line list of [`Instr`]s followed by exactly one
//! [`Terminator`]. Operation kinds are deliberately close to the functional
//! units an HLS binder allocates (adders, multipliers, shifters, comparators,
//! logic units) because TAO's DFG-variant obfuscation swaps operation types
//! *between FU clusters* (paper Algorithm 1).

use crate::operand::{ArrayId, BlockId, FuncId, Operand, ValueId};
use crate::types::Type;
use std::fmt;

/// Binary arithmetic/logic operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (signedness from the instruction type). Division by zero
    /// yields all-ones, matching a combinational divider's undefined output.
    Div,
    /// Remainder; remainder by zero yields the dividend.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift left (shift amount taken modulo width).
    Shl,
    /// Shift right — arithmetic if the type is signed, logical otherwise.
    Shr,
}

impl BinOp {
    /// All binary operation kinds.
    pub const ALL: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// Whether the operation is commutative (used by CSE and by DFG-variant
    /// dependence rearrangement, which may legally swap commutative inputs).
    pub fn is_commutative(&self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
    }

    /// Evaluates the operation on raw bit patterns at type `ty`.
    pub fn eval(&self, ty: Type, a: u64, b: u64) -> u64 {
        let a = ty.truncate(a);
        let b = ty.truncate(b);
        let sa = ty.to_signed(a);
        let sb = ty.to_signed(b);
        let raw = match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    ty.mask()
                } else if ty.is_signed() {
                    ty.from_signed(sa.wrapping_div(sb))
                } else {
                    a / b
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    a
                } else if ty.is_signed() {
                    ty.from_signed(sa.wrapping_rem(sb))
                } else {
                    a % b
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => {
                let sh = (b % ty.width() as u64) as u32;
                a.wrapping_shl(sh)
            }
            BinOp::Shr => {
                let sh = (b % ty.width() as u64) as u32;
                if ty.is_signed() {
                    ty.from_signed(sa.wrapping_shr(sh))
                } else {
                    a.wrapping_shr(sh)
                }
            }
        };
        ty.truncate(raw)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Unary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
}

impl UnOp {
    /// Evaluates the operation on a raw bit pattern at type `ty`.
    pub fn eval(&self, ty: Type, a: u64) -> u64 {
        let a = ty.truncate(a);
        match self {
            UnOp::Not => ty.truncate(!a),
            UnOp::Neg => ty.truncate((!a).wrapping_add(1)),
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
        })
    }
}

/// Comparison predicates; results are 1-bit ([`Type::BOOL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpPred {
    /// All predicates.
    pub const ALL: [CmpPred; 6] =
        [CmpPred::Eq, CmpPred::Ne, CmpPred::Lt, CmpPred::Le, CmpPred::Gt, CmpPred::Ge];

    /// Evaluates the predicate on raw bit patterns at operand type `ty`.
    pub fn eval(&self, ty: Type, a: u64, b: u64) -> bool {
        let (a, b) = (ty.truncate(a), ty.truncate(b));
        if ty.is_signed() {
            let (a, b) = (ty.to_signed(a), ty.to_signed(b));
            match self {
                CmpPred::Eq => a == b,
                CmpPred::Ne => a != b,
                CmpPred::Lt => a < b,
                CmpPred::Le => a <= b,
                CmpPred::Gt => a > b,
                CmpPred::Ge => a >= b,
            }
        } else {
            match self {
                CmpPred::Eq => a == b,
                CmpPred::Ne => a != b,
                CmpPred::Lt => a < b,
                CmpPred::Le => a <= b,
                CmpPred::Gt => a > b,
                CmpPred::Ge => a >= b,
            }
        }
    }

    /// The predicate with swapped operand order (`a < b` ⇔ `b > a`).
    pub fn swapped(&self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Eq,
            CmpPred::Ne => CmpPred::Ne,
            CmpPred::Lt => CmpPred::Gt,
            CmpPred::Le => CmpPred::Ge,
            CmpPred::Gt => CmpPred::Lt,
            CmpPred::Ge => CmpPred::Le,
        }
    }
}

impl fmt::Display for CmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        })
    }
}

/// A straight-line IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Instr {
    /// `dst = op ty lhs, rhs`
    Binary { op: BinOp, ty: Type, lhs: Operand, rhs: Operand, dst: ValueId },
    /// `dst = op ty src`
    Unary { op: UnOp, ty: Type, src: Operand, dst: ValueId },
    /// `dst = cmp pred ty lhs, rhs` (dst is 1-bit)
    Cmp { pred: CmpPred, ty: Type, lhs: Operand, rhs: Operand, dst: ValueId },
    /// `dst = convert src : from -> to` (sign/zero extension or truncation)
    Convert { from: Type, to: Type, src: Operand, dst: ValueId },
    /// `dst = copy src` (register move / assignment)
    Copy { ty: Type, src: Operand, dst: ValueId },
    /// `dst = load ty array[index]`
    Load { ty: Type, array: ArrayId, index: Operand, dst: ValueId },
    /// `store ty array[index] = value`
    Store { ty: Type, array: ArrayId, index: Operand, value: Operand },
    /// `dst = call f(args...)` — removed by mandatory inlining before HLS,
    /// but supported by the interpreter and the call-graph analysis.
    Call { func: FuncId, args: Vec<Operand>, dst: Option<ValueId>, ret_ty: Option<Type> },
}

impl Instr {
    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<ValueId> {
        match self {
            Instr::Binary { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Convert { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Load { dst, .. } => Some(*dst),
            Instr::Store { .. } => None,
            Instr::Call { dst, .. } => *dst,
        }
    }

    /// All operands read by this instruction, in operand order (without
    /// allocating: analyses call this for every instruction).
    pub fn uses(&self) -> impl Iterator<Item = Operand> + '_ {
        let (fixed, args): ([Option<Operand>; 2], &[Operand]) = match self {
            Instr::Binary { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => {
                ([Some(*lhs), Some(*rhs)], &[])
            }
            Instr::Unary { src, .. } | Instr::Convert { src, .. } | Instr::Copy { src, .. } => {
                ([Some(*src), None], &[])
            }
            Instr::Load { index, .. } => ([Some(*index), None], &[]),
            Instr::Store { index, value, .. } => ([Some(*index), Some(*value)], &[]),
            Instr::Call { args, .. } => ([None, None], args),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }

    /// Mutable references to all operands read by this instruction.
    pub fn uses_mut(&mut self) -> Vec<&mut Operand> {
        match self {
            Instr::Binary { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => vec![lhs, rhs],
            Instr::Unary { src, .. } | Instr::Convert { src, .. } | Instr::Copy { src, .. } => {
                vec![src]
            }
            Instr::Load { index, .. } => vec![index],
            Instr::Store { index, value, .. } => vec![index, value],
            Instr::Call { args, .. } => args.iter_mut().collect(),
        }
    }

    /// Whether the instruction touches memory or has side effects (and thus
    /// must not be removed by DCE or reordered across other memory ops on
    /// the same array).
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Instr::Store { .. } | Instr::Call { .. })
    }

    /// The memory object this instruction accesses, if any.
    pub fn memory_object(&self) -> Option<ArrayId> {
        match self {
            Instr::Load { array, .. } | Instr::Store { array, .. } => Some(*array),
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Binary { op, ty, lhs, rhs, dst } => {
                write!(f, "{dst} = {op} {ty} {lhs}, {rhs}")
            }
            Instr::Unary { op, ty, src, dst } => write!(f, "{dst} = {op} {ty} {src}"),
            Instr::Cmp { pred, ty, lhs, rhs, dst } => {
                write!(f, "{dst} = cmp {pred} {ty} {lhs}, {rhs}")
            }
            Instr::Convert { from, to, src, dst } => {
                write!(f, "{dst} = convert {src} : {from} -> {to}")
            }
            Instr::Copy { ty, src, dst } => write!(f, "{dst} = copy {ty} {src}"),
            Instr::Load { ty, array, index, dst } => {
                write!(f, "{dst} = load {ty} {array}[{index}]")
            }
            Instr::Store { ty, array, index, value } => {
                write!(f, "store {ty} {array}[{index}] = {value}")
            }
            Instr::Call { func, args, dst, .. } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {func}(")?;
                } else {
                    write!(f, "call {func}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional jump: `cond` is a 1-bit operand; `then_to` is taken when
    /// the (possibly key-masked) test equals 1. TAO's branch masking
    /// (paper Eq. 4) operates on this terminator.
    Branch { cond: Operand, then_to: BlockId, else_to: BlockId },
    /// Function return.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch { then_to, else_to, .. } => vec![*then_to, *else_to],
            Terminator::Return(_) => vec![],
        }
    }

    /// Rewrites successor blocks through `f` (used by CFG simplification).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch { then_to, else_to, .. } => {
                *then_to = f(*then_to);
                *else_to = f(*else_to);
            }
            Terminator::Return(_) => {}
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jump {b}"),
            Terminator::Branch { cond, then_to, else_to } => {
                write!(f, "br {cond} ? {then_to} : {else_to}")
            }
            Terminator::Return(Some(v)) => write!(f, "ret {v}"),
            Terminator::Return(None) => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_wraps() {
        assert_eq!(BinOp::Add.eval(Type::U8, 200, 100), (200 + 100) % 256);
        assert_eq!(BinOp::Mul.eval(Type::U8, 16, 16), 0);
        assert_eq!(BinOp::Sub.eval(Type::U8, 0, 1), 0xff);
    }

    #[test]
    fn signed_division() {
        assert_eq!(Type::I8.to_signed(BinOp::Div.eval(Type::I8, Type::I8.from_signed(-7), 2)), -3);
        assert_eq!(Type::I8.to_signed(BinOp::Rem.eval(Type::I8, Type::I8.from_signed(-7), 2)), -1);
        // Division by zero = all ones (combinational divider model).
        assert_eq!(BinOp::Div.eval(Type::U8, 5, 0), 0xff);
        assert_eq!(BinOp::Rem.eval(Type::U8, 5, 0), 5);
    }

    #[test]
    fn shifts_respect_signedness() {
        // Arithmetic shift for signed types.
        let neg8 = Type::I8.from_signed(-8);
        assert_eq!(Type::I8.to_signed(BinOp::Shr.eval(Type::I8, neg8, 1)), -4);
        // Logical shift for unsigned.
        assert_eq!(BinOp::Shr.eval(Type::U8, 0xf8, 1), 0x7c);
        // Shift amounts wrap modulo width.
        assert_eq!(BinOp::Shl.eval(Type::U8, 1, 8), 1);
    }

    #[test]
    fn cmp_signedness() {
        let m1 = Type::I8.from_signed(-1);
        assert!(CmpPred::Lt.eval(Type::I8, m1, 1));
        assert!(!CmpPred::Lt.eval(Type::U8, m1, 1)); // 255 < 1 is false
        assert!(CmpPred::Ge.eval(Type::U8, m1, 1));
    }

    #[test]
    fn cmp_swapped_is_consistent() {
        for p in CmpPred::ALL {
            for a in [0u64, 1, 5, 200] {
                for b in [0u64, 3, 200] {
                    assert_eq!(
                        p.eval(Type::U8, a, b),
                        p.swapped().eval(Type::U8, b, a),
                        "{p} {a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Not.eval(Type::U8, 0x0f), 0xf0);
        assert_eq!(Type::I8.to_signed(UnOp::Neg.eval(Type::I8, 5)), -5);
        assert_eq!(UnOp::Neg.eval(Type::U8, 0), 0);
    }

    #[test]
    fn instr_def_use() {
        let i = Instr::Binary {
            op: BinOp::Add,
            ty: Type::I32,
            lhs: Operand::Value(ValueId(1)),
            rhs: Operand::Value(ValueId(2)),
            dst: ValueId(3),
        };
        assert_eq!(i.def(), Some(ValueId(3)));
        assert_eq!(i.uses().count(), 2);
        assert!(!i.has_side_effects());

        let s = Instr::Store {
            ty: Type::I32,
            array: ArrayId(0),
            index: Operand::Value(ValueId(1)),
            value: Operand::Value(ValueId(2)),
        };
        assert_eq!(s.def(), None);
        assert!(s.has_side_effects());
        assert_eq!(s.memory_object(), Some(ArrayId(0)));
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Value(ValueId(0)),
            then_to: BlockId(1),
            else_to: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Return(None).successors(), vec![]);
    }
}
