//! IR well-formedness verifier.
//!
//! Run after the front end and after every pass (`passes::optimize` does
//! this automatically, in every build) to catch malformed IR early instead
//! of as mysterious scheduling failures. The checks allocate nothing on
//! success: a failure's description, which renders the offending
//! instruction, is built only when a check fails.

use crate::function::{Function, Module};
use crate::instr::{Instr, Terminator};
use crate::operand::Operand;
use crate::types::Type;
use std::error::Error;
use std::fmt;

/// A verification failure, with the function and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the failure occurred.
    pub function: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify failed in `{}`: {}", self.function, self.message)
    }
}

impl Error for VerifyError {}

/// Verifies an entire module.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found: dangling block targets, dangling
/// value/constant/array/function references, ill-typed comparisons or
/// branch conditions, or empty functions.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for f in &m.functions {
        verify_function(m, f)?;
    }
    Ok(())
}

/// Verifies a single function. See [`verify_module`] for the checks.
///
/// # Errors
///
/// Returns the first failure found.
pub fn verify_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    let err = |msg: String| VerifyError { function: f.name.clone(), message: msg };
    if f.blocks.is_empty() {
        return Err(err("function has no blocks".into()));
    }
    for p in &f.params {
        if p.index() >= f.value_types.len() {
            return Err(err(format!("parameter {p} has no type entry")));
        }
    }
    for b in f.block_ids() {
        let blk = f.block(b);
        for (i, instr) in blk.instrs.iter().enumerate() {
            check_instr(m, f, instr)
                .map_err(|msg| err(format!("{b} instr {i} `{instr}`: {msg}")))?;
        }
        match &blk.terminator {
            Terminator::Jump(t) => {
                if t.index() >= f.blocks.len() {
                    return Err(err(format!("{b}: jump to dangling {t}")));
                }
            }
            Terminator::Branch { cond, then_to, else_to } => {
                check_operand(f, *cond).map_err(|msg| err(format!("{b} branch cond: {msg}")))?;
                if f.operand_type(*cond) != Type::BOOL {
                    return Err(err(format!("{b}: branch condition must be u1")));
                }
                for t in [then_to, else_to] {
                    if t.index() >= f.blocks.len() {
                        return Err(err(format!("{b}: branch to dangling {t}")));
                    }
                }
            }
            Terminator::Return(Some(v)) => {
                check_operand(f, *v).map_err(|msg| err(format!("{b} return: {msg}")))?;
                if f.ret_ty.is_none() {
                    return Err(err(format!("{b}: returns a value from a void function")));
                }
            }
            Terminator::Return(None) => {
                if f.ret_ty.is_some() {
                    return Err(err(format!("{b}: missing return value")));
                }
            }
        }
    }
    Ok(())
}

/// Checks that an operand references an existing value or constant; the
/// error is the failure's description without its location.
fn check_operand(f: &Function, op: Operand) -> Result<(), String> {
    match op {
        Operand::Value(v) if v.index() >= f.value_types.len() => Err(format!("dangling value {v}")),
        Operand::Const(c) if c.index() >= f.consts.len() => Err(format!("dangling constant {c}")),
        _ => Ok(()),
    }
}

/// Checks one instruction's operands, destination, result type and
/// references; the error is the failure's description without its
/// location.
fn check_instr(m: &Module, f: &Function, instr: &Instr) -> Result<(), String> {
    for u in instr.uses() {
        check_operand(f, u)?;
    }
    if let Some(d) = instr.def() {
        if d.index() >= f.value_types.len() {
            return Err(format!("dangling destination {d}"));
        }
    }
    match instr {
        Instr::Cmp { dst, .. } if f.value_type(*dst) != Type::BOOL => {
            Err("cmp result must be u1".into())
        }
        Instr::Load { array, .. } | Instr::Store { array, .. }
            if m.mem_object(f, *array).is_none() =>
        {
            Err(format!("dangling array {array}"))
        }
        Instr::Call { func, args, .. } => {
            if func.index() >= m.functions.len() {
                return Err(format!("dangling callee {func}"));
            }
            let callee = m.function(*func);
            if callee.params.len() != args.len() {
                return Err(format!(
                    "arity mismatch calling {} ({} vs {})",
                    callee.name,
                    callee.params.len(),
                    args.len()
                ));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Function, Module};
    use crate::instr::{CmpPred, Instr, Terminator};
    use crate::operand::{BlockId, ValueId};
    use crate::types::Type;

    fn trivial_module() -> Module {
        let mut m = Module::new("t");
        let mut f = Function::new("f");
        let b = f.new_block("entry");
        f.block_mut(b).terminator = Terminator::Return(None);
        m.add_function(f);
        m
    }

    #[test]
    fn trivial_module_verifies() {
        assert!(verify_module(&trivial_module()).is_ok());
    }

    #[test]
    fn dangling_jump_rejected() {
        let mut m = trivial_module();
        m.functions[0].blocks[0].terminator = Terminator::Jump(BlockId(7));
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn dangling_value_rejected() {
        let mut m = trivial_module();
        m.functions[0].ret_ty = Some(Type::I32);
        m.functions[0].blocks[0].terminator = Terminator::Return(Some(ValueId(99).into()));
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn wrong_cmp_result_type_rejected() {
        let mut m = trivial_module();
        let f = &mut m.functions[0];
        let a = f.new_value(Type::I32);
        let bad_dst = f.new_value(Type::I32); // should be BOOL
        f.blocks[0].instrs.push(Instr::Cmp {
            pred: CmpPred::Eq,
            ty: Type::I32,
            lhs: a.into(),
            rhs: a.into(),
            dst: bad_dst,
        });
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn non_bool_branch_condition_rejected() {
        let mut m = trivial_module();
        let f = &mut m.functions[0];
        let wide = f.new_value(Type::I32);
        let b2 = f.new_block("x");
        f.block_mut(b2).terminator = Terminator::Return(None);
        f.blocks[0].terminator = Terminator::Branch { cond: wide.into(), then_to: b2, else_to: b2 };
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn error_messages_locate_and_render_the_failure() {
        // The texts are pinned: building them lazily must not change them.
        let mut m = trivial_module();
        let f = &mut m.functions[0];
        let a = f.new_value(Type::I32);
        let bad = f.new_value(Type::I32);
        let cmp = |rhs: ValueId| Instr::Cmp {
            pred: CmpPred::Lt,
            ty: Type::I32,
            lhs: a.into(),
            rhs: rhs.into(),
            dst: bad,
        };
        f.blocks[0].instrs.push(cmp(ValueId(9)));
        assert_eq!(
            verify_module(&m).unwrap_err().to_string(),
            "verify failed in `f`: bb0 instr 0 `%v1 = cmp lt i32 %v0, %v9`: dangling value %v9"
        );
        m.functions[0].blocks[0].instrs[0] = cmp(a);
        assert_eq!(
            verify_module(&m).unwrap_err().to_string(),
            "verify failed in `f`: bb0 instr 0 `%v1 = cmp lt i32 %v0, %v0`: cmp result must be u1"
        );
        m.functions[0].blocks[0].instrs.clear();
        m.functions[0].ret_ty = Some(Type::I32);
        m.functions[0].blocks[0].terminator = Terminator::Return(Some(ValueId(99).into()));
        assert_eq!(
            verify_module(&m).unwrap_err(),
            VerifyError { function: "f".into(), message: "bb0 return: dangling value %v99".into() }
        );
    }

    #[test]
    fn void_return_mismatch_rejected() {
        let mut m = trivial_module();
        m.functions[0].ret_ty = Some(Type::I32);
        assert!(verify_module(&m).is_err()); // Return(None) from non-void
    }
}
