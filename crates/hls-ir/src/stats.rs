//! Module statistics feeding the paper's Table 1.
//!
//! After compiler optimization, Table 1 reports per benchmark: the number
//! of constants (`#Const`), basic blocks (`#BB`) and conditional jumps
//! (`#CJMP`), from which Eq. 1 (`tao::KeyPlan::equation_1`) computes the
//! working-key size `W`.

use crate::function::Module;
use std::fmt;

/// Structural counts of a module (one synthesized top after inlining, but
/// sums over all functions for generality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleStats {
    /// Distinct constants across all function pools (`Num_const`).
    pub num_consts: usize,
    /// Total basic blocks (`#BB`).
    pub num_blocks: usize,
    /// Total conditional jumps (`Num_if` / `#CJMP`).
    pub num_cond_jumps: usize,
    /// Total straight-line instructions (context, not in Table 1).
    pub num_instrs: usize,
}

impl ModuleStats {
    /// Gathers the counts from `m`.
    pub fn of(m: &Module) -> ModuleStats {
        let mut s = ModuleStats::default();
        for f in &m.functions {
            s.num_consts += f.consts.len();
            s.num_blocks += f.num_blocks();
            s.num_cond_jumps += f.num_cond_jumps();
            s.num_instrs += f.num_instrs();
        }
        s
    }

    /// Gathers the counts for a single function (the synthesized top).
    pub fn of_function(m: &Module, name: &str) -> Option<ModuleStats> {
        let (_, f) = m.function_by_name(name)?;
        Some(ModuleStats {
            num_consts: f.consts.len(),
            num_blocks: f.num_blocks(),
            num_cond_jumps: f.num_cond_jumps(),
            num_instrs: f.num_instrs(),
        })
    }
}

impl fmt::Display for ModuleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#Const={} #BB={} #CJMP={} (instrs={})",
            self.num_consts, self.num_blocks, self.num_cond_jumps, self.num_instrs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Function;
    use crate::instr::Terminator;
    use crate::operand::Constant;
    use crate::types::Type;

    #[test]
    fn counts_gathered_from_module() {
        let mut m = Module::new("t");
        let mut f = Function::new("f");
        f.consts.intern(Constant::new(1, Type::I32));
        f.consts.intern(Constant::new(2, Type::I32));
        let b = f.new_block("entry");
        f.block_mut(b).terminator = Terminator::Return(None);
        m.add_function(f);
        let s = ModuleStats::of(&m);
        assert_eq!(s.num_consts, 2);
        assert_eq!(s.num_blocks, 1);
        assert_eq!(s.num_cond_jumps, 0);
        assert_eq!(ModuleStats::of_function(&m, "f"), Some(s));
        assert_eq!(ModuleStats::of_function(&m, "nope"), None);
    }
}
