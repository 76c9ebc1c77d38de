//! Lowering from the C-subset AST to the `hls-ir` module form, with
//! semantic checking.
//!
//! Notable lowering decisions:
//!
//! - **Initialized local arrays become explicit stores** of interned
//!   constants at the declaration point. This puts coefficient tables into
//!   the function's [`hls_ir::ConstPool`], exactly the set TAO's
//!   constant-extraction pass protects (and how `viterbi` gets its
//!   table-dominated `#Const` count in the paper's Table 1).
//! - **Global scalars with constant initializers are named constants**;
//!   they lower to pool constants at each use (the C-preprocessor-free
//!   equivalent of `#define TAPS 4`).
//! - **`&&`/`||` evaluate both sides** (no short circuit): every expression
//!   in the subset is total, so this is observationally equivalent and it
//!   matches the eager datapath a scheduler builds for flag logic.
//! - **Usual arithmetic conversions** are applied: operands are promoted to
//!   at least 32 bits; the wider type wins; on equal width unsigned wins.

use crate::ast::*;
use crate::error::{FrontendError, Pos};
use hls_ir::{
    ArrayId, BinOp, BlockId, CallGraph, CmpPred, Constant, FuncId, Function, Instr, MemObject,
    Module, Operand, Terminator, Type, UnOp, ValueId,
};
use std::collections::HashMap;

/// Lowers a parsed translation unit into an IR module.
///
/// # Errors
///
/// Returns a [`FrontendError`] on semantic violations: unknown identifiers,
/// type misuse, arity mismatches, assignment to named constants, or
/// recursion.
///
/// # Examples
///
/// ```
/// let unit = hls_frontend::parse("int dbl(int x) { return x + x; }")?;
/// let module = hls_frontend::lower(&unit, "demo")?;
/// assert!(module.function_by_name("dbl").is_some());
/// # Ok::<(), hls_frontend::FrontendError>(())
/// ```
pub fn lower(unit: &TranslationUnit, module_name: &str) -> Result<Module, FrontendError> {
    let mut module = Module::new(module_name);

    // Pass 1: globals.
    let mut global_arrays: HashMap<String, (ArrayId, Type, usize)> = HashMap::new();
    let mut named_consts: HashMap<String, (i64, Type)> = HashMap::new();
    for g in &unit.globals {
        if global_arrays.contains_key(&g.name) || named_consts.contains_key(&g.name) {
            return Err(FrontendError::new(g.pos, format!("duplicate global `{}`", g.name)));
        }
        if let (1, Some(init)) = (g.len, g.init.as_ref().filter(|_| !g.name.ends_with("_io"))) {
            // Named constant (scalar global with constant initializer).
            named_consts.insert(g.name.clone(), (init[0], g.ty));
        } else {
            let mut obj = MemObject::new(g.name.clone(), g.ty, g.len);
            obj.init = g.init.as_ref().map(|v| v.iter().map(|&x| g.ty.from_signed(x)).collect());
            obj.external = true;
            let id = module.add_global(obj);
            global_arrays.insert(g.name.clone(), (id, g.ty, g.len));
        }
    }

    // Pass 2: function signatures (so calls can be resolved in any order).
    let mut func_ids: HashMap<String, (FuncId, Vec<Type>, Option<Type>)> = HashMap::new();
    for fd in &unit.functions {
        if func_ids.contains_key(&fd.name) {
            return Err(FrontendError::new(fd.pos, format!("duplicate function `{}`", fd.name)));
        }
        let mut f = Function::new(fd.name.clone());
        f.ret_ty = fd.ret.ir();
        let id = module.add_function(f);
        func_ids
            .insert(fd.name.clone(), (id, fd.params.iter().map(|p| p.ty).collect(), fd.ret.ir()));
    }

    // Pass 3: bodies.
    for fd in &unit.functions {
        let (id, _, _) = func_ids[&fd.name];
        let mut lowerer = Lowerer {
            unit_globals: &global_arrays,
            named_consts: &named_consts,
            funcs: &func_ids,
            f: Function::new(fd.name.clone()),
            cur: BlockId(0),
            terminated: false,
            scopes: Vec::new(),
            loop_stack: Vec::new(),
            next_local_array: 0,
        };
        lowerer.f.ret_ty = fd.ret.ir();
        let entry = lowerer.f.new_block("entry");
        lowerer.cur = entry;
        lowerer.push_scope();
        for p in &fd.params {
            let v = lowerer.f.new_value(p.ty);
            lowerer.f.params.push(v);
            lowerer.bind_scalar(&p.name, v, p.ty, fd.pos)?;
        }
        for s in &fd.body {
            lowerer.stmt(s)?;
        }
        // Implicit return at the end of the body.
        if !lowerer.terminated {
            let term = match fd.ret.ir() {
                None => Terminator::Return(None),
                Some(ty) => {
                    let zero = lowerer.f.consts.intern(Constant::new(0, ty));
                    Terminator::Return(Some(Operand::Const(zero)))
                }
            };
            lowerer.f.block_mut(lowerer.cur).terminator = term;
        }
        lowerer.pop_scope();
        let func = lowerer.f;
        *module.function_mut(id) = func;
    }

    // Reject recursion with a source-level diagnostic.
    let cg = CallGraph::build(&module);
    for fd in &unit.functions {
        let (id, _, _) = func_ids[&fd.name];
        if cg.has_recursion(id) {
            return Err(FrontendError::new(
                fd.pos,
                format!(
                    "function `{}` is (mutually) recursive; HLS cannot synthesize recursion",
                    fd.name
                ),
            ));
        }
    }

    hls_ir::verify_module(&module)
        .map_err(|e| FrontendError::new(Pos::default(), format!("internal lowering bug: {e}")))?;
    Ok(module)
}

#[derive(Debug, Clone, Copy)]
enum Binding {
    Scalar(ValueId, Type),
    /// Array binding; the length is kept for future bounds diagnostics.
    Array(ArrayId, Type, #[allow(dead_code)] usize),
}

struct Lowerer<'a> {
    unit_globals: &'a HashMap<String, (ArrayId, Type, usize)>,
    named_consts: &'a HashMap<String, (i64, Type)>,
    funcs: &'a HashMap<String, (FuncId, Vec<Type>, Option<Type>)>,
    f: Function,
    cur: BlockId,
    /// Whether the current block already has its real terminator.
    terminated: bool,
    scopes: Vec<HashMap<String, Binding>>,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockId, BlockId)>,
    next_local_array: u32,
}

impl<'a> Lowerer<'a> {
    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn bind_scalar(
        &mut self,
        name: &str,
        v: ValueId,
        ty: Type,
        pos: Pos,
    ) -> Result<(), FrontendError> {
        let scope = self.scopes.last_mut().expect("scope stack empty");
        if scope.insert(name.to_string(), Binding::Scalar(v, ty)).is_some() {
            return Err(FrontendError::new(pos, format!("duplicate declaration of `{name}`")));
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(*b);
            }
        }
        if let Some(&(id, ty, len)) = self.unit_globals.get(name) {
            return Some(Binding::Array(id, ty, len));
        }
        None
    }

    fn emit(&mut self, instr: Instr) {
        if !self.terminated {
            self.f.block_mut(self.cur).instrs.push(instr);
        }
    }

    /// Seals the current block with `term` and switches to `next`.
    fn seal_and_switch(&mut self, term: Terminator, next: BlockId) {
        if !self.terminated {
            self.f.block_mut(self.cur).terminator = term;
        }
        self.cur = next;
        self.terminated = false;
    }

    fn const_op(&mut self, v: i64, ty: Type) -> Operand {
        Operand::Const(self.f.consts.intern(Constant::new(v, ty)))
    }

    // ---- statements ----

    fn stmt(&mut self, s: &Stmt) -> Result<(), FrontendError> {
        match s {
            Stmt::DeclScalar { ty, name, init, pos } => {
                let v = self.f.new_value(*ty);
                if let Some(e) = init {
                    let (op, ety) = self.expr(e)?;
                    let op = self.convert(op, ety, *ty);
                    self.emit(Instr::Copy { ty: *ty, src: op, dst: v });
                }
                self.bind_scalar(name, v, *ty, *pos)
            }
            Stmt::DeclArray { ty, name, len, init, pos } => {
                let id = ArrayId(self.next_local_array);
                self.next_local_array += 1;
                self.f.arrays.insert(id, MemObject::new(name.clone(), *ty, *len));
                let scope = self.scopes.last_mut().expect("scope stack empty");
                if scope.insert(name.clone(), Binding::Array(id, *ty, *len)).is_some() {
                    return Err(FrontendError::new(
                        *pos,
                        format!("duplicate declaration of `{name}`"),
                    ));
                }
                // Initializers become explicit stores of pool constants so
                // TAO's constant extraction sees (and protects) the table.
                if let Some(vals) = init {
                    for (i, &val) in vals.iter().enumerate() {
                        let idx = self.const_op(i as i64, Type::I32);
                        let v = self.const_op(val, *ty);
                        self.emit(Instr::Store { ty: *ty, array: id, index: idx, value: v });
                    }
                }
                Ok(())
            }
            Stmt::Assign { lv, op, value, pos } => self.assign(lv, *op, value, *pos),
            Stmt::IncDec { lv, inc, pos } => {
                let one = Expr { pos: *pos, kind: ExprKind::Lit(1) };
                let op = if *inc { AstBinOp::Add } else { AstBinOp::Sub };
                self.assign(lv, Some(op), &one, *pos)
            }
            Stmt::If { cond, then_s, else_s, .. } => {
                let c = self.condition(cond)?;
                let then_b = self.f.new_block("if.then");
                let else_b = self.f.new_block("if.else");
                let join = self.f.new_block("if.join");
                self.seal_and_switch(
                    Terminator::Branch { cond: c, then_to: then_b, else_to: else_b },
                    then_b,
                );
                self.push_scope();
                for s in then_s {
                    self.stmt(s)?;
                }
                self.pop_scope();
                self.seal_and_switch(Terminator::Jump(join), else_b);
                self.push_scope();
                for s in else_s {
                    self.stmt(s)?;
                }
                self.pop_scope();
                self.seal_and_switch(Terminator::Jump(join), join);
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let header = self.f.new_block("while.header");
                let body_b = self.f.new_block("while.body");
                let exit = self.f.new_block("while.exit");
                self.seal_and_switch(Terminator::Jump(header), header);
                let c = self.condition(cond)?;
                self.seal_and_switch(
                    Terminator::Branch { cond: c, then_to: body_b, else_to: exit },
                    body_b,
                );
                self.loop_stack.push((header, exit));
                self.push_scope();
                for s in body {
                    self.stmt(s)?;
                }
                self.pop_scope();
                self.loop_stack.pop();
                self.seal_and_switch(Terminator::Jump(header), exit);
                Ok(())
            }
            Stmt::DoWhile { cond, body, .. } => {
                let body_b = self.f.new_block("do.body");
                let latch = self.f.new_block("do.latch");
                let exit = self.f.new_block("do.exit");
                self.seal_and_switch(Terminator::Jump(body_b), body_b);
                self.loop_stack.push((latch, exit));
                self.push_scope();
                for s in body {
                    self.stmt(s)?;
                }
                self.pop_scope();
                self.loop_stack.pop();
                self.seal_and_switch(Terminator::Jump(latch), latch);
                let c = self.condition(cond)?;
                self.seal_and_switch(
                    Terminator::Branch { cond: c, then_to: body_b, else_to: exit },
                    exit,
                );
                Ok(())
            }
            Stmt::For { init, cond, step, body, pos } => {
                self.push_scope(); // the induction variable's scope
                if let Some(s) = init {
                    self.stmt(s)?;
                }
                let header = self.f.new_block("for.header");
                let body_b = self.f.new_block("for.body");
                let latch = self.f.new_block("for.latch");
                let exit = self.f.new_block("for.exit");
                self.seal_and_switch(Terminator::Jump(header), header);
                let c = match cond {
                    Some(e) => self.condition(e)?,
                    None => self.const_op(1, Type::BOOL),
                };
                self.seal_and_switch(
                    Terminator::Branch { cond: c, then_to: body_b, else_to: exit },
                    body_b,
                );
                self.loop_stack.push((latch, exit));
                self.push_scope();
                for s in body {
                    self.stmt(s)?;
                }
                self.pop_scope();
                self.loop_stack.pop();
                self.seal_and_switch(Terminator::Jump(latch), latch);
                if let Some(s) = step {
                    self.stmt(s)?;
                }
                self.seal_and_switch(Terminator::Jump(header), exit);
                self.pop_scope();
                let _ = pos;
                Ok(())
            }
            Stmt::Return { value, pos } => {
                let term = match (value, self.f.ret_ty) {
                    (Some(e), Some(rty)) => {
                        let (op, ety) = self.expr(e)?;
                        let op = self.convert(op, ety, rty);
                        Terminator::Return(Some(op))
                    }
                    (None, None) => Terminator::Return(None),
                    (Some(_), None) => {
                        return Err(FrontendError::new(
                            *pos,
                            "returning a value from a void function",
                        ))
                    }
                    (None, Some(_)) => {
                        return Err(FrontendError::new(*pos, "missing return value"))
                    }
                };
                if !self.terminated {
                    self.f.block_mut(self.cur).terminator = term;
                    self.terminated = true;
                }
                Ok(())
            }
            Stmt::Break { pos } => {
                let (_, exit) = *self
                    .loop_stack
                    .last()
                    .ok_or_else(|| FrontendError::new(*pos, "`break` outside of a loop"))?;
                if !self.terminated {
                    self.f.block_mut(self.cur).terminator = Terminator::Jump(exit);
                    self.terminated = true;
                }
                Ok(())
            }
            Stmt::Continue { pos } => {
                let (latch, _) = *self
                    .loop_stack
                    .last()
                    .ok_or_else(|| FrontendError::new(*pos, "`continue` outside of a loop"))?;
                if !self.terminated {
                    self.f.block_mut(self.cur).terminator = Terminator::Jump(latch);
                    self.terminated = true;
                }
                Ok(())
            }
            Stmt::ExprStmt { expr, pos } => match &expr.kind {
                ExprKind::Call { .. } => {
                    self.expr(expr)?;
                    Ok(())
                }
                _ => Err(FrontendError::new(
                    *pos,
                    "expression statement has no effect (only calls are allowed)",
                )),
            },
            Stmt::Block { body, .. } => {
                self.push_scope();
                for s in body {
                    self.stmt(s)?;
                }
                self.pop_scope();
                Ok(())
            }
            Stmt::Switch { scrutinee, cases, default, pos } => {
                // Lower to an if-else chain on a temporary holding the
                // scrutinee: each case contributes one conditional jump
                // (and therefore one TAO branch key bit).
                let (sv, sty) = self.expr(scrutinee)?;
                let join = self.f.new_block("switch.join");
                let mut next_test = self.cur;
                for (i, (k, body)) in cases.iter().enumerate() {
                    self.cur = next_test;
                    self.terminated = false;
                    let kc = self.const_op(*k, sty);
                    let cond = self.f.new_value(Type::BOOL);
                    self.emit(Instr::Cmp {
                        pred: CmpPred::Eq,
                        ty: sty,
                        lhs: sv,
                        rhs: kc,
                        dst: cond,
                    });
                    let body_b = self.f.new_block(format!("switch.case{i}"));
                    let else_b = self.f.new_block(format!("switch.test{}", i + 1));
                    self.seal_and_switch(
                        Terminator::Branch { cond: cond.into(), then_to: body_b, else_to: else_b },
                        body_b,
                    );
                    self.push_scope();
                    for st in body {
                        self.stmt(st)?;
                    }
                    self.pop_scope();
                    self.seal_and_switch(Terminator::Jump(join), else_b);
                    next_test = else_b;
                }
                // Default arm (possibly empty) in the final test block.
                self.cur = next_test;
                self.terminated = false;
                self.push_scope();
                for st in default {
                    self.stmt(st)?;
                }
                self.pop_scope();
                self.seal_and_switch(Terminator::Jump(join), join);
                let _ = pos;
                Ok(())
            }
        }
    }

    fn assign(
        &mut self,
        lv: &LValue,
        op: Option<AstBinOp>,
        value: &Expr,
        pos: Pos,
    ) -> Result<(), FrontendError> {
        match lv {
            LValue::Var(name) => {
                if self.lookup(name).is_none() && self.named_consts.contains_key(name) {
                    return Err(FrontendError::new(
                        pos,
                        format!("cannot assign to named constant `{name}`"),
                    ));
                }
                let binding = self
                    .lookup(name)
                    .ok_or_else(|| FrontendError::new(pos, format!("unknown variable `{name}`")))?;
                let (dst, ty) = match binding {
                    Binding::Scalar(v, t) => (v, t),
                    Binding::Array(..) => {
                        return Err(FrontendError::new(
                            pos,
                            format!("cannot assign to array `{name}` without an index"),
                        ))
                    }
                };
                let rhs = match op {
                    None => {
                        let (v, vty) = self.expr(value)?;
                        self.convert(v, vty, ty)
                    }
                    Some(binop) => {
                        let (v, vty) = self.expr(value)?;
                        let (res, rty) =
                            self.binary_values(binop, Operand::Value(dst), ty, v, vty, pos)?;
                        self.convert(res, rty, ty)
                    }
                };
                self.emit(Instr::Copy { ty, src: rhs, dst });
                Ok(())
            }
            LValue::Index { array, index } => {
                let binding = self
                    .lookup(array)
                    .ok_or_else(|| FrontendError::new(pos, format!("unknown array `{array}`")))?;
                let (id, ty) = match binding {
                    Binding::Array(id, t, _) => (id, t),
                    Binding::Scalar(..) => {
                        return Err(FrontendError::new(
                            pos,
                            format!("`{array}` is a scalar, not an array"),
                        ))
                    }
                };
                let (idx, idx_ty) = self.expr(index)?;
                let idx = self.convert(idx, idx_ty, Type::I32);
                let rhs = match op {
                    None => {
                        let (v, vty) = self.expr(value)?;
                        self.convert(v, vty, ty)
                    }
                    Some(binop) => {
                        let old = self.f.new_value(ty);
                        self.emit(Instr::Load { ty, array: id, index: idx, dst: old });
                        let (v, vty) = self.expr(value)?;
                        let (res, rty) =
                            self.binary_values(binop, Operand::Value(old), ty, v, vty, pos)?;
                        self.convert(res, rty, ty)
                    }
                };
                self.emit(Instr::Store { ty, array: id, index: idx, value: rhs });
                Ok(())
            }
        }
    }

    // ---- expressions ----

    /// Lowers an expression to a 1-bit condition operand.
    fn condition(&mut self, e: &Expr) -> Result<Operand, FrontendError> {
        let (op, ty) = self.expr(e)?;
        if ty == Type::BOOL {
            return Ok(op);
        }
        let zero = self.const_op(0, ty);
        let dst = self.f.new_value(Type::BOOL);
        self.emit(Instr::Cmp { pred: CmpPred::Ne, ty, lhs: op, rhs: zero, dst });
        Ok(Operand::Value(dst))
    }

    fn convert(&mut self, op: Operand, from: Type, to: Type) -> Operand {
        if from == to {
            return op;
        }
        // Constants convert at compile time.
        if let Operand::Const(c) = op {
            let k = self.f.consts.get(c);
            let bits = from.convert_to(k.bits, to);
            return Operand::Const(self.f.consts.intern(Constant { bits, ty: to }));
        }
        let dst = self.f.new_value(to);
        self.emit(Instr::Convert { from, to, src: op, dst });
        Operand::Value(dst)
    }

    /// The usual arithmetic conversions of the subset.
    fn common_type(a: Type, b: Type) -> Type {
        let promote = |t: Type| if t.width() < 32 { Type::I32 } else { t };
        let (a, b) = (promote(a), promote(b));
        if a.width() != b.width() {
            if a.width() > b.width() {
                a
            } else {
                b
            }
        } else if !a.is_signed() || !b.is_signed() {
            Type::int(a.width(), false)
        } else {
            a
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<(Operand, Type), FrontendError> {
        match &e.kind {
            ExprKind::Lit(v) => {
                // Literal type: int if it fits, otherwise 64-bit.
                let ty = if *v >= i32::MIN as i64 && *v <= i32::MAX as i64 {
                    Type::I32
                } else {
                    Type::I64
                };
                Ok((self.const_op(*v, ty), ty))
            }
            ExprKind::Var(name) => {
                if let Some(&(v, ty)) = self.named_consts.get(name) {
                    return Ok((self.const_op(v, ty), ty));
                }
                match self.lookup(name) {
                    Some(Binding::Scalar(v, ty)) => Ok((Operand::Value(v), ty)),
                    Some(Binding::Array(..)) => Err(FrontendError::new(
                        e.pos,
                        format!("array `{name}` used without an index"),
                    )),
                    None => Err(FrontendError::new(e.pos, format!("unknown variable `{name}`"))),
                }
            }
            ExprKind::Index { array, index } => {
                let binding = self
                    .lookup(array)
                    .ok_or_else(|| FrontendError::new(e.pos, format!("unknown array `{array}`")))?;
                let (id, ty) = match binding {
                    Binding::Array(id, t, _) => (id, t),
                    Binding::Scalar(..) => {
                        return Err(FrontendError::new(
                            e.pos,
                            format!("`{array}` is a scalar, not an array"),
                        ))
                    }
                };
                let (idx, idx_ty) = self.expr(index)?;
                let idx = self.convert(idx, idx_ty, Type::I32);
                let dst = self.f.new_value(ty);
                self.emit(Instr::Load { ty, array: id, index: idx, dst });
                Ok((Operand::Value(dst), ty))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let (a, aty) = self.expr(lhs)?;
                let (b, bty) = self.expr(rhs)?;
                self.binary_values(*op, a, aty, b, bty, e.pos)
            }
            ExprKind::Unary { op, expr } => {
                let (v, ty) = self.expr(expr)?;
                match op {
                    AstUnOp::Neg => {
                        let ty = Self::common_type(ty, Type::I32);
                        let v = self.convert(v, ty, ty);
                        let dst = self.f.new_value(ty);
                        self.emit(Instr::Unary { op: UnOp::Neg, ty, src: v, dst });
                        Ok((Operand::Value(dst), ty))
                    }
                    AstUnOp::Not => {
                        let wide = Self::common_type(ty, Type::I32);
                        let v = self.convert(v, ty, wide);
                        let dst = self.f.new_value(wide);
                        self.emit(Instr::Unary { op: UnOp::Not, ty: wide, src: v, dst });
                        Ok((Operand::Value(dst), wide))
                    }
                    AstUnOp::LogicNot => {
                        let zero = self.const_op(0, ty);
                        let dst = self.f.new_value(Type::BOOL);
                        self.emit(Instr::Cmp { pred: CmpPred::Eq, ty, lhs: v, rhs: zero, dst });
                        Ok((Operand::Value(dst), Type::BOOL))
                    }
                }
            }
            ExprKind::Ternary { cond, then_e, else_e } => {
                let c = self.condition(cond)?;
                // Determine the result type by lowering both arms into
                // separate blocks with a join temp.
                let then_b = self.f.new_block("sel.then");
                let else_b = self.f.new_block("sel.else");
                let join = self.f.new_block("sel.join");
                self.seal_and_switch(
                    Terminator::Branch { cond: c, then_to: then_b, else_to: else_b },
                    then_b,
                );
                let (tv, tty) = self.expr(then_e)?;
                // We need the common type before emitting the copy: peek the
                // else arm type by lowering it in its block after.
                // Lower then-arm fully once we know both types: stage the
                // operand, then convert in-place.
                let then_end = self.cur;
                self.seal_and_switch(Terminator::Jump(join), else_b);
                let (ev, ety) = self.expr(else_e)?;
                let else_end = self.cur;
                let ty = Self::common_type(tty, ety);
                let dst = self.f.new_value(ty);
                // Emit conversion+copy in each arm's final block.
                self.cur = then_end;
                self.terminated = false;
                let tvc = self.convert(tv, tty, ty);
                self.emit(Instr::Copy { ty, src: tvc, dst });
                self.seal_and_switch(Terminator::Jump(join), else_end);
                let evc = self.convert(ev, ety, ty);
                self.emit(Instr::Copy { ty, src: evc, dst });
                self.seal_and_switch(Terminator::Jump(join), join);
                Ok((Operand::Value(dst), ty))
            }
            ExprKind::Cast { to, expr } => {
                let (v, ty) = self.expr(expr)?;
                Ok((self.convert(v, ty, *to), *to))
            }
            ExprKind::Call { name, args } => {
                let (id, param_tys, ret_ty) = self
                    .funcs
                    .get(name)
                    .ok_or_else(|| FrontendError::new(e.pos, format!("unknown function `{name}`")))?
                    .clone();
                if args.len() != param_tys.len() {
                    return Err(FrontendError::new(
                        e.pos,
                        format!(
                            "`{name}` takes {} arguments, {} given",
                            param_tys.len(),
                            args.len()
                        ),
                    ));
                }
                let mut ops = Vec::with_capacity(args.len());
                for (a, &pty) in args.iter().zip(&param_tys) {
                    let (v, vty) = self.expr(a)?;
                    ops.push(self.convert(v, vty, pty));
                }
                let dst = ret_ty.map(|t| self.f.new_value(t));
                self.emit(Instr::Call { func: id, args: ops, dst, ret_ty });
                match (dst, ret_ty) {
                    (Some(d), Some(t)) => Ok((Operand::Value(d), t)),
                    // Void calls in expression position: give them a dummy
                    // zero so `f();` works as a statement. The statement
                    // lowering discards the value.
                    _ => Ok((self.const_op(0, Type::I32), Type::I32)),
                }
            }
        }
    }

    fn binary_values(
        &mut self,
        op: AstBinOp,
        a: Operand,
        aty: Type,
        b: Operand,
        bty: Type,
        pos: Pos,
    ) -> Result<(Operand, Type), FrontendError> {
        let _ = pos;
        // Comparisons produce BOOL.
        let cmp = |p: CmpPred| p;
        match op {
            AstBinOp::Eq
            | AstBinOp::Ne
            | AstBinOp::Lt
            | AstBinOp::Le
            | AstBinOp::Gt
            | AstBinOp::Ge => {
                let ty = Self::common_type(aty, bty);
                let a = self.convert(a, aty, ty);
                let b = self.convert(b, bty, ty);
                let pred = match op {
                    AstBinOp::Eq => cmp(CmpPred::Eq),
                    AstBinOp::Ne => cmp(CmpPred::Ne),
                    AstBinOp::Lt => cmp(CmpPred::Lt),
                    AstBinOp::Le => cmp(CmpPred::Le),
                    AstBinOp::Gt => cmp(CmpPred::Gt),
                    _ => cmp(CmpPred::Ge),
                };
                let dst = self.f.new_value(Type::BOOL);
                self.emit(Instr::Cmp { pred, ty, lhs: a, rhs: b, dst });
                Ok((Operand::Value(dst), Type::BOOL))
            }
            AstBinOp::LogicAnd | AstBinOp::LogicOr => {
                // Both sides to bool, then 1-bit and/or (documented
                // non-short-circuit semantics).
                let ab = self.to_bool(a, aty);
                let bb = self.to_bool(b, bty);
                let ir_op = if op == AstBinOp::LogicAnd { BinOp::And } else { BinOp::Or };
                let dst = self.f.new_value(Type::BOOL);
                self.emit(Instr::Binary { op: ir_op, ty: Type::BOOL, lhs: ab, rhs: bb, dst });
                Ok((Operand::Value(dst), Type::BOOL))
            }
            AstBinOp::Shl | AstBinOp::Shr => {
                // Shift result has the (promoted) left operand's type.
                let ty = Self::common_type(aty, aty);
                let a = self.convert(a, aty, ty);
                let b = self.convert(b, bty, ty);
                let ir_op = if op == AstBinOp::Shl { BinOp::Shl } else { BinOp::Shr };
                let dst = self.f.new_value(ty);
                self.emit(Instr::Binary { op: ir_op, ty, lhs: a, rhs: b, dst });
                Ok((Operand::Value(dst), ty))
            }
            _ => {
                let ty = Self::common_type(aty, bty);
                let a = self.convert(a, aty, ty);
                let b = self.convert(b, bty, ty);
                let ir_op = match op {
                    AstBinOp::Add => BinOp::Add,
                    AstBinOp::Sub => BinOp::Sub,
                    AstBinOp::Mul => BinOp::Mul,
                    AstBinOp::Div => BinOp::Div,
                    AstBinOp::Rem => BinOp::Rem,
                    AstBinOp::And => BinOp::And,
                    AstBinOp::Or => BinOp::Or,
                    AstBinOp::Xor => BinOp::Xor,
                    _ => unreachable!("handled above"),
                };
                let dst = self.f.new_value(ty);
                self.emit(Instr::Binary { op: ir_op, ty, lhs: a, rhs: b, dst });
                Ok((Operand::Value(dst), ty))
            }
        }
    }

    #[allow(clippy::wrong_self_convention)] // emits instructions; not a conversion method
    fn to_bool(&mut self, v: Operand, ty: Type) -> Operand {
        if ty == Type::BOOL {
            return v;
        }
        let zero = self.const_op(0, ty);
        let dst = self.f.new_value(Type::BOOL);
        self.emit(Instr::Cmp { pred: CmpPred::Ne, ty, lhs: v, rhs: zero, dst });
        Operand::Value(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use hls_ir::Interpreter;

    fn compile(src: &str) -> Module {
        lower(&parse(src).unwrap(), "test").unwrap()
    }

    fn run(m: &Module, name: &str, args: &[u64]) -> Option<u64> {
        Interpreter::new(m).run_by_name(name, args).unwrap().ret
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let m = compile(
            "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
        );
        assert_eq!(run(&m, "gcd", &[48, 36]), Some(12));
        assert_eq!(run(&m, "gcd", &[7, 13]), Some(1));
    }

    #[test]
    fn for_loop_sum() {
        let m =
            compile("int sum(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }");
        assert_eq!(run(&m, "sum", &[10]), Some(45));
        assert_eq!(run(&m, "sum", &[0]), Some(0));
    }

    #[test]
    fn arrays_and_named_constants() {
        let m = compile(
            r#"
            int TAPS = 4;
            short coeff[4] = {1, 2, 3, 4};
            int input[4] = {10, 20, 30, 40};
            int fir() {
                int acc = 0;
                for (int i = 0; i < TAPS; i++) acc += coeff[i] * input[i];
                return acc;
            }
            "#,
        );
        // 1*10 + 2*20 + 3*30 + 4*40 = 300
        assert_eq!(run(&m, "fir", &[]), Some(300));
        // TAPS became a named constant, not a global array.
        assert_eq!(m.globals.len(), 2);
    }

    #[test]
    fn local_array_initializer_becomes_stores_with_pool_constants() {
        let m = compile("int pick(int i) { int tbl[4] = {5, 6, 7, 8}; return tbl[i]; }");
        assert_eq!(run(&m, "pick", &[2]), Some(7));
        let f = m.function_by_name("pick").unwrap().1;
        // 5,6,7,8 plus indices 0..3 interned.
        assert!(f.consts.len() >= 8);
        let stores = f.blocks[0].instrs.iter().filter(|i| matches!(i, Instr::Store { .. })).count();
        assert_eq!(stores, 4);
    }

    #[test]
    fn signed_unsigned_conversions() {
        let m = compile(
            r#"
            int f(char c) { return c; }
            unsigned g(unsigned char c) { return c; }
            "#,
        );
        // char 0xFF sign-extends to -1.
        assert_eq!(run(&m, "f", &[0xff]).map(|v| Type::I32.to_signed(v)), Some(-1));
        assert_eq!(run(&m, "g", &[0xff]), Some(255));
    }

    #[test]
    fn ternary_lowered_to_control_flow() {
        let m = compile("int abs(int x) { return x < 0 ? -x : x; }");
        assert_eq!(run(&m, "abs", &[Type::I32.from_signed(-5)]), Some(5));
        assert_eq!(run(&m, "abs", &[5]), Some(5));
        let f = m.function_by_name("abs").unwrap().1;
        assert!(f.num_blocks() >= 4);
        assert_eq!(f.num_cond_jumps(), 1);
    }

    #[test]
    fn logical_ops_and_not() {
        let m = compile(
            "int f(int a, int b) { if (a > 0 && b > 0) return 1; if (!a || b == 5) return 2; return 3; }",
        );
        assert_eq!(run(&m, "f", &[1, 1]), Some(1));
        assert_eq!(run(&m, "f", &[0, 9]), Some(2));
        assert_eq!(run(&m, "f", &[Type::I32.from_signed(-1), 5]), Some(2));
        assert_eq!(run(&m, "f", &[Type::I32.from_signed(-1), 9]), Some(3));
    }

    #[test]
    fn break_continue() {
        let m = compile(
            r#"
            int f(int n) {
                int s = 0;
                for (int i = 0; i < 100; i++) {
                    if (i == n) break;
                    if (i % 2 == 0) continue;
                    s += i;
                }
                return s;
            }
            "#,
        );
        // odd numbers below 6: 1+3+5 = 9
        assert_eq!(run(&m, "f", &[6]), Some(9));
    }

    #[test]
    fn calls_and_void_functions() {
        let m = compile(
            r#"
            int g[2];
            void set(int i, int v) { g[i] = v; }
            int get(int i) { return g[i]; }
            int top() { set(0, 11); set(1, 31); return get(0) + get(1); }
            "#,
        );
        assert_eq!(run(&m, "top", &[]), Some(42));
    }

    #[test]
    fn compound_assignment_on_array_elements() {
        let m =
            compile("int a[3]; int f() { a[0] = 5; a[0] += 2; a[0] <<= 1; a[0]++; return a[0]; }");
        assert_eq!(run(&m, "f", &[]), Some(15));
    }

    #[test]
    fn do_while_runs_at_least_once() {
        let m = compile("int f() { int i = 10; do { i++; } while (i < 5); return i; }");
        assert_eq!(run(&m, "f", &[]), Some(11));
    }

    #[test]
    fn missing_return_yields_zero() {
        let m = compile("int f(int x) { if (x > 0) return 1; }");
        assert_eq!(run(&m, "f", &[5]), Some(1));
        assert_eq!(run(&m, "f", &[0]), Some(0));
    }

    #[test]
    fn errors_have_positions_and_hints() {
        let err = lower(&parse("int f() { return y; }").unwrap(), "t").unwrap_err();
        assert!(err.message.contains("unknown variable"));
        let err = lower(&parse("int f() { break; }").unwrap(), "t").unwrap_err();
        assert!(err.message.contains("outside of a loop"));
        let err =
            lower(&parse("int N = 3; int f() { N = 4; return N; }").unwrap(), "t").unwrap_err();
        assert!(err.message.contains("named constant"));
        let err = lower(&parse("int f(int x) { return f(x); }").unwrap(), "t").unwrap_err();
        assert!(err.message.contains("recursive"));
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        let m = compile("int f() { int x = 1; { int x = 2; x = 3; } return x; }");
        assert_eq!(run(&m, "f", &[]), Some(1));
    }

    #[test]
    fn switch_lowers_to_branch_chain() {
        let m = compile(
            r#"
            int grade(int score) {
                int g = 0;
                switch (score / 10) {
                    case 10: g = 5; break;
                    case 9: g = 5; break;
                    case 8: g = 4; break;
                    case 7: g = 3; break;
                    default: g = 1;
                }
                return g;
            }
            "#,
        );
        assert_eq!(run(&m, "grade", &[100]), Some(5));
        assert_eq!(run(&m, "grade", &[85]), Some(4));
        assert_eq!(run(&m, "grade", &[71]), Some(3));
        assert_eq!(run(&m, "grade", &[12]), Some(1));
        // Each case contributes a conditional jump (paper: switch-case
        // costs "more working key bits").
        let f = m.function_by_name("grade").unwrap().1;
        assert!(f.num_cond_jumps() >= 4, "got {}", f.num_cond_jumps());
    }

    #[test]
    fn switch_case_may_end_with_return() {
        let m = compile(
            "int f(int x) { switch (x) { case 1: return 10; case 2: return 20; default: return 0; } }",
        );
        assert_eq!(run(&m, "f", &[1]), Some(10));
        assert_eq!(run(&m, "f", &[2]), Some(20));
        assert_eq!(run(&m, "f", &[3]), Some(0));
    }

    #[test]
    fn switch_without_default_falls_through_to_join() {
        let m =
            compile("int f(int x) { int r = 7; switch (x) { case 1: r = 1; break; } return r; }");
        assert_eq!(run(&m, "f", &[1]), Some(1));
        assert_eq!(run(&m, "f", &[9]), Some(7));
    }

    #[test]
    fn switch_fallthrough_rejected_with_hint() {
        let err = parse("int f(int x) { switch (x) { case 1: x = 2; case 2: break; } return x; }")
            .unwrap_err();
        assert!(err.message.contains("falls through"), "{}", err.message);
    }

    #[test]
    fn dead_code_after_return_ignored() {
        let m = compile("int f() { return 1; return 2; }");
        assert_eq!(run(&m, "f", &[]), Some(1));
    }
}
