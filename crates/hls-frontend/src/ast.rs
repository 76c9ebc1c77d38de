//! Abstract syntax tree for the C subset.
//!
//! The subset is what the five TAO benchmarks need (see `benchmarks`):
//! integer scalar/array globals and locals, functions with scalar
//! parameters, full integer expression grammar, `if`/`for`/`while`/
//! `do-while`, `break`/`continue`/`return`. No pointers, floats, structs or
//! recursion — none of which the paper's HLS flow synthesizes either.

use crate::error::Pos;
use hls_ir::Type;

/// A scalar C type in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CType {
    /// `void` (function returns only).
    Void,
    /// An integer type mapped onto an IR [`Type`].
    Int(Type),
}

impl CType {
    /// The IR type, if not `void`.
    pub fn ir(self) -> Option<Type> {
        match self {
            CType::Void => None,
            CType::Int(t) => Some(t),
        }
    }
}

/// Binary operators at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` — evaluated without short circuit (all expressions in the
    /// subset are total).
    LogicAnd,
    /// `||` — evaluated without short circuit.
    LogicOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstUnOp {
    /// `-`
    Neg,
    /// `~`
    Not,
    /// `!`
    LogicNot,
}

/// An expression with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Position for diagnostics.
    pub pos: Pos,
    /// The expression kind.
    pub kind: ExprKind,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ExprKind {
    /// Integer literal.
    Lit(i64),
    /// Variable reference.
    Var(String),
    /// Array element `name[index]`.
    Index { array: String, index: Box<Expr> },
    /// Binary operation.
    Binary { op: AstBinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Unary operation.
    Unary { op: AstUnOp, expr: Box<Expr> },
    /// Ternary conditional `c ? t : e` (lowered to control flow).
    Ternary { cond: Box<Expr>, then_e: Box<Expr>, else_e: Box<Expr> },
    /// C cast `(type) expr`.
    Cast { to: Type, expr: Box<Expr> },
    /// Function call.
    Call { name: String, args: Vec<Expr> },
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// Array element.
    Index { array: String, index: Expr },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Stmt {
    /// Scalar declaration `int x = e;` (initializer optional).
    DeclScalar { ty: Type, name: String, init: Option<Expr>, pos: Pos },
    /// Array declaration `int a[N] = {..};` (initializer optional).
    DeclArray { ty: Type, name: String, len: usize, init: Option<Vec<i64>>, pos: Pos },
    /// Assignment `lv op= e;` (`op` is `None` for plain `=`).
    Assign { lv: LValue, op: Option<AstBinOp>, value: Expr, pos: Pos },
    /// Increment/decrement statement `x++;` / `x--;`.
    IncDec { lv: LValue, inc: bool, pos: Pos },
    /// `if (c) { .. } else { .. }`.
    If { cond: Expr, then_s: Vec<Stmt>, else_s: Vec<Stmt>, pos: Pos },
    /// `while (c) { .. }`.
    While { cond: Expr, body: Vec<Stmt>, pos: Pos },
    /// `do { .. } while (c);`.
    DoWhile { cond: Expr, body: Vec<Stmt>, pos: Pos },
    /// `for (init; cond; step) { .. }` — init/step are statements, cond
    /// optional (defaults to true).
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Vec<Stmt>,
        pos: Pos,
    },
    /// `return e;` / `return;`.
    Return { value: Option<Expr>, pos: Pos },
    /// `break;`
    Break { pos: Pos },
    /// `continue;`
    Continue { pos: Pos },
    /// An expression evaluated for its effects (function call).
    ExprStmt { expr: Expr, pos: Pos },
    /// A nested block `{ .. }` (its declarations are scoped).
    Block { body: Vec<Stmt>, pos: Pos },
    /// `switch (e) { case k: ...; break; ... default: ... }`. Each case
    /// body must end in `break` or `return` (no fallthrough); the lowering
    /// produces an if-else chain, so every case contributes a conditional
    /// jump — and thus a TAO branch key bit, the paper's "more working key
    /// bits" for complex branch constructs.
    Switch { scrutinee: Expr, cases: Vec<(i64, Vec<Stmt>)>, default: Vec<Stmt>, pos: Pos },
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Return type.
    pub ret: CType,
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Position of the definition.
    pub pos: Pos,
}

/// A global array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Element type.
    pub ty: Type,
    /// Name.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Optional initializer.
    pub init: Option<Vec<i64>>,
    /// Position.
    pub pos: Pos,
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Global arrays (the accelerator's external memories).
    pub globals: Vec<GlobalDef>,
    /// Function definitions.
    pub functions: Vec<FuncDef>,
}
