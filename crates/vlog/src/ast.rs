//! Netlist AST for the synthesizable subset.
//!
//! The shapes mirror what `hls_core::verilog::emit` produces: one module
//! with scalar ports, `reg`/`wire` declarations, memories (with optional
//! `(* external *)` attributes and `initial` init images), continuous
//! assigns, `localparam`s, and `always @(posedge clk)` processes built
//! from `begin`/`end` blocks, `if`/`else`, `case` and nonblocking
//! assignments.
//!
//! Names are interned [`Sym`]s; [`Module::names`] maps them back to the
//! source text.

use crate::lexer::{Names, Sym};

/// Unary expression operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Bitwise complement `~`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
    /// Logical negation `!`.
    LogNot,
}

/// Binary expression operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names are the Verilog operators
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    AShr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LAnd,
    LOr,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Numeric literal.
    Num {
        /// Declared size (`None` = unsized, 32-bit self size).
        size: Option<u32>,
        /// Signed literal (`'s` flag or plain decimal).
        signed: bool,
        /// Value bits.
        value: u64,
    },
    /// Signal, parameter or port reference.
    Ident(Sym),
    /// Bit-select `sig[e]` or memory-element read `mem[e]`.
    Select {
        /// Base identifier.
        base: Sym,
        /// Index expression (self-determined).
        index: Box<Expr>,
    },
    /// Constant part-select `sig[hi:lo]`.
    Part {
        /// Base identifier.
        base: Sym,
        /// High bit.
        hi: u32,
        /// Low bit.
        lo: u32,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Box<Expr>,
        /// Right operand.
        b: Box<Expr>,
    },
    /// Conditional `c ? t : e`.
    Cond {
        /// Condition (self-determined).
        c: Box<Expr>,
        /// Then-value.
        t: Box<Expr>,
        /// Else-value.
        e: Box<Expr>,
    },
    /// `$signed(e)` reinterpretation.
    Signed(Box<Expr>),
    /// Concatenation `{a, b, …}` (parts MSB-first).
    Concat(Vec<Expr>),
    /// Replication `{n{e}}`.
    Repeat {
        /// Replication count.
        n: u32,
        /// Replicated expression.
        a: Box<Expr>,
    },
}

/// A nonblocking/blocking assignment target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    /// Assigned identifier (register or memory).
    pub base: Sym,
    /// Memory element index, when the target is `mem[e]`.
    pub index: Option<Expr>,
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `begin … end`.
    Block(Vec<Stmt>),
    /// `if (c) s [else s]`.
    If {
        /// Condition (self-determined, true when nonzero).
        cond: Expr,
        /// Taken when true.
        then_s: Box<Stmt>,
        /// Taken when false.
        else_s: Option<Box<Stmt>>,
    },
    /// `case (subject) … endcase`.
    Case {
        /// Dispatch subject.
        subject: Expr,
        /// `(label, statement)` arms (labels are constant expressions).
        arms: Vec<(Expr, Stmt)>,
        /// `default:` arm.
        default: Option<Box<Stmt>>,
    },
    /// `target <= value;`
    NonBlocking {
        /// Assignment target.
        target: Target,
        /// Right-hand side.
        value: Expr,
    },
    /// `target = value;` (initial blocks).
    Blocking {
        /// Assignment target.
        target: Target,
        /// Right-hand side.
        value: Expr,
    },
    /// Null statement `;`.
    Null,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `input`.
    Input,
    /// `output`.
    Output,
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: Sym,
    /// Direction.
    pub dir: Dir,
    /// Bit width.
    pub width: u32,
    /// Declared `reg` (procedurally driven output).
    pub is_reg: bool,
}

/// A scalar net (`reg` or `wire`) declared in the module body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name.
    pub name: Sym,
    /// Bit width.
    pub width: u32,
    /// `reg` (procedural) vs `wire` (continuous).
    pub is_reg: bool,
}

/// A memory declaration `reg [w-1:0] name [0:len-1];`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mem {
    /// Memory name.
    pub name: Sym,
    /// Element width in bits.
    pub elem_width: u32,
    /// Element count.
    pub len: usize,
    /// Carried an `(* external *)` attribute (accelerator I/O).
    pub external: bool,
}

/// A parsed module, borrowing its names from the source text.
#[derive(Debug, Clone, Default)]
pub struct Module<'a> {
    /// Module name.
    pub name: Sym,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// Body-declared scalar nets.
    pub nets: Vec<Net>,
    /// Memories in declaration order.
    pub mems: Vec<Mem>,
    /// `localparam` definitions.
    pub params: Vec<(Sym, Expr)>,
    /// Continuous assigns (wire initializers are normalized into these).
    pub assigns: Vec<(Sym, Expr)>,
    /// `initial` blocks.
    pub initials: Vec<Stmt>,
    /// `always @(posedge <clock>)` processes.
    pub always: Vec<(Sym, Stmt)>,
    /// The symbol table every [`Sym`] above indexes.
    pub names: Names<'a>,
}
