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
//!
//! The tree lives in arenas owned by the [`Module`]: every expression and
//! statement node is one entry of a `Vec`, children are [`ExprId`]s and
//! [`StmtId`]s, and the variable-length lists (concatenation parts,
//! `begin`/`end` bodies, `case` arms) are [`Span`]s of three list arenas.
//! So a parsed module costs a handful of growing vectors, not one heap
//! allocation per node, and drops in as many frees. Besides the arenas,
//! parsing allocates only the token vector, the parser's scratch stacks,
//! the port, declaration and item vectors, the symbol table and an
//! error's message.

use crate::lexer::{Names, Sym};

/// An expression node: an index into [`Module`]'s expression arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(u32);

/// A statement node: an index into [`Module`]'s statement arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtId(u32);

/// A run of consecutive entries of one of [`Module`]'s list arenas: the
/// parts of a concatenation ([`Module::parts`]), the statements of a
/// block ([`Module::block`]) or the arms of a `case` ([`Module::arms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    start: u32,
    end: u32,
}

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        index: ExprId,
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
        a: ExprId,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
    },
    /// Conditional `c ? t : e`.
    Cond {
        /// Condition (self-determined).
        c: ExprId,
        /// Then-value.
        t: ExprId,
        /// Else-value.
        e: ExprId,
    },
    /// `$signed(e)` reinterpretation.
    Signed(ExprId),
    /// Concatenation `{a, b, …}`: its parts, MSB-first
    /// ([`Module::parts`]).
    Concat(Span),
    /// Replication `{n{e}}`.
    Repeat {
        /// Replication count.
        n: u32,
        /// Replicated expression.
        a: ExprId,
    },
}

/// A nonblocking/blocking assignment target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Assigned identifier (register or memory).
    pub base: Sym,
    /// Memory element index, when the target is `mem[e]`.
    pub index: Option<ExprId>,
}

/// A procedural statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// `begin … end`: its statements ([`Module::block`]).
    Block(Span),
    /// `if (c) s [else s]`.
    If {
        /// Condition (self-determined, true when nonzero).
        cond: ExprId,
        /// Taken when true.
        then_s: StmtId,
        /// Taken when false.
        else_s: Option<StmtId>,
    },
    /// `case (subject) … endcase`.
    Case {
        /// Dispatch subject.
        subject: ExprId,
        /// `(label, statement)` arms, labels being constant expressions
        /// ([`Module::arms`]).
        arms: Span,
        /// `default:` arm.
        default: Option<StmtId>,
    },
    /// `target <= value;`
    NonBlocking {
        /// Assignment target.
        target: Target,
        /// Right-hand side.
        value: ExprId,
    },
    /// `target = value;` (initial blocks).
    Blocking {
        /// Assignment target.
        target: Target,
        /// Right-hand side.
        value: ExprId,
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
    pub params: Vec<(Sym, ExprId)>,
    /// Continuous assigns (wire initializers are normalized into these).
    pub assigns: Vec<(Sym, ExprId)>,
    /// `initial` blocks.
    pub initials: Vec<StmtId>,
    /// `always @(posedge <clock>)` processes.
    pub always: Vec<(Sym, StmtId)>,
    /// The symbol table every [`Sym`] above indexes.
    pub names: Names<'a>,
    /// Expression arena, indexed by [`ExprId`].
    exprs: Vec<Expr>,
    /// Statement arena, indexed by [`StmtId`].
    stmts: Vec<Stmt>,
    /// List arena of concatenation parts.
    parts: Vec<ExprId>,
    /// List arena of block statements.
    blocks: Vec<StmtId>,
    /// List arena of `case` arms.
    arms: Vec<(ExprId, StmtId)>,
}

impl<'a> Module<'a> {
    /// An empty module over the symbol table `names`, whose node arenas
    /// hold `nodes` expressions (and a quarter as many statements) before
    /// they grow.
    pub(crate) fn new(names: Names<'a>, nodes: usize) -> Module<'a> {
        Module {
            names,
            exprs: Vec::with_capacity(nodes),
            stmts: Vec::with_capacity(nodes / 4),
            ..Module::default()
        }
    }

    /// The expression `id` names.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The statement `id` names.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// The parts of an [`Expr::Concat`], MSB-first.
    pub fn parts(&self, s: Span) -> &[ExprId] {
        &self.parts[s.start as usize..s.end as usize]
    }

    /// The statements of a [`Stmt::Block`].
    pub fn block(&self, s: Span) -> &[StmtId] {
        &self.blocks[s.start as usize..s.end as usize]
    }

    /// The `(label, statement)` arms of a [`Stmt::Case`].
    pub fn arms(&self, s: Span) -> &[(ExprId, StmtId)] {
        &self.arms[s.start as usize..s.end as usize]
    }

    /// Adds an expression node.
    pub(crate) fn add_expr(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Adds a statement node.
    pub(crate) fn add_stmt(&mut self, s: Stmt) -> StmtId {
        self.stmts.push(s);
        StmtId(self.stmts.len() as u32 - 1)
    }

    /// Moves `parts` into the concatenation-part arena.
    pub(crate) fn add_parts(&mut self, parts: &[ExprId]) -> Span {
        span_of(&mut self.parts, parts)
    }

    /// Moves `stmts` into the block arena.
    pub(crate) fn add_block(&mut self, stmts: &[StmtId]) -> Span {
        span_of(&mut self.blocks, stmts)
    }

    /// Moves `arms` into the `case`-arm arena.
    pub(crate) fn add_arms(&mut self, arms: &[(ExprId, StmtId)]) -> Span {
        span_of(&mut self.arms, arms)
    }
}

/// Appends `items` to `arena` and returns where they landed.
fn span_of<T: Copy>(arena: &mut Vec<T>, items: &[T]) -> Span {
    let start = arena.len() as u32;
    arena.extend_from_slice(items);
    Span { start, end: arena.len() as u32 }
}
