//! Recursive-descent parser for the synthesizable subset.
//!
//! Binary operators parse in one precedence-climbing loop over a
//! binding-power table (`binop`); everything else is one function per
//! construct. Declarations, expression sizes and nesting are bounded by
//! the caps below, so hostile text yields a [`ParseError`] instead of an
//! overflow, a huge allocation or a stack overflow.
//!
//! Nodes go straight into the [`Module`]'s arenas, which are pre-sized
//! from the token count; a list (block, `case` arms, concatenation) is
//! gathered on a scratch stack the parser reuses, then copied into its
//! arena in one piece, so nested lists need no vector of their own.

use crate::ast::*;
use crate::lexer::{lex, Kw, Spanned, Sym, Tok};
use std::fmt;

/// Widest signal, memory element or expression the front end accepts, in
/// bits (the paper's designs peak at 5,317 bits: viterbi's working key).
pub const MAX_WIDTH: u32 = 1 << 16;
/// Most memory elements one module may declare over all its memories —
/// each is a 64-bit word at run time (the paper's designs peak at
/// 256-element memories).
pub const MAX_MEM_WORDS: u64 = 1 << 20;
/// Largest replication count `{n{e}}` (the paper's designs peak at 32).
pub const MAX_REPEAT: u64 = 1 << 12;
/// Deepest nesting of statements and expressions: every statement,
/// sub-expression, prefix operator and chained binary operator is one
/// level. Bounds the height of every tree later stages walk recursively.
pub const MAX_DEPTH: u32 = 256;

/// Parse error with source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description.
    pub msg: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a single module from Verilog source text.
///
/// # Errors
///
/// Returns [`ParseError`] (lexical errors are converted) when the text
/// falls outside the supported subset or exceeds a cap.
pub fn parse(src: &str) -> Result<Module<'_>, ParseError> {
    let (toks, names) = lex(src)?;
    // The emitted texts hold about one expression node per two tokens.
    let m = Module::new(names, toks.len() / 2);
    Parser { toks, pos: 0, depth: 0, m, parts: Vec::new(), stmts: Vec::new(), arms: Vec::new() }
        .module()
}

/// Binding power (higher binds tighter) and operator of a binary-operator
/// token. Every level is left-associative; the levels are IEEE 1364's.
fn binop(t: Tok) -> Option<(u8, BinOp)> {
    Some(match t {
        Tok::PipePipe => (1, BinOp::LOr),
        Tok::AmpAmp => (2, BinOp::LAnd),
        Tok::Pipe => (3, BinOp::Or),
        Tok::Caret => (4, BinOp::Xor),
        Tok::Amp => (5, BinOp::And),
        Tok::EqEq => (6, BinOp::Eq),
        Tok::NotEq => (6, BinOp::Ne),
        Tok::Lt => (7, BinOp::Lt),
        Tok::Le => (7, BinOp::Le),
        Tok::Gt => (7, BinOp::Gt),
        Tok::Ge => (7, BinOp::Ge),
        Tok::Shl => (8, BinOp::Shl),
        Tok::Shr => (8, BinOp::Shr),
        Tok::AShr => (8, BinOp::AShr),
        Tok::Plus => (9, BinOp::Add),
        Tok::Minus => (9, BinOp::Sub),
        Tok::Star => (10, BinOp::Mul),
        Tok::Slash => (10, BinOp::Div),
        Tok::Percent => (10, BinOp::Rem),
        _ => return None,
    })
}

struct Parser<'a> {
    toks: Vec<Spanned>,
    pos: usize,
    /// Current nesting level (see [`MAX_DEPTH`]).
    depth: u32,
    /// The module being built: its symbol table names the tokens' symbols,
    /// and its arenas receive every node.
    m: Module<'a>,
    /// Scratch stacks of the lists being parsed (innermost on top).
    parts: Vec<ExprId>,
    stmts: Vec<StmtId>,
    arms: Vec<(ExprId, StmtId)>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok {
        self.toks[self.pos].tok
    }

    fn peek2(&self) -> Tok {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { msg: msg.into(), line: self.line() })
    }

    /// Renders a token for an error message.
    fn show(&self, t: Tok) -> String {
        match t {
            Tok::Ident(s) => format!("`{}`", self.m.names.name(s)),
            Tok::Kw(k) => format!("`{}`", k.as_str()),
            Tok::System(s) => format!("`${}`", self.m.names.name(s)),
            Tok::Number { value, .. } => format!("number {value}"),
            other => format!("{other:?}"),
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if self.peek() == t {
            self.next();
            Ok(())
        } else {
            self.err(format!("expected {}, found {}", self.show(t), self.show(self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Kw(k) if k == kw => {
                self.next();
                Ok(())
            }
            other => self.err(format!("expected `{}`, found {}", kw.as_str(), self.show(other))),
        }
    }

    /// An identifier; a keyword where a name is expected stands for
    /// itself.
    fn ident(&mut self) -> Result<Sym, ParseError> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            Tok::Kw(k) => Ok(k.sym()),
            other => self.err(format!("expected identifier, found {}", self.show(other))),
        }
    }

    fn at_kw(&self, kw: Kw) -> bool {
        self.peek() == Tok::Kw(kw)
    }

    fn const_u64(&mut self) -> Result<u64, ParseError> {
        match self.next() {
            Tok::Number { value, .. } => Ok(value),
            other => self.err(format!("expected constant, found {}", self.show(other))),
        }
    }

    /// Enters one nesting level; callers restore `depth` when they return.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    // ---------------------------------------------------------- module

    fn module(mut self) -> Result<Module<'a>, ParseError> {
        self.expect_kw(Kw::Module)?;
        self.m.name = self.ident()?;
        self.expect(Tok::LParen)?;
        while self.peek() != Tok::RParen {
            let dir = if self.at_kw(Kw::Input) {
                self.next();
                Dir::Input
            } else if self.at_kw(Kw::Output) {
                self.next();
                Dir::Output
            } else {
                return self.err("expected `input` or `output`");
            };
            let is_reg = if self.at_kw(Kw::Reg) {
                self.next();
                true
            } else {
                if self.at_kw(Kw::Wire) {
                    self.next();
                }
                false
            };
            let width = self.opt_range()?;
            let pname = self.ident()?;
            self.m.ports.push(Port { name: pname, dir, width, is_reg });
            if self.peek() == Tok::Comma {
                self.next();
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;

        while !self.at_kw(Kw::Endmodule) {
            if self.peek() == Tok::Eof {
                return self.err("unexpected end of input inside module");
            }
            self.item()?;
        }
        self.next(); // endmodule
        Ok(self.m)
    }

    /// Optional `[msb:lsb]` range; returns the width (`msb - lsb + 1`).
    fn opt_range(&mut self) -> Result<u32, ParseError> {
        if self.peek() != Tok::LBracket {
            return Ok(1);
        }
        self.next();
        let msb = self.const_u64()?;
        self.expect(Tok::Colon)?;
        let lsb = self.const_u64()?;
        self.expect(Tok::RBracket)?;
        if lsb != 0 {
            return self.err("only `[msb:0]` ranges are supported");
        }
        if msb >= u64::from(MAX_WIDTH) {
            return self.err(format!("range [{msb}:0] exceeds the {MAX_WIDTH}-bit width cap"));
        }
        Ok(msb as u32 + 1)
    }

    fn item(&mut self) -> Result<(), ParseError> {
        // `(* attr *)` prefix (only on memory declarations in our subset).
        let mut external = false;
        if self.peek() == Tok::LParen && self.peek2() == Tok::Star {
            self.next();
            self.next();
            let attr = self.ident()?;
            if self.m.names.name(attr) == "external" {
                external = true;
            }
            self.expect(Tok::Star)?;
            self.expect(Tok::RParen)?;
        }

        if self.at_kw(Kw::Localparam) {
            self.next();
            let name = self.ident()?;
            self.expect(Tok::Assign)?;
            let value = self.expr()?;
            self.expect(Tok::Semi)?;
            self.m.params.push((name, value));
            return Ok(());
        }
        if self.at_kw(Kw::Assign) {
            self.next();
            let name = self.ident()?;
            self.expect(Tok::Assign)?;
            let value = self.expr()?;
            self.expect(Tok::Semi)?;
            self.m.assigns.push((name, value));
            return Ok(());
        }
        if self.at_kw(Kw::Initial) {
            self.next();
            let body = self.stmt()?;
            self.m.initials.push(body);
            return Ok(());
        }
        if self.at_kw(Kw::Always) {
            self.next();
            self.expect(Tok::At)?;
            self.expect(Tok::LParen)?;
            self.expect_kw(Kw::Posedge)?;
            let clock = self.ident()?;
            self.expect(Tok::RParen)?;
            let body = self.stmt()?;
            self.m.always.push((clock, body));
            return Ok(());
        }
        if self.at_kw(Kw::Reg) || self.at_kw(Kw::Wire) {
            let decl = self.peek();
            let is_reg = decl == Tok::Kw(Kw::Reg);
            loop {
                self.next(); // reg|wire
                let width = self.opt_range()?;
                let name = self.ident()?;
                if self.peek() == Tok::LBracket {
                    // Memory: `name [0:len-1];`
                    self.next();
                    let lo = self.const_u64()?;
                    self.expect(Tok::Colon)?;
                    let hi = self.const_u64()?;
                    self.expect(Tok::RBracket)?;
                    if lo != 0 {
                        return self.err("memories must be declared `[0:len-1]`");
                    }
                    if hi >= MAX_MEM_WORDS {
                        return self.err(format!(
                            "memory [0:{hi}] exceeds the {MAX_MEM_WORDS}-element cap"
                        ));
                    }
                    self.expect(Tok::Semi)?;
                    // The attribute binds to one declaration only; a
                    // following memory in the same declaration run must
                    // not inherit it.
                    let ext = std::mem::take(&mut external);
                    self.m.mems.push(Mem {
                        name,
                        elem_width: width,
                        len: hi as usize + 1,
                        external: ext,
                    });
                } else if self.peek() == Tok::Assign {
                    // Wire with initializer: normalize to a continuous assign.
                    self.next();
                    let value = self.expr()?;
                    self.expect(Tok::Semi)?;
                    self.m.nets.push(Net { name, width, is_reg });
                    self.m.assigns.push((name, value));
                } else {
                    self.expect(Tok::Semi)?;
                    self.m.nets.push(Net { name, width, is_reg });
                }
                // `reg [63:0] a; reg b;` on one line arrive as separate
                // items; continue only when the next token starts the same
                // declaration keyword (multi-decl emission style).
                if self.peek() != decl {
                    break;
                }
            }
            return Ok(());
        }
        self.err(format!("unsupported module item at {}", self.show(self.peek())))
    }

    // ------------------------------------------------------- statements

    fn stmt(&mut self) -> Result<StmtId, ParseError> {
        let depth = self.depth;
        self.descend()?;
        let s = self.stmt_inner()?;
        self.depth = depth;
        Ok(self.m.add_stmt(s))
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        if self.peek() == Tok::Semi {
            self.next();
            return Ok(Stmt::Null);
        }
        if self.at_kw(Kw::Begin) {
            self.next();
            let base = self.stmts.len();
            while !self.at_kw(Kw::End) {
                if self.peek() == Tok::Eof {
                    return self.err("unexpected end of input inside begin/end");
                }
                let s = self.stmt()?;
                self.stmts.push(s);
            }
            self.next();
            let body = self.m.add_block(&self.stmts[base..]);
            self.stmts.truncate(base);
            return Ok(Stmt::Block(body));
        }
        if self.at_kw(Kw::If) {
            self.next();
            self.expect(Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(Tok::RParen)?;
            let then_s = self.stmt()?;
            let else_s = if self.at_kw(Kw::Else) {
                self.next();
                Some(self.stmt()?)
            } else {
                None
            };
            return Ok(Stmt::If { cond, then_s, else_s });
        }
        if self.at_kw(Kw::Case) {
            self.next();
            self.expect(Tok::LParen)?;
            let subject = self.expr()?;
            self.expect(Tok::RParen)?;
            let base = self.arms.len();
            let mut default = None;
            while !self.at_kw(Kw::Endcase) {
                if self.peek() == Tok::Eof {
                    return self.err("unexpected end of input inside case");
                }
                if self.at_kw(Kw::Default) {
                    self.next();
                    self.expect(Tok::Colon)?;
                    default = Some(self.stmt()?);
                } else {
                    let label = self.expr()?;
                    self.expect(Tok::Colon)?;
                    let body = self.stmt()?;
                    self.arms.push((label, body));
                }
            }
            self.next();
            let arms = self.m.add_arms(&self.arms[base..]);
            self.arms.truncate(base);
            return Ok(Stmt::Case { subject, arms, default });
        }
        // Assignment: `target <= e;` or `target = e;`
        let base = self.ident()?;
        let index = if self.peek() == Tok::LBracket {
            self.next();
            let e = self.expr()?;
            self.expect(Tok::RBracket)?;
            Some(e)
        } else {
            None
        };
        let target = Target { base, index };
        match self.next() {
            Tok::Le => {
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::NonBlocking { target, value })
            }
            Tok::Assign => {
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Blocking { target, value })
            }
            other => self.err(format!("expected `<=` or `=`, found {}", self.show(other))),
        }
    }

    // ------------------------------------------------------ expressions

    fn expr(&mut self) -> Result<ExprId, ParseError> {
        let depth = self.depth;
        self.descend()?;
        let mut e = self.binary(1)?;
        if self.peek() == Tok::Question {
            self.next();
            let t = self.expr()?;
            self.expect(Tok::Colon)?;
            let f = self.expr()?;
            e = self.m.add_expr(Expr::Cond { c: e, t, e: f });
        }
        self.depth = depth;
        Ok(e)
    }

    /// Precedence climbing: a left-deep chain of the operators that bind
    /// at least as tightly as `min_bp`. Each chained operator is one
    /// nesting level, so long chains are bounded like deep ones.
    fn binary(&mut self, min_bp: u8) -> Result<ExprId, ParseError> {
        let depth = self.depth;
        let mut a = self.unary()?;
        while let Some((bp, op)) = binop(self.peek()).filter(|&(bp, _)| bp >= min_bp) {
            self.descend()?;
            self.next();
            let b = self.binary(bp + 1)?;
            a = self.m.add_expr(Expr::Binary { op, a, b });
        }
        self.depth = depth;
        Ok(a)
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        let op = match self.peek() {
            Tok::Tilde => UnOp::Not,
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::LogNot,
            _ => return self.primary(),
        };
        let depth = self.depth;
        self.descend()?;
        self.next();
        let a = self.unary()?;
        self.depth = depth;
        Ok(self.m.add_expr(Expr::Unary { op, a }))
    }

    /// A constant operand that must fit `u32` (part-select bounds).
    fn bound(&self, value: u64) -> Result<u32, ParseError> {
        u32::try_from(value)
            .or_else(|_| self.err(format!("part-select bound {value} out of range")))
    }

    fn primary(&mut self) -> Result<ExprId, ParseError> {
        let e = match self.next() {
            Tok::Number { size, signed, value, .. } => Expr::Num { size, signed, value },
            Tok::Ident(base) => return self.ident_ref(base),
            Tok::Kw(k) => return self.ident_ref(k.sym()),
            Tok::System(s) if self.m.names.name(s) == "signed" => {
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Expr::Signed(e)
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                return Ok(e);
            }
            Tok::LBrace => {
                let first = self.expr()?;
                if self.peek() == Tok::LBrace {
                    // `{n{e}}` replication.
                    let n = match *self.m.expr(first) {
                        Expr::Num { value, .. } if value <= MAX_REPEAT => value as u32,
                        Expr::Num { value, .. } => {
                            return self.err(format!(
                                "replication count {value} exceeds the cap of {MAX_REPEAT}"
                            ))
                        }
                        _ => return self.err("replication count must be a constant"),
                    };
                    self.next();
                    let a = self.expr()?;
                    self.expect(Tok::RBrace)?;
                    self.expect(Tok::RBrace)?;
                    Expr::Repeat { n, a }
                } else {
                    let base = self.parts.len();
                    self.parts.push(first);
                    while self.peek() == Tok::Comma {
                        self.next();
                        let part = self.expr()?;
                        self.parts.push(part);
                    }
                    self.expect(Tok::RBrace)?;
                    let parts = self.m.add_parts(&self.parts[base..]);
                    self.parts.truncate(base);
                    Expr::Concat(parts)
                }
            }
            other => {
                return self.err(format!("unexpected token {} in expression", self.show(other)))
            }
        };
        Ok(self.m.add_expr(e))
    }

    /// A name in an expression, with an optional bit-, element- or
    /// part-select.
    fn ident_ref(&mut self, base: Sym) -> Result<ExprId, ParseError> {
        if self.peek() != Tok::LBracket {
            return Ok(self.m.add_expr(Expr::Ident(base)));
        }
        self.next();
        let first = self.expr()?;
        if self.peek() == Tok::Colon {
            self.next();
            let lo = self.const_u64()?;
            let lo = self.bound(lo)?;
            self.expect(Tok::RBracket)?;
            let hi = match *self.m.expr(first) {
                Expr::Num { value, .. } => self.bound(value)?,
                _ => return self.err("part-select bounds must be constants"),
            };
            return Ok(self.m.add_expr(Expr::Part { base, hi, lo }));
        }
        self.expect(Tok::RBracket)?;
        Ok(self.m.add_expr(Expr::Select { base, index: first }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_module() {
        let m = parse(
            r#"
            module f (
                input  wire clk,
                input  wire rst,
                input  wire start,
                input  wire [31:0] arg0,
                output wire [31:0] ret,
                output reg  done
            );
              reg [1:0] state;
              localparam S0 = 2'd0;
              localparam S1 = 2'd1;
              reg [31:0] r0; // x
              assign ret = r0;
              (* external *) reg [31:0] mem0 [0:7]; // buf
              initial begin
                mem0[0] = 32'h3;
              end
              wire [31:0] const0 = 32'h2a;
              always @(posedge clk) begin
                if (rst) begin
                  state <= S0;
                  done <= 1'b0;
                  r0 <= arg0;
                end else if (start || state != S0) begin
                  case (state)
                    S0: begin
                      r0 <= $signed(r0) + $signed(const0);
                      state <= S1;
                    end
                    S1: begin
                      done <= 1'b1;
                    end
                    default: state <= S0;
                  endcase
                end
              end
            endmodule
            "#,
        )
        .unwrap();
        assert_eq!(m.names.name(m.name), "f");
        assert_eq!(m.ports.len(), 6);
        assert_eq!(m.mems.len(), 1);
        assert!(m.mems[0].external);
        assert_eq!(m.mems[0].len, 8);
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.assigns.len(), 2); // ret + const0
        assert_eq!(m.initials.len(), 1);
        assert_eq!(m.always.len(), 1);
    }

    #[test]
    fn parses_expressions() {
        let m = parse(
            "module t (input wire clk, output reg done); \
             reg [31:0] a; reg [31:0] b; \
             always @(posedge clk) begin \
               a <= (b == 32'd0) ? {32{1'b1}} : $signed(a) / $signed(b); \
               b <= a << (b % 32'd32); \
               a <= {3'd0, b[7:2]}; \
               done <= (a[0] ^ b[1]) == 1'b1; \
             end endmodule",
        )
        .unwrap();
        match m.stmt(m.always[0].1) {
            &Stmt::Block(stmts) => assert_eq!(m.block(stmts).len(), 4),
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn external_attribute_binds_to_one_memory() {
        let m = parse(
            "module t (input wire clk, output reg done); \
             (* external *) reg [31:0] mem0 [0:7]; \
             reg [31:0] mem1 [0:3]; \
             always @(posedge clk) done <= 1'b1; endmodule",
        )
        .unwrap();
        assert!(m.mems[0].external, "attributed memory must be external");
        assert!(!m.mems[1].external, "attribute must not leak to the next memory");
    }

    #[test]
    fn rejects_unsupported() {
        assert!(parse("module t (input wire clk); forever; endmodule").is_err());
        assert!(parse("module t (").is_err());
    }
}
