//! Pins of the Verilog compile path's observable behaviour: number
//! literals, keyword tokens, operator precedence and associativity (against
//! hand-built elaborated trees), error texts, the nesting cap, and the tape
//! compiler's merging of same-subject `case` runs.

use hls_core::KeyBits;
use rtl::SimOptions;
use vlog::ast::{BinOp as B, UnOp as U};
use vlog::lexer::{lex, Kw, Tok};
use vlog::parser::MAX_DEPTH;
use vlog::{parse, CExpr, VlogSim, VlogTape};

fn first(src: &str) -> Result<Tok, String> {
    lex(src).map(|(toks, _)| toks[0].tok).map_err(|e| e.msg)
}

fn num(size: Option<u32>, signed: bool, value: u64) -> Result<Tok, String> {
    Ok(Tok::Number { size, signed, value })
}

#[test]
fn number_edge_cases() {
    // Digit separators, in decimal and after a base.
    assert_eq!(first("1_000"), num(None, true, 1000));
    assert_eq!(first("32'h_ff"), num(Some(32), false, 0xff));
    // The declared width masks the value.
    assert_eq!(first("4'hff"), num(Some(4), false, 0xf));
    // The largest plain decimal fits; one more overflows and is an error.
    assert_eq!(first("18446744073709551615"), num(None, true, u64::MAX));
    assert_eq!(
        first("18_446_744_073_709_551_616").unwrap_err(),
        "bad number `18446744073709551616`"
    );
    // A width beyond 64 bits — also one that does not fit 32 bits — is
    // rejected, not truncated.
    assert_eq!(first("65'd1").unwrap_err(), "unsupported literal width 65");
    assert_eq!(first("4294967297'd1").unwrap_err(), "unsupported literal width 4294967297");
    assert_eq!(first("8'h_").unwrap_err(), "based literal without digits");
    assert_eq!(first("8'b102").unwrap_err(), "bad digit `2` for base 2");
}

#[test]
fn keywords_are_tokens_that_still_name_symbols() {
    let (toks, names) = lex("module begin modules").unwrap();
    let toks: Vec<Tok> = toks.iter().map(|t| t.tok).collect();
    assert_eq!(
        toks,
        [
            Tok::Kw(Kw::Module),
            Tok::Kw(Kw::Begin),
            Tok::Ident(names.get("modules").unwrap()),
            Tok::Eof
        ]
    );
    for kw in [Kw::Module, Kw::Begin, Kw::Endcase, Kw::Default] {
        assert_eq!(names.get(kw.as_str()), Some(kw.sym()));
        assert_eq!(names.name(kw.sym()), kw.as_str());
    }
}

#[test]
fn operator_precedence_and_associativity() {
    let sim = VlogSim::new(
        "module t (input wire clk, input wire rst, input wire start, \
         input wire [31:0] a, input wire [31:0] b, input wire [31:0] c, \
         input wire [31:0] d, input wire [31:0] e, output reg done); \
         wire [31:0] w0 = a - b - c; \
         wire [31:0] w1 = a ? b : c ? d : e; \
         wire [31:0] w2 = a + b << c; \
         wire [31:0] w3 = -a * b; \
         wire [31:0] w4 = !a && b || c; \
         wire [31:0] w5 = a == b & c; \
         always @(posedge clk) done <= 1'b1; endmodule",
    )
    .unwrap();
    let sig = |id| CExpr::Sig { id, width: 32 };
    let (a, b, c, d, e) = (sig(3), sig(4), sig(5), sig(6), sig(7));
    let bin = |op, x: &CExpr, y: &CExpr| CExpr::Binary {
        op,
        a: Box::new(x.clone()),
        b: Box::new(y.clone()),
    };
    let un = |op, x: &CExpr| CExpr::Unary { op, a: Box::new(x.clone()) };
    let cond = |c: &CExpr, t: &CExpr, e: &CExpr| CExpr::Cond {
        c: Box::new(c.clone()),
        t: Box::new(t.clone()),
        e: Box::new(e.clone()),
    };
    let want = [
        bin(B::Sub, &bin(B::Sub, &a, &b), &c),
        cond(&a, &b, &cond(&c, &d, &e)),
        bin(B::Shl, &bin(B::Add, &a, &b), &c),
        bin(B::Mul, &un(U::Neg, &a), &b),
        bin(B::LOr, &bin(B::LAnd, &un(U::LogNot, &a), &b), &c),
        bin(B::And, &bin(B::Eq, &a, &b), &c),
    ];
    assert_eq!(sim.wires(), &want);
}

#[test]
fn error_messages_name_the_tokens() {
    let msg = |src| parse(src).unwrap_err().to_string();
    assert_eq!(
        msg("module t (input wire clk); reg [31:0] a; always @(posedge clk) a <= ;"),
        "line 1: unexpected token Semi in expression"
    );
    assert_eq!(
        msg("module t (input wire clk);\nwire $bogus;"),
        "line 2: expected identifier, found `$bogus`"
    );
    assert_eq!(msg("module t (input clk) foo"), "line 1: expected Semi, found `foo`");
    assert_eq!(
        VlogSim::new("module t (input wire clk); always @(posedge clk) q <= 1'b1; endmodule")
            .unwrap_err()
            .to_string(),
        "verilog: assignment to undeclared `q`"
    );
}

#[test]
fn nesting_is_capped() {
    let deep = |open: &str, close: &str, n: usize| {
        format!(
            "module t (input wire clk, output reg done); \
             always @(posedge clk) done <= {}1'b1{}; endmodule",
            open.repeat(n),
            close.repeat(n)
        )
    };
    assert!(parse(&deep("(", ")", 100)).is_ok());
    for text in [deep("(", ")", 100_000), deep("~", "", 100_000), deep("1'b1 + ", "", 100_000)] {
        let e = parse(&text).unwrap_err();
        assert_eq!(e.msg, format!("nesting deeper than {MAX_DEPTH} levels"));
    }
}

#[test]
fn merged_cases_keep_statement_order_and_defaults() {
    // The two cases share a subject, so the tape merges them into one
    // dispatch. Per label the later write must still win, and a label only
    // the first case's default covers must still run that default — as in
    // the tree backend, which runs the cases one after the other.
    let text = "module t (input wire clk, input wire rst, input wire start, \
        input wire [1:0] working_key, output wire [31:0] ret, output reg done); \
        reg [31:0] r0; assign ret = r0; \
        always @(posedge clk) begin \
          if (rst) done <= 1'b0; else begin \
            case (working_key[1:0]) 2'd0: r0 <= 32'd1; default: r0 <= 32'd2; endcase \
            case (working_key[1:0]) 2'd0: r0 <= 32'd3; 2'd1: r0 <= 32'd4; endcase \
            done <= 1'b1; \
          end \
        end endmodule";
    let sim = VlogSim::new(text).unwrap();
    let tape = VlogTape::compile(&sim).unwrap();
    for (k, want) in [(0u32, 3), (1, 4), (2, 2), (3, 2)] {
        let mut key = KeyBits::zero(2);
        key.set_bit(0, k & 1 == 1);
        key.set_bit(1, k & 2 == 2);
        let tree = sim.simulate(&[], &key, &[], &SimOptions::default()).unwrap();
        assert_eq!(tree.ret, Some(want), "key {k}");
        assert_eq!(tape.simulate(&[], &key, &[], &SimOptions::default()).unwrap(), tree);
    }
}
