//! Tokenizer for the synthesizable Verilog subset.
//!
//! Covers exactly what `hls_core::verilog::emit` produces: keywords,
//! identifiers, sized/unsized numeric literals (with optional `s`
//! signedness flag), operators, punctuation and `$`-system identifiers.
//! Comments are skipped; line numbers are tracked for error reporting.
//!
//! Lexing borrows the source text and allocates nothing per token:
//! keywords are token kinds of their own, identifiers are interned to
//! dense [`Sym`] ids whose names are slices of the source ([`Names`]), and
//! number literals are parsed in place. Tokens are `Copy`. The token
//! vector is pre-sized from the text's length, and whitespace runs and
//! line comments are skipped in loops of their own; besides that vector,
//! only the symbol table's growth and an error's message allocate. The
//! interner keeps std's keyed hasher, because the text is outside input:
//! with a word-at-a-time multiplicative hash, seeded or not, names that
//! differ only in bits the multiply never carries into the bucket index
//! pile into one probe sequence.

use crate::parser::ParseError;
use std::collections::HashMap;

/// An interned identifier: a dense index into the [`Names`] table of the
/// text it was lexed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

macro_rules! keywords {
    ($($kw:ident = $text:literal,)*) => {
        /// Reserved words of the subset.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // names are the Verilog keywords
        pub enum Kw {
            $($kw,)*
        }

        impl Kw {
            /// Every keyword, in discriminant order.
            const ALL: &'static [Kw] = &[$(Kw::$kw,)*];

            /// The keyword's source text.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Kw::$kw => $text,)*
                }
            }
        }
    };
}

keywords! {
    Module = "module",
    Endmodule = "endmodule",
    Input = "input",
    Output = "output",
    Reg = "reg",
    Wire = "wire",
    Localparam = "localparam",
    Assign = "assign",
    Initial = "initial",
    Always = "always",
    Posedge = "posedge",
    Begin = "begin",
    End = "end",
    If = "if",
    Else = "else",
    Case = "case",
    Endcase = "endcase",
    Default = "default",
}

impl Kw {
    /// The keyword's own symbol: every [`Names`] table interns the
    /// keywords first, in discriminant order, so a keyword that appears
    /// where a name is expected resolves like any identifier.
    pub fn sym(self) -> Sym {
        Sym(self as u32)
    }
}

/// The symbol table of one lexed text: every distinct identifier (and
/// system-task name) once, as a slice of the source.
#[derive(Debug, Clone, Default)]
pub struct Names<'a> {
    names: Vec<&'a str>,
    ids: HashMap<&'a str, Sym>,
}

impl<'a> Names<'a> {
    fn new() -> Names<'a> {
        let mut n = Names { names: Vec::new(), ids: HashMap::new() };
        for kw in Kw::ALL {
            n.intern(kw.as_str());
        }
        n
    }

    fn intern(&mut self, name: &'a str) -> Sym {
        let next = Sym(self.names.len() as u32);
        let sym = *self.ids.entry(name).or_insert(next);
        if sym == next {
            self.names.push(name);
        }
        sym
    }

    /// The symbol of `name`, when the text contains it.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.ids.get(name).copied()
    }

    /// The name of `sym`.
    pub fn name(&self, sym: Sym) -> &'a str {
        self.names[sym.index()]
    }

    /// Number of symbols (every valid [`Sym`] is below this).
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// A lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok {
    /// Identifier.
    Ident(Sym),
    /// Reserved word.
    Kw(Kw),
    /// System identifier such as `$signed` (the symbol names `signed`).
    System(Sym),
    /// Numeric literal.
    Number {
        /// Declared size in bits (`None` for unsized literals).
        size: Option<u32>,
        /// `true` for based literals carrying the `s` flag or for plain
        /// decimal literals (which are signed per IEEE 1364).
        signed: bool,
        /// The value bits (≤ 64 bits in this subset).
        value: u64,
    },
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `?`
    Question,
    /// `@`
    At,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `^`
    Caret,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `&&`
    AmpAmp,
    /// `||`
    PipePipe,
    /// `<`
    Lt,
    /// `<=` (less-equal in expressions, nonblocking assign in statements)
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    AShr,
    /// End of input.
    Eof,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Source line.
    pub line: u32,
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Tokenizes `src` (ending with [`Tok::Eof`]) and returns the symbol table
/// the tokens' [`Sym`]s index.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed literals or unexpected characters,
/// and on a text of 4 GiB or more.
pub fn lex(src: &str) -> Result<(Vec<Spanned>, Names<'_>), ParseError> {
    let b = src.as_bytes();
    // Lines, symbols and the parser's node ids are `u32`s, and no token
    // or node is smaller than a byte.
    if b.len() >= u32::MAX as usize {
        return Err(ParseError {
            msg: format!("text of {} bytes exceeds the 4 GiB cap", b.len()),
            line: 1,
        });
    }
    let mut names = Names::new();
    // The emitted texts average four to five bytes per token.
    let mut out = Vec::with_capacity(b.len() / 4 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        let (tok, len) = match c {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\r') {
                    i += 1;
                }
                continue;
            }
            b'/' if next == Some(b'/') => {
                i += b[i..].iter().position(|&c| c == b'\n').unwrap_or(b.len() - i);
                continue;
            }
            b'/' if next == Some(b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(b.len());
                continue;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let s = i;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
                let sym = names.intern(&src[s..i]);
                let tok = match Kw::ALL.get(sym.index()) {
                    Some(&kw) => Tok::Kw(kw),
                    None => Tok::Ident(sym),
                };
                out.push(Spanned { tok, line });
                continue;
            }
            b'$' => {
                i += 1;
                let s = i;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
                out.push(Spanned { tok: Tok::System(names.intern(&src[s..i])), line });
                continue;
            }
            b'0'..=b'9' | b'\'' => {
                let (tok, ni) = lex_number(src, i, line)?;
                out.push(Spanned { tok, line });
                i = ni;
                continue;
            }
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b'[' => (Tok::LBracket, 1),
            b']' => (Tok::RBracket, 1),
            b'{' => (Tok::LBrace, 1),
            b'}' => (Tok::RBrace, 1),
            b':' => (Tok::Colon, 1),
            b';' => (Tok::Semi, 1),
            b',' => (Tok::Comma, 1),
            b'?' => (Tok::Question, 1),
            b'@' => (Tok::At, 1),
            b'+' => (Tok::Plus, 1),
            b'-' => (Tok::Minus, 1),
            b'*' => (Tok::Star, 1),
            b'/' => (Tok::Slash, 1),
            b'%' => (Tok::Percent, 1),
            b'^' => (Tok::Caret, 1),
            b'~' => (Tok::Tilde, 1),
            b'&' if next == Some(b'&') => (Tok::AmpAmp, 2),
            b'&' => (Tok::Amp, 1),
            b'|' if next == Some(b'|') => (Tok::PipePipe, 2),
            b'|' => (Tok::Pipe, 1),
            b'!' if next == Some(b'=') => (Tok::NotEq, 2),
            b'!' => (Tok::Bang, 1),
            b'=' if next == Some(b'=') => (Tok::EqEq, 2),
            b'=' => (Tok::Assign, 1),
            b'<' if next == Some(b'=') => (Tok::Le, 2),
            b'<' if next == Some(b'<') => (Tok::Shl, 2),
            b'<' => (Tok::Lt, 1),
            b'>' if next == Some(b'=') => (Tok::Ge, 2),
            b'>' if next == Some(b'>') && b.get(i + 2) == Some(&b'>') => (Tok::AShr, 3),
            b'>' if next == Some(b'>') => (Tok::Shr, 2),
            b'>' => (Tok::Gt, 1),
            other => {
                return Err(ParseError {
                    msg: format!("unexpected character `{}`", other as char),
                    line,
                })
            }
        };
        out.push(Spanned { tok, line });
        i += len;
    }
    out.push(Spanned { tok: Tok::Eof, line });
    Ok((out, names))
}

/// Lexes a numeric literal starting at `i`: `123`, `32'd7`, `8'hff`,
/// `4'b1010`, `32'sd10`, `'d0`.
fn lex_number(src: &str, i: usize, line: u32) -> Result<(Tok, usize), ParseError> {
    let b = src.as_bytes();
    let mut j = i;
    let mut size: Option<u64> = None;
    if b[j].is_ascii_digit() {
        let mut v = Some(0u64);
        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
            if b[j] != b'_' {
                v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(b[j] - b'0')));
            }
            j += 1;
        }
        let Some(v) = v else {
            let digits: String = src[i..j].chars().filter(|c| *c != '_').collect();
            return Err(ParseError { msg: format!("bad number `{digits}`"), line });
        };
        if j < b.len() && b[j] == b'\'' {
            size = Some(v);
        } else {
            // Plain decimal literal: signed, unsized (32-bit) per IEEE 1364.
            return Ok((Tok::Number { size: None, signed: true, value: v }, j));
        }
    }
    // Based literal: `'` [s] base digits.
    debug_assert_eq!(b[j], b'\'');
    j += 1;
    let mut signed = false;
    if j < b.len() && (b[j] == b's' || b[j] == b'S') {
        signed = true;
        j += 1;
    }
    if j >= b.len() {
        return Err(ParseError { msg: "truncated based literal".into(), line });
    }
    let radix: u32 = match b[j] {
        b'd' | b'D' => 10,
        b'h' | b'H' => 16,
        b'b' | b'B' => 2,
        b'o' | b'O' => 8,
        other => {
            return Err(ParseError { msg: format!("bad base `{}`", other as char), line });
        }
    };
    j += 1;
    let s = j;
    while j < b.len() && is_ident_byte(b[j]) {
        j += 1;
    }
    let mut value: u64 = 0;
    let mut any = false;
    for &c in &b[s..j] {
        if c == b'_' {
            continue;
        }
        any = true;
        let d = char::from(c).to_digit(radix).ok_or_else(|| ParseError {
            msg: format!("bad digit `{}` for base {radix}", char::from(c)),
            line,
        })?;
        value = value.wrapping_mul(u64::from(radix)).wrapping_add(u64::from(d));
    }
    if !any {
        return Err(ParseError { msg: "based literal without digits".into(), line });
    }
    let size = match size {
        Some(w) if w == 0 || w > 64 => {
            return Err(ParseError { msg: format!("unsupported literal width {w}"), line });
        }
        Some(w) => {
            if w < 64 {
                value &= (1u64 << w) - 1;
            }
            Some(w as u32)
        }
        None => None,
    };
    Ok((Tok::Number { size, signed, value }, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().0.into_iter().map(|s| s.tok).collect()
    }

    fn num(size: Option<u32>, signed: bool, value: u64) -> Tok {
        Tok::Number { size, signed, value }
    }

    #[test]
    fn literals() {
        assert_eq!(
            toks("123 32'd7 8'hff 4'b1010 32'sd10 'd0"),
            vec![
                num(None, true, 123),
                num(Some(32), false, 7),
                num(Some(8), false, 255),
                num(Some(4), false, 10),
                num(Some(32), true, 10),
                num(None, false, 0),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn operators_and_comments() {
        let (spanned, names) = lex("a <= b >>> 2; // comment\n$signed(x) != ~y").unwrap();
        let id = |name| Tok::Ident(names.get(name).unwrap());
        assert_eq!(
            spanned.into_iter().map(|s| s.tok).collect::<Vec<_>>(),
            vec![
                id("a"),
                Tok::Le,
                id("b"),
                Tok::AShr,
                num(None, true, 2),
                Tok::Semi,
                Tok::System(names.get("signed").unwrap()),
                Tok::LParen,
                id("x"),
                Tok::RParen,
                Tok::NotEq,
                Tok::Tilde,
                id("y"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn line_tracking() {
        let (spanned, _) = lex("a\nb\n  c").unwrap();
        assert_eq!(spanned[0].line, 1);
        assert_eq!(spanned[1].line, 2);
        assert_eq!(spanned[2].line, 3);
    }

    #[test]
    fn widths_mask_values() {
        assert_eq!(toks("4'hff")[0], num(Some(4), false, 0xf));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a # b").is_err());
        assert!(lex("3'q0").is_err());
    }
}
