//! Lexer for the mini-C subset, including a tiny preprocessor for
//! `#define` object macros, `#include` (recognized and skipped) and
//! `#pragma omp` lines (turned into tokens for the parser).
//!
//! One pass over the source bytes. Comments are skipped where they stand
//! and separate tokens as a space does (C11 §5.1.1.2, phase 3), so every
//! position is the raw source's. Tokens are `Copy`: identifiers borrow
//! their text from the source.

use std::collections::HashMap;
use std::fmt;

use crate::CcError;

/// A lexical token with its 1-based source line and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'src> {
    /// The token kind/payload.
    pub kind: Tok<'src>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (in bytes) of the token's first character
    /// (0 for tokens without a concrete column, e.g. pragma lines and
    /// EOF).
    pub col: usize,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'src> {
    /// Identifier or keyword.
    Ident(&'src str),
    /// Integer literal (decimal, hex `0x`, or character constant).
    Int(i64),
    /// A punctuation or operator symbol, e.g. `"+"`, `"<<="`-free subset.
    Sym(&'src str),
    /// `#pragma omp parallel for`.
    PragmaParallelFor,
    /// `#pragma omp parallel sections`.
    PragmaParallelSections,
    /// `#pragma omp section`.
    PragmaSection,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Sym(s) => write!(f, "`{s}`"),
            Tok::PragmaParallelFor => write!(f, "`#pragma omp parallel for`"),
            Tok::PragmaParallelSections => write!(f, "`#pragma omp parallel sections`"),
            Tok::PragmaSection => write!(f, "`#pragma omp section`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// The values `li` loads: a signed or an unsigned word. A `#define`
/// value or an integer literal outside it is refused where it stands.
pub(crate) const LI_RANGE: std::ops::RangeInclusive<i64> = i32::MIN as i64..=u32::MAX as i64;

/// Lexes a full translation unit.
///
/// # Errors
///
/// Returns a [`CcError`] for unterminated comments, bad numbers, unknown
/// characters or malformed preprocessor lines.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, CcError> {
    let mut lexer = Lexer {
        src: source,
        pos: 0,
        line: 1,
        line_start: 0,
        fresh: true,
        blank: true,
        defines: HashMap::new(),
        tokens: Vec::with_capacity(source.len() / 4),
    };
    lexer.run()?;
    // The end of input is on the line after the last, where a last line
    // of nothing but comments does not count.
    let line = lexer.line + usize::from(!lexer.blank);
    lexer.tokens.push(Token {
        kind: Tok::Eof,
        line,
        col: 0,
    });
    Ok(lexer.tokens)
}

struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next unread byte.
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
    /// Byte offset of that line's first byte.
    line_start: usize,
    /// No token yet on this line, so a `#` opens a directive.
    fresh: bool,
    /// Nothing but comments since the last line break.
    blank: bool,
    defines: HashMap<&'src str, i64>,
    tokens: Vec<Token<'src>>,
}

/// The bytes below 0x80 that `char::is_whitespace` accepts, less the
/// line break. A byte of a non-ASCII character is never a space.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c')
}

impl<'src> Lexer<'src> {
    fn run(&mut self) -> Result<(), CcError> {
        let src = self.src;
        let bytes = src.as_bytes();
        // The end of the run from `from` of bytes that satisfy `keep`.
        let scan = |from: usize, keep: fn(u8) -> bool| {
            from + bytes[from..].iter().take_while(|&&b| keep(b)).count()
        };
        while let Some(&b) = bytes.get(self.pos) {
            let start = self.pos;
            let next = bytes.get(start + 1).copied().unwrap_or(0);
            match b {
                b'\n' => self.newline(start),
                _ if is_space(b) => {
                    self.pos += 1;
                    self.blank = false;
                }
                b'/' if next == b'*' => self.block_comment()?,
                b'/' if next == b'/' => self.pos = scan(start, |b| b != b'\n'),
                b'#' if self.fresh => self.directive()?,
                b'0'..=b'9' => {
                    self.pos = scan(start + 1, |b| b.is_ascii_alphanumeric());
                    let text = &src[start..self.pos];
                    let v = parse_int(text)
                        .ok_or_else(|| self.err(start, format!("bad number `{text}`")))?;
                    self.push(Tok::Int(v), start);
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    self.pos = scan(start + 1, |b| b.is_ascii_alphanumeric() || b == b'_');
                    let word = &src[start..self.pos];
                    let define = if self.defines.is_empty() {
                        None
                    } else {
                        self.defines.get(word)
                    };
                    let kind = define.map_or(Tok::Ident(word), |&v| Tok::Int(v));
                    self.push(kind, start);
                }
                b'\'' => match bytes.get(start + 1..start + 3) {
                    Some(&[c, b'\'']) if c != b'\n' => {
                        self.pos += 3;
                        self.push(Tok::Int(i64::from(c)), start);
                    }
                    _ => return Err(self.err(start, "bad character constant")),
                },
                _ => {
                    let len = symbol_len(b, next).ok_or_else(|| {
                        let c = src[start..].chars().next().unwrap_or_default();
                        self.err(start, format!("unexpected character `{c}`"))
                    })?;
                    self.pos += len;
                    self.push(Tok::Sym(&src[start..self.pos]), start);
                }
            }
        }
        Ok(())
    }

    fn push(&mut self, kind: Tok<'src>, start: usize) {
        let col = start - self.line_start + 1;
        self.tokens.push(Token {
            kind,
            line: self.line,
            col,
        });
        self.fresh = false;
        self.blank = false;
    }

    fn err(&self, at: usize, message: impl Into<String>) -> CcError {
        CcError::at(self.line, at - self.line_start + 1, message)
    }

    /// Moves past the line break at `at`.
    fn newline(&mut self, at: usize) {
        self.pos = at + 1;
        self.line += 1;
        self.line_start = self.pos;
        self.fresh = true;
        self.blank = true;
    }

    /// Skips the `/* */` comment at `pos`, counting its line breaks.
    fn block_comment(&mut self) -> Result<(), CcError> {
        let bytes = self.src.as_bytes();
        let (line, col) = (self.line, self.pos - self.line_start + 1);
        let mut j = self.pos + 2;
        loop {
            match bytes.get(j) {
                None => return Err(CcError::at(line, col, "unterminated /* comment")),
                Some(b'*') if bytes.get(j + 1) == Some(&b'/') => break,
                Some(b'\n') => self.newline(j),
                Some(_) => {}
            }
            j += 1;
        }
        self.pos = j + 2;
        Ok(())
    }

    /// The `#` line at `pos`: `#define NAME value`, `#include …`
    /// (skipped) or one of the three `#pragma omp` forms. It ends where
    /// its line does — at a line break, a `//` or a `/*` that closes on
    /// a later line — and a comment that closes on it separates words.
    fn directive(&mut self) -> Result<(), CcError> {
        let src = self.src;
        let bytes = src.as_bytes();
        let line = self.line;
        self.blank = false;
        self.pos += 1;
        let text_start = self.pos;
        let opens_comment = |at: usize| matches!(bytes[at..], [b'/', b'*' | b'/', ..]);
        let mut words = Vec::new();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'\n' || bytes[self.pos..].starts_with(b"//") {
                break;
            }
            if is_space(b) {
                self.pos += 1;
            } else if bytes[self.pos..].starts_with(b"/*") {
                let body = &src[self.pos + 2..];
                let line_end = body.find('\n').unwrap_or(body.len());
                match body[..line_end].find("*/") {
                    Some(close) => self.pos += 2 + close + 2,
                    // It closes on a later line, or never: the main
                    // loop reads it.
                    None => break,
                }
            } else {
                let start = self.pos;
                while self.pos < bytes.len()
                    && !is_space(bytes[self.pos])
                    && bytes[self.pos] != b'\n'
                    && !opens_comment(self.pos)
                {
                    self.pos += 1;
                }
                words.push(&src[start..self.pos]);
            }
        }
        let text = src[text_start..self.pos].trim_matches(|c| u8::try_from(c).is_ok_and(is_space));
        // A keyword may be glued to what follows it: `#definefoo 1`
        // defines `foo`.
        let head = words.first().copied().unwrap_or("");
        let args = |keyword: &str| {
            let glued = &head[keyword.len()..];
            (!glued.is_empty())
                .then_some(glued)
                .into_iter()
                .chain(words.iter().skip(1).copied())
        };
        if head.starts_with("define") {
            let mut parts = args("define");
            let name = parts
                .next()
                .ok_or_else(|| CcError::new(line, "#define needs a name"))?;
            let value_text = parts.next().unwrap_or("");
            if parts.next().is_some() {
                return Err(CcError::new(
                    line,
                    "only simple `#define NAME value` object macros are supported",
                ));
            }
            let value = match self.defines.get(value_text) {
                Some(&prev) => prev,
                None => parse_int(value_text).ok_or_else(|| {
                    CcError::new(line, format!("bad #define value `{value_text}`"))
                })?,
            };
            if !LI_RANGE.contains(&value) {
                // The value is a word of the source, so its offset is
                // where it starts.
                let at = value_text.as_ptr() as usize - src.as_ptr() as usize;
                let message = format!("#define value `{value_text}` exceeds 32 bits");
                return Err(self.err(at, message));
            }
            self.defines.insert(name, value);
            return Ok(());
        }
        if head.starts_with("include") {
            // The paper's programs include <det_omp.h>; the runtime is
            // provided by the compiler itself, so includes are no-ops.
            return Ok(());
        }
        if head.starts_with("pragma") {
            let kind = match *args("pragma").collect::<Vec<_>>() {
                ["omp", "parallel", "for"] => Tok::PragmaParallelFor,
                ["omp", "parallel", "sections"] => Tok::PragmaParallelSections,
                ["omp", "section"] => Tok::PragmaSection,
                _ => return Err(CcError::new(line, format!("unsupported pragma `#{text}`"))),
            };
            self.tokens.push(Token { kind, line, col: 0 });
            return Ok(());
        }
        Err(CcError::new(
            line,
            format!("unsupported directive `#{text}`"),
        ))
    }
}

fn parse_int(text: &str) -> Option<i64> {
    let (neg, t) = match text.strip_prefix('-') {
        Some(t) => (true, t),
        None => (false, text),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else if t.starts_with('(') && t.ends_with(')') {
        // Allow the paper's `#define SIZE (1<<16)` style.
        return parse_shift_expr(&t[1..t.len() - 1]);
    } else {
        t.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_shift_expr(t: &str) -> Option<i64> {
    if let Some((a, b)) = t.split_once("<<") {
        let (a, b) = (a.parse::<i64>().ok()?, b.parse::<u32>().ok()?);
        // A shift that loses bits is no number.
        return a.checked_shl(b).filter(|v| v >> b == a);
    }
    t.parse().ok()
}

/// The length of the punctuation that starts with `b`, given the byte
/// after it: maximal munch over the subset's two-byte operators (no
/// `<<=`, `&=` or `|=`).
fn symbol_len(b: u8, next: u8) -> Option<usize> {
    match [b, next] {
        [b'<', b'<' | b'='] | [b'>', b'>' | b'='] | [b'=' | b'!', b'='] => Some(2),
        [b'&', b'&'] | [b'|', b'|'] | [b'+', b'+' | b'='] | [b'-', b'-' | b'=' | b'>'] => Some(2),
        [b'*' | b'/' | b'%', b'='] => Some(2),
        // `.` only appears inside `[0 ... N-1]` designated initializers,
        // which the parser skips.
        [b'+' | b'-' | b'*' | b'/' | b'%' | b'<' | b'>' | b'=' | b'!' | b'&' | b'|', _] => Some(1),
        [b'^' | b'~' | b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b';' | b'.', _] => Some(1),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn err(src: &str) -> (usize, usize, String) {
        let e = lex(src).unwrap_err();
        (e.line, e.col, e.message)
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                Tok::Ident("int"),
                Tok::Ident("x"),
                Tok::Sym("="),
                Tok::Int(42),
                Tok::Sym(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn maximal_munch() {
        assert_eq!(
            kinds("a <<= 1")[1..3],
            [Tok::Sym("<<"), Tok::Sym("=")] // no <<= in the subset
        );
        assert_eq!(kinds("a<=b")[1], Tok::Sym("<="));
        assert_eq!(kinds("a < =b")[1], Tok::Sym("<"));
        assert_eq!(
            kinds("a->b--c")[1..4],
            [Tok::Sym("->"), Tok::Ident("b"), Tok::Sym("--")]
        );
    }

    #[test]
    fn defines_substitute() {
        let t = kinds("#define N 8\nint v[N];");
        assert!(t.contains(&Tok::Int(8)));
        // Chained defines.
        let t = kinds("#define A 4\n#define B A\nint x = B;");
        assert!(t.contains(&Tok::Int(4)));
        // Comments inside a define line are spaces; one at the start of
        // the line still leaves it a directive.
        let t = kinds("/* c */ #define /* n */ N /* v */ 9 // end\nN");
        assert_eq!(t, [Tok::Int(9), Tok::Eof]);
    }

    #[test]
    fn define_with_shift() {
        let t = kinds("#define SIZE (1<<16)\nint v[SIZE];");
        assert!(t.contains(&Tok::Int(65536)));
    }

    #[test]
    fn pragmas_become_tokens() {
        let t = kinds("#pragma omp parallel for\nfor");
        assert_eq!(t[0], Tok::PragmaParallelFor);
        let t = kinds("#pragma omp parallel sections\n#pragma omp section");
        assert_eq!(t[0], Tok::PragmaParallelSections);
        assert_eq!(t[1], Tok::PragmaSection);
    }

    #[test]
    fn includes_are_skipped() {
        assert_eq!(kinds("#include <det_omp.h>\nint x;").len(), 4);
    }

    #[test]
    fn comments_stripped_lines_kept() {
        let toks = lex("int a; // one\n/* two\nlines */ int b;").unwrap();
        let b = toks.iter().find(|t| t.kind == Tok::Ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn tokens_carry_columns() {
        let toks = lex("  int x = 42;").unwrap();
        assert_eq!(toks[0].col, 3); // `int`
        assert_eq!(toks[1].col, 7); // `x`
        assert_eq!(toks[2].col, 9); // `=`
        assert_eq!(toks[3].col, 11); // `42`
    }

    #[test]
    fn a_block_comment_is_a_space_between_tokens() {
        let toks = lex("    a/**/b = 7;").unwrap();
        assert_eq!(
            toks[..2]
                .iter()
                .map(|t| (t.kind, t.col))
                .collect::<Vec<_>>(),
            [(Tok::Ident("a"), 5), (Tok::Ident("b"), 10)]
        );
        let src = "int a;\nint b;\nvoid main(void) {\n    a/**/b = 7;\n}\n";
        let e = crate::compile(src).unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (4, 10, "expected `;`, found `b`")
        );
    }

    #[test]
    fn columns_after_a_comment_count_the_comment() {
        let toks = lex("    x = 1 /* one */ 2;").unwrap();
        assert_eq!((toks[3].kind, toks[3].col), (Tok::Int(2), 21));
        let src = "void main(void) {\n    int x;\n    x = 1 /* one */ 2;\n}\n";
        let e = crate::compile(src).unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (3, 21, "expected `;`, found `2`")
        );
    }

    #[test]
    fn columns_on_the_closing_line_of_a_comment_are_the_raw_ones() {
        let src = "void main(void) {\n  int x;\n  /* a\n  b */ x = 1 2;\n}\n";
        let x = lex(src)
            .unwrap()
            .into_iter()
            .find(|t| t.kind == Tok::Ident("x") && t.line == 4);
        assert_eq!(x.map(|t| t.col), Some(8));
        let e = crate::compile(src).unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (4, 14, "expected `;`, found `2`")
        );
    }

    #[test]
    fn lexical_errors_name_the_character_and_its_column() {
        assert_eq!(err("x = 1 é 2;"), (1, 7, "unexpected character `é`".into()));
        assert_eq!(
            err("int y;\n  x = $;"),
            (2, 7, "unexpected character `$`".into())
        );
        assert_eq!(err("x = 12ab;"), (1, 5, "bad number `12ab`".into()));
        assert_eq!(err("\tx = 'ab';"), (1, 6, "bad character constant".into()));
        assert_eq!(err("x; # y"), (1, 4, "unexpected character `#`".into()));
    }

    #[test]
    fn define_values_past_a_word_are_refused_where_they_stand() {
        let wide = |v: &str| format!("#define value `{v}` exceeds 32 bits");
        assert_eq!(err("#define N (1<<40)\nint g;"), (1, 11, wide("(1<<40)")));
        assert_eq!(
            err("int g;\n#define N 5000000000"),
            (2, 11, wide("5000000000"))
        );
        assert_eq!(err("#defineN 0x100000000"), (1, 10, wide("0x100000000")));
        assert_eq!(err("#define N -2147483649"), (1, 11, wide("-2147483649")));
        // A shift that loses bits is no number, and never a panic.
        assert_eq!(
            err("#define N (1<<70)"),
            (1, 0, "bad #define value `(1<<70)`".into())
        );
        // The edges of `li`: a signed and an unsigned word.
        let int = |src| kinds(src)[0];
        assert_eq!(int("#define M -2147483648\nM"), Tok::Int(i32::MIN as i64));
        assert_eq!(int("#define K 0xffffffff\nK"), Tok::Int(u32::MAX as i64));
        assert_eq!(int("#define K (1<<31)\nK"), Tok::Int(1 << 31));
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(lex("/* nope").is_err());
        // The error carries the line and column of its `/*`, whatever
        // came before.
        let e = err("int x; // a\n/* b\n*/ int y;\n\n  /* nope\n\n");
        assert_eq!(e, (5, 3, "unterminated /* comment".into()));
        // A define line's comment that closes on a later line ends the
        // directive and is read as any other.
        assert_eq!(
            err("#define N 4 /* a\n"),
            (1, 13, "unterminated /* comment".into())
        );
        assert_eq!(kinds("#define N 4 /* a\n */ N"), [Tok::Int(4), Tok::Eof]);
    }

    #[test]
    fn two_hundred_thousand_block_comments_lex_in_linear_time() {
        let mut src = "/**/\n".repeat(200_000);
        let started = std::time::Instant::now();
        assert_eq!(lex(&src).unwrap().last().unwrap().line, 200_001);
        src.push_str("/*");
        assert_eq!(lex(&src).unwrap_err().line, 200_001);
        let took = started.elapsed();
        assert!(took.as_secs() < 2, "took {took:?}");
    }

    #[test]
    fn the_end_of_input_is_past_the_last_line_unless_it_holds_only_comments() {
        let eof_line = |src: &str| lex(src).unwrap().last().unwrap().line;
        assert_eq!(eof_line(""), 1);
        assert_eq!(eof_line("x"), 2);
        assert_eq!(eof_line("x\n"), 2);
        assert_eq!(eof_line("x\n  "), 3);
        assert_eq!(eof_line("x\n// c"), 2);
        assert_eq!(eof_line("x\n/* a\n b */"), 3);
        assert_eq!(eof_line("x\r\n"), 2);
    }

    #[test]
    fn hex_and_char_literals() {
        assert!(kinds("0xff").contains(&Tok::Int(255)));
        assert!(kinds("'A'").contains(&Tok::Int(65)));
    }
}
