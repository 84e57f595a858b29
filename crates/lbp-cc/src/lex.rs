//! Lexer for the mini-C subset, including a tiny preprocessor for
//! `#define` object macros, `#include` (recognized and skipped) and
//! `#pragma omp` lines (turned into tokens for the parser).

use std::collections::HashMap;
use std::fmt;

use crate::CcError;

/// A lexical token with its 1-based source line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: Tok,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column of the token's first character (0 for
    /// tokens without a concrete column, e.g. pragma lines and EOF).
    pub col: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal (decimal, hex `0x`, or character constant).
    Int(i64),
    /// A punctuation or operator symbol, e.g. `"+"`, `"<<="`-free subset.
    Sym(&'static str),
    /// `#pragma omp parallel for`.
    PragmaParallelFor,
    /// `#pragma omp parallel sections`.
    PragmaParallelSections,
    /// `#pragma omp section`.
    PragmaSection,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
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

/// Multi-character symbols, longest first so maximal munch works.
const SYMBOLS: [&str; 34] = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "++", "--", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~", "(", ")", "{", "}", ",",
];
// Note: `[`, `]`, `;` handled below (kept out of the array to stay at 34).

/// Lexes a full translation unit.
///
/// # Errors
///
/// Returns a [`CcError`] for unterminated comments, bad numbers, unknown
/// characters or malformed preprocessor lines.
pub fn lex(source: &str) -> Result<Vec<Token>, CcError> {
    let without_comments = strip_comments(source)?;
    let mut defines: HashMap<String, i64> = HashMap::new();
    let mut tokens = Vec::new();
    for (idx, raw_line) in without_comments.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if let Some(rest) = line.strip_prefix('#') {
            lex_preprocessor(rest.trim(), line_no, &mut defines, &mut tokens)?;
            continue;
        }
        // Columns are relative to the untrimmed line.
        let col0 = raw_line.len() - raw_line.trim_start().len();
        lex_line(line, line_no, col0, &defines, &mut tokens)?;
    }
    tokens.push(Token {
        kind: Tok::Eof,
        line: without_comments.lines().count() + 1,
        col: 0,
    });
    Ok(tokens)
}

/// Removes `/* */` and `//` comments, preserving line structure.
fn strip_comments(source: &str) -> Result<String, CcError> {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let mut j = i + 2;
            loop {
                if j + 1 >= bytes.len() {
                    // Counted here, on the one path that needs it: counted
                    // at every `/*`, many comments made lexing quadratic.
                    let start_line = bytes[..i].iter().filter(|&&b| b == b'\n').count() + 1;
                    return Err(CcError::new(start_line, "unterminated /* comment"));
                }
                if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                    break;
                }
                if bytes[j] == b'\n' {
                    out.push('\n'); // keep line numbers aligned
                }
                j += 1;
            }
            i = j + 2;
        } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    Ok(out)
}

fn lex_preprocessor(
    rest: &str,
    line: usize,
    defines: &mut HashMap<String, i64>,
    tokens: &mut Vec<Token>,
) -> Result<(), CcError> {
    if let Some(def) = rest.strip_prefix("define") {
        let mut parts = def.split_whitespace();
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
        let value = if let Some(prev) = defines.get(value_text) {
            *prev
        } else {
            parse_int(value_text)
                .ok_or_else(|| CcError::new(line, format!("bad #define value `{value_text}`")))?
        };
        defines.insert(name.to_owned(), value);
        return Ok(());
    }
    if rest.starts_with("include") {
        // The paper's programs include <det_omp.h>; the runtime is
        // provided by the compiler itself, so includes are no-ops.
        return Ok(());
    }
    if let Some(p) = rest.strip_prefix("pragma") {
        let words: Vec<&str> = p.split_whitespace().collect();
        let kind = match words.as_slice() {
            ["omp", "parallel", "for"] => Tok::PragmaParallelFor,
            ["omp", "parallel", "sections"] => Tok::PragmaParallelSections,
            ["omp", "section"] => Tok::PragmaSection,
            _ => return Err(CcError::new(line, format!("unsupported pragma `#{rest}`"))),
        };
        tokens.push(Token { kind, line, col: 0 });
        return Ok(());
    }
    Err(CcError::new(
        line,
        format!("unsupported directive `#{rest}`"),
    ))
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
        return Some(a.trim().parse::<i64>().ok()? << b.trim().parse::<i64>().ok()?);
    }
    t.trim().parse().ok()
}

fn lex_line(
    line: &str,
    line_no: usize,
    col0: usize,
    defines: &HashMap<String, i64>,
    tokens: &mut Vec<Token>,
) -> Result<(), CcError> {
    let bytes = line.as_bytes();
    let mut i = 0;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let col = col0 + i + 1;
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_alphanumeric() {
                i += 1;
            }
            let text = &line[start..i];
            let v = parse_int(text)
                .ok_or_else(|| CcError::new(line_no, format!("bad number `{text}`")))?;
            tokens.push(Token {
                kind: Tok::Int(v),
                line: line_no,
                col,
            });
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let word = &line[start..i];
            if let Some(&v) = defines.get(word) {
                tokens.push(Token {
                    kind: Tok::Int(v),
                    line: line_no,
                    col,
                });
            } else {
                tokens.push(Token {
                    kind: Tok::Ident(word.to_owned()),
                    line: line_no,
                    col,
                });
            }
            continue;
        }
        if c == '\'' {
            // Character constant.
            if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                tokens.push(Token {
                    kind: Tok::Int(bytes[i + 1] as i64),
                    line: line_no,
                    col,
                });
                i += 3;
                continue;
            }
            return Err(CcError::new(line_no, "bad character constant"));
        }
        for sym in ["[", "]", ";", "."] {
            if line[i..].starts_with(sym) {
                tokens.push(Token {
                    kind: Tok::Sym(match sym {
                        "[" => "[",
                        "]" => "]",
                        ";" => ";",
                        // Only appears inside `[0 ... N-1]` designated
                        // initializers, which the parser skips.
                        _ => ".",
                    }),
                    line: line_no,
                    col,
                });
                i += 1;
                continue 'outer;
            }
        }
        for sym in SYMBOLS {
            if line[i..].starts_with(sym) {
                tokens.push(Token {
                    kind: Tok::Sym(sym),
                    line: line_no,
                    col,
                });
                i += sym.len();
                continue 'outer;
            }
        }
        return Err(CcError::new(line_no, format!("unexpected character `{c}`")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                Tok::Ident("int".into()),
                Tok::Ident("x".into()),
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
    }

    #[test]
    fn defines_substitute() {
        let t = kinds("#define N 8\nint v[N];");
        assert!(t.contains(&Tok::Int(8)));
        // Chained defines.
        let t = kinds("#define A 4\n#define B A\nint x = B;");
        assert!(t.contains(&Tok::Int(4)));
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
        let b = toks
            .iter()
            .find(|t| t.kind == Tok::Ident("b".into()))
            .unwrap();
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
    fn unterminated_comment_is_an_error() {
        assert!(lex("/* nope").is_err());
        // The error carries the line of its `/*`, whatever came before.
        let e = lex("int x; // a\n/* b\n*/ int y;\n\n  /* nope\n\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (5, "unterminated /* comment"));
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
    fn hex_and_char_literals() {
        assert!(kinds("0xff").contains(&Tok::Int(255)));
        assert!(kinds("'A'").contains(&Tok::Int(65)));
    }
}
