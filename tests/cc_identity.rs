//! Byte-identity of `lbp_cc::lex` and `lbp_cc::parse` across rewrites of
//! the front end, and of lbp-sema's interpreter across its rewrite.
//!
//! The front-end constants are FNV-1a hashes computed at the commit
//! before the lexer became one byte pass over borrowed `Copy` tokens: the
//! token stream (each token's kind, line and column) and the parsed
//! `Unit`, or the error, of the mini-C programs of `tests/identity_corpus`
//! and of tables of odd sources, deep nesting and operator pairs. Any
//! change to what a source lexes or parses to, to an error message or to
//! which error comes first moves one of them. A lexical error is rendered
//! by its line and message: its column is pinned by the lexer's own
//! tests.
//!
//! The interpreter constant was computed at the commit before lbp-sema
//! resolved names ahead of the first step: each program's meaning (its
//! outcome hash, or its trap's class and line) with a step budget small
//! enough that many programs trap on it, which pins every point where a
//! step is charged. The meaning under the default budget is what
//! `lbp-cc --interp` prints, pinned by `tests/golden_cli.rs`.

use std::fmt::Write as _;

// The matmul kernels are assembly: only the corpus's mini-C is used here.
#[allow(dead_code)]
mod identity_corpus;

use identity_corpus::{dir, generated, hash};
use lbp::sema::{InterpOptions, Layout};
use lbp_fuzz::gen::Kind;

/// Everything the first two stages of the front end say about a source.
fn fingerprint_of(name: &str, source: &str) -> String {
    let mut out = format!("{name:?}:\n");
    let tokens = match lbp::cc::lex::lex(source) {
        Ok(tokens) => tokens,
        Err(e) => {
            let _ = writeln!(out, "lex error at line {}: {}", e.line, e.message);
            return out;
        }
    };
    for t in &tokens {
        let _ = writeln!(out, "{:?} {}:{}", t.kind, t.line, t.col);
    }
    let _ = match lbp::cc::parse::parse(tokens) {
        Ok(unit) => writeln!(out, "{unit:?}"),
        Err(e) => writeln!(out, "parse error: {e}"),
    };
    out
}

/// One row per source, named by the source itself.
fn hash_rows(sources: &[String]) -> u64 {
    let rows: identity_corpus::Programs = sources.iter().map(|s| (s.clone(), s.clone())).collect();
    hash(&rows, |_, source| fingerprint_of(source, source))
}

#[test]
fn shipped_sources_lex_and_parse_to_the_pinned_streams() {
    let got = [
        ("crates/lbp-verify/tests/fixtures", ".c"),
        ("examples/c", ".c"),
    ]
    .map(|(path, ext)| {
        let programs = dir(path, ext);
        (programs.len(), hash(&programs, fingerprint_of))
    });
    assert_eq!(
        got,
        [(6, 0x4e35_17dd_7b7f_7274), (4, 0xc6e7_bded_1c2b_8e4c)]
    );
}

#[test]
fn generated_programs_lex_and_parse_to_the_pinned_streams() {
    let programs = generated(Kind::C);
    assert_eq!(
        (programs.len(), hash(&programs, fingerprint_of)),
        (100, 0xa182_9339_dbc3_f408)
    );
}

/// Odd sources, one a row: the lexer's and the parser's edges and the
/// exact text of each refusal.
const ODD_SOURCES: &[&str] = &[
    // Block comments before a token on the same line: a directive still
    // opens after one, and the end of input counts lines through them.
    "/* lead */ #define N 4\nint v[N];\n",
    "void main(void) {\n  int t;\n  /* lead */ #pragma omp parallel for\n  for (t = 0; t < 2; t++) { }\n}\n",
    "/* a\n b */ #define N 3\nint v[N];",
    "int x; /* tail */",
    "int x;\n/* a\n b */",
    "int x;\n/* a\n b */\n",
    "int x;\n  // only a comment",
    "int x; // one\n/* two\nlines */\nint y;",
    // Comments inside `#define` lines.
    "#define N /* size */ 8 // eight\nint v[N];",
    "#define A 1 /* spans\n lines */\nint x = A;",
    "#define B 2 // B\n#define C B /* chained */\nint y = C;",
    "#define D /* spans\n */ 4\n",
    // `(1<<16)` and chained defines.
    "#define SIZE (1<<16)\n#define ALSO SIZE\nint v[ALSO];\nint w[1 << 4];\nint u[2 * 3];",
    "#define N 4\n#define M N\n#define N 5\nint a = N; int b = M;",
    "#define NEG -3\n#define HEX 0x1F\nint a = NEG; int b = HEX;",
    "#define int 7\nvoid main(void) { }",
    "#definefoo 3\nint a = foo;",
    "# define N 2\n  #  include <x.h>\nint v[N];",
    "#define\n",
    "#define X\n",
    "#define X 1 2\n",
    "#define X (1 << 2)\n",
    "#define X Y\n",
    "#define X 1x\n",
    // CRLF line ends and tabs.
    "int x;\r\nvoid main(void) {\r\n\tx = 1;\r\n\treturn;\r\n}\r\n",
    "\tint\ty\t=\t2\t;",
    "int x;\r",
    "int a;\x0b\x0cint b;",
    "#define N 6\r\n#pragma omp section\r\n",
    // Char and hex literals.
    "int a = 'A'; int b = ' '; int c = '''; int d = 0x7fffFFFF; int e = 0XaB;",
    "int a = '/'; int b = '*';",
    "int a = 'ab';",
    "int a = '",
    "int a = 0x;",
    "int a = 12ab;",
    "int a = 1_000;",
    "int a = 99999999999999999999;",
    // An unterminated comment, an unknown pragma and a stray `#`.
    "int x;\n/* never closed\n",
    "/*/",
    "/**",
    "void main(void) {\n#pragma omp simd\n}\n",
    "#pragma omp parallel\n",
    "#pragmaomp parallel for\n",
    "#pragma\n",
    "#include <det_omp.h>\n#unknown thing\n",
    "#\n",
    "int x; #define N 1\n",
    "void main(void) { int x; x = 1 # 2; }",
    "int x = 1 $ 2;",
    "int x = a ? b : c;",
    // Empty and near-empty units.
    "",
    "\n\n",
    "   ",
    // Statements, places and their refusals.
    "int f( { }",
    "int 3;",
    "char c;",
    "void main(void) { x = ; }",
    "void main(void) { 1 = 2; }",
    "void main(void) { 1++; }",
    "void main(void) { &3; }",
    "void main(void) { x = a->b; }",
    "void main(void) { x = -!~*y; y = &x; z = &v[1 + 2]; }",
    "void main(void) { a += 1; b -= 2; c *= 3; d /= 4; e %= 5; f++; g--; h(1, 2, 3); }",
    "void main(void) { int i, *j, k = 2; int buf[4]; int big[1 << 3]; }",
    "void main(void) { int i; for (int j = 0; j < 4; j++) { } for (;;) break; }",
    "void main(void) { int i; for (i = 0, j = 1; i < 4; i++, j--) continue; }",
    "void main(void) { int i; do { i++; } while (i < 9); do i--; while (i); }",
    "void main(void) { do { continue; } while (1); }",
    "void main(void) { if (a) if (b) x = 1; else x = 2; else { } }",
    "void main(void) { { { } } return; }",
    "int f(int a, int *b, int c[], int d[4]) { return a; } int g(void) { return; }",
    "int v[4] = {1, -2, 3}; int w[8] = {[0 ... 7] = 5}; int s = 9, t, u[2];",
    "int u[2] = {[0 ...",
    "int u[2] = {-x};",
    "int u[-1];",
    "int u[4294967296];",
    "int s = x;",
    "void main(void) { int *p; p = (int *)0; *p = 3; p[1] = 4; (p)[2] = 5; q = (lbp_t *)p; }",
    "void main(void) { x = (a * b); y = (int) * p; }",
    "void main(void) {\n#pragma omp parallel sections\n{\n#pragma omp section\n{ }\n#pragma omp section\nf();\n}\n}",
    "void main(void) {\n#pragma omp parallel sections\n{\n}\n}",
    "void main(void) {\n#pragma omp parallel sections\n{\nx = 1;\n}\n}",
    "void main(void) {\n#pragma omp parallel sections\nx;\n}",
    "void main(void) {\n#pragma omp section\n}",
    "void main(void) {\n#pragma omp parallel for\nfor (t = 0; t < 8; t++) { }\n}",
    "void main(void) {\n#pragma omp parallel for\nfor (int t = 0; t < 8; t = t + 1) f(t);\n}",
    "void main(void) {\n#pragma omp parallel for\nfor (t = 1; t < 2; t++) { }\n}",
    "void main(void) {\n#pragma omp parallel for\nfor (t = 0; t <= 2; t++) { }\n}",
    "void main(void) {\n#pragma omp parallel for\nfor (t = 0; t < 2; t += 2) { }\n}",
    "void main(void) {\n#pragma omp parallel for\nfor (t = 0; t < 0; t++) { }\n}",
    "void main(void) {\n#pragma omp parallel for\nwhile (1) { }\n}",
    "void main(void) { x = 1;",
    "void main(void) { if (x) ",
];

#[test]
fn odd_sources_lex_and_parse_to_the_pinned_streams() {
    let sources: Vec<String> = ODD_SOURCES.iter().map(|s| (*s).to_owned()).collect();
    assert_eq!(hash_rows(&sources), 0x2e7e_48da_139e_58b6);
}

/// Nesting at and past the parser's bound: parentheses, unary chains,
/// blocks and operator chains, each at `MAX_NEST` and around it.
#[test]
fn deep_nesting_parses_to_the_pinned_trees_or_errors() {
    let main = |body: String| format!("void main(void) {{ {body} }}");
    let mut sources = Vec::new();
    for n in [62, 63, 64, 65] {
        sources.push(main(format!("return {}1{};", "(".repeat(n), ")".repeat(n))));
        sources.push(main(format!("return {}1;", "~".repeat(n))));
        sources.push(main(format!("{}{}", "{".repeat(n), "}".repeat(n))));
        sources.push(main(format!("return {};", vec!["1"; n].join("+"))));
        sources.push(main(format!("return {};", vec!["x"; n].join(" * 2 << "))));
        sources.push(main(format!(
            "x = {}0{};",
            "f(".repeat(n / 2),
            ")".repeat(n / 2)
        )));
        sources.push(main(format!(
            "x = {}1{};",
            "v[".repeat(n / 2),
            "]".repeat(n / 2)
        )));
    }
    assert_eq!(hash_rows(&sources), 0xba80_4935_354d_df9b);
}

/// `a OP1 b OP2 c` for every ordered pair of binary operators: the tree
/// says which binds tighter and that each tier folds to the left.
#[test]
fn every_pair_of_binary_operators_parses_to_the_pinned_trees() {
    const OPS: [&str; 18] = [
        "||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=", "<<", ">>", "+", "-", "*",
        "/", "%",
    ];
    let mut sources = Vec::new();
    for a in OPS {
        for b in OPS {
            sources.push(format!("void main(void) {{ x = p {a} q {b} r; }}"));
        }
    }
    assert_eq!(sources.len(), 324);
    assert_eq!(hash_rows(&sources), 0x8c74_4af0_63e3_856f);
}

/// What lbp-sema says a source means: the outcome's hash, or the trap's
/// class and line.
fn meaning(source: &str, budget: u64) -> String {
    let cx = match lbp::cc::front_end(source) {
        Ok(cx) => cx,
        Err(e) => return format!("front end: {e}"),
    };
    let opts = InterpOptions {
        budget,
        ..InterpOptions::default()
    };
    match lbp::sema::interp::run(&cx, &Layout::synthetic(&cx), &opts) {
        Ok(outcome) => format!("{:016x}", outcome.content_hash()),
        Err(trap) => format!("trap:{}:{}", trap.class, trap.line),
    }
}

#[test]
fn the_interpreter_gives_every_program_its_pinned_meaning() {
    let mut programs = dir("crates/lbp-verify/tests/fixtures", ".c");
    programs.extend(dir("examples/c", ".c"));
    programs.extend(generated(Kind::C));
    // These fixtures' team members overlap on a shared word. Before the
    // join checked for that they had an outcome, which the pin below was
    // computed with; they trap on `conflict` now, and are left out.
    let racy = ["race_carried.c", "race_const_index.c", "race_scalar.c"];
    programs.retain(|(name, _)| !racy.contains(&name.as_str()));
    assert_eq!(programs.len(), 107);
    let got = hash(&programs, |name, source| {
        format!("{name}: {}\n", meaning(source, 2_000))
    });
    assert_eq!(got, 0xe1c0_dccd_0b65_3289);
}
