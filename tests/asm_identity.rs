//! Byte-identity of `lbp_asm::parse_program` and `assemble` across
//! rewrites of the line scanner.
//!
//! The constants below are FNV-1a hashes computed at the commit before
//! the parser became a byte scanner with one mnemonic table: the parsed
//! items and the assembled image (text, data, name-sorted symbols, line
//! table, entry) of the 431 programs of `tests/identity_corpus`, or the
//! error text of the ones that do not build; and the items or error text
//! of a table of malformed and odd lines. Any change
//! to what a line parses to, to an error message or to which error comes
//! first moves one of them.

use std::fmt::Write as _;

mod identity_corpus;

use identity_corpus::{dir, generated, hash, matmul_kernels};
use lbp_fuzz::gen::Kind;

/// Everything the assembler says about a source: the items its text
/// parses to and the image they assemble to, or how it failed to build.
fn fingerprint_of(name: &str, source: &str) -> String {
    let kind = lbp::cc::SourceKind::of(name);
    let built = match lbp::cc::build(kind, source, &lbp::cc::CcOptions::default()) {
        Ok(built) => built,
        Err(e) => return format!("{name}: unbuilt: {e}\n"),
    };
    let items = lbp::asm::parse_program(&built.asm).expect("assembled, so it parses");
    let image = &built.image;
    let mut symbols: Vec<(&String, &u32)> = image.symbols.iter().collect();
    symbols.sort();
    let mut out = format!("{name}: {items:?}\n");
    let _ = writeln!(
        out,
        "text {:x?}\ndata {:x?}\nsymbols {symbols:x?}\nlines {:?}\nentry {:#x}",
        image.text, image.data, image.lines, image.entry
    );
    out
}

#[test]
fn shipped_sources_assemble_to_the_pinned_bytes() {
    let got = [
        ("crates/lbp-verify/tests/fixtures", ".s"),
        ("examples/asm", ".s"),
        ("examples/c", ".c"),
    ]
    .map(|(path, ext)| {
        let programs = dir(path, ext);
        (programs.len(), hash(&programs, fingerprint_of))
    });
    assert_eq!(
        got,
        [
            (14, 0xc95c_bb9f_6baf_c2e0),
            (3, 0x67b3_fe51_e8d0_3f28),
            (4, 0xd34e_6e1d_94a7_d44b)
        ]
    );
}

#[test]
fn matmul_kernels_assemble_to_the_pinned_bytes() {
    assert_eq!(
        hash(&matmul_kernels(), fingerprint_of),
        0x1641_6f26_a510_c9f7
    );
}

/// 100 programs of each generator family at seed 42, one hash a family.
#[test]
fn generated_programs_assemble_to_the_pinned_bytes() {
    let got = [Kind::C, Kind::Seq, Kind::Mem, Kind::Fork]
        .map(|kind| (kind.name(), hash(&generated(kind), fingerprint_of)));
    assert_eq!(
        got,
        [
            ("c", 0x2c87_3180_9a3d_fbcc),
            ("seq", 0x3f60_c1a1_0dbb_592d),
            ("mem", 0x126d_a296_27f5_46e7),
            ("fork", 0xbbb2_d7a3_fc45_aa05)
        ]
    );
}

/// Malformed and odd sources, one a row: what the scanner accepts at its
/// edges and the exact text of each refusal.
const ODD_LINES: &[&str] = &[
    // Wrong arity: the message carries the true operand count.
    "add a0, a1",
    "add a0, a1, a2, a3, a4, a5",
    "beq a0, a1",
    "bgt a0, a1, a2, a3",
    "beqz a0",
    "lw a0",
    "sw a0, 0(sp), a1",
    "addi a0, a1",
    "nop a0",
    "ret ra",
    "p_syncm a0",
    "jal",
    "jal a0, b, c",
    "jalr",
    "p_set",
    "p_set a0, a1, a2",
    "p_ret a0",
    "li a0",
    "mv a0, a1, a2",
    "add a0, a1,",
    "add ,,",
    "lui a0, %hi(a, b)",
    // Which bad operand is named first is part of the contract.
    "beq q0, q1, 1+",
    "bgt q0, q1, L",
    "blez q0, 1+",
    "lw q0, 4(q1)",
    "sw q0, 4(q1)",
    "addi q0, q1, 1+",
    "add q0, q1, q2",
    "lui q0, 1+",
    "jal q0, 1+",
    "jalr q0, 4(q1)",
    "li q0, 1+",
    "la q0, 1+",
    "p_swcv q0, q1, 0",
    "p_swre q0, q1, 1+",
    "p_jal q0, q1, 1+",
    "p_jalr q0, q1, q2",
    "p_ret q0, q1",
    // Memory operands.
    "lw a0, 4(sp",
    "lw a0, 4",
    "lw a0, (sp)",
    "lw a0, sym+4(sp)",
    "lw a0, 4 ( sp )",
    "lw a0, 4(sp)(a0)",
    "jalr a0, 8(t0)",
    // Literals.
    "li a0, 1_000",
    "li a0, 0x",
    "li a0, 0x_",
    "li a0, _1",
    "li a0, - 5",
    "li a0, -5",
    "li a0, +5",
    "li a0, 12345678901234567890",
    "li a0, 9223372036854775807",
    "li a0, 4294967295",
    "li a0, 4294967296",
    "li a0, 0b102",
    "li a0, 0XfF",
    "li a0, 08",
    "li a0, 1 2",
    "li a0, 1+",
    "li a0, a.b_c+4-2",
    "li a0, .L0",
    "li a0, sym x",
    "li a0, %hi(x)",
    "li a0, %up(x)",
    "li a0, é",
    "li a0, 1é",
    "li a0, xé",
    // Register names.
    "mv a0, x07",
    "mv a0, a8",
    "mv a0, t7",
    "mv a0, s12",
    "mv a0, x32",
    "mv a0, fp",
    "mv a0, x31",
    "mv a0, x+5",
    "mv a0, A0",
    "mv a0, zero",
    "mv a0, zer",
    "mv a0, ",
    "mv a0, s1 1",
    // Directives.
    ".word 1,,2",
    ".word",
    ".word 1, 2,",
    ".word a-b, %lo(c)",
    ".space",
    ".space 4 4",
    ".skip N",
    ".align 3",
    ".align 0",
    ".align -4",
    ".align 0x80000000",
    ".balign 8",
    ".align N",
    ".equ N",
    ".equ N, 1, 2",
    ".equ 1N, 1",
    ".set  N , 4+4",
    ".globl main",
    ".bogus 1",
    ".",
    ". text",
    ".text extra",
    ".WORD 1",
    // Labels come off before dispatch.
    "a: b: nop",
    "a:b:nop",
    "a :",
    "a : nop",
    "1a: nop",
    ": nop",
    "a: .word 1",
    ".L0: .L1:",
    "lw a0, x:y(sp)",
    "nop : nop",
    "a: # only a label",
    "# only a comment",
    "nop # trailing: comment",
    // Mnemonics are case-sensitive and at most 8 bytes.
    "ADD a0, a1, a2",
    "Nop",
    "p_syncmxx",
    "abcdefghi a0",
    "p_merge\ta0,\ta1,\ta2",
    "nop\r",
    "add\ta0 , a1 ,a2",
    // Lines end at `\n` or `\r\n`; a bare `\r` is whitespace.
    "nop\r\nadd a0, a1\r\n",
    "\n\n  add a0\n",
    "nop\rnop",
    // `char` whitespace: U+00A0 and U+3000 separate, U+200B does not.
    "add\u{a0}a0, a1, a2",
    "add\u{3000}a0,\u{3000}a1, a2\u{a0}",
    "\u{3000}nop\u{a0}",
    "a:\u{a0}nop",
    "add\u{200b}a0, a1, a2",
    "li a0,\u{a0}5",
    "lw a0, 4(\u{a0}sp\u{3000})",
    ".word\u{a0}1,\u{3000}2",
    "é: nop",
    "é",
];

#[test]
fn odd_lines_parse_to_the_pinned_items_or_errors() {
    let mut all = String::new();
    for line in ODD_LINES {
        match lbp::asm::parse_program(line) {
            Ok(items) => {
                let _ = writeln!(all, "{line:?} => {items:?}");
            }
            Err(e) => {
                let _ = writeln!(all, "{line:?} => error: {e}");
            }
        }
    }
    // Moved once since it was computed, when an expression that stops at
    // a character no term starts with, or ends before a term, began to
    // say so with the column (`unexpected `+` at column 1`, `expression
    // ends early at column 3`) instead of printing a `Debug` `Option`:
    // seven rows.
    assert_eq!(
        lbp::snap::fnv1a64(all.as_bytes()),
        0x8216_b001_4feb_8bc9,
        "the table renders as:\n{all}"
    );
}
