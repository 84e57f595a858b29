//! Error-path coverage for the assembler front end: malformed operands,
//! out-of-range immediates, duplicate labels/symbols, bad directives and
//! expression syntax. Each case asserts both the message and the 1-based
//! source line the error is attributed to.

use lbp_asm::assemble;

/// Asserts `src` is rejected with a message containing `needle`,
/// attributed to `line`.
fn rejected(src: &str, needle: &str, line: usize) {
    let err = assemble(src).expect_err(&format!("must reject: {src:?}"));
    assert!(
        err.message.contains(needle),
        "message `{}` does not contain `{needle}`",
        err.message
    );
    assert_eq!(err.line, line, "wrong line for `{}`", err.message);
}

#[test]
fn unknown_mnemonic_rejected() {
    rejected(
        "start:\n    frobnicate a0, a1\n",
        "unknown mnemonic `frobnicate`",
        2,
    );
}

#[test]
fn wrong_operand_count_rejected() {
    rejected("    add a0, a1\n", "`add` expects 3 operands, got 2", 1);
    rejected("    jal a0, a1, a2\n", "`jal` expects 1 or 2 operands", 1);
    rejected("    jalr a0, a1, a2\n", "`jalr` expects 1 or 2 operands", 1);
    rejected("    p_ret a0\n", "`p_ret` expects 0 or 2 operands", 1);
}

#[test]
fn malformed_memory_operand_rejected() {
    rejected("    lw a0, a1\n", "expected `offset(base)`, got `a1`", 1);
    rejected("    lw a0, 4(sp\n", "unclosed `(`", 1);
    rejected("    sw a0, 4(99)\n", "unknown register name", 1);
}

#[test]
fn unknown_register_rejected() {
    rejected("    add a0, a1, q7\n", "unknown register name `q7`", 1);
}

#[test]
fn out_of_range_immediates_rejected() {
    // addi's I-immediate is 12 bits: [-2048, 2047].
    rejected(
        "    addi a0, a0, 5000\n",
        "immediate 5000 of `addi` outside [-2048, 2047]",
        1,
    );
    // Store offsets share the 12-bit range via the S-format.
    rejected("    sw a0, 99999(sp)\n", "outside [-2048, 2047]", 1);
    // `li` materializes any 32-bit constant but nothing wider.
    rejected(
        "    li a0, 0x1ffffffff\n",
        "`li` value 8589934591 exceeds 32 bits",
        1,
    );
}

// A value wider than a word is refused where it would have lost its
// high half: one test per place the assembler narrows to 32 bits. The
// bound is `li`'s, -2^31 ..= 2^32-1.

#[test]
fn equ_value_past_32_bits_rejected() {
    rejected(
        ".equ N, 4294967298\n",
        "in .equ N: value 4294967298 exceeds 32 bits",
        1,
    );
}

#[test]
fn text_word_past_32_bits_rejected() {
    rejected(
        "main:\n.word 4294967298\n",
        "`.word` value 4294967298 exceeds 32 bits",
        2,
    );
    rejected(
        ".word -2147483649\n",
        "value -2147483649 exceeds 32 bits",
        1,
    );
    let image = assemble(".word 4294967295\n.word -2147483648\n").unwrap();
    assert_eq!(image.text, [u32::MAX, 0x8000_0000]);
}

#[test]
fn data_word_past_32_bits_rejected() {
    rejected(
        ".data\n.word 1, 4294967298\n",
        "`.word` value 4294967298 exceeds 32 bits",
        2,
    );
}

#[test]
fn immediate_past_32_bits_rejected() {
    for (src, v) in [
        ("addi a0, a0, 4294967297", 4294967297u64),
        ("lw a1, 4294967300(a0)", 4294967300),
        ("p_lwre a2, 4294967296", 4294967296),
    ] {
        let message = format!("operand value {v} exceeds 32 bits");
        rejected(&format!("main:\n    {src}\n"), &message, 2);
    }
}

#[test]
fn symbolic_target_past_32_bits_rejected() {
    rejected(
        "x:\n    beq a0, a1, x + 0x100000000\n",
        "operand value 4294967296 exceeds 32 bits",
        2,
    );
}

#[test]
fn constant_target_past_32_bits_rejected() {
    rejected(
        "    beq a0, a1, 0x100000008\n",
        "operand value 4294967304 exceeds 32 bits",
        1,
    );
    rejected(
        "    jal ra, 0x100000010\n",
        "operand value 4294967312 exceeds 32 bits",
        1,
    );
}

#[test]
fn lui_field_past_32_bits_rejected() {
    rejected(
        "    lui a0, 0x100000001\n",
        "operand value 4294967297 exceeds 32 bits",
        1,
    );
}

#[test]
fn auipc_field_past_32_bits_rejected() {
    rejected(
        "    auipc a0, 0x100000001\n",
        "operand value 4294967297 exceeds 32 bits",
        1,
    );
}

#[test]
fn upper_field_past_20_bits_rejected() {
    assert!(assemble("    lui a0, 0xfffff\n    auipc a0, 0xfffff\n").is_ok());
    rejected(
        "    lui a0, 0x100000\n",
        "lui field 0x100000 exceeds 20 bits",
        1,
    );
    rejected(
        "    auipc a0, -1\n",
        "auipc field 0xffffffff exceeds 20 bits",
        1,
    );
}

#[test]
fn duplicate_labels_and_symbols_rejected() {
    rejected("a:\n    nop\na:\n    nop\n", "duplicate label `a`", 3);
    rejected(".equ N, 4\n.equ N, 5\n", "duplicate symbol `N`", 2);
    // A label clashing with an .equ is the same namespace.
    rejected(".equ a, 4\na:\n    nop\n", "duplicate label `a`", 2);
}

#[test]
fn undefined_symbol_rejected() {
    rejected("    la a0, missing\n", "undefined symbol `missing`", 1);
}

#[test]
fn malformed_directives_rejected() {
    rejected(".word\n", ".word needs at least one value", 1);
    rejected(".equ N\n", ".equ needs `name, value`", 1);
    rejected(".frobnicate 3\n", "unknown directive `.frobnicate`", 1);
    rejected(".space -8\n", "bad .space count -8", 1);
}

#[test]
fn expression_syntax_rejected() {
    rejected("    li a0, %mid(x)\n", "unknown operator %mid", 1);
    rejected("x:\n    li a0, %hi x\n", "expected `(` after %hi", 2);
    rejected("    li a0, 1 + 0zz\n", "bad number", 1);
    rejected("    li a0, (1 + 2) 3\n", "trailing text in expression", 1);
}

/// A character no term starts with is named, and a term that never
/// comes is an early end; both at their column in the line (bytes,
/// from 1), as lbp-cc counts them.
#[test]
fn expression_errors_name_the_character_and_its_column() {
    let message = |src: &str| assemble(src).unwrap_err().message;
    assert_eq!(
        message("main: addi a0, a0, $"),
        "unexpected `$` at column 20"
    );
    assert_eq!(message("    li a0, 2 - é"), "unexpected `é` at column 16");
    assert_eq!(
        message("main: addi a0, a0, 1+"),
        "expression ends early at column 22"
    );
    assert_eq!(message(".word 1,,2"), "expression ends early at column 9");
    assert_eq!(message("    li a0, (4"), "expected `)`");
    rejected(
        "x:\n    li a0, 1 + (2 -\n",
        "expression ends early at column 20",
        2,
    );
}

#[test]
fn error_lines_skip_comments_and_blanks() {
    // The reported line must be the physical source line, counting
    // comments and blank lines.
    let src = "# header comment\n\n    nop\n    bogus a0\n";
    rejected(src, "unknown mnemonic `bogus`", 4);
}

/// `la` and a symbolic `li` split their value into `%hi` and `%lo`
/// halves; a value past a word is refused as a whole, not split from
/// its low 32 bits.
#[test]
fn la_and_li_of_a_symbol_past_32_bits_rejected() {
    for mnemonic in ["la", "li"] {
        rejected(
            &format!("main:\n    {mnemonic} a0, main+4294967296\n"),
            "operand value 4294967296 exceeds 32 bits",
            2,
        );
    }
    rejected(
        "    lui a0, %hi(4294967296)\n",
        "operand value 4294967296 exceeds 32 bits",
        1,
    );
    let image = assemble("main:\n    la a0, main+4294967295\n    li a1, main-2147483648\n");
    assert!(image.is_ok(), "{image:?}");
}
