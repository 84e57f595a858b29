//! The `p_syncm` fence set on the paths that skip a construct.
//!
//! A store still pending before an `if` without `else`, or before a loop,
//! is still pending after it when the body does not run, even when the
//! body's own load fenced it. Each program below stores `G`, skips a body
//! that loads `G`, and loads `G` again: that last load must be fenced.
//! The loops that test at the bottom only, and the loads through pointer
//! registers, keep the same fences.

/// `main`'s listing from its label to its epilogue label.
fn main_listing(body: &str) -> String {
    let source =
        format!("int G; int R[1]; int A[8];\nvoid main(void) {{\n{body}\n    R[0] = G;\n}}\n");
    let asm = lbp_cc::compile(&source).unwrap().asm;
    let from = asm.find("main:\n").unwrap();
    let to = asm.find("_cc_main_end_1:\n").unwrap();
    asm[from..to].to_owned()
}

const PROLOGUE: &str = "main:
    addi sp, sp, -96
    sw   ra, 0(sp)
    li   t0, -1
    sw   t0, 4(sp)
    p_set t0
    sw   s4, 8(sp)
    sw   s5, 12(sp)
";

/// The fenced load of `G` and the store to `R[0]` every program ends with.
const TAIL: &str = "    la   t2, G
    p_syncm
    lw   t2, 0(t2)
    la   t3, R
    li   t4, 0
    add  t4, t4, t3
    sw   t2, 0(t4)
";

#[test]
fn an_if_without_else_keeps_the_entry_stores_pending() {
    let got = main_listing("    int c; int x;\n    c = 0;\n    G = 5;\n    if (c) { x = G; }");
    let want = "    li   s4, 0
    la   t2, G
    li   t3, 5
    sw   t3, 0(t2)
    beqz s4, _cc_else_2
    la   t2, G
    p_syncm
    lw   t2, 0(t2)
    mv   s5, t2
_cc_else_2:
";
    assert_eq!(got, format!("{PROLOGUE}{want}{TAIL}"));
}

#[test]
fn a_for_loop_exit_keeps_the_stores_pending_at_its_test() {
    let got = main_listing("    int i; int x;\n    G = 5;\n    for (i = 0; i < 0; i++) { x = G; }");
    let want = "    la   t2, G
    li   t3, 5
    sw   t3, 0(t2)
    li   s4, 0
_cc_for_2:
    bge  s4, zero, _cc_fend_3
    la   t2, G
    p_syncm
    lw   t2, 0(t2)
    mv   s5, t2
_cc_fstep_4:
    addi s4, s4, 1
    j    _cc_for_2
_cc_fend_3:
";
    assert_eq!(got, format!("{PROLOGUE}{want}{TAIL}"));
}

#[test]
fn a_while_loop_exit_keeps_the_stores_pending_at_its_test() {
    let got = main_listing("    int c; int x;\n    c = 0;\n    G = 5;\n    while (c) { x = G; }");
    let want = "    li   s4, 0
    la   t2, G
    li   t3, 5
    sw   t3, 0(t2)
_cc_while_2:
    beqz s4, _cc_wend_3
    la   t2, G
    p_syncm
    lw   t2, 0(t2)
    mv   s5, t2
    j    _cc_while_2
_cc_wend_3:
";
    assert_eq!(got, format!("{PROLOGUE}{want}{TAIL}"));
}

/// A loop whose init decides its entry test runs its body before any
/// test (it tests at the bottom). A load at the top of that body follows
/// the previous iteration's store to the same symbol, so it keeps its
/// fence, and so does the load after the loop.
#[test]
fn a_bottom_tested_body_fences_a_load_of_the_previous_iterations_store() {
    let got = main_listing("    int i; int x;\n    for (i = 0; i < 4; i++) { x = G; G = x + 1; }");
    let want = "    li   s4, 0
    li   a7, 4
_cc_for_2:
    la   t2, G
    p_syncm
    lw   t2, 0(t2)
    mv   s5, t2
    addi t2, s5, 1
    la   t3, G
    sw   t2, 0(t3)
_cc_fstep_4:
    addi s4, s4, 1
    blt  s4, a7, _cc_for_2
_cc_fend_3:
    la   t3, G
    p_syncm
    lw   t3, 0(t3)
    la   t2, R
    li   t4, 0
    add  t4, t4, t2
    sw   t3, 0(t4)
";
    assert_eq!(got, format!("{PROLOGUE}{want}"));
}

/// A `break` before the body's fenced load leaves a bottom-tested loop
/// with the store made before the loop still pending.
#[test]
fn a_bottom_tested_loop_exit_keeps_the_stores_pending_at_its_top() {
    let got = main_listing(
        "    int i; int x;\n    G = 5;\n    for (i = 0; i < 4; i++) { if (i) { break; } x = G; }",
    );
    let want = "    la   t2, G
    li   t3, 5
    sw   t3, 0(t2)
    li   s4, 0
    li   a7, 4
_cc_for_2:
    beqz s4, _cc_else_5
    j    _cc_fend_3
_cc_else_5:
    la   t2, G
    p_syncm
    lw   t2, 0(t2)
    mv   s5, t2
_cc_fstep_4:
    addi s4, s4, 1
    blt  s4, a7, _cc_for_2
_cc_fend_3:
";
    assert_eq!(got, format!("{PROLOGUE}{want}{TAIL}"));
}

/// A load through a pointer register keeps the alias class of its array:
/// `A[i]` follows the previous iteration's store to `A[i + 1]`, so it is
/// fenced.
#[test]
fn a_load_through_a_pointer_of_an_array_the_loop_stores_keeps_its_fence() {
    let got = main_listing(
        "    int i; int x;\n    G = 5;\n    for (i = 0; i < 7; i++) { A[i + 1] = A[i] + 1; }",
    );
    let want = "    la   t2, G
    li   t3, 5
    sw   t3, 0(t2)
    la   a7, A+4
    la   a6, A
    addi s4, a7, 28
_cc_for_2:
    p_syncm
    lw   t2, 0(a6)
    addi t2, t2, 1
    sw   t2, 0(a7)
_cc_fstep_4:
    addi a7, a7, 4
    addi a6, a6, 4
    bne  a7, s4, _cc_for_2
_cc_fend_3:
";
    assert_eq!(got, format!("{PROLOGUE}{want}{TAIL}"));
}
