//! Each seeded ill-formed fixture must be rejected with its distinct
//! `lbp-diag-v1` code, and `examples/asm/hung.s` with a precise
//! wait-reason — statically, before any simulation.

use lbp_verify::{accepted, report_json, verify_image};

use crate::{assert_rejected, verify_file};

#[test]
fn hung_rejected_with_wait_reason() {
    let diags = assert_rejected("../../examples/asm/hung.s", &["LBP-B001"]);
    let d = &diags[0];
    let reason = d
        .wait_reason
        .as_deref()
        .expect("B001 carries a wait-reason");
    assert!(
        reason.contains("slot 3") && reason.contains("never sent"),
        "wait-reason must name the blocked slot: {reason}"
    );
    assert!(d.line > 0, "diagnostic maps back to a source line");
    assert!(d.hint.is_some(), "fix hint attached");
}

#[test]
fn lwcv_never_sent_rejected() {
    assert_rejected("tests/fixtures/lwcv_never_sent.s", &["LBP-B002"]);
}

#[test]
fn swcv_no_fork_rejected() {
    assert_rejected("tests/fixtures/swcv_no_fork.s", &["LBP-B003"]);
}

#[test]
fn start_unmerged_rejected() {
    assert_rejected("tests/fixtures/start_unmerged.s", &["LBP-B004"]);
}

#[test]
fn missing_syncm_rejected() {
    assert_rejected("tests/fixtures/missing_syncm.s", &["LBP-B005"]);
}

#[test]
fn cont_slot_missing_rejected() {
    let diags = assert_rejected("tests/fixtures/cont_slot_missing.s", &["LBP-B006"]);
    let reason = diags[0].wait_reason.as_deref().unwrap();
    assert!(
        reason.contains("slot 8"),
        "names the missing slot: {reason}"
    );
}

#[test]
fn bad_ret_rejected() {
    assert_rejected("tests/fixtures/bad_ret.s", &["LBP-B007"]);
}

#[test]
fn falls_off_text_rejected() {
    assert_rejected("tests/fixtures/falls_off.s", &["LBP-B008"]);
}

#[test]
fn exit_with_nonzero_ra_rejected() {
    let image = lbp_asm::assemble("main:\n    li t0, -1\n    li ra, 16\n    p_ret\n").unwrap();
    let diags = verify_image(&image);
    assert!(!accepted(&diags));
    assert_eq!(diags[0].code.as_str(), "LBP-B007");
    assert!(diags[0].message.contains("nonzero return address"));
}

#[test]
fn reject_report_is_valid_diag_v1() {
    let diags = verify_file("../../examples/asm/hung.s");
    let json = report_json("examples/asm/hung.s", &diags);
    assert!(json.contains("\"schema\": \"lbp-diag-v1\""));
    assert!(json.contains("\"verdict\": \"reject\""));
    assert!(json.contains("\"code\": \"LBP-B001\""));
    assert!(json.contains("\"wait_reason\""));
}
