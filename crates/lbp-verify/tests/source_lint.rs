//! The source-level race lint over the seeded fixtures and the green
//! examples: each racy fixture yields its distinct `lbp-diag-v1` code,
//! every green example is accepted.

use lbp_verify::{accepted, Diag, DiagCode, Severity};

fn lint_file(path: &str) -> Vec<Diag> {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&full).unwrap();
    lbp_cc::lint(&source).unwrap()
}

fn codes(diags: &[Diag], severity: Severity) -> Vec<&str> {
    let mut v: Vec<&str> = diags
        .iter()
        .filter(|d| d.severity == severity)
        .map(|d| d.code.as_str())
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn race_scalar_rejected_with_witness() {
    let diags = lint_file("tests/fixtures/race_scalar.c");
    assert!(!accepted(&diags));
    assert_eq!(codes(&diags, Severity::Error), ["LBP-S001"]);
    let err = diags
        .iter()
        .find(|d| d.code == DiagCode::SSharedScalar)
        .unwrap();
    assert_eq!(
        err.witness.as_deref(),
        Some("hart t=0 (line 8) and hart t=3 (line 8) both write `g`")
    );
    assert_eq!(err.line, 8);
}

#[test]
fn race_const_index_rejected() {
    let diags = lint_file("tests/fixtures/race_const_index.c");
    assert!(!accepted(&diags));
    assert_eq!(codes(&diags, Severity::Error), ["LBP-S002"]);
    let err = diags
        .iter()
        .find(|d| d.code == DiagCode::SOverlappingWrite)
        .unwrap();
    assert!(err.witness.as_deref().unwrap().contains("v[0]"));
}

#[test]
fn race_carried_rejected() {
    let diags = lint_file("tests/fixtures/race_carried.c");
    assert!(!accepted(&diags));
    assert_eq!(codes(&diags, Severity::Error), ["LBP-S003"]);
}

#[test]
fn race_opaque_warns_but_accepts() {
    let diags = lint_file("tests/fixtures/race_opaque.c");
    assert!(accepted(&diags), "unprovable is a warning, not a rejection");
    assert_eq!(codes(&diags, Severity::Warning), ["LBP-S004"]);
}

#[test]
fn race_pointer_warns_but_accepts() {
    let diags = lint_file("tests/fixtures/race_pointer.c");
    assert!(accepted(&diags));
    assert_eq!(codes(&diags, Severity::Warning), ["LBP-S005"]);
}

#[test]
fn bad_sema_reports_every_error() {
    let diags = lint_file("tests/fixtures/bad_sema.c");
    assert!(!accepted(&diags));
    let errs: Vec<&Diag> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errs.len(), 3, "all three sema errors batched: {diags:?}");
    assert!(errs.iter().all(|d| d.code == DiagCode::CSema));
}

#[test]
fn green_c_examples_lint_clean() {
    for file in [
        "../../examples/c/hello_team.c",
        "../../examples/c/matmul.c",
        "../../examples/c/reduce.c",
        "../../examples/c/set_get.c",
    ] {
        let diags = lint_file(file);
        assert!(
            accepted(&diags),
            "{file} must lint clean, got:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn five_fixture_codes_are_distinct() {
    let fixture_codes: Vec<String> = [
        "tests/fixtures/race_scalar.c",
        "tests/fixtures/race_const_index.c",
        "tests/fixtures/race_carried.c",
        "tests/fixtures/race_opaque.c",
        "tests/fixtures/race_pointer.c",
    ]
    .iter()
    .map(|f| {
        lint_file(f)
            .iter()
            .find(|d| d.severity >= Severity::Warning)
            .unwrap()
            .code
            .as_str()
            .to_owned()
    })
    .collect();
    let unique: std::collections::HashSet<&String> = fixture_codes.iter().collect();
    assert_eq!(unique.len(), 5, "{fixture_codes:?}");
}
