//! lbp-verify's integration tests: one module per suite, linked as one
//! binary.

use lbp_verify::{accepted, verify_image, Diag, Severity};

mod binary_green;
mod binary_reject;
mod cross_validate;
mod diag_json;
mod m_codes;
mod overlap_solver;
mod source_lint;

/// The full path of `rel`, a path from the workspace root.
fn repo(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// The verifier's diagnostics for a fixture, by path from this package.
fn verify_file(path: &str) -> Vec<Diag> {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&full).unwrap();
    let image = lbp_asm::assemble(&source).unwrap();
    verify_image(&image)
}

/// One diagnostic per line.
fn render(diags: &[Diag]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Asserts the fixture is rejected and its error-code set is exactly
/// `codes`.
fn assert_rejected(path: &str, codes: &[&str]) -> Vec<Diag> {
    let diags = verify_file(path);
    assert!(!accepted(&diags), "{path} must be rejected");
    let mut errors: Vec<&str> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code.as_str())
        .collect();
    errors.sort_unstable();
    errors.dedup();
    assert_eq!(
        errors,
        codes,
        "{path} expected exactly {codes:?}, got:\n{}",
        render(&diags)
    );
    diags
}
