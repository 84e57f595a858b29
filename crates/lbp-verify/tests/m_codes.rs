//! Each seeded M-code fixture must be flagged under exactly its own
//! code: definite races (`M001`/`M002`) reject, unprovable or
//! performance findings (`M003`–`M006`) flag but accept, and the
//! precision-boundary fixture documents where the static net ends and
//! the dynamic race-witness collector takes over.

use lbp_verify::{accepted, verify_image, Diag, Severity};

fn verify_file(path: &str) -> Vec<Diag> {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&full).unwrap();
    let image = lbp_asm::assemble(&source).unwrap();
    verify_image(&image)
}

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
        "{path} expected {codes:?}:\n{}",
        render(&diags)
    );
    diags
}

/// Asserts the fixture is accepted yet every diagnostic it gets carries
/// exactly the code `code`.
fn assert_flagged(path: &str, code: &str) -> Vec<Diag> {
    let diags = verify_file(path);
    assert!(
        accepted(&diags),
        "{path} must stay accepted:\n{}",
        render(&diags)
    );
    assert!(!diags.is_empty(), "{path} must be flagged");
    let mut codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(
        codes,
        [code],
        "{path} expected only {code}:\n{}",
        render(&diags)
    );
    diags
}

#[test]
fn overlapping_write_rejected() {
    let diags = assert_rejected("tests/fixtures/m_overlap_write.s", &["LBP-M001"]);
    let d = diags
        .iter()
        .find(|d| d.code.as_str() == "LBP-M001")
        .unwrap();
    let witness = d
        .witness
        .as_deref()
        .expect("M001 carries a member-pair witness");
    assert!(
        witness.contains("member t=") && witness.contains("while member t="),
        "witness names the two members: {witness}"
    );
    assert!(d.pc.is_some(), "binary diagnostic carries the faulting pc");
    assert!(d.hint.is_some(), "fix hint attached");
}

#[test]
fn racing_read_rejected() {
    let diags = assert_rejected("tests/fixtures/m_racing_read.s", &["LBP-M002"]);
    let d = diags
        .iter()
        .find(|d| d.code.as_str() == "LBP-M002")
        .unwrap();
    assert!(d.message.contains("reads"), "names the read: {}", d.message);
}

#[test]
fn unprovable_subscript_flagged_but_accepted() {
    let diags = assert_flagged("tests/fixtures/m_unprovable_subscript.s", "LBP-M003");
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn unknown_store_flagged_but_accepted() {
    let diags = assert_flagged("tests/fixtures/m_unknown_store.s", "LBP-M004");
    assert!(diags[0].message.contains("unknown provenance"));
}

#[test]
fn escaping_pointer_flagged_but_accepted() {
    assert_flagged("tests/fixtures/m_escaping_pointer.s", "LBP-M005");
}

#[test]
fn bank_aliasing_noted_but_accepted() {
    let diags = assert_flagged("tests/fixtures/m_bank_alias.s", "LBP-M006");
    assert_eq!(diags[0].severity, Severity::Info);
    assert!(
        diags[0].message.contains("bank 0"),
        "names the serializing bank: {}",
        diags[0].message
    );
}

/// The precision boundary, static half: the dynamic-only fixture passes
/// verification with nothing stronger than the unknown-provenance
/// warning. Its dynamic half — the race-witness collector catching the
/// concrete overlap — is the workspace-level `tests/golden_cli.rs` row
/// `race-witness-dynamic-only` and the fuzzer's `race` oracle.
#[test]
fn dynamic_only_race_is_statically_accepted() {
    assert_flagged("tests/fixtures/race_dynamic_only.s", "LBP-M004");
}

/// Green examples stay green with the M-pass in the pipeline: no M
/// *error* on any committed example (warnings such as `M004` on
/// compiler-generated addressing are expected and accepted).
#[test]
fn committed_examples_stay_m_clean() {
    for file in ["../../examples/asm/mul.s", "../../examples/asm/fork2.s"] {
        let diags = verify_file(file);
        assert!(accepted(&diags), "{file}:\n{}", render(&diags));
    }
    for file in ["../../examples/c/matmul.c", "../../examples/c/reduce.c"] {
        let full = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&full).unwrap();
        let compiled = lbp_cc::compile(&source).unwrap();
        let diags = verify_image(&compiled.image);
        assert!(accepted(&diags), "{file}:\n{}", render(&diags));
    }
}

/// `slli`/`mul` chains that leave 64 bits: the address lattice answers
/// unknown. It used to multiply first and clamp after — a panic in a
/// debug build, and in release a product wrapped to the *exact point* 0
/// that a later `M001`/`M002` could have been built on.
#[test]
fn overflowing_scale_chains_are_unknown_not_a_panic() {
    for chain in ["slli t0, t0, 31", "mul t1, t0, t0"] {
        let source = format!(
            "main:\n    li t0, 0x40000000\n    slli t0, t0, 3\n    {chain}\n    \
             li t0, -1\n    li ra, 0\n    p_ret\n"
        );
        let diags = verify_image(&lbp_asm::assemble(&source).unwrap());
        assert!(accepted(&diags), "{chain}:\n{}", render(&diags));
        assert!(
            diags.iter().all(|d| !d.code.as_str().starts_with("LBP-M")),
            "{chain}:\n{}",
            render(&diags)
        );
    }
}
