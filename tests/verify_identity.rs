//! Byte-identity of `lbp_verify::verify_image` across rewrites of its
//! fixpoint storage.
//!
//! The M-pass lattice widens one step at a time (point → interval →
//! unknown), so where and in which order states meet is part of the
//! verdict. The constants below are FNV-1a hashes of the `lbp-diag-v1`
//! reports the verifier produced at the commit before the fixpoints moved
//! from hash maps to a word-indexed arena; any change to worklist order,
//! meet points or message text moves one of them.

mod identity_corpus;

use identity_corpus::{dir, generated, hash, matmul_kernels};
use lbp_fuzz::gen::Kind;

/// The `lbp-diag-v1` report of a source, or how it failed to build.
fn report_of(name: &str, source: &str) -> String {
    let kind = lbp::cc::SourceKind::of(name);
    match lbp::cc::build(kind, source, &lbp::cc::CcOptions::default()) {
        Ok(built) => lbp::verify::report_json(name, &lbp::verify::verify_image(&built.image)),
        Err(e) => format!("{name}: unbuilt: {e}\n"),
    }
}

/// How many `ext` files a directory has, and the hash of their reports.
fn hash_dir(path: &str, ext: &str) -> (usize, u64) {
    let programs = dir(path, ext);
    (programs.len(), hash(&programs, report_of))
}

#[test]
fn shipped_sources_verify_to_the_pinned_bytes() {
    assert_eq!(
        hash_dir("crates/lbp-verify/tests/fixtures", ".s"),
        (14, 0x1526_6459_b3a6_6031),
        "the 14 assembly fixtures"
    );
    assert_eq!(
        hash_dir("examples/asm", ".s"),
        (3, 0x0d5c_3482_abb5_8117),
        "examples/asm"
    );
    assert_eq!(
        hash_dir("examples/c", ".c"),
        (4, 0xef2c_93c0_b79d_bd2b),
        "examples/c, compiled"
    );
}

#[test]
fn matmul_kernels_verify_to_the_pinned_bytes() {
    assert_eq!(hash(&matmul_kernels(), report_of), 0xa6fe_7b0f_84a8_1be6);
}

/// 100 programs of each generator family at seed 42, one hash a family.
#[test]
fn generated_programs_verify_to_the_pinned_bytes() {
    let pinned = [
        (Kind::C, 0xcfe5_2265_5935_657au64),
        (Kind::Seq, 0x775a_b155_5d8b_d64b),
        (Kind::Mem, 0xc15b_b8ea_abb8_fe2b),
        (Kind::Fork, 0xb0b1_8831_c4c2_1c09),
    ];
    for (kind, want) in pinned {
        assert_eq!(
            hash(&generated(kind), report_of),
            want,
            "kind {}",
            kind.name()
        );
    }
}

/// `image.symbols` is a randomly seeded `HashMap`: nothing the verifier
/// prints may depend on its iteration order. Two fresh assemblies give
/// two differently ordered tables in one process.
#[test]
fn a_second_run_in_the_same_process_gives_the_same_bytes() {
    let root = env!("CARGO_MANIFEST_DIR");
    for rel in [
        "crates/lbp-verify/tests/fixtures/m_overlap_write.s",
        "crates/lbp-verify/tests/fixtures/m_bank_alias.s",
        "examples/asm/fork2.s",
        "examples/c/matmul.c",
    ] {
        let source = std::fs::read_to_string(format!("{root}/{rel}")).unwrap();
        assert_eq!(report_of(rel, &source), report_of(rel, &source), "{rel}");
    }
}
