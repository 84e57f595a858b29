//! Byte-identity of `lbp_verify::verify_image` across rewrites of its
//! fixpoint storage.
//!
//! The M-pass lattice widens one step at a time (point → interval →
//! unknown), so where and in which order states meet is part of the
//! verdict. The constants below are FNV-1a hashes of the `lbp-diag-v1`
//! reports the verifier produced at the commit before the fixpoints moved
//! from hash maps to a word-indexed arena; any change to worklist order,
//! meet points or message text moves one of them.

use lbp::kernels::matmul::{Matmul, Version};
use lbp_fuzz::gen::{self, GenConfig, Kind};
use lbp_testutil::Rng;

/// The `lbp-diag-v1` report of a source, or how it failed to build.
fn report_of(name: &str, source: &str) -> String {
    let kind = lbp::cc::SourceKind::of(name);
    match lbp::cc::build(kind, source, &lbp::cc::CcOptions::default()) {
        Ok(built) => lbp::verify::report_json(name, &lbp::verify::verify_image(&built.image)),
        Err(e) => format!("{name}: unbuilt: {e}\n"),
    }
}

/// The hash of the reports of every `ext` file of a directory, by name.
fn hash_dir(dir: &str, ext: &str) -> (usize, u64) {
    let root = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("{root}: {e}"))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(ext))
        .collect();
    names.sort();
    let mut all = String::new();
    for name in &names {
        let source = std::fs::read_to_string(format!("{root}/{name}")).unwrap();
        all.push_str(&report_of(name, &source));
    }
    (names.len(), lbp::snap::fnv1a64(all.as_bytes()))
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
    let mut all = String::new();
    for harts in [16, 64] {
        for version in Version::ALL {
            let name = format!("matmul/{}/h{harts}.s", version.name());
            all.push_str(&report_of(
                &name,
                &Matmul::new(harts, version).program().source(),
            ));
        }
    }
    assert_eq!(lbp::snap::fnv1a64(all.as_bytes()), 0xa6fe_7b0f_84a8_1be6);
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
        let cfg = GenConfig {
            kinds: vec![kind],
            ..GenConfig::default()
        };
        let mut all = String::new();
        for case in 0..100 {
            let mut rng = Rng::new(lbp_fuzz::case_seed(42, case));
            let program = gen::generate(&mut rng, &cfg, case);
            let name = format!("{}/{case}/{}", kind.name(), program.file_name());
            all.push_str(&report_of(&name, &program.render()));
        }
        assert_eq!(
            lbp::snap::fnv1a64(all.as_bytes()),
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
