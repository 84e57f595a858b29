//! lbp-cc hands the assembler the items it built beside the listing it
//! prints, and never parses that listing back. Two things keep the two
//! halves honest, over the shipped mini-C sources and 200 generated
//! programs:
//!
//! - the image built from the items equals the image the printed listing
//!   assembles to, in every field: text, data, symbols, line table and
//!   entry;
//! - the listings themselves (`lbp-cc -o`, `lbp-run --emit-asm`) are the
//!   bytes the generator printed when it kept text alone: their FNV-1a,
//!   one a group, was computed at the commit before the items.

// Only the corpus's mini-C sources are compiled here.
#[allow(dead_code)]
mod identity_corpus;

use identity_corpus::{dir, generated_n, hash, Programs};
use lbp_fuzz::gen::Kind;

/// Compiles every program, checks its image against its listing's, and
/// hashes the listings (or the error of a program that does not compile).
fn listings_hash(programs: &Programs) -> u64 {
    hash(programs, |name, source| match lbp::cc::compile(source) {
        Ok(compiled) => {
            let reparsed = lbp::asm::assemble(&compiled.asm)
                .unwrap_or_else(|e| panic!("{name}: the listing does not assemble: {e}"));
            assert!(
                compiled.image == reparsed,
                "{name}: the image from items differs from the listing's"
            );
            format!("{name}:\n{}", compiled.asm)
        }
        Err(e) => format!("{name}: {e}\n"),
    })
}

#[test]
fn shipped_sources_build_their_listing_image_and_print_the_pinned_listing() {
    let got = [
        ("examples/c", ".c"),
        ("crates/lbp-verify/tests/fixtures", ".c"),
    ]
    .map(|(path, ext)| {
        let programs = dir(path, ext);
        (programs.len(), listings_hash(&programs))
    });
    assert_eq!(
        got,
        [(4, 0xd36a_4dd8_1835_d0a9), (6, 0x7671_7283_3d54_8e37)]
    );
}

#[test]
fn generated_programs_build_their_listing_image_and_print_the_pinned_listing() {
    let programs = generated_n(Kind::C, 200);
    assert_eq!(listings_hash(&programs), 0xa125_88e7_7fea_2137);
}
