//! lbp-cc hands the assembler the items it built beside the listing it
//! prints, and never parses that listing back. Over the shipped mini-C
//! sources and 200 generated programs, the image built from the items
//! equals the image the printed listing assembles to, in every field:
//! text, data, symbols, line table and entry. The listings themselves
//! (`lbp-cc -o`, `lbp-run --emit-asm`) are pinned by `tests/golden_cli.rs`.

// Only the corpus's mini-C sources are compiled here.
#[allow(dead_code)]
mod identity_corpus;

use identity_corpus::{dir, generated_n, Programs};
use lbp_fuzz::gen::Kind;

/// Compiles every program that compiles and checks its image against its
/// listing's; returns how many compiled.
fn check_listing_images(programs: &Programs) -> usize {
    let mut compiled = 0;
    for (name, source) in programs {
        let Ok(built) = lbp::cc::compile(source) else {
            continue;
        };
        let reparsed = lbp::asm::assemble(&built.asm)
            .unwrap_or_else(|e| panic!("{name}: the listing does not assemble: {e}"));
        assert!(
            built.image == reparsed,
            "{name}: the image from items differs from the listing's"
        );
        compiled += 1;
    }
    compiled
}

#[test]
fn shipped_sources_build_the_image_their_listing_assembles_to() {
    let got = [
        ("examples/c", ".c"),
        ("crates/lbp-verify/tests/fixtures", ".c"),
    ]
    .map(|(path, ext)| check_listing_images(&dir(path, ext)));
    // `bad_sema.c` is refused by the front end.
    assert_eq!(got, [4, 5]);
}

#[test]
fn generated_programs_build_the_image_their_listing_assembles_to() {
    assert_eq!(check_listing_images(&generated_n(Kind::C, 200)), 200);
}
