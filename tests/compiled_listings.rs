//! The committed listings the `lbp-run` mode rows run in place of C
//! sources (`tests/golden_cli.rs`, `tests/profile_identity.rs`,
//! `crates/lbp-sim/tests/window_identity.rs`). Each C program those rows
//! need has one, each says which lbp-cc commit wrote it, and each
//! assembles. What lbp-cc writes today is not compared with them: that
//! would tie the mode rows to code generation again. CONTRIBUTING.md
//! gives the command that refreshes them.

// Only the corpus's directory listing is used here.
#[allow(dead_code)]
mod identity_corpus;

use identity_corpus::dir;

const LISTINGS: &str = "tests/fixtures/compiled";

/// The names of the `ext` files of a directory, without the extension.
fn stems(path: &str, ext: &str) -> Vec<String> {
    let names = dir(path, ext).into_iter();
    names
        .map(|(name, _)| name.trim_end_matches(ext).to_owned())
        .collect()
}

#[test]
fn every_c_example_and_roi_has_its_listing_and_no_other_is_kept() {
    let mut sources = stems("examples/c", ".c");
    sources.push("roi".to_owned());
    sources.sort();
    assert_eq!(stems(LISTINGS, ".s"), sources);
}

#[test]
fn each_listing_names_the_lbp_cc_commit_that_wrote_it() {
    for (name, text) in dir(LISTINGS, ".s") {
        let first = text.lines().next().unwrap_or_default();
        let commit = first
            .trim()
            .strip_prefix("# Compiled by lbp-cc at ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_default();
        assert!(
            commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()),
            "{name}: the first line names no commit: {first:?}"
        );
    }
}

#[test]
fn each_listing_assembles() {
    for (name, text) in dir(LISTINGS, ".s") {
        if let Err(e) = lbp::asm::assemble(&text) {
            panic!("{name}: {e}");
        }
    }
}
