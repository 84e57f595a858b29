//! The repository's test layout: each workspace crate links at most one
//! integration-test binary, the root package links exactly the suites
//! named below, and every test file a document names exists.
//!
//! The root package keeps one binary per suite because tier 1 knows a
//! root test by its file and name (`tests/golden_cli.rs::…`): making the
//! suites modules of one binary would rename every one of them.

use std::path::Path;

/// The root package's integration-test targets.
const ROOT_SUITES: [&str; 21] = [
    "tests/asm_identity.rs",
    "tests/batch_parallel.rs",
    "tests/c_samples.rs",
    "tests/cancel_resume.rs",
    "tests/cc_identity.rs",
    "tests/cli_exit_codes.rs",
    "tests/cli_grammar.rs",
    "tests/codegen_identity.rs",
    "tests/compiled_listings.rs",
    "tests/decode_sweep.rs",
    "tests/determinism_judges.rs",
    "tests/full_stack.rs",
    "tests/golden_cli.rs",
    "tests/golden_reference.rs",
    "tests/hybrid.rs",
    "tests/io_determinism.rs",
    "tests/layout.rs",
    "tests/profile_identity.rs",
    "tests/profile_reconcile.rs",
    "tests/semantics_differential.rs",
    "tests/snapshot_roundtrip.rs",
];

/// The crate suites that stay their own binary, each for the reason its
/// module doc gives.
const OWN_BINARY: [&str; 1] = ["crates/lbp-sim/tests/alloc_free_tick.rs"];

/// The documents whose test-file paths must resolve.
const DOCS: [&str; 6] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The names of the entries of a repository directory, sorted; none if
/// it does not exist.
fn entries(dir: &str) -> Vec<String> {
    let Ok(read) = std::fs::read_dir(root().join(dir)) else {
        return Vec::new();
    };
    let mut names: Vec<String> = read
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// The integration-test targets cargo finds under `tests`: each `*.rs`
/// file and each `*/main.rs`.
fn test_targets(tests: &str) -> Vec<String> {
    entries(tests)
        .into_iter()
        .map(|name| format!("{tests}/{name}"))
        .filter(|path| path.ends_with(".rs") || root().join(path).join("main.rs").is_file())
        .collect()
}

#[test]
fn every_crate_links_one_integration_test_binary() {
    let crowded: Vec<String> = entries("crates")
        .into_iter()
        .map(|name| {
            let mut targets = test_targets(&format!("crates/{name}/tests"));
            targets.retain(|path| !OWN_BINARY.contains(&path.as_str()));
            targets
        })
        .filter(|targets| targets.len() > 1)
        .map(|targets| targets.join(" "))
        .collect();
    assert!(
        crowded.is_empty(),
        "each links its own binary; make them modules of the crate's \
         tests/it/main.rs:\n{}",
        crowded.join("\n")
    );
}

#[test]
fn the_root_package_links_the_named_suites() {
    assert_eq!(
        test_targets("tests"),
        ROOT_SUITES,
        "a new root suite is a new binary: add a module to an existing \
         suite, or name it in ROOT_SUITES"
    );
}

/// Every `…tests/….rs` path in `text`.
fn test_paths(text: &str) -> Vec<&str> {
    let in_path = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut paths = Vec::new();
    for (at, _) in text.match_indices("tests/") {
        let start = text[..at]
            .char_indices()
            .rev()
            .find(|&(_, c)| !in_path(c))
            .map_or(0, |(i, c)| i + c.len_utf8());
        let end = text[at..]
            .find(|c| !in_path(c))
            .map_or(text.len(), |n| at + n);
        let path = text[start..end].trim_end_matches('.');
        if path.ends_with(".rs") {
            paths.push(path);
        }
    }
    paths
}

#[test]
fn every_test_file_the_documents_name_exists() {
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).unwrap();
        for path in test_paths(&text) {
            // `lbp-sim/tests/…` is short for `crates/lbp-sim/tests/…`.
            let full = if path.starts_with("lbp-") {
                root().join("crates").join(path)
            } else {
                root().join(path)
            };
            if !full.is_file() {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "no such test file:\n{}",
        missing.join("\n")
    );
}
