//! `figures` under the one command-line contract (see the root
//! package's `tests/cli_grammar.rs`).

#[path = "../../../tests/cli_contract/mod.rs"]
mod cli_contract;

use std::path::Path;
use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

#[test]
fn figures_lists_the_2_flags_of_the_parent_and_the_documents_spell_no_other() {
    cli_contract::check_contract(Path::new(FIGURES), "figures", &["--csv", "--stats-dir"]);
}

#[test]
fn no_target_or_an_unknown_one_is_a_usage_error() {
    for line in [&[][..], &["--csv"], &["fig22"]] {
        let out = Command::new(FIGURES).args(line).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{line:?}");
    }
}
