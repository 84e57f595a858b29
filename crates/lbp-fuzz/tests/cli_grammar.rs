//! `lbp-fuzz` under the one command-line contract (see the root
//! package's `tests/cli_grammar.rs`).

#[path = "../../../tests/cli_contract/mod.rs"]
mod cli_contract;

use std::path::Path;
use std::process::Command;

const LBP_FUZZ: &str = env!("CARGO_BIN_EXE_lbp-fuzz");

#[test]
fn lbp_fuzz_lists_the_10_flags_of_the_parent_and_the_documents_spell_no_other() {
    let pinned = [
        "--corpus",
        "--count",
        "--kinds",
        "--max-cores",
        "--max-team",
        "--out",
        "--sabotage",
        "--seed",
        "--shrink-attempts",
        "--skip",
    ];
    cli_contract::check_contract(Path::new(LBP_FUZZ), "lbp-fuzz", &pinned);
}

#[test]
fn a_missing_seed_or_a_value_out_of_range_names_the_flag() {
    for (line, names) in [
        (&["--count", "1"][..], "`--seed` is required"),
        (
            &["--seed", "1", "--max-team", "1"],
            "`--max-team` must be within 2..=256",
        ),
        (
            &["--seed", "1", "--kinds", "seq,nope"],
            "bad `--kinds` value `seq,nope`",
        ),
    ] {
        let out = Command::new(LBP_FUZZ).args(line).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{line:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.lines().last().unwrap().contains(names), "{stderr}");
    }
}
