//! `lbp-batch` under the one command-line contract (see the root
//! package's `tests/cli_grammar.rs`), and its manifest parser under a
//! hostile input.

#[path = "../../../tests/cli_contract/mod.rs"]
mod cli_contract;

use std::path::Path;
use std::process::Command;

const LBP_BATCH: &str = env!("CARGO_BIN_EXE_lbp-batch");

#[test]
fn lbp_batch_lists_the_11_flags_of_the_parent_and_the_documents_spell_no_other() {
    let pinned = [
        "--backoff-ms",
        "--checkpoint-every",
        "--crash-after-appends",
        "--crash-torn",
        "--max-attempts",
        "--out",
        "--queue-cap",
        "--slice",
        "--state-dir",
        "--wall-ms",
        "--workers",
    ];
    cli_contract::check_contract(Path::new(LBP_BATCH), "lbp-batch", &pinned);
}

#[test]
fn service_flags_without_a_state_dir_are_refused_not_ignored() {
    for line in [
        &["m.json", "--max-attempts", "2"][..],
        &["m.json", "--state-dir", "d", "--out", "o.jsonl"],
        &["m.json", "--state-dir", "d", "--crash-torn"],
    ] {
        let out = Command::new(LBP_BATCH).args(line).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{line:?}");
    }
}

/// At the parent: `fatal runtime error: stack overflow`, SIGABRT.
#[test]
fn lbp_batch_on_a_manifest_of_200_000_brackets_is_a_positioned_failure() {
    let manifest = std::env::temp_dir().join(format!("lbp-brackets-{}.json", std::process::id()));
    std::fs::write(&manifest, "[".repeat(200_000)).unwrap();
    let out = Command::new(LBP_BATCH).arg(&manifest).output().unwrap();
    std::fs::remove_file(&manifest).unwrap();
    assert_eq!(out.status.code(), Some(1), "a classified failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("JSON error at byte 128: nested too deep"),
        "{stderr}"
    );
}
