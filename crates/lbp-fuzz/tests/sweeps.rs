//! The fixed-seed sweeps, run on the shipped binary: its exit codes, its
//! verdict stream and the corpus it writes, with the cross-process
//! resume oracle re-executing that same binary.
//!
//! The clean sweeps must pass every oracle of the battery; the
//! `--sabotage` sweeps are the fuzzer's own red fixtures: each planted
//! bug must be found, classified and shrunk by the oracle meant for it.

use std::path::{Path, PathBuf};
use std::process::Command;

use lbp_testutil::harness;

/// Runs `lbp-fuzz ARGS --out DIR/NAME.jsonl`, with `--corpus DIR/NAME`
/// when `corpus`, and returns its exit code and the verdict stream.
fn sweep(dir: &Path, name: &str, args: &str, corpus: bool) -> (i32, String) {
    let out = dir.join(format!("{name}.jsonl"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lbp-fuzz"));
    cmd.args(args.split(' ')).arg("--out").arg(&out);
    if corpus {
        cmd.arg("--corpus").arg(dir.join(name));
    }
    let run = cmd.output().expect("lbp-fuzz spawns");
    let code = run.status.code().expect("lbp-fuzz exits, not signalled");
    let stream = std::fs::read_to_string(&out).unwrap_or_else(|e| panic!("{name}: {e}"));
    (code, stream)
}

/// The number of lines of `stream` that contain `needle`.
fn lines_with(stream: &str, needle: &str) -> usize {
    stream.lines().filter(|l| l.contains(needle)).count()
}

/// Asserts a sweep exited 0 and its summary line counts no failure.
fn assert_clean(name: &str, (code, stream): &(i32, String)) {
    assert_eq!(*code, 0, "{name}: exit code\n{stream}");
    let tail = stream.lines().last().unwrap_or("");
    assert!(tail.contains("\"failed\":0"), "{name}: {tail}");
}

/// Runs `--sabotage KIND` over three cases of `seed` with a corpus, and
/// asserts it exits 3 with `needle` on three lines and a corpus of three
/// cases, each with `files` and a `meta.json` that names the sabotage.
fn assert_found(dir: &Path, kind: &str, seed: u32, needle: &str, files: &[&str]) {
    let args = format!("--seed {seed} --count 3 --sabotage {kind}");
    let (code, stream) = sweep(dir, kind, &args, true);
    assert_eq!(code, 3, "{kind}: exit code\n{stream}");
    assert_eq!(lines_with(&stream, needle), 3, "{kind}\n{stream}");
    let cases: Vec<PathBuf> = std::fs::read_dir(dir.join(kind))
        .unwrap_or_else(|e| panic!("{kind}: {e}"))
        .map(|entry| entry.unwrap().path())
        .collect();
    assert_eq!(cases.len(), 3, "{kind}: {cases:?}");
    for case in cases {
        for file in files {
            assert!(case.join(file).is_file(), "{}: no {file}", case.display());
        }
        let meta = std::fs::read_to_string(case.join("meta.json")).unwrap();
        assert!(meta.contains(&format!("\"{kind}\"")), "{meta}");
    }
}

/// Seed 42, 200 cases of every kind: every case clears the whole battery
/// (lockstep included, which skips no kind), and the stream is a pure
/// function of the arguments.
#[test]
fn seed_42_sweeps_200_cases_clean_and_byte_reproducibly() {
    let dir = harness::scratch_dir("sweep-42");
    let first = sweep(&dir, "sweep", "--seed 42 --count 200", true);
    assert_clean("seed 42", &first);
    assert_eq!(lines_with(&first.1, "\"lockstep_commits\":null"), 0);
    let again = sweep(&dir, "again", "--seed 42 --count 200", false);
    assert!(first == again, "seed 42: a second run differs");
    harness::scratch_cleanup(&dir);
}

/// Fork-heavy programs are the hybrid oracle's hard cases
/// (hart-allocation order).
#[test]
fn seed_1404_sweeps_60_fork_cases_clean() {
    let dir = harness::scratch_dir("sweep-fork");
    let args = "--seed 1404 --count 60 --kinds fork";
    assert_clean("seed 1404 fork", &sweep(&dir, "fork", args, true));
    harness::scratch_cleanup(&dir);
}

/// C programs only: every case clears the battery, ending in the
/// semantics oracle.
#[test]
fn seed_42_sweeps_200_c_cases_clean() {
    let dir = harness::scratch_dir("sweep-c");
    let args = "--seed 42 --count 200 --kinds c";
    assert_clean("seed 42 c", &sweep(&dir, "c", args, true));
    harness::scratch_cleanup(&dir);
}

/// A wild store trips the run oracle as a memory fault and shrinks to a
/// reproducer; a self-join hang passes static verification and is
/// caught as a deadlock.
#[test]
fn planted_runtime_bugs_are_found_classified_and_shrunk() {
    let dir = harness::scratch_dir("sweep-red");
    for (kind, needle) in [
        ("wild-store", "\"oracle\":\"run\",\"class\":\"mem\""),
        ("hang", "\"class\":\"deadlock\""),
    ] {
        let files = ["program.s", "shrunk.s", "meta.json", "dump.json"];
        assert_found(&dir, kind, 7, needle, &files);
    }
    harness::scratch_cleanup(&dir);
}

/// Each planted miscompilation passes the other nine oracles and is
/// caught by the semantics oracle alone.
#[test]
fn planted_miscompilations_are_caught_by_the_semantics_oracle() {
    let dir = harness::scratch_dir("sweep-codegen");
    let needle = "\"oracle\":\"semantics\",\"class\":\"divergence\"";
    let files = ["program.c", "shrunk.c", "meta.json"];
    for kind in [
        "codegen:chunk-bounds",
        "codegen:index-shift",
        "codegen:const-fold",
        "codegen:end-pointer",
    ] {
        assert_found(&dir, kind, 5, needle, &files);
    }
    harness::scratch_cleanup(&dir);
}
