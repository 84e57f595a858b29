//! Journal-level crash recovery, driven through the real binary: torn
//! tails are discarded and the sweep finishes; a crash mid-attempt
//! charges the attempt and requeues the job; damage to committed
//! mid-file history is refused, never silently truncated.

use std::path::{Path, PathBuf};
use std::process::Command;

use lbp_sim::{Engine, Json};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lbp-batch-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_manifest(dir: &Path) -> PathBuf {
    std::fs::write(
        dir.join("p.s"),
        "main:
            li   t1, 1200
            li   t2, 0
        loop:
            addi t2, t2, 1
            bne  t2, t1, loop
            li   t0, -1
            li   a0, 0
            p_ret a0, t0",
    )
    .unwrap();
    let path = dir.join("manifest.json");
    std::fs::write(
        &path,
        r#"{"schema": "lbp-batch-manifest-v1",
            "jobs": [{"id": "only", "program": "p.s", "max_cycles": 100000}]}"#,
    )
    .unwrap();
    path
}

fn cmd(manifest: &Path, state: &Path) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_lbp-batch"));
    c.arg(manifest).arg("--state-dir").arg(state).args([
        "--workers",
        "1",
        "--checkpoint-every",
        "300",
        "--slice",
        "64",
    ]);
    c
}

/// Journal records as `(op, attempt)` pairs, in order.
fn journal_ops(state: &Path) -> Vec<(String, Option<u64>)> {
    std::fs::read_to_string(state.join("journal.jsonl"))
        .unwrap()
        .lines()
        .map(|l| {
            let rec = Json::parse(l).unwrap();
            let rec = rec.get("rec").unwrap();
            (
                rec.get("op").and_then(Json::as_str).unwrap().to_owned(),
                rec.get("attempt").and_then(Json::as_u64),
            )
        })
        .collect()
}

#[test]
fn torn_tail_is_recovered_and_the_sweep_finishes() {
    let dir = scratch("torn");
    let manifest = write_manifest(&dir);
    let state = dir.join("state");
    // Crash after the 4th append — Start, Manifest, Queued, Running —
    // leaving a torn half-record behind the committed Running.
    let status = cmd(&manifest, &state)
        .args(["--crash-after-appends", "4", "--crash-torn"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(86), "the crash hook must fire");
    let raw = std::fs::read_to_string(state.join("journal.jsonl")).unwrap();
    assert!(
        !raw.ends_with('\n'),
        "the tear left a partial final line: {raw:?}"
    );

    let out = cmd(&manifest, &state).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "recovery failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = std::fs::read_to_string(state.join("results.jsonl")).unwrap();
    let v = Json::parse(results.lines().next().unwrap()).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_mid_attempt_charges_the_attempt_and_requeues() {
    let dir = scratch("requeue");
    let manifest = write_manifest(&dir);
    let state = dir.join("state");
    let status = cmd(&manifest, &state)
        .args(["--crash-after-appends", "4"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(86));
    let ops = journal_ops(&state);
    assert_eq!(
        ops.last().unwrap(),
        &("running".to_owned(), Some(1)),
        "the crash landed mid-attempt: {ops:?}"
    );

    assert_eq!(cmd(&manifest, &state).status().unwrap().code(), Some(0));
    let ops = journal_ops(&state);
    assert!(
        ops.contains(&("running".to_owned(), Some(2))),
        "the spent attempt must be charged and the job retried as \
         attempt 2: {ops:?}"
    );
    assert_eq!(ops.last().unwrap().0, "final");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_job_resumes_from_its_checkpoint() {
    let dir = scratch("resume");
    let manifest = write_manifest(&dir);
    let state = dir.join("state");
    // Crash well into the job, after several checkpoint records.
    let status = cmd(&manifest, &state)
        .args(["--crash-after-appends", "7"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(86));
    let ops = journal_ops(&state);
    let checkpoints = ops.iter().filter(|(op, _)| op == "checkpoint").count();
    assert!(checkpoints >= 2, "need checkpoints to resume from: {ops:?}");

    let out = cmd(&manifest, &state).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    // The restart reported a resumed attempt on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 resumed"),
        "expected a checkpoint resume, got: {stderr}"
    );
    let results = std::fs::read_to_string(state.join("results.jsonl")).unwrap();
    let v = Json::parse(results.lines().next().unwrap()).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A warm job's machine descends from the functional engine's clock, so
/// every checkpoint of it says so: those of the first attempt, and those
/// of the attempt resumed from one of them.
#[test]
fn a_warm_jobs_checkpoints_carry_the_functional_mark_across_a_resume() {
    let dir = scratch("warm");
    // The committed listing, so a code-generation change cannot move
    // which checkpoints exist: 7,256 cycles cold, and the cycle-exact
    // run starts at virtual cycle 1,923 after the warm phase.
    let matmul =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/compiled/matmul.s");
    std::fs::copy(matmul, dir.join("matmul.s")).unwrap();
    let manifest = dir.join("manifest.json");
    std::fs::write(
        &manifest,
        r#"{"schema": "lbp-batch-manifest-v1",
            "jobs": [{"program": "matmul.s", "cores": 4, "warm": 5000}]}"#,
    )
    .unwrap();
    let state = dir.join("state");
    let run = |crash_after: &str| {
        let mut c = Command::new(env!("CARGO_BIN_EXE_lbp-batch"));
        c.arg(&manifest).arg("--state-dir").arg(&state);
        c.args([
            "--workers",
            "1",
            "--checkpoint-every",
            "1000",
            "--slice",
            "1000",
        ]);
        c.args(["--crash-after-appends", crash_after]);
        assert_eq!(c.status().unwrap().code(), Some(86));
    };
    // Every checkpoint file on disk, with the engine its state records.
    let checkpoints = || -> Vec<(String, Engine)> {
        std::fs::read_dir(state.join("ck"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "lbpsnap"))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, lbp_snap::load(&p).unwrap().engine())
            })
            .collect()
    };
    // Start, manifest, queued, running, then four checkpoints.
    run("8");
    let first = checkpoints();
    assert!(
        first.iter().any(|(name, _)| name == "job0.c3923.lbpsnap"),
        "{first:?}"
    );
    // Start, running, then one checkpoint of the resumed attempt.
    run("3");
    let second = checkpoints();
    let resumed: Vec<_> = second.iter().filter(|c| !first.contains(c)).collect();
    assert!(
        !resumed.is_empty(),
        "the resumed attempt checkpointed: {second:?}"
    );
    for (name, engine) in &second {
        assert_eq!(*engine, Engine::Functional, "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_file_corruption_is_refused_with_a_diagnostic() {
    let dir = scratch("corrupt");
    let manifest = write_manifest(&dir);
    let state = dir.join("state");
    assert_eq!(cmd(&manifest, &state).status().unwrap().code(), Some(0));

    // Damage a committed record in the middle of the journal.
    let journal = state.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert!(lines.len() >= 3);
    lines[1] = lines[1].replace(':', ";");
    let damaged = lines.join("\n") + "\n";
    std::fs::write(&journal, &damaged).unwrap();

    let out = cmd(&manifest, &state).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "damage must abort, not resume");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("corrupt") && stderr.contains("torn"),
        "diagnostic must name the failure mode: {stderr}"
    );
    // The refusal leaves the journal exactly as it found it.
    let after = std::fs::read(&journal).unwrap();
    assert!(
        after == damaged.as_bytes(),
        "the refusal changed the journal"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
