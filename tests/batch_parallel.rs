//! Acceptance test for `lbp-batch`: a 16-job `matmul.c` sweep must
//! produce the same results (modulo line order) on four workers as on
//! one, and the pool must actually buy wall-clock time on a
//! multi-core host.

use std::path::Path;
use std::time::{Duration, Instant};

use lbp_batch::{load_manifest, run_batch, BatchJob, SourceKind};

/// The 16-job sweep: 4 core counts x 4 cycle budgets, all distinct work.
fn sweep() -> Vec<BatchJob> {
    let source = std::fs::read_to_string(format!(
        "{}/examples/c/matmul.c",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("matmul.c ships with the repo");
    let mut jobs = Vec::new();
    // matmul.c forks a four-wide team, so 4 cores is the floor.
    for &cores in &[4usize, 8, 16, 32] {
        for &max_cycles in &[2_000_000u64, 3_000_000, 4_000_000, 5_000_000] {
            jobs.push(BatchJob {
                id: format!("matmul-c{cores}-m{max_cycles}"),
                source: source.clone(),
                kind: SourceKind::C,
                cores,
                max_cycles,
                faults: Vec::new(),
                profile: false,
                warm: None,
            });
        }
    }
    jobs
}

/// Runs the sweep and returns (sorted result lines, elapsed time).
fn run(jobs: &[BatchJob], workers: usize) -> (Vec<String>, Duration) {
    let mut out = Vec::new();
    let started = Instant::now();
    let summary = run_batch(jobs, workers, &mut out).expect("in-memory writer");
    let elapsed = started.elapsed();
    assert_eq!(summary.jobs, 16);
    assert_eq!(summary.unique, 16, "every sweep point is distinct work");
    assert_eq!(summary.failed, 0);
    let mut lines: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 16, "one JSONL line per job");
    lines.sort();
    (lines, elapsed)
}

#[test]
fn four_workers_match_one_worker_line_for_line() {
    let jobs = sweep();
    let (serial, serial_time) = run(&jobs, 1);
    let (parallel, parallel_time) = run(&jobs, 4);
    assert_eq!(
        serial, parallel,
        "worker count must not change any result line"
    );
    for line in &serial {
        assert!(line.contains("\"status\":\"ok\""), "job failed: {line}");
    }
    // The speedup claim only holds where the hardware can deliver it, and
    // wall-clock comparisons are only meaningful when they do.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            parallel_time < serial_time,
            "4 workers ({parallel_time:.2?}) should beat 1 worker ({serial_time:.2?}) on a {cores}-way host"
        );
    }
}

#[test]
fn manifest_driven_sweep_agrees_with_programmatic_jobs() {
    // The same sweep expressed as an lbp-batch-manifest-v1 document must
    // load into byte-equal jobs (hash-for-hash) and results.
    let mut manifest = String::from("{\"schema\": \"lbp-batch-manifest-v1\", \"jobs\": [");
    for (i, job) in sweep().iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        manifest.push_str(&format!(
            "{{\"id\": \"{}\", \"program\": \"examples/c/matmul.c\", \
             \"cores\": {}, \"max_cycles\": {}}}",
            job.id, job.cores, job.max_cycles
        ));
    }
    manifest.push_str("]}");
    let loaded = load_manifest(&manifest, std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("manifest loads");
    let direct = sweep();
    assert_eq!(loaded.len(), direct.len());
    for (a, b) in loaded.iter().zip(&direct) {
        assert_eq!(lbp_batch::job_hash(a), lbp_batch::job_hash(b), "{}", a.id);
    }
}

/// A key given twice is refused at the repeat, not read as its first
/// copy: a second `jobs` would drop its jobs, a second `cores` its count.
#[test]
fn a_manifest_that_repeats_a_key_is_refused_at_the_repeat() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR"));
    let jobs = r#"{"schema": "lbp-batch-manifest-v1",
        "jobs": [{"id": "a", "program": "examples/asm/mul.s"}],
        "jobs": [{"id": "b", "program": "examples/asm/mul.s"},
                 {"id": "c", "program": "examples/asm/mul.s"}]}"#;
    let cores = r#"{"schema": "lbp-batch-manifest-v1", "jobs": [{"id": "a",
        "program": "examples/asm/mul.s", "cores": 2, "cores": 8}]}"#;
    for (text, key) in [(jobs, "\"jobs\""), (cores, "\"cores\"")] {
        let err = load_manifest(text, base).expect_err(text).to_string();
        let want = format!("at byte {}: duplicate key", text.rfind(key).unwrap());
        assert!(err.ends_with(&want), "{err}");
    }
}
