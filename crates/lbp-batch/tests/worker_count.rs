//! The built `lbp-batch` over a small sweep of the shipped examples, with
//! one deliberate duplicate, one profiled twin and one hang: one worker
//! and two give the same `lbp-batch-v1` lines once sorted, and each line
//! says what the job is.

use std::path::Path;
use std::process::Command;

/// The sweep: `(id, program, cores, profiled)`.
const JOBS: [(&str, &str, u64, bool); 7] = [
    ("mul", "examples/asm/mul.s", 1, false),
    ("mul-again", "examples/asm/mul.s", 1, false),
    ("fork2", "examples/asm/fork2.s", 2, false),
    ("matmul", "examples/c/matmul.c", 4, false),
    ("matmul-prof", "examples/c/matmul.c", 4, true),
    ("reduce", "examples/c/reduce.c", 2, false),
    ("hung", "examples/asm/hung.s", 1, false),
];

/// The sorted output lines of a run on `workers` workers.
fn sorted_lines(manifest: &Path, workers: &str) -> Vec<String> {
    let out = manifest.with_file_name(format!("w{workers}.jsonl"));
    let status = Command::new(env!("CARGO_BIN_EXE_lbp-batch"))
        .arg(manifest)
        .args(["--workers", workers, "--out"])
        .arg(&out)
        .status()
        .expect("lbp-batch spawns");
    assert!(status.success(), "{workers} worker(s): {status}");
    let mut lines: Vec<String> = (std::fs::read_to_string(&out).unwrap().lines())
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

#[test]
fn the_worker_count_does_not_change_what_a_sweep_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let jobs: Vec<String> = (JOBS.iter())
        .map(|(id, program, cores, profiled)| {
            let program = root.join(program);
            let profile = if *profiled {
                r#", "profile": true"#
            } else {
                ""
            };
            format!(
                r#"{{"id": "{id}", "program": "{}", "cores": {cores}{profile}}}"#,
                program.display()
            )
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("lbp-batch-workers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("sweep.json");
    let text = format!(
        r#"{{"schema": "lbp-batch-manifest-v1", "jobs": [{}]}}"#,
        jobs.join(",\n")
    );
    std::fs::write(&manifest, text).unwrap();
    let serial = sorted_lines(&manifest, "1");
    assert_eq!(serial, sorted_lines(&manifest, "2"));
    let line = |id: &str| {
        let head = format!(r#"{{"schema":"lbp-batch-v1","id":"{id}","#);
        (serial.iter())
            .find(|line| line.starts_with(&head))
            .unwrap_or_else(|| panic!("no line for `{id}`"))
            .as_str()
    };
    // The duplicate dedupes, the hang is classified, the rest pass.
    assert!(line("mul-again").contains(r#""dedup_of":"mul""#));
    assert!(line("hung").contains(r#""status":"deadlock""#));
    // The profiled twin does not dedup against the plain matmul, and its
    // line carries the hot-function summary.
    let profiled = line("matmul-prof");
    assert!(profiled.contains(r#""dedup_of":null"#), "{profiled}");
    assert!(profiled.contains(r#""profile":[{"name""#), "{profiled}");
    let ok = (serial.iter()).filter(|line| line.contains(r#""status":"ok""#));
    assert_eq!(ok.count(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}
