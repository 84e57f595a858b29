//! The cross-process resume oracle, end to end: the battery re-execs
//! the real `lbp-fuzz` binary as `--resume-worker`, restores the
//! snapshot in that fresh process, and compares content hashes across
//! the boundary.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use lbp_fuzz::gen::{generate, GenConfig};
use lbp_fuzz::oracle::{check_with, CheckOpts};
use lbp_testutil::Rng;

fn fuzz_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_lbp-fuzz"))
}

#[test]
fn battery_passes_across_a_real_process_boundary() {
    let opts = CheckOpts {
        resume_exec: Some(fuzz_bin()),
    };
    // A handful of seeded programs, spanning the generator kinds.
    for case in 0..4 {
        let mut rng = Rng::new(lbp_fuzz::case_seed(41, case));
        let program = generate(&mut rng, &GenConfig::default(), case);
        if let Err(f) = check_with(&program, &opts) {
            panic!(
                "case {case}: oracle {} tripped ({}): {}\n---\n{}",
                f.oracle,
                f.class,
                f.detail,
                program.render()
            );
        }
    }
}

#[test]
fn missing_worker_executable_is_a_classified_failure() {
    let opts = CheckOpts {
        resume_exec: Some(PathBuf::from("/nonexistent/lbp-fuzz")),
    };
    let mut rng = Rng::new(lbp_fuzz::case_seed(41, 0));
    let program = generate(&mut rng, &GenConfig::default(), 0);
    let f = check_with(&program, &opts).unwrap_err();
    assert_eq!(f.oracle, "resume");
    assert_eq!(f.class, "worker");
}

#[test]
fn resume_worker_reports_the_final_hash() {
    // Drive the hidden mode directly: snapshot a paused machine, hand
    // the file to a fresh `lbp-fuzz --resume-worker`, and check its
    // reply against an in-process completion of the same run.
    let source = "main:
        li   t1, 400
        li   t2, 0
    loop:
        addi t2, t2, 1
        bne  t2, t1, loop
        li   t0, -1
        li   a0, 0
        p_ret a0, t0";
    let image = lbp_asm::assemble(source).unwrap();
    let cfg = lbp_sim::LbpConfig::cores(1);
    let mut m = lbp_sim::Machine::new(cfg, &image).unwrap();
    assert!(!m.run_to(100).unwrap());
    static ORDINAL: AtomicU64 = AtomicU64::new(0);
    let snap = std::env::temp_dir().join(format!(
        "lbp-fuzz-worker-test-{}-{}.lbpsnap",
        std::process::id(),
        ORDINAL.fetch_add(1, Ordering::Relaxed)
    ));
    lbp_snap::save(&m.snapshot(), &snap).unwrap();

    let mut expect = lbp_sim::Machine::restore(&m.snapshot()).unwrap();
    expect.run_diagnosed(100_000).unwrap();
    let want = format!(
        "{:016x} {}",
        lbp_snap::content_hash(&expect.snapshot()),
        expect.stats().cycles
    );

    let out = Command::new(fuzz_bin())
        .arg("--resume-worker")
        .arg(&snap)
        .arg("100000")
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&snap);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), want);
}
