//! Compiles and runs every shipped C sample in `examples/c/`, checking
//! their documented results — so the samples a user tries first can never
//! rot.
//!
//! Every sample now runs *differentially*: the documented result is
//! asserted against the interpreted outcome (lbp-sema's executable
//! semantics), and the differential harness independently demands the
//! compiled-and-simulated binary reproduce that outcome word for word.
//! A sample passing here therefore certifies compiler, simulator and
//! interpreter all agree on what the program means.

use lbp::sema::diff::{diff, required_cores, DiffReport};

fn diff_sample(name: &str) -> DiffReport {
    let path = format!("{}/examples/c/{name}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let cx = lbp::cc::front_end(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let image = lbp::cc::compile_checked(&cx, &Default::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .image;
    diff(
        &cx,
        &image,
        required_cores(&cx),
        100_000_000,
        &Default::default(),
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn global(report: &DiffReport, name: &str) -> Vec<i32> {
    report
        .outcome
        .global(name)
        .unwrap_or_else(|| panic!("global {name}"))
        .to_vec()
}

#[test]
fn hello_team_sample() {
    let report = diff_sample("hello_team.c");
    let v = global(&report, "v");
    assert_eq!(v, (1..=8).map(|x| x * x).collect::<Vec<i32>>());
}

#[test]
fn matmul_sample() {
    let report = diff_sample("matmul.c");
    let z = global(&report, "Z");
    assert_eq!(z.len(), 256);
    assert!(z.iter().all(|&v| v == 8), "Z must be all 8");
}

#[test]
fn set_get_sample() {
    let report = diff_sample("set_get.c");
    let w = global(&report, "w");
    assert_eq!(w.len(), 64);
    for (i, &v) in w.iter().enumerate() {
        assert_eq!(v, 3 * i as i32, "w[{i}]");
    }
}

#[test]
fn reduce_sample() {
    let report = diff_sample("reduce.c");
    let total = global(&report, "total")[0];
    let expect: i32 = (0..256).map(|i| i % 10).sum();
    assert_eq!(total, expect);
}
