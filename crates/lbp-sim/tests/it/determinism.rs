//! Cycle-determinism tests (the paper's central claim, §1 and §5):
//! the same program on the same data produces an identical cycle-by-cycle
//! event trace on every run — every fetch, commit, memory request, fork,
//! join and signal lands on the same cycle.

use lbp_asm::assemble;
use lbp_sim::{LbpConfig, Machine, Trace};

use crate::busy_program;

fn traced_run(cores: usize, src: &str) -> (Trace, u64, u64) {
    let image = assemble(src).unwrap();
    let mut m = Machine::new(LbpConfig::cores(cores), &image).unwrap();
    m.set_sink(Box::new(Trace::new()));
    let report = m.run(1_000_000).unwrap();
    (
        m.sink::<Trace>().unwrap().clone(),
        report.stats.cycles,
        report.stats.retired(),
    )
}

#[test]
fn identical_runs_produce_identical_traces() {
    let src = busy_program();
    let (t1, c1, r1) = traced_run(2, &src);
    let (t2, c2, r2) = traced_run(2, &src);
    assert_eq!(c1, c2, "cycle counts must match");
    assert_eq!(r1, r2, "retired-instruction counts must match");
    assert_eq!(t1.len(), t2.len(), "trace lengths must match");
    assert_eq!(t1, t2, "traces must be bit-identical");
    assert!(!t1.is_empty());
}

#[test]
fn many_replays_never_diverge() {
    let src = busy_program();
    let baseline = traced_run(2, &src);
    for _ in 0..5 {
        assert_eq!(traced_run(2, &src), baseline);
    }
}

#[test]
fn different_data_changes_the_run_deterministically() {
    // Same code, different initial data: still deterministic per input.
    let src_a = busy_program();
    let src_b = src_a.replace("li    a5, 25", "li    a5, 26");
    let a1 = traced_run(2, &src_a);
    let a2 = traced_run(2, &src_a);
    let b1 = traced_run(2, &src_b);
    assert_eq!(a1, a2);
    assert_ne!(a1.1, b1.1, "a longer loop takes more cycles");
}

#[test]
fn trace_is_off_by_default() {
    let image = assemble("main:\n  li t0, -1\n  li ra, 0\n  p_ret").unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    m.run(10_000).unwrap();
    assert!(m.sink::<Trace>().is_none());
    assert!(m.stats().retired() > 0);
}
