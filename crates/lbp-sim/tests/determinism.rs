//! Cycle-determinism tests (the paper's central claim, §1 and §5):
//! the same program on the same data produces an identical cycle-by-cycle
//! event trace on every run — every fetch, commit, memory request, fork,
//! join and signal lands on the same cycle.

use lbp_asm::assemble;
use lbp_sim::{LbpConfig, Machine, Trace};

/// A program exercising every determinism-sensitive machinery at once:
/// fork/join across cores, out-of-order memory, remote bank traffic,
/// result transmission and multiplication latencies.
fn busy_program() -> String {
    "main:
    li    t0, -1
    addi  sp, sp, -8
    sw    ra, 0(sp)
    sw    t0, 4(sp)
    p_set t0
    la    ra, rp
    p_fn   t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la    a0, worker
    p_jalr ra, t0, a0
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_set t0
    la    a0, worker
    jalr  a0
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
rp:
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
worker:
    p_set a1
    srli  a1, a1, 16        # own hart number
    andi  a1, a1, 0x7f
    la    a2, table
    slli  a3, a1, 2
    add   a2, a2, a3
    li    a4, 0
    li    a5, 25
wloop:
    mul   a6, a5, a5
    add   a4, a4, a6
    addi  a5, a5, -1
    bnez  a5, wloop
    sw    a4, 0(a2)
    p_ret
.data
table: .word 0, 0, 0, 0, 0, 0, 0, 0"
        .to_string()
}

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
