//! Capacity and fairness stress tests: saturated receive slots and
//! unbalanced teams must stall deterministically, never deadlock or
//! corrupt results. (A full in-flight window is `hart.rs`'s unit test.)

use lbp_omp::DetOmp;
use lbp_sim::{LbpConfig, Machine};

#[test]
fn issue_slots_are_shared_fairly_between_harts() {
    // Four members on one core doing identical independent ALU work must
    // retire within a few percent of one another: the round-robin
    // selection cannot starve anyone.
    let p = DetOmp::new(4)
        .function(
            "spin",
            "li   a2, 3000
f_loop:
    addi a3, a3, 1
    xori a3, a3, 3
    addi a2, a2, -1
    bnez a2, f_loop
    p_ret",
        )
        .parallel_for("spin");
    let image = p.build().unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    m.run(10_000_000).unwrap();
    let per_hart = &m.stats().retired_per_hart;
    let min = *per_hart.iter().min().unwrap() as f64;
    let max = *per_hart.iter().max().unwrap() as f64;
    assert!(min > 0.0);
    assert!(max / min < 1.05, "unfair issue distribution: {per_hart:?}");
}

#[test]
fn queued_results_drain_in_fifo_order() {
    // All four members send to hart 0's slot 0 before anyone reads: the
    // slot queues and the collector drains all four values.
    let p = DetOmp::new(4)
        .data_space("q_out", 4)
        .function(
            "send",
            "addi a2, a0, 1
             p_swre a2, t1, 0
             p_ret",
        )
        .parallel_for("send")
        .collect_reduction(0, 4, lbp_omp::ReduceOp::Add, "q_out");
    let image = p.build().unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    m.run(10_000_000).unwrap();
    assert_eq!(
        m.peek_shared(image.symbol("q_out").unwrap()).unwrap(),
        1 + 2 + 3 + 4
    );
}

#[test]
fn all_four_harts_forking_simultaneously_serializes_cleanly() {
    // An 8-member team on 2 cores: the four core-0 members finish and
    // free their harts while core-1 members still run; then a second
    // region reuses everything. Allocation queues must handle the churn.
    let p = DetOmp::new(8)
        .data_space("c_out", 32)
        .function(
            "mark",
            "la   a2, c_out
             slli a3, a0, 2
             add  a2, a2, a3
             lw   a4, 0(a2)
             p_syncm
             addi a4, a4, 1
             sw   a4, 0(a2)
             p_ret",
        )
        .parallel_for("mark")
        .parallel_for("mark")
        .parallel_for("mark")
        .parallel_for("mark");
    let image = p.build().unwrap();
    let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
    m.run(10_000_000).unwrap();
    let base = image.symbol("c_out").unwrap();
    for t in 0..8 {
        assert_eq!(m.peek_shared(base + 4 * t).unwrap(), 4, "member {t}");
    }
}
