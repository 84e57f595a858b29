//! Property test for the stall-attribution invariant (observability
//! layer): every core's cycles are fully partitioned between retirements
//! and attributed stall slots — `retired + stalls == cycles` — and the
//! partition must survive *every* fault-plan variant, whatever the run's
//! outcome (clean exit, timeout, deadlock, or a fatal fault).
//!
//! The only slack allowed: when a tick aborts mid-cycle (decode, memory
//! or protocol fault) the global cycle counter has not been bumped yet,
//! so a core that already accounted the failing cycle may be one ahead.

use lbp_asm::assemble;
use lbp_sim::{Fault, FaultPlan, LbpConfig, Machine, Stats};

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
    srli  a1, a1, 16
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

/// Asserts the partition for every core of the machine. `exact` demands
/// equality; otherwise a core may be one cycle ahead of the stale global
/// counter (mid-tick abort).
fn assert_partition(stats: &Stats, cores: usize, exact: bool, label: &str) {
    for core in 0..cores {
        let retired = stats.retired_by_core(core);
        let stalls = stats.stalls_of_core(core).total();
        let sum = retired + stalls;
        if exact {
            assert_eq!(
                sum, stats.cycles,
                "{label}: core {core}: retired {retired} + stalls {stalls} != cycles {}",
                stats.cycles
            );
        } else {
            assert!(
                sum == stats.cycles || sum == stats.cycles + 1,
                "{label}: core {core}: retired {retired} + stalls {stalls} vs cycles {}",
                stats.cycles
            );
        }
    }
}

/// Runs the torture program under `plan` and checks the partition on
/// whatever outcome the plan produces.
fn check(plan: FaultPlan, max_cycles: u64, label: &str) {
    use lbp_sim::SimError;
    let cores = 2;
    let image = assemble(&busy_program()).unwrap();
    let mut m = Machine::new(LbpConfig::cores(cores).with_faults(plan), &image)
        .unwrap_or_else(|e| panic!("{label}: config rejected: {e}"));
    let exact = match m.run(max_cycles) {
        // Clean exit, timeout and deadlock all leave the cycle counter
        // synchronized with the cores.
        Ok(_) | Err(SimError::Timeout { .. }) | Err(SimError::Deadlock { .. }) => true,
        // Mid-tick aborts may leave one core a cycle ahead.
        Err(_) => false,
    };
    assert_partition(m.stats(), cores, exact, label);
}

fn spec(s: &str) -> FaultPlan {
    [Fault::parse(s).unwrap()].into_iter().collect()
}

#[test]
fn clean_run_partitions_exactly() {
    check(FaultPlan::none(), 1_000_000, "clean");
}

#[test]
fn partition_holds_under_flip_reg() {
    for cycle in [1, 10, 100] {
        check(
            spec(&format!("flip-reg:0:a5:2:{cycle}")),
            1_000_000,
            "flip-reg",
        );
    }
}

#[test]
fn partition_holds_under_flip_mem() {
    check(spec("flip-mem:0x80000000:7:40"), 1_000_000, "flip-mem");
}

#[test]
fn partition_holds_under_corrupt_instr() {
    // XOR the first code word: usually a decode fault mid-tick.
    check(spec("corrupt-instr:0x0:0xffffffff:1"), 1_000_000, "corrupt");
    // A subtler corruption of a later word.
    check(
        spec("corrupt-instr:0x8:0x00000100:5"),
        1_000_000,
        "corrupt2",
    );
}

#[test]
fn partition_holds_under_drop_msg() {
    // Dropping fabric messages typically deadlocks the fork protocol.
    for nth in 0..4 {
        check(spec(&format!("drop-msg:{nth}")), 200_000, "drop-msg");
    }
}

#[test]
fn partition_holds_under_delay_msg() {
    for (nth, cycles) in [(0, 7), (1, 40), (3, 1)] {
        check(
            spec(&format!("delay-msg:{nth}:{cycles}")),
            1_000_000,
            "delay-msg",
        );
    }
}

#[test]
fn partition_holds_on_timeout() {
    check(FaultPlan::none(), 50, "timeout");
}

#[test]
fn partition_survives_snapshot_restore() {
    // The partition is part of the serialized stats: a restored machine
    // must keep satisfying it as it runs on.
    let image = assemble(&busy_program()).unwrap();
    let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
    m.run_to(100).unwrap();
    let mut r = Machine::restore(&m.snapshot()).unwrap();
    assert_partition(r.stats(), 2, true, "restored@100");
    r.run(1_000_000).unwrap();
    assert_partition(r.stats(), 2, true, "restored+run");
}

/// An empty fork-join team of 16 on 8 cores, with `body` as the member
/// function (`a0` is the member's index). Members 12–15 run on core 3,
/// by which time cores 1 and 2 have ended theirs and idle; cores 4–7 are
/// never used; core 0 holds the hart waiting for the join.
fn team_of_16(body: &str) -> lbp_asm::Image {
    lbp_omp::DetOmp::new(16)
        .function("work", body)
        .parallel_for("work")
        .build()
        .unwrap()
}

/// `body` for every member but 13 (core 3, hart 1), which runs `fatal`
/// first.
fn member_13_runs(fatal: &str) -> String {
    format!("li a2, 13\n bne a0, a2, work_ok\n {fatal}\nwork_ok:\n p_ret")
}

/// A run that dies in the middle of a cycle leaves the cores that came
/// before the failing one charged for that cycle and the others not,
/// whether they were ticking or idle: idle cores are charged for the
/// cycles they sit out exactly as if they had ticked through them. The
/// constants are the `lbp-stats-v1` bytes of the commit before idle cores
/// were first skipped (e15919a), which ticked every core every cycle.
#[test]
fn a_run_that_dies_mid_tick_keeps_the_parents_per_core_counters() {
    use lbp_sim::SimError;
    let empty = "p_ret".to_owned();
    let hung = assemble(include_str!("../../../examples/asm/hung.s")).unwrap();
    // (what, program, fault plan, cores charged for the failing cycle, pin)
    let cases = [
        (
            "decode fault in core 3's tick",
            team_of_16(&empty),
            spec("corrupt-instr:216:0xffffffff:800"),
            4,
            0x12fd_e96e_e24d_bdf6u64,
        ),
        (
            "protocol fault in core 3's tick",
            team_of_16(&member_13_runs("lw a3, 0(zero)")),
            FaultPlan::none(),
            4,
            0xf9db_3454_8cb4_8095,
        ),
        (
            "misaligned access at core 3's bank port",
            team_of_16(&member_13_runs("lw a3, 1(sp)")),
            FaultPlan::none(),
            8,
            0x737b_565f_317f_294b,
        ),
        (
            "protocol fault in the delivery to core 0",
            team_of_16(&member_13_runs("p_swre a0, t1, 8")),
            FaultPlan::none(),
            0,
            0xd8b5_6432_b808_b7f4,
        ),
        (
            "deadlock",
            hung,
            FaultPlan::none(),
            0,
            0x5b40_296f_bf22_be30,
        ),
    ];
    for (what, image, plan, charged, pin) in cases {
        let mut m = Machine::new(LbpConfig::cores(8).with_faults(plan), &image).unwrap();
        let err = m.run(100_000).expect_err(what);
        assert!(!matches!(err, SimError::Timeout { .. }), "{what}: {err}");
        let stats = m.stats();
        for core in 0..8 {
            let sum = stats.retired_by_core(core) + stats.stalls_of_core(core).total();
            let expect = stats.cycles + u64::from(core < charged);
            assert_eq!(sum, expect, "{what}: core {core} after `{err}`");
        }
        for idle in [1, 2, 4, 7] {
            assert!(stats.stalls_of_core(idle).idle > 0, "{what}: core {idle}");
        }
        let json = stats.to_json().to_string();
        assert_eq!(lbp_sim::fnv1a64(json.as_bytes()), pin, "{what}: {json}");
    }
}
