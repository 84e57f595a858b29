//! End-to-end simulator tests: assemble small programs, run them, check
//! architectural results and microarchitectural properties.

use lbp_asm::assemble;
use lbp_isa::{HartId, Reg, SHARED_BASE};
use lbp_sim::{LbpConfig, Machine, SimError};

use crate::EXIT;

/// Assembles, runs to exit, and returns the machine for inspection.
fn run(cores: usize, src: &str) -> Machine {
    let image = assemble(src).expect("test program assembles");
    let mut m = Machine::new(LbpConfig::cores(cores), &image).expect("machine builds");
    let report = m.run(1_000_000).expect("program runs");
    assert!(report.exited, "program exits");
    m
}

#[test]
fn arithmetic_chain() {
    let m = run(
        1,
        &format!(
            "main:
    li   a0, 6
    li   a1, 7
    mul  a2, a0, a1
    addi a2, a2, -2
    la   a3, out
    sw   a2, 0(a3)
    {EXIT}
.data
out: .word 0"
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 40);
}

#[test]
fn loop_sums_first_n_integers() {
    let m = run(
        1,
        &format!(
            "main:
    li   a0, 0      # sum
    li   a1, 1      # i
    li   a2, 101
loop:
    add  a0, a0, a1
    addi a1, a1, 1
    bne  a1, a2, loop
    la   a3, out
    sw   a0, 0(a3)
    {EXIT}
.data
out: .word 0"
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 5050);
}

#[test]
fn division_and_remainder() {
    let m = run(
        1,
        &format!(
            "main:
    li   a0, 17
    li   a1, 5
    div  a2, a0, a1
    rem  a3, a0, a1
    la   a4, out
    sw   a2, 0(a4)
    sw   a3, 4(a4)
    {EXIT}
.data
out: .word 0, 0"
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 3);
    assert_eq!(m.peek_shared(SHARED_BASE + 4).unwrap(), 2);
}

#[test]
fn byte_and_half_accesses() {
    let m = run(
        1,
        &format!(
            "main:
    la   a0, buf
    li   a1, -1
    sb   a1, 0(a0)
    li   a2, 0x7fff
    sh   a2, 2(a0)
    lb   a3, 0(a0)      # sign-extended -1
    lhu  a4, 2(a0)
    la   a5, out
    sw   a3, 0(a5)
    sw   a4, 4(a5)
    {EXIT}
.data
buf: .word 0
out: .word 0, 0"
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE + 4).unwrap() as i32, -1);
    assert_eq!(m.peek_shared(SHARED_BASE + 8).unwrap(), 0x7fff);
}

#[test]
fn function_call_and_return() {
    let m = run(
        1,
        &format!(
            "main:
    li   a0, 20
    jal  double
    la   a1, out
    sw   a0, 0(a1)
    {EXIT}
double:
    add  a0, a0, a0
    ret
.data
out: .word 0"
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 40);
}

#[test]
fn stack_push_pop_on_local_bank() {
    let m = run(
        1,
        &format!(
            "main:
    addi sp, sp, -16
    li   a0, 111
    li   a1, 222
    sw   a0, 0(sp)
    sw   a1, 4(sp)
    p_syncm
    lw   a2, 0(sp)
    lw   a3, 4(sp)
    addi sp, sp, 16
    add  a4, a2, a3
    la   a5, out
    sw   a4, 0(a5)
    {EXIT}
.data
out: .word 0"
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 333);
}

#[test]
fn p_syncm_orders_store_before_load() {
    // Without p_syncm, the load could issue before the store completes
    // (LBP has no load/store queue). With it, the value is guaranteed.
    let m = run(
        1,
        &format!(
            "main:
    la   a0, cell
    li   a1, 77
    sw   a1, 0(a0)
    p_syncm
    lw   a2, 0(a0)
    la   a3, out
    sw   a2, 0(a3)
    {EXIT}
.data
cell: .word 0
out:  .word 0"
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE + 4).unwrap(), 77);
}

#[test]
fn remote_bank_access_works_across_cores() {
    // Data placed in bank 3 of a 4-core machine, accessed from core 0.
    let far = 3 * 64 * 1024; // bank 3 with default 64 KiB banks
    let m = run(
        4,
        &format!(
            "main:
    li   a0, {addr}
    li   a1, 4242
    sw   a1, 0(a0)
    p_syncm
    lw   a2, 0(a0)
    la   a3, out
    sw   a2, 0(a3)
    {EXIT}
.data
out: .word 0",
            addr = SHARED_BASE + far,
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 4242);
    assert!(m.stats().remote_accesses >= 2, "write+read were remote");
}

#[test]
fn two_harts_fork_join_and_share_work() {
    // Hart 0 forks hart 1; each stores its p_set identity; the team joins
    // back and main exits. Mirrors the paper's Figs. 6-8 protocol.
    let src = format!(
        "main:
    li    t0, -1
    addi  sp, sp, -8
    sw    ra, 0(sp)
    sw    t0, 4(sp)
    p_set t0
    la    ra, rp
    p_fc   t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la    a0, thread0
    p_jalr ra, t0, a0
    # --- continuation: runs on the forked hart ---
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_set t0
    la    a0, thread1
    jalr  a0
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
rp:
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    {EXIT}
thread0:
    la   a1, out
    li   a2, 100
    sw   a2, 0(a1)
    p_ret
thread1:
    la   a1, out
    li   a2, 200
    sw   a2, 4(a1)
    p_ret
.data
out: .word 0, 0"
    );
    let m = run(1, &src);
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 100);
    assert_eq!(m.peek_shared(SHARED_BASE + 4).unwrap(), 200);
    assert_eq!(m.stats().forks, 1);
    assert_eq!(m.stats().joins, 2); // the self-join and the final join
                                    // Both harts retired instructions.
    assert!(m.stats().retired_per_hart[0] > 0);
    assert!(m.stats().retired_per_hart[1] > 0);
}

#[test]
fn p_swre_p_lwre_synchronize_producer_consumer() {
    // Hart 0 forks hart 1; hart 1 computes and sends a value backward to
    // hart 0's result slot 3 with p_swre; hart 0 receives it with p_lwre
    // *before* the child even starts computing (out-of-order wait).
    let src = format!(
        "main:
    li    t0, -1
    addi  sp, sp, -8
    sw    ra, 0(sp)
    sw    t0, 4(sp)
    p_set t0
    la    ra, rp
    p_fc   t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la    a0, consumer
    p_jalr ra, t0, a0
    # --- forked hart: the producer; join directly back ---
    p_lwcv ra, 0
    p_lwcv t0, 4
    li    a1, 5
    li    a2, 8
    mul   a3, a1, a2
    p_swre a3, t0, 3      # send 40 to the join hart's slot 3
    p_ret                  # type 4: sends ra (=rp) to join hart
rp:
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    {EXIT}
consumer:
    p_lwre a4, 3          # blocks until the producer's p_swre lands
    la    a5, out
    sw    a4, 0(a5)
    p_ret
.data
out: .word 0"
    );
    let m = run(1, &src);
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 40);
}

#[test]
fn fork_on_next_core() {
    // p_fn allocates on core 1; the forked hart stores and joins back.
    let src = format!(
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
    la    a0, thread0
    p_jalr ra, t0, a0
    # --- continuation on core 1, hart 0 ---
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_set t0
    la    a0, thread1
    jalr  a0
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
rp:
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    {EXIT}
thread0:
    p_set a1
    la   a2, out
    sw   a1, 0(a2)
    p_ret
thread1:
    p_set a1
    la   a2, out
    sw   a1, 4(a2)
    p_ret
.data
out: .word 0, 0"
    );
    let m = run(2, &src);
    // thread0 ran on hart 0 (identity word upper = 0), thread1 on core 1
    // hart 0 (global hart 4).
    let w0 = m.peek_shared(SHARED_BASE).unwrap();
    let w1 = m.peek_shared(SHARED_BASE + 4).unwrap();
    assert_eq!((w0 >> 16) & 0x7fff, 0);
    assert_eq!((w1 >> 16) & 0x7fff, 4);
    assert!(m.stats().retired_per_hart[4] > 0, "core 1 hart 0 worked");
}

#[test]
fn p_fn_on_last_core_is_a_protocol_error() {
    let image = assemble("main:\n  p_fn t6\n  p_ret").unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    let err = m.run(10_000).unwrap_err();
    assert!(matches!(err, SimError::Protocol { .. }), "got {err:?}");
}

#[test]
fn runaway_program_times_out() {
    let image = assemble("main:\n  j main").unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    let err = m.run(1_000).unwrap_err();
    assert_eq!(err, SimError::Timeout { cycles: 1_000 });
}

#[test]
fn unmapped_access_faults() {
    let image = assemble(&format!(
        "main:\n  li a0, {}\n  lw a1, 0(a0)\n  p_ret",
        SHARED_BASE + 0x40_0000 // far beyond one core's bank
    ))
    .unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    let err = m.run(10_000).unwrap_err();
    assert!(matches!(err, SimError::Mem(_)), "got {err:?}");
}

#[test]
fn misaligned_access_faults() {
    let image =
        assemble("main:\n  la a0, cell\n  lw a1, 2(a0)\n  p_ret\n.data\ncell: .word 0, 0").unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    let err = m.run(10_000).unwrap_err();
    assert!(matches!(err, SimError::Mem(_)), "got {err:?}");
}

#[test]
fn register_state_visible_after_run() {
    let m = run(1, &format!("main:\n  li s2, 12345\n  {EXIT}"));
    assert_eq!(m.reg(HartId::FIRST, Reg::S2), 12345);
}

#[test]
fn branch_directions_both_execute() {
    let m = run(
        1,
        &format!(
            "main:
    li   a0, 0
    li   a1, 5
    blt  a1, a0, skip   # not taken
    addi a0, a0, 1
skip:
    bge  a1, a0, fwd    # taken
    addi a0, a0, 100    # skipped
fwd:
    la   a2, out
    sw   a0, 0(a2)
    {EXIT}
.data
out: .word 0"
        ),
    );
    assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 1);
}

#[test]
fn ipc_is_positive_and_bounded_by_core_count() {
    let m = run(
        1,
        &format!(
            "main:
    li   a0, 0
    li   a1, 2000
loop:
    addi a0, a0, 1
    bne  a0, a1, loop
    {EXIT}"
        ),
    );
    let ipc = m.stats().ipc();
    assert!(ipc > 0.1, "ipc {ipc} too low");
    assert!(ipc <= 1.0, "single core cannot exceed 1 IPC, got {ipc}");
}

#[test]
fn p_swre_to_bad_slot_is_a_protocol_error() {
    let image = assemble(
        "main:
    p_set t0
    li   a0, 9
    p_swre a0, t0, 99    # slot 99 >= the configured 8 slots
    li   t0, -1
    li   ra, 0
    p_ret",
    )
    .unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    let err = m.run(10_000).unwrap_err();
    assert!(matches!(err, SimError::Protocol { .. }), "{err:?}");
}

#[test]
fn start_to_unallocated_hart_is_a_protocol_error() {
    // p_jal to a hart that was never allocated by p_fc/p_fn.
    let image = assemble(
        "main:
    li   a0, 2          # hart 2 of core 0, never allocated
    p_jal ra, a0, 8
    li   t0, -1
    li   ra, 0
    p_ret",
    )
    .unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    let err = m.run(10_000).unwrap_err();
    assert!(matches!(err, SimError::Protocol { .. }), "{err:?}");
}

#[test]
fn stores_complete_before_a_hart_ends() {
    // A member stores and immediately p_rets (no explicit p_syncm): the
    // quiescent-p_ret rule makes the store visible to the code after the
    // barrier, architecturally and not by timing luck.
    let src = "main:
    li    t0, -1
    addi  sp, sp, -8
    sw    ra, 0(sp)
    sw    t0, 4(sp)
    p_set t0
    la    ra, rp
    p_fc   t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la    a0, writer
    p_jalr ra, t0, a0
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_set t0
    la    a0, writer
    jalr  a0
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
rp:
    la    a1, cell
    lw    a2, 0(a1)      # must observe the last member's store
    sw    a2, 4(a1)
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
writer:
    la    a1, cell
    p_set a2
    srli  a2, a2, 16
    andi  a2, a2, 0x7f
    addi  a2, a2, 1
    sw    a2, 0(a1)      # store, then p_ret with NO p_syncm
    p_ret
.data
cell: .word 0, 0";
    let image = assemble(src).unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    m.run(1_000_000).unwrap();
    // The last writer in the sequential order is the second member
    // (hart 1), so the copy must read 1+1 = 2.
    assert_eq!(m.peek_shared(SHARED_BASE + 4).unwrap(), 2);
}
