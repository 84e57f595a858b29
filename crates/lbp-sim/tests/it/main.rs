//! lbp-sim's integration tests: one module per suite, linked as one
//! binary.

mod capacity;
mod determinism;
mod differential;
mod observability;
mod programs;
mod robustness;
mod sleep_identity;
mod snapshot;
mod stall_invariant;
mod timing;
mod window_identity;

use lbp_sim::{Fault, FaultPlan};

/// The exit idiom: 0 in `ra`, the exit sentinel in `t0`.
const EXIT: &str = "li t0, -1\n    li ra, 0\n    p_ret\n";

/// The plan of the one fault `s` spells.
fn spec(s: &str) -> FaultPlan {
    [Fault::parse(s).unwrap()].into_iter().collect()
}

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
