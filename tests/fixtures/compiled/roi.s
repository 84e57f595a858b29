    # Compiled by lbp-cc at 42507779b3e1114f17bfface86106db9d666faa6 (Deterministic OpenMP translator)

main:
    addi sp, sp, -96
    sw   ra, 0(sp)
    li   t0, -1
    sw   t0, 4(sp)
    p_set t0
    sw   s4, 8(sp)
    sw   s5, 12(sp)

    # --- parallel region: 8 team member(s) ---
    p_set t0
    li   a1, 0
    la   s0, _cc_omp_fn_2
    la   ra, _L_join_0
    li   s1, 0
    li   s2, 8
_L_team_1:
    addi t5, s2, -1
    beq  s1, t5, _L_last_2
    andi t4, s1, 3
    addi t3, zero, 3
    beq  t4, t3, _L_fnext_3
    p_fc t6
    j    _L_forked_4
_L_fnext_3:
    p_fn t6
_L_forked_4:
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_swcv s0, t6, 8
    p_swcv a1, t6, 12
    p_swcv s2, t6, 20
    addi s1, s1, 1
    p_swcv s1, t6, 16
    addi s1, s1, -1
    p_merge t0, t0, t6
    p_syncm
    mv   s3, s0
    mv   a0, s1
    mv   t1, t0
    p_jalr ra, t0, s3
    # -- continuation: runs on the freshly forked hart --
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_lwcv s0, 8
    p_lwcv a1, 12
    p_lwcv s1, 16
    p_lwcv s2, 20
    j    _L_team_1
_L_last_2:
    mv   s3, s0
    mv   a0, s1
    mv   t1, t0
    p_set t0
    jalr s3
    # -- resumed by the self-join; forward to the join hart --
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_ret
_L_join_0:
__roi_start:
    nop
    li   s5, 0
    li   s4, 0
    la   a7, data
_cc_for_3:
    p_syncm
    lw   t2, 0(a7)
    add  s5, s5, t2
_cc_fstep_5:
    addi s4, s4, 1
    addi a7, a7, 4
    li   t2, 8
    blt  s4, t2, _cc_for_3
_cc_fend_4:
    la   t2, out
    li   t3, 0
    add  t3, t3, t2
    sw   s5, 0(t3)
__roi_end:
    nop
_cc_main_end_1:
    p_syncm
    lw   ra, 0(sp)
    lw   t0, 4(sp)
    lw   s4, 8(sp)
    lw   s5, 12(sp)
    p_syncm
    addi sp, sp, 96
    p_ret

fill:
    addi sp, sp, -96
    sw   ra, 0(sp)
    sw   s4, 8(sp)
    mv   s4, a0
    li   t2, 3
    mul  t2, s4, t2
    slli t3, s4, 2
    la   t4, data
    add  t3, t3, t4
    sw   t2, 0(t3)
_cc_fill_end_6:
    p_syncm
    lw   ra, 0(sp)
    lw   s4, 8(sp)
    p_syncm
    addi sp, sp, 96
    ret

_cc_omp_fn_2:
    addi sp, sp, -96
    sw   ra, 0(sp)
    sw   s4, 8(sp)
    mv   s4, a0
    sw   s4, 68(sp)
    p_syncm
    lw   a0, 68(sp)
    jal  fill
_cc__cc_omp_fn_2_end_7:
    p_syncm
    lw   ra, 0(sp)
    lw   s4, 8(sp)
    p_syncm
    addi sp, sp, 96
    p_ret

    .data
    .align 4
data:
    .space 32
    .align 4
out:
    .space 4
