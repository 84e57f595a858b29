//! Microarchitectural timing tests: exact cycle counts for tiny programs,
//! documenting the pipeline model (and pinning it — any change to these
//! numbers is a deliberate microarchitecture change).

use lbp_asm::assemble;
use lbp_sim::{LbpConfig, Machine};

/// Runs to exit and returns the cycle count.
fn cycles(src: &str) -> u64 {
    let image = assemble(src).expect("assembles");
    let mut m = Machine::new(LbpConfig::cores(1), &image).expect("machine");
    m.run(1_000_000).expect("runs").stats.cycles
}

/// The exit idiom costs a fixed number of cycles; everything else is
/// measured as a delta against this baseline.
fn baseline() -> u64 {
    cycles("main:\n li t0, -1\n li ra, 0\n p_ret")
}

#[test]
fn straight_line_alu_is_two_cycles_per_instruction_single_hart() {
    // Every fetch suspends until decode resolves the next pc one cycle
    // later: a lone hart runs straight-line code at 0.5 IPC.
    let base = baseline();
    let n = 64;
    let body = "    addi a0, a0, 1\n".repeat(n);
    let total = cycles(&format!(
        "main:\n{body}    li t0, -1\n    li ra, 0\n    p_ret"
    ));
    let per_instr = (total - base) as f64 / n as f64;
    assert!(
        (1.9..=2.1).contains(&per_instr),
        "expected ~2 cycles/instruction, got {per_instr} ({total} vs {base})"
    );
}

#[test]
fn taken_branch_costs_one_extra_cycle_over_fallthrough() {
    // A conditional branch resolves at execute, not decode: the fetch
    // bubble is one cycle longer than straight-line code's.
    let n = 32;
    let mut fall = String::from("main:\n    li a1, 1\n");
    let mut take = String::from("main:\n    li a1, 1\n");
    for i in 0..n {
        // Never-taken branch: falls through.
        fall.push_str(&format!("    beqz a1, f{i}\nf{i}:\n"));
        // Always-taken branch to the next line: same instruction count.
        take.push_str(&format!("    bnez a1, t{i}\nt{i}:\n"));
    }
    for s in [&mut fall, &mut take] {
        s.push_str("    li t0, -1\n    li ra, 0\n    p_ret");
    }
    let (cf, ct) = (cycles(&fall), cycles(&take));
    // Both pay the execute-resolution latency; the *taken* direction must
    // not be slower (there is no predictor to mispredict).
    let diff = ct.abs_diff(cf);
    assert!(diff <= n as u64 / 8, "taken vs fallthrough: {ct} vs {cf}");
    // And both are slower than unconditional straight-line code.
    let straight = cycles(&format!(
        "main:\n    li a1, 1\n{}    li t0, -1\n    li ra, 0\n    p_ret",
        "    addi a2, a2, 1\n".repeat(n)
    ));
    assert!(cf > straight, "branches must cost more: {cf} vs {straight}");
}

#[test]
fn division_blocks_the_result_buffer() {
    // A dependent chain of divisions runs at the divider latency; an
    // independent ALU chain on the same hart cannot overtake it because
    // the 1-entry result buffer serializes issue.
    let base = baseline();
    let n = 16;
    let divs = cycles(&format!(
        "main:\n    li a0, 1000000\n    li a1, 3\n{}    li t0, -1\n    li ra, 0\n    p_ret",
        "    div a0, a0, a1\n".repeat(n)
    ));
    let div_cost = (divs - base) as f64 / n as f64;
    // Every divider takes 12 cycles (`DIV_LATENCY` in lbp-sim).
    assert!(
        div_cost >= 11.0,
        "a division chain must pay the 12-cycle divider: {div_cost}"
    );
}

#[test]
fn four_harts_quadruple_single_hart_alu_throughput() {
    // The same total instruction budget, spread over 1 vs 4 harts via
    // the fork protocol, finishes ~2x faster (0.5 -> 1.0 IPC).
    use lbp_omp::DetOmp;
    let spin = "li   a2, 500
spinx:
    addi a3, a3, 1
    addi a2, a2, -1
    bnez a2, spinx
    p_ret";
    let run = |members: usize| {
        let p = DetOmp::new(members)
            .function("spin", spin)
            .parallel_for("spin");
        let image = p.build().unwrap();
        let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
        let r = m.run(1_000_000).unwrap();
        (r.stats.cycles, r.stats.retired())
    };
    let (c1, _) = run(1);
    let (c4, r4) = run(4);
    // Four members retire ~4x the instructions of one member...
    assert!(r4 > 5500, "four members must retire 4 spins: {r4}");
    // ...in less than twice the time.
    assert!(
        c4 < c1 * 2,
        "multithreading must hide the fetch bubbles: {c4} vs {c1}"
    );
}

#[test]
fn local_load_latency_is_a_few_cycles() {
    let base = baseline();
    let n = 32;
    // Dependent load chain from the local stack (pointer chasing the
    // same cell).
    let prog = format!(
        "main:
    addi sp, sp, -8
    sw   sp, 0(sp)
    p_syncm
{}    addi sp, sp, 8
    li t0, -1
    li ra, 0
    p_ret",
        "    lw   t2, 0(sp)\n".repeat(n)
    );
    let total = cycles(&prog);
    let per_load = (total - base) as f64 / n as f64;
    assert!(
        (2.0..=6.0).contains(&per_load),
        "local load should cost a few cycles: {per_load}"
    );
}

#[test]
fn remote_load_pays_router_hops() {
    // The same load chain against a remote bank on a 16-core machine
    // (bank 15 from core 0: core->r1->r2->r1'->bank and back).
    let image_local = assemble(
        &("main:\n    la a4, here\n".to_owned()
            + &"    lw t2, 0(a4)\n".repeat(32)
            + "    li t0, -1\n    li ra, 0\n    p_ret\n.data\nhere: .word 7"),
    )
    .unwrap();
    let far_addr = lbp_isa::SHARED_BASE + 15 * 64 * 1024;
    let image_remote = assemble(
        &(format!("main:\n    li a4, {far_addr}\n")
            + &"    lw t2, 0(a4)\n".repeat(32)
            + "    li t0, -1\n    li ra, 0\n    p_ret"),
    )
    .unwrap();
    let run = |image: &lbp_asm::Image| {
        let mut m = Machine::new(LbpConfig::cores(16), image).unwrap();
        m.run(1_000_000).unwrap().stats.cycles
    };
    let (local, remote) = (run(&image_local), run(&image_remote));
    assert!(
        remote > local + 6 * 32 / 2,
        "remote loads must pay the router: {remote} vs {local}"
    );
}

#[test]
fn fork_to_next_core_is_slower_than_local_fork() {
    use lbp_omp::DetOmp;
    // Two-member teams: member 1 on the same core (p_fc) vs. forcing the
    // p_fn path by using five members (the fifth crosses the core
    // boundary). Compare overhead growth per member.
    let mk = |members: usize| {
        let p = DetOmp::new(members)
            .function("f", "p_ret")
            .parallel_for("f");
        let image = p.build().unwrap();
        let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
        m.run(1_000_000).unwrap().stats.cycles
    };
    let four = mk(4); // all p_fc
    let five = mk(5); // one p_fn
    assert!(
        five > four,
        "the cross-core fork adds link latency: {five} vs {four}"
    );
}

#[test]
fn exact_baseline_is_pinned() {
    // Pin the exit sequence's exact cost; any drift means the pipeline
    // timing changed and every documented number must be revisited.
    assert_eq!(baseline(), 9);
}
