//! Differential property test: random single-hart programs executed on
//! the out-of-order, unordered-memory pipeline must produce exactly the
//! architectural state the functional reference engine produces — same
//! registers, same memory, same retired-instruction count. Deterministic
//! generation via `lbp-testutil`.
//!
//! Programs fence every store with `p_syncm` before dependent loads (the
//! machine's contract for single-hart RAW through memory).

use lbp_asm::assemble;
use lbp_isa::{HartId, Reg, SHARED_BASE};
use lbp_sim::{FastEngine, FastStop, LbpConfig, Machine};
use lbp_testutil::{check_cases, Rng};

/// Registers the generator may write (never `zero/ra/sp/t0/t1/s0/s1`,
/// which carry program structure).
const POOL: [&str; 12] = [
    "a0", "a1", "a2", "a3", "a4", "a5", "t2", "t3", "t4", "s2", "s3", "s4",
];

#[derive(Debug, Clone)]
enum Op {
    /// `mnemonic rd, rs1, rs2`.
    Rrr(&'static str, usize, usize, usize),
    /// `mnemonic rd, rs1, imm`.
    Rri(&'static str, usize, usize, i32),
    /// `lui rd, imm20`.
    Lui(usize, u32),
    /// Store `rs` to scratch word `idx`, followed by `p_syncm`.
    Store(usize, u8, u32),
    /// Load scratch word `idx` into `rd`.
    Load(usize, u8, bool, u32),
    /// A countdown loop of `n` iterations around inner ops.
    Loop(u8, Vec<Op>),
}

const SCRATCH_WORDS: u32 = 16;

const RRR_MNEMONICS: [&str; 18] = [
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", "mul", "mulh", "mulhu",
    "mulhsu", "div", "divu", "rem", "remu",
];

const RRI_LOGIC: [&str; 6] = ["addi", "slti", "sltiu", "xori", "ori", "andi"];
const RRI_SHIFT: [&str; 3] = ["slli", "srli", "srai"];
const SIZES: [u8; 3] = [1, 2, 4];

fn arb_rrr(rng: &mut Rng) -> Op {
    Op::Rrr(
        rng.pick(&RRR_MNEMONICS),
        rng.index(POOL.len()),
        rng.index(POOL.len()),
        rng.index(POOL.len()),
    )
}

fn arb_rri(rng: &mut Rng) -> Op {
    if rng.flip() {
        Op::Rri(
            rng.pick(&RRI_LOGIC),
            rng.index(POOL.len()),
            rng.index(POOL.len()),
            rng.range_i32(-2048, 2047),
        )
    } else {
        Op::Rri(
            rng.pick(&RRI_SHIFT),
            rng.index(POOL.len()),
            rng.index(POOL.len()),
            rng.range_i32(0, 31),
        )
    }
}

fn arb_flat_op(rng: &mut Rng) -> Op {
    match rng.weighted(&[4, 4, 1, 2, 2]) {
        0 => arb_rrr(rng),
        1 => arb_rri(rng),
        2 => Op::Lui(rng.index(POOL.len()), rng.range_u32(0, 0xfffff - 1)),
        3 => Op::Store(
            rng.index(POOL.len()),
            rng.pick(&SIZES),
            rng.range_u32(0, SCRATCH_WORDS - 1),
        ),
        _ => Op::Load(
            rng.index(POOL.len()),
            rng.pick(&SIZES),
            rng.flip(),
            rng.range_u32(0, SCRATCH_WORDS - 1),
        ),
    }
}

fn arb_program(rng: &mut Rng) -> Vec<Op> {
    let n = 2 + rng.index(30);
    (0..n)
        .map(|_| {
            if rng.weighted(&[8, 1]) == 0 {
                arb_flat_op(rng)
            } else {
                let iters = rng.range_u32(1, 3) as u8;
                let len = 1 + rng.index(7);
                Op::Loop(iters, (0..len).map(|_| arb_flat_op(rng)).collect())
            }
        })
        .collect()
}

fn emit(ops: &[Op], out: &mut String, label_n: &mut usize) {
    use std::fmt::Write;
    for op in ops {
        match op {
            Op::Rrr(m, d, a, b) => {
                let _ = writeln!(out, "    {m} {}, {}, {}", POOL[*d], POOL[*a], POOL[*b]);
            }
            Op::Rri(m, d, a, i) => {
                let _ = writeln!(out, "    {m} {}, {}, {i}", POOL[*d], POOL[*a]);
            }
            Op::Lui(d, v) => {
                let _ = writeln!(out, "    lui  {}, {v}", POOL[*d]);
            }
            Op::Store(r, size, idx) => {
                let mn = match size {
                    1 => "sb",
                    2 => "sh",
                    _ => "sw",
                };
                let off = idx * 4; // word-aligned slots keep all sizes legal
                let _ = writeln!(out, "    {mn}  {}, {off}(s1)", POOL[*r]);
                let _ = writeln!(out, "    p_syncm");
            }
            Op::Load(r, size, signed, idx) => {
                let mn = match (size, signed) {
                    (1, true) => "lb",
                    (1, false) => "lbu",
                    (2, true) => "lh",
                    (2, false) => "lhu",
                    _ => "lw",
                };
                let off = idx * 4;
                let _ = writeln!(out, "    {mn} {}, {off}(s1)", POOL[*r]);
            }
            Op::Loop(n, inner) => {
                *label_n += 1;
                let l = format!("loop{label_n}");
                let _ = writeln!(out, "    li   s0, {n}");
                let _ = writeln!(out, "{l}:");
                emit(inner, out, label_n);
                let _ = writeln!(out, "    addi s0, s0, -1");
                let _ = writeln!(out, "    bnez s0, {l}");
            }
        }
    }
}

fn program_text(ops: &[Op]) -> String {
    let mut s = String::from(
        "main:
    la   s1, scratch
    li   a0, 11
    li   a1, -7
    li   a2, 1000
    li   a3, 3
    li   a4, 0
    li   a5, 85
",
    );
    let mut label_n = 0;
    emit(ops, &mut s, &mut label_n);
    s.push_str(
        "    li   t0, -1
    li   ra, 0
    p_ret
.data
scratch: .space 64
",
    );
    s
}

#[test]
fn pipeline_matches_sequential_reference() {
    check_cases(64, 0xd1ff, |rng, case| {
        let ops = arb_program(rng);
        let src = program_text(&ops);
        let image = assemble(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        // Pipelined machine.
        let cfg = LbpConfig::cores(1);
        let mut machine = Machine::new(cfg.clone(), &image).expect("machine");
        machine
            .run(10_000_000)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        // Functional reference on the same configuration.
        let mut reference = FastEngine::new(cfg, &image).expect("reference");
        reference
            .run(FastStop::Exit, 10_000_000)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        // Same retired count (the reference parks before the exit p_ret).
        assert_eq!(
            machine.stats().retired(),
            reference.retired() + 1,
            "case {case}: retired mismatch\n{src}"
        );
        // Same registers (the pool plus the structural ones).
        for name in POOL.iter().chain(["s0", "s1"].iter()) {
            let r: Reg = name.parse().unwrap();
            assert_eq!(
                machine.reg(HartId::FIRST, r),
                reference.reg(HartId::FIRST, r),
                "case {case}: register {name} mismatch\n{src}"
            );
        }
        // Same scratch memory.
        for i in 0..SCRATCH_WORDS {
            let addr = SHARED_BASE + 4 * i;
            assert_eq!(
                machine.peek_shared(addr).unwrap(),
                reference.peek_shared(addr).unwrap(),
                "case {case}: scratch[{i}] mismatch\n{src}"
            );
        }
    });
}
