//! The exact text of every [`EncodeError`] at the edges of each immediate
//! format: the last value that encodes, and one value past it.

use lbp_isa::{BranchKind, Instr, OpImmKind, Reg, StoreKind};

/// Asserts that `instr` encodes, or fails with exactly `error`.
fn row(instr: Instr, error: Option<&str>) {
    let got = instr.encode().map_err(|e| e.to_string());
    match error {
        None => assert!(got.is_ok(), "`{instr}` must encode, got {got:?}"),
        Some(text) => assert_eq!(got.err().as_deref(), Some(text), "`{instr}`"),
    }
}

fn addi(imm: i32) -> Instr {
    Instr::OpImm {
        kind: OpImmKind::Add,
        rd: Reg::A0,
        rs1: Reg::A1,
        imm,
    }
}

fn sw(offset: i32) -> Instr {
    Instr::Store {
        kind: StoreKind::W,
        rs1: Reg::SP,
        rs2: Reg::A0,
        offset,
    }
}

fn bne(offset: i32) -> Instr {
    Instr::Branch {
        kind: BranchKind::Ne,
        rs1: Reg::A0,
        rs2: Reg::A1,
        offset,
    }
}

fn jal(offset: i32) -> Instr {
    Instr::Jal {
        rd: Reg::RA,
        offset,
    }
}

fn slli(imm: i32) -> Instr {
    Instr::OpImm {
        kind: OpImmKind::Sll,
        rd: Reg::A0,
        rs1: Reg::A0,
        imm,
    }
}

#[test]
fn i_format_edges() {
    row(addi(-2048), None);
    row(addi(2047), None);
    row(
        addi(-2049),
        Some("immediate -2049 of `addi` outside [-2048, 2047]"),
    );
    row(
        addi(2048),
        Some("immediate 2048 of `addi` outside [-2048, 2047]"),
    );
    let p_jal = |offset| Instr::PJal {
        rd: Reg::RA,
        rs1: Reg::T6,
        offset,
    };
    row(p_jal(2047), None);
    row(
        p_jal(2048),
        Some("immediate 2048 of `p_jal` outside [-2048, 2047]"),
    );
    let p_lwre = |offset| Instr::PLwre {
        rd: Reg::A0,
        offset,
    };
    row(p_lwre(-2048), None);
    row(
        p_lwre(-2049),
        Some("immediate -2049 of `p_lwre` outside [-2048, 2047]"),
    );
}

#[test]
fn s_format_edges() {
    row(sw(-2048), None);
    row(sw(2047), None);
    row(
        sw(-2049),
        Some("immediate -2049 of `sw` outside [-2048, 2047]"),
    );
    row(
        sw(2048),
        Some("immediate 2048 of `sw` outside [-2048, 2047]"),
    );
    let p_swcv = |offset| Instr::PSwcv {
        rs1: Reg::T6,
        rs2: Reg::A0,
        offset,
    };
    row(p_swcv(-2048), None);
    row(
        p_swcv(2048),
        Some("immediate 2048 of `p_swcv` outside [-2048, 2047]"),
    );
}

#[test]
fn b_format_edges() {
    row(bne(-4096), None);
    row(bne(4094), None);
    row(
        bne(-4098),
        Some("immediate -4098 of `bne` outside [-4096, 4094]"),
    );
    row(
        bne(4096),
        Some("immediate 4096 of `bne` outside [-4096, 4094]"),
    );
    row(bne(3), Some("offset 3 of `bne` is not even"));
    row(bne(-4097), Some("offset -4097 of `bne` is not even"));
}

#[test]
fn j_format_edges() {
    row(jal(-(1 << 20)), None);
    row(jal((1 << 20) - 2), None);
    row(
        jal(-(1 << 20) - 2),
        Some("immediate -1048578 of `jal` outside [-1048576, 1048574]"),
    );
    row(
        jal(1 << 20),
        Some("immediate 1048576 of `jal` outside [-1048576, 1048574]"),
    );
    row(jal(7), Some("offset 7 of `jal` is not even"));
}

#[test]
fn shift_amount_edges() {
    row(slli(0), None);
    row(slli(31), None);
    row(slli(-1), Some("immediate -1 of `slli` outside [0, 31]"));
    row(slli(32), Some("immediate 32 of `slli` outside [0, 31]"));
    let srai = Instr::OpImm {
        kind: OpImmKind::Sra,
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 32,
    };
    row(srai, Some("immediate 32 of `srai` outside [0, 31]"));
}

#[test]
fn u_format_edges() {
    let lui = |imm| Instr::Lui { rd: Reg::A0, imm };
    let auipc = |imm| Instr::Auipc { rd: Reg::A0, imm };
    row(lui(0), None);
    row(lui(0xffff_f000), None);
    row(
        lui(0x1234),
        Some("upper immediate 0x1234 has non-zero low 12 bits"),
    );
    row(auipc(0xffff_f000), None);
    row(
        auipc(0xffff_f001),
        Some("upper immediate 0xfffff001 has non-zero low 12 bits"),
    );
}
