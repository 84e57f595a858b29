//! Code generation for Deterministic OpenMP parallel regions.
//!
//! This module emits the translation the paper's Fig. 2 describes: a
//! `parallel for` (or `parallel sections`) region becomes an inlined
//! `LBP_parallel_start` that distributes the team over consecutive harts
//! with the Fig. 8 fork protocol — `p_fc`/`p_fn`, continuation-value
//! transmission (`p_swcv`/`p_lwcv`), `p_syncm`, and a parallelized call
//! `p_jalr` — and joins back through the ordered `p_ret` commits that
//! implement the hardware barrier.
//!
//! ## Register conventions inside a team
//!
//! | register | role |
//! |---|---|
//! | `ra` | join address (the code after the region) |
//! | `t0` | identity word: join hart in the upper half |
//! | `s0` | thread function pointer (or section-table base) |
//! | `s1` | team-member index `t` |
//! | `s2` | team size `nt` |
//! | `a0` | thread argument: the member index |
//! | `a1` | thread argument: user data pointer |
//! | `t1` | the team's join-hart identity word, for `p_swre` targeting |
//!
//! Thread functions receive `(a0, a1)`, may clobber anything **except
//! `t0`** (their final `p_ret` reads it) and the continuation-value frame
//! above their initial `sp`, and must end with `p_ret` instead of `ret`.
//! A member that sends a result or reduction value backward uses
//! `p_swre value, t1, slot`: `t1` carries the join hart in its upper
//! half for *every* member, including the last one (whose `t0` is
//! re-stamped with its own identity for the self-join of Fig. 7).

use lbp_asm::Asm;
use lbp_isa::{BranchKind, Instr, OpImmKind, OpKind, Reg};

/// Continuation-value frame slots used by the team protocol (byte
/// offsets within the allocated hart's cv frame).
pub mod cv_slots {
    /// Join address (`ra`).
    pub const RA: u32 = 0;
    /// Identity word (`t0`).
    pub const T0: u32 = 4;
    /// Function pointer / section table (`s0`).
    pub const S0: u32 = 8;
    /// User data pointer (`a1`).
    pub const A1: u32 = 12;
    /// Next member index (`s1`).
    pub const S1: u32 = 16;
    /// Team size (`s2`).
    pub const S2: u32 = 20;
}

/// What the team members run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeamBody {
    /// Every member calls the same function with its index in `a0`
    /// (`#pragma omp parallel for`).
    Uniform {
        /// Label of the thread function.
        function: String,
    },
    /// Member `t` calls the `t`-th function of a section table
    /// (`#pragma omp parallel sections`).
    Sections {
        /// Label of a word table of function addresses, one per member.
        table: String,
    },
}

/// Emits one parallel region inline at the current position of `asm`.
///
/// On entry the code runs on the team's first hart (hart 0 in this
/// runtime); on exit (after the hardware barrier) it resumes on the same
/// hart at the generated join label. `threads` must be at least 1;
/// `arg` optionally names a data symbol loaded into `a1`.
pub fn emit_parallel_region(asm: &mut Asm, threads: usize, body: &TeamBody, arg: Option<&str>) {
    assert!(threads >= 1, "a team needs at least one member");
    let rp = asm.fresh_label("join");
    asm.blank();
    asm.comment(format!("--- parallel region: {threads} team member(s) ---"));
    // Re-stamp the identity word: the join hart is this hart.
    p_set_t0(asm);
    match arg {
        Some(sym) => asm.la(Reg::A1, sym),
        None => asm.li(Reg::A1, 0),
    };
    match body {
        TeamBody::Uniform { function } => asm.la(Reg::S0, function),
        TeamBody::Sections { table } => asm.la(Reg::S0, table),
    };
    if threads == 1 {
        // Degenerate team: a plain local call, no fork, no barrier needed.
        asm.li(Reg::S1, 0);
        emit_last_member_call(asm, body, true);
        asm.label(&rp);
        return;
    }
    asm.la(Reg::RA, &rp);
    asm.li(Reg::S1, 0);
    asm.li(Reg::S2, threads as i64);
    let loop_l = asm.fresh_label("team");
    let last_l = asm.fresh_label("last");
    let next_l = asm.fresh_label("fnext");
    let forked_l = asm.fresh_label("forked");
    asm.label(&loop_l);
    asm.op_imm(OpImmKind::Add, Reg::T5, Reg::S2, -1);
    asm.branch(BranchKind::Eq, Reg::S1, Reg::T5, &last_l);
    // Placement (paper Fig. 3): fill the four harts of the current core,
    // then expand to the next core.
    asm.op_imm(OpImmKind::And, Reg::T4, Reg::S1, 3);
    asm.op_imm(OpImmKind::Add, Reg::T3, Reg::ZERO, 3);
    asm.branch(BranchKind::Eq, Reg::T4, Reg::T3, &next_l);
    asm.instr(Instr::PFc { rd: Reg::T6 });
    asm.j(&forked_l);
    asm.label(&next_l);
    asm.instr(Instr::PFn { rd: Reg::T6 });
    asm.label(&forked_l);
    // Transmit the continuation state to the allocated hart (Fig. 8).
    let swcv = |asm: &mut Asm, rs2: Reg, slot: u32| {
        let offset = slot as i32;
        asm.instr(Instr::PSwcv {
            rs1: Reg::T6,
            rs2,
            offset,
        });
    };
    swcv(asm, Reg::RA, cv_slots::RA);
    swcv(asm, Reg::T0, cv_slots::T0);
    swcv(asm, Reg::S0, cv_slots::S0);
    swcv(asm, Reg::A1, cv_slots::A1);
    swcv(asm, Reg::S2, cv_slots::S2);
    asm.op_imm(OpImmKind::Add, Reg::S1, Reg::S1, 1);
    swcv(asm, Reg::S1, cv_slots::S1);
    asm.op_imm(OpImmKind::Add, Reg::S1, Reg::S1, -1);
    asm.instr(Instr::PMerge {
        rd: Reg::T0,
        rs1: Reg::T0,
        rs2: Reg::T6,
    });
    asm.instr(Instr::PSyncm);
    emit_member_arg(asm, body);
    // Call the member function locally; the continuation (the rest of
    // this loop) starts on the allocated hart at pc+4.
    asm.instr(Instr::PJalr {
        rd: Reg::RA,
        rs1: Reg::T0,
        rs2: Reg::S3,
    });
    asm.comment("-- continuation: runs on the freshly forked hart --");
    for (rd, slot) in [
        (Reg::RA, cv_slots::RA),
        (Reg::T0, cv_slots::T0),
        (Reg::S0, cv_slots::S0),
        (Reg::A1, cv_slots::A1),
        (Reg::S1, cv_slots::S1),
        (Reg::S2, cv_slots::S2),
    ] {
        lwcv(asm, rd, slot);
    }
    asm.j(&loop_l);
    asm.label(&last_l);
    emit_last_member_call(asm, body, false);
    asm.label(&rp);
}

/// `p_set t0`.
pub(crate) fn p_set_t0(asm: &mut Asm) {
    asm.instr(Instr::PSet {
        rd: Reg::T0,
        rs1: Reg::T0,
    });
}

fn lwcv(asm: &mut Asm, rd: Reg, slot: u32) {
    asm.instr(Instr::PLwcv {
        rd,
        offset: slot as i32,
    });
}

/// Loads the member's function pointer into `s3`, its index into `a0`,
/// and the join-hart identity word into `t1`.
fn emit_member_arg(asm: &mut Asm, body: &TeamBody) {
    match body {
        TeamBody::Uniform { .. } => {
            asm.mv(Reg::S3, Reg::S0);
        }
        TeamBody::Sections { .. } => {
            asm.op_imm(OpImmKind::Sll, Reg::T4, Reg::S1, 2);
            asm.op(OpKind::Add, Reg::T4, Reg::S0, Reg::T4);
            asm.lw(Reg::S3, 0, Reg::T4);
            asm.instr(Instr::PSyncm);
        }
    }
    asm.mv(Reg::A0, Reg::S1);
    asm.mv(Reg::T1, Reg::T0);
}

/// The last team member calls the function with a plain `jalr` after
/// `p_set t0`, so the thread's `p_ret` self-joins (paper Fig. 7); it then
/// forwards the join address to the team's first hart — unless the team
/// has a single member, in which case execution simply falls through.
fn emit_last_member_call(asm: &mut Asm, body: &TeamBody, solo: bool) {
    emit_member_arg(asm, body);
    p_set_t0(asm);
    asm.jalr(Reg::S3);
    if !solo {
        asm.comment("-- resumed by the self-join; forward to the join hart --");
        lwcv(asm, Reg::RA, cv_slots::RA);
        lwcv(asm, Reg::T0, cv_slots::T0);
        asm.p_ret();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_assembles() {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, -1);
        a.op_imm(OpImmKind::Add, Reg::SP, Reg::SP, -8);
        a.sw(Reg::RA, 0, Reg::SP).sw(Reg::T0, 4, Reg::SP);
        emit_parallel_region(
            &mut a,
            8,
            &TeamBody::Uniform {
                function: "thread".into(),
            },
            None,
        );
        a.lw(Reg::RA, 0, Reg::SP).lw(Reg::T0, 4, Reg::SP);
        a.op_imm(OpImmKind::Add, Reg::SP, Reg::SP, 8);
        a.p_ret();
        a.label("thread").p_ret();
        let image = a.assemble().expect("generated region assembles");
        assert!(image.text.len() > 30);
    }

    #[test]
    fn solo_region_has_no_forks() {
        let mut a = Asm::new();
        a.label("main");
        emit_parallel_region(
            &mut a,
            1,
            &TeamBody::Uniform {
                function: "thread".into(),
            },
            None,
        );
        assert!(!a.text().contains("p_fc"));
        assert!(!a.text().contains("p_fn"));
    }

    #[test]
    fn sections_load_from_table() {
        let mut a = Asm::new();
        a.label("main");
        emit_parallel_region(
            &mut a,
            2,
            &TeamBody::Sections {
                table: "tbl".into(),
            },
            None,
        );
        assert!(a.text().contains("lw   s3, 0(t4)"));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_threads_rejected() {
        let mut a = Asm::new();
        emit_parallel_region(
            &mut a,
            0,
            &TeamBody::Uniform {
                function: "t".into(),
            },
            None,
        );
    }
}
