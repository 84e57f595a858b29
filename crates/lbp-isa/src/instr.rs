//! The decoded instruction type for RV32IM plus the X_PAR (PISC) extension.

use core::fmt;

use crate::Reg;

/// Declares a kind enum from its rows: each variant with its assembly
/// mnemonic and the funct7 and funct3 fields that select it under its
/// major opcode. `ALL`, `mnemonic`, and the encoder and decoder all read
/// these rows. Kinds whose format puts immediate bits where funct7 would
/// be write 0 there.
macro_rules! kinds {
    (
        $(#[$meta:meta])*
        pub enum $kind:ident[$n:literal] {
            $($(#[$doc:meta])* $v:ident = $mnemonic:literal, $funct7:literal, $funct3:literal;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $kind {
            $($(#[$doc])* $v,)*
        }

        impl $kind {
            /// Every kind, in encoding order. Generators (such as
            /// `lbp-fuzz`) sample from this table instead of hard-coding
            /// the variant list, so a new kind is automatically fuzzed.
            pub const ALL: [$kind; $n] = [$($kind::$v),*];

            /// The assembly mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $($kind::$v => $mnemonic,)*
                }
            }

            /// The `(funct7, funct3)` fields that select this kind.
            pub(crate) fn funct(self) -> (u32, u32) {
                match self {
                    $($kind::$v => ($funct7, $funct3),)*
                }
            }

            /// The kind that `(funct7, funct3)` selects, if any.
            pub(crate) fn from_funct(funct: (u32, u32)) -> Option<$kind> {
                match funct {
                    $(($funct7, $funct3) => Some($kind::$v),)*
                    _ => None,
                }
            }
        }
    };
}

kinds! {
    /// Conditional-branch comparison kinds (RV32I `BRANCH` major opcode).
    pub enum BranchKind[6] {
        /// `beq`: branch if equal.
        Eq = "beq", 0, 0b000;
        /// `bne`: branch if not equal.
        Ne = "bne", 0, 0b001;
        /// `blt`: branch if less than (signed).
        Lt = "blt", 0, 0b100;
        /// `bge`: branch if greater or equal (signed).
        Ge = "bge", 0, 0b101;
        /// `bltu`: branch if less than (unsigned).
        Ltu = "bltu", 0, 0b110;
        /// `bgeu`: branch if greater or equal (unsigned).
        Geu = "bgeu", 0, 0b111;
    }
}

impl BranchKind {
    /// Evaluates the branch condition on two register values.
    pub fn taken(self, a: u32, b: u32) -> bool {
        match self {
            BranchKind::Eq => a == b,
            BranchKind::Ne => a != b,
            BranchKind::Lt => (a as i32) < (b as i32),
            BranchKind::Ge => (a as i32) >= (b as i32),
            BranchKind::Ltu => a < b,
            BranchKind::Geu => a >= b,
        }
    }
}

kinds! {
    /// Load width/sign kinds (RV32I `LOAD` major opcode).
    pub enum LoadKind[5] {
        /// `lb`: sign-extended byte.
        B = "lb", 0, 0b000;
        /// `lh`: sign-extended half-word.
        H = "lh", 0, 0b001;
        /// `lw`: word.
        W = "lw", 0, 0b010;
        /// `lbu`: zero-extended byte.
        Bu = "lbu", 0, 0b100;
        /// `lhu`: zero-extended half-word.
        Hu = "lhu", 0, 0b101;
    }
}

impl LoadKind {
    /// Access size in bytes.
    pub fn size(self) -> u32 {
        match self {
            LoadKind::B | LoadKind::Bu => 1,
            LoadKind::H | LoadKind::Hu => 2,
            LoadKind::W => 4,
        }
    }
}

kinds! {
    /// Store width kinds (RV32I `STORE` major opcode).
    pub enum StoreKind[3] {
        /// `sb`: byte.
        B = "sb", 0, 0b000;
        /// `sh`: half-word.
        H = "sh", 0, 0b001;
        /// `sw`: word.
        W = "sw", 0, 0b010;
    }
}

impl StoreKind {
    /// Access size in bytes.
    pub fn size(self) -> u32 {
        match self {
            StoreKind::B => 1,
            StoreKind::H => 2,
            StoreKind::W => 4,
        }
    }
}

kinds! {
    /// Register-immediate ALU operations (RV32I `OP-IMM` major opcode).
    /// Only the shifts have a funct7; above the others sit immediate bits.
    pub enum OpImmKind[9] {
        /// `addi`.
        Add = "addi", 0, 0b000;
        /// `slti` (signed set-less-than).
        Slt = "slti", 0, 0b010;
        /// `sltiu`.
        Sltu = "sltiu", 0, 0b011;
        /// `xori`.
        Xor = "xori", 0, 0b100;
        /// `ori`.
        Or = "ori", 0, 0b110;
        /// `andi`.
        And = "andi", 0, 0b111;
        /// `slli` (shift amount in the low 5 immediate bits).
        Sll = "slli", 0, 0b001;
        /// `srli`.
        Srl = "srli", 0, 0b101;
        /// `srai`.
        Sra = "srai", 0b0100000, 0b101;
    }
}

impl OpImmKind {
    /// Whether the immediate operand is a 5-bit shift amount rather than
    /// a sign-extended 12-bit value.
    pub fn is_shift(self) -> bool {
        matches!(self, OpImmKind::Sll | OpImmKind::Srl | OpImmKind::Sra)
    }

    /// Evaluates the operation on a register value and an immediate.
    pub fn eval(self, a: u32, imm: i32) -> u32 {
        let b = imm as u32;
        match self {
            OpImmKind::Add => a.wrapping_add(b),
            OpImmKind::Slt => ((a as i32) < imm) as u32,
            OpImmKind::Sltu => (a < b) as u32,
            OpImmKind::Xor => a ^ b,
            OpImmKind::Or => a | b,
            OpImmKind::And => a & b,
            OpImmKind::Sll => a.wrapping_shl(b & 31),
            OpImmKind::Srl => a.wrapping_shr(b & 31),
            OpImmKind::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        }
    }
}

kinds! {
    /// Register-register ALU operations (RV32I `OP` major opcode + RV32M).
    pub enum OpKind[18] {
        /// `add`.
        Add = "add", 0b0000000, 0b000;
        /// `sub`.
        Sub = "sub", 0b0100000, 0b000;
        /// `sll`.
        Sll = "sll", 0b0000000, 0b001;
        /// `slt`.
        Slt = "slt", 0b0000000, 0b010;
        /// `sltu`.
        Sltu = "sltu", 0b0000000, 0b011;
        /// `xor`.
        Xor = "xor", 0b0000000, 0b100;
        /// `srl`.
        Srl = "srl", 0b0000000, 0b101;
        /// `sra`.
        Sra = "sra", 0b0100000, 0b101;
        /// `or`.
        Or = "or", 0b0000000, 0b110;
        /// `and`.
        And = "and", 0b0000000, 0b111;
        /// `mul` (RV32M).
        Mul = "mul", 0b0000001, 0b000;
        /// `mulh` (RV32M): upper 32 bits of signed×signed.
        Mulh = "mulh", 0b0000001, 0b001;
        /// `mulhsu` (RV32M): upper 32 bits of signed×unsigned.
        Mulhsu = "mulhsu", 0b0000001, 0b010;
        /// `mulhu` (RV32M): upper 32 bits of unsigned×unsigned.
        Mulhu = "mulhu", 0b0000001, 0b011;
        /// `div` (RV32M, signed).
        Div = "div", 0b0000001, 0b100;
        /// `divu` (RV32M).
        Divu = "divu", 0b0000001, 0b101;
        /// `rem` (RV32M, signed).
        Rem = "rem", 0b0000001, 0b110;
        /// `remu` (RV32M).
        Remu = "remu", 0b0000001, 0b111;
    }
}

impl OpKind {
    /// Whether this is an RV32M multiply/divide operation (multi-cycle on
    /// LBP's functional units).
    #[inline]
    pub fn is_muldiv(self) -> bool {
        matches!(
            self,
            OpKind::Mul
                | OpKind::Mulh
                | OpKind::Mulhsu
                | OpKind::Mulhu
                | OpKind::Div
                | OpKind::Divu
                | OpKind::Rem
                | OpKind::Remu
        )
    }

    /// Evaluates the operation on two register values, with the RISC-V
    /// division-by-zero and overflow semantics.
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            OpKind::Add => a.wrapping_add(b),
            OpKind::Sub => a.wrapping_sub(b),
            OpKind::Sll => a.wrapping_shl(b & 31),
            OpKind::Slt => ((a as i32) < (b as i32)) as u32,
            OpKind::Sltu => (a < b) as u32,
            OpKind::Xor => a ^ b,
            OpKind::Srl => a.wrapping_shr(b & 31),
            OpKind::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
            OpKind::Or => a | b,
            OpKind::And => a & b,
            OpKind::Mul => a.wrapping_mul(b),
            OpKind::Mulh => ((((a as i32) as i64) * ((b as i32) as i64)) >> 32) as u32,
            OpKind::Mulhsu => ((((a as i32) as i64) * (b as i64)) >> 32) as u32,
            OpKind::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
            OpKind::Div => {
                if b == 0 {
                    u32::MAX
                } else if a == 0x8000_0000 && b == u32::MAX {
                    a
                } else {
                    ((a as i32).wrapping_div(b as i32)) as u32
                }
            }
            OpKind::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            OpKind::Rem => {
                if b == 0 {
                    a
                } else if a == 0x8000_0000 && b == u32::MAX {
                    0
                } else {
                    ((a as i32).wrapping_rem(b as i32)) as u32
                }
            }
            OpKind::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

/// A decoded RV32IM / X_PAR instruction.
///
/// All X_PAR variants carry the operand roles of the paper's Fig. 5. The
/// `p_ret` pseudo-instruction is represented as
/// `PJalr { rd: Reg::ZERO, rs1: ra, rs2: t0 }`.
///
/// Field names follow the RISC-V convention: `rd` destination, `rs1`/`rs2`
/// sources, `imm`/`offset` immediates (byte offsets for memory and control
/// transfer, slot numbers for `p_lwre`/`p_swre`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field roles documented on the enum and each variant
pub enum Instr {
    /// `lui rd, imm20`: load upper immediate (`imm` holds the already-shifted
    /// 32-bit value; its low 12 bits are zero).
    Lui { rd: Reg, imm: u32 },
    /// `auipc rd, imm20`: add upper immediate to pc.
    Auipc { rd: Reg, imm: u32 },
    /// `jal rd, offset`: direct jump-and-link.
    Jal { rd: Reg, offset: i32 },
    /// `jalr rd, offset(rs1)`: indirect jump-and-link.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Conditional branch.
    Branch {
        kind: BranchKind,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Memory load: `rd = mem[rs1 + offset]`.
    Load {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Memory store: `mem[rs1 + offset] = rs2`.
    Store {
        kind: StoreKind,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Register-immediate ALU operation.
    OpImm {
        kind: OpImmKind,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Register-register ALU operation.
    Op {
        kind: OpKind,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `p_fc rd`: fork on current core; `rd` receives the allocated hart id.
    PFc { rd: Reg },
    /// `p_fn rd`: fork on next core; `rd` receives the allocated hart id.
    PFn { rd: Reg },
    /// `p_set rd, rs1`: stamp the executing hart identity (see
    /// [`crate::IdentityWord::set`]).
    PSet { rd: Reg, rs1: Reg },
    /// `p_merge rd, rs1, rs2`: merge join and allocated identities (see
    /// [`crate::IdentityWord::merge`]).
    PMerge { rd: Reg, rs1: Reg, rs2: Reg },
    /// `p_syncm`: block fetch until the hart's in-flight memory accesses
    /// are done.
    PSyncm,
    /// `p_jalr rd, rs1, rs2`: parallelized indirect call / hart return.
    ///
    /// With `rd != x0`: call `rs2` locally, send `pc+4` to the hart
    /// allocated in `rs1`'s low half-word, clear `rd`. With `rd == x0`
    /// (`p_ret`): end/join the current hart depending on `(rs1, rs2)`.
    PJalr { rd: Reg, rs1: Reg, rs2: Reg },
    /// `p_jal rd, rs1, offset`: parallelized direct call; send `pc+4` to the
    /// allocated hart in `rs1`, clear `rd`, jump to `pc+offset`.
    PJal { rd: Reg, rs1: Reg, offset: i32 },
    /// `p_lwcv rd, offset`: load a continuation value from the own hart's
    /// cv-frame slot at `offset`.
    PLwcv { rd: Reg, offset: i32 },
    /// `p_swcv rs1, rs2, offset`: store `rs2` as a continuation value into
    /// hart `rs1`'s cv-frame slot at `offset`.
    PSwcv { rs1: Reg, rs2: Reg, offset: i32 },
    /// `p_lwre rd, offset`: receive from the own hart's result buffer
    /// number `offset` (blocks until a matching `p_swre` delivers).
    PLwre { rd: Reg, offset: i32 },
    /// `p_swre rs1, rs2, offset`: send `rs2` to *prior* hart `rs1`'s result
    /// buffer number `offset` over the backward line.
    PSwre { rs1: Reg, rs2: Reg, offset: i32 },
}

impl Instr {
    /// A canonical no-op (`addi x0, x0, 0`).
    pub const NOP: Instr = Instr::OpImm {
        kind: OpImmKind::Add,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        imm: 0,
    };

    /// The destination register written by this instruction, if any.
    ///
    /// `x0` destinations are reported as `None`: writes to `x0` are
    /// discarded and create no dependency.
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::OpImm { rd, .. }
            | Instr::Op { rd, .. }
            | Instr::PFc { rd }
            | Instr::PFn { rd }
            | Instr::PSet { rd, .. }
            | Instr::PMerge { rd, .. }
            | Instr::PJalr { rd, .. }
            | Instr::PJal { rd, .. }
            | Instr::PLwcv { rd, .. }
            | Instr::PLwre { rd, .. } => rd,
            Instr::Branch { .. }
            | Instr::Store { .. }
            | Instr::PSwcv { .. }
            | Instr::PSwre { .. }
            | Instr::PSyncm => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// The source registers read by this instruction (up to two).
    ///
    /// `x0` sources are omitted: they always read as zero and create no
    /// dependency.
    pub fn sources(&self) -> [Option<Reg>; 2] {
        let (a, b) = match *self {
            Instr::Lui { .. }
            | Instr::Auipc { .. }
            | Instr::Jal { .. }
            | Instr::PFc { .. }
            | Instr::PFn { .. }
            | Instr::PSyncm
            | Instr::PLwcv { .. }
            | Instr::PLwre { .. } => (None, None),
            Instr::Jalr { rs1, .. }
            | Instr::Load { rs1, .. }
            | Instr::OpImm { rs1, .. }
            | Instr::PSet { rs1, .. }
            | Instr::PJal { rs1, .. } => (Some(rs1), None),
            Instr::Branch { rs1, rs2, .. }
            | Instr::Store { rs1, rs2, .. }
            | Instr::Op { rs1, rs2, .. }
            | Instr::PMerge { rs1, rs2, .. }
            | Instr::PJalr { rs1, rs2, .. }
            | Instr::PSwcv { rs1, rs2, .. }
            | Instr::PSwre { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
        };
        [a.filter(|r| !r.is_zero()), b.filter(|r| !r.is_zero())]
    }

    /// Whether this instruction accesses data memory (loads, stores, and the
    /// X_PAR continuation-value transfers, which read/write hart stacks).
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::PSwcv { .. } | Instr::PLwcv { .. }
        )
    }

    /// Whether this is a control-transfer instruction whose next pc is only
    /// known after execution (conditional branch or indirect jump).
    pub fn next_pc_needs_execute(&self) -> bool {
        matches!(self, Instr::Branch { .. } | Instr::Jalr { .. })
    }

    /// Whether this is the `p_ret` pseudo-instruction
    /// (`p_jalr x0, rs1, rs2`).
    pub fn is_p_ret(&self) -> bool {
        matches!(self, Instr::PJalr { rd, .. } if rd.is_zero())
    }

    /// Whether this is an X_PAR extension instruction.
    pub fn is_xpar(&self) -> bool {
        matches!(
            self,
            Instr::PFc { .. }
                | Instr::PFn { .. }
                | Instr::PSet { .. }
                | Instr::PMerge { .. }
                | Instr::PSyncm
                | Instr::PJalr { .. }
                | Instr::PJal { .. }
                | Instr::PLwcv { .. }
                | Instr::PSwcv { .. }
                | Instr::PLwre { .. }
                | Instr::PSwre { .. }
        )
    }
}

impl fmt::Display for Instr {
    /// Disassembles to standard assembly syntax (the syntax accepted by
    /// `lbp-asm`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm >> 12),
            Instr::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm >> 12),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", kind.mnemonic()),
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => write!(f, "{} {rd}, {offset}({rs1})", kind.mnemonic()),
            Instr::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs2}, {offset}({rs1})", kind.mnemonic()),
            Instr::OpImm { kind, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", kind.mnemonic())
            }
            Instr::Op { kind, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", kind.mnemonic())
            }
            Instr::PFc { rd } => write!(f, "p_fc {rd}"),
            Instr::PFn { rd } => write!(f, "p_fn {rd}"),
            Instr::PSet { rd, rs1 } => {
                if rd == rs1 {
                    write!(f, "p_set {rd}")
                } else {
                    write!(f, "p_set {rd}, {rs1}")
                }
            }
            Instr::PMerge { rd, rs1, rs2 } => write!(f, "p_merge {rd}, {rs1}, {rs2}"),
            Instr::PSyncm => write!(f, "p_syncm"),
            Instr::PJalr { rd, rs1, rs2 } => {
                if rd.is_zero() {
                    write!(f, "p_ret {rs1}, {rs2}")
                } else {
                    write!(f, "p_jalr {rd}, {rs1}, {rs2}")
                }
            }
            Instr::PJal { rd, rs1, offset } => write!(f, "p_jal {rd}, {rs1}, {offset}"),
            Instr::PLwcv { rd, offset } => write!(f, "p_lwcv {rd}, {offset}"),
            Instr::PSwcv { rs1, rs2, offset } => write!(f, "p_swcv {rs2}, {rs1}, {offset}"),
            Instr::PLwre { rd, offset } => write!(f, "p_lwre {rd}, {offset}"),
            Instr::PSwre { rs1, rs2, offset } => write!(f, "p_swre {rs2}, {rs1}, {offset}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_hides_x0() {
        let i = Instr::OpImm {
            kind: OpImmKind::Add,
            rd: Reg::ZERO,
            rs1: Reg::A0,
            imm: 1,
        };
        assert_eq!(i.dest(), None);
        let i = Instr::OpImm {
            kind: OpImmKind::Add,
            rd: Reg::A1,
            rs1: Reg::A0,
            imm: 1,
        };
        assert_eq!(i.dest(), Some(Reg::A1));
    }

    #[test]
    fn sources_hide_x0() {
        let i = Instr::Op {
            kind: OpKind::Add,
            rd: Reg::A0,
            rs1: Reg::ZERO,
            rs2: Reg::A2,
        };
        assert_eq!(i.sources(), [None, Some(Reg::A2)]);
    }

    #[test]
    fn store_has_no_dest() {
        let i = Instr::Store {
            kind: StoreKind::W,
            rs1: Reg::SP,
            rs2: Reg::RA,
            offset: 0,
        };
        assert_eq!(i.dest(), None);
        assert_eq!(i.sources(), [Some(Reg::SP), Some(Reg::RA)]);
    }

    #[test]
    fn p_ret_detection() {
        let ret = Instr::PJalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            rs2: Reg::T0,
        };
        assert!(ret.is_p_ret());
        let call = Instr::PJalr {
            rd: Reg::RA,
            rs1: Reg::T0,
            rs2: Reg::A0,
        };
        assert!(!call.is_p_ret());
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchKind::Lt.taken(u32::MAX, 0)); // -1 < 0 signed
        assert!(!BranchKind::Ltu.taken(u32::MAX, 0));
        assert!(BranchKind::Geu.taken(u32::MAX, 0));
        assert!(BranchKind::Eq.taken(7, 7));
        assert!(BranchKind::Ne.taken(7, 8));
        assert!(BranchKind::Ge.taken(0, u32::MAX));
    }

    #[test]
    fn muldiv_edge_cases() {
        assert_eq!(OpKind::Div.eval(7, 0), u32::MAX);
        assert_eq!(OpKind::Rem.eval(7, 0), 7);
        assert_eq!(OpKind::Div.eval(0x8000_0000, u32::MAX), 0x8000_0000);
        assert_eq!(OpKind::Rem.eval(0x8000_0000, u32::MAX), 0);
        assert_eq!(OpKind::Mulh.eval(u32::MAX, u32::MAX), 0); // (-1)*(-1) = 1
        assert_eq!(OpKind::Mulhu.eval(u32::MAX, u32::MAX), 0xffff_fffe);
    }

    #[test]
    fn shift_amounts_are_masked() {
        assert_eq!(OpImmKind::Sll.eval(1, 33), 2);
        assert_eq!(OpKind::Sra.eval(0x8000_0000, 63), 0xffff_ffff);
    }

    #[test]
    fn xpar_classification() {
        assert!(Instr::PSyncm.is_xpar());
        assert!(!Instr::NOP.is_xpar());
        assert!(Instr::PSwcv {
            rs1: Reg::T6,
            rs2: Reg::RA,
            offset: 0
        }
        .is_mem());
    }

    #[test]
    fn metadata_tables_are_complete_and_distinct() {
        // Each ALL table must enumerate every variant exactly once; the
        // mnemonics double as a uniqueness witness.
        fn distinct(names: &[&str]) {
            let mut seen = names.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), names.len(), "duplicate mnemonic in {names:?}");
        }
        distinct(&OpKind::ALL.map(OpKind::mnemonic));
        distinct(&OpImmKind::ALL.map(OpImmKind::mnemonic));
        distinct(&BranchKind::ALL.map(BranchKind::mnemonic));
        distinct(&LoadKind::ALL.map(LoadKind::mnemonic));
        distinct(&StoreKind::ALL.map(StoreKind::mnemonic));
        assert_eq!(
            OpKind::ALL.iter().filter(|k| k.is_muldiv()).count(),
            8,
            "RV32M is eight operations"
        );
        assert_eq!(
            OpImmKind::ALL.iter().filter(|k| k.is_shift()).count(),
            3,
            "three immediate shifts"
        );
    }

    #[test]
    fn next_pc_classification() {
        let b = Instr::Branch {
            kind: BranchKind::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: 8,
        };
        assert!(b.next_pc_needs_execute());
        let j = Instr::Jal {
            rd: Reg::RA,
            offset: 16,
        };
        assert!(!j.next_pc_needs_execute());
        let jr = Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        };
        assert!(jr.next_pc_needs_execute());
    }
}
