//! Binary encoding of [`Instr`] into 32-bit RISC-V instruction words.
//!
//! Standard RV32IM instructions use their architectural encodings; the
//! X_PAR extension occupies the *custom-0* (`0001011`) and *custom-1*
//! (`0101011`) major opcodes reserved by the RISC-V specification for
//! vendor extensions.
//!
//! Each encoding is written once: the funct fields of a kind sit in its
//! row beside its mnemonic ([`crate::instr`]), those of an X_PAR
//! instruction in a `P_*` constant here, and each immediate format is one
//! [`Layout`]. [`Instr::decode`](crate::Instr::decode) reads the same
//! rows and layouts.

use core::fmt;

use crate::instr::Instr;
use crate::Reg;

/// Major opcode for register-form X_PAR instructions
/// (`p_fc`, `p_fn`, `p_set`, `p_merge`, `p_syncm`, `p_jalr`).
pub const OPC_CUSTOM0: u32 = 0b0001011;
/// Major opcode for immediate-form X_PAR instructions
/// (`p_lwcv`, `p_swcv`, `p_lwre`, `p_swre`, `p_jal`).
pub const OPC_CUSTOM1: u32 = 0b0101011;

pub(crate) const OPC_LUI: u32 = 0b0110111;
pub(crate) const OPC_AUIPC: u32 = 0b0010111;
pub(crate) const OPC_JAL: u32 = 0b1101111;
pub(crate) const OPC_JALR: u32 = 0b1100111;
pub(crate) const OPC_BRANCH: u32 = 0b1100011;
pub(crate) const OPC_LOAD: u32 = 0b0000011;
pub(crate) const OPC_STORE: u32 = 0b0100011;
pub(crate) const OPC_OP_IMM: u32 = 0b0010011;
pub(crate) const OPC_OP: u32 = 0b0110011;

/// The `(funct7, funct3)` of an instruction that its major opcode alone
/// selects (or, for `jalr`, with a zero funct3).
pub(crate) const NO_FUNCT: (u32, u32) = (0, 0);

// The X_PAR rows: `(funct7, funct3)` under custom-0, ...
pub(crate) const P_FC: (u32, u32) = (0b0000000, 0b000);
pub(crate) const P_FN: (u32, u32) = (0b0000001, 0b000);
pub(crate) const P_SET: (u32, u32) = (0b0000000, 0b001);
pub(crate) const P_MERGE: (u32, u32) = (0b0000000, 0b010);
pub(crate) const P_SYNCM: (u32, u32) = (0b0000000, 0b011);
pub(crate) const P_JALR: (u32, u32) = (0b0000000, 0b100);
// ... and funct3 under custom-1, whose immediates sit where funct7 would.
pub(crate) const P_LWCV: (u32, u32) = (0, 0b000);
pub(crate) const P_SWCV: (u32, u32) = (0, 0b001);
pub(crate) const P_LWRE: (u32, u32) = (0, 0b010);
pub(crate) const P_SWRE: (u32, u32) = (0, 0b011);
pub(crate) const P_JAL: (u32, u32) = (0, 0b100);

/// An immediate format: where each run of the immediate's bits sits in
/// the word. Its range and alignment follow from the runs.
pub(crate) struct Layout {
    /// `(immediate lsb, word lsb, width)` of each run, lowest bits first.
    runs: &'static [(u32, u32, u32)],
    /// Whether the top bit is a sign bit (a shift amount has none).
    signed: bool,
}

/// I-type: loads, `jalr`, register-immediate ALU, `p_lwcv`/`p_lwre`/`p_jal`.
pub(crate) const I: Layout = Layout {
    runs: &[(0, 20, 12)],
    signed: true,
};
/// S-type: stores, `p_swcv`/`p_swre`.
pub(crate) const S: Layout = Layout {
    runs: &[(0, 7, 5), (5, 25, 7)],
    signed: true,
};
/// B-type: conditional branches.
pub(crate) const B: Layout = Layout {
    runs: &[(1, 8, 4), (5, 25, 6), (11, 7, 1), (12, 31, 1)],
    signed: true,
};
/// J-type: `jal`.
pub(crate) const J: Layout = Layout {
    runs: &[(1, 21, 10), (11, 20, 1), (12, 12, 8), (20, 31, 1)],
    signed: true,
};
/// The shift amount of `slli`/`srli`/`srai`.
pub(crate) const SHAMT: Layout = Layout {
    runs: &[(0, 20, 5)],
    signed: false,
};

fn mask(width: u32) -> u32 {
    (1 << width) - 1
}

impl Layout {
    /// The immediate's bit count and its alignment in bytes.
    fn shape(&self) -> (u32, i32) {
        let (low, _, _) = self.runs[0];
        let (high, _, width) = self.runs[self.runs.len() - 1];
        (high + width, 1 << low)
    }

    /// The word bits that hold `value`, or why it does not fit.
    fn put(&self, what: &'static str, value: i32) -> Result<u32, EncodeError> {
        let (bits, align) = self.shape();
        if value % align != 0 {
            return Err(EncodeError::MisalignedOffset {
                what,
                offset: value,
            });
        }
        let (lo, hi) = match self.signed {
            true => (-(1 << (bits - 1)), (1 << (bits - 1)) - align),
            false => (0, (1 << bits) - align),
        };
        if !(lo..=hi).contains(&value) {
            return Err(EncodeError::ImmOutOfRange {
                what,
                value: value as i64,
                range: (lo as i64, hi as i64),
            });
        }
        let bits = value as u32;
        Ok(self.runs.iter().fold(0, |word, &(lsb, at, width)| {
            word | ((bits >> lsb) & mask(width)) << at
        }))
    }

    /// The immediate `word` holds, sign-extended if the format is signed.
    pub(crate) fn get(&self, word: u32) -> i32 {
        let value = self.runs.iter().fold(0, |value, &(lsb, at, width)| {
            value | ((word >> at) & mask(width)) << lsb
        });
        let (bits, _) = self.shape();
        match self.signed {
            true => ((value << (32 - bits)) as i32) >> (32 - bits),
            false => value as i32,
        }
    }
}

/// Error produced when an [`Instr`] cannot be represented in 32 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate exceeds its field range.
    ImmOutOfRange {
        /// The instruction mnemonic.
        what: &'static str,
        /// The offending value.
        value: i64,
        /// The allowed inclusive range.
        range: (i64, i64),
    },
    /// A branch/jump offset is not a multiple of two.
    MisalignedOffset {
        /// The instruction mnemonic.
        what: &'static str,
        /// The offending offset.
        offset: i32,
    },
    /// A `lui`/`auipc` immediate has non-zero low bits.
    DirtyUpperImm {
        /// The offending value.
        value: u32,
    },
    /// A `lui`/`auipc` operand given to [`Instr::with_imm`] does not fit
    /// the 20-bit field.
    UpperFieldOutOfRange {
        /// The instruction mnemonic.
        what: &'static str,
        /// The offending field value.
        value: u32,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { what, value, range } => write!(
                f,
                "immediate {value} of `{what}` outside [{}, {}]",
                range.0, range.1
            ),
            EncodeError::MisalignedOffset { what, offset } => {
                write!(f, "offset {offset} of `{what}` is not even")
            }
            EncodeError::DirtyUpperImm { value } => {
                write!(f, "upper immediate {value:#x} has non-zero low 12 bits")
            }
            EncodeError::UpperFieldOutOfRange { what, value } => {
                write!(f, "{what} field {value:#x} exceeds 20 bits")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// The word of an instruction with these fields; the caller ORs in the
/// immediate, whose bits the unused register and funct fields leave zero.
fn fields(opcode: u32, (funct7, funct3): (u32, u32), rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    let n = |r: Reg| r.number() as u32;
    opcode | n(rd) << 7 | funct3 << 12 | n(rs1) << 15 | n(rs2) << 20 | funct7 << 25
}

/// The upper 20 bits of a `lui`/`auipc` word.
fn upper(imm: u32) -> Result<u32, EncodeError> {
    match imm & 0xfff {
        0 => Ok(imm),
        _ => Err(EncodeError::DirtyUpperImm { value: imm }),
    }
}

/// The `lui`/`auipc` immediate whose 20-bit field is `value`.
fn upper_field(what: &'static str, value: i32) -> Result<u32, EncodeError> {
    let value = value as u32;
    match value <= 0xfffff {
        true => Ok(value << 12),
        false => Err(EncodeError::UpperFieldOutOfRange { what, value }),
    }
}

impl Instr {
    /// Encodes the instruction into its 32-bit binary word.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if an immediate or offset does not fit its
    /// encoding field. The assembler catches these at assembly time.
    pub fn encode(&self) -> Result<u32, EncodeError> {
        const Z: Reg = Reg::ZERO;
        Ok(match *self {
            Instr::Lui { rd, imm } => upper(imm)? | fields(OPC_LUI, NO_FUNCT, rd, Z, Z),
            Instr::Auipc { rd, imm } => upper(imm)? | fields(OPC_AUIPC, NO_FUNCT, rd, Z, Z),
            Instr::Jal { rd, offset } => {
                J.put("jal", offset)? | fields(OPC_JAL, NO_FUNCT, rd, Z, Z)
            }
            Instr::Jalr { rd, rs1, offset } => {
                I.put("jalr", offset)? | fields(OPC_JALR, NO_FUNCT, rd, rs1, Z)
            }
            Instr::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => B.put(kind.mnemonic(), offset)? | fields(OPC_BRANCH, kind.funct(), Z, rs1, rs2),
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => I.put(kind.mnemonic(), offset)? | fields(OPC_LOAD, kind.funct(), rd, rs1, Z),
            Instr::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => S.put(kind.mnemonic(), offset)? | fields(OPC_STORE, kind.funct(), Z, rs1, rs2),
            Instr::OpImm { kind, rd, rs1, imm } => {
                let layout = if kind.is_shift() { &SHAMT } else { &I };
                layout.put(kind.mnemonic(), imm)? | fields(OPC_OP_IMM, kind.funct(), rd, rs1, Z)
            }
            Instr::Op { kind, rd, rs1, rs2 } => fields(OPC_OP, kind.funct(), rd, rs1, rs2),
            Instr::PFc { rd } => fields(OPC_CUSTOM0, P_FC, rd, Z, Z),
            Instr::PFn { rd } => fields(OPC_CUSTOM0, P_FN, rd, Z, Z),
            Instr::PSet { rd, rs1 } => fields(OPC_CUSTOM0, P_SET, rd, rs1, Z),
            Instr::PMerge { rd, rs1, rs2 } => fields(OPC_CUSTOM0, P_MERGE, rd, rs1, rs2),
            Instr::PSyncm => fields(OPC_CUSTOM0, P_SYNCM, Z, Z, Z),
            Instr::PJalr { rd, rs1, rs2 } => fields(OPC_CUSTOM0, P_JALR, rd, rs1, rs2),
            Instr::PLwcv { rd, offset } => {
                I.put("p_lwcv", offset)? | fields(OPC_CUSTOM1, P_LWCV, rd, Z, Z)
            }
            Instr::PSwcv { rs1, rs2, offset } => {
                S.put("p_swcv", offset)? | fields(OPC_CUSTOM1, P_SWCV, Z, rs1, rs2)
            }
            Instr::PLwre { rd, offset } => {
                I.put("p_lwre", offset)? | fields(OPC_CUSTOM1, P_LWRE, rd, Z, Z)
            }
            Instr::PSwre { rs1, rs2, offset } => {
                S.put("p_swre", offset)? | fields(OPC_CUSTOM1, P_SWRE, Z, rs1, rs2)
            }
            Instr::PJal { rd, rs1, offset } => {
                I.put("p_jal", offset)? | fields(OPC_CUSTOM1, P_JAL, rd, rs1, Z)
            }
        })
    }

    /// Whether the assembly syntax writes this instruction's immediate as
    /// a target relative to its own address (`jal`, the branches,
    /// `p_jal`): an operand naming a symbol is an address there, which
    /// the assembler turns into an offset.
    pub fn is_pc_relative(&self) -> bool {
        matches!(
            self,
            Instr::Jal { .. } | Instr::Branch { .. } | Instr::PJal { .. }
        )
    }

    /// This instruction with its immediate set to `value` as the assembly
    /// syntax writes it: the offset, immediate or slot number, or for
    /// `lui`/`auipc` the 20-bit field the instruction shifts left by 12.
    /// An instruction without an immediate comes back unchanged.
    ///
    /// # Errors
    ///
    /// [`EncodeError::UpperFieldOutOfRange`] if a `lui`/`auipc` field
    /// does not fit 20 bits. Every other range is checked by
    /// [`Instr::encode`].
    pub fn with_imm(mut self, value: i32) -> Result<Instr, EncodeError> {
        match &mut self {
            Instr::Lui { imm, .. } => *imm = upper_field("lui", value)?,
            Instr::Auipc { imm, .. } => *imm = upper_field("auipc", value)?,
            Instr::OpImm { imm, .. } => *imm = value,
            Instr::Jal { offset, .. }
            | Instr::Jalr { offset, .. }
            | Instr::Branch { offset, .. }
            | Instr::Load { offset, .. }
            | Instr::Store { offset, .. }
            | Instr::PJal { offset, .. }
            | Instr::PLwcv { offset, .. }
            | Instr::PSwcv { offset, .. }
            | Instr::PLwre { offset, .. }
            | Instr::PSwre { offset, .. } => *offset = value,
            Instr::Op { .. }
            | Instr::PFc { .. }
            | Instr::PFn { .. }
            | Instr::PSet { .. }
            | Instr::PMerge { .. }
            | Instr::PSyncm
            | Instr::PJalr { .. } => {}
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BranchKind, LoadKind, OpKind, StoreKind};

    #[test]
    fn known_words() {
        // Cross-checked against the RISC-V spec examples / gnu as output.
        // addi x0, x0, 0 == canonical nop == 0x00000013.
        assert_eq!(Instr::NOP.encode().unwrap(), 0x0000_0013);
        // add a0, a1, a2 == 0x00c58533.
        let add = Instr::Op {
            kind: OpKind::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(add.encode().unwrap(), 0x00c5_8533);
        // lw ra, 0(sp) == 0x00012083.
        let lw = Instr::Load {
            kind: LoadKind::W,
            rd: Reg::RA,
            rs1: Reg::SP,
            offset: 0,
        };
        assert_eq!(lw.encode().unwrap(), 0x0001_2083);
        // sw ra, 4(sp) == 0x00112223.
        let sw = Instr::Store {
            kind: StoreKind::W,
            rs1: Reg::SP,
            rs2: Reg::RA,
            offset: 4,
        };
        assert_eq!(sw.encode().unwrap(), 0x0011_2223);
        // mul a0, a0, a1 == 0x02b50533.
        let mul = Instr::Op {
            kind: OpKind::Mul,
            rd: Reg::A0,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        assert_eq!(mul.encode().unwrap(), 0x02b5_0533);
    }

    #[test]
    fn branch_offset_bits() {
        // beq x0, x0, -4: B-type with negative offset.
        let b = Instr::Branch {
            kind: BranchKind::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            offset: -4,
        };
        assert_eq!(b.encode().unwrap(), 0xfe00_0ee3);
    }

    #[test]
    fn jal_offset_bits() {
        // jal ra, 8 == 0x008000ef.
        let j = Instr::Jal {
            rd: Reg::RA,
            offset: 8,
        };
        assert_eq!(j.encode().unwrap(), 0x0080_00ef);
    }
}
