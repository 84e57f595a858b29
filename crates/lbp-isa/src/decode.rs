//! Binary decoding of 32-bit instruction words into [`Instr`].

use core::fmt;

use crate::encode::*;
use crate::instr::{BranchKind, Instr, LoadKind, OpImmKind, OpKind, StoreKind};
use crate::Reg;

/// Error produced when a word is not a valid RV32IM / X_PAR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable instruction word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

impl Instr {
    /// Decodes a 32-bit instruction word.
    ///
    /// The major opcode, funct3 and funct7 choose the instruction, its
    /// fields fill it in, and the word is accepted only if that
    /// instruction encodes back to it: a field the instruction does not
    /// have (a register of `p_fc`, any of `p_syncm`) must be zero.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for words outside the implemented RV32IM +
    /// X_PAR space and for words that do not encode back to themselves.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        let err = DecodeError { word };
        let reg = |at: u32| Reg::new(((word >> at) & 0x1f) as u8).expect("5-bit field");
        let (rd, rs1, rs2) = (reg(7), reg(15), reg(20));
        let funct = (word >> 25, (word >> 12) & 0x7);
        // Where a format has immediate bits in place of funct7.
        let funct3 = (0, funct.1);
        let instr = match word & 0x7f {
            OPC_LUI => Instr::Lui {
                rd,
                imm: word & !0xfff,
            },
            OPC_AUIPC => Instr::Auipc {
                rd,
                imm: word & !0xfff,
            },
            OPC_JAL => Instr::Jal {
                rd,
                offset: J.get(word),
            },
            OPC_JALR => Instr::Jalr {
                rd,
                rs1,
                offset: I.get(word),
            },
            OPC_BRANCH => Instr::Branch {
                kind: BranchKind::from_funct(funct3).ok_or(err)?,
                rs1,
                rs2,
                offset: B.get(word),
            },
            OPC_LOAD => Instr::Load {
                kind: LoadKind::from_funct(funct3).ok_or(err)?,
                rd,
                rs1,
                offset: I.get(word),
            },
            OPC_STORE => Instr::Store {
                kind: StoreKind::from_funct(funct3).ok_or(err)?,
                rs1,
                rs2,
                offset: S.get(word),
            },
            OPC_OP_IMM => {
                // Only a shift has a funct7; above any other kind sit
                // immediate bits.
                let kind = OpImmKind::from_funct(funct).or(OpImmKind::from_funct(funct3));
                let kind = kind.ok_or(err)?;
                let imm = if kind.is_shift() {
                    SHAMT.get(word)
                } else {
                    I.get(word)
                };
                Instr::OpImm { kind, rd, rs1, imm }
            }
            OPC_OP => Instr::Op {
                kind: OpKind::from_funct(funct).ok_or(err)?,
                rd,
                rs1,
                rs2,
            },
            OPC_CUSTOM0 => match funct {
                P_FC => Instr::PFc { rd },
                P_FN => Instr::PFn { rd },
                P_SET => Instr::PSet { rd, rs1 },
                P_MERGE => Instr::PMerge { rd, rs1, rs2 },
                P_SYNCM => Instr::PSyncm,
                P_JALR => Instr::PJalr { rd, rs1, rs2 },
                _ => return Err(err),
            },
            OPC_CUSTOM1 => match funct3 {
                P_LWCV => Instr::PLwcv {
                    rd,
                    offset: I.get(word),
                },
                P_SWCV => Instr::PSwcv {
                    rs1,
                    rs2,
                    offset: S.get(word),
                },
                P_LWRE => Instr::PLwre {
                    rd,
                    offset: I.get(word),
                },
                P_SWRE => Instr::PSwre {
                    rs1,
                    rs2,
                    offset: S.get(word),
                },
                P_JAL => Instr::PJal {
                    rd,
                    rs1,
                    offset: I.get(word),
                },
                _ => return Err(err),
            },
            _ => return Err(err),
        };
        match instr.encode() {
            Ok(w) if w == word => Ok(instr),
            _ => Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediates_sign_extend() {
        // addi a0, a0, -1
        let i = Instr::OpImm {
            kind: OpImmKind::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: -1,
        };
        let w = i.encode().unwrap();
        assert_eq!(Instr::decode(w).unwrap(), i);
        // sw with negative offset
        let s = Instr::Store {
            kind: StoreKind::W,
            rs1: Reg::SP,
            rs2: Reg::RA,
            offset: -8,
        };
        assert_eq!(Instr::decode(s.encode().unwrap()).unwrap(), s);
        // branch backward
        let b = Instr::Branch {
            kind: BranchKind::Ltu,
            rs1: Reg::T1,
            rs2: Reg::T2,
            offset: -4096,
        };
        assert_eq!(Instr::decode(b.encode().unwrap()).unwrap(), b);
        // jal far backward
        let j = Instr::Jal {
            rd: Reg::ZERO,
            offset: -(1 << 20),
        };
        assert_eq!(Instr::decode(j.encode().unwrap()).unwrap(), j);
    }

    #[test]
    fn rejects_reserved_encodings() {
        // funct3 = 011 under LOAD is reserved (ld is RV64 only).
        assert!(Instr::decode(0x0001_3083).is_err());
        // SYSTEM opcode is not implemented (LBP has no traps).
        assert!(Instr::decode(0x0000_0073).is_err());
        // All-zero and all-one words are illegal per the RISC-V spec.
        assert!(Instr::decode(0).is_err());
        assert!(Instr::decode(u32::MAX).is_err());
    }

    #[test]
    fn xpar_round_trips() {
        let cases = [
            Instr::PFc { rd: Reg::T6 },
            Instr::PFn { rd: Reg::T6 },
            Instr::PSet {
                rd: Reg::T0,
                rs1: Reg::T0,
            },
            Instr::PMerge {
                rd: Reg::T0,
                rs1: Reg::T0,
                rs2: Reg::T6,
            },
            Instr::PSyncm,
            Instr::PJalr {
                rd: Reg::RA,
                rs1: Reg::T0,
                rs2: Reg::A0,
            },
            Instr::PJal {
                rd: Reg::RA,
                rs1: Reg::T6,
                offset: 12,
            },
            Instr::PLwcv {
                rd: Reg::A1,
                offset: 8,
            },
            Instr::PSwcv {
                rs1: Reg::T6,
                rs2: Reg::A1,
                offset: 8,
            },
            Instr::PLwre {
                rd: Reg::A0,
                offset: 3,
            },
            Instr::PSwre {
                rs1: Reg::T0,
                rs2: Reg::A0,
                offset: 3,
            },
        ];
        for i in cases {
            let w = i.encode().unwrap();
            assert_eq!(Instr::decode(w).unwrap(), i, "round-trip of {i}");
        }
    }

    #[test]
    fn xpar_reserved_fields_rejected() {
        // p_fc with a non-zero rs1 field is reserved.
        let w = Instr::PFc { rd: Reg::T6 }.encode().unwrap() | (1 << 15);
        assert!(Instr::decode(w).is_err());
        // p_syncm with a non-zero rd field is reserved.
        let w = Instr::PSyncm.encode().unwrap() | (1 << 7);
        assert!(Instr::decode(w).is_err());
    }
}
