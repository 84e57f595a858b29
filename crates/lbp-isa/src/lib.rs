//! # lbp-isa — the PISC instruction set (RV32IM + X_PAR)
//!
//! The *Parallel Instruction Set Computer* (PISC) ISA of the LBP processor:
//! the RV32IM base instruction set extended with the twelve `X_PAR` machine
//! instructions for hardware fork/join, inter-hart register transmission and
//! per-hart memory synchronization (Goossens, Louetsi, Parello,
//! *"Deterministic OpenMP and the LBP Parallelizing Manycore Processor"*,
//! PACT 2021, Fig. 5).
//!
//! This crate is the shared vocabulary of the whole stack: the assembler
//! ([`lbp-asm`]), the mini-C compiler (`lbp-cc`), the Deterministic OpenMP
//! runtime (`lbp-omp`) and the cycle-level simulator (`lbp-sim`) all speak
//! [`Instr`].
//!
//! Each encoding is written once: a kind's funct bits sit in its row
//! beside its mnemonic, an X_PAR instruction's in one constant, and each
//! immediate format is one bit layout. [`Instr::encode`] and
//! [`Instr::decode`] both read them, and a word decodes only if the
//! instruction it decodes to encodes back to it.
//!
//! # Examples
//!
//! Encode, decode and disassemble an X_PAR fork:
//!
//! ```
//! use lbp_isa::{Instr, Reg};
//!
//! let fork = Instr::PFc { rd: Reg::T6 };
//! let word = fork.encode()?;
//! assert_eq!(Instr::decode(word)?, fork);
//! assert_eq!(fork.to_string(), "p_fc t6");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`lbp-asm`]: https://example.org/lbp

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod encode;
mod hart;
mod instr;
mod mem;
mod reg;

pub use decode::DecodeError;
pub use encode::{EncodeError, OPC_CUSTOM0, OPC_CUSTOM1};
pub use hart::{fork_result, HartId, IdentityWord, HARTS_PER_CORE, IDENTITY_VALID};
pub use instr::{BranchKind, Instr, LoadKind, OpImmKind, OpKind, StoreKind};
pub use mem::{
    Region, CODE_BASE, DEFAULT_SHARED_BANK_BYTES, IO_BASE, LOCAL_BANK_BYTES, LOCAL_BASE,
    SHARED_BASE,
};
pub use reg::{ParseRegError, Reg};

/// The size of one instruction word in bytes.
pub const INSTR_BYTES: u32 = 4;
