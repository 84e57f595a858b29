//! # lbp-asm — assembler and code builder for the PISC ISA
//!
//! A two-pass assembler for RV32IM + X_PAR assembly text, the symbolic
//! program model behind it, and the code-generation builder the
//! Deterministic OpenMP runtime and the mini-C compiler write their lines
//! through: it holds a program's listing and, beside it, the items the
//! assembler consumes, each line's items final as soon as it is written.
//!
//! The accepted syntax is the GNU-as subset the paper's listings use,
//! extended with the twelve X_PAR mnemonics (`p_fc`, `p_fn`, `p_swcv`,
//! `p_lwcv`, `p_swre`, `p_lwre`, `p_jal`, `p_jalr`, `p_ret`, `p_set`,
//! `p_merge`, `p_syncm`).
//!
//! # Examples
//!
//! Assemble the paper's fork protocol (Fig. 8):
//!
//! ```
//! let image = lbp_asm::assemble(
//!     "fork:
//!         p_fc    t6
//!         p_swcv  ra, t6, 0
//!         p_swcv  t0, t6, 4
//!         p_swcv  a1, t6, 8
//!         p_merge t0, t0, t6
//!         p_syncm
//!         p_jalr  ra, t0, a0
//!         p_lwcv  ra, 0
//!         p_lwcv  t0, 4
//!         p_lwcv  a1, 8",
//! )?;
//! assert_eq!(image.text.len(), 10);
//! # Ok::<(), lbp_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assemble;
mod builder;
mod error;
mod expr;
mod image;
mod item;
mod parser;

pub use assemble::{assemble, assemble_items, MAX_IMAGE_BYTES};
pub use builder::{Asm, Mark};
pub use error::AsmError;
pub use expr::{hi20, lo12, Expr, UndefinedSymbol};
pub use image::Image;
pub use item::{Item, Section, SourceItem, SymInstr};
pub use parser::parse_program;
