//! The symbolic program model: what the text parser and the programmatic
//! [`builder`](crate::builder) both produce, and what the two-pass assembler
//! consumes.

use std::fmt;

use lbp_isa::Instr;

use crate::expr::Expr;

/// An instruction whose immediate operand may still reference symbols.
#[derive(Clone, PartialEq)]
pub enum SymInstr {
    /// Already fully resolved.
    Ready(Instr),
    /// Needs the expression evaluated and the immediate patched in.
    Patch {
        /// The instruction, its immediate zero until
        /// [`Instr::with_imm`] sets it. If [`Instr::is_pc_relative`],
        /// an expression naming a symbol is an absolute target address
        /// that becomes an offset from the instruction's own address.
        instr: Instr,
        /// The unevaluated immediate/target expression.
        expr: Expr,
    },
}

/// A patch renders as `Patch { kind: <the instruction without its
/// immediate>, expr: .. }`: the form whose hashes `tests/asm_identity.rs`
/// pins.
impl fmt::Debug for SymInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymInstr::Ready(instr) => f.debug_tuple("Ready").field(instr).finish(),
            SymInstr::Patch { instr, expr } => {
                // The immediate is the instruction's last field.
                let shape = format!("{instr:?}");
                let fields = shape
                    .rsplit_once(", ")
                    .map_or(&*shape, |(fields, _)| fields);
                f.debug_struct("Patch")
                    .field("kind", &format_args!("{fields} }}"))
                    .field("expr", expr)
                    .finish()
            }
        }
    }
}

impl From<Instr> for SymInstr {
    fn from(i: Instr) -> SymInstr {
        SymInstr::Ready(i)
    }
}

/// Which section an item is emitted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Section {
    /// Program text (code banks).
    #[default]
    Text,
    /// Initialized global data (shared memory).
    Data,
}

/// One unit of a symbolic program.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Defines a label at the current location of the current section.
    Label(String),
    /// Switches the current section.
    Section(Section),
    /// An instruction (text section only).
    Instr(SymInstr),
    /// A 32-bit datum (`.word`). The location counter must already be
    /// 4-byte aligned (use `.align 4`).
    Word(Expr),
    /// `n` zero bytes (`.space n`); the count must evaluate from symbols
    /// defined above it.
    Space(Expr),
    /// Aligns the location counter to a multiple of `n` bytes (`.align`
    /// takes the byte count, not a power of two).
    Align(u32),
    /// Defines a constant symbol (`.equ name, expr`; the expression must be
    /// evaluable from already-defined symbols).
    Equ(String, Expr),
}

/// An [`Item`] together with the source line it came from (1-based; line 0
/// marks builder-generated items).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceItem {
    /// The item.
    pub item: Item,
    /// 1-based source line, or 0 for generated code.
    pub line: usize,
}

impl SourceItem {
    /// Wraps an item with no source location (generated code).
    pub fn generated(item: Item) -> SourceItem {
        SourceItem { item, line: 0 }
    }
}
