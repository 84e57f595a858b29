//! Constant expressions over symbols, as they appear in assembly operands.

use std::collections::BTreeMap;
use std::fmt;

use crate::assemble::WORD;

/// A constant expression: integer literals, symbols, sums/differences, and
/// the RISC-V `%hi`/`%lo` relocation operators.
///
/// # Examples
///
/// ```
/// use lbp_asm::Expr;
/// use std::collections::BTreeMap;
///
/// let e = Expr::sym("table").add(Expr::konst(8));
/// let mut syms = BTreeMap::new();
/// syms.insert("table".to_owned(), 0x8000_0100);
/// assert_eq!(e.eval(&syms).unwrap(), 0x8000_0108);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Const(i64),
    /// A reference to a label or equated symbol.
    Symbol(String),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// `%hi(e)`: upper 20 bits, adjusted for the sign of the low part.
    Hi(Box<Expr>),
    /// `%lo(e)`: sign-extended low 12 bits.
    Lo(Box<Expr>),
}

impl Expr {
    /// An integer literal expression.
    pub fn konst(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// A symbol reference expression.
    pub fn sym(name: impl Into<String>) -> Expr {
        Expr::Symbol(name.into())
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // builder method, not arithmetic
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)] // builder method, not arithmetic
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `%hi(self)`.
    pub fn hi(self) -> Expr {
        Expr::Hi(Box::new(self))
    }

    /// `%lo(self)`.
    pub fn lo(self) -> Expr {
        Expr::Lo(Box::new(self))
    }

    /// Evaluates against a symbol table.
    ///
    /// # Errors
    ///
    /// Returns the name of the first undefined symbol encountered.
    pub fn eval(&self, symbols: &BTreeMap<String, u32>) -> Result<i64, UndefinedSymbol> {
        Ok(match self {
            Expr::Const(v) => *v,
            Expr::Symbol(name) => symbols
                .get(name)
                .copied()
                .ok_or_else(|| UndefinedSymbol(name.clone()))?
                as i64,
            Expr::Add(a, b) => a.eval(symbols)?.wrapping_add(b.eval(symbols)?),
            Expr::Sub(a, b) => a.eval(symbols)?.wrapping_sub(b.eval(symbols)?),
            Expr::Hi(e) => narrow(e.eval(symbols)?, |v| hi20(v).into()),
            Expr::Lo(e) => narrow(e.eval(symbols)?, |v| lo12(v).into()),
        })
    }

    /// Folds symbol-free subexpressions into constants.
    ///
    /// The parser applies this so that e.g. `li t0, -1` (parsed as `0 - 1`)
    /// is recognized as a small constant and expands to a single `addi`.
    pub fn fold(self) -> Expr {
        match self {
            Expr::Add(a, b) => match (a.fold(), b.fold()) {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.wrapping_add(y)),
                (a, b) => a.add(b),
            },
            Expr::Sub(a, b) => match (a.fold(), b.fold()) {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.wrapping_sub(y)),
                (a, b) => a.sub(b),
            },
            Expr::Hi(e) => match e.fold() {
                Expr::Const(v) => Expr::Const(narrow(v, |v| hi20(v).into())),
                e => e.hi(),
            },
            Expr::Lo(e) => match e.fold() {
                Expr::Const(v) => Expr::Const(narrow(v, |v| lo12(v).into())),
                e => e.lo(),
            },
            leaf => leaf,
        }
    }

    /// Whether the expression references any symbol (used to distinguish
    /// label targets from raw numeric offsets in branch operands).
    pub fn references_symbol(&self) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Symbol(_) => true,
            Expr::Add(a, b) | Expr::Sub(a, b) => a.references_symbol() || b.references_symbol(),
            Expr::Hi(e) | Expr::Lo(e) => e.references_symbol(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Symbol(s) => write!(f, "{s}"),
            Expr::Add(a, b) => write!(f, "{a}+{b}"),
            Expr::Sub(a, b) => write!(f, "{a}-{b}"),
            Expr::Hi(e) => write!(f, "%hi({e})"),
            Expr::Lo(e) => write!(f, "%lo({e})"),
        }
    }
}

/// `%hi` or `%lo` of a value that fits a word; a wider one passes through
/// whole, for the assembler's narrowing to refuse with its value.
fn narrow(v: i64, part: impl Fn(u32) -> i64) -> i64 {
    if WORD.contains(&v) {
        part(v as u32)
    } else {
        v
    }
}

/// The `%hi` part of an absolute address: the upper 20 bits, rounded so that
/// `(%hi << 12) + sign_extend(%lo)` reconstructs the value.
pub fn hi20(value: u32) -> u32 {
    value.wrapping_add(0x800) >> 12
}

/// The `%lo` part of an absolute address: the sign-extended low 12 bits.
pub fn lo12(value: u32) -> i32 {
    ((value & 0xfff) as i32) << 20 >> 20
}

/// Error: an expression references a symbol absent from the symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndefinedSymbol(pub String);

impl fmt::Display for UndefinedSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undefined symbol `{}`", self.0)
    }
}

impl std::error::Error for UndefinedSymbol {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hi_lo_reconstruct() {
        for v in [0u32, 1, 0x7ff, 0x800, 0xfff, 0x1000, 0x8000_0100, u32::MAX] {
            let hi = hi20(v);
            let lo = lo12(v);
            assert_eq!(
                (hi << 12).wrapping_add(lo as u32),
                v,
                "hi/lo of {v:#x} must reconstruct"
            );
        }
    }

    #[test]
    fn eval_arithmetic() {
        let syms = BTreeMap::from([("a".to_owned(), 100u32)]);
        let e = Expr::sym("a").add(Expr::konst(5)).sub(Expr::konst(2));
        assert_eq!(e.eval(&syms).unwrap(), 103);
    }

    #[test]
    fn undefined_symbol_reported() {
        let e = Expr::sym("missing");
        assert_eq!(
            e.eval(&BTreeMap::new()),
            Err(UndefinedSymbol("missing".into()))
        );
    }

    #[test]
    fn symbol_detection() {
        assert!(!Expr::konst(4).references_symbol());
        assert!(Expr::sym("x").add(Expr::konst(1)).references_symbol());
        assert!(Expr::sym("x").lo().references_symbol());
    }
}
