//! Abstract syntax for the mini-C subset.

/// A full translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Global declarations in source order.
    pub globals: Vec<Global>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

/// One global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Number of `int` elements (1 for scalars).
    pub elems: u32,
    /// Whether declared as an array (affects how a bare name evaluates:
    /// arrays decay to their address).
    pub is_array: bool,
    /// Optional initializer: a uniform fill (the paper's
    /// `= {[0 ... N-1] = 1}` form) or an explicit element list.
    pub fill: Option<Init>,
    /// Source line.
    pub line: usize,
}

/// A global initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum Init {
    /// Every element takes the same value (also scalars).
    Uniform(i64),
    /// Explicit leading elements (`{1, 2, 3}`); the rest are zero.
    List(Vec<i64>),
}

/// One function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Name.
    pub name: String,
    /// Parameter names (all parameters are `int` or `int*`).
    pub params: Vec<String>,
    /// Whether the declared return type is `int` (else `void`).
    pub returns_value: bool,
    /// Body.
    pub body: Vec<Stmt>,
    /// Source line.
    pub line: usize,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `int name = init;` (scalar locals only).
    Decl {
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source line.
        line: usize,
    },
    /// `int name[N];` — a stack-allocated local array (uninitialized).
    DeclArray {
        /// Array name.
        name: String,
        /// Element count.
        elems: u32,
        /// Source line.
        line: usize,
    },
    /// An assignment `lhs = rhs;` (or compound `op=` already desugared).
    Assign {
        /// The place written.
        lhs: Place,
        /// The value.
        rhs: Expr,
        /// Source line.
        line: usize,
    },
    /// An expression evaluated for effect (a call).
    Expr(Expr, usize),
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
        /// Source line (of the `if` keyword).
        line: usize,
    },
    /// `while (cond) { .. }`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
        /// Source line (of the `while` keyword).
        line: usize,
    },
    /// `for (init; cond; step) { .. }` (init/step are statements).
    For {
        /// Initialization.
        init: Box<Option<Stmt>>,
        /// Condition (empty = true).
        cond: Option<Expr>,
        /// Step.
        step: Box<Option<Stmt>>,
        /// Body.
        body: Vec<Stmt>,
        /// Source line (of the `for` keyword).
        line: usize,
    },
    /// `return e;` / `return;`.
    Return(Option<Expr>, usize),
    /// `break;` out of the innermost loop.
    Break(usize),
    /// `continue;` to the innermost loop's step/condition.
    Continue(usize),
    /// A `#pragma omp parallel for` region: the canonical
    /// `for (v = 0; v < n; v++) ...` loop, parallelized.
    ParallelFor {
        /// The loop/member-index variable.
        var: String,
        /// Team size (must be a compile-time constant).
        count: i64,
        /// The member body (sees `var` as its index).
        body: Vec<Stmt>,
        /// Source line.
        line: usize,
    },
    /// A `#pragma omp parallel sections` region.
    ParallelSections {
        /// One body per section.
        sections: Vec<Vec<Stmt>>,
        /// Source line.
        line: usize,
    },
}

/// Visits every statement of `stmts` in pre-order, descending into
/// `if` arms, `while` bodies and `for` loops (init, body, step — the
/// order that fixes register and frame assignment in the code
/// generator). Parallel regions are visited but not entered: their
/// bodies are separate functions with their own locals.
pub fn walk<'a>(stmts: &'a [Stmt], visit: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        visit(s);
        match s {
            Stmt::If { then, els, .. } => {
                walk(then, visit);
                walk(els, visit);
            }
            Stmt::While { body, .. } => walk(body, visit),
            Stmt::For {
                init, step, body, ..
            } => {
                walk(init.as_slice(), visit);
                walk(body, visit);
                walk(step.as_slice(), visit);
            }
            _ => {}
        }
    }
}

/// A place an assignment can write.
#[derive(Debug, Clone, PartialEq)]
pub enum Place {
    /// A named variable (local, param or scalar global).
    Var(String),
    /// `arr[index]` (global array or pointer).
    Index(String, Expr),
    /// `*ptr`.
    Deref(Expr),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Variable read (array names decay to their address).
    Var(String),
    /// `arr[index]` load.
    Index(String, Box<Expr>),
    /// `*ptr` load.
    Deref(Box<Expr>),
    /// `&arr[index]` / `&var`.
    AddrOf(Box<Place>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!`).
    Not,
    /// Bitwise not (`~`).
    BitNot,
}

/// Binary operators (in increasing precedence tiers; see the parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `||` (short-circuit).
    LOr,
    /// `&&` (short-circuit).
    LAnd,
    /// `|`.
    Or,
    /// `^`.
    Xor,
    /// `&`.
    And,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `<<`.
    Shl,
    /// `>>` (arithmetic).
    Shr,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/` (signed).
    Div,
    /// `%` (signed).
    Rem,
}
