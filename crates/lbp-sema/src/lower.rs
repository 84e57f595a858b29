//! The interpreter's resolved form of a checked unit.
//!
//! Every name is resolved once, before the first step, in the order the
//! code generator resolves it: a frame array, then a register local or
//! parameter, then a global. lbp-cc's sema rejects shadowed, duplicate
//! and captured names, so the answer is the same at every point of a
//! body. Each body carries its local count and its array declarations,
//! so a frame is built without walking declarations. A global scalar is
//! its flat word index in the shared store; a global array's name is its
//! address in the [`Layout`]. The statements and expression nodes of the
//! whole unit live in two arenas, a block being a run of statements.

use lbp_cc::ast::{self, BinOp, Expr as AstExpr, Place as AstPlace, Stmt as AstStmt, UnOp};
use lbp_cc::sema::Checked;

use crate::{Layout, Trap};

/// The resolved unit.
pub(crate) struct Program<'a> {
    /// One entry per function, in declaration order.
    pub funcs: Vec<Func<'a>>,
    /// The member bodies of parallel regions.
    pub regions: Vec<Body<'a>>,
    pub stmts: Vec<Stmt>,
    pub exprs: Vec<Expr>,
    /// The argument lists of calls, as runs of expression ids.
    pub args: Vec<ExprId>,
    /// The globals indexed accesses start from.
    pub globals: Vec<Global>,
}

impl Program<'_> {
    pub fn block(&self, b: Block) -> &[Stmt] {
        &self.stmts[b.first as usize..(b.first + b.len) as usize]
    }
}

/// An index into [`Program::exprs`].
pub(crate) type ExprId = u32;

/// An index into [`Program::stmts`].
pub(crate) type StmtId = u32;

/// A run of [`Program::stmts`].
#[derive(Clone, Copy, Default)]
pub(crate) struct Block {
    first: u32,
    len: u32,
}

/// A global an indexed access starts from.
pub(crate) struct Global {
    pub addr: u32,
    /// Flat word index of element 0, and how many elements map onto
    /// consecutive words without a layout lookup (0 when the layout
    /// cannot promise it; every access then resolves its address).
    pub word: usize,
    pub elems: u32,
}

pub(crate) struct Func<'a> {
    pub name: &'a str,
    pub returns_value: bool,
    pub body: Body<'a>,
}

/// A function body or a parallel member body.
#[derive(Default)]
pub(crate) struct Body<'a> {
    pub block: Block,
    /// The name of each register-local slot (for trap messages):
    /// parameters first, then every `Decl` in a flat walk that skips
    /// parallel bodies, as the code generator allocates registers.
    pub locals: Vec<&'a str>,
    /// How many of `locals` are parameters.
    pub params: usize,
    /// Element count of each frame array, in declaration order.
    pub arrays: Vec<u32>,
}

pub(crate) enum Stmt {
    /// `int x = e;` with x's slot, or `None`: a declaration without an
    /// initializer (`int buf[N];` too), which only costs its step.
    Decl(Option<(usize, ExprId)>, usize),
    Assign(Place, ExprId, usize),
    Expr(ExprId, usize),
    If(ExprId, Block, Block, usize),
    /// `while` and `for`: the init statement runs once, above the loop
    /// marker.
    Loop(Option<StmtId>, Loop),
    Return(Option<ExprId>, usize),
    Break(usize),
    Continue(usize),
    /// `parallel for`: `team` members run one region body with the
    /// member index as its one parameter.
    ParallelFor(u32, u32, usize),
    /// `parallel sections`: one member per region body of a run, given
    /// as its first index and length.
    ParallelSections(u32, u32, usize),
}

impl Stmt {
    pub fn line(&self) -> usize {
        match self {
            Stmt::Loop(_, lp) => lp.line,
            Stmt::Decl(_, line)
            | Stmt::Assign(_, _, line)
            | Stmt::Expr(_, line)
            | Stmt::If(_, _, _, line)
            | Stmt::Return(_, line)
            | Stmt::Break(line)
            | Stmt::Continue(line)
            | Stmt::ParallelFor(_, _, line)
            | Stmt::ParallelSections(_, _, line) => *line,
        }
    }
}

pub(crate) struct Loop {
    pub cond: Option<ExprId>,
    pub step: Option<StmtId>,
    pub body: Block,
    pub line: usize,
}

/// Where an indexed access starts.
#[derive(Clone, Copy)]
pub(crate) enum Base {
    /// A frame array's arena base, by slot.
    Array(u32),
    /// A pointer held in a register local, by slot.
    Pointer(u32),
    /// A global, by index into [`Program::globals`].
    Global(u32),
}

#[derive(Clone, Copy)]
pub(crate) enum Place {
    Local(usize),
    /// A global scalar, by flat word index.
    Global(usize),
    Elem(Base, ExprId),
    Deref(ExprId),
}

/// One variant per AST node, so that every node still costs one step.
#[derive(Clone, Copy)]
pub(crate) enum Expr {
    Int(i32),
    Local(u32),
    /// A frame array's name, decayed to its address.
    Array(u32),
    /// A global scalar's value, by flat word index.
    Global(u32),
    Load(Base, ExprId),
    Deref(ExprId),
    AddrOf(Base, ExprId),
    /// `&*p`: the step of the `&`, then `p`.
    AddrOfDeref(ExprId),
    Unary(UnOp, ExprId),
    Binary(BinOp, ExprId, ExprId),
    LAnd(ExprId, ExprId),
    LOr(ExprId, ExprId),
    /// A function and its arguments, `args[first..first + count]`.
    Call {
        func: u32,
        first: u32,
        count: u32,
    },
    SetNumThreads(ExprId),
    RoiStart,
    RoiEnd,
}

/// Resolves every function of `cx` against `layout`.
///
/// # Errors
///
/// An `unresolved` trap on a name that is no local, global or function;
/// sema rejects such a unit, so only a hand-built one gets here.
pub(crate) fn lower<'a>(cx: &'a Checked, layout: &Layout) -> Result<Program<'a>, Trap> {
    let mut words = Vec::with_capacity(cx.unit.globals.len());
    let mut next = 0usize;
    for g in &cx.unit.globals {
        words.push(next);
        next += g.elems as usize;
    }
    let mut lower = Lower {
        cx,
        layout,
        words,
        bases: vec![None; cx.unit.globals.len()],
        program: Program {
            funcs: Vec::with_capacity(cx.unit.functions.len()),
            regions: Vec::new(),
            stmts: Vec::new(),
            exprs: Vec::new(),
            args: Vec::new(),
            globals: Vec::new(),
        },
    };
    for f in &cx.unit.functions {
        let body = lower.body(&f.body, &f.params)?;
        lower.program.funcs.push(Func {
            name: &f.name,
            returns_value: f.returns_value,
            body,
        });
    }
    Ok(lower.program)
}

/// The unit being resolved, and the program being built.
struct Lower<'a, 'l> {
    cx: &'a Checked,
    layout: &'l Layout,
    /// Flat word index of each global's first element.
    words: Vec<usize>,
    /// Each global's entry in `program.globals`, once an access needs it.
    bases: Vec<Option<u32>>,
    program: Program<'a>,
}

/// One body's frame names.
struct Scope<'a> {
    locals: Vec<&'a str>,
    arrays: Vec<&'a str>,
}

fn unresolved(name: &str, line: usize) -> Trap {
    Trap {
        class: "unresolved",
        line,
        message: format!("`{name}` names no local, global or function"),
    }
}

impl Scope<'_> {
    fn array(&self, name: &str) -> Option<u32> {
        // The last declaration wins, as it did in a name → array map.
        (self.arrays.iter().rposition(|n| *n == name)).map(|i| i as u32)
    }

    fn local(&self, name: &str) -> Option<usize> {
        self.locals.iter().position(|n| *n == name)
    }
}

impl<'a> Lower<'a, '_> {
    fn body(&mut self, stmts: &'a [AstStmt], params: &'a [String]) -> Result<Body<'a>, Trap> {
        let mut locals: Vec<&'a str> = params.iter().map(String::as_str).collect();
        let mut arrays = Vec::new();
        let mut elems = Vec::new();
        ast::walk(stmts, &mut |s| match s {
            AstStmt::Decl { name, .. } if !locals.contains(&name.as_str()) => locals.push(name),
            AstStmt::DeclArray { name, elems: n, .. } => {
                arrays.push(name.as_str());
                elems.push(*n);
            }
            _ => {}
        });
        let scope = Scope { locals, arrays };
        let block = self.block(&scope, stmts)?;
        Ok(Body {
            block,
            locals: scope.locals,
            params: params.len(),
            arrays: elems,
        })
    }

    /// A global by name; the last declaration wins, as it did in a name →
    /// global map.
    fn global(&self, name: &str, line: usize) -> Result<usize, Trap> {
        (self.cx.unit.globals.iter())
            .rposition(|g| g.name == name)
            .ok_or_else(|| unresolved(name, line))
    }

    fn base(&mut self, scope: &Scope<'a>, name: &str, line: usize) -> Result<Base, Trap> {
        if let Some(i) = scope.array(name) {
            return Ok(Base::Array(i));
        }
        if let Some(i) = scope.local(name) {
            return Ok(Base::Pointer(i as u32));
        }
        let gi = self.global(name, line)?;
        if let Some(id) = self.bases[gi] {
            return Ok(Base::Global(id));
        }
        let id = self.program.globals.len() as u32;
        self.program.globals.push(Global {
            addr: self.layout.base(gi),
            word: self.words[gi],
            elems: if self.layout.direct(gi) {
                self.cx.unit.globals[gi].elems
            } else {
                0
            },
        });
        self.bases[gi] = Some(id);
        Ok(Base::Global(id))
    }

    /// Lowers a block into a run of consecutive statements: the run is
    /// reserved first, so nested blocks land after it.
    fn block(&mut self, scope: &Scope<'a>, stmts: &'a [AstStmt]) -> Result<Block, Trap> {
        let first = self.program.stmts.len();
        (self.program.stmts).extend(stmts.iter().map(|_| Stmt::Break(0)));
        for (k, s) in stmts.iter().enumerate() {
            self.program.stmts[first + k] = self.stmt(scope, s)?;
        }
        Ok(Block {
            first: first as u32,
            len: stmts.len() as u32,
        })
    }

    fn single(
        &mut self,
        scope: &Scope<'a>,
        s: &'a Option<AstStmt>,
    ) -> Result<Option<StmtId>, Trap> {
        s.as_ref()
            .map(|s| self.block(scope, std::slice::from_ref(s)).map(|b| b.first))
            .transpose()
    }

    fn stmt(&mut self, scope: &Scope<'a>, s: &'a AstStmt) -> Result<Stmt, Trap> {
        Ok(match s {
            AstStmt::Decl { name, init, line } => {
                let init = match init {
                    Some(e) => {
                        let slot = scope.local(name).ok_or_else(|| unresolved(name, *line))?;
                        Some((slot, self.expr(scope, e, *line)?))
                    }
                    None => None,
                };
                Stmt::Decl(init, *line)
            }
            // Allocated at frame creation, like the prologue does.
            AstStmt::DeclArray { line, .. } => Stmt::Decl(None, *line),
            AstStmt::Assign { lhs, rhs, line } => {
                let place = self.place(scope, lhs, *line)?;
                Stmt::Assign(place, self.expr(scope, rhs, *line)?, *line)
            }
            AstStmt::Expr(e, line) => Stmt::Expr(self.expr(scope, e, *line)?, *line),
            AstStmt::If {
                cond,
                then,
                els,
                line,
            } => Stmt::If(
                self.expr(scope, cond, *line)?,
                self.block(scope, then)?,
                self.block(scope, els)?,
                *line,
            ),
            AstStmt::While { cond, body, line } => Stmt::Loop(
                None,
                Loop {
                    cond: Some(self.expr(scope, cond, *line)?),
                    step: None,
                    body: self.block(scope, body)?,
                    line: *line,
                },
            ),
            AstStmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => Stmt::Loop(
                self.single(scope, init)?,
                Loop {
                    cond: (cond.as_ref())
                        .map(|c| self.expr(scope, c, *line))
                        .transpose()?,
                    step: self.single(scope, step)?,
                    body: self.block(scope, body)?,
                    line: *line,
                },
            ),
            AstStmt::Return(value, line) => Stmt::Return(
                (value.as_ref())
                    .map(|e| self.expr(scope, e, *line))
                    .transpose()?,
                *line,
            ),
            AstStmt::Break(line) => Stmt::Break(*line),
            AstStmt::Continue(line) => Stmt::Continue(*line),
            AstStmt::ParallelFor {
                var,
                count,
                body,
                line,
            } => {
                let body = self.body(body, std::slice::from_ref(var))?;
                self.program.regions.push(body);
                let id = self.program.regions.len() as u32 - 1;
                Stmt::ParallelFor(*count as u32, id, *line)
            }
            AstStmt::ParallelSections { sections, line } => {
                // Reserved first, like a block's run.
                let first = self.program.regions.len();
                (self.program.regions).resize_with(first + sections.len(), Body::default);
                for (k, body) in sections.iter().enumerate() {
                    self.program.regions[first + k] = self.body(body, &[])?;
                }
                Stmt::ParallelSections(first as u32, sections.len() as u32, *line)
            }
        })
    }

    fn place(&mut self, scope: &Scope<'a>, p: &'a AstPlace, line: usize) -> Result<Place, Trap> {
        Ok(match p {
            // A plain name is a local, else a global scalar: sema refuses
            // an assignment to an array.
            AstPlace::Var(name) => match scope.local(name) {
                Some(i) => Place::Local(i),
                None => Place::Global(self.words[self.global(name, line)?]),
            },
            AstPlace::Index(name, idx) => {
                let base = self.base(scope, name, line)?;
                Place::Elem(base, self.expr(scope, idx, line)?)
            }
            AstPlace::Deref(p) => Place::Deref(self.expr(scope, p, line)?),
        })
    }

    /// Lowers `e` into the arena, children first, and returns its id.
    fn expr(&mut self, scope: &Scope<'a>, e: &'a AstExpr, line: usize) -> Result<ExprId, Trap> {
        let node = match e {
            AstExpr::Int(v) => Expr::Int(*v as i32),
            AstExpr::Var(name) => {
                if let Some(i) = scope.array(name) {
                    Expr::Array(i)
                } else if let Some(i) = scope.local(name) {
                    Expr::Local(i as u32)
                } else {
                    let gi = self.global(name, line)?;
                    if self.cx.unit.globals[gi].is_array {
                        // Array names decay to their address.
                        Expr::Int(self.layout.base(gi) as i32)
                    } else {
                        Expr::Global(self.words[gi] as u32)
                    }
                }
            }
            AstExpr::Index(name, idx) => {
                let base = self.base(scope, name, line)?;
                Expr::Load(base, self.expr(scope, idx, line)?)
            }
            AstExpr::Deref(p) => Expr::Deref(self.expr(scope, p, line)?),
            AstExpr::AddrOf(place) => match place.as_ref() {
                // Sema refuses the address of a register local.
                AstPlace::Var(name) => match scope.array(name) {
                    Some(i) => Expr::Array(i),
                    None => Expr::Int(self.layout.base(self.global(name, line)?) as i32),
                },
                AstPlace::Index(name, idx) => {
                    let base = self.base(scope, name, line)?;
                    Expr::AddrOf(base, self.expr(scope, idx, line)?)
                }
                AstPlace::Deref(inner) => Expr::AddrOfDeref(self.expr(scope, inner, line)?),
            },
            AstExpr::Unary(op, inner) => Expr::Unary(*op, self.expr(scope, inner, line)?),
            AstExpr::Binary(op, a, b) => {
                let (a, b) = (self.expr(scope, a, line)?, self.expr(scope, b, line)?);
                match op {
                    BinOp::LAnd => Expr::LAnd(a, b),
                    BinOp::LOr => Expr::LOr(a, b),
                    _ => Expr::Binary(*op, a, b),
                }
            }
            AstExpr::Call(name, args) => match name.as_str() {
                "omp_set_num_threads" => {
                    let arg = args.first().ok_or_else(|| unresolved(name, line))?;
                    Expr::SetNumThreads(self.expr(scope, arg, line)?)
                }
                "__roi_start" => Expr::RoiStart,
                "__roi_end" => Expr::RoiEnd,
                _ => {
                    // The last definition wins, as it did in a name map.
                    let func = (self.cx.unit.functions.iter())
                        .rposition(|f| f.name == *name)
                        .ok_or_else(|| unresolved(name, line))?;
                    // Reserved first, like a block's run.
                    let first = self.program.args.len();
                    (self.program.args).resize(first + args.len(), 0);
                    for (k, a) in args.iter().enumerate() {
                        self.program.args[first + k] = self.expr(scope, a, line)?;
                    }
                    Expr::Call {
                        func: func as u32,
                        first: first as u32,
                        count: args.len() as u32,
                    }
                }
            },
        };
        self.program.exprs.push(node);
        Ok(self.program.exprs.len() as u32 - 1)
    }
}
