//! Recursive-descent parser for the mini-C subset. Statements, assignment
//! and unary operators are each one `match` on the next token; binary
//! expressions climb one operator table.

use crate::ast::*;
use crate::lex::{Tok, Token, LI_RANGE};
use crate::CcError;

/// Parses a token stream into a translation unit.
///
/// # Errors
///
/// Returns the first syntax error with its source line.
pub fn parse(tokens: Vec<Token<'_>>) -> Result<Unit, CcError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        height: 0,
    };
    p.unit()
}

/// Deepest nesting of statements and of expressions the parser accepts,
/// and the tallest expression tree it builds. The parser, sema, the
/// lint, the code generator, lbp-sema and `Drop` all recurse on the
/// tree, so this one bound keeps every one of them off the end of the
/// stack; the shipped programs nest under a dozen levels.
pub const MAX_NEST: usize = 64;

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    pos: usize,
    /// Statements and unary/parenthesized expressions open around `pos`.
    depth: usize,
    /// Height of the expression tree most recently returned.
    height: usize,
}

/// The three clauses of a `for (init; cond; step)` header, each optional.
type ForHeader = (Option<Stmt>, Option<Expr>, Option<Stmt>);

/// The binary operator a token spells, with its tier: 0 binds loosest
/// (`||`), 9 tightest (`*`, `/`, `%`). Every tier is left-associative.
fn binary_op(tok: Tok<'_>) -> Option<(usize, BinOp)> {
    let Tok::Sym(sym) = tok else {
        return None;
    };
    Some(match sym {
        "||" => (0, BinOp::LOr),
        "&&" => (1, BinOp::LAnd),
        "|" => (2, BinOp::Or),
        "^" => (3, BinOp::Xor),
        "&" => (4, BinOp::And),
        "==" => (5, BinOp::Eq),
        "!=" => (5, BinOp::Ne),
        "<" => (6, BinOp::Lt),
        "<=" => (6, BinOp::Le),
        ">" => (6, BinOp::Gt),
        ">=" => (6, BinOp::Ge),
        "<<" => (7, BinOp::Shl),
        ">>" => (7, BinOp::Shr),
        "+" => (8, BinOp::Add),
        "-" => (8, BinOp::Sub),
        "*" => (9, BinOp::Mul),
        "/" => (9, BinOp::Div),
        "%" => (9, BinOp::Rem),
        _ => return None,
    })
}

impl<'src> Parser<'src> {
    /// The token at `pos`; past the end, the last one (`Eof`).
    fn tok(&self) -> Token<'src> {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek(&self) -> Tok<'src> {
        self.tok().kind
    }

    fn peek2(&self) -> Tok<'src> {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> usize {
        self.tok().line
    }

    fn col(&self) -> usize {
        self.tok().col
    }

    fn bump(&mut self) -> Tok<'src> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> CcError {
        CcError::at(self.line(), self.col(), msg)
    }

    /// `v`, the value of the integer literal just read (negated if a `-`
    /// came before it), or an error at the literal if `li` cannot load
    /// it. An array bound is not a value and keeps its own check.
    fn literal(&self, v: i64) -> Result<i64, CcError> {
        let t = self.tokens[self.pos - 1];
        match LI_RANGE.contains(&v) {
            true => Ok(v),
            false => Err(CcError::at(
                t.line,
                t.col,
                format!("literal {v} exceeds 32 bits"),
            )),
        }
    }

    /// Runs one level of a recursive descent, refusing at [`MAX_NEST`].
    fn nested<T>(
        &mut self,
        descend: impl FnOnce(&mut Parser<'src>) -> Result<T, CcError>,
    ) -> Result<T, CcError> {
        if self.depth == MAX_NEST {
            return Err(self.err(format!("nested too deep (limit {MAX_NEST})")));
        }
        self.depth += 1;
        let r = descend(self);
        self.depth -= 1;
        r
    }

    /// Records a node built over subtrees of height `below`.
    fn grow(&mut self, below: usize) -> Result<(), CcError> {
        if below >= MAX_NEST {
            return Err(self.err(format!("expression too deep (limit {MAX_NEST})")));
        }
        self.height = below + 1;
        Ok(())
    }

    fn eat_sym(&mut self, sym: &str) -> Result<(), CcError> {
        match self.peek() {
            Tok::Sym(s) if s == sym => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected `{sym}`, found {other}"))),
        }
    }

    fn at_sym(&self, sym: &str) -> bool {
        matches!(self.peek(), Tok::Sym(s) if s == sym)
    }

    fn eat_ident(&mut self) -> Result<String, CcError> {
        let t = self.tok();
        self.pos += 1;
        match t.kind {
            Tok::Ident(s) => Ok(s.to_owned()),
            other => Err(CcError::new(
                t.line,
                format!("expected an identifier, found {other}"),
            )),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), CcError> {
        if self.at_keyword(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn unit(&mut self) -> Result<Unit, CcError> {
        let mut unit = Unit {
            globals: Vec::new(),
            functions: Vec::new(),
        };
        while self.peek() != Tok::Eof {
            let line = self.line();
            let returns_value = if self.at_keyword("void") {
                self.bump();
                false
            } else {
                self.eat_keyword("int")
                    .map_err(|_| self.err("expected `int` or `void` at top level"))?;
                true
            };
            // Pointers on the declarator are accepted and erased (all
            // values are 32-bit words on LBP).
            while self.at_sym("*") {
                self.bump();
            }
            let name = self.eat_ident()?;
            if self.at_sym("(") {
                unit.functions
                    .push(self.function(name, returns_value, line)?);
            } else {
                self.global(&mut unit, name, line)?;
            }
        }
        Ok(unit)
    }

    fn global(&mut self, unit: &mut Unit, first: String, line: usize) -> Result<(), CcError> {
        // One or more comma-separated declarators of the same base type.
        let mut name = first;
        loop {
            let mut elems = 1u32;
            let mut is_array = false;
            if self.at_sym("[") {
                self.bump();
                elems = self.const_expr()?;
                is_array = true;
                // The globals are the image's data: refuse the array that
                // takes them past the largest image the assembler lays out.
                let before: u64 = unit.globals.iter().map(|g| u64::from(g.elems) * 4).sum();
                let bytes = before + u64::from(elems) * 4;
                if bytes > u64::from(lbp_asm::MAX_IMAGE_BYTES) {
                    return Err(self.err(format!(
                        "globals through `{name}` take {bytes} bytes, past the {}-byte image",
                        lbp_asm::MAX_IMAGE_BYTES
                    )));
                }
                self.eat_sym("]")?;
            }
            let mut fill = None;
            if self.at_sym("=") {
                self.bump();
                fill = Some(self.initializer(is_array, elems)?);
            }
            unit.globals.push(Global {
                name,
                elems,
                is_array,
                fill,
                line,
            });
            if self.at_sym(",") {
                self.bump();
                name = self.eat_ident()?;
                continue;
            }
            self.eat_sym(";")?;
            return Ok(());
        }
    }

    /// An array bound: a literal, or two joined by `<<` or `*` (`#define`s
    /// were already substituted by the lexer). The element count must be
    /// at least one and its bytes must fit the 32-bit address space; the
    /// arithmetic is checked, so a bound that overflows is an error
    /// rather than the size it wraps to.
    fn const_expr(&mut self) -> Result<u32, CcError> {
        let v = match self.bump() {
            Tok::Int(v) => v,
            other => return Err(self.err(format!("expected a constant, found {other}"))),
        };
        let op = ["<<", "*"].into_iter().find(|op| self.at_sym(op));
        let v = match op {
            Some(op) => {
                self.bump();
                let s = match self.bump() {
                    Tok::Int(s) => s,
                    other => return Err(self.err(format!("expected a constant, found {other}"))),
                };
                // A shift overflows if shifting back does not restore `v`.
                let value = match op {
                    "<<" => (u32::try_from(s).ok())
                        .and_then(|by| v.checked_shl(by))
                        .filter(|r| r >> s == v),
                    _ => v.checked_mul(s),
                };
                value.ok_or_else(|| self.err(format!("array size {v} {op} {s} overflows")))?
            }
            None => v,
        };
        let elems = u32::try_from(v).map_err(|_| self.err(format!("bad array size {v}")))?;
        if elems == 0 {
            return Err(self.err("an array needs at least one element"));
        }
        if elems > u32::MAX / 4 {
            return Err(self.err(format!(
                "array of {elems} words exceeds the 4 GiB address space"
            )));
        }
        Ok(elems)
    }

    /// `= 3` for scalars; for arrays of `elems`, `= {[0 ... N-1] = 1}`
    /// (the paper's fill form, over the whole array only) or an explicit
    /// list `= {1, 2, 3}` of at most `elems` values (remaining elements
    /// zero).
    fn initializer(&mut self, is_array: bool, elems: u32) -> Result<Init, CcError> {
        if !is_array {
            return match self.bump() {
                Tok::Int(v) => Ok(Init::Uniform(self.literal(v)?)),
                other => Err(self.err(format!("expected a constant initializer, found {other}"))),
            };
        }
        self.eat_sym("{")?;
        if self.at_sym("[") {
            self.designator(elems)?;
            self.eat_sym("=")?;
            let v = match self.bump() {
                Tok::Int(v) => self.literal(v)?,
                other => return Err(self.err(format!("expected a fill constant, found {other}"))),
            };
            self.eat_sym("}")?;
            return Ok(Init::Uniform(v));
        }
        let mut values = Vec::new();
        loop {
            if values.len() == elems as usize {
                return Err(self.err(format!(
                    "more initializers than the {elems} elements of the array"
                )));
            }
            let v = match self.bump() {
                Tok::Int(v) => self.literal(v)?,
                Tok::Sym("-") => match self.bump() {
                    Tok::Int(v) => self.literal(-v)?,
                    other => return Err(self.err(format!("expected a constant, found {other}"))),
                },
                other => return Err(self.err(format!("expected a constant, found {other}"))),
            };
            values.push(v);
            if self.at_sym(",") {
                self.bump();
            } else {
                break;
            }
        }
        self.eat_sym("}")?;
        Ok(Init::List(values))
    }

    /// `[0 ... N-1]` with literal bounds and `N == elems`, the one
    /// designator a fill may carry: any other range would fill elements
    /// the initializer does not name. Refused at its `[`.
    fn designator(&mut self, elems: u32) -> Result<(), CcError> {
        let open = self.tok();
        let last = i64::from(elems) - 1;
        let mut got = Vec::new();
        while !self.at_sym("=") {
            match self.peek() {
                Tok::Eof => return Err(self.err("unterminated designated initializer")),
                t => got.push(t),
            }
            self.bump();
        }
        let whole = [
            Tok::Sym("["),
            Tok::Int(0),
            Tok::Sym("."),
            Tok::Sym("."),
            Tok::Sym("."),
            Tok::Int(last),
            Tok::Sym("]"),
        ];
        match got == whole {
            true => Ok(()),
            false => Err(CcError::at(
                open.line,
                open.col,
                format!("only the whole-array designator `[0 ... {last}]` is supported"),
            )),
        }
    }

    fn function(
        &mut self,
        name: String,
        returns_value: bool,
        line: usize,
    ) -> Result<Function, CcError> {
        self.eat_sym("(")?;
        let mut params = Vec::new();
        if !self.at_sym(")") {
            loop {
                if self.at_keyword("void") && params.is_empty() && self.peek2() == Tok::Sym(")") {
                    self.bump();
                    break;
                }
                self.eat_keyword("int")?;
                while self.at_sym("*") {
                    self.bump();
                }
                let pname = self.eat_ident()?;
                // Array parameters `int v[]` decay to pointers.
                if self.at_sym("[") {
                    self.bump();
                    if let Tok::Int(_) = self.peek() {
                        self.bump();
                    }
                    self.eat_sym("]")?;
                }
                params.push(pname);
                if self.at_sym(",") {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat_sym(")")?;
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            returns_value,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CcError> {
        self.eat_sym("{")?;
        let mut stmts = Vec::new();
        while !self.at_sym("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.bump();
        Ok(stmts)
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, CcError> {
        if self.at_sym("{") {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn stmt(&mut self) -> Result<Stmt, CcError> {
        self.nested(Parser::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, CcError> {
        let line = self.line();
        if self.at_sym("{") {
            // A bare block statement (scoping is flat: locals are
            // function-wide registers).
            let body = self.block()?;
            return Ok(Stmt::If {
                cond: Expr::Int(1),
                then: body,
                els: Vec::new(),
                line,
            });
        }
        match self.peek() {
            Tok::PragmaParallelFor => {
                self.bump();
                self.parallel_for(line)
            }
            Tok::PragmaParallelSections => {
                self.bump();
                self.parallel_sections(line)
            }
            Tok::PragmaSection => {
                Err(self.err("`#pragma omp section` outside a `parallel sections` block"))
            }
            Tok::Ident("int") => {
                self.bump();
                while self.at_sym("*") {
                    self.bump();
                }
                let name = self.eat_ident()?;
                if self.at_sym("[") {
                    // A stack-allocated local array: `int buf[16];`.
                    self.bump();
                    let elems = self.const_expr()?;
                    self.eat_sym("]")?;
                    self.eat_sym(";")?;
                    return Ok(Stmt::DeclArray { name, elems, line });
                }
                // Comma-separated scalar locals: `int i, j, k;`.
                let mut decls = Vec::new();
                let mut current = name;
                loop {
                    let init = if self.at_sym("=") {
                        self.bump();
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    decls.push(Stmt::Decl {
                        name: current,
                        init,
                        line,
                    });
                    if self.at_sym(",") {
                        self.bump();
                        while self.at_sym("*") {
                            self.bump();
                        }
                        current = self.eat_ident()?;
                    } else {
                        break;
                    }
                }
                self.eat_sym(";")?;
                if decls.len() == 1 {
                    Ok(decls.pop().expect("one decl"))
                } else {
                    // Represent multi-decls as a flattened sequence via a
                    // zero-iteration-free `if (1)` block is ugly; instead
                    // nest them in an always-true If with empty else.
                    Ok(Stmt::If {
                        cond: Expr::Int(1),
                        then: decls,
                        els: Vec::new(),
                        line,
                    })
                }
            }
            Tok::Ident("if") => {
                self.bump();
                self.eat_sym("(")?;
                let cond = self.expr()?;
                self.eat_sym(")")?;
                let then = self.stmt_or_block()?;
                let els = if self.at_keyword("else") {
                    self.bump();
                    self.stmt_or_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then,
                    els,
                    line,
                })
            }
            Tok::Ident("do") => {
                self.bump();
                let body = self.stmt_or_block()?;
                self.eat_keyword("while")?;
                self.eat_sym("(")?;
                let cond = self.expr()?;
                self.eat_sym(")")?;
                self.eat_sym(";")?;
                // Desugar to `while (1) { body; if (!cond) break; }`.
                // `break` binds correctly; `continue` would re-enter the
                // body instead of testing the condition, so reject it.
                if body_has_toplevel_continue(&body) {
                    return Err(CcError::new(
                        line,
                        "`continue` directly inside `do/while` is not supported",
                    ));
                }
                let mut looped = body;
                looped.push(Stmt::If {
                    cond,
                    then: Vec::new(),
                    els: vec![Stmt::Break(line)],
                    line,
                });
                Ok(Stmt::While {
                    cond: Expr::Int(1),
                    body: looped,
                    line,
                })
            }
            Tok::Ident("while") => {
                self.bump();
                self.eat_sym("(")?;
                let cond = self.expr()?;
                self.eat_sym(")")?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::While { cond, body, line })
            }
            Tok::Ident("for") => {
                self.bump();
                let (init, cond, step) = self.for_header()?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::For {
                    init: Box::new(init),
                    cond,
                    step: Box::new(step),
                    body,
                    line,
                })
            }
            Tok::Ident("break") => {
                self.bump();
                self.eat_sym(";")?;
                Ok(Stmt::Break(line))
            }
            Tok::Ident("continue") => {
                self.bump();
                self.eat_sym(";")?;
                Ok(Stmt::Continue(line))
            }
            Tok::Ident("return") => {
                self.bump();
                let value = if self.at_sym(";") {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat_sym(";")?;
                Ok(Stmt::Return(value, line))
            }
            _ => {
                let s = self.simple_stmt()?;
                self.eat_sym(";")?;
                Ok(s)
            }
        }
    }

    fn for_header(&mut self) -> Result<ForHeader, CcError> {
        self.eat_sym("(")?;
        let init = if self.at_sym(";") {
            None
        } else if self.at_keyword("int") {
            // `for (int i = 0; ...)`.
            self.bump();
            let line = self.line();
            let name = self.eat_ident()?;
            self.eat_sym("=")?;
            let e = self.expr()?;
            Some(Stmt::Decl {
                name,
                init: Some(e),
                line,
            })
        } else {
            Some(self.comma_stmts()?)
        };
        self.eat_sym(";")?;
        let cond = if self.at_sym(";") {
            None
        } else {
            Some(self.expr()?)
        };
        self.eat_sym(";")?;
        let step = if self.at_sym(")") {
            None
        } else {
            Some(self.comma_stmts()?)
        };
        self.eat_sym(")")?;
        Ok((init, cond, step))
    }

    /// One or more comma-separated simple statements (the paper's Fig. 18
    /// writes `for (l = 0, i = t; ...)`), folded into a single statement.
    fn comma_stmts(&mut self) -> Result<Stmt, CcError> {
        let line = self.line();
        let mut stmts = vec![self.simple_stmt()?];
        while self.at_sym(",") {
            self.bump();
            stmts.push(self.simple_stmt()?);
        }
        if stmts.len() == 1 {
            Ok(stmts.pop().expect("one statement"))
        } else {
            // An always-true If is the parser's statement-sequence node.
            Ok(Stmt::If {
                cond: Expr::Int(1),
                then: stmts,
                els: Vec::new(),
                line,
            })
        }
    }

    /// Assignment / compound assignment / increment / call — statements
    /// that also appear in `for` headers.
    fn simple_stmt(&mut self) -> Result<Stmt, CcError> {
        let line = self.line();
        let e = self.expr()?;
        // `x = e`, `x += e`, `x++`: rewrite the parsed lhs expression
        // into a place.
        let (op, step) = match self.peek() {
            Tok::Sym("=") => (None, false),
            Tok::Sym("+=") => (Some(BinOp::Add), false),
            Tok::Sym("-=") => (Some(BinOp::Sub), false),
            Tok::Sym("*=") => (Some(BinOp::Mul), false),
            Tok::Sym("/=") => (Some(BinOp::Div), false),
            Tok::Sym("%=") => (Some(BinOp::Rem), false),
            Tok::Sym("++") => (Some(BinOp::Add), true),
            Tok::Sym("--") => (Some(BinOp::Sub), true),
            _ => return Ok(Stmt::Expr(e, line)),
        };
        self.bump();
        let not_assignable = || {
            let what = if step {
                "operand of ++/--"
            } else {
                "left side"
            };
            CcError::new(line, format!("{what} is not assignable"))
        };
        let Some(op) = op else {
            // A plain `=` moves its left side into the place.
            let lhs = expr_to_place(e).ok_or_else(not_assignable)?;
            let rhs = self.expr()?;
            return Ok(Stmt::Assign { lhs, rhs, line });
        };
        let lhs = expr_to_place(e.clone()).ok_or_else(not_assignable)?;
        let by = if step { Expr::Int(1) } else { self.expr()? };
        Ok(Stmt::Assign {
            lhs,
            rhs: Expr::Binary(op, Box::new(e), Box::new(by)),
            line,
        })
    }

    /// The canonical parallel-for form: `for (v = 0; v < N; v++) body`.
    fn parallel_for(&mut self, line: usize) -> Result<Stmt, CcError> {
        self.eat_keyword("for").map_err(|_| {
            CcError::new(line, "`#pragma omp parallel for` must precede a for loop")
        })?;
        let (init, cond, step) = self.for_header()?;
        let body = self.stmt_or_block()?;
        // Validate the canonical shape and extract (var, count).
        let (var, start) = match init {
            Some(Stmt::Assign {
                lhs: Place::Var(v),
                rhs: Expr::Int(s),
                ..
            })
            | Some(Stmt::Decl {
                name: v,
                init: Some(Expr::Int(s)),
                ..
            }) => (v, s),
            _ => {
                return Err(CcError::new(
                    line,
                    "parallel for must initialize its index to a constant (e.g. `t = 0`)",
                ))
            }
        };
        if start != 0 {
            return Err(CcError::new(line, "parallel for must start at 0"));
        }
        let count = match cond {
            Some(Expr::Binary(BinOp::Lt, lhs, rhs)) => match (*lhs, *rhs) {
                (Expr::Var(v), Expr::Int(n)) if v == var => n,
                _ => {
                    return Err(CcError::new(
                        line,
                        "parallel for condition must be `index < CONSTANT`",
                    ))
                }
            },
            _ => {
                return Err(CcError::new(
                    line,
                    "parallel for condition must be `index < CONSTANT`",
                ))
            }
        };
        match step {
            Some(Stmt::Assign {
                lhs: Place::Var(v),
                rhs: Expr::Binary(BinOp::Add, a, b),
                ..
            }) if v == var
                && matches!(*a, Expr::Var(ref x) if *x == var)
                && matches!(*b, Expr::Int(1)) => {}
            _ => {
                return Err(CcError::new(
                    line,
                    "parallel for step must be `index++` (or `index = index + 1`)",
                ))
            }
        }
        if count < 1 {
            return Err(CcError::new(
                line,
                "parallel for needs a positive trip count",
            ));
        }
        Ok(Stmt::ParallelFor {
            var,
            count,
            body,
            line,
        })
    }

    fn parallel_sections(&mut self, line: usize) -> Result<Stmt, CcError> {
        self.eat_sym("{")
            .map_err(|_| CcError::new(line, "`parallel sections` must be followed by a block"))?;
        let mut sections = Vec::new();
        while !self.at_sym("}") {
            match self.peek() {
                Tok::PragmaSection => {
                    self.bump();
                    sections.push(self.stmt_or_block()?);
                }
                Tok::Eof => return Err(self.err("unterminated parallel sections block")),
                other => {
                    return Err(self.err(format!("expected `#pragma omp section`, found {other}")))
                }
            }
        }
        self.bump();
        if sections.is_empty() {
            return Err(CcError::new(
                line,
                "parallel sections needs at least one section",
            ));
        }
        Ok(Stmt::ParallelSections { sections, line })
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr, CcError> {
        self.binary(0)
    }

    /// An operand followed by every operator of tier `min_tier` or
    /// tighter, folded to the left within a tier.
    fn binary(&mut self, min_tier: usize) -> Result<Expr, CcError> {
        let mut lhs = self.unary()?;
        while let Some((tier, op)) = binary_op(self.peek()) {
            if tier < min_tier {
                break;
            }
            self.bump();
            let below = self.height;
            let rhs = self.binary(tier + 1)?;
            self.grow(below.max(self.height))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CcError> {
        self.nested(Parser::unary_body)
    }

    fn unary_body(&mut self) -> Result<Expr, CcError> {
        let op = self.peek();
        if !matches!(op, Tok::Sym("-" | "!" | "~" | "*" | "&")) {
            return self.postfix();
        }
        self.bump();
        let e = Box::new(self.unary()?);
        self.grow(self.height)?;
        Ok(match op {
            Tok::Sym("-") => Expr::Unary(UnOp::Neg, e),
            Tok::Sym("!") => Expr::Unary(UnOp::Not, e),
            Tok::Sym("~") => Expr::Unary(UnOp::BitNot, e),
            Tok::Sym("*") => Expr::Deref(e),
            _ => {
                let place = expr_to_place(*e)
                    .ok_or_else(|| self.err("`&` needs a variable or array element"))?;
                Expr::AddrOf(Box::new(place))
            }
        })
    }

    fn postfix(&mut self) -> Result<Expr, CcError> {
        self.height = 1;
        let t = self.tok();
        self.pos += 1;
        match t.kind {
            Tok::Int(v) => Ok(Expr::Int(self.literal(v)?)),
            Tok::Sym("(") => {
                // Casts like `(int *)` or `(type_t *)` are erased. Only
                // type-looking names count, so `(a * b)` stays a product
                // (we have no typedef table to disambiguate with).
                if let Tok::Ident(id) = self.peek() {
                    if (id == "int" || id.ends_with("_t")) && self.peek2() == Tok::Sym("*") {
                        self.bump();
                        self.bump();
                        self.eat_sym(")")?;
                        return self.unary();
                    }
                }
                let e = self.expr()?;
                self.eat_sym(")")?;
                // A parenthesized expression may be indexed.
                self.maybe_index_or_call_on(e)
            }
            Tok::Ident(name) => {
                let name = name.to_owned();
                if self.at_sym("(") {
                    self.bump();
                    let mut args = Vec::new();
                    let mut below = 0;
                    if !self.at_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            below = below.max(self.height);
                            if self.at_sym(",") {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat_sym(")")?;
                    self.grow(below)?;
                    return Ok(Expr::Call(name, args));
                }
                if self.at_sym("[") {
                    self.bump();
                    let idx = self.expr()?;
                    self.eat_sym("]")?;
                    self.grow(self.height)?;
                    return Ok(Expr::Index(name, Box::new(idx)));
                }
                Ok(Expr::Var(name))
            }
            other => Err(CcError::new(
                t.line,
                format!("expected an expression, found {other}"),
            )),
        }
    }

    fn maybe_index_or_call_on(&mut self, e: Expr) -> Result<Expr, CcError> {
        if self.at_sym("[") {
            self.bump();
            let below = self.height;
            let idx = self.expr()?;
            self.eat_sym("]")?;
            // Three nodes over `e` and `idx`.
            self.grow(below.max(self.height) + 2)?;
            // `(p)[i]` == `*(p + i)` in words: scale by 4 at codegen via
            // Deref of pointer arithmetic.
            return Ok(Expr::Deref(Box::new(Expr::Binary(
                BinOp::Add,
                Box::new(e),
                Box::new(Expr::Binary(
                    BinOp::Mul,
                    Box::new(idx),
                    Box::new(Expr::Int(4)),
                )),
            ))));
        }
        Ok(e)
    }
}

/// Whether a statement list contains a `continue` that would bind to the
/// enclosing loop (i.e. not nested inside a further loop).
fn body_has_toplevel_continue(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Continue(_) => true,
        Stmt::If { then, els, .. } => {
            body_has_toplevel_continue(then) || body_has_toplevel_continue(els)
        }
        _ => false,
    })
}

/// Rewrites an already-parsed expression into an assignable place.
fn expr_to_place(e: Expr) -> Option<Place> {
    match e {
        Expr::Var(name) => Some(Place::Var(name)),
        Expr::Index(name, idx) => Some(Place::Index(name, *idx)),
        Expr::Deref(inner) => Some(Place::Deref(*inner)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_src(src: &str) -> Unit {
        parse(lex(src).unwrap()).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn literals_past_a_word_are_refused_where_they_stand() {
        let err = |src: &str| parse(lex(src).unwrap()).unwrap_err();
        let at = |e: CcError| (e.line, e.col, e.message);
        let wide = |v: &str| format!("literal {v} exceeds 32 bits");
        let main = |body| format!("int g;\nvoid main(void) {{\n    {body}\n}}\n");
        assert_eq!(
            at(err(&main("g = 5000000000;"))),
            (3, 9, wide("5000000000"))
        );
        assert_eq!(
            at(err(&main("g = 1 + 0x100000000;"))),
            (3, 13, wide("4294967296"))
        );
        assert_eq!(at(err("int h = 4294967296;")), (1, 9, wide("4294967296")));
        assert_eq!(
            at(err("int v[2] = {1, -2147483649};")),
            (1, 17, wide("-2147483649"))
        );
        assert_eq!(
            at(err("int v[2] = {[0 ... 1] = 5000000000};")),
            (1, 25, wide("5000000000"))
        );
        // The edges of `li` parse; an array bound keeps its own check.
        parse_src("int v[2] = {-2147483648, 4294967295}; int w = 0xffffffff;");
        assert_eq!(at(err("int u[4294967296];")).2, "bad array size 4294967296");
    }

    #[test]
    fn globals_and_arrays() {
        let u = parse_src("int x; int v[16]; int w[4] = {[0 ... 3] = 1}; int y = 7;");
        assert_eq!(u.globals.len(), 4);
        assert_eq!(u.globals[1].elems, 16);
        assert_eq!(u.globals[2].fill, Some(Init::Uniform(1)));
        assert_eq!(u.globals[3].fill, Some(Init::Uniform(7)));
        assert!(!u.globals[3].is_array);
        let u = parse_src("int v[6] = {1, 2, 3, 4, 5, 6}; int w[1] = {[0 ... 0] = 9};");
        assert_eq!(u.globals[0].fill, Some(Init::List(vec![1, 2, 3, 4, 5, 6])));
        assert_eq!(u.globals[1].fill, Some(Init::Uniform(9)));
    }

    /// A fill names the whole array or nothing: a partial, out-of-range
    /// or reversed designator, or a list longer than the array, would
    /// give elements values the source does not say.
    #[test]
    fn initializers_that_do_not_fit_the_array_are_refused_where_they_stand() {
        let err = |src: &str| {
            let e = parse(lex(src).unwrap()).unwrap_err();
            (e.line, e.col, e.message)
        };
        let whole =
            |last: u32| format!("only the whole-array designator `[0 ... {last}]` is supported");
        for (src, col, last) in [
            ("int A[4] = {[2 ... 3] = 7};", 13, 3),
            ("int A[4] = {[5] = 7};", 13, 3),
            ("int A[4] = {[3 ... 1] = 7};", 13, 3),
            ("int A[4] = {[0 ... 4] = 7};", 13, 3),
            ("int A[4] = {[0 ... 2] = 7};", 13, 3),
            ("int A[4] = {[0 .. 3] = 7};", 13, 3),
            ("#define N 4\nint A[N] = {[0 ... N-1] = 7};", 13, 3),
            ("int A[2], B[8] = {[0 ... 1] = 7};", 19, 7),
        ] {
            let line = 1 + src.matches('\n').count();
            assert_eq!(err(src), (line, col, whole(last)), "{src}");
        }
        let long = "more initializers than the 4 elements of the array".to_owned();
        assert_eq!(err("int A[4] = {1, 2, 3, 4, 5, 6};"), (1, 25, long.clone()));
        assert_eq!(err("int A[4] = {1, 2, 3, 4, -5};"), (1, 25, long));
        assert_eq!(
            err("int u[2] = {[0 ...").2,
            "unterminated designated initializer"
        );
    }

    #[test]
    fn function_with_control_flow() {
        let u = parse_src("int abs(int x) { if (x < 0) { return -x; } else { return x; } }");
        assert_eq!(u.functions[0].params, vec!["x"]);
        assert!(u.functions[0].returns_value);
    }

    #[test]
    fn for_loops_and_compound_assign() {
        let u = parse_src("void f(void) { int s = 0; int i; for (i = 0; i < 10; i++) s += i; }");
        let body = &u.functions[0].body;
        assert!(matches!(body[2], Stmt::For { .. }));
    }

    #[test]
    fn parallel_for_canonical_form() {
        let u = parse_src(
            "#define NUM_HART 8
void thread(int t) { }
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) thread(t);
}",
        );
        let main = u.functions.iter().find(|f| f.name == "main").unwrap();
        let pf = main
            .body
            .iter()
            .find(|s| matches!(s, Stmt::ParallelFor { .. }));
        match pf {
            Some(Stmt::ParallelFor { var, count, .. }) => {
                assert_eq!(var, "t");
                assert_eq!(*count, 8);
            }
            other => panic!("expected parallel for, got {other:?}"),
        }
    }

    #[test]
    fn parallel_for_rejects_non_canonical() {
        let bad =
            "void main(void) { int t;\n#pragma omp parallel for\nfor (t = 1; t < 8; t++) { } }";
        assert!(parse(lex(bad).unwrap()).is_err());
        let bad2 =
            "void main(void) { int t;\n#pragma omp parallel for\nfor (t = 0; t < 8; t += 2) { } }";
        assert!(parse(lex(bad2).unwrap()).is_err());
    }

    #[test]
    fn parallel_sections() {
        let u = parse_src(
            "void main(void) {
#pragma omp parallel sections
{
#pragma omp section
    { }
#pragma omp section
    { }
}
}",
        );
        match &u.functions[0].body[0] {
            Stmt::ParallelSections { sections, .. } => assert_eq!(sections.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let u = parse_src("int f(void) { return 1 + 2 * 3 < 8 && 1; }");
        match &u.functions[0].body[0] {
            Stmt::Return(Some(Expr::Binary(BinOp::LAnd, ..)), _) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_tier_folds_left_and_a_tighter_tier_binds_first() {
        let ret = |e: &str| match parse_src(&format!("int f(void) {{ return {e}; }}"))
            .functions
            .remove(0)
            .body
            .remove(0)
        {
            Stmt::Return(Some(e), _) => e,
            other => panic!("{other:?}"),
        };
        let bin = |op, l, r| Expr::Binary(op, Box::new(l), Box::new(r));
        let (a, b, c) = (
            Expr::Var("a".into()),
            Expr::Var("b".into()),
            Expr::Var("c".into()),
        );
        assert_eq!(
            ret("a - b + c"),
            bin(BinOp::Add, bin(BinOp::Sub, a.clone(), b.clone()), c.clone())
        );
        assert_eq!(
            ret("a || b && c"),
            bin(
                BinOp::LOr,
                a.clone(),
                bin(BinOp::LAnd, b.clone(), c.clone())
            )
        );
        assert_eq!(
            ret("a << b < c"),
            bin(BinOp::Lt, bin(BinOp::Shl, a.clone(), b.clone()), c.clone())
        );
        assert_eq!(ret("a & b == c"), bin(BinOp::And, a, bin(BinOp::Eq, b, c)));
    }

    #[test]
    fn pointers_and_casts_erase() {
        let u = parse_src("void f(int *p) { int x; x = *p; *p = x + 1; p[2] = 5; x = (int *)p; }");
        assert_eq!(u.functions[0].params, vec!["p"]);
    }

    #[test]
    fn sensible_errors() {
        let e = parse(lex("int f( { }").unwrap()).unwrap_err();
        assert!(e.to_string().contains("expected"));
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let parse_main = |body: &str| parse(lex(&format!("void main(void) {{ {body} }}")).unwrap());
        // `return` is one statement deep and its operand one `unary`
        // deep, so MAX_NEST - 2 parentheses still fit.
        let parens = |n: usize| format!("return {}1{};", "(".repeat(n), ")".repeat(n));
        assert!(parse_main(&parens(MAX_NEST - 2)).is_ok());
        let e = parse_main(&parens(MAX_NEST - 1)).unwrap_err();
        assert!(e.message.contains("nested too deep"), "{e}");
        // Positioned at the operand the last parenthesis would hold.
        assert_eq!((e.line, e.col), (1, 25 + MAX_NEST), "{e}");
        // Statements count against the same bound...
        let blocks = |n: usize| format!("{}{}", "{".repeat(n), "}".repeat(n));
        assert!(parse_main(&blocks(MAX_NEST)).is_ok());
        assert!(parse_main(&blocks(MAX_NEST + 1)).is_err());
        // ...and an operator chain, which nests the *tree* without
        // nesting the parser, against the tree's height.
        let chain = |n: usize| format!("return {};", vec!["1"; n].join("+"));
        assert!(parse_main(&chain(MAX_NEST)).is_ok());
        let e = parse_main(&chain(MAX_NEST + 1)).unwrap_err();
        assert!(e.message.contains("expression too deep"), "{e}");
        assert!(parse_main(&chain(100_000)).is_err());
        assert!(parse_main(&parens(100_000)).is_err());
    }
}
