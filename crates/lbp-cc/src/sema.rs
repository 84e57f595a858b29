//! Semantic checks: name resolution, arity, and the Deterministic OpenMP
//! region restrictions.
//!
//! The walker collects *every* diagnosable problem instead of stopping at
//! the first ([`check_all`]); [`check`] keeps the original first-error
//! contract for the compile pipeline. Collecting everything is what the
//! `--lint` surface batches into one `lbp-diag-v1` report.

use std::collections::HashMap;

use crate::ast::*;
use crate::CcError;

/// Summary of the checked unit, consumed by the code generator.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The unit itself.
    pub unit: Unit,
    /// Global name → is-array.
    pub globals: HashMap<String, bool>,
    /// Function name → (param count, returns value).
    pub signatures: HashMap<String, (usize, bool)>,
}

/// Functions the compiler provides (the `det_omp.h` API surface).
const BUILTINS: [(&str, usize, bool); 3] = [
    ("omp_set_num_threads", 1, false),
    // Region-of-interest markers: lowered to asm labels (plus an
    // anchoring nop) that hybrid fast-forward simulation stops at.
    ("__roi_start", 0, false),
    ("__roi_end", 0, false),
];

/// The register-allocatable local budget per function (locals + params
/// live in `s4`-`s11`).
pub const MAX_LOCALS: usize = 8;

/// Maximum call arguments (`a0`-`a5`; `a6`/`a7` are expression scratch).
pub const MAX_ARGS: usize = 6;

/// Checks a parsed unit.
///
/// # Errors
///
/// Returns the first semantic error with its source line.
pub fn check(unit: Unit) -> Result<Checked, CcError> {
    check_all(unit).map_err(|mut errs| errs.remove(0))
}

/// Checks a parsed unit, collecting **all** semantic errors in source
/// order rather than stopping at the first.
///
/// # Errors
///
/// Returns the (non-empty) list of every semantic error found.
pub fn check_all(unit: Unit) -> Result<Checked, Vec<CcError>> {
    let mut errs = Vec::new();
    let mut globals = HashMap::new();
    for g in &unit.globals {
        if globals.contains_key(&g.name) {
            errs.push(CcError::new(
                g.line,
                format!("duplicate global `{}`", g.name),
            ));
        } else {
            globals.insert(g.name.clone(), g.is_array);
        }
    }
    let mut signatures: HashMap<String, (usize, bool)> = BUILTINS
        .iter()
        .map(|&(n, a, r)| (n.to_owned(), (a, r)))
        .collect();
    for f in &unit.functions {
        if globals.contains_key(&f.name) {
            errs.push(CcError::new(
                f.line,
                format!("`{}` is both a global and a function", f.name),
            ));
        }
        if signatures.contains_key(&f.name) {
            errs.push(CcError::new(
                f.line,
                format!("duplicate function `{}`", f.name),
            ));
        } else {
            signatures.insert(f.name.clone(), (f.params.len(), f.returns_value));
        }
    }
    if !signatures.contains_key("main") {
        errs.push(CcError::new(1, "a program needs a `main` function"));
    }
    let checked = Checked {
        unit,
        globals,
        signatures,
    };
    for f in &checked.unit.functions {
        check_function(f, &checked, &mut errs);
    }
    if errs.is_empty() {
        Ok(checked)
    } else {
        Err(errs)
    }
}

fn check_function(f: &Function, cx: &Checked, errs: &mut Vec<CcError>) {
    let mut scope: HashMap<String, bool> = HashMap::new();
    for p in &f.params {
        if scope.insert(p.clone(), false).is_some() {
            errs.push(CcError::new(f.line, format!("duplicate parameter `{p}`")));
        }
    }
    let mut counter = f.params.len();
    check_block(&f.body, f, cx, &mut scope, &mut counter, false, errs);
    if counter > MAX_LOCALS {
        errs.push(CcError::new(
            f.line,
            format!(
                "function `{}` needs {counter} register locals; the compiler supports {MAX_LOCALS}",
                f.name
            ),
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn check_block(
    stmts: &[Stmt],
    f: &Function,
    cx: &Checked,
    scope: &mut HashMap<String, bool>,
    counter: &mut usize,
    in_region: bool,
    errs: &mut Vec<CcError>,
) {
    check_block_depth(stmts, f, cx, scope, counter, in_region, 0, errs);
}

#[allow(clippy::too_many_arguments)]
fn check_block_depth(
    stmts: &[Stmt],
    f: &Function,
    cx: &Checked,
    scope: &mut HashMap<String, bool>,
    counter: &mut usize,
    in_region: bool,
    loops: usize,
    errs: &mut Vec<CcError>,
) {
    for s in stmts {
        check_stmt_depth(s, f, cx, scope, counter, in_region, loops, errs);
    }
}

#[allow(clippy::too_many_arguments)]
fn check_stmt_depth(
    s: &Stmt,
    f: &Function,
    cx: &Checked,
    scope: &mut HashMap<String, bool>,
    counter: &mut usize,
    in_region: bool,
    loops: usize,
    errs: &mut Vec<CcError>,
) {
    match s {
        Stmt::Break(line) | Stmt::Continue(line) => {
            if loops == 0 {
                errs.push(CcError::new(*line, "`break`/`continue` outside a loop"));
            }
        }
        Stmt::Decl { name, init, line } => {
            if let Some(e) = init {
                check_expr(e, *line, cx, scope, errs);
            }
            if cx.globals.contains_key(name) {
                // Shadowing a global is allowed; it resolves to the local.
            }
            if scope.insert(name.clone(), false).is_some() {
                errs.push(CcError::new(*line, format!("duplicate local `{name}`")));
            }
            *counter += 1;
        }
        Stmt::DeclArray { name, elems, line } => {
            // The parser refused a bound of no elements or past 4 GiB.
            if *elems > 8192 / 4 {
                errs.push(CcError::new(
                    *line,
                    format!("local array `{name}` exceeds the 8 KiB frame budget"),
                ));
            }
            if scope.insert(name.clone(), true).is_some() {
                errs.push(CcError::new(*line, format!("duplicate local `{name}`")));
            }
            // Arrays live in the frame, not in the register-local budget.
        }
        Stmt::Assign { lhs, rhs, line } => {
            check_place(lhs, *line, cx, scope, errs);
            check_expr(rhs, *line, cx, scope, errs);
        }
        Stmt::Expr(e, line) => check_expr(e, *line, cx, scope, errs),
        Stmt::If {
            cond,
            then,
            els,
            line,
        } => {
            check_expr(cond, *line, cx, scope, errs);
            check_block_depth(then, f, cx, scope, counter, in_region, loops, errs);
            check_block_depth(els, f, cx, scope, counter, in_region, loops, errs);
        }
        Stmt::While { cond, body, line } => {
            check_expr(cond, *line, cx, scope, errs);
            check_block_depth(body, f, cx, scope, counter, in_region, loops + 1, errs);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            line,
        } => {
            if let Some(i) = init.as_ref() {
                check_stmt_depth(i, f, cx, scope, counter, in_region, loops, errs);
            }
            if let Some(c) = cond {
                check_expr(c, *line, cx, scope, errs);
            }
            check_block_depth(body, f, cx, scope, counter, in_region, loops + 1, errs);
            if let Some(st) = step.as_ref() {
                check_stmt_depth(st, f, cx, scope, counter, in_region, loops + 1, errs);
            }
        }
        Stmt::Return(value, line) => {
            if in_region {
                errs.push(CcError::new(*line, "`return` inside a parallel region"));
            }
            match (value, f.returns_value) {
                (Some(e), true) => check_expr(e, *line, cx, scope, errs),
                (None, false) => {}
                (Some(_), false) => {
                    errs.push(CcError::new(
                        *line,
                        "returning a value from a void function",
                    ));
                }
                (None, true) => errs.push(CcError::new(*line, "missing return value")),
            }
        }
        Stmt::ParallelFor {
            var,
            body,
            line,
            count,
        } => {
            if f.name != "main" {
                errs.push(CcError::new(
                    *line,
                    "parallel regions are only supported in `main` (the paper's program shape)",
                ));
            }
            if in_region {
                errs.push(CcError::new(
                    *line,
                    "nested parallel regions are not supported",
                ));
            }
            if *count > 256 {
                errs.push(CcError::new(
                    *line,
                    format!("team of {count} exceeds 256 harts"),
                ));
            }
            // The member body sees only the index variable, its own
            // locals, and globals.
            let mut region_scope: HashMap<String, bool> = HashMap::new();
            region_scope.insert(var.clone(), false);
            let mut region_locals = 1usize;
            check_block(
                body,
                f,
                cx,
                &mut region_scope,
                &mut region_locals,
                true,
                errs,
            );
            if region_locals > MAX_LOCALS {
                errs.push(CcError::new(
                    *line,
                    format!(
                        "parallel body needs {region_locals} register locals; max {MAX_LOCALS}"
                    ),
                ));
            }
        }
        Stmt::ParallelSections { sections, line } => {
            if f.name != "main" {
                errs.push(CcError::new(
                    *line,
                    "parallel regions are only supported in `main`",
                ));
            }
            if in_region {
                errs.push(CcError::new(
                    *line,
                    "nested parallel regions are not supported",
                ));
            }
            for body in sections {
                let mut region_scope = HashMap::new();
                let mut region_locals = 0usize;
                check_block(
                    body,
                    f,
                    cx,
                    &mut region_scope,
                    &mut region_locals,
                    true,
                    errs,
                );
                if region_locals > MAX_LOCALS {
                    errs.push(CcError::new(
                        *line,
                        "section needs too many register locals",
                    ));
                }
            }
        }
    }
}

fn check_place(
    p: &Place,
    line: usize,
    cx: &Checked,
    scope: &HashMap<String, bool>,
    errs: &mut Vec<CcError>,
) {
    match p {
        Place::Var(name) => {
            if let Some(&is_array) = scope.get(name) {
                if is_array {
                    errs.push(CcError::new(
                        line,
                        format!("cannot assign to array `{name}`"),
                    ));
                }
                return;
            }
            match cx.globals.get(name) {
                Some(false) => {}
                Some(true) => errs.push(CcError::new(
                    line,
                    format!("cannot assign to array `{name}`"),
                )),
                None => errs.push(CcError::new(line, format!("undefined variable `{name}`"))),
            }
        }
        Place::Index(name, idx) => {
            if !scope.contains_key(name) && !cx.globals.contains_key(name) {
                errs.push(CcError::new(line, format!("undefined variable `{name}`")));
            }
            check_expr(idx, line, cx, scope, errs);
        }
        Place::Deref(e) => check_expr(e, line, cx, scope, errs),
    }
}

fn check_expr(
    e: &Expr,
    line: usize,
    cx: &Checked,
    scope: &HashMap<String, bool>,
    errs: &mut Vec<CcError>,
) {
    match e {
        Expr::Int(_) => {}
        Expr::Var(name) => {
            if !scope.contains_key(name) && !cx.globals.contains_key(name) {
                errs.push(CcError::new(line, format!("undefined variable `{name}`")));
            }
        }
        Expr::Index(name, idx) => {
            if !scope.contains_key(name) && !cx.globals.contains_key(name) {
                errs.push(CcError::new(line, format!("undefined variable `{name}`")));
            }
            check_expr(idx, line, cx, scope, errs);
        }
        Expr::Deref(inner) => check_expr(inner, line, cx, scope, errs),
        Expr::AddrOf(place) => match place.as_ref() {
            Place::Var(name) if scope.get(name) == Some(&false) => {
                errs.push(CcError::new(
                    line,
                    format!("cannot take the address of register local `{name}`"),
                ));
            }
            p => check_place(p, line, cx, scope, errs),
        },
        Expr::Unary(_, inner) => check_expr(inner, line, cx, scope, errs),
        Expr::Binary(_, a, b) => {
            check_expr(a, line, cx, scope, errs);
            check_expr(b, line, cx, scope, errs);
        }
        Expr::Call(name, args) => {
            match cx.signatures.get(name) {
                None => errs.push(CcError::new(
                    line,
                    format!("call to undefined function `{name}`"),
                )),
                Some((arity, _ret)) => {
                    if args.len() != *arity {
                        errs.push(CcError::new(
                            line,
                            format!("`{name}` takes {arity} argument(s), got {}", args.len()),
                        ));
                    }
                    if args.len() > MAX_ARGS {
                        errs.push(CcError::new(
                            line,
                            format!("calls support at most {MAX_ARGS} arguments"),
                        ));
                    }
                }
            }
            for a in args {
                check_expr(a, line, cx, scope, errs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse;

    fn check_src(src: &str) -> Result<Checked, CcError> {
        check(parse(lex(src).unwrap())?)
    }

    fn check_all_src(src: &str) -> Result<Checked, Vec<CcError>> {
        check_all(parse(lex(src).unwrap()).map_err(|e| vec![e])?)
    }

    #[test]
    fn accepts_a_paper_shaped_program() {
        check_src(
            "#define NUM_HART 8
int v[8];
void thread(int t) { v[t] = t; }
void main(void) {
    int t;
    omp_set_num_threads(NUM_HART);
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) thread(t);
}",
        )
        .unwrap();
    }

    #[test]
    fn rejects_undefined_names() {
        assert!(check_src("void main(void) { x = 1; }").is_err());
        assert!(check_src("void main(void) { f(); }").is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        let e = check_src("void f(int a) { } void main(void) { f(1, 2); }").unwrap_err();
        assert!(e.to_string().contains("takes 1"));
    }

    #[test]
    fn rejects_missing_main() {
        assert!(check_src("void f(void) { }").is_err());
    }

    #[test]
    fn region_capture_is_rejected() {
        let e = check_src(
            "void main(void) {
    int t; int secret;
    secret = 5;
#pragma omp parallel for
    for (t = 0; t < 4; t++) { int x; x = secret; }
}",
        )
        .unwrap_err();
        assert!(e.to_string().contains("undefined variable `secret`"));
    }

    #[test]
    fn regions_only_in_main() {
        let e = check_src(
            "void helper(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) { }
}
void main(void) { }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("only supported in `main`"));
    }

    #[test]
    fn addr_of_register_local_rejected() {
        let e = check_src("void main(void) { int x; int p; p = &x; }").unwrap_err();
        assert!(e.to_string().contains("register local"));
    }

    #[test]
    fn too_many_locals_rejected() {
        let e = check_src(
            "void main(void) { int a; int b; int c; int d; int e; int f; int g; int h; int i; }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("register locals"));
    }

    #[test]
    fn assigning_to_array_rejected() {
        let e = check_src("int v[4]; void main(void) { v = 1; }").unwrap_err();
        assert!(e.to_string().contains("cannot assign to array"));
    }

    #[test]
    fn all_errors_are_collected_in_source_order() {
        let errs = check_all_src(
            "void main(void) {
    x = 1;
    y = 2;
    f();
}",
        )
        .unwrap_err();
        assert_eq!(errs.len(), 3, "{errs:?}");
        assert!(errs[0].to_string().contains("`x`"));
        assert!(errs[1].to_string().contains("`y`"));
        assert!(errs[2].to_string().contains("`f`"));
    }

    #[test]
    fn first_collected_error_matches_check() {
        let src = "void main(void) { x = 1; y = 2; }";
        let first = check_src(src).unwrap_err();
        let all = check_all_src(src).unwrap_err();
        assert_eq!(first.to_string(), all[0].to_string());
    }

    #[test]
    fn control_flow_conditions_report_their_own_line() {
        // `if`/`while`/`for` conditions used to fall back to the
        // function's line; they must carry the statement's line so
        // lbp-sema trap messages can reuse the span.
        let errs = check_all_src(
            "void main(void) {
    int i;
    if (missing) { }
    while (also_missing) { }
    for (i = 0; i < bound; i++) { }
}",
        )
        .unwrap_err();
        assert_eq!(errs.len(), 3, "{errs:?}");
        assert_eq!(errs[0].line, 3, "{errs:?}");
        assert_eq!(errs[1].line, 4, "{errs:?}");
        assert_eq!(errs[2].line, 5, "{errs:?}");
    }

    #[test]
    fn errors_after_an_undefined_call_are_still_reported() {
        let errs = check_all_src("void main(void) { f(undefined_arg); }").unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
    }
}
