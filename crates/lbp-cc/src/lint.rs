//! Source-level determinism lint: race detection over parallel regions.
//!
//! For every `#pragma omp parallel for` / `parallel sections` region the
//! linter classifies each accessed variable as *private* (the index
//! variable and region locals), *shared* (globals), or *reduction*
//! (shared scalars only ever updated as `g = g op …`), then checks that
//! no two harts of the ordered team can touch the same shared location
//! with at least one write:
//!
//! - Shared-scalar writes two harts both reach are definite races
//!   (`LBP-S001`), with the reduction classification called out in the
//!   hint (LBP has no atomic reduction; the paper's idiom is a per-hart
//!   partial array folded sequentially — `examples/c/reduce.c`).
//! - Array subscripts are evaluated in an affine domain `a·t + b` over
//!   the member index `t` (interprocedurally: calls are inlined to a
//!   fixed depth with the argument's affine form bound to the
//!   parameter). A *definite* collision — concrete harts `t1 ≠ t2` with
//!   `a1·t1 + b1 = a2·t2 + b2` inside the team — is reported with the
//!   hart-pair witness: write/write as `LBP-S002`, write/read (a
//!   loop-carried dependence across members) as `LBP-S003`.
//! - Subscripts the affine domain cannot represent (loop-variant
//!   locals, products of the index) degrade to warnings (`LBP-S004`),
//!   never errors: the analysis only *rejects* what it can prove racy.
//! - Stores through pointers defeat the separation argument entirely
//!   and warn as `LBP-S005`.
//!
//! Diagnostics use the shared `lbp-diag-v1` vocabulary of `lbp-verify`,
//! so `--lint` and `--verify` reports compose.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use lbp_verify::{Diag, DiagCode, Severity};

use crate::ast::*;
use crate::sema::Checked;

/// Maximum interprocedural inline depth before a call is treated as
/// opaque (and warned about).
const MAX_INLINE_DEPTH: usize = 8;

/// Lints every parallel region of a checked unit. Returned diagnostics
/// follow the severity discipline above: errors are definite races with
/// witnesses, warnings mark what the analysis cannot prove.
pub fn lint_unit(cx: &Checked) -> Vec<Diag> {
    let mut diags = Vec::new();
    for f in &cx.unit.functions {
        walk(&f.body, &mut |s| lint_region(s, cx, &mut diags));
    }
    diags
}

fn lint_region(s: &Stmt, cx: &Checked, diags: &mut Vec<Diag>) {
    match s {
        Stmt::ParallelFor {
            var,
            count,
            body,
            line,
        } => {
            let mut linter = Linter::new(cx);
            let mut env = Env::new();
            env.insert(var.clone(), Sub::Affine { a: 1, b: 0 });
            linter.declared.insert(var.clone());
            linter.walk_block(body, &mut env);
            let declared = std::mem::take(&mut linter.declared);
            let acc = linter.finish();
            report_region(
                &format!("parallel for over `{var}`"),
                *line,
                *count,
                std::slice::from_ref(&acc),
                &declared,
                diags,
            );
        }
        Stmt::ParallelSections { sections, line } => {
            let mut accs = Vec::new();
            let mut declared = BTreeSet::new();
            for body in sections {
                let mut linter = Linter::new(cx);
                let mut env = Env::new();
                linter.walk_block(body, &mut env);
                declared.extend(linter.declared.iter().cloned());
                accs.push(linter.finish());
            }
            report_region(
                "parallel sections",
                *line,
                accs.len() as i64,
                &accs,
                &declared,
                diags,
            );
        }
        _ => {}
    }
}

/// A symbolic subscript: affine in the member index `t`, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sub {
    /// `a·t + b`.
    Affine { a: i64, b: i64 },
    /// Not representable in the affine domain.
    Unknown,
}

impl Sub {
    const fn constant(v: i64) -> Sub {
        Sub::Affine { a: 0, b: v }
    }

    fn map2(self, other: Sub, f: impl Fn(i64, i64) -> Option<i64>) -> Sub {
        match (self, other) {
            (Sub::Affine { a: a1, b: b1 }, Sub::Affine { a: a2, b: b2 }) => {
                match (f(a1, a2), f(b1, b2)) {
                    (Some(a), Some(b)) => Sub::Affine { a, b },
                    _ => Sub::Unknown,
                }
            }
            _ => Sub::Unknown,
        }
    }
}

type Env = HashMap<String, Sub>;

/// One recorded shared-memory access inside a region.
#[derive(Debug, Clone)]
struct Access {
    sub: Sub,
    line: usize,
}

/// Everything one hart (one `parallel for` body, or one section) does to
/// shared state.
#[derive(Debug, Default, Clone)]
struct Accesses {
    /// Shared scalar name → (read lines, write lines, all-reduction?).
    scalars: BTreeMap<String, ScalarUse>,
    /// Shared array name → accesses.
    array_reads: BTreeMap<String, Vec<Access>>,
    array_writes: BTreeMap<String, Vec<Access>>,
    /// Lines with loads/stores through pointers.
    pointer_stores: Vec<usize>,
    pointer_loads: Vec<usize>,
    /// Calls the inliner gave up on: (callee, line).
    opaque_calls: Vec<(String, usize)>,
}

#[derive(Debug, Default, Clone)]
struct ScalarUse {
    reads: Vec<usize>,
    writes: Vec<usize>,
    /// True while every write so far has the reduction shape
    /// `g = g op …` with one commutative operator.
    reduction: bool,
    reduction_op: Option<BinOp>,
}

/// The per-region walker: evaluates expressions in the affine domain and
/// records shared accesses, inlining calls.
struct Linter<'a> {
    cx: &'a Checked,
    acc: Accesses,
    /// Names declared private in the region body itself (for the
    /// classification note).
    declared: BTreeSet<String>,
    /// Inline stack (callee names), for recursion detection.
    stack: Vec<String>,
    /// Local-array names (private per hart) per frame; flat set is fine
    /// because sema enforces unique locals per scope.
    local_arrays: BTreeSet<String>,
    /// Return-value collector frames for inlined calls.
    returns: Vec<Vec<Sub>>,
}

impl<'a> Linter<'a> {
    fn new(cx: &'a Checked) -> Linter<'a> {
        Linter {
            cx,
            acc: Accesses::default(),
            declared: BTreeSet::new(),
            stack: Vec::new(),
            local_arrays: BTreeSet::new(),
            returns: Vec::new(),
        }
    }

    fn finish(self) -> Accesses {
        self.acc
    }

    fn is_shared_array(&self, name: &str, env: &Env) -> bool {
        !env.contains_key(name)
            && !self.local_arrays.contains(name)
            && self.cx.globals.get(name) == Some(&true)
    }

    fn is_shared_scalar(&self, name: &str, env: &Env) -> bool {
        !env.contains_key(name)
            && !self.local_arrays.contains(name)
            && self.cx.globals.get(name) == Some(&false)
    }

    fn walk_block(&mut self, stmts: &[Stmt], env: &mut Env) {
        for s in stmts {
            self.walk_stmt(s, env);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, env: &mut Env) {
        match s {
            Stmt::Decl { name, init, line } => {
                let v = init
                    .as_ref()
                    .map(|e| self.eval(e, env, *line))
                    .unwrap_or(Sub::Unknown);
                env.insert(name.clone(), v);
                if self.stack.is_empty() {
                    self.declared.insert(name.clone());
                }
            }
            Stmt::DeclArray { name, .. } => {
                self.local_arrays.insert(name.clone());
                if self.stack.is_empty() {
                    self.declared.insert(name.clone());
                }
            }
            Stmt::Assign { lhs, rhs, line } => {
                let v = self.eval(rhs, env, *line);
                match lhs {
                    Place::Var(name) => {
                        if env.contains_key(name) {
                            env.insert(name.clone(), v);
                        } else if self.is_shared_scalar(name, env) {
                            self.record_scalar_write(name, rhs, *line);
                        }
                    }
                    Place::Index(name, idx) => {
                        let isub = self.eval(idx, env, *line);
                        if self.is_shared_array(name, env) {
                            self.acc
                                .array_writes
                                .entry(name.clone())
                                .or_default()
                                .push(Access {
                                    sub: isub,
                                    line: *line,
                                });
                        } else if !self.local_arrays.contains(name) && env.contains_key(name) {
                            // Indexing a pointer-valued local/param: the
                            // separation argument cannot see the target.
                            self.acc.pointer_stores.push(*line);
                        }
                    }
                    Place::Deref(e) => {
                        self.eval(e, env, *line);
                        self.acc.pointer_stores.push(*line);
                    }
                }
            }
            Stmt::Expr(e, line) => {
                self.eval(e, env, *line);
            }
            Stmt::If {
                cond,
                then,
                els,
                line,
            } => {
                self.eval(cond, env, *line);
                let mut env_then = env.clone();
                let mut env_els = env.clone();
                self.walk_block(then, &mut env_then);
                self.walk_block(els, &mut env_els);
                // Join: keep only bindings both branches agree on.
                for (name, v) in env.iter_mut() {
                    let a = env_then.get(name).copied().unwrap_or(Sub::Unknown);
                    let b = env_els.get(name).copied().unwrap_or(Sub::Unknown);
                    *v = if a == b { a } else { Sub::Unknown };
                }
            }
            Stmt::While { cond, body, line } => {
                invalidate_assigned(body, env);
                self.eval(cond, env, *line);
                let mut benv = env.clone();
                self.walk_block(body, &mut benv);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => {
                if let Some(i) = init.as_ref() {
                    self.walk_stmt(i, env);
                }
                // Anything written by the body or step is loop-variant:
                // its affine form (if any) only holds for the first
                // iteration, so degrade it to Unknown before analyzing.
                invalidate_assigned(body, env);
                if let Some(st) = step.as_ref() {
                    invalidate_assigned(std::slice::from_ref(st), env);
                }
                if let Some(c) = cond {
                    self.eval(c, env, *line);
                }
                let mut benv = env.clone();
                self.walk_block(body, &mut benv);
                if let Some(st) = step.as_ref() {
                    self.walk_stmt(st, &mut benv);
                }
            }
            Stmt::Return(value, line) => {
                let v = value
                    .as_ref()
                    .map(|e| self.eval(e, env, *line))
                    .unwrap_or(Sub::Unknown);
                if let Some(frame) = self.returns.last_mut() {
                    frame.push(v);
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) => {}
            // Nested regions are rejected by sema; nothing to do here.
            Stmt::ParallelFor { .. } | Stmt::ParallelSections { .. } => {}
        }
    }

    fn record_scalar_write(&mut self, name: &str, rhs: &Expr, line: usize) {
        // Reduction shape: `g = g op e` / `g = e op g` with a
        // commutative operator.
        let shape = match rhs {
            Expr::Binary(op, a, b) if is_commutative(*op) => {
                let hit = matches!(a.as_ref(), Expr::Var(n) if n == name)
                    || matches!(b.as_ref(), Expr::Var(n) if n == name);
                hit.then_some(*op)
            }
            _ => None,
        };
        let entry = self
            .acc
            .scalars
            .entry(name.to_owned())
            .or_insert(ScalarUse {
                reduction: true,
                ..ScalarUse::default()
            });
        entry.writes.push(line);
        match (shape, entry.reduction_op) {
            (Some(op), None) => entry.reduction_op = Some(op),
            (Some(op), Some(prev)) if op == prev => {}
            _ => entry.reduction = false,
        }
    }

    fn eval(&mut self, e: &Expr, env: &Env, line: usize) -> Sub {
        match e {
            Expr::Int(v) => Sub::constant(*v),
            Expr::Var(name) => {
                if let Some(&v) = env.get(name) {
                    v
                } else {
                    if self.is_shared_scalar(name, env) {
                        self.acc
                            .scalars
                            .entry(name.clone())
                            .or_insert(ScalarUse {
                                reduction: true,
                                ..ScalarUse::default()
                            })
                            .reads
                            .push(line);
                    }
                    // Array names decay to addresses; neither is affine
                    // in t.
                    Sub::Unknown
                }
            }
            Expr::Index(name, idx) => {
                let isub = self.eval(idx, env, line);
                if self.is_shared_array(name, env) {
                    self.acc
                        .array_reads
                        .entry(name.clone())
                        .or_default()
                        .push(Access { sub: isub, line });
                } else if !self.local_arrays.contains(name) && env.contains_key(name) {
                    self.acc.pointer_loads.push(line);
                }
                Sub::Unknown
            }
            Expr::Deref(inner) => {
                self.eval(inner, env, line);
                self.acc.pointer_loads.push(line);
                Sub::Unknown
            }
            Expr::AddrOf(place) => {
                if let Place::Index(_, idx) = place.as_ref() {
                    self.eval(idx, env, line);
                }
                Sub::Unknown
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, env, line);
                match (op, v) {
                    (UnOp::Neg, Sub::Affine { a, b }) => match (a.checked_neg(), b.checked_neg()) {
                        (Some(a), Some(b)) => Sub::Affine { a, b },
                        _ => Sub::Unknown,
                    },
                    _ => Sub::Unknown,
                }
            }
            Expr::Binary(op, l, r) => {
                let lv = self.eval(l, env, line);
                let rv = self.eval(r, env, line);
                match op {
                    BinOp::Add => lv.map2(rv, i64::checked_add),
                    BinOp::Sub => lv.map2(rv, i64::checked_sub),
                    BinOp::Mul => mul(lv, rv),
                    _ => Sub::Unknown,
                }
            }
            Expr::Call(name, args) => self.eval_call(name, args, env, line),
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], env: &Env, line: usize) -> Sub {
        let arg_subs: Vec<Sub> = args.iter().map(|a| self.eval(a, env, line)).collect();
        let Some(f) = self.cx.unit.functions.iter().find(|f| f.name == name) else {
            // A builtin (`omp_set_num_threads`): no shared-memory effect.
            return Sub::Unknown;
        };
        if self.stack.len() >= MAX_INLINE_DEPTH || self.stack.iter().any(|n| n == name) {
            self.acc.opaque_calls.push((name.to_owned(), line));
            return Sub::Unknown;
        }
        self.stack.push(name.to_owned());
        self.returns.push(Vec::new());
        let mut fenv: Env = f.params.iter().cloned().zip(arg_subs).collect();
        self.walk_block(&f.body.clone(), &mut fenv);
        let rets = self.returns.pop().unwrap_or_default();
        self.stack.pop();
        match rets.as_slice() {
            [only] => *only,
            [first, rest @ ..] if rest.iter().all(|r| r == first) => *first,
            _ => Sub::Unknown,
        }
    }
}

fn is_commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

fn mul(l: Sub, r: Sub) -> Sub {
    match (l, r) {
        // Multiplication stays affine only when one side is constant.
        (Sub::Affine { a, b }, Sub::Affine { a: 0, b: k })
        | (Sub::Affine { a: 0, b: k }, Sub::Affine { a, b }) => {
            match (a.checked_mul(k), b.checked_mul(k)) {
                (Some(a), Some(b)) => Sub::Affine { a, b },
                _ => Sub::Unknown,
            }
        }
        _ => Sub::Unknown,
    }
}

/// Degrades every local assigned (or re-declared) anywhere in `stmts` to
/// Unknown: its value is loop-variant.
fn invalidate_assigned(stmts: &[Stmt], env: &mut Env) {
    walk(stmts, &mut |s| {
        let (Stmt::Assign {
            lhs: Place::Var(n), ..
        }
        | Stmt::Decl { name: n, .. }) = s
        else {
            return;
        };
        if let Some(v) = env.get_mut(n) {
            *v = Sub::Unknown;
        }
    });
}

/// The number of harts two accesses can be distributed over: for
/// `parallel for` both come from the same body with symbolic `t`; for
/// sections each section index is the hart.
fn report_region(
    what: &str,
    line: usize,
    count: i64,
    accs: &[Accesses],
    declared: &BTreeSet<String>,
    diags: &mut Vec<Diag>,
) {
    summarize(what, line, count, accs, declared, diags);
    if count < 2 {
        return; // A 0/1-hart team cannot race with itself.
    }
    if accs.len() == 1 {
        check_team(&accs[0], count, diags);
    } else {
        check_sections(accs, diags);
    }
    for acc in accs {
        soft_warnings(acc, accs.len() == 1, diags);
    }
}

/// The classification note (Info; never affects the verdict).
fn summarize(
    what: &str,
    line: usize,
    count: i64,
    accs: &[Accesses],
    declared: &BTreeSet<String>,
    diags: &mut Vec<Diag>,
) {
    let mut shared = BTreeSet::new();
    let mut reduction = BTreeSet::new();
    for acc in accs {
        for (name, u) in &acc.scalars {
            if !u.writes.is_empty() && u.reduction && u.reduction_op.is_some() {
                reduction.insert(name.clone());
            } else {
                shared.insert(name.clone());
            }
        }
        shared.extend(acc.array_reads.keys().cloned());
        shared.extend(acc.array_writes.keys().cloned());
    }
    let fmt = |set: &BTreeSet<String>| {
        if set.is_empty() {
            "none".to_owned()
        } else {
            set.iter()
                .map(|s| format!("`{s}`"))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    diags.push(Diag::new(
        DiagCode::CSema,
        Severity::Info,
        line,
        format!(
            "{what} ({count} harts): private {}; shared {}; reduction {}",
            fmt(declared),
            fmt(&shared),
            fmt(&reduction)
        ),
    ));
}

/// Definite-race checks for a `parallel for` team: all harts run the
/// same accesses with different `t`.
fn check_team(acc: &Accesses, count: i64, diags: &mut Vec<Diag>) {
    for (name, u) in &acc.scalars {
        if u.writes.is_empty() {
            continue;
        }
        let wline = u.writes[0];
        let mut d = Diag::new(
            DiagCode::SSharedScalar,
            Severity::Error,
            wline,
            format!(
                "shared scalar `{name}` is written by every hart of the team; \
                 the members are not ordered by a barrier, so the final value \
                 is a race"
            ),
        )
        .with_witness(format!(
            "harts t=0 and t=1 both reach the write of `{name}` at line {wline}"
        ));
        d = if u.reduction && u.reduction_op.is_some() {
            d.with_hint(format!(
                "`{name}` has the reduction shape `{name} = {name} op …`, but LBP \
                 has no atomic reduction: accumulate into a per-hart partial \
                 array and fold it sequentially after the region \
                 (the `examples/c/reduce.c` idiom)"
            ))
        } else {
            d.with_hint(format!(
                "make `{name}` private to the member (a local), or give each \
                 hart its own element of a shared array"
            ))
        };
        diags.push(d);
    }
    for (name, writes) in &acc.array_writes {
        // Write/write: every unordered pair, including a write against
        // itself on two different harts.
        for (i, w1) in writes.iter().enumerate() {
            for w2 in &writes[i..] {
                if let Some((t1, t2, elem)) = collide(w1.sub, w2.sub, count) {
                    diags.push(
                        Diag::new(
                            DiagCode::SOverlappingWrite,
                            Severity::Error,
                            w1.line,
                            format!(
                                "two harts of the team write the same element of \
                                 shared array `{name}`"
                            ),
                        )
                        .with_witness(format!(
                            "hart t={t1} (line {}) and hart t={t2} (line {}) both \
                             write `{name}[{elem}]`",
                            w1.line, w2.line
                        ))
                        .with_hint(format!(
                            "make the subscript injective in the member index \
                             (e.g. `{name}[t]`), or split the region"
                        )),
                    );
                }
            }
        }
        // Write/read across harts: a loop-carried dependence.
        for r in acc.array_reads.get(name).into_iter().flatten() {
            for w in writes {
                if let Some((t1, t2, elem)) = collide(w.sub, r.sub, count) {
                    diags.push(
                        Diag::new(
                            DiagCode::SLoopCarried,
                            Severity::Error,
                            w.line,
                            format!(
                                "loop-carried dependence: a hart reads an element \
                                 of `{name}` another hart writes"
                            ),
                        )
                        .with_witness(format!(
                            "hart t={t1} writes `{name}[{elem}]` (line {}) while \
                             hart t={t2} reads it (line {})",
                            w.line, r.line
                        ))
                        .with_hint(
                            "members of a team run concurrently: read only \
                             elements the region does not write, or compute into \
                             a second array (double-buffer) and swap after the \
                             region",
                        ),
                    );
                }
            }
        }
    }
}

/// Definite-race checks across `parallel sections`: section `i` runs on
/// hart `i`, so conflicts are between different sections.
fn check_sections(accs: &[Accesses], diags: &mut Vec<Diag>) {
    for (i, a) in accs.iter().enumerate() {
        for (j, b) in accs.iter().enumerate().skip(i + 1) {
            for (name, ua) in &a.scalars {
                let Some(ub) = b.scalars.get(name) else {
                    continue;
                };
                let a_writes = !ua.writes.is_empty();
                let b_writes = !ub.writes.is_empty();
                let conflict = (a_writes && (b_writes || !ub.reads.is_empty()))
                    || (b_writes && !ua.reads.is_empty());
                if conflict {
                    let la = *ua.writes.first().or(ua.reads.first()).unwrap_or(&0);
                    let lb = *ub.writes.first().or(ub.reads.first()).unwrap_or(&0);
                    diags.push(
                        Diag::new(
                            DiagCode::SSharedScalar,
                            Severity::Error,
                            la.min(lb),
                            format!(
                                "sections {i} and {j} conflict on shared scalar \
                                 `{name}`"
                            ),
                        )
                        .with_witness(format!(
                            "hart {i} (section {i}, line {la}) and hart {j} \
                             (section {j}, line {lb}) touch `{name}`, at least \
                             one writing"
                        ))
                        .with_hint(format!(
                            "give each section its own scalar, or make `{name}` \
                             an array indexed by section"
                        )),
                    );
                }
            }
            for (name, writes) in &a.array_writes {
                let reads_b = b.array_reads.get(name).map(Vec::as_slice).unwrap_or(&[]);
                let writes_b = b.array_writes.get(name).map(Vec::as_slice).unwrap_or(&[]);
                for w in writes {
                    for other in writes_b.iter().chain(reads_b) {
                        if let (Sub::Affine { a: 0, b: e1 }, Sub::Affine { a: 0, b: e2 }) =
                            (w.sub, other.sub)
                        {
                            if e1 == e2 {
                                diags.push(
                                    Diag::new(
                                        DiagCode::SOverlappingWrite,
                                        Severity::Error,
                                        w.line,
                                        format!(
                                            "sections {i} and {j} conflict on \
                                             `{name}[{e1}]`"
                                        ),
                                    )
                                    .with_witness(format!(
                                        "hart {i} writes `{name}[{e1}]` (line {}) \
                                         while hart {j} accesses it (line {})",
                                        w.line, other.line
                                    ))
                                    .with_hint("partition the array between the sections"),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Warnings for what the analysis cannot prove (never rejections).
fn soft_warnings(acc: &Accesses, team: bool, diags: &mut Vec<Diag>) {
    let mut seen = BTreeSet::new();
    for (name, writes) in &acc.array_writes {
        for w in writes {
            if w.sub == Sub::Unknown && seen.insert((name.clone(), w.line, true)) {
                diags.push(
                    Diag::new(
                        DiagCode::SUnprovable,
                        Severity::Warning,
                        w.line,
                        format!(
                            "subscript of the write to shared array `{name}` is not \
                             affine in the member index: hart-disjointness cannot \
                             be proved statically"
                        ),
                    )
                    .with_hint(
                        "keep subscripts of shared writes affine in the index \
                         variable (a·t + b) for a static independence proof; \
                         the dynamic lockstep checker still covers this run",
                    ),
                );
            }
        }
    }
    if team {
        for (name, reads) in &acc.array_reads {
            if !acc.array_writes.contains_key(name) {
                continue; // Read-only arrays cannot race.
            }
            for r in reads {
                if r.sub == Sub::Unknown && seen.insert((name.clone(), r.line, false)) {
                    diags.push(
                        Diag::new(
                            DiagCode::SUnprovable,
                            Severity::Warning,
                            r.line,
                            format!(
                                "shared array `{name}` is both written by the team \
                                 and read through a non-affine subscript: freedom \
                                 from loop-carried dependences cannot be proved"
                            ),
                        )
                        .with_hint(
                            "split the region, or double-buffer the array so reads \
                             and writes target different arrays",
                        ),
                    );
                }
            }
        }
    }
    for &line in &acc.pointer_stores {
        if seen.insert(("*".to_owned(), line, true)) {
            diags.push(
                Diag::new(
                    DiagCode::SPointerStore,
                    Severity::Warning,
                    line,
                    "store through a pointer inside a parallel region: the \
                     independence analysis cannot see the target",
                )
                .with_hint("write through a named shared array with an affine subscript"),
            );
        }
    }
    for (callee, line) in &acc.opaque_calls {
        if seen.insert((callee.clone(), *line, false)) {
            diags.push(
                Diag::new(
                    DiagCode::SUnprovable,
                    Severity::Warning,
                    *line,
                    format!(
                        "call to `{callee}` is recursive or exceeds the inline \
                         depth ({MAX_INLINE_DEPTH}); its shared accesses are not \
                         analyzed"
                    ),
                )
                .with_hint("flatten the call chain inside parallel regions"),
            );
        }
    }
}

/// Finds concrete harts `t1 ≠ t2` in `0..count` whose subscripts
/// collide; returns `(t1, t2, element)`. Both subscripts must be affine
/// (Unknown never produces a *definite* race).
fn collide(s1: Sub, s2: Sub, count: i64) -> Option<(i64, i64, i64)> {
    let (Sub::Affine { a: a1, b: b1 }, Sub::Affine { a: a2, b: b2 }) = (s1, s2) else {
        return None;
    };
    // Teams are capped at 256 harts by sema, so the pair space is tiny;
    // brute force keeps the witness search obviously correct.
    for t1 in 0..count {
        for t2 in 0..count {
            if t1 == t2 {
                continue;
            }
            let e1 = a1.checked_mul(t1).and_then(|v| v.checked_add(b1));
            let e2 = a2.checked_mul(t2).and_then(|v| v.checked_add(b2));
            if let (Some(e1), Some(e2)) = (e1, e2) {
                if e1 == e2 {
                    return Some((t1, t2, e1));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse;
    use crate::sema;

    fn lint_src(src: &str) -> Vec<Diag> {
        let checked = sema::check(parse(lex(src).unwrap()).unwrap()).unwrap();
        lint_unit(&checked)
    }

    fn errors(diags: &[Diag]) -> Vec<&Diag> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn disjoint_affine_writes_are_clean() {
        let diags = lint_src(
            "int v[8];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 8; t++) v[t] = t;
}",
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
        assert!(lbp_verify::accepted(&diags));
    }

    #[test]
    fn interprocedural_disjoint_writes_are_clean() {
        let diags = lint_src(
            "int v[8];
void thread(int t) { v[t + 1] = t; }
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) thread(t);
}",
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn shared_scalar_write_is_a_race_with_witness() {
        let diags = lint_src(
            "int g;
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) g = t;
}",
        );
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].code, DiagCode::SSharedScalar);
        assert!(errs[0].witness.as_deref().unwrap().contains("t=0"));
    }

    #[test]
    fn reduction_shape_is_classified_and_hinted() {
        let diags = lint_src(
            "int g;
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) g = g + t;
}",
        );
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].hint.as_deref().unwrap().contains("reduction"));
        // The classification note lists g as a reduction variable.
        let info = diags.iter().find(|d| d.severity == Severity::Info).unwrap();
        assert!(info.message.contains("reduction `g`"), "{}", info.message);
    }

    #[test]
    fn constant_subscript_write_collides() {
        let diags = lint_src(
            "int v[8];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) v[0] = t;
}",
        );
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].code, DiagCode::SOverlappingWrite);
        assert!(errs[0].witness.as_deref().unwrap().contains("v[0]"));
    }

    #[test]
    fn loop_carried_dependence_collides() {
        let diags = lint_src(
            "int v[8];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) v[t] = v[t + 1];
}",
        );
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].code, DiagCode::SLoopCarried);
        let w = errs[0].witness.as_deref().unwrap();
        assert!(w.contains("writes") && w.contains("reads"), "{w}");
    }

    #[test]
    fn same_element_read_write_on_one_hart_is_fine() {
        let diags = lint_src(
            "int v[8];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 8; t++) v[t] = v[t] + 1;
}",
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn unprovable_subscript_warns_but_accepts() {
        let diags = lint_src(
            "int v[64];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) v[t * t] = t;
}",
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.code == DiagCode::SUnprovable && d.severity == Severity::Warning));
        assert!(lbp_verify::accepted(&diags));
    }

    #[test]
    fn sections_conflicting_on_a_scalar_race() {
        let diags = lint_src(
            "int g;
void s0(void) { g = 1; }
void s1(void) { g = 2; }
void main(void) {
#pragma omp parallel sections
    {
#pragma omp section
        { s0(); }
#pragma omp section
        { s1(); }
    }
}",
        );
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].code, DiagCode::SSharedScalar);
        assert!(errs[0].witness.as_deref().unwrap().contains("section"));
    }

    #[test]
    fn sections_on_disjoint_state_are_clean() {
        let diags = lint_src(
            "int a; int b;
void s0(void) { a = 1; }
void s1(void) { b = 2; }
void main(void) {
#pragma omp parallel sections
    {
#pragma omp section
        { s0(); }
#pragma omp section
        { s1(); }
    }
}",
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn single_hart_team_cannot_race() {
        let diags = lint_src(
            "int g;
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 1; t++) g = t;
}",
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn loop_variant_local_degrades_to_warning() {
        let diags = lint_src(
            "int v[64];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) {
        int i;
        for (i = t * 4; i < t * 4 + 4; i = i + 1) v[i] = i;
    }
}",
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == DiagCode::SUnprovable));
    }
}
