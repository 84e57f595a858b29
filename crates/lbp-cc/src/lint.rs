//! Source-level determinism lint: race detection over parallel regions.
//!
//! For every `#pragma omp parallel for` / `parallel sections` region the
//! linter classifies each accessed variable as *private* (the index
//! variable and region locals), *shared* (globals), or *reduction*
//! (shared scalars only ever updated as `g = g op …`), then checks that
//! no two harts of the ordered team can touch the same shared location
//! with at least one write. A `parallel for` is one body run by harts
//! `t ∈ [0, n)`, `parallel sections` one body per section, section `i`
//! run by hart `i`:
//!
//! - Subscripts are evaluated as `a·t + b` in the member index `t`
//!   (calls are inlined to a fixed depth, the argument's form bound to
//!   the parameter); a scalar is its own element 0. Every pair of
//!   accesses to one shared object, at least one a write, asks
//!   [`lbp_verify::affine::overlap_pair`], the M-pass's solver, for harts
//!   `t1 ≠ t2` that meet: a *definite* race with that witness. A shared
//!   scalar is `LBP-S001` (the hint names a reduction: LBP has no atomic
//!   one; the paper's idiom is a per-hart partial array folded
//!   sequentially, `examples/c/reduce.c`), an element two harts write
//!   `LBP-S002`, one a hart writes and another reads `LBP-S003`.
//! - Subscripts the domain cannot represent (loop-variant locals,
//!   products of the index), and pairs past the solver's budget, warn
//!   (`LBP-S004`): the analysis only *rejects* what it proves racy.
//! - Stores through pointers defeat the separation argument entirely
//!   and warn as `LBP-S005`.
//!
//! Diagnostics use the shared `lbp-diag-v1` vocabulary of `lbp-verify`,
//! so `--lint` and `--verify` reports compose.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use lbp_verify::affine::{overlap_pair, Aff, Footprint, PAIR_BUDGET};
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
    lint_within(cx, PAIR_BUDGET)
}

/// [`lint_unit`] with `budget` solver evaluations per region.
fn lint_within(cx: &Checked, budget: usize) -> Vec<Diag> {
    let mut diags = Vec::new();
    for f in &cx.unit.functions {
        walk(&f.body, &mut |s| lint_region(s, cx, budget, &mut diags));
    }
    diags
}

fn lint_region(s: &Stmt, cx: &Checked, budget: usize, diags: &mut Vec<Diag>) {
    // Each member body with its starting bindings and the harts that run it.
    let (what, line, bodies) = match s {
        Stmt::ParallelFor {
            var,
            count,
            body,
            line,
        } => {
            let t = Env::from([(var.clone(), Some(Aff { a: 1, lo: 0, hi: 0 }))]);
            let what = format!("parallel for over `{var}`");
            (what, line, vec![(body, t, 0, count - 1)])
        }
        Stmt::ParallelSections { sections, line } => {
            let bodies = (0..).zip(sections);
            let bodies = bodies.map(|(t, body)| (body, Env::new(), t, t)).collect();
            ("parallel sections".to_owned(), line, bodies)
        }
        _ => return,
    };
    let mut declared = BTreeSet::new();
    let mut members = Vec::new();
    for (body, mut env, tlo, thi) in bodies {
        let mut linter = Linter::new(cx);
        declared.extend(env.keys().cloned());
        linter.walk_block(body, &mut env);
        declared.append(&mut linter.declared);
        members.push(Member {
            acc: linter.acc,
            tlo,
            thi,
        });
    }
    let count = members.last().map_or(0, |m| m.thi + 1);
    summarize(&what, *line, count, &members, &declared, diags);
    if count < 2 {
        return; // A 0/1-hart team cannot race with itself.
    }
    check_region(&what, *line, &members, budget, diags);
    for m in &members {
        soft_warnings(&m.acc, members.len() == 1, diags);
    }
}

/// Locals and parameters by name: their affine form in the member index
/// `t`, `None` when the affine domain cannot represent it.
type Env = HashMap<String, Option<Aff>>;

/// One recorded shared-array access inside a region.
#[derive(Debug, Clone)]
struct Access {
    write: bool,
    /// The subscript's affine form, if it has one.
    sub: Option<Aff>,
    line: usize,
}

/// Everything one member body (a `parallel for` body, or one section)
/// does to shared state.
#[derive(Debug, Default, Clone)]
struct Accesses {
    /// Shared scalar name → (read lines, write lines, all-reduction?).
    scalars: BTreeMap<String, ScalarUse>,
    /// Shared array name → accesses, in walk order.
    arrays: BTreeMap<String, Vec<Access>>,
    /// Lines with stores through pointers.
    pointer_stores: Vec<usize>,
    /// Calls the inliner gave up on: (callee, line).
    opaque_calls: Vec<(String, usize)>,
}

/// A member body and the harts `t ∈ [tlo, thi]` that run it.
struct Member {
    acc: Accesses,
    tlo: i64,
    thi: i64,
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

impl ScalarUse {
    /// Written, and only ever as `g = g op …` with one operator.
    fn is_reduction(&self) -> bool {
        !self.writes.is_empty() && self.reduction && self.reduction_op.is_some()
    }
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
    returns: Vec<Vec<Option<Aff>>>,
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

    /// Whether `name` is a global the region shares: `Some(true)` for an
    /// array, `Some(false)` for a scalar.
    fn shared(&self, name: &str, env: &Env) -> Option<bool> {
        if env.contains_key(name) || self.local_arrays.contains(name) {
            return None;
        }
        self.cx.globals.get(name).copied()
    }

    /// The use record of shared scalar `name`.
    fn scalar(&mut self, name: &str) -> &mut ScalarUse {
        let fresh = ScalarUse {
            reduction: true,
            ..ScalarUse::default()
        };
        self.acc.scalars.entry(name.to_owned()).or_insert(fresh)
    }

    fn walk_block(&mut self, stmts: &[Stmt], env: &mut Env) {
        for s in stmts {
            self.walk_stmt(s, env);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, env: &mut Env) {
        match s {
            Stmt::Decl { name, init, line } => {
                let v = init.as_ref().and_then(|e| self.eval(e, env, *line));
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
                        } else if self.shared(name, env) == Some(false) {
                            self.record_scalar_write(name, rhs, *line);
                        }
                    }
                    Place::Index(name, idx) => {
                        let sub = self.eval(idx, env, *line);
                        self.record_index(name, sub, true, *line, env);
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
                    let a = env_then.get(name).copied().flatten();
                    let b = env_els.get(name).copied().flatten();
                    *v = if a == b { a } else { None };
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
                // iteration, so forget it before analyzing.
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
                let v = value.as_ref().and_then(|e| self.eval(e, env, *line));
                if let Some(frame) = self.returns.last_mut() {
                    frame.push(v);
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) => {}
            // Nested regions are rejected by sema; nothing to do here.
            Stmt::ParallelFor { .. } | Stmt::ParallelSections { .. } => {}
        }
    }

    /// Records `name[sub]`: an access to a shared array, or a store
    /// through a pointer-valued local or parameter, whose target the
    /// separation argument cannot see.
    fn record_index(&mut self, name: &str, sub: Option<Aff>, write: bool, line: usize, env: &Env) {
        if self.shared(name, env) == Some(true) {
            let access = Access { write, sub, line };
            self.acc
                .arrays
                .entry(name.to_owned())
                .or_default()
                .push(access);
        } else if write && !self.local_arrays.contains(name) && env.contains_key(name) {
            self.acc.pointer_stores.push(line);
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
        let entry = self.scalar(name);
        entry.writes.push(line);
        match (shape, entry.reduction_op) {
            (Some(op), None) => entry.reduction_op = Some(op),
            (Some(op), Some(prev)) if op == prev => {}
            _ => entry.reduction = false,
        }
    }

    fn eval(&mut self, e: &Expr, env: &Env, line: usize) -> Option<Aff> {
        match e {
            Expr::Int(v) => Aff::point(*v).bounded(),
            Expr::Var(name) => {
                if let Some(&v) = env.get(name) {
                    v
                } else {
                    if self.shared(name, env) == Some(false) {
                        self.scalar(name).reads.push(line);
                    }
                    // Array names decay to addresses; neither is affine
                    // in t.
                    None
                }
            }
            Expr::Index(name, idx) => {
                let sub = self.eval(idx, env, line);
                self.record_index(name, sub, false, line, env);
                None
            }
            Expr::Deref(inner) => {
                self.eval(inner, env, line);
                None
            }
            Expr::AddrOf(place) => {
                if let Place::Index(_, idx) = place.as_ref() {
                    self.eval(idx, env, line);
                }
                None
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, env, line)?;
                match op {
                    UnOp::Neg => v.scale(-1),
                    _ => None,
                }
            }
            Expr::Binary(op, l, r) => {
                let (l, r) = (self.eval(l, env, line), self.eval(r, env, line));
                let (l, r) = (l?, r?);
                match op {
                    BinOp::Add => l.checked_add(r),
                    BinOp::Sub => l.checked_sub(r),
                    // A product stays affine only when one side is constant.
                    BinOp::Mul if r.is_point() => l.scale(r.lo),
                    BinOp::Mul if l.is_point() => r.scale(l.lo),
                    _ => None,
                }
            }
            Expr::Call(name, args) => self.eval_call(name, args, env, line),
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], env: &Env, line: usize) -> Option<Aff> {
        let arg_subs: Vec<Option<Aff>> = args.iter().map(|a| self.eval(a, env, line)).collect();
        let Some(f) = self.cx.unit.functions.iter().find(|f| f.name == name) else {
            // A builtin (`omp_set_num_threads`): no shared-memory effect.
            return None;
        };
        if self.stack.len() >= MAX_INLINE_DEPTH || self.stack.iter().any(|n| n == name) {
            self.acc.opaque_calls.push((name.to_owned(), line));
            return None;
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
            _ => None,
        }
    }
}

fn is_commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

/// Forgets the affine form of every local assigned (or re-declared)
/// anywhere in `stmts`: its value is loop-variant.
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
            *v = None;
        }
    });
}

/// The classification note (Info; never affects the verdict).
fn summarize(
    what: &str,
    line: usize,
    count: i64,
    members: &[Member],
    declared: &BTreeSet<String>,
    diags: &mut Vec<Diag>,
) {
    let mut shared = BTreeSet::new();
    let mut reduction = BTreeSet::new();
    for Member { acc, .. } in members {
        for (name, u) in &acc.scalars {
            if u.is_reduction() {
                reduction.insert(name.clone());
            } else {
                shared.insert(name.clone());
            }
        }
        shared.extend(acc.arrays.keys().cloned());
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

/// One affine access to a shared object, as the solver sees it: a
/// scalar is element 0 of itself.
struct Touch {
    write: bool,
    line: usize,
    at: Footprint,
    /// A scalar whose every write has the reduction shape.
    reduction: bool,
}

/// The definite races of a region: every pair of affine accesses to one
/// shared object, at least one a write, that two different harts make.
/// Scalars come first, then arrays, each by name.
fn check_region(what: &str, line: usize, members: &[Member], budget: usize, diags: &mut Vec<Diag>) {
    let mut objects: BTreeMap<(bool, &str), Vec<Touch>> = BTreeMap::new();
    for &Member { ref acc, tlo, thi } in members {
        let at = |addr| Footprint {
            addr,
            size: 1,
            tlo,
            thi,
        };
        for (name, u) in &acc.scalars {
            if let Some(&line) = u.writes.first().or(u.reads.first()) {
                objects.entry((false, name)).or_default().push(Touch {
                    write: !u.writes.is_empty(),
                    line,
                    at: at(Aff::point(0)),
                    reduction: u.is_reduction(),
                });
            }
        }
        for (name, list) in &acc.arrays {
            for a in list {
                if let Some(addr) = a.sub {
                    objects.entry((true, name)).or_default().push(Touch {
                        write: a.write,
                        line: a.line,
                        at: at(addr),
                        reduction: false,
                    });
                }
            }
        }
    }
    let mut budget = budget;
    let mut unchecked = false;
    for ((array, name), touches) in &objects {
        for (i, x) in touches.iter().enumerate() {
            for y in &touches[i..] {
                if !x.write && !y.write {
                    continue;
                }
                match overlap_pair(&x.at, &y.at, &mut budget) {
                    Some((t1, t2)) => diags.push(conflict(name, *array, (x, t1), (y, t2))),
                    None => unchecked |= budget == 0,
                }
            }
        }
    }
    if unchecked {
        diags.push(
            Diag::new(
                DiagCode::SUnprovable,
                Severity::Warning,
                line,
                format!(
                    "{what}: the member-pair budget of the overlap check ran out; \
                     some pairs of shared accesses were not checked"
                ),
            )
            .with_hint("split the region into smaller ones"),
        );
    }
}

/// The diagnostic for harts `t1` running `x` and `t2` running `y` that
/// meet on shared object `name`, reported at the write (the first, if
/// both write).
fn conflict(name: &str, array: bool, x: (&Touch, i64), y: (&Touch, i64)) -> Diag {
    let ((w, tw), (o, to)) = if x.0.write { (x, y) } else { (y, x) };
    let (code, message, hint, what) = match (array, o.write) {
        (false, _) => (
            DiagCode::SSharedScalar,
            format!(
                "shared scalar `{name}` is written by one hart of the team while another \
                 accesses it; the members are not ordered by a barrier, so the outcome is a race"
            ),
            if w.reduction {
                format!(
                    "`{name}` has the reduction shape `{name} = {name} op …`, but LBP has no \
                     atomic reduction: accumulate into a per-hart partial array and fold it \
                     sequentially after the region (the `examples/c/reduce.c` idiom)"
                )
            } else {
                format!(
                    "make `{name}` private to the member (a local), or give each hart its own \
                     element of a shared array"
                )
            },
            name.to_owned(),
        ),
        (true, true) => (
            DiagCode::SOverlappingWrite,
            format!("two harts of the team write the same element of shared array `{name}`"),
            format!(
                "make the subscript injective in the member index (e.g. `{name}[t]`), or split \
                 the region"
            ),
            format!("{name}[{}]", w.at.start(tw)),
        ),
        (true, false) => (
            DiagCode::SLoopCarried,
            format!(
                "loop-carried dependence: a hart reads an element of `{name}` another hart writes"
            ),
            "members of a team run concurrently: read only elements the region does not write, \
             or compute into a second array (double-buffer) and swap after the region"
                .to_owned(),
            format!("{name}[{}]", w.at.start(tw)),
        ),
    };
    let witness = if o.write {
        format!(
            "hart t={tw} (line {}) and hart t={to} (line {}) both write `{what}`",
            w.line, o.line
        )
    } else {
        format!(
            "hart t={tw} writes `{what}` (line {}) while hart t={to} reads it (line {})",
            w.line, o.line
        )
    };
    Diag::new(code, Severity::Error, w.line, message)
        .with_witness(witness)
        .with_hint(hint)
}

/// Warnings for what the analysis cannot prove (never rejections).
fn soft_warnings(acc: &Accesses, team: bool, diags: &mut Vec<Diag>) {
    let mut seen = BTreeSet::new();
    for (name, list) in &acc.arrays {
        for w in list.iter().filter(|a| a.write && a.sub.is_none()) {
            if seen.insert((name.clone(), w.line, true)) {
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
        for (name, list) in &acc.arrays {
            if !list.iter().any(|a| a.write) {
                continue; // Read-only arrays cannot race.
            }
            for r in list.iter().filter(|a| !a.write && a.sub.is_none()) {
                if seen.insert((name.clone(), r.line, false)) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse;
    use crate::sema;

    fn lint_src(src: &str) -> Vec<Diag> {
        lint_unit(&check(src))
    }

    fn check(src: &str) -> sema::Checked {
        sema::check(parse(lex(src).unwrap()).unwrap()).unwrap()
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
        assert_eq!(
            errs[0].witness.as_deref(),
            Some("hart t=0 (line 2) and hart t=1 (line 3) both write `g`")
        );
    }

    /// Two sections over `int v[4]; int w[4];`, in the given order.
    fn sections(first: &str, second: &str) -> Vec<Diag> {
        lint_src(&format!(
            "int v[4]; int w[4];
void main(void) {{
#pragma omp parallel sections
    {{
#pragma omp section
        {{ {first} }}
#pragma omp section
        {{ {second} }}
    }}
}}"
        ))
    }

    /// One error, with its code, line and witness.
    fn only_error(diags: &[Diag]) -> (DiagCode, usize, &str) {
        let errs = errors(diags);
        assert_eq!(errs.len(), 1, "{diags:?}");
        (
            errs[0].code,
            errs[0].line,
            errs[0].witness.as_deref().unwrap(),
        )
    }

    #[test]
    fn a_section_reading_what_a_later_section_writes_races() {
        let diags = sections("w[0] = v[0];", "v[0] = 1;");
        assert_eq!(
            only_error(&diags),
            (
                DiagCode::SLoopCarried,
                8,
                "hart t=1 writes `v[0]` (line 8) while hart t=0 reads it (line 6)"
            )
        );
    }

    #[test]
    fn a_section_reading_what_an_earlier_section_writes_races() {
        let diags = sections("v[0] = 1;", "w[0] = v[0];");
        assert_eq!(
            only_error(&diags),
            (
                DiagCode::SLoopCarried,
                6,
                "hart t=0 writes `v[0]` (line 6) while hart t=1 reads it (line 8)"
            )
        );
    }

    #[test]
    fn sections_writing_one_element_race() {
        let diags = sections("v[2] = 1;", "v[1 + 1] = 2;");
        assert_eq!(
            only_error(&diags),
            (
                DiagCode::SOverlappingWrite,
                6,
                "hart t=0 (line 6) and hart t=1 (line 8) both write `v[2]`"
            )
        );
    }

    #[test]
    fn an_exhausted_solver_budget_warns_and_accepts() {
        let src = "int v[8];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) v[0] = t;
}";
        let checked = check(src);
        let diags = lint_within(&checked, 0);
        assert!(errors(&diags).is_empty(), "{diags:?}");
        let warned: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .map(|d| (d.code, d.line))
            .collect();
        assert_eq!(warned, [(DiagCode::SUnprovable, 4)]);
        assert!(lbp_verify::accepted(&diags));
        // With the budget the lint runs under, the same program is a race.
        assert!(!lbp_verify::accepted(&lint_unit(&checked)));
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
