//! Code generation: checked AST → PISC assembly.
//!
//! ## Conventions
//!
//! - Scalar locals and parameters live in registers `s4`-`s11` (so the
//!   Deterministic OpenMP team loop, which uses `s0`-`s3`, never collides
//!   with them); expression scratch is `t2`-`t6`, `a6`, `a7`.
//! - `t0`/`t1` are never touched: they carry the X_PAR identity words.
//! - Every function gets a fixed 96-byte frame: `ra` at 0, `t0`-save at 4
//!   (main only), `s4`-`s11` saves at 8..40, spill slots at 40..92.
//! - LBP has no load/store queue, so the generator tracks *pending
//!   stores* per alias class (global symbol / unknown / compiler stack)
//!   and inserts `p_syncm` before a load that might observe one. Every
//!   epilogue starts with `p_syncm`, which both protects the register
//!   restores and gives calls barrier semantics.
//! - `#pragma omp parallel for` bodies are extracted into member
//!   functions ending in `p_ret` and lowered through
//!   [`lbp_omp::emit_parallel_region`] — the paper's Fig. 2 translation.

use lbp_asm::{Asm, Mark, Section};
use lbp_isa::{BranchKind, Instr, OpImmKind, OpKind, Reg};
use lbp_omp::{emit_parallel_region, TeamBody};

use crate::ast::*;
use crate::sema::Checked;
use crate::{CcError, CodegenSabotage};

/// Expression scratch registers (order = allocation preference).
const SCRATCH: [Reg; 7] = [
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::A6,
    Reg::A7,
];
/// Register-local pool.
const LOCALS: [Reg; 8] = [
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
    Reg::S8,
    Reg::S9,
    Reg::S10,
    Reg::S11,
];

/// Frame layout.
const FRAME: i32 = 96;
const OFF_RA: i32 = 0;
const OFF_T0: i32 = 4;
const OFF_SREG: i32 = 8; // 8 words
const OFF_SPILL: i32 = 40; // 13 words

/// Instruction words a conditional branch can skip forward or reach
/// back: its reach is 4,094 bytes ahead and 4,096 behind, counted from
/// the branch itself.
const BRANCH_REACH: usize = 1022;

/// Generates the complete program, optionally injecting a deliberate
/// miscompilation (see [`CodegenSabotage`]) — the hook behind
/// `lbp-cc --sabotage codegen:*` that red-tests the `semantics`
/// differential oracle.
///
/// # Errors
///
/// Returns an error for constructs the generator cannot express
/// (expressions deeper than the scratch pool, unsupported builtins).
pub fn generate_with(cx: &Checked, sabotage: Option<CodegenSabotage>) -> Result<Asm, CcError> {
    let mut g = Gen {
        cx,
        asm: Asm::new(),
        label_n: 0,
        team_fns: Vec::new(),
        section_tables: Vec::new(),
        sabotage,
    };
    g.asm
        .comment("Compiled by lbp-cc (Deterministic OpenMP translator)");
    // main first (the boot hart starts at `main`).
    let main = cx
        .unit
        .functions
        .iter()
        .find(|f| f.name == "main")
        .expect("sema guarantees main");
    g.function(main, FnKind::Main)?;
    for f in &cx.unit.functions {
        if f.name != "main" {
            g.function(f, FnKind::Normal)?;
        }
    }
    // Extracted parallel-region member functions.
    while let Some((f, kind)) = g.team_fns.pop() {
        g.function(&f, kind)?;
    }
    // Data section.
    g.asm.blank();
    g.asm.section(Section::Data);
    for global in &cx.unit.globals {
        g.asm.align(4);
        g.asm.label(&global.name);
        match &global.fill {
            Some(Init::Uniform(v)) if *v != 0 => {
                for _ in 0..global.elems {
                    g.asm.word(*v);
                }
            }
            Some(Init::List(values)) => {
                // The parser refuses a list longer than the array.
                for v in values {
                    g.asm.word(*v);
                }
                let rest = global.elems as usize - values.len();
                if rest > 0 {
                    g.asm.space((rest * 4) as i64);
                }
            }
            _ => {
                g.asm.space(i64::from(global.elems) * 4);
            }
        }
    }
    for (name, fns) in &g.section_tables {
        g.asm.align(4);
        g.asm.label(name);
        for f in fns {
            g.asm.word_label(f);
        }
    }
    Ok(g.asm)
}

/// What kind of epilogue a function needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FnKind {
    /// The program entry: Deterministic OpenMP prologue, exits by `p_ret`.
    Main,
    /// Ordinary function: returns with `ret`.
    Normal,
    /// Parallel-region member: returns with `p_ret`.
    TeamMember,
}

/// Pending (possibly still in-flight) stores, by alias class. A function
/// touches a handful of symbols, so the set is a list.
#[derive(Debug, Clone, Default)]
struct Pending {
    unknown: bool,
    syms: Vec<String>,
}

impl Pending {
    fn clear(&mut self) {
        self.unknown = false;
        self.syms.clear();
    }

    fn any(&self) -> bool {
        self.unknown || !self.syms.is_empty()
    }

    fn has(&self, sym: &str) -> bool {
        self.syms.iter().any(|s| s == sym)
    }

    fn insert(&mut self, sym: &str) {
        if !self.has(sym) {
            self.syms.push(sym.to_owned());
        }
    }

    fn add(&mut self, class: &Alias) {
        match class {
            Alias::Global(s) => self.insert(s),
            Alias::Unknown => self.unknown = true,
        }
    }

    fn union(&mut self, other: &Pending) {
        self.unknown |= other.unknown;
        for s in &other.syms {
            self.insert(s);
        }
    }

    fn conflicts(&self, load: &Alias) -> bool {
        match load {
            Alias::Global(s) => self.unknown || self.has(s),
            Alias::Unknown => self.any(),
        }
    }
}

/// The alias class of one memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Alias {
    Global(String),
    Unknown,
}

/// A computed value: a constant or a register (owned scratch or a
/// read-only local).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    Imm(i64),
    Reg {
        reg: Reg,
        owned: bool,
    },
    /// A local register, referred by pool index (read-only).
    Local(usize),
}

/// How control leaves a statement whose condition is false.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// `b<kind> rs1, rs2` is taken when the condition is false.
    Branch(BranchKind, Reg, Reg),
    /// The condition is false when the register is zero.
    Zero(Reg),
    /// A constant false condition.
    Always,
    /// A constant true condition.
    Never,
}

struct Gen<'a> {
    cx: &'a Checked,
    asm: Asm,
    label_n: usize,
    team_fns: Vec<(Function, FnKind)>,
    section_tables: Vec<(String, Vec<String>)>,
    /// A deliberate miscompilation under test, if any.
    sabotage: Option<CodegenSabotage>,
}

impl Gen<'_> {
    fn fresh(&mut self, tag: &str) -> String {
        self.label_n += 1;
        format!("_cc_{tag}_{}", self.label_n)
    }

    fn function(&mut self, f: &Function, kind: FnKind) -> Result<(), CcError> {
        // Local arrays sit above the fixed header in the frame.
        let mut arrays = Vec::new();
        let mut frame = FRAME;
        for (name, elems) in collect_local_arrays(f) {
            arrays.push((name, frame));
            frame += (elems * 4) as i32;
        }
        frame = (frame + 7) & !7;
        let mut fx = FnGen {
            locals: collect_locals(f),
            arrays,
            frame,
            free_scratch: (0..SCRATCH.len()).rev().collect(),
            pending: Pending::default(),
            epilogue: String::new(),
            loop_labels: Vec::new(),
            pointers: Vec::new(),
            dead: Vec::new(),
            body: &f.body,
        };
        fx.epilogue = self.fresh(&format!("{}_end", f.name));
        self.asm.blank();
        self.asm.label(&f.name);
        // Prologue (a frame beyond the addi range uses li/add).
        if fx.frame <= 2048 {
            self.asm.op_imm(OpImmKind::Add, Reg::SP, Reg::SP, -fx.frame);
        } else {
            self.asm.li(Reg::T6, fx.frame.into());
            self.asm.op(OpKind::Sub, Reg::SP, Reg::SP, Reg::T6);
        }
        self.asm.sw(Reg::RA, OFF_RA, Reg::SP);
        if kind == FnKind::Main {
            self.asm.li(Reg::T0, -1);
            self.asm.sw(Reg::T0, OFF_T0, Reg::SP);
            self.asm.instr(Instr::PSet {
                rd: Reg::T0,
                rs1: Reg::T0,
            });
        }
        for (i, &reg) in LOCALS.iter().enumerate().take(fx.locals.len()) {
            self.asm.sw(reg, OFF_SREG + 4 * i as i32, Reg::SP);
        }
        // Parameters arrive in a0.. and move into their local registers.
        for (i, _p) in f.params.iter().enumerate() {
            self.asm.mv(LOCALS[i], arg_reg(i));
        }
        // Body.
        self.block(&f.body, &mut fx)?;
        // Epilogue.
        self.asm.label(&fx.epilogue);
        self.asm.instr(Instr::PSyncm);
        self.asm.lw(Reg::RA, OFF_RA, Reg::SP);
        if kind == FnKind::Main {
            self.asm.lw(Reg::T0, OFF_T0, Reg::SP);
        }
        for (i, &reg) in LOCALS.iter().enumerate().take(fx.locals.len()) {
            self.asm.lw(reg, OFF_SREG + 4 * i as i32, Reg::SP);
        }
        // The register restores are loads from the frame this function's
        // own stores filled; a second p_syncm lets them land before the
        // control transfer reads `ra`/`t0`.
        self.asm.instr(Instr::PSyncm);
        if fx.frame <= 2047 {
            self.asm.op_imm(OpImmKind::Add, Reg::SP, Reg::SP, fx.frame);
        } else {
            self.asm.li(Reg::T6, fx.frame.into());
            self.asm.op(OpKind::Add, Reg::SP, Reg::SP, Reg::T6);
        }
        match kind {
            FnKind::Main | FnKind::TeamMember => self.asm.p_ret(),
            FnKind::Normal => self.asm.ret(),
        };
        Ok(())
    }

    fn block(&mut self, stmts: &[Stmt], fx: &mut FnGen) -> Result<(), CcError> {
        for s in stmts {
            self.stmt(s, fx)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt, fx: &mut FnGen) -> Result<(), CcError> {
        match s {
            Stmt::DeclArray { .. } => Ok(()),
            Stmt::Decl { name, init, line } => {
                let idx = fx.local(name).expect("sema declares every local");
                if let Some(e) = init {
                    let v = self.expr_into(e, Some(LOCALS[idx]), fx, *line)?;
                    self.move_into(LOCALS[idx], v, fx);
                }
                Ok(())
            }
            Stmt::Assign { lhs, rhs, line } => {
                let into = match lhs {
                    Place::Var(name) => fx.local(name).map(|idx| LOCALS[idx]),
                    _ => None,
                };
                let v = self.expr_into(rhs, into, fx, *line)?;
                self.store_place(lhs, v, fx, *line)
            }
            Stmt::Expr(e, line) => {
                let v = self.expr(e, fx, *line)?;
                fx.release(v);
                Ok(())
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                let else_l = self.fresh("else");
                let end_l = self.fresh("endif");
                let exit = self.exit_when_false(cond, fx)?;
                let entry_pending = fx.pending.clone();
                self.skip_unless(exit, &else_l, fx, |g, fx| {
                    g.block(then, fx)?;
                    if !els.is_empty() {
                        g.asm.j(&end_l);
                    }
                    Ok(())
                })?;
                let then_pending = fx.pending.clone();
                self.asm.label(&else_l);
                if els.is_empty() {
                    // The skip path carries what was pending at entry.
                    fx.pending.union(&entry_pending);
                } else {
                    fx.pending = entry_pending;
                    self.block(els, fx)?;
                    fx.pending.union(&then_pending);
                    self.asm.label(&end_l);
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let head = self.fresh("while");
                let end = self.fresh("wend");
                // Any iteration may observe the previous iteration's
                // stores.
                let stores = stores_of(body, self.cx);
                fx.pending.union(&stores);
                self.asm.label(&head);
                let exit = self.exit_when_false(cond, fx)?;
                // The exit taken at the test carries what is pending there.
                let exit_pending = fx.pending.clone();
                self.skip_unless(exit, &end, fx, |g, fx| {
                    fx.loop_labels.push((head.clone(), end.clone()));
                    g.block(body, fx)?;
                    fx.loop_labels.pop();
                    g.asm.j(&head);
                    Ok(())
                })?;
                self.asm.label(&end);
                fx.pending.union(&stores);
                fx.pending.union(&exit_pending);
                Ok(())
            }
            Stmt::For { line, .. } => {
                let lp = Loop::of(s).expect("a `for`");
                self.lower_for(lp, fx, *line)
            }
            Stmt::Break(_) => {
                let (_, brk) = fx
                    .loop_labels
                    .last()
                    .expect("sema rejects break outside loops");
                self.asm.j(brk);
                Ok(())
            }
            Stmt::Continue(_) => {
                let (cont, _) = fx
                    .loop_labels
                    .last()
                    .expect("sema rejects continue outside loops");
                self.asm.j(cont);
                Ok(())
            }
            Stmt::Return(value, line) => {
                if let Some(e) = value {
                    let v = self.expr(e, fx, *line)?;
                    self.move_into(Reg::A0, v, fx);
                }
                self.asm.j(&fx.epilogue);
                Ok(())
            }
            Stmt::ParallelFor {
                var,
                count,
                body,
                line,
            } => self.lower_parallel_for(var, *count, body, fx, *line),
            Stmt::ParallelSections { sections, line } => {
                self.lower_parallel_sections(sections, fx, *line)
            }
        }
    }

    fn lower_parallel_for(
        &mut self,
        var: &str,
        count: i64,
        body: &[Stmt],
        fx: &mut FnGen,
        line: usize,
    ) -> Result<(), CcError> {
        let fn_name = self.fresh("omp_fn");
        let mut member_body = body.to_vec();
        if self.sabotage == Some(CodegenSabotage::IndexShift) {
            // Each member computes with index `t + 1`: the static chunk
            // assignment every member receives is shifted by one.
            member_body.insert(
                0,
                Stmt::Assign {
                    lhs: Place::Var(var.to_owned()),
                    rhs: Expr::Binary(
                        BinOp::Add,
                        Box::new(Expr::Var(var.to_owned())),
                        Box::new(Expr::Int(1)),
                    ),
                    line,
                },
            );
        }
        self.team_fns.push((
            Function {
                name: fn_name.clone(),
                params: vec![var.to_owned()],
                returns_value: false,
                body: member_body,
                line,
            },
            FnKind::TeamMember,
        ));
        let mut emit_count = count as usize;
        if self.sabotage == Some(CodegenSabotage::ChunkBounds) && emit_count > 1 {
            // Off-by-one static chunk bounds: the last member is never
            // spawned, so its chunk of the iteration space never runs.
            emit_count -= 1;
        }
        // The region's built-in p_syncm (before each p_jalr) drains
        // main's pending stores before any member runs.
        emit_parallel_region(
            &mut self.asm,
            emit_count,
            &TeamBody::Uniform { function: fn_name },
            None,
        );
        // Members' epilogues drained their stores before the join, but
        // main cannot know which symbols they wrote.
        fx.pending.clear();
        fx.pending.unknown = true;
        Ok(())
    }

    fn lower_parallel_sections(
        &mut self,
        sections: &[Vec<Stmt>],
        fx: &mut FnGen,
        line: usize,
    ) -> Result<(), CcError> {
        let table = self.fresh("omp_sections");
        let mut fns = Vec::new();
        for body in sections {
            let fn_name = self.fresh("omp_sec");
            self.team_fns.push((
                Function {
                    name: fn_name.clone(),
                    params: Vec::new(),
                    returns_value: false,
                    body: body.to_vec(),
                    line,
                },
                FnKind::TeamMember,
            ));
            fns.push(fn_name);
        }
        let mut count = fns.len();
        self.section_tables.push((table.clone(), fns));
        if self.sabotage == Some(CodegenSabotage::ChunkBounds) && count > 1 {
            // Same off-by-one as parallel-for: the last section never runs.
            count -= 1;
        }
        emit_parallel_region(&mut self.asm, count, &TeamBody::Sections { table }, None);
        fx.pending.clear();
        fx.pending.unknown = true;
        Ok(())
    }

    // ----- counted loops -----

    /// A `for` loop. When its init decides the entry test, the test sits
    /// at the bottom only (rule R). A counted loop walks its global arrays
    /// and its inner loops' entry addresses with pointer registers (rules
    /// S and S⁺, [`Gen::reduce_addresses`]), and tests an end pointer when
    /// its trip count is decided (rule E, [`Gen::end_rule`]) or else holds
    /// a constant bound in a register (rule B).
    fn lower_for(&mut self, lp: Loop, fx: &mut FnGen, line: usize) -> Result<(), CcError> {
        let Some(c) = counted(lp, fx) else {
            if let Some(i) = lp.init {
                self.stmt(i, fx)?;
            }
            return self.emit_for(lp, Plan::default(), fx, line);
        };
        // The loop is written in its shortest shape; when its expressions
        // find the scratch pool dry, or read the counter rule E dropped,
        // it is taken back and written again without E, then without B,
        // then with one pointer fewer, down to none.
        let (end, bound) = (self.end_rule(&c, fx), lp.cond.and_then(|t| bound(t, fx)));
        let mut plan = Plan { own: 0, end, bound };
        let mut most = usize::MAX;
        loop {
            let mut taken = 0;
            let (run, _) = self.trial(fx, Result::is_ok, |g, fx| {
                // Rule E leaves out the constant the init gives `v`.
                let dead = plan.end.map(|_| c.v);
                for s in lp.init.map_or(&[][..], parts) {
                    if !assignment(s).is_some_and(|(n, e)| Some(n) == dead && konst(e).is_some()) {
                        g.stmt(s, fx)?;
                    }
                }
                taken = g.reduce_addresses(&c, most, fx, line)?;
                g.emit_for(lp, Plan { own: taken, ..plan }, fx, line)
            });
            match run {
                Err(_) if plan.end.is_some() => plan.end = None,
                Err(_) if plan.bound.is_some() => plan.bound = None,
                Err(_) if taken > 0 => most = taken - 1,
                run => return run,
            }
        }
    }

    /// Rule E's decision, made before any code: the trip count n is
    /// decided ([`trips`]), no `break` leaves the loop, its init does not
    /// read the counter `v`, and its body reads `v` only in the indices of
    /// global-array accesses affine in it, which pointers replace.
    fn end_rule(&self, c: &Counted, fx: &FnGen) -> Option<End> {
        let (v, body) = (c.v, c.lp.body);
        let v0 = init_value(c.lp.init, v)?;
        let trips = trips(c.lp.cond?, v, v0, c.delta)?;
        let walked = |idx| affine(idx, v, &|_| true).is_some_and(|(a, _)| a != 0);
        let in_sites: usize = (c.sites.iter())
            .filter(|&&(name, idx)| self.global_array(name, fx) && walked(idx))
            .map(|&(_, idx)| reads(idx, v))
            .sum();
        let (in_body, in_init) = (
            stmt_reads(body, v),
            stmt_reads(c.lp.init.map_or(&[], parts), v),
        );
        if in_sites == 0 || in_sites != in_body || in_init > 0 || breaks(body) {
            return None;
        }
        let local = fx.local(v)?;
        // The test and the step read `v` once each.
        let live = stmt_reads(fx.body, v) > in_body + 2;
        let last = live.then_some(v0 + trips * c.delta);
        Some(End { local, trips, last })
    }

    /// The loop [`Gen::lower_for`] describes, past its init, walking the
    /// arrays of its `plan.own` pointers, the last of `fx.pointers`;
    /// hands their registers back at the end.
    fn emit_for(
        &mut self,
        lp: Loop,
        plan: Plan,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<(), CcError> {
        let head = self.fresh("for");
        let end = self.fresh("fend");
        let step_l = self.fresh("fstep");
        let mut loop_stores = stores_of(lp.body, self.cx);
        if let Some(st) = lp.step {
            loop_stores.union(&stores_of(std::slice::from_ref(st), self.cx));
        }
        let labels = (step_l.as_str(), end.as_str());
        // Any iteration may observe the previous iteration's stores.
        fx.pending.union(&loop_stores);
        // Rule E tests a pointer against its end and drops the step; rule
        // B sets the bound once, before the head (0 is `zero`).
        let mut held = None;
        let test = match (plan.end, plan.bound) {
            (Some(e), _) => {
                // The end of the first pointer that moves, `p₀ + n·by`, in
                // the counter's register; past `addi`'s reach it would
                // cost words, and is refused.
                let short = self.sabotage == Some(CodegenSabotage::EndPointer) && e.trips > 1;
                let trips = e.trips - i64::from(short);
                let (p, off) = (fx.pointers[fx.pointers.len() - plan.own..].iter())
                    .find(|&&(.., by)| by != 0 && e.trips.saturating_mul(by.abs()) < 1 << 32)
                    .map(|&(.., p, by)| (p, wrap(trips * by)))
                    .filter(|&(_, off)| imm_fits(BinOp::Add, off))
                    .ok_or_else(|| CcError::new(line, "no pointer ends the loop"))?;
                let end = LOCALS[e.local];
                self.asm.op_imm(OpImmKind::Add, end, p, off as i32);
                fx.dead.push(e.local);
                Some(Exit::Branch(BranchKind::Eq, p, end))
            }
            (None, Some((kind, x, n, swap))) => {
                let mut reg = Reg::ZERO;
                if n != 0 {
                    reg = fx
                        .reserve_last()
                        .ok_or_else(|| CcError::new(line, "no bound register"))?;
                    self.asm.li(reg, n);
                    held = Some(reg);
                }
                let (rs1, rs2) = if swap { (reg, x) } else { (x, reg) };
                Some(Exit::Branch(kind, rs1, rs2))
            }
            (None, None) => None,
        };
        let step = lp.step.filter(|_| plan.end.is_none());
        let decided = lp.cond.filter(|c| enters(lp.init, c, fx));
        if plan.end.is_some() || decided.is_some() {
            // The body runs at least once, so the loop tests at the
            // bottom only: exact, since the skipped test is true.
            let entry = fx.pending.clone();
            self.asm.label(&head);
            let at = self.asm.mark();
            self.loop_body(lp.body, step, labels, plan.own, fx, line)?;
            let exit = match test {
                Some(test) => test,
                None => self.exit_when_false(decided.expect("a decided test"), fx)?,
            };
            self.branch_back(exit, &head, at);
            self.asm.label(&end);
            // A `break` carries at most what was pending at the top.
            fx.pending.union(&entry);
        } else {
            self.asm.label(&head);
            let exit = match (test, lp.cond) {
                (Some(test), _) => test,
                (None, Some(c)) => self.exit_when_false(c, fx)?,
                (None, None) => Exit::Never,
            };
            // The exit taken at the test carries what is pending there.
            let exit_pending = fx.pending.clone();
            self.skip_unless(exit, &end, fx, |g, fx| {
                g.loop_body(lp.body, step, labels, plan.own, fx, line)?;
                g.asm.j(&head);
                Ok(())
            })?;
            self.asm.label(&end);
            fx.pending.union(&loop_stores);
            fx.pending.union(&exit_pending);
        }
        if let Some(e) = plan.end {
            fx.dead.pop();
            if let Some(last) = e.last {
                self.asm.li(LOCALS[e.local], last);
            }
        }
        if let Some(reg) = held {
            fx.unreserve(reg);
        }
        let own = fx.pointers.split_off(fx.pointers.len() - plan.own);
        for (.., reg, _) in own.into_iter().rev() {
            fx.unreserve(reg);
        }
        Ok(())
    }

    /// A loop's body, its `continue` label, its step and the advances of
    /// its `own` pointers.
    fn loop_body(
        &mut self,
        body: &[Stmt],
        step: Option<&Stmt>,
        (cont, brk): (&str, &str),
        own: usize,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<(), CcError> {
        fx.loop_labels.push((cont.to_owned(), brk.to_owned()));
        self.block(body, fx)?;
        fx.loop_labels.pop();
        self.asm.label(cont);
        if let Some(st) = step {
            self.stmt(st, fx)?;
        }
        let mine = &fx.pointers[fx.pointers.len() - own..];
        let bumps: Vec<_> = mine.iter().map(|&(.., reg, by)| (reg, by)).collect();
        for (reg, by) in bumps {
            self.add_imm(reg, by, fx, line)?;
        }
        Ok(())
    }

    /// Branches back to `target`, placed at `at`, while the condition
    /// holds; past a branch's reach, the inverse branch around a `j`.
    fn branch_back(&mut self, exit: Exit, target: &str, at: Mark) {
        let (kind, rs1, rs2) = match exit {
            Exit::Branch(kind, rs1, rs2) => (kind, rs1, rs2),
            Exit::Zero(rs) => (BranchKind::Eq, rs, Reg::ZERO),
            Exit::Always => return,
            Exit::Never => {
                self.asm.j(target);
                return;
            }
        };
        if self.asm.words_since(at) <= BRANCH_REACH {
            branch(&mut self.asm, negated(kind), rs1, rs2, target);
        } else {
            let over = self.fresh("far");
            branch(&mut self.asm, kind, rs1, rs2, &over);
            self.asm.j(target).label(&over);
        }
    }

    /// Rules S and S⁺. (S) In a counted loop whose step is `v = v ± c`, a
    /// global-array access `A[a·v + r]`, with `r` built from constants
    /// and registers the loop never writes, reads through a pointer
    /// register: set here to the entry address, advanced by `4·a·c` at
    /// the step. Exact, since `4·(a·(v ± c) + r) = 4·(a·v + r) ± 4·a·c`
    /// mod 2^32 on both forms. Equal indices share a pointer. (S⁺) An
    /// inner counted loop's pointer entry `&A + b·v + s`, with `s` over
    /// constants and registers this loop never writes, is a register of
    /// this loop, advanced by `b·c` at the step (never, for `b = 0`),
    /// which the inner loop copies. At most `most` are taken, each only
    /// while its set-up and advance take no more words than the address
    /// computations it replaces. The accesses find theirs in
    /// `fx.pointers`; returns how many.
    fn reduce_addresses(
        &mut self,
        c: &Counted,
        most: usize,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<usize, CcError> {
        let mut walks = self.walks(c, fx);
        let inner: Vec<Walk> = (c.inner.iter())
            .filter_map(|&lp| counted(lp, fx))
            .flat_map(|m| self.walks(&m, fx))
            .collect();
        for w in inner {
            let Some((b, s)) = affine(&w.off, c.v, &|n| c.fixed(n, fx)) else {
                continue;
            };
            if !walks.iter().any(|x| x.name == w.name && x.key == w.off) {
                let (off, by) = (add(scale(c.entry(), b), s), wrap(b * c.delta));
                walks.push(Walk {
                    idx: None,
                    key: w.off,
                    off,
                    by,
                    ..w
                });
            }
        }
        let mut taken = 0;
        for w in walks {
            if taken == most {
                break;
            }
            let Some(reg) = fx.reserve_last() else { break };
            // The accesses' address computations, or the inner loop's
            // computation of its entry, as written were no counter dropped.
            let dead = std::mem::take(&mut fx.dead);
            let replaced = self.trial(
                fx,
                |_| false,
                |g, fx| match w.idx {
                    Some(idx) => {
                        let (addr, _) = g.element_addr(w.name, idx, fx, line)?;
                        fx.release(addr);
                        Ok(w.uses)
                    }
                    None => g.point(reg, w.name, &w.key, fx, line).map(|()| 1),
                },
            );
            fx.dead = dead;
            let set = self.trial(
                fx,
                |_| false,
                |g, fx| g.point(reg, w.name, &w.off, fx, line),
            );
            // `addi`, or `li` (`lui` and `addi`) and `add` past its range.
            let bump = match w.by {
                0 => 0,
                by if imm_fits(BinOp::Add, by) => 1,
                _ => 3,
            };
            match (replaced, set) {
                ((Ok(uses), site), (Ok(()), set)) if set + bump <= uses * site => {
                    self.point(reg, w.name, &w.off, fx, line)?;
                    fx.pointers.push((w.name.to_owned(), w.key, reg, w.by));
                    taken += 1;
                }
                _ => fx.unreserve(reg),
            }
        }
        Ok(taken)
    }

    /// The pointers rule S may give a counted loop, in walk order: each
    /// global-array access `A[a·v + r]` with `a ≠ 0` and `r` over
    /// constants and registers the loop never writes.
    fn walks<'s>(&self, c: &Counted<'s>, fx: &FnGen) -> Vec<Walk<'s>> {
        let mut out: Vec<Walk> = Vec::new();
        for &(name, idx) in &c.sites {
            if let Some(w) = out
                .iter_mut()
                .find(|w| w.name == name && w.idx == Some(idx))
            {
                w.uses += 1;
                continue;
            }
            let Some((a, r)) = affine(idx, c.v, &|n| c.fixed(n, fx)) else {
                continue;
            };
            if a != 0 && self.global_array(name, fx) {
                out.push(Walk {
                    name,
                    idx: Some(idx),
                    key: scale(idx.clone(), 4),
                    off: scale(add(scale(c.entry(), a), r), 4),
                    by: wrap(4 * wrap(a * c.delta)),
                    uses: 1,
                });
            }
        }
        out
    }

    /// Whether `name` is a global array, which rule S may walk.
    fn global_array(&self, name: &str, fx: &FnGen) -> bool {
        self.cx.globals.contains_key(name) && fx.array(name).is_none() && fx.local(name).is_none()
    }

    /// Sets `reg` to the address of `name` plus the byte offset `off`: a
    /// copy of an enclosing loop's pointer that holds it (rule S⁺), or
    /// `la` with a constant offset folded in.
    fn point(
        &mut self,
        reg: Reg,
        name: &str,
        off: &Expr,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<(), CcError> {
        if let Some(held) = fx.held(name, off) {
            self.asm.mv(reg, held);
            return Ok(());
        }
        match self.expr(off, fx, line)? {
            Val::Imm(o) if imm_fits(BinOp::Add, o) => {
                self.asm.la_offset(reg, name, o);
                Ok(())
            }
            Val::Imm(o) => {
                self.asm.la(reg, name);
                self.add_imm(reg, o, fx, line)
            }
            o => {
                let base = fx.alloc(line)?;
                self.asm.la(base, name);
                self.asm.op(OpKind::Add, reg, reg_of(o), base);
                fx.free_scratch_reg(base);
                fx.release(o);
                Ok(())
            }
        }
    }

    /// `reg += by` mod 2^32: one `addi`, or `li` and `add` past its range.
    fn add_imm(&mut self, reg: Reg, by: i64, fx: &mut FnGen, line: usize) -> Result<(), CcError> {
        if by == 0 {
            return Ok(());
        }
        if imm_fits(BinOp::Add, by) {
            self.asm.op_imm(OpImmKind::Add, reg, reg, by as i32);
        } else {
            let t = fx.alloc(line)?;
            self.asm.li(t, by).op(OpKind::Add, reg, reg, t);
            fx.free_scratch_reg(t);
        }
        Ok(())
    }

    /// Runs `f` and counts the words it writes; unless `keep` accepts
    /// its outcome, takes back its code, labels, registers, pending
    /// stores, loop labels, pointers and dropped counters, as if it had
    /// never run. `f` must not call or fork: what those add is not taken
    /// back.
    fn trial<T>(
        &mut self,
        fx: &mut FnGen,
        keep: impl FnOnce(&Result<T, CcError>) -> bool,
        f: impl FnOnce(&mut Self, &mut FnGen) -> Result<T, CcError>,
    ) -> (Result<T, CcError>, usize) {
        let at = self.asm.mark();
        let (labels, free, pending) = (self.label_n, fx.free_scratch.clone(), fx.pending.clone());
        let (loops, pointers, dead) = (fx.loop_labels.len(), fx.pointers.len(), fx.dead.len());
        let run = f(self, fx);
        let words = self.asm.words_since(at);
        if !keep(&run) {
            self.asm.truncate(at);
            self.label_n = labels;
            (fx.free_scratch, fx.pending) = (free, pending);
            fx.loop_labels.truncate(loops);
            fx.pointers.truncate(pointers);
            fx.dead.truncate(dead);
        }
        (run, words)
    }

    // ----- places and memory -----

    /// Stores `v` into a place.
    fn store_place(
        &mut self,
        place: &Place,
        v: Val,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<(), CcError> {
        match place {
            Place::Var(name) => {
                if let Some(idx) = fx.local(name) {
                    self.move_into(LOCALS[idx], v, fx);
                    return Ok(());
                }
                // Scalar global.
                let addr = fx.alloc(line)?;
                self.asm.la(addr, name);
                let vr = self.to_reg(v, fx, line)?;
                self.asm.sw(reg_of(vr), 0, addr);
                fx.release(vr);
                fx.free_scratch_reg(addr);
                fx.pending.add(&Alias::Global(name.clone()));
                Ok(())
            }
            Place::Index(name, idx_expr) => {
                let (addr, class) = match fx.pointer(name, idx_expr) {
                    Some(reg) => (Val::Reg { reg, owned: false }, Alias::Global(name.clone())),
                    None => self.element_addr(name, idx_expr, fx, line)?,
                };
                let vr = self.to_reg(v, fx, line)?;
                self.asm.sw(reg_of(vr), 0, reg_of(addr));
                fx.release(vr);
                fx.release(addr);
                fx.pending.add(&class);
                Ok(())
            }
            Place::Deref(ptr) => {
                let p = self.expr(ptr, fx, line)?;
                let pr = self.to_reg(p, fx, line)?;
                let vr = self.to_reg(v, fx, line)?;
                self.asm.sw(reg_of(vr), 0, reg_of(pr));
                fx.release(vr);
                fx.release(pr);
                fx.pending.add(&Alias::Unknown);
                Ok(())
            }
        }
    }

    /// Computes the address of `name[idx]`, returning its alias class.
    fn element_addr(
        &mut self,
        name: &str,
        idx: &Expr,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<(Val, Alias), CcError> {
        let off = self.binary(BinOp::Mul, idx, &Expr::Int(4), None, fx, line)?;
        if let Some(base_off) = fx.array(name) {
            // A stack-local array: sp + frame offset + scaled index.
            let dest = self.to_owned_reg(off, fx, line)?;
            let d = reg_of(dest);
            if base_off <= 2047 {
                self.asm.op_imm(OpImmKind::Add, d, d, base_off);
            } else {
                let t = fx.alloc(line)?;
                self.asm.li(t, base_off.into());
                self.asm.op(OpKind::Add, d, d, t);
                fx.free_scratch_reg(t);
            }
            self.asm.op(OpKind::Add, d, d, Reg::SP);
            return Ok((dest, Alias::Global(format!("%frame%{name}"))));
        }
        if let Some(idx_local) = fx.local(name) {
            // Pointer variable.
            let dest = self.to_owned_reg(off, fx, line)?;
            let d = reg_of(dest);
            self.asm.op(OpKind::Add, d, d, LOCALS[idx_local]);
            Ok((dest, Alias::Unknown))
        } else {
            // Global array (or scalar used as one-element array).
            let base = fx.alloc(line)?;
            self.asm.la(base, name);
            let dest = self.to_owned_reg(off, fx, line)?;
            let d = reg_of(dest);
            self.asm.op(OpKind::Add, d, d, base);
            fx.free_scratch_reg(base);
            Ok((dest, Alias::Global(name.to_owned())))
        }
    }

    /// Emits a load with the pending-store fence when needed.
    fn emit_load(&mut self, dest: Reg, addr: Reg, class: &Alias, fx: &mut FnGen) {
        if fx.pending.conflicts(class) {
            self.asm.instr(Instr::PSyncm);
            fx.pending.clear();
        }
        self.asm.lw(dest, 0, addr);
    }

    // ----- expressions -----

    fn expr(&mut self, e: &Expr, fx: &mut FnGen, line: usize) -> Result<Val, CcError> {
        match e {
            Expr::Int(v) => Ok(Val::Imm(*v)),
            Expr::Var(name) => {
                if let Some(base_off) = fx.array(name) {
                    // Array name decays to its frame address.
                    let r = fx.alloc(line)?;
                    self.asm.li(r, base_off.into());
                    self.asm.op(OpKind::Add, r, r, Reg::SP);
                    return Ok(owned(r));
                }
                if let Some(idx) = fx.local(name) {
                    if fx.dead.contains(&idx) {
                        return Err(CcError::new(line, "reads a counter rule E dropped"));
                    }
                    return Ok(Val::Local(idx));
                }
                let is_array = *self.cx.globals.get(name).unwrap_or(&false);
                let r = fx.alloc(line)?;
                // Array names decay to their address; a scalar is loaded.
                self.asm.la(r, name);
                if !is_array {
                    let class = Alias::Global(name.clone());
                    self.emit_load(r, r, &class, fx);
                }
                Ok(owned(r))
            }
            Expr::Index(name, idx) => {
                if let Some(p) = fx.pointer(name, idx) {
                    let r = fx.alloc(line)?;
                    self.emit_load(r, p, &Alias::Global(name.clone()), fx);
                    return Ok(owned(r));
                }
                let (addr, class) = self.element_addr(name, idx, fx, line)?;
                let ar = reg_of(addr);
                self.emit_load(ar, ar, &class, fx);
                Ok(addr)
            }
            Expr::Deref(ptr) => {
                let p = self.expr(ptr, fx, line)?;
                let pr = self.to_owned_reg(p, fx, line)?;
                let r = reg_of(pr);
                self.emit_load(r, r, &Alias::Unknown, fx);
                Ok(pr)
            }
            Expr::AddrOf(place) => match place.as_ref() {
                Place::Var(name) => {
                    let r = fx.alloc(line)?;
                    self.asm.la(r, name);
                    Ok(owned(r))
                }
                Place::Index(name, idx) => {
                    let (addr, _class) = self.element_addr(name, idx, fx, line)?;
                    Ok(addr)
                }
                Place::Deref(inner) => self.expr(inner, fx, line),
            },
            Expr::Unary(op, inner) => {
                let v = self.expr(inner, fx, line)?;
                if let Val::Imm(i) = v {
                    return Ok(Val::Imm(fold_unary(*op, i)));
                }
                let r = self.to_owned_reg(v, fx, line)?;
                let rn = reg_of(r);
                match op {
                    UnOp::Neg => self.asm.neg(rn, rn),
                    UnOp::Not => self.asm.seqz(rn, rn),
                    UnOp::BitNot => self.asm.not(rn, rn),
                };
                Ok(r)
            }
            Expr::Binary(op, a, b) => self.binary(*op, a, b, None, fx, line),
            Expr::Call(name, args) => self.call(name, args, fx, line),
        }
    }

    /// Computes `e` for an assignment to the local register `into`: a
    /// binary operation writes its result there with its last
    /// instruction, so `k = k + 1` is one `addi`. Every operand is read
    /// before that write (a two-instruction compare reads only `into`
    /// after it), so the local may be an operand too.
    fn expr_into(
        &mut self,
        e: &Expr,
        into: Option<Reg>,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<Val, CcError> {
        match e {
            Expr::Binary(op, a, b) => self.binary(*op, a, b, into, fx, line),
            _ => self.expr(e, fx, line),
        }
    }

    /// `a op b`, written to `into` if given (see [`Gen::expr_into`]), else
    /// to an owned operand or a fresh scratch register.
    fn binary(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        into: Option<Reg>,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<Val, CcError> {
        if matches!(op, BinOp::LAnd | BinOp::LOr) {
            return self.short_circuit(op, a, b, fx, line);
        }
        let va = self.expr(a, fx, line)?;
        let vb = self.expr(b, fx, line)?;
        if let (Val::Imm(x), Val::Imm(y)) = (va, vb) {
            let op = if op == BinOp::Sub && self.sabotage == Some(CodegenSabotage::ConstFold) {
                // Mis-fold constant subtraction as addition; the runtime
                // `sub` path is untouched, so only folded expressions
                // diverge from the spec interpreter.
                BinOp::Add
            } else {
                op
            };
            return Ok(Val::Imm(fold(op, x, y)));
        }
        // `x * 2^k` (or `2^k * x`) is `x << k`: RV32's wrapping product
        // keeps the low 32 bits of x * 2^k, which is what `slli` leaves,
        // for every x, negative x included.
        let (op, va, vb) = match (op, pow2_log(va), pow2_log(vb)) {
            (BinOp::Mul, _, Some(k)) => (BinOp::Shl, va, Val::Imm(k)),
            (BinOp::Mul, Some(k), None) => (BinOp::Shl, vb, Val::Imm(k)),
            _ => (op, va, vb),
        };
        // `x - c` is `x + (-c)` mod 2^32: one `addi` while -c fits.
        let (op, vb) = match (op, vb) {
            (BinOp::Sub, Val::Imm(y)) if imm_fits(BinOp::Add, y.wrapping_neg()) => {
                (BinOp::Add, Val::Imm(y.wrapping_neg()))
            }
            _ => (op, vb),
        };
        // Immediate forms for commutative/offset-friendly operations. Two
        // constants were folded above, so `va` is a register.
        if let (Val::Imm(y), Some(kind)) = (vb, imm_kind(op)) {
            if imm_fits(op, y) {
                let dest = fx.dest(into, &[va], line)?;
                self.asm.op_imm(kind, dest, reg_of(va), y as i32);
                return Ok(fx.result(dest, into, &[va]));
            }
        }
        let ra = self.to_reg(va, fx, line)?;
        let rb = self.to_reg(vb, fx, line)?;
        let dest = fx.dest(into, &[ra, rb], line)?;
        let (an, bn) = (reg_of(ra), reg_of(rb));
        let asm = &mut self.asm;
        match op {
            BinOp::Gt => asm.op(OpKind::Slt, dest, bn, an),
            BinOp::Le => asm
                .op(OpKind::Slt, dest, bn, an)
                .op_imm(OpImmKind::Xor, dest, dest, 1),
            BinOp::Ge => asm
                .op(OpKind::Slt, dest, an, bn)
                .op_imm(OpImmKind::Xor, dest, dest, 1),
            BinOp::Eq => asm.op(OpKind::Sub, dest, an, bn).seqz(dest, dest),
            BinOp::Ne => asm.op(OpKind::Sub, dest, an, bn).snez(dest, dest),
            _ => asm.op(reg_kind(op), dest, an, bn),
        };
        Ok(fx.result(dest, into, &[ra, rb]))
    }

    fn short_circuit(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        fx: &mut FnGen,
        line: usize,
    ) -> Result<Val, CcError> {
        let dest = fx.alloc(line)?;
        let end = self.fresh("sc");
        let va = self.expr(a, fx, line)?;
        let ra = self.to_reg(va, fx, line)?;
        self.asm.snez(dest, reg_of(ra));
        fx.release(ra);
        match op {
            BinOp::LAnd => self.asm.beqz(dest, &end),
            BinOp::LOr => self.asm.bnez(dest, &end),
            _ => unreachable!(),
        };
        let vb = self.expr(b, fx, line)?;
        let rb = self.to_reg(vb, fx, line)?;
        self.asm.snez(dest, reg_of(rb));
        fx.release(rb);
        self.asm.label(&end);
        Ok(owned(dest))
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        fx: &mut FnGen,
        line: usize,
    ) -> Result<Val, CcError> {
        if name == "omp_set_num_threads" {
            // Team sizes come from each region's trip count; the call is
            // accepted for source compatibility and has no effect.
            let v = self.expr(&args[0], fx, line)?;
            fx.release(v);
            return Ok(Val::Imm(0));
        }
        if name == "__roi_start" || name == "__roi_end" {
            // A region-of-interest marker: not a call at all. It lowers
            // to a label the hybrid driver targets (`lbp-run --roi`),
            // anchored on a nop so the marker owns a concrete pc even at
            // a block boundary.
            self.asm.label(name);
            self.asm.nop();
            return Ok(Val::Imm(0));
        }
        let arg_slot = |i: usize| OFF_SPILL + 4 * (SCRATCH.len() + i) as i32;
        // Evaluate arguments into spill slots (robust against nested
        // calls), then save live scratch, reload the arguments and call.
        for (i, arg) in args.iter().enumerate() {
            let v = self.expr(arg, fx, line)?;
            let r = self.to_reg(v, fx, line)?;
            self.asm.sw(reg_of(r), arg_slot(i), Reg::SP);
            fx.release(r);
        }
        // Save the scratch registers still holding enclosing-expression
        // values.
        let live: Vec<usize> = (0..SCRATCH.len())
            .filter(|i| !fx.free_scratch.contains(i))
            .collect();
        for &i in &live {
            self.asm.sw(SCRATCH[i], OFF_SPILL + 4 * i as i32, Reg::SP);
        }
        // The spill stores must land before the argument reloads.
        self.asm.instr(Instr::PSyncm);
        fx.pending.clear();
        // The a-register values must be architecturally ready before the
        // callee reads them; the loads complete out of order but register
        // renaming orders them — no fence needed.
        for i in 0..args.len() {
            self.asm.lw(arg_reg(i), arg_slot(i), Reg::SP);
        }
        self.asm.jal(name);
        // The callee's epilogue p_syncm drained every store, including
        // our scratch saves.
        for &i in &live {
            self.asm.lw(SCRATCH[i], OFF_SPILL + 4 * i as i32, Reg::SP);
        }
        fx.pending.clear();
        let returns = self
            .cx
            .signatures
            .get(name)
            .map(|&(_, r)| r)
            .unwrap_or(false);
        if returns {
            let r = fx.alloc(line)?;
            self.asm.mv(r, Reg::A0);
            Ok(owned(r))
        } else {
            Ok(Val::Imm(0))
        }
    }

    /// Computes `cond` and returns how to leave when it is false, using
    /// native branch instructions for comparisons.
    fn exit_when_false(&mut self, cond: &Expr, fx: &mut FnGen) -> Result<Exit, CcError> {
        let line = 0;
        if let Expr::Binary(op, a, b) = cond {
            if let Some((kind, swap)) = inverse_branch(*op) {
                let va = self.expr(a, fx, line)?;
                let vb = self.expr(b, fx, line)?;
                let ra = self.to_reg(va, fx, line)?;
                let rb = self.to_reg(vb, fx, line)?;
                let (x, y) = if swap {
                    (reg_of(rb), reg_of(ra))
                } else {
                    (reg_of(ra), reg_of(rb))
                };
                fx.release(ra);
                fx.release(rb);
                return Ok(Exit::Branch(kind, x, y));
            }
        }
        Ok(match self.expr(cond, fx, line)? {
            Val::Imm(0) => Exit::Always,
            Val::Imm(_) => Exit::Never,
            v => {
                let r = self.to_reg(v, fx, line)?;
                fx.release(r);
                Exit::Zero(reg_of(r))
            }
        })
    }

    /// Emits the code `body` generates behind a jump to `target` taken
    /// when `exit` says so. A conditional branch reaches 1,022 words;
    /// past a longer body it becomes the inverse branch around a `j`.
    fn skip_unless(
        &mut self,
        exit: Exit,
        target: &str,
        fx: &mut FnGen,
        body: impl FnOnce(&mut Self, &mut FnGen) -> Result<(), CcError>,
    ) -> Result<(), CcError> {
        let (kind, rs1, rs2) = match exit {
            Exit::Branch(kind, rs1, rs2) => (kind, rs1, rs2),
            Exit::Zero(rs) => (BranchKind::Eq, rs, Reg::ZERO),
            Exit::Always | Exit::Never => {
                if let Exit::Always = exit {
                    self.asm.j(target);
                }
                return body(self, fx);
            }
        };
        let at = self.asm.mark();
        branch(&mut self.asm, kind, rs1, rs2, target);
        body(self, fx)?;
        if self.asm.words_since(at) - 1 > BRANCH_REACH {
            let over = self.fresh("far");
            let mut far = Asm::new();
            branch(&mut far, negated(kind), rs1, rs2, &over);
            far.j(target).label(&over);
            self.asm.replace_line(at, far);
        }
        Ok(())
    }

    // ----- value plumbing -----

    /// Materializes a value into some register (owned or local).
    #[allow(clippy::wrong_self_convention)] // emits code; `self` is the generator
    fn to_reg(&mut self, v: Val, fx: &mut FnGen, line: usize) -> Result<Val, CcError> {
        match v {
            Val::Imm(i) => {
                let r = fx.alloc(line)?;
                self.asm.li(r, i);
                Ok(owned(r))
            }
            other => Ok(other),
        }
    }

    /// Materializes a value into an *owned scratch* register that may be
    /// overwritten.
    #[allow(clippy::wrong_self_convention)] // emits code; `self` is the generator
    fn to_owned_reg(&mut self, v: Val, fx: &mut FnGen, line: usize) -> Result<Val, CcError> {
        match v {
            Val::Reg { owned: true, .. } => Ok(v),
            Val::Imm(i) => {
                let r = fx.alloc(line)?;
                self.asm.li(r, i);
                Ok(owned(r))
            }
            Val::Local(idx) => {
                let r = fx.alloc(line)?;
                self.asm.mv(r, LOCALS[idx]);
                Ok(owned(r))
            }
            Val::Reg { reg, owned: false } => {
                let r = fx.alloc(line)?;
                self.asm.mv(r, reg);
                Ok(owned(r))
            }
        }
    }

    /// Moves a value into a named register and releases it.
    fn move_into(&mut self, dest: Reg, v: Val, fx: &mut FnGen) {
        match v {
            Val::Imm(i) => {
                self.asm.li(dest, i);
            }
            Val::Local(idx) => {
                if LOCALS[idx] != dest {
                    self.asm.mv(dest, LOCALS[idx]);
                }
            }
            Val::Reg { reg, .. } => {
                if reg != dest {
                    self.asm.mv(dest, reg);
                }
                fx.release(v);
            }
        }
    }
}

/// Per-function emission state.
struct FnGen<'f> {
    /// Register locals by pool index: parameters, then declarations (at
    /// most eight, so a list).
    locals: Vec<String>,
    /// Local arrays and their byte offsets from sp.
    arrays: Vec<(String, i32)>,
    /// This function's frame size (the 96-byte header + array storage).
    frame: i32,
    free_scratch: Vec<usize>,
    pending: Pending,
    epilogue: String,
    /// `(continue_target, break_target)` labels of enclosing loops.
    loop_labels: Vec<(String, String)>,
    /// The enclosing counted loops' pointer registers, innermost last:
    /// the array, the byte offset from it the register holds in the
    /// loop's body, the register and what it advances by at the step.
    pointers: Vec<(String, Expr, Reg, i64)>,
    /// The counters of enclosing loops that rule E dropped, by pool index:
    /// their registers hold end pointers, so reading one is an error.
    dead: Vec<usize>,
    /// The function's body.
    body: &'f [Stmt],
}

impl FnGen<'_> {
    fn local(&self, name: &str) -> Option<usize> {
        self.locals.iter().position(|l| l == name)
    }

    fn array(&self, name: &str) -> Option<i32> {
        let mut found = self.arrays.iter().rev().filter(|(a, _)| a == name);
        found.next().map(|&(_, offset)| offset)
    }

    fn alloc(&mut self, line: usize) -> Result<Reg, CcError> {
        let i = self.free_scratch.pop().ok_or_else(|| {
            CcError::new(line, "expression too complex for the scratch register pool")
        })?;
        Ok(SCRATCH[i])
    }

    /// Takes the free scratch register nearest the end of the pool.
    fn reserve_last(&mut self) -> Option<Reg> {
        let at = (0..self.free_scratch.len()).max_by_key(|&at| self.free_scratch[at])?;
        Some(SCRATCH[self.free_scratch.remove(at)])
    }

    /// Hands back a register [`FnGen::reserve_last`] took, last in line
    /// again (hand several back in the reverse order they were taken).
    fn unreserve(&mut self, reg: Reg) {
        let i = SCRATCH
            .iter()
            .position(|&s| s == reg)
            .expect("a scratch register");
        self.free_scratch.insert(0, i);
    }

    /// The pointer register an enclosing loop walks `name[idx]` with.
    fn pointer(&self, name: &str, idx: &Expr) -> Option<Reg> {
        (self.pointers.iter().any(|(n, ..)| n == name))
            .then(|| self.held(name, &scale(idx.clone(), 4)))
            .flatten()
    }

    /// The pointer register that holds `&name + off` in an enclosing
    /// loop's body.
    fn held(&self, name: &str, off: &Expr) -> Option<Reg> {
        let mut found = (self.pointers.iter()).filter(|(n, k, ..)| n == name && k == off);
        found.next().map(|&(.., reg, _)| reg)
    }

    fn free_scratch_reg(&mut self, reg: Reg) {
        if let Some(i) = SCRATCH.iter().position(|&s| s == reg) {
            debug_assert!(!self.free_scratch.contains(&i), "double free of {reg}");
            self.free_scratch.push(i);
        }
    }

    fn release(&mut self, v: Val) {
        if let Val::Reg { reg, owned: true } = v {
            self.free_scratch_reg(reg);
        }
    }

    /// The register a binary operation writes: `into` if given, else an
    /// owned operand, else a fresh scratch register.
    fn dest(&mut self, into: Option<Reg>, operands: &[Val], line: usize) -> Result<Reg, CcError> {
        match (into, operands.iter().find(|&&v| is_owned(v))) {
            (Some(reg), _) => Ok(reg),
            (None, Some(&v)) => Ok(reg_of(v)),
            (None, None) => self.alloc(line),
        }
    }

    /// What a binary operation wrote to `dest`, once whichever owned
    /// operand it did not reuse is freed: owned scratch, or the local
    /// register `into`.
    fn result(&mut self, dest: Reg, into: Option<Reg>, operands: &[Val]) -> Val {
        for &r in operands {
            if is_owned(r) && reg_of(r) != dest {
                self.free_scratch_reg(reg_of(r));
            }
        }
        Val::Reg {
            reg: dest,
            owned: into.is_none(),
        }
    }
}

/// The register argument `i` is passed in: `a0`, `a1`, ...
fn arg_reg(i: usize) -> Reg {
    Reg::new(Reg::A0.number() + i as u8).expect("sema bounds the arguments")
}

/// An owned scratch register value.
fn owned(reg: Reg) -> Val {
    Val::Reg { reg, owned: true }
}

/// The register a value lives in (must not be `Imm`).
fn reg_of(v: Val) -> Reg {
    match v {
        Val::Reg { reg, .. } => reg,
        Val::Local(idx) => LOCALS[idx],
        Val::Imm(_) => unreachable!("immediate has no register"),
    }
}

fn is_owned(v: Val) -> bool {
    matches!(v, Val::Reg { owned: true, .. })
}

/// `k` if `v` is the constant 2^k with k in 1..=30 (a product by it is
/// one `slli`).
fn pow2_log(v: Val) -> Option<i64> {
    match v {
        Val::Imm(y) if (2..=1 << 30).contains(&y) && y.count_ones() == 1 => {
            Some(y.trailing_zeros().into())
        }
        _ => None,
    }
}

fn fold(op: BinOp, x: i64, y: i64) -> i64 {
    let (x32, y32) = (x as i32, y as i32);
    (match op {
        BinOp::Add => x32.wrapping_add(y32),
        BinOp::Sub => x32.wrapping_sub(y32),
        BinOp::Mul => x32.wrapping_mul(y32),
        BinOp::Div => {
            if y32 == 0 {
                -1
            } else {
                x32.wrapping_div(y32)
            }
        }
        BinOp::Rem => {
            if y32 == 0 {
                x32
            } else {
                x32.wrapping_rem(y32)
            }
        }
        BinOp::And => x32 & y32,
        BinOp::Or => x32 | y32,
        BinOp::Xor => x32 ^ y32,
        BinOp::Shl => x32.wrapping_shl(y32 as u32 & 31),
        BinOp::Shr => x32.wrapping_shr(y32 as u32 & 31),
        BinOp::Lt => (x32 < y32) as i32,
        BinOp::Le => (x32 <= y32) as i32,
        BinOp::Gt => (x32 > y32) as i32,
        BinOp::Ge => (x32 >= y32) as i32,
        BinOp::Eq => (x32 == y32) as i32,
        BinOp::Ne => (x32 != y32) as i32,
        BinOp::LAnd => ((x32 != 0) && (y32 != 0)) as i32,
        BinOp::LOr => ((x32 != 0) || (y32 != 0)) as i32,
    }) as i64
}

/// A unary operation on a constant, as the machine computes it on the
/// constant's 32-bit word.
fn fold_unary(op: UnOp, x: i64) -> i64 {
    let x = x as i32;
    (match op {
        UnOp::Neg => x.wrapping_neg(),
        UnOp::Not => (x == 0) as i32,
        UnOp::BitNot => !x,
    }) as i64
}

/// The `op rd, rs, imm` form of immediate-friendly operations.
fn imm_kind(op: BinOp) -> Option<OpImmKind> {
    Some(match op {
        BinOp::Add => OpImmKind::Add,
        BinOp::And => OpImmKind::And,
        BinOp::Or => OpImmKind::Or,
        BinOp::Xor => OpImmKind::Xor,
        BinOp::Shl => OpImmKind::Sll,
        BinOp::Shr => OpImmKind::Sra,
        BinOp::Lt => OpImmKind::Slt,
        _ => return None,
    })
}

/// The `op rd, rs1, rs2` form of an operation that is one instruction.
fn reg_kind(op: BinOp) -> OpKind {
    match op {
        BinOp::Add => OpKind::Add,
        BinOp::Sub => OpKind::Sub,
        BinOp::Mul => OpKind::Mul,
        BinOp::Div => OpKind::Div,
        BinOp::Rem => OpKind::Rem,
        BinOp::And => OpKind::And,
        BinOp::Or => OpKind::Or,
        BinOp::Xor => OpKind::Xor,
        BinOp::Shl => OpKind::Sll,
        BinOp::Shr => OpKind::Sra,
        BinOp::Lt => OpKind::Slt,
        _ => unreachable!("{op:?} is not one register-register instruction"),
    }
}

fn imm_fits(op: BinOp, y: i64) -> bool {
    match op {
        BinOp::Shl | BinOp::Shr => (0..32).contains(&y),
        _ => (-2048..=2047).contains(&y),
    }
}

/// The branch taken when `op` is FALSE, with operand swap.
fn inverse_branch(op: BinOp) -> Option<(BranchKind, bool)> {
    Some(match op {
        BinOp::Lt => (BranchKind::Ge, false),
        BinOp::Ge => (BranchKind::Lt, false),
        BinOp::Gt => (BranchKind::Ge, true),
        BinOp::Le => (BranchKind::Lt, true),
        BinOp::Eq => (BranchKind::Ne, false),
        BinOp::Ne => (BranchKind::Eq, false),
        _ => return None,
    })
}

/// The branch taken exactly when `kind` is not.
fn negated(kind: BranchKind) -> BranchKind {
    match kind {
        BranchKind::Eq => BranchKind::Ne,
        BranchKind::Ne => BranchKind::Eq,
        BranchKind::Lt => BranchKind::Ge,
        BranchKind::Ge => BranchKind::Lt,
        BranchKind::Ltu => BranchKind::Geu,
        BranchKind::Geu => BranchKind::Ltu,
    }
}

/// Whether an expression contains a function call.
fn expr_calls(e: &Expr) -> bool {
    elements(e, &mut Vec::new())
}

/// Pushes the array elements `e` reads, as `(array, index)`, onto `out`
/// in the order the generator computes them; whether `e` calls.
fn elements<'e>(e: &'e Expr, out: &mut Vec<(&'e str, &'e Expr)>) -> bool {
    match e {
        Expr::Call(..) => true,
        Expr::Int(_) | Expr::Var(_) => false,
        Expr::Index(name, idx) => {
            out.push((name, idx));
            elements(idx, out)
        }
        Expr::Deref(x) | Expr::Unary(_, x) => elements(x, out),
        Expr::AddrOf(place) => match place.as_ref() {
            Place::Index(_, x) | Place::Deref(x) => elements(x, out),
            Place::Var(_) => false,
        },
        Expr::Binary(_, a, b) => elements(a, out) | elements(b, out),
    }
}

/// Collects the local arrays of a function, in declaration order.
fn collect_local_arrays(f: &Function) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    walk(&f.body, &mut |s| {
        if let Stmt::DeclArray { name, elems, .. } = s {
            out.push((name.clone(), *elems));
        }
    });
    out
}

/// Collects the register locals of a function: parameters first, then
/// declarations in source order.
fn collect_locals(f: &Function) -> Vec<String> {
    let mut out = f.params.clone();
    walk(&f.body, &mut |s| match s {
        Stmt::Decl { name, .. } if !out.contains(name) => out.push(name.clone()),
        _ => {}
    });
    out
}

/// The set of alias classes a statement list may store to (used at loop
/// heads).
fn stores_of(stmts: &[Stmt], cx: &Checked) -> Pending {
    let mut p = Pending::default();
    walk(stmts, &mut |s| match s {
        Stmt::Assign { lhs, rhs, .. } => {
            if expr_calls(rhs) {
                p.unknown = true;
            }
            match lhs {
                Place::Var(name) => {
                    if cx.globals.contains_key(name) {
                        p.insert(name);
                    }
                }
                Place::Index(name, _) => {
                    if cx.globals.contains_key(name) {
                        p.insert(name);
                    } else {
                        // A frame array (keyed so array-only loops
                        // stay fenceless) or an unknown pointer.
                        p.insert(&format!("%frame%{name}"));
                        p.unknown = true;
                    }
                }
                Place::Deref(_) => p.unknown = true,
            }
        }
        // Calls drain at their epilogue, but their writes are
        // unknown to the caller (also when nested in expressions).
        Stmt::Expr(e, _) if expr_calls(e) => p.unknown = true,
        _ => {}
    });
    p
}

/// `b<kind> rs1, rs2, target`, written `beqz`/`bnez` against `zero`.
fn branch(asm: &mut Asm, kind: BranchKind, rs1: Reg, rs2: Reg, target: &str) {
    match (kind, rs2) {
        (BranchKind::Eq, Reg::ZERO) => asm.beqz(rs1, target),
        (BranchKind::Ne, Reg::ZERO) => asm.bnez(rs1, target),
        _ => asm.branch(kind, rs1, rs2, target),
    };
}

/// `x` as a 32-bit word, sign-extended.
fn wrap(x: i64) -> i64 {
    i64::from(x as i32)
}

/// `x + y`, folded when either is 0 or both are constants.
fn add(x: Expr, y: Expr) -> Expr {
    match (x, y) {
        (Expr::Int(a), Expr::Int(b)) => Expr::Int(wrap(a + b)),
        (Expr::Int(0), e) | (e, Expr::Int(0)) => e,
        (x, y) => Expr::Binary(BinOp::Add, Box::new(x), Box::new(y)),
    }
}

/// `x · m` for a constant `m` (mod 2^32), folded into a constant or into
/// a product by a constant.
fn scale(x: Expr, m: i64) -> Expr {
    let m = wrap(m);
    match x {
        _ if m == 0 => Expr::Int(0),
        x if m == 1 => x,
        Expr::Int(a) => Expr::Int(wrap(a * m)),
        Expr::Binary(BinOp::Mul, x, c) if matches!(*c, Expr::Int(_)) => {
            let Expr::Int(c) = *c else { unreachable!() };
            scale(*x, wrap(c) * m)
        }
        x => Expr::Binary(BinOp::Mul, Box::new(x), Box::new(Expr::Int(m))),
    }
}

/// `e` as `a·v + r` (mod 2^32) over a loop counter `v`, if it is one with
/// an `r` that reads only constants and `fixed` registers: sums,
/// differences, negations, and products or shifts by constants.
fn affine(e: &Expr, v: &str, fixed: &dyn Fn(&str) -> bool) -> Option<(i64, Expr)> {
    let of = |e: &Expr| affine(e, v, fixed);
    let constant = |(a, r): &(i64, Expr)| match r {
        Expr::Int(k) if *a == 0 => Some(*k),
        _ => None,
    };
    match e {
        Expr::Int(c) => Some((0, Expr::Int(wrap(*c)))),
        Expr::Var(n) if n == v => Some((1, Expr::Int(0))),
        Expr::Unary(UnOp::Neg, x) => of(x).map(|(a, r)| (wrap(-a), scale(r, -1))),
        Expr::Binary(op @ (BinOp::Add | BinOp::Sub), x, y) => {
            let ((a, r), (b, s)) = (of(x)?, of(y)?);
            let m = if *op == BinOp::Sub { -1 } else { 1 };
            Some((wrap(a + m * b), add(r, scale(s, m))))
        }
        Expr::Binary(op @ (BinOp::Mul | BinOp::Shl), x, y) => {
            let (x, y) = (of(x)?, of(y)?);
            let (x, m) = match (constant(&x), constant(&y), op) {
                // `x << s` is `x · 2^(s mod 32)` mod 2^32.
                (_, Some(s), BinOp::Shl) => (x, 1 << (s as u32 & 31)),
                (_, Some(m), _) => (x, m),
                (Some(m), _, BinOp::Mul) => (y, m),
                _ => return (x.0 == 0 && y.0 == 0).then(|| (0, e.clone())),
            };
            Some((wrap(x.0 * wrap(m)), scale(x.1, m)))
        }
        // Any other value of such an `r` is a term of `r` itself.
        Expr::Var(n) => fixed(n).then(|| (0, e.clone())),
        Expr::Unary(_, x) => (of(x)?.0 == 0).then(|| (0, e.clone())),
        Expr::Binary(_, x, y) => (of(x)?.0 == 0 && of(y)?.0 == 0).then(|| (0, e.clone())),
        _ => None,
    }
}

/// A `for` loop's parts.
#[derive(Clone, Copy)]
struct Loop<'a> {
    init: Option<&'a Stmt>,
    cond: Option<&'a Expr>,
    step: Option<&'a Stmt>,
    body: &'a [Stmt],
}

impl<'a> Loop<'a> {
    /// The parts of `s`, when it is a `for`.
    fn of(s: &'a Stmt) -> Option<Loop<'a>> {
        match s {
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => Some(Loop {
                init: init.as_ref().as_ref(),
                cond: cond.as_ref(),
                step: step.as_ref().as_ref(),
                body,
            }),
            _ => None,
        }
    }
}

/// A counted loop, as [`counted`] finds it.
struct Counted<'a> {
    lp: Loop<'a>,
    /// The counter, and what the step adds to it.
    v: &'a str,
    delta: i64,
    /// The array elements the body reads or writes, inner loops'
    /// included, as `(array, index)`, in walk order.
    sites: Vec<(&'a str, &'a Expr)>,
    /// The locals the body assigns or declares.
    written: Vec<&'a str>,
    /// The `for` loops directly in the body.
    inner: Vec<Loop<'a>>,
}

impl Counted<'_> {
    /// Whether `n` is a register local the loop never writes.
    fn fixed(&self, n: &str, fx: &FnGen) -> bool {
        n != self.v && fx.local(n).is_some() && !self.written.contains(&n)
    }

    /// The counter at the entry: its init's constant, or its register.
    fn entry(&self) -> Expr {
        init_value(self.lp.init, self.v).map_or(Expr::Var(self.v.to_owned()), Expr::Int)
    }
}

/// A pointer [`Gen::reduce_addresses`] may take: its array, its access
/// (none for an inner loop's entry), its byte offset from the array in
/// the body (its key in `fx.pointers`) and at the entry, its advance and
/// how many accesses share it.
struct Walk<'a> {
    name: &'a str,
    idx: Option<&'a Expr>,
    key: Expr,
    off: Expr,
    by: i64,
    uses: usize,
}

/// How [`Gen::emit_for`] writes a loop: its own pointers (the last of
/// `fx.pointers`), rule E, or rule B's test ([`bound`]).
#[derive(Clone, Copy, Default)]
struct Plan {
    own: usize,
    end: Option<End>,
    bound: Option<(BranchKind, Reg, i64, bool)>,
}

/// Rule E's loop: the counter's pool index, the trip count, and the
/// counter's last value when the function reads it outside the loop.
#[derive(Clone, Copy)]
struct End {
    local: usize,
    trips: i64,
    last: Option<i64>,
}

/// The loop, when a `for` is a counted loop: its step is `v = v ± c` on
/// a register local, and neither its condition nor its body calls, forks
/// or assigns `v`.
fn counted<'s>(lp: Loop<'s>, fx: &FnGen) -> Option<Counted<'s>> {
    let (v, Expr::Binary(op, a, b)) = assignment(lp.step?)? else {
        return None;
    };
    fx.local(v)?;
    let delta = match (op, a.as_ref(), b.as_ref()) {
        (BinOp::Add, Expr::Var(x), c) | (BinOp::Add, c, Expr::Var(x)) if x == v => konst(c)?,
        (BinOp::Sub, Expr::Var(x), c) if x == v => wrap(konst(c)?).wrapping_neg(),
        _ => return None,
    };
    let (mut sites, mut written) = (Vec::new(), Vec::new());
    let mut plain = !lp.cond.is_some_and(expr_calls);
    walk(lp.body, &mut |s| {
        match s {
            Stmt::Decl { name, .. }
            | Stmt::Assign {
                lhs: Place::Var(name),
                ..
            } => written.push(name.as_str()),
            Stmt::Assign {
                lhs: Place::Index(name, i),
                ..
            } => sites.push((name.as_str(), i)),
            Stmt::ParallelFor { .. } | Stmt::ParallelSections { .. } => plain = false,
            _ => {}
        }
        for e in exprs_of(s) {
            plain &= !elements(e, &mut sites);
        }
    });
    (plain && !written.contains(&v)).then(|| Counted {
        lp,
        v,
        delta: wrap(delta),
        sites,
        written,
        inner: lp.body.iter().filter_map(Loop::of).collect(),
    })
}

/// The expressions a statement computes itself, not those of the
/// statements it holds.
fn exprs_of(s: &Stmt) -> Vec<&Expr> {
    match s {
        Stmt::Decl { init, .. } => init.iter().collect(),
        Stmt::Assign { lhs, rhs, .. } => match lhs {
            Place::Var(_) => vec![rhs],
            Place::Index(_, i) | Place::Deref(i) => vec![i, rhs],
        },
        Stmt::Expr(e, _)
        | Stmt::Return(Some(e), _)
        | Stmt::If { cond: e, .. }
        | Stmt::While { cond: e, .. } => vec![e],
        Stmt::For { cond, .. } => cond.iter().collect(),
        _ => Vec::new(),
    }
}

/// How many times `e` reads the local `v`.
fn reads(e: &Expr, v: &str) -> usize {
    let of = |x| reads(x, v);
    match e {
        Expr::Int(_) => 0,
        Expr::Var(n) => usize::from(n == v),
        Expr::Index(n, x) => usize::from(n == v) + of(x),
        Expr::Deref(x) | Expr::Unary(_, x) => of(x),
        Expr::AddrOf(place) => match place.as_ref() {
            Place::Var(n) => usize::from(n == v),
            Place::Index(n, x) => usize::from(n == v) + of(x),
            Place::Deref(x) => of(x),
        },
        Expr::Binary(_, a, b) => of(a) + of(b),
        Expr::Call(_, args) => args.iter().map(of).sum(),
    }
}

/// How many times `stmts` read the local `v`.
fn stmt_reads(stmts: &[Stmt], v: &str) -> usize {
    let mut n = 0;
    walk(stmts, &mut |s| {
        if let Stmt::Assign {
            lhs: Place::Index(name, _),
            ..
        } = s
        {
            n += usize::from(name == v);
        }
        n += exprs_of(s).into_iter().map(|e| reads(e, v)).sum::<usize>();
    });
    n
}

/// Whether a `break` in `stmts` leaves the loop they are the body of.
fn breaks(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Break(_) => true,
        Stmt::If { then, els, .. } => breaks(then) || breaks(els),
        _ => false,
    })
}

/// Rule E's trip count: how many times `cond`, `v op n` with a constant
/// `n`, holds as `v` steps from `v₀` by `delta` before it first fails,
/// when `v` does not leave the 32-bit range on the way.
fn trips(cond: &Expr, v: &str, v0: i64, delta: i64) -> Option<i64> {
    let Expr::Binary(op, x, n) = cond else {
        return None;
    };
    let n = konst(n).filter(|_| matches!(x.as_ref(), Expr::Var(x) if x == v))?;
    let trips = match op {
        BinOp::Lt if delta > 0 => (n - v0 + delta - 1).div_euclid(delta),
        BinOp::Le if delta > 0 => (n - v0).div_euclid(delta) + 1,
        BinOp::Gt if delta < 0 => (v0 - n - delta - 1).div_euclid(-delta),
        BinOp::Ge if delta < 0 => (v0 - n).div_euclid(-delta) + 1,
        BinOp::Ne if delta != 0 && (n - v0) % delta == 0 => (n - v0) / delta,
        _ => return None,
    };
    (trips >= 1 && i32::try_from(v0 + trips * delta).is_ok()).then_some(trips)
}

/// Rule B's test, a register local compared with a constant `n`: the
/// branch taken when it is false, the local's register, `n`, and whether
/// `n`'s register is the branch's first operand.
fn bound(cond: &Expr, fx: &FnGen) -> Option<(BranchKind, Reg, i64, bool)> {
    let Expr::Binary(op, a, b) = cond else {
        return None;
    };
    let (kind, swap) = inverse_branch(*op)?;
    let live = |e: &Expr| match e {
        Expr::Var(n) => fx
            .local(n)
            .filter(|i| !fx.dead.contains(i))
            .map(|i| LOCALS[i]),
        _ => None,
    };
    match (live(a), konst(b), konst(a), live(b)) {
        (Some(x), Some(n), ..) => Some((kind, x, n, swap)),
        (.., Some(n), Some(x)) => Some((kind, x, n, !swap)),
        _ => None,
    }
}

/// Whether a `for` runs its body at least once for certain: `cond` reads
/// no register but locals `init` sets to constants, and holds at them.
fn enters(init: Option<&Stmt>, cond: &Expr, fx: &FnGen) -> bool {
    let value = |n: &str| {
        fx.local(n)?;
        init_value(init, n)
    };
    const_eval(cond, &value).is_some_and(|c| c != 0)
}

/// The constant a `for` init leaves in the local `name`, if it does.
fn init_value(init: Option<&Stmt>, name: &str) -> Option<i64> {
    let (_, e) = parts(init?)
        .iter()
        .rev()
        .filter_map(assignment)
        .find(|&(n, _)| n == name)?;
    konst(e)
}

/// The statements of a `for` init: the parser's comma sequence, or the
/// one.
fn parts(init: &Stmt) -> &[Stmt] {
    match init {
        Stmt::If {
            cond: Expr::Int(1),
            then,
            ..
        } => then,
        s => std::slice::from_ref(s),
    }
}

/// The local or global a statement gives a value, and the value.
fn assignment(s: &Stmt) -> Option<(&str, &Expr)> {
    match s {
        Stmt::Assign {
            lhs: Place::Var(n),
            rhs: e,
            ..
        }
        | Stmt::Decl {
            name: n,
            init: Some(e),
            ..
        } => Some((n, e)),
        _ => None,
    }
}

/// `e`'s value when it is a constant.
fn konst(e: &Expr) -> Option<i64> {
    const_eval(e, &|_| None)
}

/// `e`'s value when it reads only constants and the registers `var`
/// knows, folded as the generator folds constants.
fn const_eval(e: &Expr, var: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(wrap(*v)),
        Expr::Var(n) => var(n),
        Expr::Unary(op, x) => Some(fold_unary(*op, const_eval(x, var)?)),
        Expr::Binary(op, a, b) => Some(fold(*op, const_eval(a, var)?, const_eval(b, var)?)),
        _ => None,
    }
}
