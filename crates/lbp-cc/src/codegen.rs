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

use lbp_asm::{Asm, Section};
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

/// Instruction words a conditional branch can skip forward: its reach is
/// 4,094 bytes, counted from the branch itself.
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
                    fx.pending.union(&then_pending);
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
                self.skip_unless(exit, &end, fx, |g, fx| {
                    fx.loop_labels.push((head.clone(), end.clone()));
                    g.block(body, fx)?;
                    fx.loop_labels.pop();
                    g.asm.j(&head);
                    Ok(())
                })?;
                self.asm.label(&end);
                fx.pending.union(&stores);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(i) = init.as_ref() {
                    self.stmt(i, fx)?;
                }
                let head = self.fresh("for");
                let end = self.fresh("fend");
                let mut loop_stores = stores_of(body, self.cx);
                if let Some(st) = step.as_ref() {
                    loop_stores.union(&stores_of(std::slice::from_ref(st), self.cx));
                }
                let step_l = self.fresh("fstep");
                fx.pending.union(&loop_stores);
                self.asm.label(&head);
                let exit = match cond {
                    Some(c) => self.exit_when_false(c, fx)?,
                    None => Exit::Never,
                };
                self.skip_unless(exit, &end, fx, |g, fx| {
                    fx.loop_labels.push((step_l.clone(), end.clone()));
                    g.block(body, fx)?;
                    fx.loop_labels.pop();
                    g.asm.label(&step_l);
                    if let Some(st) = step.as_ref() {
                        g.stmt(st, fx)?;
                    }
                    g.asm.j(&head);
                    Ok(())
                })?;
                self.asm.label(&end);
                fx.pending.union(&loop_stores);
                Ok(())
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
                let (addr, class) = self.element_addr(name, idx_expr, fx, line)?;
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
                    return Ok(Val::Imm(match op {
                        UnOp::Neg => i.wrapping_neg(),
                        UnOp::Not => (i == 0) as i64,
                        UnOp::BitNot => !i,
                    }));
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
        let zero = matches!(exit, Exit::Zero(_));
        let at = self.asm.mark();
        match zero {
            true => self.asm.beqz(rs1, target),
            false => self.asm.branch(kind, rs1, rs2, target),
        };
        body(self, fx)?;
        if self.asm.words_since(at) - 1 > BRANCH_REACH {
            let over = self.fresh("far");
            let mut far = Asm::new();
            match zero {
                true => far.bnez(rs1, &over),
                false => far.branch(negated(kind), rs1, rs2, &over),
            };
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
struct FnGen {
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
}

impl FnGen {
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
    match e {
        Expr::Call(..) => true,
        Expr::Int(_) | Expr::Var(_) => false,
        Expr::Index(_, inner) | Expr::Deref(inner) | Expr::Unary(_, inner) => expr_calls(inner),
        Expr::AddrOf(place) => match place.as_ref() {
            Place::Index(_, inner) | Place::Deref(inner) => expr_calls(inner),
            Place::Var(_) => false,
        },
        Expr::Binary(_, a, b) => expr_calls(a) || expr_calls(b),
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
