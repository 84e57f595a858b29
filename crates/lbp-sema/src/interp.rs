//! The small-step abstract machine.
//!
//! One step executes one statement (or one loop
//! head evaluation) of one thread of control. `main` runs alone; inside
//! a parallel region the members' frames are stepped in an interleaved
//! schedule, each behind a deterministic-consistency visibility context:
//! reads see the region-entry store plus the member's own buffer, writes
//! go to the buffer, and the join folds the buffers into the store in
//! member-index order. Because no member ever observes a sibling, the
//! outcome is the same under *every* schedule — which the seeded
//! scheduler exists to demonstrate.
//!
//! Arithmetic is pinned to the target: 32-bit two's-complement wrapping
//! add/sub/mul, RISC-V M division (`x / 0 == -1`, `INT_MIN / -1 ==
//! INT_MIN`, `x % 0 == x`, `INT_MIN % -1 == 0`), shift counts masked to
//! five bits, `>>` arithmetic. The same table the code generator's
//! constant folder and the simulator's ALU implement.

use std::collections::{BTreeMap, HashMap};

use lbp_cc::ast::{BinOp, Expr, Function, Init, Place, Stmt, UnOp};
use lbp_cc::sema::Checked;

use crate::{Effect, Layout, Outcome, Trap};

/// Member-interleaving schedule. Any schedule yields the same outcome;
/// offering more than one is how the harness *checks* that claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Step live members in index order, one statement each per round.
    RoundRobin,
    /// Pick the next member to step with a splitmix64 stream.
    Seeded(u64),
}

/// Interpreter resource and scheduling options.
#[derive(Debug, Clone, Copy)]
pub struct InterpOptions {
    /// Total evaluation-step budget (statements + expression nodes);
    /// exceeding it traps with class `budget`.
    pub budget: u64,
    /// Maximum call depth; exceeding it traps with class `depth`.
    pub max_call_depth: usize,
    /// Member interleaving.
    pub schedule: Schedule,
}

impl Default for InterpOptions {
    fn default() -> InterpOptions {
        InterpOptions {
            budget: 50_000_000,
            max_call_depth: 256,
            schedule: Schedule::RoundRobin,
        }
    }
}

/// Runs a checked translation unit to completion.
///
/// # Errors
///
/// Returns the first semantic [`Trap`] (undefined behavior or resource
/// exhaustion).
pub fn run(cx: &Checked, layout: &Layout, opts: &InterpOptions) -> Result<Outcome, Trap> {
    let mut it = Interp::new(cx, layout, opts);
    let main = cx
        .unit
        .functions
        .iter()
        .find(|f| f.name == "main")
        .ok_or(Trap {
            class: "no-main",
            line: 1,
            message: "program has no `main`".to_owned(),
        })?;
    let mut frame = it.new_frame(main, &[], main.line)?;
    let mut vis = Vis { member: None };
    while it.step_frame(&mut frame, &mut vis)? {}
    it.effects.push(Effect::Exit);
    Ok(Outcome {
        globals: cx
            .unit
            .globals
            .iter()
            .map(|g| g.name.clone())
            .zip(it.store)
            .collect(),
        effects: it.effects,
    })
}

/// Base of the synthetic arena holding stack-local arrays. Disjoint
/// from shared memory (globals live at `SHARED_BASE` and above), so a
/// resolved address is unambiguously one or the other.
const ARENA_BASE: u32 = 0x4000_0000;

/// Control-stack entry of one frame.
#[derive(Clone, Copy)]
enum Ctrl<'a> {
    /// A statement sequence with a cursor.
    Seq { stmts: &'a [Stmt], pos: usize },
    /// A loop marker. `While` is a loop with no step; `in_step` is true
    /// while the body (or the step statement) is above the marker.
    Loop {
        cond: Option<&'a Expr>,
        step: Option<&'a Stmt>,
        body: &'a [Stmt],
        in_step: bool,
        line: usize,
    },
}

/// One thread of control: register locals, private stack arrays, the
/// control stack, and the return slot.
struct Frame<'a> {
    /// Every register-local name (parameters first, then all `Decl`s,
    /// flat across nested blocks — mirroring the code generator's
    /// one-scope-per-function register allocation). `None` until the
    /// local is first written; reading `None` traps.
    locals: HashMap<&'a str, Option<i32>>,
    /// Stack arrays: name → (arena base address, element count).
    arrays: HashMap<&'a str, (u32, u32)>,
    ctrl: Vec<Ctrl<'a>>,
    /// Source line of the statement being executed (trap anchoring).
    line: usize,
    ret: Option<i32>,
    returned: bool,
}

/// A member's deterministic-consistency context: its write buffer and
/// its pending effect trace, both folded in at the join.
#[derive(Default)]
struct MemberCtx {
    buffer: BTreeMap<(usize, u32), i32>,
    effects: Vec<Effect>,
}

/// What the executing thread can see: `None` for `main` (reads and
/// writes go straight to the store), `Some` for a region member.
struct Vis<'m> {
    member: Option<&'m mut MemberCtx>,
}

struct MemberRun<'a> {
    frame: Frame<'a>,
    ctx: MemberCtx,
    done: bool,
}

struct Interp<'a> {
    cx: &'a Checked,
    layout: &'a Layout,
    opts: &'a InterpOptions,
    /// Function name → index in `cx.unit.functions`.
    fns: HashMap<&'a str, usize>,
    /// Global name → index in `cx.unit.globals`.
    gidx: HashMap<&'a str, usize>,
    /// The shared store: one word vector per global, declaration order.
    store: Vec<Vec<i32>>,
    arena: Arena,
    effects: Vec<Effect>,
    steps: u64,
    depth: usize,
}

impl<'a> Interp<'a> {
    fn new(cx: &'a Checked, layout: &'a Layout, opts: &'a InterpOptions) -> Interp<'a> {
        let store = cx
            .unit
            .globals
            .iter()
            .map(|g| {
                let mut words = vec![0i32; g.elems as usize];
                match &g.fill {
                    Some(Init::Uniform(v)) => words.fill(*v as i32),
                    Some(Init::List(vs)) => {
                        for (w, v) in words.iter_mut().zip(vs) {
                            *w = *v as i32;
                        }
                    }
                    None => {}
                }
                words
            })
            .collect();
        Interp {
            cx,
            layout,
            opts,
            fns: cx
                .unit
                .functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.as_str(), i))
                .collect(),
            gidx: cx
                .unit
                .globals
                .iter()
                .enumerate()
                .map(|(i, g)| (g.name.as_str(), i))
                .collect(),
            store,
            arena: Arena::default(),
            effects: Vec::new(),
            steps: 0,
            depth: 0,
        }
    }

    fn trap(&self, class: &'static str, line: usize, message: impl Into<String>) -> Trap {
        Trap {
            class,
            line,
            message: message.into(),
        }
    }

    fn charge(&mut self, line: usize) -> Result<(), Trap> {
        self.steps += 1;
        if self.steps > self.opts.budget {
            return Err(self.trap("budget", line, "evaluation step budget exhausted"));
        }
        Ok(())
    }

    // ----- frames -----

    fn new_frame(&mut self, f: &'a Function, args: &[i32], line: usize) -> Result<Frame<'a>, Trap> {
        self.frame_of(&f.body, &f.params, args, line)
    }

    /// Builds a frame for a body with the given parameters bound. Local
    /// name collection mirrors the code generator exactly: parameters
    /// first, then every `Decl` in a flat walk that skips parallel
    /// bodies (they become separate functions with their own locals).
    fn frame_of(
        &mut self,
        body: &'a [Stmt],
        params: &'a [String],
        args: &[i32],
        line: usize,
    ) -> Result<Frame<'a>, Trap> {
        let mut locals: HashMap<&'a str, Option<i32>> = HashMap::new();
        for (p, v) in params.iter().zip(args) {
            locals.insert(p.as_str(), Some(*v));
        }
        let mut names: Vec<&'a str> = Vec::new();
        collect_decls(body, &mut names);
        for n in names {
            locals.entry(n).or_insert(None);
        }
        let mut arrays = HashMap::new();
        let mut decls: Vec<(&'a str, u32)> = Vec::new();
        collect_array_decls(body, &mut decls);
        for (name, elems) in decls {
            let base = self.arena.alloc(elems);
            arrays.insert(name, (base, elems));
        }
        Ok(Frame {
            locals,
            arrays,
            ctrl: vec![Ctrl::Seq {
                stmts: body,
                pos: 0,
            }],
            line,
            ret: None,
            returned: false,
        })
    }

    /// Executes one statement (or loop-head evaluation) of a frame.
    /// Returns `false` once the frame has run to completion.
    fn step_frame(&mut self, fr: &mut Frame<'a>, vis: &mut Vis<'_>) -> Result<bool, Trap> {
        loop {
            let Some(top) = fr.ctrl.last().copied() else {
                return Ok(false);
            };
            match top {
                Ctrl::Seq { stmts, pos } => {
                    if pos >= stmts.len() {
                        fr.ctrl.pop();
                        continue;
                    }
                    if let Some(Ctrl::Seq { pos, .. }) = fr.ctrl.last_mut() {
                        *pos += 1;
                    }
                    self.exec_stmt(&stmts[pos], fr, vis)?;
                    return Ok(true);
                }
                Ctrl::Loop {
                    cond,
                    step,
                    body,
                    in_step,
                    line,
                } => {
                    fr.line = line;
                    self.charge(line)?;
                    if in_step {
                        if let Some(Ctrl::Loop { in_step, .. }) = fr.ctrl.last_mut() {
                            *in_step = false;
                        }
                        if let Some(st) = step {
                            self.exec_stmt(st, fr, vis)?;
                        }
                        return Ok(true);
                    }
                    let taken = match cond {
                        Some(c) => self.eval(c, fr, vis)? != 0,
                        None => true,
                    };
                    if taken {
                        if let Some(Ctrl::Loop { in_step, .. }) = fr.ctrl.last_mut() {
                            *in_step = true;
                        }
                        fr.ctrl.push(Ctrl::Seq {
                            stmts: body,
                            pos: 0,
                        });
                    } else {
                        fr.ctrl.pop();
                    }
                    return Ok(true);
                }
            }
        }
    }

    fn exec_stmt(
        &mut self,
        s: &'a Stmt,
        fr: &mut Frame<'a>,
        vis: &mut Vis<'_>,
    ) -> Result<(), Trap> {
        fr.line = stmt_line(s);
        self.charge(fr.line)?;
        match s {
            Stmt::Decl { name, init, .. } => {
                if let Some(e) = init {
                    let v = self.eval(e, fr, vis)?;
                    fr.locals.insert(name.as_str(), Some(v));
                }
                Ok(())
            }
            // Allocated at frame creation, like the prologue does.
            Stmt::DeclArray { .. } => Ok(()),
            Stmt::Assign { lhs, rhs, .. } => {
                let v = self.eval(rhs, fr, vis)?;
                self.store_place(lhs, v, fr, vis)
            }
            Stmt::Expr(e, _) => self.eval(e, fr, vis).map(|_| ()),
            Stmt::If {
                cond, then, els, ..
            } => {
                let c = self.eval(cond, fr, vis)?;
                fr.ctrl.push(Ctrl::Seq {
                    stmts: if c != 0 { then } else { els },
                    pos: 0,
                });
                Ok(())
            }
            Stmt::While { cond, body, line } => {
                fr.ctrl.push(Ctrl::Loop {
                    cond: Some(cond),
                    step: None,
                    body,
                    in_step: false,
                    line: *line,
                });
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => {
                // The marker goes under the init statement's control so
                // a compound init runs to completion before the first
                // condition test.
                fr.ctrl.push(Ctrl::Loop {
                    cond: cond.as_ref(),
                    step: step.as_ref().as_ref(),
                    body,
                    in_step: false,
                    line: *line,
                });
                if let Some(i) = init.as_ref() {
                    self.exec_stmt(i, fr, vis)?;
                }
                Ok(())
            }
            Stmt::Return(value, _) => {
                fr.ret = match value {
                    Some(e) => Some(self.eval(e, fr, vis)?),
                    None => None,
                };
                fr.returned = true;
                fr.ctrl.clear();
                Ok(())
            }
            Stmt::Break(_) => {
                while let Some(top) = fr.ctrl.pop() {
                    if matches!(top, Ctrl::Loop { .. }) {
                        break;
                    }
                }
                Ok(())
            }
            Stmt::Continue(_) => {
                while let Some(top) = fr.ctrl.last() {
                    if matches!(top, Ctrl::Loop { .. }) {
                        break;
                    }
                    fr.ctrl.pop();
                }
                Ok(())
            }
            Stmt::ParallelFor {
                var, count, body, ..
            } => {
                let team = *count as u32;
                let mut members = Vec::with_capacity(team as usize);
                for i in 0..team {
                    let frame =
                        self.frame_of(body, std::slice::from_ref(var), &[i as i32], fr.line)?;
                    members.push(MemberRun {
                        frame,
                        ctx: MemberCtx::default(),
                        done: false,
                    });
                }
                self.run_region(members, team, vis, fr.line)
            }
            Stmt::ParallelSections { sections, .. } => {
                let team = sections.len() as u32;
                let mut members = Vec::with_capacity(sections.len());
                for body in sections {
                    let frame = self.frame_of(body, &[], &[], fr.line)?;
                    members.push(MemberRun {
                        frame,
                        ctx: MemberCtx::default(),
                        done: false,
                    });
                }
                self.run_region(members, team, vis, fr.line)
            }
        }
    }

    /// Forks a team, interleaves its members under DC visibility, and
    /// joins: buffers fold into the store in member-index order.
    fn run_region(
        &mut self,
        mut members: Vec<MemberRun<'a>>,
        team: u32,
        vis: &mut Vis<'_>,
        line: usize,
    ) -> Result<(), Trap> {
        if vis.member.is_some() {
            // Sema rejects nested regions; refuse rather than guess.
            return Err(self.trap("nested-region", line, "nested parallel region"));
        }
        self.effects.push(Effect::Fork { team });
        let mut rng = match self.opts.schedule {
            Schedule::Seeded(seed) => Some(seed),
            Schedule::RoundRobin => None,
        };
        loop {
            let live: Vec<usize> = members
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.done)
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                break;
            }
            match rng {
                None => {
                    for i in live {
                        self.step_member(&mut members[i])?;
                    }
                }
                Some(ref mut state) => {
                    let pick = live[(splitmix64(state) % live.len() as u64) as usize];
                    self.step_member(&mut members[pick])?;
                }
            }
        }
        for m in members {
            for ((gi, elem), v) in m.ctx.buffer {
                self.store[gi][elem as usize] = v;
            }
            self.effects.extend(m.ctx.effects);
        }
        self.effects.push(Effect::Join { team });
        Ok(())
    }

    fn step_member(&mut self, m: &mut MemberRun<'a>) -> Result<(), Trap> {
        let mut vis = Vis {
            member: Some(&mut m.ctx),
        };
        if !self.step_frame(&mut m.frame, &mut vis)? {
            m.done = true;
        }
        Ok(())
    }

    // ----- expressions -----

    fn eval(&mut self, e: &'a Expr, fr: &mut Frame<'a>, vis: &mut Vis<'_>) -> Result<i32, Trap> {
        self.charge(fr.line)?;
        match e {
            Expr::Int(v) => Ok(*v as i32),
            Expr::Var(name) => {
                if let Some(&(base, _)) = fr.arrays.get(name.as_str()) {
                    // Array names decay to their address.
                    return Ok(base as i32);
                }
                if let Some(&slot) = fr.locals.get(name.as_str()) {
                    let line = fr.line;
                    return slot.ok_or_else(|| {
                        self.trap(
                            "uninit",
                            line,
                            format!("read of uninitialized local `{name}`"),
                        )
                    });
                }
                let gi = self.gidx[name.as_str()];
                if self.cx.globals.get(name.as_str()).copied().unwrap_or(false) {
                    Ok(self.layout.base(gi) as i32)
                } else {
                    Ok(self.read_global(gi, 0, vis))
                }
            }
            Expr::Index(name, idx) => {
                let addr = self.element_addr(name, idx, fr, vis)?;
                self.read_addr(addr, fr.line, vis)
            }
            Expr::Deref(p) => {
                let addr = self.eval(p, fr, vis)? as u32;
                self.read_addr(addr, fr.line, vis)
            }
            Expr::AddrOf(place) => match place.as_ref() {
                Place::Var(name) => {
                    if let Some(&(base, _)) = fr.arrays.get(name.as_str()) {
                        return Ok(base as i32);
                    }
                    let gi = self.gidx[name.as_str()];
                    Ok(self.layout.base(gi) as i32)
                }
                Place::Index(name, idx) => self.element_addr(name, idx, fr, vis).map(|a| a as i32),
                Place::Deref(inner) => self.eval(inner, fr, vis),
            },
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, fr, vis)?;
                Ok(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as i32,
                    UnOp::BitNot => !v,
                })
            }
            Expr::Binary(op, a, b) => match op {
                BinOp::LAnd => {
                    let x = self.eval(a, fr, vis)?;
                    if x == 0 {
                        Ok(0)
                    } else {
                        Ok((self.eval(b, fr, vis)? != 0) as i32)
                    }
                }
                BinOp::LOr => {
                    let x = self.eval(a, fr, vis)?;
                    if x != 0 {
                        Ok(1)
                    } else {
                        Ok((self.eval(b, fr, vis)? != 0) as i32)
                    }
                }
                _ => {
                    let x = self.eval(a, fr, vis)?;
                    let y = self.eval(b, fr, vis)?;
                    Ok(apply(*op, x, y))
                }
            },
            Expr::Call(name, args) => self.call(name, args, fr, vis),
        }
    }

    fn call(
        &mut self,
        name: &'a str,
        args: &'a [Expr],
        fr: &mut Frame<'a>,
        vis: &mut Vis<'_>,
    ) -> Result<i32, Trap> {
        match name {
            "omp_set_num_threads" => {
                let v = self.eval(&args[0], fr, vis)?;
                self.push_effect(Effect::SetNumThreads(v), vis);
                return Ok(0);
            }
            "__roi_start" => {
                self.push_effect(Effect::RoiStart, vis);
                return Ok(0);
            }
            "__roi_end" => {
                self.push_effect(Effect::RoiEnd, vis);
                return Ok(0);
            }
            _ => {}
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, fr, vis)?);
        }
        let cx = self.cx;
        let f = &cx.unit.functions[self.fns[name]];
        if self.depth >= self.opts.max_call_depth {
            return Err(self.trap(
                "depth",
                fr.line,
                format!("call depth limit calling `{name}`"),
            ));
        }
        self.depth += 1;
        let mut callee = self.new_frame(f, &vals, fr.line)?;
        while self.step_frame(&mut callee, vis)? {}
        self.depth -= 1;
        if callee.returned {
            // `return;` from a void function used in value position
            // lowers to 0, like the code generator's `Imm(0)`.
            Ok(callee.ret.unwrap_or(0))
        } else if f.returns_value {
            Err(self.trap(
                "missing-return",
                fr.line,
                format!("`{name}` declares `int` but fell off the end"),
            ))
        } else {
            Ok(0)
        }
    }

    // ----- memory -----

    /// Address of `name[idx]`, resolving like the code generator: stack
    /// array first, then pointer local, then global (flat, unchecked —
    /// the dereference is what's checked).
    fn element_addr(
        &mut self,
        name: &'a str,
        idx: &'a Expr,
        fr: &mut Frame<'a>,
        vis: &mut Vis<'_>,
    ) -> Result<u32, Trap> {
        let off = self.eval(idx, fr, vis)?.wrapping_mul(4) as u32;
        if let Some(&(base, _)) = fr.arrays.get(name) {
            return Ok(base.wrapping_add(off));
        }
        if let Some(&slot) = fr.locals.get(name) {
            let line = fr.line;
            let p = slot.ok_or_else(|| {
                self.trap(
                    "uninit",
                    line,
                    format!("indexing uninitialized pointer `{name}`"),
                )
            })?;
            return Ok((p as u32).wrapping_add(off));
        }
        let gi = self.gidx[name];
        Ok(self.layout.base(gi).wrapping_add(off))
    }

    fn store_place(
        &mut self,
        place: &'a Place,
        v: i32,
        fr: &mut Frame<'a>,
        vis: &mut Vis<'_>,
    ) -> Result<(), Trap> {
        match place {
            Place::Var(name) => {
                if let Some(slot) = fr.locals.get_mut(name.as_str()) {
                    *slot = Some(v);
                    return Ok(());
                }
                let gi = self.gidx[name.as_str()];
                self.write_global(gi, 0, v, vis);
                Ok(())
            }
            Place::Index(name, idx) => {
                let addr = self.element_addr(name, idx, fr, vis)?;
                self.write_addr(addr, v, fr.line, vis)
            }
            Place::Deref(p) => {
                let addr = self.eval(p, fr, vis)? as u32;
                self.write_addr(addr, v, fr.line, vis)
            }
        }
    }

    fn read_global(&self, gi: usize, elem: u32, vis: &Vis<'_>) -> i32 {
        if let Some(m) = vis.member.as_deref() {
            if let Some(&v) = m.buffer.get(&(gi, elem)) {
                return v;
            }
        }
        self.store[gi][elem as usize]
    }

    fn write_global(&mut self, gi: usize, elem: u32, v: i32, vis: &mut Vis<'_>) {
        match vis.member.as_deref_mut() {
            Some(m) => {
                m.buffer.insert((gi, elem), v);
            }
            None => self.store[gi][elem as usize] = v,
        }
    }

    fn read_addr(&mut self, addr: u32, line: usize, vis: &mut Vis<'_>) -> Result<i32, Trap> {
        if !addr.is_multiple_of(4) {
            return Err(self.trap("misaligned", line, format!("misaligned load at {addr:#x}")));
        }
        if let Some((gi, elem)) = self.layout.resolve(addr) {
            return Ok(self.read_global(gi, elem, vis));
        }
        match self.arena.read(addr) {
            Some(Some(v)) => Ok(v),
            Some(None) => Err(self.trap(
                "uninit",
                line,
                format!("read of uninitialized stack array word at {addr:#x}"),
            )),
            None => Err(self.trap(
                "wild-address",
                line,
                format!("load from unmapped address {addr:#x}"),
            )),
        }
    }

    fn write_addr(
        &mut self,
        addr: u32,
        v: i32,
        line: usize,
        vis: &mut Vis<'_>,
    ) -> Result<(), Trap> {
        if !addr.is_multiple_of(4) {
            return Err(self.trap("misaligned", line, format!("misaligned store at {addr:#x}")));
        }
        if let Some((gi, elem)) = self.layout.resolve(addr) {
            self.write_global(gi, elem, v, vis);
            return Ok(());
        }
        if self.arena.write(addr, v) {
            return Ok(());
        }
        Err(self.trap(
            "wild-address",
            line,
            format!("store to unmapped address {addr:#x}"),
        ))
    }

    fn push_effect(&mut self, e: Effect, vis: &mut Vis<'_>) {
        match vis.member.as_deref_mut() {
            Some(m) => m.effects.push(e),
            None => self.effects.push(e),
        }
    }
}

/// Exact 32-bit operator semantics shared by the constant folder and
/// the simulator ALU.
fn apply(op: BinOp, x: i32, y: i32) -> i32 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                -1
            } else {
                x.wrapping_div(y)
            }
        }
        BinOp::Rem => {
            if y == 0 {
                x
            } else {
                x.wrapping_rem(y)
            }
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32 & 31),
        BinOp::Shr => x.wrapping_shr(y as u32 & 31),
        BinOp::Lt => (x < y) as i32,
        BinOp::Le => (x <= y) as i32,
        BinOp::Gt => (x > y) as i32,
        BinOp::Ge => (x >= y) as i32,
        BinOp::Eq => (x == y) as i32,
        BinOp::Ne => (x != y) as i32,
        BinOp::LAnd | BinOp::LOr => unreachable!("short-circuit handled in eval"),
    }
}

fn stmt_line(s: &Stmt) -> usize {
    match s {
        Stmt::Decl { line, .. }
        | Stmt::DeclArray { line, .. }
        | Stmt::Assign { line, .. }
        | Stmt::Expr(_, line)
        | Stmt::If { line, .. }
        | Stmt::While { line, .. }
        | Stmt::For { line, .. }
        | Stmt::Return(_, line)
        | Stmt::Break(line)
        | Stmt::Continue(line)
        | Stmt::ParallelFor { line, .. }
        | Stmt::ParallelSections { line, .. } => *line,
    }
}

/// Flat `Decl` walk, skipping parallel bodies (they become separate
/// functions) — the code generator's `collect_locals` shape.
fn collect_decls<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a str>) {
    for s in stmts {
        match s {
            Stmt::Decl { name, .. } => out.push(name.as_str()),
            Stmt::If { then, els, .. } => {
                collect_decls(then, out);
                collect_decls(els, out);
            }
            Stmt::While { body, .. } => collect_decls(body, out),
            Stmt::For {
                init, step, body, ..
            } => {
                if let Some(i) = init.as_ref() {
                    collect_decls(std::slice::from_ref(i), out);
                }
                collect_decls(body, out);
                if let Some(st) = step.as_ref() {
                    collect_decls(std::slice::from_ref(st), out);
                }
            }
            _ => {}
        }
    }
}

fn collect_array_decls<'a>(stmts: &'a [Stmt], out: &mut Vec<(&'a str, u32)>) {
    for s in stmts {
        match s {
            Stmt::DeclArray { name, elems, .. } => out.push((name.as_str(), *elems)),
            Stmt::If { then, els, .. } => {
                collect_array_decls(then, out);
                collect_array_decls(els, out);
            }
            Stmt::While { body, .. } => collect_array_decls(body, out),
            Stmt::For {
                init, step, body, ..
            } => {
                if let Some(i) = init.as_ref() {
                    collect_array_decls(std::slice::from_ref(i), out);
                }
                collect_array_decls(body, out);
                if let Some(st) = step.as_ref() {
                    collect_array_decls(std::slice::from_ref(st), out);
                }
            }
            _ => {}
        }
    }
}

/// Arena of stack-local arrays. Blocks are never freed (total size is
/// bounded by the step budget); cells trap on read-before-write.
#[derive(Default)]
struct Arena {
    /// `(base, cells)`, sorted by base.
    blocks: Vec<(u32, Vec<Option<i32>>)>,
    used: u32,
}

impl Arena {
    fn alloc(&mut self, elems: u32) -> u32 {
        let base = ARENA_BASE + self.used;
        self.used += 4 * elems.max(1);
        self.blocks.push((base, vec![None; elems as usize]));
        base
    }

    fn locate(&self, addr: u32) -> Option<(usize, usize)> {
        let i = self.blocks.partition_point(|(b, _)| *b <= addr);
        if i == 0 {
            return None;
        }
        let (base, cells) = &self.blocks[i - 1];
        let off = (addr - base) as usize / 4;
        (off < cells.len()).then_some((i - 1, off))
    }

    /// `None`: not an arena address. `Some(None)`: uninitialized cell.
    fn read(&self, addr: u32) -> Option<Option<i32>> {
        self.locate(addr).map(|(b, o)| self.blocks[b].1[o])
    }

    fn write(&mut self, addr: u32, v: i32) -> bool {
        match self.locate(addr) {
            Some((b, o)) => {
                self.blocks[b].1[o] = Some(v);
                true
            }
            None => false,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(src: &str) -> Outcome {
        outcome_with(src, &InterpOptions::default())
    }

    fn outcome_with(src: &str, opts: &InterpOptions) -> Outcome {
        let cx = lbp_cc::front_end(src).expect("front end");
        let layout = Layout::synthetic(&cx);
        run(&cx, &layout, opts).expect("interp")
    }

    fn trap_of(src: &str) -> Trap {
        let cx = lbp_cc::front_end(src).expect("front end");
        let layout = Layout::synthetic(&cx);
        run(&cx, &layout, &InterpOptions::default()).expect_err("expected trap")
    }

    #[test]
    fn members_read_the_entry_snapshot_plus_own_writes() {
        let out = outcome(
            "int a = 5;\nint r[2];\nvoid main(void) {\n#pragma omp parallel sections\n{\n#pragma omp section\n{ a = 7; r[0] = a; }\n#pragma omp section\n{ r[1] = a; }\n}\n}",
        );
        // Section 0 sees its own write (7); section 1 still sees the
        // region-entry value (5) no matter how the two interleave.
        assert_eq!(out.global("r"), Some(&[7, 5][..]));
        assert_eq!(out.global("a"), Some(&[7][..]));
    }

    #[test]
    fn join_folds_buffers_in_member_index_order() {
        let out = outcome(
            "int a;\nvoid main(void) {\n#pragma omp parallel sections\n{\n#pragma omp section\n{ a = 1; }\n#pragma omp section\n{ a = 2; }\n}\n}",
        );
        // Overlapping writes: the highest-indexed member wins.
        assert_eq!(out.global("a"), Some(&[2][..]));
    }

    #[test]
    fn outcome_is_schedule_independent() {
        let src = "int v[8];\nint a;\nvoid main(void) {\nint t;\n#pragma omp parallel for\nfor (t = 0; t < 8; t++) { int i; for (i = 0; i < t; i++) { v[t] = v[t] + t; } a = t; }\n}";
        let base = outcome(src).render();
        for seed in [1u64, 2, 42, 0xdead_beef] {
            let opts = InterpOptions {
                schedule: Schedule::Seeded(seed),
                ..Default::default()
            };
            assert_eq!(outcome_with(src, &opts).render(), base, "seed {seed}");
        }
    }

    #[test]
    fn effect_trace_is_ordered_and_hash_matches_render() {
        let out = outcome(
            "int v[2];\nvoid main(void) {\nint t;\nomp_set_num_threads(2);\n__roi_start();\n#pragma omp parallel for\nfor (t = 0; t < 2; t++) { v[t] = t; }\n__roi_end();\n}",
        );
        assert_eq!(
            out.effects,
            vec![
                Effect::SetNumThreads(2),
                Effect::RoiStart,
                Effect::Fork { team: 2 },
                Effect::Join { team: 2 },
                Effect::RoiEnd,
                Effect::Exit,
            ]
        );
        assert_eq!(
            out.content_hash(),
            lbp_sim::fnv1a64(out.render().as_bytes())
        );
    }

    #[test]
    fn riscv_m_arithmetic_edges() {
        let out = outcome(
            "int r[9];\nint z;\nvoid main(void) {\nint x;\nx = 2147483647;\nr[0] = x + 1;\nx = -2147483647 - 1;\nr[1] = x / -1;\nr[2] = x % -1;\nr[3] = 7 / z;\nr[4] = 7 % z;\nr[5] = 1 << 33;\nr[6] = -8 >> 1;\nr[7] = -7 / 2;\nr[8] = -7 % 2;\n}",
        );
        assert_eq!(
            out.global("r"),
            Some(&[i32::MIN, i32::MIN, 0, -1, 7, 2, -4, -3, -1][..])
        );
    }

    #[test]
    fn loops_breaks_and_calls() {
        let out = outcome(
            "int s;\nint f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); }\nvoid main(void) {\nint i;\nfor (i = 0; i < 100; i++) { if (i == 5) { break; } if (i % 2) { continue; } s = s + i; }\ns = s + f(5);\n}",
        );
        // 0 + 2 + 4 + 5! = 126
        assert_eq!(out.global("s"), Some(&[126][..]));
    }

    #[test]
    fn uninitialized_local_read_traps() {
        let t = trap_of("int g;\nvoid main(void) { int x; g = x; }");
        assert_eq!(t.class, "uninit");
        assert_eq!(t.line, 2);
    }

    #[test]
    fn wild_store_traps() {
        let t = trap_of("int g;\nvoid main(void) { int x; x = 64; *(&g + 4096) = 1; }");
        assert_eq!(t.class, "wild-address");
    }

    #[test]
    fn budget_exhaustion_traps() {
        let cx = lbp_cc::front_end("void main(void) { while (1) { } }").unwrap();
        let layout = Layout::synthetic(&cx);
        let opts = InterpOptions {
            budget: 10_000,
            ..Default::default()
        };
        let t = run(&cx, &layout, &opts).expect_err("loop");
        assert_eq!(t.class, "budget");
    }

    #[test]
    fn stack_arrays_are_private_per_member() {
        let out = outcome(
            "int r[4];\nvoid main(void) {\nint t;\n#pragma omp parallel for\nfor (t = 0; t < 4; t++) { int buf[4]; int i; for (i = 0; i < 4; i++) { buf[i] = t * 10 + i; } r[t] = buf[t]; }\n}",
        );
        assert_eq!(out.global("r"), Some(&[0, 11, 22, 33][..]));
    }
}
