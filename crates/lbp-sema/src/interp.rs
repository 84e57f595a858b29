//! The small-step abstract machine.
//!
//! [`run`] first resolves the checked unit (the private `lower` module):
//! every name becomes a frame slot, a flat word of the shared store or a
//! function index, so no step looks a name up. One step executes one
//! statement (or one loop head evaluation) of one thread of control.
//! `main` runs alone; inside a parallel region the members' frames are
//! stepped in an interleaved schedule, each behind a
//! deterministic-consistency visibility context: reads see the
//! region-entry store plus the member's own writes, and writes stay with
//! the member until the join. Every shared word a member touches records
//! its two lowest-indexed writers and readers. At the join a word written
//! by two members, or written by one and read by another, is a `conflict`
//! trap; otherwise each written word takes its one writer's value.
//! Because no member ever observes a sibling, what a member touches — and
//! so both the outcome and the conflict reported — is the same under
//! *every* schedule, which the seeded scheduler exists to demonstrate.
//!
//! Arithmetic is pinned to the target: 32-bit two's-complement wrapping
//! add/sub/mul, RISC-V M division (`x / 0 == -1`, `INT_MIN / -1 ==
//! INT_MIN`, `x % 0 == x`, `INT_MIN % -1 == 0`), shift counts masked to
//! five bits, `>>` arithmetic. The same table the code generator's
//! constant folder and the simulator's ALU implement.

use lbp_cc::ast::{BinOp, Init, UnOp};
use lbp_cc::sema::Checked;
use lbp_sim::race::{note, Overlap, Two, NOBODY};

use crate::lower::{self, Base, Body, Expr, ExprId, Loop, Place, Program, Stmt};
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
/// Returns the first semantic [`Trap`] (undefined behavior, a conflict
/// between team members, or resource exhaustion).
pub fn run(cx: &Checked, layout: &Layout, opts: &InterpOptions) -> Result<Outcome, Trap> {
    let main = (cx.unit.functions.iter())
        .position(|f| f.name == "main")
        .ok_or(Trap {
            class: "no-main",
            line: 1,
            message: "program has no `main`".to_owned(),
        })?;
    let program = lower::lower(cx, layout)?;
    let mut it = Interp::new(cx, &program, layout, opts);
    let mut frame = it.member_frame(
        &program.funcs[main].body,
        None,
        cx.unit.functions[main].line,
    );
    while it.step_frame(&mut frame).map_err(|t| *t)? {}
    it.effects.push(Effect::Exit);
    let mut words = it.store.into_iter();
    Ok(Outcome {
        globals: (cx.unit.globals.iter())
            .map(|g| {
                (
                    g.name.clone(),
                    words.by_ref().take(g.elems as usize).collect(),
                )
            })
            .collect(),
        effects: it.effects,
    })
}

/// Base of the synthetic arena holding stack-local arrays. Disjoint
/// from shared memory (globals live at `SHARED_BASE` and above), so a
/// resolved address is unambiguously one or the other.
const ARENA_BASE: u32 = 0x4000_0000;

/// `Interp::member` while `main` runs; also "nobody" in a [`Word`].
const MAIN: u32 = NOBODY;

/// The step path's result: the error is boxed so that `Ok` stays small.
type Step<T> = Result<T, Box<Trap>>;

#[cold]
#[inline(never)]
fn trap(class: &'static str, line: usize, message: String) -> Box<Trap> {
    Box::new(Trap {
        class,
        line,
        message,
    })
}

/// Control-stack entry of one frame.
#[derive(Clone, Copy)]
enum Ctrl<'p> {
    /// A statement sequence with a cursor.
    Seq { stmts: &'p [Stmt], pos: usize },
    /// A loop marker; `in_step` is true while the body (or the step
    /// statement) is above it.
    Loop { lp: &'p Loop, in_step: bool },
}

/// One thread of control: register locals, private stack arrays, the
/// control stack, and the return slot.
struct Frame<'p> {
    body: &'p Body<'p>,
    /// One slot per register local of `body`; `None` until first
    /// written, and reading `None` traps.
    locals: Vec<Option<i32>>,
    /// The arena base of each frame array of `body`.
    bases: Vec<u32>,
    ctrl: Vec<Ctrl<'p>>,
    /// Source line of the statement being executed (trap anchoring).
    line: usize,
    ret: Option<i32>,
    returned: bool,
}

/// What the members of the running region did to one shared word.
#[derive(Clone, Copy)]
struct Word {
    /// The first member to write the word (`MAIN`: none), and the value
    /// it wrote last.
    owner: u32,
    value: i32,
    /// The two lowest-indexed members that wrote the word, and that read
    /// it: enough to name the lowest conflicting pair.
    writers: Two<()>,
    readers: Two<()>,
}

const UNTOUCHED: Word = Word {
    owner: MAIN,
    value: 0,
    writers: [(MAIN, ()); 2],
    readers: [(MAIN, ()); 2],
};

/// The deterministic-consistency state of a region, allocated at the
/// first region and reset word by word at each join.
#[derive(Default)]
struct Region {
    /// One entry per shared word (the store's flat index).
    words: Vec<Word>,
    /// The words members touched in the running region.
    touched: Vec<usize>,
    /// Per member: its values of words another member wrote first.
    shadowed: Vec<Vec<(usize, i32)>>,
    /// Per member: its buffered effects.
    effects: Vec<Vec<Effect>>,
}

struct Interp<'p> {
    cx: &'p Checked,
    program: &'p Program<'p>,
    layout: &'p Layout,
    opts: &'p InterpOptions,
    /// The shared store: every global's words, declaration order, at the
    /// flat indices the resolved form names.
    store: Vec<i32>,
    arena: Arena,
    effects: Vec<Effect>,
    steps: u64,
    depth: usize,
    /// The member whose frame is stepping, or `MAIN`.
    member: u32,
    region: Region,
}

impl<'p> Interp<'p> {
    fn new(
        cx: &'p Checked,
        program: &'p Program<'p>,
        layout: &'p Layout,
        opts: &'p InterpOptions,
    ) -> Interp<'p> {
        let mut store = Vec::new();
        for g in &cx.unit.globals {
            let first = store.len();
            store.resize(first + g.elems as usize, 0);
            let words = &mut store[first..];
            match &g.fill {
                Some(Init::Uniform(v)) => words.fill(*v as i32),
                Some(Init::List(vs)) => {
                    for (w, v) in words.iter_mut().zip(vs) {
                        *w = *v as i32;
                    }
                }
                None => {}
            }
        }
        Interp {
            cx,
            program,
            layout,
            opts,
            store,
            arena: Arena::default(),
            effects: Vec::new(),
            steps: 0,
            depth: 0,
            member: MAIN,
            region: Region::default(),
        }
    }

    #[inline]
    fn charge(&mut self, line: usize) -> Step<()> {
        self.steps += 1;
        if self.steps > self.opts.budget {
            return Err(trap(
                "budget",
                line,
                "evaluation step budget exhausted".to_owned(),
            ));
        }
        Ok(())
    }

    // ----- frames -----

    /// A frame for `body` with no local written yet.
    fn blank(body: &'p Body<'p>, line: usize) -> Frame<'p> {
        Frame {
            body,
            locals: vec![None; body.locals.len()],
            bases: Vec::with_capacity(body.arrays.len()),
            ctrl: Vec::with_capacity(4),
            line,
            ret: None,
            returned: false,
        }
    }

    /// Allocates the frame's arrays, like the prologue does, and points
    /// it at its first statement.
    fn enter(&mut self, fr: &mut Frame<'p>) {
        let arena = &mut self.arena;
        fr.bases
            .extend(fr.body.arrays.iter().map(|&n| arena.alloc(n)));
        fr.ctrl.push(Ctrl::Seq {
            stmts: self.program.block(fr.body.block),
            pos: 0,
        });
    }

    /// A region member's frame: `arg`, if any, bound to the body's one
    /// parameter.
    #[inline(never)]
    fn member_frame(&mut self, body: &'p Body<'p>, arg: Option<i32>, line: usize) -> Frame<'p> {
        let mut fr = Interp::blank(body, line);
        if let (Some(slot), Some(v)) = (fr.locals[..body.params].first_mut(), arg) {
            *slot = Some(v);
        }
        self.enter(&mut fr);
        fr
    }

    /// Executes one statement (or loop-head evaluation) of a frame.
    /// Returns `false` once the frame has run to completion.
    fn step_frame(&mut self, fr: &mut Frame<'p>) -> Step<bool> {
        loop {
            match fr.ctrl.last_mut() {
                None => return Ok(false),
                Some(Ctrl::Seq { stmts, pos }) => {
                    let (stmts, at) = (*stmts, *pos);
                    if at >= stmts.len() {
                        fr.ctrl.pop();
                        continue;
                    }
                    *pos += 1;
                    self.exec_stmt(&stmts[at], fr)?;
                    return Ok(true);
                }
                Some(Ctrl::Loop { lp, in_step }) => {
                    let (lp, stepping) = (*lp, *in_step);
                    *in_step = false;
                    fr.line = lp.line;
                    self.charge(lp.line)?;
                    if stepping {
                        if let Some(st) = lp.step {
                            self.exec_stmt(&self.program.stmts[st as usize], fr)?;
                        }
                        return Ok(true);
                    }
                    let taken = match lp.cond {
                        Some(c) => self.eval(c, fr)? != 0,
                        None => true,
                    };
                    if taken {
                        if let Some(Ctrl::Loop { in_step, .. }) = fr.ctrl.last_mut() {
                            *in_step = true;
                        }
                        fr.ctrl.push(Ctrl::Seq {
                            stmts: self.program.block(lp.body),
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

    fn exec_stmt(&mut self, s: &'p Stmt, fr: &mut Frame<'p>) -> Step<()> {
        let program = self.program;
        let line = s.line();
        fr.line = line;
        self.charge(line)?;
        match s {
            Stmt::Decl(init, _) => {
                if let Some((slot, e)) = *init {
                    let v = self.eval(e, fr)?;
                    fr.locals[slot] = Some(v);
                }
            }
            Stmt::Assign(place, rhs, _) => {
                let v = self.eval(*rhs, fr)?;
                self.store_place(*place, v, fr)?;
            }
            Stmt::Expr(e, _) => {
                self.eval(*e, fr)?;
            }
            Stmt::If(cond, then, els, _) => {
                let c = self.eval(*cond, fr)?;
                fr.ctrl.push(Ctrl::Seq {
                    stmts: program.block(if c != 0 { *then } else { *els }),
                    pos: 0,
                });
            }
            Stmt::Loop(init, lp) => {
                // The marker goes under the init statement's control so
                // a compound init runs to completion before the first
                // condition test.
                fr.ctrl.push(Ctrl::Loop { lp, in_step: false });
                if let Some(i) = *init {
                    self.exec_stmt(&program.stmts[i as usize], fr)?;
                }
            }
            Stmt::Return(value, _) => {
                fr.ret = match *value {
                    Some(e) => Some(self.eval(e, fr)?),
                    None => None,
                };
                fr.returned = true;
                fr.ctrl.clear();
            }
            Stmt::Break(_) => {
                while let Some(top) = fr.ctrl.pop() {
                    if matches!(top, Ctrl::Loop { .. }) {
                        break;
                    }
                }
            }
            Stmt::Continue(_) => {
                while let Some(top) = fr.ctrl.last() {
                    if matches!(top, Ctrl::Loop { .. }) {
                        break;
                    }
                    fr.ctrl.pop();
                }
            }
            Stmt::ParallelFor(team, body, _) => {
                let body = &program.regions[*body as usize];
                let members = (0..*team)
                    .map(|i| self.member_frame(body, Some(i as i32), line))
                    .collect();
                self.run_region(members, *team, line)?;
            }
            Stmt::ParallelSections(first, count, _) => {
                let sections = &program.regions[*first as usize..(*first + *count) as usize];
                let members = (sections.iter())
                    .map(|body| self.member_frame(body, None, line))
                    .collect();
                self.run_region(members, sections.len() as u32, line)?;
            }
        }
        Ok(())
    }

    /// Forks a team, interleaves its members under DC visibility, and
    /// joins: a conflict traps, otherwise every written word takes its
    /// writer's value and member effects append in member-index order.
    #[inline(never)]
    fn run_region(&mut self, mut members: Vec<Frame<'p>>, team: u32, line: usize) -> Step<()> {
        if self.member != MAIN {
            // Sema rejects nested regions; refuse rather than guess.
            return Err(trap(
                "nested-region",
                line,
                "nested parallel region".to_owned(),
            ));
        }
        self.effects.push(Effect::Fork { team });
        let r = &mut self.region;
        if r.words.len() < self.store.len() {
            r.words = vec![UNTOUCHED; self.store.len()];
        }
        if r.shadowed.len() < members.len() {
            r.shadowed.resize_with(members.len(), Vec::new);
            r.effects.resize_with(members.len(), Vec::new);
        }
        let mut live: Vec<usize> = (0..members.len()).collect();
        match self.opts.schedule {
            Schedule::RoundRobin => {
                while !live.is_empty() {
                    let mut kept = 0;
                    for k in 0..live.len() {
                        let i = live[k];
                        if self.step_member(&mut members[i], i)? {
                            live[kept] = i;
                            kept += 1;
                        }
                    }
                    live.truncate(kept);
                }
            }
            Schedule::Seeded(seed) => {
                let mut state = seed;
                while !live.is_empty() {
                    let k = (splitmix64(&mut state) % live.len() as u64) as usize;
                    if !self.step_member(&mut members[live[k]], live[k])? {
                        live.remove(k);
                    }
                }
            }
        }
        self.join(members.len(), line)?;
        self.effects.push(Effect::Join { team });
        Ok(())
    }

    fn step_member(&mut self, fr: &mut Frame<'p>, m: usize) -> Step<bool> {
        self.member = m as u32;
        let more = self.step_frame(fr);
        self.member = MAIN;
        more
    }

    /// Checks the touched words for the lowest conflict, then folds.
    #[inline(never)]
    fn join(&mut self, team: usize, line: usize) -> Step<()> {
        let r = &mut self.region;
        let conflict = (r.touched.iter())
            .filter_map(|&w| {
                let word = &r.words[w];
                Overlap::of(&word.writers, &word.readers).map(|(o, _)| (w, o))
            })
            .min_by_key(|&(w, o)| (w, o.pair()));
        if let Some((w, overlap)) = conflict {
            return Err(self.conflict(w, overlap, line));
        }
        for &w in &r.touched {
            let word = &mut r.words[w];
            if word.owner != MAIN {
                self.store[w] = word.value;
            }
            *word = UNTOUCHED;
        }
        r.touched.clear();
        for effects in &mut r.effects[..team] {
            self.effects.append(effects);
        }
        Ok(())
    }

    #[cold]
    fn conflict(&self, w: usize, overlap: Overlap, line: usize) -> Box<Trap> {
        let mut end = 0;
        let global = (self.cx.unit.globals.iter())
            .find(|g| {
                end += g.elems as usize;
                w < end
            })
            .expect("every store word belongs to a global");
        let at = format!("`{}[{}]`", global.name, w + global.elems as usize - end);
        let message = overlap.message(at, |m| m.to_string());
        trap("conflict", line, message)
    }

    // ----- expressions -----

    /// Evaluates an expression node: the leaves in place, the rest in
    /// [`Interp::eval_node`].
    #[inline(always)]
    fn eval(&mut self, e: ExprId, fr: &mut Frame<'p>) -> Step<i32> {
        match self.program.exprs[e as usize] {
            Expr::Int(v) => {
                self.charge(fr.line)?;
                Ok(v)
            }
            Expr::Local(i) => {
                self.charge(fr.line)?;
                local(fr, i)
            }
            _ => self.eval_node(e, fr),
        }
    }

    fn eval_node(&mut self, e: ExprId, fr: &mut Frame<'p>) -> Step<i32> {
        self.charge(fr.line)?;
        let program = self.program;
        Ok(match program.exprs[e as usize] {
            Expr::Int(v) => v,
            Expr::Local(i) => local(fr, i)?,
            Expr::Array(i) => fr.bases[i as usize] as i32,
            Expr::Global(w) => self.read_word(w as usize),
            Expr::Load(base, idx) => match self.element(base, idx, fr)? {
                Ok(w) => self.read_word(w),
                Err(addr) => self.read_addr(addr, fr.line)?,
            },
            Expr::Deref(p) => {
                let addr = self.eval(p, fr)? as u32;
                self.read_addr(addr, fr.line)?
            }
            Expr::AddrOf(base, idx) => self.element_addr(base, idx, fr)? as i32,
            Expr::AddrOfDeref(p) => self.eval(p, fr)?,
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, fr)?;
                match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as i32,
                    UnOp::BitNot => !v,
                }
            }
            Expr::LAnd(a, b) => {
                if self.eval(a, fr)? == 0 {
                    0
                } else {
                    (self.eval(b, fr)? != 0) as i32
                }
            }
            Expr::LOr(a, b) => {
                if self.eval(a, fr)? != 0 {
                    1
                } else {
                    (self.eval(b, fr)? != 0) as i32
                }
            }
            Expr::Binary(op, a, b) => {
                let x = self.eval(a, fr)?;
                let y = self.eval(b, fr)?;
                apply(op, x, y)
            }
            Expr::Call { func, first, count } => {
                let args = &program.args[first as usize..(first + count) as usize];
                self.call(func as usize, args, fr)?
            }
            Expr::SetNumThreads(n) => {
                let v = self.eval(n, fr)?;
                self.push_effect(Effect::SetNumThreads(v));
                0
            }
            Expr::RoiStart => {
                self.push_effect(Effect::RoiStart);
                0
            }
            Expr::RoiEnd => {
                self.push_effect(Effect::RoiEnd);
                0
            }
        })
    }

    #[inline(never)]
    fn call(&mut self, f: usize, args: &'p [ExprId], fr: &mut Frame<'p>) -> Step<i32> {
        let func = &self.program.funcs[f];
        let mut callee = Interp::blank(&func.body, fr.line);
        for (i, &a) in args.iter().enumerate() {
            let v = self.eval(a, fr)?;
            if let Some(slot) = callee.locals[..func.body.params].get_mut(i) {
                *slot = Some(v);
            }
        }
        if self.depth >= self.opts.max_call_depth {
            return Err(trap(
                "depth",
                fr.line,
                format!("call depth limit calling `{}`", func.name),
            ));
        }
        self.enter(&mut callee);
        self.depth += 1;
        while self.step_frame(&mut callee)? {}
        self.depth -= 1;
        if callee.returned {
            // `return;` from a void function used in value position
            // lowers to 0, like the code generator's `Imm(0)`.
            Ok(callee.ret.unwrap_or(0))
        } else if func.returns_value {
            Err(trap(
                "missing-return",
                fr.line,
                format!("`{}` declares `int` but fell off the end", func.name),
            ))
        } else {
            Ok(0)
        }
    }

    // ----- memory -----

    /// Address of an indexed access: the index first, then the base (a
    /// frame array, a pointer local or a global; flat and unchecked — the
    /// dereference is what's checked).
    #[inline(never)]
    fn element_addr(&mut self, base: Base, idx: ExprId, fr: &mut Frame<'p>) -> Step<u32> {
        let off = self.eval(idx, fr)?.wrapping_mul(4) as u32;
        let base = match base {
            Base::Array(i) => fr.bases[i as usize],
            Base::Pointer(i) => match fr.locals[i as usize] {
                Some(p) => p as u32,
                None => {
                    return Err(trap(
                        "uninit",
                        fr.line,
                        format!(
                            "indexing uninitialized pointer `{}`",
                            fr.body.locals[i as usize]
                        ),
                    ))
                }
            },
            Base::Global(g) => self.program.globals[g as usize].addr,
        };
        Ok(base.wrapping_add(off))
    }

    /// An indexed access: `Ok` with the shared word when the index falls
    /// inside a global the layout maps directly, else `Err` with the
    /// address to resolve.
    fn element(&mut self, base: Base, idx: ExprId, fr: &mut Frame<'p>) -> Step<Result<usize, u32>> {
        if let Base::Global(g) = base {
            let i = self.eval(idx, fr)?;
            let g = &self.program.globals[g as usize];
            return Ok(if (i as u32) < g.elems {
                Ok(g.word + i as usize)
            } else {
                Err(g.addr.wrapping_add(i.wrapping_mul(4) as u32))
            });
        }
        self.element_addr(base, idx, fr).map(Err)
    }

    fn store_place(&mut self, place: Place, v: i32, fr: &mut Frame<'p>) -> Step<()> {
        match place {
            Place::Local(i) => fr.locals[i] = Some(v),
            Place::Global(w) => self.write_word(w, v),
            Place::Elem(base, idx) => match self.element(base, idx, fr)? {
                Ok(w) => self.write_word(w, v),
                Err(addr) => self.write_addr(addr, v, fr.line)?,
            },
            Place::Deref(p) => {
                let addr = self.eval(p, fr)? as u32;
                self.write_addr(addr, v, fr.line)?;
            }
        }
        Ok(())
    }

    /// Reads a shared word: straight from the store in `main`; in a
    /// member, its own last write or else the region-entry value, noting
    /// the member as a reader.
    fn read_word(&mut self, w: usize) -> i32 {
        let m = self.member;
        if m == MAIN {
            return self.store[w];
        }
        let r = &mut self.region;
        let word = &mut r.words[w];
        if word.owner == MAIN && word.readers[0].0 == MAIN {
            r.touched.push(w);
        }
        note(&mut word.readers, m, ());
        let owner = word.owner;
        if owner == m {
            return word.value;
        }
        if owner != MAIN {
            if let Some(&(_, v)) = r.shadowed[m as usize].iter().find(|(x, _)| *x == w) {
                return v;
            }
        }
        self.store[w]
    }

    /// Writes a shared word: straight to the store in `main`; in a
    /// member, into the member's view, noting it as a writer.
    fn write_word(&mut self, w: usize, v: i32) {
        let m = self.member;
        if m == MAIN {
            self.store[w] = v;
            return;
        }
        let r = &mut self.region;
        let word = &mut r.words[w];
        if word.owner == MAIN && word.readers[0].0 == MAIN {
            r.touched.push(w);
        }
        note(&mut word.writers, m, ());
        if word.owner == MAIN || word.owner == m {
            word.owner = m;
            word.value = v;
            return;
        }
        let own = &mut r.shadowed[m as usize];
        match own.iter_mut().find(|(x, _)| *x == w) {
            Some(slot) => slot.1 = v,
            None => own.push((w, v)),
        }
    }

    #[inline(never)]
    fn read_addr(&mut self, addr: u32, line: usize) -> Step<i32> {
        if !addr.is_multiple_of(4) {
            return Err(trap(
                "misaligned",
                line,
                format!("misaligned load at {addr:#x}"),
            ));
        }
        if let Some(w) = self.layout.word(addr) {
            return Ok(self.read_word(w));
        }
        match self.arena.cell(addr) {
            Some(Some(v)) => Ok(*v),
            Some(None) => Err(trap(
                "uninit",
                line,
                format!("read of uninitialized stack array word at {addr:#x}"),
            )),
            None => Err(trap(
                "wild-address",
                line,
                format!("load from unmapped address {addr:#x}"),
            )),
        }
    }

    #[inline(never)]
    fn write_addr(&mut self, addr: u32, v: i32, line: usize) -> Step<()> {
        if !addr.is_multiple_of(4) {
            return Err(trap(
                "misaligned",
                line,
                format!("misaligned store at {addr:#x}"),
            ));
        }
        if let Some(w) = self.layout.word(addr) {
            self.write_word(w, v);
            return Ok(());
        }
        match self.arena.cell(addr) {
            Some(cell) => {
                *cell = Some(v);
                Ok(())
            }
            None => Err(trap(
                "wild-address",
                line,
                format!("store to unmapped address {addr:#x}"),
            )),
        }
    }

    #[inline(never)]
    fn push_effect(&mut self, e: Effect) {
        match self.member {
            MAIN => self.effects.push(e),
            m => self.region.effects[m as usize].push(e),
        }
    }
}

/// The value of a register local; reading one never written traps.
fn local(fr: &Frame<'_>, i: u32) -> Step<i32> {
    fr.locals[i as usize].ok_or_else(|| {
        trap(
            "uninit",
            fr.line,
            format!(
                "read of uninitialized local `{}`",
                fr.body.locals[i as usize]
            ),
        )
    })
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
        BinOp::LAnd | BinOp::LOr => {
            unreachable!("short-circuit operators lower to their own nodes")
        }
    }
}

/// Arena of stack-local arrays: one flat run of words from `ARENA_BASE`,
/// never freed (total size is bounded by the step budget); a word is
/// `None` until written, and reading it then traps.
#[derive(Default)]
struct Arena {
    cells: Vec<Option<i32>>,
}

impl Arena {
    /// Sema refuses zero-element arrays, so every array gets its words.
    fn alloc(&mut self, elems: u32) -> u32 {
        let base = ARENA_BASE + 4 * self.cells.len() as u32;
        (self.cells).resize(self.cells.len() + elems as usize, None);
        base
    }

    /// The arena word at an aligned `addr`, if there is one.
    fn cell(&mut self, addr: u32) -> Option<&mut Option<i32>> {
        let i = (addr.checked_sub(ARENA_BASE)? / 4) as usize;
        self.cells.get_mut(i)
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
        // Section 0 writes `a` and reads its own 7 back; section 1 reads
        // the region-entry 5. Each member still runs in isolation, but a
        // word written by one member and read by another has no meaning:
        // the join traps.
        let src = "int a = 5;\nint r[2];\nvoid main(void) {\n#pragma omp parallel sections\n{\n#pragma omp section\n{ a = 7; r[0] = a; }\n#pragma omp section\n{ r[1] = a; }\n}\n}";
        let t = trap_of(src);
        assert_eq!((t.class, t.line), ("conflict", 4));
        assert_eq!(
            t.message,
            "read/write conflict on `a[0]`: member 0 writes it and member 1 reads it"
        );
        // Without the read the two sections are disjoint, and each sees
        // its own write over the entry snapshot.
        let out = outcome(&src.replace("r[1] = a;", "r[1] = 5;"));
        assert_eq!(out.global("r"), Some(&[7, 5][..]));
        assert_eq!(out.global("a"), Some(&[7][..]));
    }

    #[test]
    fn join_folds_buffers_in_member_index_order() {
        // Two members writing one word is a conflict, not a winner.
        let t = trap_of(
            "int a;\nvoid main(void) {\n#pragma omp parallel sections\n{\n#pragma omp section\n{ a = 1; }\n#pragma omp section\n{ a = 2; }\n}\n}",
        );
        assert_eq!((t.class, t.line), ("conflict", 3));
        assert_eq!(
            t.message,
            "write/write conflict on `a[0]`: members 0 and 1 both write it"
        );
        // Disjoint words fold into the store, effects in member order.
        let out = outcome(
            "int a[2];\nvoid main(void) {\n#pragma omp parallel sections\n{\n#pragma omp section\n{ a[1] = 1; __roi_start(); }\n#pragma omp section\n{ a[0] = 2; __roi_end(); }\n}\n}",
        );
        assert_eq!(out.global("a"), Some(&[2, 1][..]));
        assert_eq!(
            out.effects,
            [
                Effect::Fork { team: 2 },
                Effect::RoiStart,
                Effect::RoiEnd,
                Effect::Join { team: 2 },
                Effect::Exit,
            ]
        );
    }

    /// Members 1, 2 and 3 write `v[5]`, and member 3 also writes `v[4]`,
    /// which member 0 reads: the lowest word wins over the lowest pair,
    /// and every schedule reports the same trap.
    #[test]
    fn the_conflict_trap_is_the_same_under_every_schedule() {
        let src = "int v[8];\nint s;\nvoid main(void) {\nint t;\n#pragma omp parallel for\nfor (t = 0; t < 4; t++) { if (t == 0) { s = v[4]; } else { v[5] = t; } if (t == 3) { v[4] = 1; } }\n}";
        let cx = lbp_cc::front_end(src).expect("front end");
        let layout = Layout::synthetic(&cx);
        let mut traps = Vec::new();
        let schedules = [1u64, 7, 42, 0xdead_beef].map(Schedule::Seeded);
        for schedule in [Schedule::RoundRobin].into_iter().chain(schedules) {
            let opts = InterpOptions {
                schedule,
                ..Default::default()
            };
            traps.push(run(&cx, &layout, &opts).expect_err("conflict"));
        }
        assert_eq!(traps[0].to_string(), "semantic trap at line 5: read/write conflict on `v[4]`: member 3 writes it and member 0 reads it [conflict]");
        assert!(traps.iter().all(|t| *t == traps[0]), "{traps:?}");
    }

    #[test]
    fn the_lowest_pair_on_a_word_names_the_conflict() {
        // Members 2 and 3 write `g`; member 1 reads it: (1, 2) is lower
        // than (2, 3).
        let t = trap_of("int g;\nint r[4];\nvoid main(void) {\nint t;\n#pragma omp parallel for\nfor (t = 0; t < 4; t++) { if (t >= 2) { g = t; } if (t == 1) { r[t] = g; } }\n}");
        assert_eq!(
            t.message,
            "read/write conflict on `g[0]`: member 2 writes it and member 1 reads it"
        );
        // A member that reads back its own write conflicts with nobody,
        // and neither do readers of a word nobody writes.
        let out = outcome("int g[4];\nint k = 3;\nvoid main(void) {\nint t;\n#pragma omp parallel for\nfor (t = 0; t < 4; t++) { g[t] = k; g[t] = g[t] + t; }\n}");
        assert_eq!(out.global("g"), Some(&[3, 4, 5, 6][..]));
    }

    #[test]
    fn a_conflicting_member_still_reads_its_own_writes() {
        // Both members write `a` and then branch on what they read back;
        // each sees its own value, so both reach their second write and
        // the lowest conflicting word is `a`, not `b`.
        let t = trap_of("int a;\nint b[2];\nvoid main(void) {\n#pragma omp parallel sections\n{\n#pragma omp section\n{ a = 1; if (a == 1) { b[0] = 1; } }\n#pragma omp section\n{ a = 2; if (a == 2) { b[1] = 1; } }\n}\n}");
        assert_eq!(
            t.message,
            "write/write conflict on `a[0]`: members 0 and 1 both write it"
        );
    }

    #[test]
    fn outcome_is_schedule_independent() {
        let src = "int v[8];\nint a[8];\nvoid main(void) {\nint t;\n#pragma omp parallel for\nfor (t = 0; t < 8; t++) { int i; for (i = 0; i < t; i++) { v[t] = v[t] + t; } a[7 - t] = t; }\n}";
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
