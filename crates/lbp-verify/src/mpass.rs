//! Pass 3: binary-level shared-memory determinism analysis (`M` codes).
//!
//! The source-level lint (`lbp-cc`, `S` codes) proves cross-member
//! disjointness of shared accesses for mini-C programs — but handwritten
//! assembly, fuzz corpora, and anything assembled directly receive no
//! shared-memory checking at all. This pass closes the gap at the binary
//! level with an **address lattice**: every register abstractly holds
//!
//! - an *affine* value `a·t + [lo, hi]` in the team-member index `t`
//!   (a constant is the degenerate `a = 0, lo = hi` point, an interval
//!   the `lo < hi` widening of it),
//! - a *private* value derived from the member's own stack pointer
//!   (provably outside the shared region), or
//! - *unknown*.
//!
//! Two cooperating fixpoints:
//!
//! 1. **Epoch discovery** walks the whole program from the entry point
//!    (following calls) and records every parallel start (`p_jalr` with
//!    a link register / `p_jal`) as a *spawn site*: the started
//!    function and, when the conventional team-size register `s2` holds
//!    a known constant at the site, the team size `nt`.
//! 2. **Member analysis** re-interprets each spawned function with the
//!    member index seeded affinely (`a0 = s1 = 1·t + 0`, the documented
//!    team ABI), collecting the footprint of every shared load/store as
//!    an affine address set. A sync epoch spans the member body from the
//!    parallel start to its terminating `p_ret` (the join edge);
//!    `p_syncm` inside a member drains that member's stores but does
//!    not order *other* members, so it does not split the epoch for
//!    cross-member checking.
//!
//! Within an epoch, every pair of accesses (at least one a write) is
//! checked for overlap over all member pairs `t1 ≠ t2`. The verdict
//! discipline matches the rest of the crate — errors are *definite*:
//!
//! - `LBP-M001` (error): two members' exact store footprints overlap.
//! - `LBP-M002` (error): a member reads an address another member
//!   provably writes.
//! - `LBP-M003` (warning): an interval-valued (widened) subscript, an
//!   unknown team size, a control-dependent access, or an exhausted
//!   analysis budget prevents a disjointness proof.
//! - `LBP-M004` (warning): a store through an address of unknown
//!   provenance inside a parallel epoch.
//! - `LBP-M005` (warning): a shared-region pointer value is itself
//!   stored to shared memory (escapes the epoch's footprint reasoning).
//! - `LBP-M006` (info): the whole team's write footprint lands in one
//!   default-geometry shared bank while the team spans several cores —
//!   deterministic, but serialized at the bank.
//!
//! A definite error requires: known team size, exact (width-0)
//! footprints, and accesses not control-dependent on unproven data (a
//! branch the interpreter cannot decide or refine *taints* its paths,
//! demoting findings to `M003`). Everything the lattice cannot prove is
//! at most a warning, so accepted programs stay accepted — the dynamic
//! `RaceWitness` collector in `lbp-sim` is the soundness net for what
//! this pass under-approximates (helper-function bodies, loop-carried
//! subscripts widened to unknown).

use std::collections::{BTreeSet, VecDeque};

use lbp_isa::{
    Instr, OpImmKind, OpKind, Reg, DEFAULT_SHARED_BANK_BYTES, HARTS_PER_CORE, IO_BASE, SHARED_BASE,
};

use crate::diag::{Diag, DiagCode, Severity};
use crate::flow::{Facts, Fixpoint, Program, State, Value};

/// Safety bound on fixpoint steps across all passes of one image.
const MAX_STEPS: usize = 2_000_000;
/// Largest team size the member enumeration considers.
const MAX_TEAM: i64 = 256;
/// Distinct spawn sites analyzed before truncating (with a warning).
const MAX_SITES: usize = 64;
/// Shared accesses collected per epoch before truncating (with a warning).
const MAX_ACCESSES: usize = 192;
/// Budget of pairwise footprint evaluations per epoch.
const PAIR_BUDGET: usize = 2_000_000;
/// Coefficient/offset magnitude beyond which a value widens to unknown.
/// Every register value is clamped to it, so its products with a member
/// index (at most [`MAX_TEAM`]) in `record`, `overlap_pair` and the bank
/// check stay far inside `i64`.
const MAG_LIMIT: i64 = 1 << 33;

/// An affine value `a·t + v` for some `v ∈ [lo, hi]`, `t` the member
/// index. `a = 0, lo = hi` is a constant; `lo < hi` an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Aff {
    a: i64,
    lo: i64,
    hi: i64,
}

impl Aff {
    fn point(v: i64) -> Aff {
        Aff { a: 0, lo: v, hi: v }
    }

    fn is_point(self) -> bool {
        self.a == 0 && self.lo == self.hi
    }

    fn is_exact(self) -> bool {
        self.lo == self.hi
    }

    /// Clamps runaway magnitudes to Unknown (keeps i64 arithmetic safe).
    fn norm(self) -> MVal {
        if self.a.abs() > MAG_LIMIT || self.lo.abs() > MAG_LIMIT || self.hi.abs() > MAG_LIMIT {
            MVal::Unknown
        } else {
            MVal::Abs(self)
        }
    }
}

/// What a register abstractly holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MVal {
    /// Anything.
    Unknown,
    /// An affine function of the member index.
    Abs(Aff),
    /// Derived from the member's own stack pointer: provably private.
    Priv,
}

impl MVal {
    fn point(v: i64) -> MVal {
        MVal::Abs(Aff::point(v))
    }

    fn as_point(self) -> Option<i64> {
        match self {
            MVal::Abs(p) if p.is_point() => Some(p.lo),
            _ => None,
        }
    }

    /// The affine form with these parts, Unknown if computing any of them
    /// overflowed (`slli`/`mul` chains reach 2^64 in two steps) or ran
    /// past [`MAG_LIMIT`].
    fn checked(a: Option<i64>, lo: Option<i64>, hi: Option<i64>) -> MVal {
        match (a, lo, hi) {
            (Some(a), Some(lo), Some(hi)) => Aff { a, lo, hi }.norm(),
            _ => MVal::Unknown,
        }
    }

    fn add(self, other: MVal) -> MVal {
        match (self, other) {
            (MVal::Abs(x), MVal::Abs(y)) => MVal::checked(
                x.a.checked_add(y.a),
                x.lo.checked_add(y.lo),
                x.hi.checked_add(y.hi),
            ),
            // sp ± small constant stays on the member's private stack.
            (MVal::Priv, MVal::Abs(p)) | (MVal::Abs(p), MVal::Priv) if p.a == 0 => MVal::Priv,
            _ => MVal::Unknown,
        }
    }

    fn sub(self, other: MVal) -> MVal {
        match (self, other) {
            (MVal::Abs(x), MVal::Abs(y)) => MVal::checked(
                x.a.checked_sub(y.a),
                x.lo.checked_sub(y.hi),
                x.hi.checked_sub(y.lo),
            ),
            (MVal::Priv, MVal::Abs(p)) if p.a == 0 => MVal::Priv,
            _ => MVal::Unknown,
        }
    }

    /// Multiplication by a compile-time point scales the affine form.
    fn scale(self, k: i64) -> MVal {
        match self {
            MVal::Abs(x) => {
                let (lo, hi) = if k >= 0 { (x.lo, x.hi) } else { (x.hi, x.lo) };
                MVal::checked(x.a.checked_mul(k), lo.checked_mul(k), hi.checked_mul(k))
            }
            _ => MVal::Unknown,
        }
    }
}

impl Value for MVal {
    const UNKNOWN: MVal = MVal::Unknown;
    const ZERO: MVal = MVal::Abs(Aff { a: 0, lo: 0, hi: 0 });

    /// Meet with one-step widening: a point may grow into an interval;
    /// an interval that would grow again (or a stride mismatch) goes to
    /// Unknown. The chain point → interval → Unknown bounds the fixpoint.
    fn meet(self, other: MVal) -> MVal {
        if self == other {
            return self;
        }
        match (self, other) {
            (MVal::Abs(x), MVal::Abs(y)) if x.a == y.a => {
                let u = Aff {
                    a: x.a,
                    lo: x.lo.min(y.lo),
                    hi: x.hi.max(y.hi),
                };
                if u == x {
                    MVal::Abs(x)
                } else if x.is_exact() {
                    u.norm()
                } else {
                    MVal::Unknown
                }
            }
            _ => MVal::Unknown,
        }
    }
}

/// The member-index range a path is known to cover and its
/// control-dependence taint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    /// Member indices that can reach this point (refined by branches on
    /// the exact member index, e.g. a `t == 0` master block).
    tlo: i64,
    thi: i64,
    /// Set once control flow depends on data the lattice cannot decide;
    /// accesses on tainted paths are never *definite* findings.
    tainted: bool,
}

impl Span {
    /// The untainted path every member of a team of `n` takes.
    fn of(n: i64) -> Span {
        Span {
            tlo: 0,
            thi: n - 1,
            tainted: false,
        }
    }
}

impl Facts for Span {
    fn meet(self, other: Span) -> Span {
        Span {
            tlo: self.tlo.min(other.tlo),
            thi: self.thi.max(other.thi),
            tainted: self.tainted || other.tainted,
        }
    }
}

/// Per-program-point abstract state: registers plus the path's [`Span`].
/// Calls clobber what the protocol pass clobbers (`sp`/`s*`/`t0`/`t1`
/// preserved).
type MState = State<MVal, Span>;

/// A hart that starts on the path `span` — the program's first, a team
/// member, or a fork continuation: nothing known but its own private
/// stack.
fn fresh_hart(span: Span) -> MState {
    let mut st = State::unknown(span);
    st.set(Reg::SP, MVal::Priv);
    st
}

/// One shared access collected from a member body.
#[derive(Debug, Clone, Copy)]
struct Access {
    pc: u32,
    write: bool,
    /// Address set: `addr.a·t + [addr.lo, addr.hi]`, absolute, already
    /// proven to stay inside the shared region for the whole team.
    addr: Aff,
    size: i64,
    /// Member indices this access executes for.
    tlo: i64,
    thi: i64,
    /// Control-dependent on unproven data: never a definite finding.
    tainted: bool,
}

/// A discovered parallel start: started function and team size (when
/// the conventional `s2` team-size register held a constant there).
type Site = (u32, Option<i64>);

/// Dedup key for a collected access, so fixpoint revisits of the same
/// instruction with the same abstract shape record it once:
/// (pc, is-write, affine (a, lo, hi), size, team span, tainted).
type AccKey = (u32, bool, (i64, i64, i64), i64, (i64, i64), bool);

/// Runs the shared-memory determinism pass over a decoded image; the
/// findings and the fixpoint steps it took.
pub(crate) fn analyze(program: &Program<'_>) -> (Vec<Diag>, usize) {
    Engine::new(program, MAX_STEPS).analyze()
}

/// The shared fixpoint engine for both passes.
struct Engine<'a> {
    program: &'a Program<'a>,
    /// The per-instruction states of the running fixpoint, reused from
    /// one `interpret` to the next.
    fix: Fixpoint<MVal, Span>,
    /// Fixpoint steps all passes of the image may take together, and
    /// those taken so far.
    budget: usize,
    steps: usize,
    diags: Vec<Diag>,
    /// Dedup: (code, pc) pairs already reported.
    seen: BTreeSet<(&'static str, u32)>,
}

/// What a member-mode interpretation collects.
#[derive(Default)]
struct Collected {
    accesses: Vec<Access>,
    /// Stores through unknown addresses, by pc.
    unknown_stores: BTreeSet<u32>,
    /// Shared-pointer values stored to shared memory, by pc.
    escapes: BTreeSet<u32>,
    truncated: bool,
    /// The shapes already in `accesses`.
    seen: BTreeSet<AccKey>,
}

impl Collected {
    /// Classifies one memory access of a member body and records it.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        path: Span,
        span: i64,
        pc: u32,
        write: bool,
        addr: MVal,
        size: i64,
        value: MVal,
    ) {
        let aff = match addr {
            MVal::Priv => return,
            MVal::Unknown => {
                if write {
                    self.unknown_stores.insert(pc);
                }
                return;
            }
            MVal::Abs(aff) => aff,
        };
        // Normalize the offset to an unsigned 32-bit base (a `lui`-built
        // shared address decodes as a negative i32 constant) and bound
        // the footprint over the whole team in un-wrapped space.
        let base = (aff.lo as u32) as i64;
        let aff = Aff {
            a: aff.a,
            lo: base,
            hi: base + (aff.hi - aff.lo),
        };
        let tmax = span - 1;
        let (smin, smax) = if aff.a >= 0 {
            (aff.lo, aff.hi + aff.a * tmax)
        } else {
            (aff.lo + aff.a * tmax, aff.hi)
        };
        let (lo, hi) = (smin, smax + size);
        let shared = (SHARED_BASE as i64, IO_BASE as i64);
        if lo >= shared.0 && hi <= shared.1 {
            // Entirely shared: subject to the epoch disjointness check.
            if value.as_point().is_some_and(|v| {
                let v = (v as u32) as i64;
                v >= shared.0 && v < shared.1
            }) {
                self.escapes.insert(pc);
            }
            if self.accesses.len() >= MAX_ACCESSES {
                self.truncated = true;
                return;
            }
            let key = (
                pc,
                write,
                (aff.a, aff.lo, aff.hi),
                size,
                (path.tlo, path.thi),
                path.tainted,
            );
            if self.seen.insert(key) {
                self.accesses.push(Access {
                    pc,
                    write,
                    addr: aff,
                    size,
                    tlo: path.tlo.max(0),
                    thi: path.thi.min(tmax),
                    tainted: path.tainted,
                });
            }
        } else if hi <= shared.0 || lo >= shared.1 || lo < 0 || hi > (1i64 << 32) {
            // Entirely private/code/io, or wraps 32 bits: not this
            // pass's concern unless it wraps, which no provable address
            // does — degrade wrapping stores like unknown ones.
            if write && (lo < 0 || hi > (1i64 << 32)) {
                self.unknown_stores.insert(pc);
            }
        } else if write {
            // Straddles the shared-region boundary: unprovable.
            self.unknown_stores.insert(pc);
        }
    }
}

impl<'a> Engine<'a> {
    fn new(program: &'a Program<'a>, budget: usize) -> Engine<'a> {
        Engine {
            program,
            fix: Fixpoint::new(program),
            budget,
            steps: 0,
            diags: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    fn analyze(mut self) -> (Vec<Diag>, usize) {
        // Pass A: discover spawn sites from the entry point.
        let mut pending: VecDeque<Site> = VecDeque::new();
        let mut visited: BTreeSet<Site> = BTreeSet::new();
        let entry = self.program.image.entry;
        let (sites, _) = self.interpret(entry, fresh_hart(Span::of(1)), None);
        for s in sites {
            if visited.insert(s) {
                pending.push_back(s);
            }
        }

        // Pass B: analyze each spawned function as a team member; nested
        // parallel starts found inside members are analyzed in turn.
        let mut analyzed = 0usize;
        while let Some((func, nt)) = pending.pop_front() {
            if analyzed >= MAX_SITES {
                self.report(
                    Diag::new(
                        DiagCode::MUnprovableSubscript,
                        Severity::Warning,
                        0,
                        format!(
                            "more than {MAX_SITES} distinct parallel start sites; \
                             shared-memory analysis truncated"
                        ),
                    )
                    .with_pc(func),
                    func,
                );
                break;
            }
            analyzed += 1;
            let (nested, accesses) = self.member_pass(func, nt);
            self.check_epoch(func, nt, &accesses);
            for s in nested {
                if visited.insert(s) {
                    pending.push_back(s);
                }
            }
        }
        (self.diags, self.steps)
    }

    fn line(&self, pc: u32) -> usize {
        self.program.line(pc)
    }

    fn report(&mut self, diag: Diag, pc: u32) {
        if self.seen.insert((diag.code.as_str(), pc)) {
            self.diags.push(diag);
        }
    }

    /// Analyzes `func` as one team member of size `nt` and emits the
    /// per-access warnings; returns nested spawn sites and the shared
    /// accesses of the epoch.
    fn member_pass(&mut self, func: u32, nt: Option<i64>) -> (BTreeSet<Site>, Vec<Access>) {
        let span = nt.unwrap_or(2).clamp(1, MAX_TEAM);
        let mut seed = fresh_hart(Span::of(span));
        // The documented team ABI (lbp-omp codegen, mirrored by the
        // fuzzer): the member index arrives in `a0` (and `s1`), the team
        // size in `s2`, and the member runs on its own private stack.
        let t = MVal::Abs(Aff { a: 1, lo: 0, hi: 0 });
        seed.set(Reg::A0, t);
        seed.set(Reg::S1, t);
        if let Some(n) = nt {
            seed.set(Reg::S2, MVal::point(n));
        }
        let (sites, col) = self.interpret(func, seed, Some(span));
        let fname = self.program.name(func);
        for &pc in &col.unknown_stores {
            self.report(
                Diag::new(
                    DiagCode::MUnknownStore,
                    Severity::Warning,
                    self.line(pc),
                    format!(
                        "store at {pc:#x} in parallel epoch `{fname}` goes through an \
                         address of unknown provenance; cross-member disjointness \
                         cannot be proven"
                    ),
                )
                .with_pc(pc)
                .with_hint(
                    "address shared data as base + stride*member_index with \
                     compile-time base and stride",
                ),
                pc,
            );
        }
        for &pc in &col.escapes {
            self.report(
                Diag::new(
                    DiagCode::MEscapingPointer,
                    Severity::Warning,
                    self.line(pc),
                    format!(
                        "store at {pc:#x} in parallel epoch `{fname}` publishes a \
                         shared-region pointer to shared memory; accesses through it \
                         escape the epoch's footprint analysis"
                    ),
                )
                .with_pc(pc)
                .with_hint("pass addresses through registers or the cv frame instead"),
                pc,
            );
        }
        if col.truncated {
            self.report(
                Diag::new(
                    DiagCode::MUnprovableSubscript,
                    Severity::Warning,
                    self.line(func),
                    format!(
                        "parallel epoch `{fname}` has more than {MAX_ACCESSES} distinct \
                         shared accesses; disjointness checking truncated"
                    ),
                )
                .with_pc(func),
                func,
            );
        }
        (sites, col.accesses)
    }

    /// Worklist fixpoint from `root`. `member` carries the team span
    /// when interpreting a member body (enables access collection).
    fn interpret(
        &mut self,
        root: u32,
        seed: MState,
        member: Option<i64>,
    ) -> (BTreeSet<Site>, Collected) {
        let program = self.program;
        let mut sites: BTreeSet<Site> = BTreeSet::new();
        let mut col = Collected::default();
        self.fix.clear();
        if program.decodable(root) {
            self.fix.push(root, seed);
        }
        let ran = self
            .fix
            .run(program, self.budget - self.steps, |fix, pc, instr| {
                // Undecodable words are the protocol pass's B008 to flag, and
                // so is an edge that leaves the text: here it goes nowhere.
                let Some(instr) = instr else { return };
                let st = fix.state(pc);
                let facts = st.facts;
                // The team a parallel start here launches, when the
                // conventional team-size register holds a usable constant.
                let team = || {
                    let n = st.get(Reg::S2).as_point();
                    n.filter(|n| (2..=MAX_TEAM).contains(n))
                };
                let next = pc.wrapping_add(4);
                // As in the protocol pass: an arm is the register its
                // instruction writes before falling through, unless it steers
                // control, flows its own edges and returns.
                let write = match instr {
                    Instr::Lui { rd, imm } => (rd, MVal::point((imm as i32) as i64)),
                    Instr::Auipc { rd, imm } => {
                        (rd, MVal::point((pc.wrapping_add(imm) as i32) as i64))
                    }
                    Instr::OpImm { kind, rd, rs1, imm } => {
                        let a = st.get(rs1);
                        let v = match kind {
                            OpImmKind::Add => a.add(MVal::point(imm as i64)),
                            OpImmKind::Sll if (0..32).contains(&imm) => a.scale(1i64 << imm),
                            _ => match a.as_point() {
                                Some(p) => MVal::point((kind.eval(p as u32, imm) as i32) as i64),
                                None => MVal::Unknown,
                            },
                        };
                        (rd, v)
                    }
                    Instr::Op { kind, rd, rs1, rs2 } => {
                        let (a, b) = (st.get(rs1), st.get(rs2));
                        let v = match kind {
                            OpKind::Add => a.add(b),
                            OpKind::Sub => a.sub(b),
                            OpKind::Mul => match (a.as_point(), b.as_point()) {
                                (Some(k), _) => b.scale(k),
                                (_, Some(k)) => a.scale(k),
                                _ => MVal::Unknown,
                            },
                            OpKind::Sll => match b.as_point() {
                                Some(s) if (0..32).contains(&s) => a.scale(1i64 << s),
                                _ => MVal::Unknown,
                            },
                            _ => match (a.as_point(), b.as_point()) {
                                (Some(x), Some(y)) => {
                                    MVal::point((kind.eval(x as u32, y as u32) as i32) as i64)
                                }
                                _ => MVal::Unknown,
                            },
                        };
                        (rd, v)
                    }
                    Instr::Load {
                        kind,
                        rd,
                        rs1,
                        offset,
                    } => {
                        if let Some(span) = member {
                            col.record(
                                facts,
                                span,
                                pc,
                                false,
                                st.get(rs1).add(MVal::point(offset as i64)),
                                kind.size() as i64,
                                MVal::Unknown,
                            );
                        }
                        (rd, MVal::Unknown)
                    }
                    Instr::Store {
                        kind,
                        rs1,
                        rs2,
                        offset,
                    } => {
                        if let Some(span) = member {
                            col.record(
                                facts,
                                span,
                                pc,
                                true,
                                st.get(rs1).add(MVal::point(offset as i64)),
                                kind.size() as i64,
                                st.get(rs2),
                            );
                        }
                        MVal::KEEP
                    }
                    Instr::Branch {
                        kind,
                        rs1,
                        rs2,
                        offset,
                    } => {
                        let target = pc.wrapping_add(offset as u32);
                        let (a, b) = (st.get(rs1), st.get(rs2));
                        let (taken, fall) = match (a.as_point(), b.as_point()) {
                            // Decidable: only the real side.
                            (Some(x), Some(y)) => {
                                let taken = kind.taken(x as u32, y as u32);
                                (taken.then_some(facts), (!taken).then_some(facts))
                            }
                            _ => refine(facts, kind, a, b),
                        };
                        if let Some(facts) = taken {
                            fix.flow(pc, target, MVal::KEEP, facts);
                        }
                        if let Some(facts) = fall {
                            fix.flow(pc, next, MVal::KEEP, facts);
                        }
                        return;
                    }
                    Instr::Jal { rd, offset } => {
                        return jump(fix, program, pc, rd, Some(pc.wrapping_add(offset as u32)));
                    }
                    Instr::Jalr { rd, rs1, offset } => {
                        let base = st.get(rs1).as_point();
                        let target = base.map(|b| (b as u32).wrapping_add(offset as u32) & !1);
                        return jump(fix, program, pc, rd, target);
                    }
                    Instr::PFc { rd }
                    | Instr::PFn { rd }
                    | Instr::PSet { rd, .. }
                    | Instr::PMerge { rd, .. }
                    | Instr::PLwcv { rd, .. }
                    | Instr::PLwre { rd, .. } => (rd, MVal::Unknown),
                    Instr::PSyncm | Instr::PSwre { .. } | Instr::PSwcv { .. } => MVal::KEEP,
                    Instr::PJalr { rd, rs2, .. } => {
                        // rd = x0 is p_ret: the member body (and this path)
                        // ends.
                        if !rd.is_zero() {
                            if let Some(f) = st.get(rs2).as_point() {
                                sites.insert(((f as u32) & !1, team()));
                            }
                            // The freshly started hart runs the continuation
                            // at pc + 4 with a clean register file; the
                            // spawned function is analyzed as its own epoch.
                            fix.push(next, fresh_hart(facts));
                        }
                        return;
                    }
                    Instr::PJal { offset, .. } => {
                        sites.insert((pc.wrapping_add(offset as u32), team()));
                        fix.push(next, fresh_hart(facts));
                        return;
                    }
                };
                fix.flow(pc, next, write, facts);
            });
        self.steps += ran.steps;
        if ran.cut {
            self.report(
                Diag::new(
                    DiagCode::MUnprovableSubscript,
                    Severity::Warning,
                    self.line(root),
                    format!(
                        "analysis budget of {MAX_STEPS} steps exhausted while \
                         interpreting from {root:#x}; shared accesses beyond the \
                         explored paths were not checked"
                    ),
                )
                .with_pc(root),
                root,
            );
        }
        (sites, col)
    }

    /// The cross-member disjointness check for one epoch.
    fn check_epoch(&mut self, func: u32, nt: Option<i64>, accesses: &[Access]) {
        let fname = self.program.name(func);
        let span = nt.unwrap_or(2).clamp(1, MAX_TEAM);
        if span < 2 {
            return;
        }
        let mut budget = PAIR_BUDGET;
        let mut over_budget = false;
        for i in 0..accesses.len() {
            for j in i..accesses.len() {
                let (x, y) = (accesses[i], accesses[j]);
                if !x.write && !y.write {
                    continue;
                }
                if let Some((t1, t2)) = overlap_pair(&x, &y, &mut budget) {
                    let exact = x.addr.is_exact()
                        && y.addr.is_exact()
                        && !x.tainted
                        && !y.tainted
                        && nt.is_some();
                    self.report_overlap(&fname, &x, &y, t1, t2, exact);
                } else if budget == 0 {
                    over_budget = true;
                }
            }
        }
        if over_budget {
            self.report(
                Diag::new(
                    DiagCode::MUnprovableSubscript,
                    Severity::Warning,
                    self.line(func),
                    format!(
                        "parallel epoch `{fname}`: pairwise footprint budget exhausted; \
                         some access pairs were not checked"
                    ),
                )
                .with_pc(func),
                func,
            );
        }
        self.check_bank_aliasing(func, &fname, nt, accesses);
    }

    /// Emits `M001`/`M002` (definite) or `M003` (unprovable) for an
    /// overlapping access pair.
    fn report_overlap(
        &mut self,
        fname: &str,
        x: &Access,
        y: &Access,
        t1: i64,
        t2: i64,
        exact: bool,
    ) {
        let (w, o) = if x.write { (x, y) } else { (y, x) };
        let both_write = x.write && y.write;
        let pc = w.pc.min(o.pc);
        let what = if both_write { "write" } else { "access" };
        let witness = format!(
            "member t={t1} {what}s {} at {:#x} while member t={t2} {}s {} at {:#x}",
            footprint_str(&x.addr, x.size, t1),
            x.pc,
            if y.write { "write" } else { "read" },
            footprint_str(&y.addr, y.size, t2),
            y.pc,
        );
        if exact {
            let (code, msg) = if both_write {
                (
                    DiagCode::MOverlappingWrite,
                    format!(
                        "parallel epoch `{fname}`: two members' shared stores \
                         (pc {:#x} and {:#x}) overlap; the final value depends on \
                         arrival order",
                        x.pc, y.pc
                    ),
                )
            } else {
                (
                    DiagCode::MRacingRead,
                    format!(
                        "parallel epoch `{fname}`: a member reads a shared address \
                         (pc {:#x}) another member writes (pc {:#x}); the loaded \
                         value depends on arrival order",
                        o.pc, w.pc
                    ),
                )
            };
            self.report(
                Diag::new(code, Severity::Error, self.line(pc), msg)
                    .with_pc(pc)
                    .with_witness(witness)
                    .with_hint(
                        "give each member a disjoint slice \
                         (base + stride*member_index) or privatize the data",
                    ),
                pc,
            );
        } else {
            self.report(
                Diag::new(
                    DiagCode::MUnprovableSubscript,
                    Severity::Warning,
                    self.line(pc),
                    format!(
                        "parallel epoch `{fname}`: shared accesses at pc {:#x} and \
                         {:#x} cannot be proven member-disjoint",
                        x.pc, y.pc
                    ),
                )
                .with_pc(pc)
                .with_witness(witness),
                pc,
            );
        }
    }

    /// `M006`: the whole team's write footprint serializes at one bank.
    fn check_bank_aliasing(
        &mut self,
        _func: u32,
        fname: &str,
        nt: Option<i64>,
        accesses: &[Access],
    ) {
        let Some(n) = nt else { return };
        if n <= HARTS_PER_CORE as i64 {
            return;
        }
        let writes: Vec<&Access> = accesses.iter().filter(|a| a.write).collect();
        if writes.is_empty() {
            return;
        }
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        let mut pc = u32::MAX;
        for w in &writes {
            let tmax = n - 1;
            let (smin, smax) = if w.addr.a >= 0 {
                (w.addr.lo, w.addr.hi + w.addr.a * tmax)
            } else {
                (w.addr.lo + w.addr.a * tmax, w.addr.hi)
            };
            lo = lo.min(smin);
            hi = hi.max(smax + w.size);
            pc = pc.min(w.pc);
        }
        // The default shared-bank geometry, which `M006` assumes.
        let bank_bytes = i64::from(DEFAULT_SHARED_BANK_BYTES);
        let b0 = (lo - SHARED_BASE as i64) / bank_bytes;
        let b1 = (hi - 1 - SHARED_BASE as i64) / bank_bytes;
        if b0 == b1 {
            self.report(
                Diag::new(
                    DiagCode::MBankAliasing,
                    Severity::Info,
                    self.line(pc),
                    format!(
                        "parallel epoch `{fname}`: all {n} members' shared writes fall \
                         in shared bank {b0} (default 64 KiB/core geometry) while the \
                         team spans {} cores; the bank serializes the traffic",
                        (n + HARTS_PER_CORE as i64 - 1) / HARTS_PER_CORE as i64
                    ),
                )
                .with_pc(pc)
                .with_hint(
                    "spread member slices across banks (stride >= the bank size, or \
                     interleave by core)",
                ),
                pc,
            );
        }
    }
}

/// The edges of the `jal`/`jalr` at `pc` linking `rd`; `target` is `None`
/// for an indirect jump through a register the lattice cannot name.
fn jump(
    fix: &mut Fixpoint<MVal, Span>,
    program: &Program<'_>,
    pc: u32,
    rd: Reg,
    target: Option<u32>,
) {
    let st = fix.state(pc);
    let facts = st.facts;
    let next = pc.wrapping_add(4);
    if rd.is_zero() {
        // A plain jump; with an unknown target the path ends here.
        if let Some(target) = target {
            fix.flow(pc, target, MVal::KEEP, facts);
        }
    } else {
        // Follow the callee with a linked return address (keeps argument
        // affinity visible inside helpers) *and* summarize with a havoc
        // edge, built before the callee edge can touch the state here.
        let mut returned = st.clone();
        returned.havoc_call();
        if let Some(target) = target.filter(|&t| program.decodable(t)) {
            fix.flow(pc, target, (rd, MVal::point(next as i64)), facts);
        }
        fix.push(next, returned);
    }
}

/// Branch handling when the condition is not decidable: refine the
/// member-index range when the comparison is exactly `t + k` against a
/// constant; otherwise taint both sides (control now depends on data
/// the lattice cannot prove uniform across members).
fn refine(path: Span, kind: lbp_isa::BranchKind, a: MVal, b: MVal) -> (Option<Span>, Option<Span>) {
    use lbp_isa::BranchKind as B;
    let dep = |v: MVal| matches!(v, MVal::Abs(x) if x.a != 0);
    // value = t + k (exact), compared against a point constant.
    let exact_t = |v: MVal| match v {
        MVal::Abs(x) if x.a == 1 && x.lo == x.hi => Some(x.lo),
        _ => None,
    };
    let mut taken = path;
    let mut fall = path;
    match (exact_t(a), b.as_point(), a.as_point(), exact_t(b)) {
        // t + k <op> c, with everything small and non-negative so the
        // signed and unsigned comparisons agree.
        (Some(k), Some(c), _, _) if k >= 0 && c >= 0 && c < i64::from(i32::MAX) => {
            let c = c - k; // constraint on t itself
            match kind {
                B::Eq => {
                    taken.tlo = taken.tlo.max(c);
                    taken.thi = taken.thi.min(c);
                    if fall.tlo == c {
                        fall.tlo += 1;
                    }
                    if fall.thi == c {
                        fall.thi -= 1;
                    }
                }
                B::Ne => {
                    fall.tlo = fall.tlo.max(c);
                    fall.thi = fall.thi.min(c);
                    if taken.tlo == c {
                        taken.tlo += 1;
                    }
                    if taken.thi == c {
                        taken.thi -= 1;
                    }
                }
                B::Lt | B::Ltu => {
                    taken.thi = taken.thi.min(c - 1);
                    fall.tlo = fall.tlo.max(c);
                }
                B::Ge | B::Geu => {
                    taken.tlo = taken.tlo.max(c);
                    fall.thi = fall.thi.min(c - 1);
                }
            }
        }
        // c <op> t + k: mirror.
        (_, _, Some(c), Some(k)) if k >= 0 && c >= 0 && c < i64::from(i32::MAX) => {
            let c = c - k;
            match kind {
                B::Eq => {
                    taken.tlo = taken.tlo.max(c);
                    taken.thi = taken.thi.min(c);
                    if fall.tlo == c {
                        fall.tlo += 1;
                    }
                    if fall.thi == c {
                        fall.thi -= 1;
                    }
                }
                B::Ne => {
                    fall.tlo = fall.tlo.max(c);
                    fall.thi = fall.thi.min(c);
                    if taken.tlo == c {
                        taken.tlo += 1;
                    }
                    if taken.thi == c {
                        taken.thi -= 1;
                    }
                }
                B::Lt | B::Ltu => {
                    taken.tlo = taken.tlo.max(c + 1);
                    fall.thi = fall.thi.min(c);
                }
                B::Ge | B::Geu => {
                    taken.thi = taken.thi.min(c);
                    fall.tlo = fall.tlo.max(c + 1);
                }
            }
        }
        _ => {
            if dep(a) || dep(b) || a == MVal::Unknown || b == MVal::Unknown {
                taken.tainted = true;
                fall.tainted = true;
            }
        }
    }
    let keep = |s: Span| (s.tlo <= s.thi).then_some(s);
    (keep(taken), keep(fall))
}

/// Finds a member pair `t1 ≠ t2` whose footprints can overlap.
fn overlap_pair(x: &Access, y: &Access, budget: &mut usize) -> Option<(i64, i64)> {
    let wx = x.addr.hi - x.addr.lo + x.size;
    let wy = y.addr.hi - y.addr.lo + y.size;
    let hit = |t1: i64, t2: i64| {
        let sx = x.addr.lo + x.addr.a * t1;
        let sy = y.addr.lo + y.addr.a * t2;
        sx < sy + wy && sy < sx + wx
    };
    if x.addr.a == y.addr.a {
        // Equal strides: overlap depends only on the member distance
        // `d = t1 - t2`, so one representative pair per distance.
        let dmin = x.tlo - y.thi;
        let dmax = x.thi - y.tlo;
        for d in dmin..=dmax {
            if d == 0 {
                continue;
            }
            let t2 = y.tlo.max(x.tlo - d);
            if t2 > y.thi || t2 + d > x.thi {
                continue;
            }
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            if hit(t2 + d, t2) {
                return Some((t2 + d, t2));
            }
        }
        return None;
    }
    for t1 in x.tlo..=x.thi {
        for t2 in y.tlo..=y.thi {
            if t1 == t2 {
                continue;
            }
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            if hit(t1, t2) {
                return Some((t1, t2));
            }
        }
    }
    None
}

/// Renders one member's footprint, e.g. `[0x80000040, 0x80000044)`.
fn footprint_str(addr: &Aff, size: i64, t: i64) -> String {
    let s = addr.lo + addr.a * t;
    let e = addr.hi + addr.a * t + size;
    format!("[{s:#x}, {e:#x})")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aff(a: i64, lo: i64, hi: i64) -> Aff {
        Aff { a, lo, hi }
    }

    /// An analysis that stops on its budget has not looked at every
    /// access: it says so, at the root it was interpreting from.
    #[test]
    fn a_cut_short_analysis_says_so() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/m_overlap_write.s"
        );
        let image = lbp_asm::assemble(&std::fs::read_to_string(path).unwrap()).unwrap();
        let program = Program::new(&image);
        let budget_warnings = |diags: &[Diag]| -> Vec<Option<u32>> {
            let cut = diags.iter().filter(|d| d.message.contains("budget"));
            cut.map(|d| {
                assert_eq!(
                    (d.code, d.severity),
                    (DiagCode::MUnprovableSubscript, Severity::Warning)
                );
                d.pc
            })
            .collect()
        };

        let (full, steps) = analyze(&program);
        assert!(full.iter().any(|d| d.code == DiagCode::MOverlappingWrite));
        assert_eq!(budget_warnings(&full), []);

        // One step short: the member body, interpreted last, is cut.
        let (short, used) = Engine::new(&program, steps - 1).analyze();
        assert_eq!(used, steps - 1);
        assert_eq!(budget_warnings(&short), [image.symbol("work")]);

        // Cut in the entry walk: no start site is found, one warning.
        let (blind, used) = Engine::new(&program, 3).analyze();
        assert_eq!(used, 3);
        assert_eq!(budget_warnings(&blind), [Some(image.entry)]);
        assert_eq!(blind.len(), 1);
    }

    #[test]
    fn meet_widens_point_interval_unknown() {
        let p0 = MVal::point(4);
        let p1 = MVal::point(8);
        let widened = p0.meet(p1);
        assert_eq!(widened, MVal::Abs(aff(0, 4, 8)));
        // Absorbing a contained point is stable...
        assert_eq!(widened.meet(MVal::point(6)), widened);
        // ...but growing an interval again gives up.
        assert_eq!(widened.meet(MVal::point(9)), MVal::Unknown);
        // Stride mismatch gives up immediately.
        assert_eq!(
            MVal::Abs(aff(4, 0, 0)).meet(MVal::Abs(aff(8, 0, 0))),
            MVal::Unknown
        );
        // Private stays private only against itself.
        assert_eq!(MVal::Priv.meet(MVal::Priv), MVal::Priv);
        assert_eq!(MVal::Priv.meet(p0), MVal::Unknown);
    }

    #[test]
    fn affine_arithmetic() {
        let t4 = MVal::Abs(aff(4, 0, 0));
        assert_eq!(t4.add(MVal::point(16)), MVal::Abs(aff(4, 16, 16)));
        assert_eq!(t4.scale(8), MVal::Abs(aff(32, 0, 0)));
        assert_eq!(t4.sub(t4), MVal::point(0));
        assert_eq!(MVal::Priv.add(MVal::point(-64)), MVal::Priv);
        assert_eq!(MVal::Priv.add(t4), MVal::Unknown);
        // Magnitude clamp.
        assert_eq!(MVal::point(1 << 33).scale(1 << 10), MVal::Unknown);
    }

    #[test]
    fn overlap_disjoint_strides() {
        // sw to base + 16t, 4 bytes, team of 4: provably disjoint.
        let w = |pc: u32| Access {
            pc,
            write: true,
            addr: aff(16, 0x8000_0000, 0x8000_0000),
            size: 4,
            tlo: 0,
            thi: 3,
            tainted: false,
        };
        let mut budget = 1000;
        assert_eq!(overlap_pair(&w(0), &w(0), &mut budget), None);
        // A footprint wider than the stride makes t and t+1 collide.
        let wide = Access { size: 20, ..w(4) };
        assert!(overlap_pair(&wide, &wide, &mut budget).is_some());
    }

    #[test]
    fn overlap_const_vs_stride() {
        // Member-strided writes at 0x80000000 + 8t (4 bytes) vs a fixed
        // read at 0x80000010: only member t=2 touches it.
        let w = Access {
            pc: 0,
            write: true,
            addr: aff(8, 0x8000_0000, 0x8000_0000),
            size: 4,
            tlo: 0,
            thi: 7,
            tainted: false,
        };
        let r = Access {
            pc: 4,
            write: false,
            addr: aff(0, 0x8000_0010, 0x8000_0010),
            size: 4,
            tlo: 0,
            thi: 7,
            tainted: false,
        };
        let mut budget = 1000;
        let (t1, t2) = overlap_pair(&w, &r, &mut budget).unwrap();
        assert_eq!(t1, 2);
        assert_ne!(t1, t2);
    }
}
