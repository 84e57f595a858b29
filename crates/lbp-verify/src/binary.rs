//! Binary-level verification of the PISC fork/join protocol.
//!
//! Two cooperating passes over an assembled [`Image`]:
//!
//! 1. **Slot liveness** (flow-insensitive): every `p_lwre` receive slot
//!    must have a `p_swre` sender somewhere in the image, and every
//!    `p_lwcv` continuation-value slot a `p_swcv` writer. A receive with
//!    no possible sender blocks its hart forever on real hardware; the
//!    dynamic detector of `lbp-sim` can only report it after simulating
//!    one input — this pass rejects it before any cycle is spent.
//!
//! 2. **Fork-protocol abstract interpretation** (flow-sensitive): a
//!    worklist fixpoint over per-instruction abstract states tracking,
//!    for each register, whether it definitely holds a fork result
//!    (`p_fc`/`p_fn`), a stamped or merged identity word (`p_set` /
//!    `p_merge`), or a known constant — plus which continuation-value
//!    slots have been transmitted since the last fork and whether a
//!    `p_syncm` has drained them. The pass flags transmissions to
//!    registers that cannot name an allocated hart, parallel starts
//!    without a merged identity or without an intervening `p_syncm`,
//!    continuations that read untransmitted cv slots, malformed `p_ret`
//!    identity words, and control flow that runs off the text section.
//!
//! The interpretation is *witness-directed*: a diagnostic is emitted
//! only when the abstract state proves the violation on some path
//! (`Unknown` operands always pass), so every hand-written or generated
//! program in the repository verifies clean while each seeded protocol
//! mistake is rejected with a precise wait-reason. See DESIGN.md for the
//! lattice and the soundness/completeness trade-off.

use std::collections::{BTreeMap, BTreeSet};

use lbp_asm::Image;
use lbp_isa::{Instr, Reg};

use crate::diag::{Diag, DiagCode, Severity};
use crate::flow::{Facts, Fixpoint, Program, State, Value};

/// Safety bound on fixpoint steps. The protocol lattice is a few drops
/// high (constant → unknown, `Known` masks only grow), so termination is
/// guaranteed well below it; this only keeps a bug from turning
/// verification into a hang, and running into it is not reported.
const MAX_STEPS: usize = 4_000_000;

/// Verifies an assembled image against the PISC fork/join protocol.
///
/// Returns all findings; the program is acceptable iff
/// [`crate::accepted`] holds on the result.
pub fn verify_image(image: &Image) -> Vec<Diag> {
    verify_counted(image).0
}

/// [`verify_image`] with the fixpoint steps the B-pass and the M-pass took.
fn verify_counted(image: &Image) -> (Vec<Diag>, [usize; 2]) {
    let program = Program::new(image);
    let mut diags = slot_liveness(&program);
    let (protocol, b_steps) = Interp::new(&program).run();
    diags.extend(protocol);
    let (memory, m_steps) = crate::mpass::analyze(&program);
    diags.extend(memory);
    diags.sort_by_key(|d| (d.line, d.code.as_str()));
    (diags, [b_steps, m_steps])
}

/// Pass 1: flow-insensitive result-buffer and cv-frame slot liveness.
fn slot_liveness(program: &Program<'_>) -> Vec<Diag> {
    // slot -> first pc that reads it
    let mut lwre: BTreeMap<i32, u32> = BTreeMap::new();
    let mut lwcv: BTreeMap<i32, u32> = BTreeMap::new();
    let mut swre: BTreeSet<i32> = BTreeSet::new();
    let mut swcv: BTreeSet<i32> = BTreeSet::new();
    for (i, instr) in program.code.iter().enumerate() {
        let pc = Program::pc_of(i);
        match *instr {
            Some(Instr::PLwre { offset, .. }) => {
                lwre.entry(offset).or_insert(pc);
            }
            Some(Instr::PSwre { offset, .. }) => {
                swre.insert(offset);
            }
            Some(Instr::PLwcv { offset, .. }) => {
                lwcv.entry(offset).or_insert(pc);
            }
            Some(Instr::PSwcv { offset, .. }) => {
                swcv.insert(offset);
            }
            _ => {}
        }
    }
    let mut diags = Vec::new();
    for (&slot, &pc) in &lwre {
        if !swre.contains(&slot) {
            diags.push(
                Diag::new(
                    DiagCode::BRecvNoSender,
                    Severity::Error,
                    program.line(pc),
                    format!(
                        "p_lwre at {pc:#x} receives from result-buffer slot {slot}, \
                         but no p_swre in the image ever sends to slot {slot}: \
                         the hart blocks forever"
                    ),
                )
                .with_pc(pc)
                .with_wait_reason(format!("a p_swre result in slot {slot} that is never sent"))
                .with_hint(format!(
                    "add a matching `p_swre <value>, <join-hart>, {slot}` on the \
                     producing hart, or drop the receive"
                )),
            );
        }
    }
    for (&slot, &pc) in &lwcv {
        if !swcv.contains(&slot) {
            diags.push(
                Diag::new(
                    DiagCode::BCvNeverSent,
                    Severity::Error,
                    program.line(pc),
                    format!(
                        "p_lwcv at {pc:#x} loads continuation-value slot {slot}, \
                         but no p_swcv in the image ever writes slot {slot}"
                    ),
                )
                .with_pc(pc)
                .with_wait_reason(format!(
                    "a continuation value in cv slot {slot} that is never transmitted"
                ))
                .with_hint(format!(
                    "transmit the slot with `p_swcv <value>, <allocated-hart>, {slot}` \
                     before starting the hart"
                )),
            );
        }
    }
    diags
}

/// What a register definitely holds on the abstract path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Anything: always passes every check.
    Unknown,
    /// A known 32-bit constant (from `li`/`lui`/ALU chains).
    Const(i32),
    /// The result of `p_fc`/`p_fn`: an allocated hart id.
    Fork,
    /// The result of `p_set`: identity word, valid flag set, stale low half.
    Stamped,
    /// The result of `p_merge`: join + allocated identity word.
    Merged,
}

impl Value for AbsVal {
    const UNKNOWN: AbsVal = AbsVal::Unknown;
    const ZERO: AbsVal = AbsVal::Const(0);

    fn meet(self, other: AbsVal) -> AbsVal {
        if self == other {
            self
        } else {
            AbsVal::Unknown
        }
    }
}

/// Which cv-frame slots this hart's forker definitely transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CvAvail {
    /// Not known to be a fork continuation: `p_lwcv` always passes.
    Any,
    /// Fork continuation with exactly this transmitted-slot bitmask.
    Known(u32),
}

impl CvAvail {
    fn meet(self, other: CvAvail) -> CvAvail {
        match (self, other) {
            // The permissive union: a slot is "available" if any path
            // transmitted it, so a miss is definite on every path.
            (CvAvail::Known(a), CvAvail::Known(b)) => CvAvail::Known(a | b),
            _ => CvAvail::Any,
        }
    }
}

/// Whether transmitted continuation values have drained (`p_syncm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sync {
    /// No un-drained `p_swcv` outstanding.
    Clean,
    /// A `p_swcv` happened since the last `p_syncm`.
    Dirty,
    /// Differs between paths.
    Maybe,
}

impl Sync {
    fn meet(self, other: Sync) -> Sync {
        if self == other {
            self
        } else {
            Sync::Maybe
        }
    }
}

/// The protocol facts of a path, beside its registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Proto {
    /// Bitmask of cv slots written since the last fork (to its target).
    cv_sent: u32,
    cv_avail: CvAvail,
    sync: Sync,
}

impl Facts for Proto {
    fn meet(self, other: Proto) -> Proto {
        Proto {
            cv_sent: self.cv_sent | other.cv_sent,
            cv_avail: self.cv_avail.meet(other.cv_avail),
            sync: self.sync.meet(other.sync),
        }
    }
}

/// The per-program-point abstract state.
type AbsState = State<AbsVal, Proto>;

/// The state a root (entry point or label) starts in: no assumptions.
fn root_state() -> AbsState {
    State::unknown(Proto {
        cv_sent: 0,
        cv_avail: CvAvail::Any,
        sync: Sync::Maybe,
    })
}

/// The state a fork continuation starts in at `pc + 4`: a fresh hart
/// whose only guaranteed context is the transmitted cv frame.
fn continuation(forker: Proto) -> AbsState {
    State::unknown(Proto {
        cv_sent: 0,
        cv_avail: CvAvail::Known(forker.cv_sent),
        sync: Sync::Clean,
    })
}

/// The fixpoint engine for pass 2.
struct Interp<'a> {
    program: &'a Program<'a>,
    diags: Vec<Diag>,
    /// Dedup: (code, pc) pairs already reported.
    seen: BTreeSet<(&'static str, u32)>,
}

type Protocol = Fixpoint<AbsVal, Proto>;

impl<'a> Interp<'a> {
    fn new(program: &'a Program<'a>) -> Interp<'a> {
        Interp {
            program,
            diags: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Runs the fixpoint; the findings and the steps it took.
    fn run(mut self) -> (Vec<Diag>, usize) {
        // Roots: the entry point and every text symbol that decodes as an
        // instruction (function labels, branch targets; `.word` tables
        // embedded in text are skipped). All start with no assumptions,
        // so extra roots can only mask findings, never invent them.
        let program = self.program;
        let mut fix = Protocol::new(program);
        for pc in std::iter::once(program.image.entry).chain(program.labelled()) {
            if program.decodable(pc) {
                fix.push(pc, root_state());
            }
        }
        let ran = fix.run(program, MAX_STEPS, |fix, pc, instr| {
            self.step(fix, pc, instr)
        });
        (self.diags, ran.steps)
    }

    /// The edge from the instruction at `from` to `pc` found no text word
    /// to land on: the predecessor's finding.
    fn fell_off(&mut self, from: u32, pc: u32) {
        self.report(
            Diag::new(
                DiagCode::BFallsOffText,
                Severity::Error,
                self.program.line(from),
                format!(
                    "control flow at {from:#x} continues to {pc:#x}, \
                     outside the text section"
                ),
            )
            .with_pc(from)
            .with_hint("end the path with p_ret (t0 = -1 and ra = 0 exit the program)"),
            from,
        );
    }

    fn report(&mut self, diag: Diag, pc: u32) {
        if self.seen.insert((diag.code.as_str(), pc)) {
            self.diags.push(diag);
        }
    }

    /// Interprets the instruction at `pc` and pushes successor states.
    fn step(&mut self, fix: &mut Protocol, pc: u32, instr: Option<Instr>) {
        let Some(instr) = instr else {
            let word = self
                .program
                .image
                .text_word(pc)
                .expect("queued pcs are in text");
            self.report(
                Diag::new(
                    DiagCode::BFallsOffText,
                    Severity::Error,
                    self.program.line(pc),
                    format!(
                        "control flow reaches {pc:#x}, which holds the \
                         undecodable word {word:#010x}"
                    ),
                )
                .with_pc(pc)
                .with_hint("keep data out of executed paths; end code with p_ret"),
                pc,
            );
            return;
        };
        let st = fix.state(pc);
        let mut facts = st.facts;
        let next = pc.wrapping_add(4);
        // Most instructions fall through with one register written: their
        // arm is that write, met into `next` straight from the state at
        // `pc`. The arms that steer control flow their own edges and
        // return.
        let write = match instr {
            Instr::Lui { rd, imm } => (rd, AbsVal::Const(imm as i32)),
            Instr::Auipc { rd, imm } => (rd, AbsVal::Const(pc.wrapping_add(imm) as i32)),
            Instr::OpImm { kind, rd, rs1, imm } => match st.get(rs1) {
                AbsVal::Const(a) => (rd, AbsVal::Const(kind.eval(a as u32, imm) as i32)),
                _ => (rd, AbsVal::Unknown),
            },
            Instr::Op { kind, rd, rs1, rs2 } => match (st.get(rs1), st.get(rs2)) {
                (AbsVal::Const(a), AbsVal::Const(b)) => {
                    (rd, AbsVal::Const(kind.eval(a as u32, b as u32) as i32))
                }
                _ => (rd, AbsVal::Unknown),
            },
            Instr::Load { rd, .. } | Instr::PLwre { rd, .. } => (rd, AbsVal::Unknown),
            Instr::Store { .. } | Instr::PSwre { .. } => AbsVal::KEEP,
            Instr::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let target = pc.wrapping_add(offset as u32);
                let (to_target, to_next) = match (st.get(rs1), st.get(rs2)) {
                    // Decidable: explore only the real side.
                    (AbsVal::Const(a), AbsVal::Const(b)) => {
                        let taken = kind.taken(a as u32, b as u32);
                        (taken, !taken)
                    }
                    _ => (true, true),
                };
                if to_target {
                    self.flow(fix, pc, target, AbsVal::KEEP, facts);
                }
                if to_next {
                    self.flow(fix, pc, next, AbsVal::KEEP, facts);
                }
                return;
            }
            Instr::Jal { rd, offset } if rd.is_zero() => {
                let target = pc.wrapping_add(offset as u32);
                self.flow(fix, pc, target, AbsVal::KEEP, facts);
                return;
            }
            Instr::Jalr { rd, rs1, offset } if rd.is_zero() => {
                // An indirect jump or return: follow it only when the
                // target is known; otherwise the path ends here.
                if let AbsVal::Const(base) = st.get(rs1) {
                    let target = (base as u32).wrapping_add(offset as u32) & !1;
                    self.flow(fix, pc, target, AbsVal::KEEP, facts);
                }
                return;
            }
            Instr::Jal { .. } | Instr::Jalr { .. } => {
                // A call: the callee is analyzed from its own root; model
                // only its effects here — caller-saved registers, and
                // whatever it transmitted or drained.
                let mut returned = st.clone();
                returned.havoc_call();
                returned.facts.sync = Sync::Maybe;
                self.push(fix, pc, next, returned);
                return;
            }
            Instr::PFc { rd } | Instr::PFn { rd } => {
                facts.cv_sent = 0;
                (rd, AbsVal::Fork)
            }
            Instr::PSet { rd, .. } => (rd, AbsVal::Stamped),
            Instr::PMerge { rd, .. } => (rd, AbsVal::Merged),
            Instr::PSyncm => {
                facts.sync = Sync::Clean;
                AbsVal::KEEP
            }
            Instr::PSwcv { rs1, offset, .. } => {
                // rs1 names the allocated hart whose cv frame is written.
                match st.get(rs1) {
                    AbsVal::Fork | AbsVal::Unknown => {}
                    held => {
                        self.report(
                            Diag::new(
                                DiagCode::BSwcvNoFork,
                                Severity::Error,
                                self.program.line(pc),
                                format!(
                                    "p_swcv at {pc:#x} transmits to the hart named by \
                                     `{rs1}`, which holds {} — not the result of a \
                                     p_fc/p_fn fork",
                                    describe(held)
                                ),
                            )
                            .with_pc(pc)
                            .with_wait_reason(
                                "a continuation value delivered to a hart that was \
                                 never allocated",
                            )
                            .with_hint("fork first (p_fc/p_fn) and pass its result register"),
                            pc,
                        );
                    }
                }
                if (0..128).contains(&offset) {
                    facts.cv_sent |= 1 << (offset / 4);
                }
                facts.sync = Sync::Dirty;
                AbsVal::KEEP
            }
            Instr::PLwcv { rd, offset } => {
                if let CvAvail::Known(mask) = facts.cv_avail {
                    let bit = if (0..128).contains(&offset) {
                        1u32 << (offset / 4)
                    } else {
                        0
                    };
                    if mask & bit == 0 {
                        self.report(
                            Diag::new(
                                DiagCode::BContinuationSlot,
                                Severity::Error,
                                self.program.line(pc),
                                format!(
                                    "p_lwcv at {pc:#x} reads cv slot {offset}, but the \
                                     forking hart only transmitted slots {}",
                                    mask_slots(mask)
                                ),
                            )
                            .with_pc(pc)
                            .with_wait_reason(format!(
                                "a continuation value in cv slot {offset} that its \
                                 forker never transmitted"
                            ))
                            .with_hint(format!(
                                "add `p_swcv <value>, <allocated-hart>, {offset}` \
                                 before the p_jalr/p_jal start"
                            )),
                            pc,
                        );
                    }
                }
                (rd, AbsVal::Unknown)
            }
            Instr::PJalr { rd, rs1, rs2 } => {
                if rd.is_zero() {
                    self.check_p_ret(pc, st, rs1, rs2);
                    // The hart ends, waits for a join, or exits: in every
                    // case this static path is over.
                } else {
                    self.check_start(pc, st, rs1);
                    // pc+4 is the continuation on the freshly started
                    // hart; the local hart continues inside the callee,
                    // which is analyzed from its own root.
                    self.push(fix, pc, next, continuation(facts));
                }
                return;
            }
            Instr::PJal { rd, rs1, offset } => {
                self.check_start(pc, st, rs1);
                self.push(fix, pc, next, continuation(facts));
                let target = pc.wrapping_add(offset as u32);
                self.flow(fix, pc, target, (rd, AbsVal::Const(0)), facts);
                return;
            }
        };
        self.flow(fix, pc, next, write, facts);
    }

    /// [`Fixpoint::push`] along the edge `from` → `pc`.
    fn push(&mut self, fix: &mut Protocol, from: u32, pc: u32, state: AbsState) {
        if !fix.push(pc, state) {
            self.fell_off(from, pc);
        }
    }

    /// [`Fixpoint::flow`] along the edge `from` → `pc`.
    fn flow(&mut self, fix: &mut Protocol, from: u32, pc: u32, write: (Reg, AbsVal), facts: Proto) {
        if !fix.flow(from, pc, write, facts) {
            self.fell_off(from, pc);
        }
    }

    /// Checks a parallel start (`p_jalr rd != x0` / `p_jal`): the
    /// identity operand and the `p_syncm` drain.
    fn check_start(&mut self, pc: u32, st: &AbsState, rs1: Reg) {
        match st.get(rs1) {
            AbsVal::Merged | AbsVal::Unknown => {}
            AbsVal::Fork => {
                self.report(
                    Diag::new(
                        DiagCode::BStartNoIdentity,
                        Severity::Error,
                        self.program.line(pc),
                        format!(
                            "parallel start at {pc:#x}: `{rs1}` holds a raw p_fc/p_fn \
                             fork result; the join half of the identity word is missing"
                        ),
                    )
                    .with_pc(pc)
                    .with_wait_reason(
                        "a join address that would be sent to hart 0 instead of the \
                         team's join hart",
                    )
                    .with_hint("merge it first: `p_merge t0, t0, <fork-result>`"),
                    pc,
                );
            }
            held @ (AbsVal::Stamped | AbsVal::Const(_)) => {
                let what = match held {
                    AbsVal::Stamped => "a stamped identity whose allocated (low) half \
                                        was never merged with a fork result"
                        .to_owned(),
                    held => format!("{} — not an identity word", describe(held)),
                };
                self.report(
                    Diag::new(
                        DiagCode::BStartNoIdentity,
                        Severity::Error,
                        self.program.line(pc),
                        format!("parallel start at {pc:#x}: `{rs1}` holds {what}"),
                    )
                    .with_pc(pc)
                    .with_wait_reason("a start pc delivered to a hart that was never allocated")
                    .with_hint(
                        "build the identity word with p_set + p_fc/p_fn + p_merge \
                         (paper Fig. 8) before p_jalr/p_jal",
                    ),
                    pc,
                );
            }
        }
        if st.facts.sync == Sync::Dirty {
            self.report(
                Diag::new(
                    DiagCode::BMissingSyncm,
                    Severity::Error,
                    self.program.line(pc),
                    format!(
                        "parallel start at {pc:#x} launches the hart while \
                         continuation-value stores are still in flight \
                         (no p_syncm since the last p_swcv)"
                    ),
                )
                .with_pc(pc)
                .with_wait_reason("the started hart may read its cv frame before the values land")
                .with_hint("insert `p_syncm` between the last p_swcv and the start"),
                pc,
            );
        }
    }

    /// Checks a `p_ret` (`p_jalr x0, ra, t0`): the identity word must be
    /// the exit sentinel, a protocol identity, or unknown.
    fn check_p_ret(&mut self, pc: u32, st: &AbsState, ra: Reg, t0: Reg) {
        match st.get(t0) {
            AbsVal::Const(-1) => {
                // Exit: ra must be 0 (or unknown) for the sentinel to
                // mean "exit" rather than "join forward".
                if let AbsVal::Const(r) = st.get(ra) {
                    if r != 0 {
                        self.report(
                            Diag::new(
                                DiagCode::BMalformedRet,
                                Severity::Error,
                                self.program.line(pc),
                                format!(
                                    "p_ret at {pc:#x} has the exit sentinel in `{t0}` \
                                     but a nonzero return address {r:#x} in `{ra}`: \
                                     the join would be sent to hart 0x7fff"
                                ),
                            )
                            .with_pc(pc)
                            .with_hint("load `ra` with 0 (`li ra, 0`) before the exit p_ret"),
                            pc,
                        );
                    }
                }
            }
            AbsVal::Const(c) => {
                self.report(
                    Diag::new(
                        DiagCode::BMalformedRet,
                        Severity::Error,
                        self.program.line(pc),
                        format!(
                            "p_ret at {pc:#x} commits with `{t0}` = {c} ({:#x}): \
                             neither the exit sentinel (-1) nor a stamped/merged \
                             identity word",
                            c as u32
                        ),
                    )
                    .with_pc(pc)
                    .with_wait_reason(
                        "a join that would target whatever hart the constant happens \
                         to name",
                    )
                    .with_hint(
                        "end the program with `li t0, -1; li ra, 0; p_ret`, or carry \
                         the team's identity word in t0",
                    ),
                    pc,
                );
            }
            AbsVal::Fork => {
                self.report(
                    Diag::new(
                        DiagCode::BMalformedRet,
                        Severity::Error,
                        self.program.line(pc),
                        format!(
                            "p_ret at {pc:#x} commits with `{t0}` holding a raw fork \
                             result instead of an identity word"
                        ),
                    )
                    .with_pc(pc)
                    .with_hint("p_merge the fork result into the identity word first"),
                    pc,
                );
            }
            AbsVal::Unknown | AbsVal::Stamped | AbsVal::Merged => {}
        }
    }
}

/// Human description of an abstract value, for messages.
fn describe(v: AbsVal) -> String {
    match v {
        AbsVal::Unknown => "an unknown value".to_owned(),
        AbsVal::Const(c) => format!("the constant {c}"),
        AbsVal::Fork => "a fork result".to_owned(),
        AbsVal::Stamped => "a stamped identity word".to_owned(),
        AbsVal::Merged => "a merged identity word".to_owned(),
    }
}

/// Formats a transmitted-slot bitmask as byte offsets, e.g. `{0, 4}`.
fn mask_slots(mask: u32) -> String {
    let slots: Vec<String> = (0..32)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| (i * 4).to_string())
        .collect();
    if slots.is_empty() {
        "{} (none)".to_owned()
    } else {
        format!("{{{}}}", slots.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_kernels::matmul::{Matmul, Version};

    /// Same diagnostics is the weak statement; same order and same meets
    /// is the strong one. The summed fixpoint steps over the 14 assembly
    /// fixtures, `examples/asm` and the ten matmul kernels are those of
    /// the `HashMap` engines this driver replaced (B 1,647; M 3,384 less
    /// the one pop of `falls_off.s`'s out-of-text pc, which the driver
    /// drops at the push instead of popping it to no effect).
    #[test]
    fn fixpoint_steps_are_pinned() {
        let root = env!("CARGO_MANIFEST_DIR");
        let mut sources = Vec::new();
        for dir in ["tests/fixtures", "../../examples/asm"] {
            for entry in std::fs::read_dir(format!("{root}/{dir}")).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "s") {
                    sources.push(std::fs::read_to_string(path).unwrap());
                }
            }
        }
        assert_eq!(sources.len(), 14 + 3);
        for harts in [16, 64] {
            for version in Version::ALL {
                sources.push(Matmul::new(harts, version).program().source());
            }
        }
        let mut steps = [0, 0];
        for source in &sources {
            let image = lbp_asm::assemble(source).unwrap();
            let (_, [b, m]) = verify_counted(&image);
            steps[0] += b;
            steps[1] += m;
        }
        assert_eq!(steps, [1647, 3383]);
    }
}
