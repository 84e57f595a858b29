//! The functional-mode fast engine: an instruction-set simulator over
//! the whole machine.
//!
//! Where [`Machine`](crate::Machine) models every pipeline stage, bank
//! port and router hop, [`FastEngine`] executes the same assembled image
//! at the *architectural* level only: one instruction at a time per hart,
//! memory served synchronously, and every X_PAR rendezvous message
//! (fork request/reply, start pc, join address, ending-hart signal,
//! `p_swre` result) delivered the moment it is sent. The paper's
//! determinism argument is what makes this sound: fork/join rendezvous
//! edges totally order all cross-hart communication of a well-formed
//! Deterministic OpenMP program, so *any* schedule that respects those
//! edges — including this engine's simple run-to-block schedule — reaches
//! the same architectural state at every rendezvous point that the
//! cycle-exact engine reaches.
//!
//! The engine has two jobs. It is the functional reference of the
//! lockstep checker ([`run_lockstep`](crate::run_lockstep)). What it
//! shares with the pipeline is what the two must agree on by definition:
//! the decoder, the code bank (one predecoded entry per word) and the bank
//! store with its address map and fault checks (`bank.rs`), so an access
//! that is undefined is the same error on both; the X_PAR rulebook
//! (`xpar.rs`: every fork/join legality rule and the `p_ret` ending
//! decision), so a protocol violation is too; and the deadlock wording
//! (`deadlock::Waiting`), so a hang reads the same. What it keeps to itself
//! is what a reference is for: its own arithmetic, branch comparisons,
//! load extension and store truncation, its own schedule and its own
//! rendezvous delivery, so a wrong result in either engine shows up as a
//! divergence.
//!
//! And it drives hybrid fast-forward simulation: `lbp-run --warm N`
//! executes the warm-up region here at tens of Minstr/s, then
//! [`FastEngine::materialize`] builds a cycle-exact
//! [`Machine`](crate::machine::Machine) around a clone of the bank store
//! (all pipelines drained, no message in flight) and the measured window
//! runs at full fidelity. See `DESIGN.md` for the functional-mode
//! semantics contract and its precision boundaries.
//!
//! Execution is one dispatch per instruction: the code bank keeps a
//! one-byte opcode beside each predecoded instruction, one per mnemonic,
//! and `step` is one `match` on it. Round-robin over hundreds of harts
//! puts a different pc behind every dispatch, so each extra level (the
//! `Instr` variant, then its kind) would be one more mispredicted jump
//! per instruction. A run to the exit keeps only the final state, which
//! any rendezvous-respecting schedule reaches, so there each hart takes
//! turns of up to `EXIT_TURN` (32) instructions and the jumps see one hart's
//! loop at a time. A run that stops for a handoff keeps one instruction
//! per turn: the machine materialized from it continues its clock, and
//! long turns would leave that machine's cores out of step.
//!
//! What is deliberately **not** modeled: cycles, stalls, bank conflicts,
//! link hops and contention (all zero in the produced statistics), fault
//! injection (the warm phase must be fault-free; [`FastEngine::materialize`]
//! enforces it), and I/O devices (whose replies are cycle-dependent). The
//! engine has none, so an I/O access faults as it does on a machine with
//! no device there: an unmapped address.

use std::collections::VecDeque;

use lbp_asm::Image;
use lbp_isa::{HartId, IdentityWord, Instr, Reg, HARTS_PER_CORE};

use crate::bank::{Banks, CodeBank, Route, Routed};
use crate::config::{cv_base, LbpConfig, RESULT_SLOTS};
use crate::deadlock::Waiting;
use crate::error::{BlockedHart, SimError};
use crate::hart::{HartState, Op};
use crate::xpar::{self, Ending};

/// Why a functional hart cannot execute its next instruction right now.
/// Parked harts leave the scheduler's runnable set; the delivery that
/// satisfies the wait moves them back to [`FWait::Ready`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FWait {
    /// Runnable.
    Ready,
    /// A `p_fc`/`p_fn` is queued at a core allocator; completing the fork
    /// writes the child identity into `rd` and retires the instruction.
    Fork { rd: Reg },
    /// A `p_ret` waiting for the team predecessor's ending-hart signal.
    EndSignal,
    /// A `p_lwre` waiting for data in a receive slot (an out-of-range
    /// slot waits forever, like the cycle-exact issue gate).
    Result { slot: u32 },
    /// Parked just before the program's exit `p_ret` (never executed
    /// functionally).
    AtExit,
}

/// Architectural state of one hart in the functional engine.
#[derive(Debug, Clone)]
struct FHart {
    state: HartState,
    /// Next pc; meaningful only while `Running`.
    pc: u32,
    /// Architectural registers (`x0` held at zero by the write helper).
    regs: [u32; 32],
    /// `p_swre` receive slots.
    recv: Vec<VecDeque<u32>>,
    end_signal: bool,
    team_succ: Option<HartId>,
    wait: FWait,
}

impl FHart {
    fn fresh() -> FHart {
        FHart {
            state: HartState::Free,
            pc: 0,
            regs: [0; 32],
            recv: (0..RESULT_SLOTS).map(|_| VecDeque::new()).collect(),
            end_signal: false,
            team_succ: None,
            wait: FWait::Ready,
        }
    }
}

/// Instructions a hart executes per turn on a [`FastStop::Exit`] run.
/// Handoff stops (`Retired`, `Pc`) take one per turn.
const EXIT_TURN: u32 = 32;

/// The condition a [`FastEngine::run`] call stops on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastStop {
    /// Stop once the machine has retired this many instructions in total
    /// (clamped forward to the next rendezvous-quiet point).
    Retired(u64),
    /// Stop the first time any hart is *about to execute* this pc — the
    /// region-of-interest marker handoff.
    Pc(u32),
    /// Run until the program's exit `p_ret` is reached (it is never
    /// executed functionally: the hart parks just before it so the
    /// cycle-exact engine can retire it).
    Exit,
}

/// What a completed [`FastEngine::run`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastSummary {
    /// Instructions retired in total (across every `run` call so far).
    pub retired: u64,
    /// The virtual cycle of the engine: the maximum per-core retired
    /// count, i.e. the fewest cycles any machine that retires at most one
    /// instruction per core per cycle could have used.
    pub virtual_cycle: u64,
    /// The hart stream reached the exit `p_ret` (parked, not executed).
    pub at_exit: bool,
    /// Instructions retired *past* the stop target while draining pending
    /// fork allocations to the next rendezvous-quiet point. Zero when the
    /// target already fell on a quiet point.
    pub clamped: u64,
    /// Whether the engine stopped rendezvous-quiet (no fork request
    /// pending anywhere). `false` only when the program deadlocked or
    /// exited with a fork still queued; materialization is still sound —
    /// blocked forks re-execute cycle-exactly — but the handoff is no
    /// longer at a rendezvous boundary.
    pub rendezvous_clean: bool,
    /// The hart that triggered a [`FastStop::Pc`] stop.
    pub stop_hart: Option<HartId>,
}

/// Which step of [`FastEngine::warm`] refused, with its error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmError {
    /// [`FastEngine::new`]: the configuration or image is refused.
    Setup(SimError),
    /// [`FastEngine::run`]: the warm phase itself failed.
    Run(SimError),
    /// [`FastEngine::materialize`]: the fault plan cannot be honored
    /// across the handoff.
    Handoff(SimError),
}

impl WarmError {
    /// The underlying error, whichever step raised it.
    pub fn sim(&self) -> &SimError {
        match self {
            WarmError::Setup(e) | WarmError::Run(e) | WarmError::Handoff(e) => e,
        }
    }
}

/// The functional-mode engine: architectural state for every hart, the
/// same code bank and bank store the cycle-exact machine is built on, and
/// per-core fork-allocation queues.
#[derive(Debug)]
pub struct FastEngine {
    cfg: LbpConfig,
    code: CodeBank,
    banks: Banks,
    harts: Vec<FHart>,
    /// Pending fork requests per core, in arrival order.
    alloc_q: Vec<VecDeque<HartId>>,
    /// Per-core allocatable harts in hand-out order (local indices):
    /// never-allocated harts ascending, then recycled harts in
    /// `p_ret`-order. Mirrors the cycle-exact `Core::free_q` exactly —
    /// the ending-signal chain serializes frees, so this order (unlike a
    /// "lowest free" scan) is timing-independent and both engines hand
    /// the same hart to the same fork.
    free_q: Vec<VecDeque<u32>>,
    /// Per-hart retired-instruction counts.
    retired_per_hart: Vec<u64>,
    total_retired: u64,
    forks: u64,
    joins: u64,
    muldiv_ops: u64,
    local_accesses: u64,
    remote_accesses: u64,
    at_exit: bool,
    /// The scheduler's runnable-set cache is stale (a hart changed state,
    /// blocked, or was started/joined/freed since the last rebuild).
    sched_dirty: bool,
    /// Per-hart committed-pc streams, recorded when enabled (lockstep
    /// checking).
    commit_log: Option<Vec<Vec<u32>>>,
}

impl FastEngine {
    /// Builds the engine and loads the image: text into the code bank,
    /// data distributed over the shared banks, hart 0 booted at the entry
    /// point with the boot ending-signal set.
    ///
    /// # Errors
    ///
    /// Fails if the initialized data exceeds the configured shared space.
    pub fn new(cfg: LbpConfig, image: &Image) -> Result<FastEngine, SimError> {
        let cores = cfg.cores;
        let banks = Banks::new(&cfg, &image.data)?;
        let mut harts: Vec<FHart> = (0..cfg.harts()).map(|_| FHart::fresh()).collect();
        let boot_sp = cv_base(HartId::FIRST);
        harts[0].state = HartState::Running;
        harts[0].pc = image.entry;
        harts[0].regs[2] = boot_sp; // sp
        harts[0].end_signal = true; // nothing precedes the boot hart
        Ok(FastEngine {
            code: CodeBank::new(&image.text),
            banks,
            harts,
            alloc_q: (0..cores).map(|_| VecDeque::new()).collect(),
            free_q: (0..cores)
                .map(|c| {
                    // The boot hart starts running, not free.
                    let first = if c == 0 { 1 } else { 0 };
                    (first..HARTS_PER_CORE as u32).collect()
                })
                .collect(),
            retired_per_hart: vec![0; cfg.harts()],
            total_retired: 0,
            forks: 0,
            joins: 0,
            muldiv_ops: 0,
            local_accesses: 0,
            remote_accesses: 0,
            at_exit: false,
            sched_dirty: true,
            commit_log: None,
            cfg,
        })
    }

    /// The hybrid start in one call: build the engine, fast-forward to
    /// `stop` within `budget` steps, and materialize the cycle-exact
    /// machine at the handoff boundary.
    ///
    /// # Errors
    ///
    /// Whatever [`FastEngine::new`], [`FastEngine::run`] or
    /// [`FastEngine::materialize`] refuses, tagged with the step.
    pub fn warm(
        cfg: LbpConfig,
        image: &Image,
        stop: FastStop,
        budget: u64,
    ) -> Result<(crate::Machine, FastSummary), WarmError> {
        let mut fast = FastEngine::new(cfg, image).map_err(WarmError::Setup)?;
        let summary = fast.run(stop, budget).map_err(WarmError::Run)?;
        let machine = fast.materialize(image).map_err(WarmError::Handoff)?;
        Ok((machine, summary))
    }

    /// Turns on per-hart committed-pc recording (the reference side of
    /// [`run_lockstep`](crate::run_lockstep)). Costs one `Vec` push per
    /// retired instruction; leave off for plain fast-forwarding.
    pub fn enable_commit_log(&mut self) {
        if self.commit_log.is_none() {
            self.commit_log = Some(vec![Vec::new(); self.harts.len()]);
        }
    }

    /// The committed-pc stream of every hart (empty unless
    /// [`FastEngine::enable_commit_log`] was called first).
    pub fn commit_log(&self) -> &[Vec<u32>] {
        self.commit_log.as_deref().unwrap_or(&[])
    }

    /// XORs the code word at `pc` with `xor` — deliberate sabotage of the
    /// *functional copy only*, used to prove that the lockstep checker
    /// localizes a functional bug to the exact instruction. A `pc` that is
    /// not a code word of the image changes nothing.
    pub fn sabotage_code(&mut self, pc: u32, xor: u32) {
        self.code.corrupt(pc, xor);
    }

    /// Total instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.total_retired
    }

    /// Whether the run is parked at the exit `p_ret`.
    pub fn at_exit(&self) -> bool {
        self.at_exit
    }

    /// The hart parked at the exit `p_ret` and that `p_ret`'s pc — the one
    /// instruction of a finished program this engine leaves unretired.
    pub fn exit_hart(&self) -> Option<(HartId, u32)> {
        let hi = self.harts.iter().position(|h| h.wait == FWait::AtExit)?;
        Some((self.id(hi), self.harts[hi].pc))
    }

    /// Per-hart retired-instruction counts.
    pub fn retired_per_hart(&self) -> &[u64] {
        &self.retired_per_hart
    }

    /// The engine's virtual cycle: the maximum per-core retired count
    /// (a machine retiring at most one instruction per core per cycle
    /// needs at least this many cycles).
    pub fn virtual_cycle(&self) -> u64 {
        (0..self.cfg.cores)
            .map(|c| self.retired_by_core(c))
            .max()
            .unwrap_or(0)
    }

    /// An architectural register of a hart (test/inspection helper).
    pub fn reg(&self, hart: HartId, reg: lbp_isa::Reg) -> u32 {
        self.harts[hart.global() as usize].regs[reg.index()]
    }

    /// Writes a word of shared memory (input loading before a run,
    /// mirroring [`crate::Machine::poke_shared`]).
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    pub fn poke_shared(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        Ok(self.banks.poke(addr, value)?)
    }

    /// Reads a word of shared memory (result extraction).
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    pub fn peek_shared(&self, addr: u32) -> Result<u32, SimError> {
        Ok(self.banks.peek(addr)?)
    }

    fn retired_by_core(&self, core: usize) -> u64 {
        self.retired_per_hart
            .iter()
            .skip(core * HARTS_PER_CORE)
            .take(HARTS_PER_CORE)
            .sum()
    }

    fn id(&self, hi: usize) -> HartId {
        HartId::new(hi as u32)
    }

    /// The register of hart `hi`. A `Reg` is below 32: the mask says so
    /// to the compiler, which then checks no bounds.
    #[inline(always)]
    fn get(&self, hi: usize, r: Reg) -> u32 {
        self.harts[hi].regs[r.index() & 31]
    }

    #[inline(always)]
    fn set(&mut self, hi: usize, rd: Reg, value: u32) {
        if !rd.is_zero() {
            self.harts[hi].regs[rd.index() & 31] = value;
        }
    }

    #[inline(always)]
    fn retire(&mut self, hi: usize, pc: u32) {
        self.retired_per_hart[hi] += 1;
        self.total_retired += 1;
        if let Some(log) = self.commit_log.as_mut() {
            log[hi].push(pc);
        }
    }

    /// No fork request pending anywhere: a legal rendezvous-boundary
    /// handoff point.
    fn rendezvous_quiet(&self) -> bool {
        self.alloc_q.iter().all(VecDeque::is_empty)
            && self
                .harts
                .iter()
                .all(|h| !matches!(h.wait, FWait::Fork { .. }))
    }

    fn runnable(&self, hi: usize) -> bool {
        let h = &self.harts[hi];
        h.state == HartState::Running && h.wait == FWait::Ready
    }

    /// Satisfies queued fork requests at `core` while free harts exist,
    /// mirroring `process_alloc`: head of the free queue, arrival
    /// order, requester's `rd` receives the child's global identity.
    fn try_alloc(&mut self, core: usize) {
        loop {
            if self.alloc_q[core].is_empty() {
                return;
            }
            let base = core * HARTS_PER_CORE;
            let Some(child_local) = self.free_q[core].front().map(|&l| l as usize) else {
                return; // all four harts busy: the fork stalls
            };
            debug_assert_eq!(
                self.harts[base + child_local].state,
                HartState::Free,
                "free-queue head must be a free hart"
            );
            self.free_q[core].pop_front();
            let requester = self.alloc_q[core].pop_front().expect("checked non-empty");
            let child = base + child_local;
            let sp = cv_base(HartId::new(child as u32));
            let h = &mut self.harts[child];
            h.regs = [0; 32];
            h.regs[2] = sp;
            for q in &mut h.recv {
                q.clear();
            }
            h.end_signal = false;
            h.team_succ = None;
            h.state = HartState::Reserved;
            h.wait = FWait::Ready;
            self.forks += 1;
            self.sched_dirty = true;
            // Complete the requester's blocked p_fc/p_fn.
            let req = requester.global() as usize;
            let FWait::Fork { rd } = self.harts[req].wait else {
                unreachable!("queued fork requester is not fork-blocked");
            };
            let pc = self.harts[req].pc;
            self.set(req, rd, child as u32);
            self.harts[req].wait = FWait::Ready;
            self.harts[req].pc = pc.wrapping_add(4);
            self.retire(req, pc);
        }
    }

    /// Ends a hart (`p_ret` types 1 and 4) and lets its core's allocator
    /// satisfy a queued fork with the freed slot.
    fn end_hart(&mut self, hi: usize) {
        self.harts[hi].state = HartState::Free;
        self.harts[hi].pc = 0;
        self.sched_dirty = true;
        let core = hi / HARTS_PER_CORE;
        self.free_q[core].push_back((hi % HARTS_PER_CORE) as u32);
        self.try_alloc(core);
    }

    fn forward_end_signal(&mut self, hi: usize) {
        if let Some(next) = self.harts[hi].team_succ {
            if (next.core() as usize) < self.cfg.cores {
                // EndSignal delivery sets the flag regardless of state.
                let h = &mut self.harts[next.global() as usize];
                h.end_signal = true;
                if h.wait == FWait::EndSignal {
                    h.wait = FWait::Ready;
                    self.sched_dirty = true;
                }
            }
        }
    }

    /// Starts the hart allocated in identity word `rs1` at `pc` as the
    /// team successor of `hi`.
    fn start_member(&mut self, hi: usize, rs1: u32, pc: u32) -> Result<(), SimError> {
        let to = xpar::start_target(self.id(hi), rs1, self.cfg.cores)?;
        let h = &mut self.harts[to.global() as usize];
        xpar::resume(to, &mut h.state, HartState::Reserved, pc)?;
        h.pc = pc;
        self.harts[hi].team_succ = Some(to);
        self.sched_dirty = true;
        Ok(())
    }

    /// Routes a data access of hart `hi` with the machine's own routing
    /// function and counts it like the cycle-exact router would (local vs
    /// remote). An I/O address goes on to the bank store, which answers
    /// what the machine's bus answers with no device behind it. Part of
    /// every load and store: left out of line it hands its `Result` back
    /// through memory.
    #[inline(always)]
    fn route(&mut self, hi: usize, addr: u32) -> Result<Routed, SimError> {
        let at = self.banks.route(addr, self.id(hi))?;
        match at.to {
            Route::Shared { bank } if bank as usize != hi / HARTS_PER_CORE => {
                self.remote_accesses += 1;
            }
            Route::Local | Route::Shared { .. } => self.local_accesses += 1,
            Route::Io => {}
        }
        Ok(at)
    }

    /// Loads `size` bytes for `hi`, zero-extended.
    #[inline(always)]
    fn mem_load(&mut self, hi: usize, addr: u32, size: u8) -> Result<u32, SimError> {
        let at = self.route(hi, addr)?;
        let b = self.banks.span((hi / HARTS_PER_CORE) as u32, at, size)?;
        Ok(match size {
            1 => b[0] as u32,
            2 => u16::from_le_bytes([b[0], b[1]]) as u32,
            _ => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        })
    }

    /// Stores the low `size` bytes of `value` for `hi`.
    #[inline(always)]
    fn mem_store(&mut self, hi: usize, addr: u32, value: u32, size: u8) -> Result<(), SimError> {
        let at = self.route(hi, addr)?;
        self.write_bytes((hi / HARTS_PER_CORE) as u32, at, value, size)
    }

    /// Writes the low `size` bytes of `value` through `core`, uncounted.
    #[inline(always)]
    fn write_bytes(&mut self, core: u32, at: Routed, value: u32, size: u8) -> Result<(), SimError> {
        let b = self.banks.span_mut(core, at, size)?;
        match size {
            1 => b[0] = value as u8,
            2 => b.copy_from_slice(&(value as u16).to_le_bytes()),
            _ => b.copy_from_slice(&value.to_le_bytes()),
        }
        Ok(())
    }

    /// `rd = f(rs1, rs2)` of a register-register instruction.
    #[inline(always)]
    fn op(&mut self, hi: usize, i: Instr, f: impl FnOnce(u32, u32) -> u32) {
        let Instr::Op { rd, rs1, rs2, .. } = i else {
            unreachable!()
        };
        let v = f(self.get(hi, rs1), self.get(hi, rs2));
        self.set(hi, rd, v);
    }

    /// [`FastEngine::op`] for the RV32M operations, counted.
    #[inline(always)]
    fn muldiv(&mut self, hi: usize, i: Instr, f: impl FnOnce(u32, u32) -> u32) {
        self.muldiv_ops += 1;
        self.op(hi, i, f);
    }

    /// `rd = f(rs1, imm)` of a register-immediate instruction.
    #[inline(always)]
    fn op_imm(&mut self, hi: usize, i: Instr, f: impl FnOnce(u32, i32) -> u32) {
        let Instr::OpImm { rd, rs1, imm, .. } = i else {
            unreachable!()
        };
        let v = f(self.get(hi, rs1), imm);
        self.set(hi, rd, v);
    }

    /// The next pc of a conditional branch at `pc` that is taken when
    /// `taken(rs1, rs2)`.
    #[inline(always)]
    fn branch(&self, hi: usize, i: Instr, pc: u32, taken: impl FnOnce(u32, u32) -> bool) -> u32 {
        let Instr::Branch {
            rs1, rs2, offset, ..
        } = i
        else {
            unreachable!()
        };
        if taken(self.get(hi, rs1), self.get(hi, rs2)) {
            pc.wrapping_add(offset as u32)
        } else {
            pc.wrapping_add(4)
        }
    }

    /// `rd = extend(the size bytes at rs1 + offset)`.
    #[inline(always)]
    fn load(
        &mut self,
        hi: usize,
        i: Instr,
        size: u8,
        extend: impl FnOnce(u32) -> u32,
    ) -> Result<(), SimError> {
        let Instr::Load {
            rd, rs1, offset, ..
        } = i
        else {
            unreachable!()
        };
        let addr = self.get(hi, rs1).wrapping_add(offset as u32);
        let raw = self.mem_load(hi, addr, size)?;
        self.set(hi, rd, extend(raw));
        Ok(())
    }

    /// The low `size` bytes of rs2 to rs1 + offset.
    #[inline(always)]
    fn store(&mut self, hi: usize, i: Instr, size: u8) -> Result<(), SimError> {
        let Instr::Store {
            rs1, rs2, offset, ..
        } = i
        else {
            unreachable!()
        };
        let addr = self.get(hi, rs1).wrapping_add(offset as u32);
        self.mem_store(hi, addr, self.get(hi, rs2), size)
    }

    /// Executes one instruction of hart `hi` (which must be runnable).
    /// Returns whether the hart made progress; `Ok(false)` means it
    /// blocked with zero side effects (or parked at the exit `p_ret`).
    ///
    /// One `match` on the code-bank entry's opcode byte, one arm per
    /// mnemonic, so one indirect jump per instruction: round-robin over
    /// hundreds of harts puts a different pc behind every jump, and each
    /// further level of dispatch (the `Instr` variant, then its kind)
    /// would be one more misprediction per instruction.
    ///
    /// The arithmetic, comparisons, extension and truncation below are
    /// this engine's own on purpose — it is the reference the pipeline's
    /// `OpKind::eval`/`BranchKind::taken` are compared against. The
    /// longer X_PAR arms are helpers of their own for reading's sake, and
    /// `#[inline(always)]`: one that does not inline hands its `Result`
    /// back through memory on every instruction's path, and with `step`
    /// in both turn lengths of [`FastEngine::run`] the inliner no longer
    /// inlines them by itself (the one-instruction path ran ≈ 10 % slower).
    #[inline(always)]
    fn step(&mut self, hi: usize) -> Result<bool, SimError> {
        let pc = self.harts[hi].pc;
        let d = *self.code.fetch(pc, self.id(hi))?;
        let i = d.instr;
        let mut next = pc.wrapping_add(4);
        match d.op {
            Op::Lui => {
                let Instr::Lui { rd, imm } = i else {
                    unreachable!()
                };
                self.set(hi, rd, imm);
            }
            Op::Auipc => {
                let Instr::Auipc { rd, imm } = i else {
                    unreachable!()
                };
                self.set(hi, rd, pc.wrapping_add(imm));
            }
            Op::Jal => {
                let Instr::Jal { rd, offset } = i else {
                    unreachable!()
                };
                self.set(hi, rd, pc.wrapping_add(4));
                next = pc.wrapping_add(offset as u32);
            }
            Op::Jalr => {
                let Instr::Jalr { rd, rs1, offset } = i else {
                    unreachable!()
                };
                next = self.get(hi, rs1).wrapping_add(offset as u32) & !1;
                self.set(hi, rd, pc.wrapping_add(4));
            }
            Op::Beq => next = self.branch(hi, i, pc, |a, b| a == b),
            Op::Bne => next = self.branch(hi, i, pc, |a, b| a != b),
            Op::Blt => next = self.branch(hi, i, pc, |a, b| (a as i32) < (b as i32)),
            Op::Bge => next = self.branch(hi, i, pc, |a, b| (a as i32) >= (b as i32)),
            Op::Bltu => next = self.branch(hi, i, pc, |a, b| a < b),
            Op::Bgeu => next = self.branch(hi, i, pc, |a, b| a >= b),
            Op::Addi => self.op_imm(hi, i, |a, imm| a.wrapping_add(imm as u32)),
            Op::Slti => self.op_imm(hi, i, |a, imm| ((a as i32) < imm) as u32),
            Op::Sltiu => self.op_imm(hi, i, |a, imm| (a < imm as u32) as u32),
            Op::Xori => self.op_imm(hi, i, |a, imm| a ^ imm as u32),
            Op::Ori => self.op_imm(hi, i, |a, imm| a | imm as u32),
            Op::Andi => self.op_imm(hi, i, |a, imm| a & imm as u32),
            Op::Slli => self.op_imm(hi, i, |a, imm| a.wrapping_shl(imm as u32 & 31)),
            Op::Srli => self.op_imm(hi, i, |a, imm| a.wrapping_shr(imm as u32 & 31)),
            Op::Srai => self.op_imm(hi, i, |a, imm| {
                ((a as i32).wrapping_shr(imm as u32 & 31)) as u32
            }),
            Op::Add => self.op(hi, i, |a, b| a.wrapping_add(b)),
            Op::Sub => self.op(hi, i, |a, b| a.wrapping_sub(b)),
            Op::Sll => self.op(hi, i, |a, b| a.wrapping_shl(b & 31)),
            Op::Slt => self.op(hi, i, |a, b| ((a as i32) < (b as i32)) as u32),
            Op::Sltu => self.op(hi, i, |a, b| (a < b) as u32),
            Op::Xor => self.op(hi, i, |a, b| a ^ b),
            Op::Srl => self.op(hi, i, |a, b| a.wrapping_shr(b & 31)),
            Op::Sra => self.op(hi, i, |a, b| ((a as i32).wrapping_shr(b & 31)) as u32),
            Op::Or => self.op(hi, i, |a, b| a | b),
            Op::And => self.op(hi, i, |a, b| a & b),
            Op::Mul => self.muldiv(hi, i, |a, b| a.wrapping_mul(b)),
            Op::Mulh => self.muldiv(hi, i, |a, b| {
                ((((a as i32) as i64) * ((b as i32) as i64)) >> 32) as u32
            }),
            Op::Mulhsu => self.muldiv(hi, i, |a, b| {
                ((((a as i32) as i64) * (b as i64)) >> 32) as u32
            }),
            Op::Mulhu => self.muldiv(hi, i, |a, b| (((a as u64) * (b as u64)) >> 32) as u32),
            Op::Div => self.muldiv(hi, i, |a, b| {
                if b == 0 {
                    u32::MAX
                } else if a == 0x8000_0000 && b == u32::MAX {
                    a
                } else {
                    ((a as i32).wrapping_div(b as i32)) as u32
                }
            }),
            Op::Divu => self.muldiv(hi, i, |a, b| a.checked_div(b).unwrap_or(u32::MAX)),
            Op::Rem => self.muldiv(hi, i, |a, b| {
                if b == 0 {
                    a
                } else if a == 0x8000_0000 && b == u32::MAX {
                    0
                } else {
                    ((a as i32).wrapping_rem(b as i32)) as u32
                }
            }),
            Op::Remu => self.muldiv(hi, i, |a, b| if b == 0 { a } else { a % b }),
            Op::Lb => self.load(hi, i, 1, |raw| raw as u8 as i8 as i32 as u32)?,
            Op::Lh => self.load(hi, i, 2, |raw| raw as u16 as i16 as i32 as u32)?,
            Op::Lw => self.load(hi, i, 4, |raw| raw)?,
            Op::Lbu => self.load(hi, i, 1, |raw| raw)?,
            Op::Lhu => self.load(hi, i, 2, |raw| raw)?,
            Op::Sb => self.store(hi, i, 1)?,
            Op::Sh => self.store(hi, i, 2)?,
            Op::Sw => self.store(hi, i, 4)?,
            Op::PLwcv => {
                let Instr::PLwcv { rd, offset } = i else {
                    unreachable!()
                };
                let addr = cv_base(self.id(hi)).wrapping_add(offset as u32);
                let v = self.mem_load(hi, addr, 4)?;
                self.set(hi, rd, v);
            }
            Op::PSwcv => self.p_swcv(hi, i)?,
            Op::PSyncm => {} // functional memory is always drained
            Op::PSet => {
                let Instr::PSet { rd, rs1 } = i else {
                    unreachable!()
                };
                let word = IdentityWord::from_bits(self.get(hi, rs1));
                self.set(hi, rd, word.set(self.id(hi)).bits());
            }
            Op::PMerge => {
                let Instr::PMerge { rd, rs1, rs2 } = i else {
                    unreachable!()
                };
                let word = IdentityWord::from_bits(self.get(hi, rs1));
                let merged = word.merge(IdentityWord::from_bits(self.get(hi, rs2)));
                self.set(hi, rd, merged.bits());
            }
            Op::PLwre => {
                let Instr::PLwre { rd, offset } = i else {
                    unreachable!()
                };
                let slot = xpar::slot(offset);
                let queue = self.harts[hi].recv.get_mut(slot as usize);
                // Empty or out-of-range slot: issue-gated, blocks with no
                // side effects (out-of-range blocks forever, like the
                // cycle-exact machine).
                let Some(v) = queue.and_then(VecDeque::pop_front) else {
                    self.harts[hi].wait = FWait::Result { slot };
                    self.sched_dirty = true;
                    return Ok(false);
                };
                self.set(hi, rd, v);
            }
            Op::PSwre => self.p_swre(hi, i)?,
            Op::PFc => {
                let Instr::PFc { rd } = i else { unreachable!() };
                self.fork(hi, hi / HARTS_PER_CORE, rd);
                return Ok(true); // progress: the request is queued
            }
            Op::PFn => {
                let Instr::PFn { rd } = i else { unreachable!() };
                let at = xpar::fork_next(self.id(hi), self.cfg.cores)?;
                self.fork(hi, at as usize, rd);
                return Ok(true);
            }
            Op::PJal => {
                let Instr::PJal { rd, rs1, offset } = i else {
                    unreachable!()
                };
                self.start_member(hi, self.get(hi, rs1), pc.wrapping_add(4))?;
                self.set(hi, rd, 0);
                next = pc.wrapping_add(offset as u32);
            }
            Op::PJalr => {
                let Instr::PJalr { rd, rs1, rs2 } = i else {
                    unreachable!()
                };
                self.start_member(hi, self.get(hi, rs1), pc.wrapping_add(4))?;
                next = self.get(hi, rs2) & !1;
                self.set(hi, rd, 0);
            }
            Op::PRet => return self.p_ret(hi, i, pc),
        }
        self.harts[hi].pc = next;
        self.retire(hi, pc);
        Ok(true)
    }

    /// `p_swcv`: a continuation value into the target hart's frame — a
    /// store of this hart's on its own core, a forward-link message
    /// delivered at once on the next.
    #[inline(always)]
    fn p_swcv(&mut self, hi: usize, i: Instr) -> Result<(), SimError> {
        let Instr::PSwcv { rs1, rs2, offset } = i else {
            unreachable!()
        };
        let target = xpar::cv_target(self.id(hi), self.get(hi, rs1), self.cfg.cores)?;
        let value = self.get(hi, rs2);
        let addr = cv_base(target).wrapping_add(offset as u32);
        if target.core() as usize == hi / HARTS_PER_CORE {
            self.mem_store(hi, addr, value, 4)
        } else {
            // Forward-link CvWrite: delivered immediately, never
            // counted as a bank access of the sender.
            let at = self.banks.route(addr, target)?;
            self.write_bytes(target.core(), at, value, 4)
        }
    }

    /// `p_swre`: a result into a prior hart's receive slot, waking it if
    /// it waits on that slot.
    #[inline(always)]
    fn p_swre(&mut self, hi: usize, i: Instr) -> Result<(), SimError> {
        let Instr::PSwre { rs1, rs2, offset } = i else {
            unreachable!()
        };
        let target = xpar::result_target(self.id(hi), self.get(hi, rs1))?;
        let value = self.get(hi, rs2);
        let slot = xpar::slot(offset);
        let tg = target.global() as usize;
        xpar::result_slot(&mut self.harts[tg].recv, target, slot)?.push_back(value);
        if self.harts[tg].wait == (FWait::Result { slot }) {
            self.harts[tg].wait = FWait::Ready;
            self.sched_dirty = true;
        }
        Ok(())
    }

    /// `p_fc`/`p_fn`: queues a fork request of `hi` at core `at`'s
    /// allocator; the allocation retires the instruction.
    fn fork(&mut self, hi: usize, at: usize, rd: Reg) {
        let id = self.id(hi);
        self.alloc_q[at].push_back(id);
        self.harts[hi].wait = FWait::Fork { rd };
        self.try_alloc(at);
    }

    /// `p_ret` at `pc`: waits for the team predecessor's ending signal,
    /// then ends, joins or parks at the exit as [`Ending::of`] decides.
    #[inline(always)]
    fn p_ret(&mut self, hi: usize, i: Instr, pc: u32) -> Result<bool, SimError> {
        let Instr::PJalr { rs1, rs2, .. } = i else {
            unreachable!()
        };
        // Commit gate: the team predecessor's ending signal.
        if !self.harts[hi].end_signal {
            self.harts[hi].wait = FWait::EndSignal;
            self.sched_dirty = true;
            return Ok(false);
        }
        let id = self.id(hi);
        let ra = self.get(hi, rs1);
        let ending = Ending::of(id, ra, self.get(hi, rs2));
        if ending == Ending::Exit {
            // The exit boundary: park *before* the exit p_ret so the
            // cycle-exact engine retires it.
            self.at_exit = true;
            self.harts[hi].wait = FWait::AtExit;
            self.sched_dirty = true;
            return Ok(false);
        }
        self.harts[hi].end_signal = false; // consumed
        self.retire(hi, pc);
        match ending {
            Ending::Exit => unreachable!("parked above"),
            Ending::AwaitJoin => {
                self.harts[hi].state = HartState::WaitingJoin;
                self.forward_end_signal(hi);
            }
            Ending::End => {
                self.forward_end_signal(hi);
                self.end_hart(hi);
            }
            // No end-signal forward: the join carries it.
            Ending::Join { to } => {
                xpar::join_target(id, to)?;
                if to == id {
                    self.harts[hi].state = HartState::WaitingJoin;
                } else {
                    self.end_hart(hi);
                }
                let h = &mut self.harts[to.global() as usize];
                xpar::resume(to, &mut h.state, HartState::WaitingJoin, ra)?;
                h.pc = ra;
                h.end_signal = true; // everything sequentially prior committed
                self.joins += 1;
                self.sched_dirty = true;
            }
        }
        Ok(true)
    }

    /// Every blocked hart, in the cycle-exact detector's words.
    fn blocked_report(&self) -> Vec<BlockedHart> {
        let waiting = |h: &FHart| match (h.state, h.wait) {
            // Free, runnable or parked at the exit: not stuck.
            (HartState::Free, _) | (_, FWait::AtExit) | (HartState::Running, FWait::Ready) => None,
            (_, FWait::Fork { .. }) => Some(Waiting::ForkAllocation),
            (HartState::Reserved, _) => Some(Waiting::StartPc),
            (HartState::WaitingJoin, _) => Some(Waiting::JoinAddress),
            (_, FWait::EndSignal) => Some(Waiting::EndSignal),
            (_, FWait::Result { slot }) => Some(Waiting::RecvSlot(slot)),
        };
        let harts = self.harts.iter().enumerate();
        harts
            .filter_map(|(hi, h)| Some(waiting(h)?.for_hart(self.id(hi))))
            .collect()
    }

    /// Runs the engine until `stop` is met (then drains pending fork
    /// allocations to the next rendezvous-quiet point), the exit `p_ret`
    /// is reached, or `max_steps` instructions have executed.
    ///
    /// The schedule is deterministic: runnable harts take turns in hart
    /// order, and a turn runs until the hart blocks, parks or reaches the
    /// exit, or until it has executed `EXIT_TURN` (32) instructions on an
    /// [`FastStop::Exit`] run and one on any other. The interleaving
    /// approximates the cycle-exact machine's concurrency, which matters
    /// for hart *allocation* fidelity — a run-to-block schedule would let
    /// early team members end (freeing their harts) before later forks
    /// arrive, so `p_fc` would reuse harts the concurrent machine never
    /// frees in time. An Exit run keeps only the final state, which any
    /// schedule that respects the rendezvous edges reaches, so its turns
    /// are long; the state a handoff stop leaves is materialized into a
    /// machine whose clock continues from it, and long turns would leave
    /// that machine's cores unbalanced (on tiled h=64 the hybrid's cycle
    /// error goes from 1.3–1.7 % to 2.4–2.5 % at 32-instruction turns),
    /// so those stops keep one instruction per turn. The runnable set is cached and rebuilt
    /// only when a hart parks, wakes, or changes state, so serial phases
    /// stay fast.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when no hart can make progress,
    /// [`SimError::Timeout`] when the step budget runs out, or any fatal
    /// fault the program raises (same classes as the cycle-exact engine).
    pub fn run(&mut self, stop: FastStop, max_steps: u64) -> Result<FastSummary, SimError> {
        match stop {
            FastStop::Exit => self.run_turns::<EXIT_TURN>(stop, max_steps),
            FastStop::Retired(_) | FastStop::Pc(_) => self.run_turns::<1>(stop, max_steps),
        }
    }

    /// [`FastEngine::run`] with turns of up to `TURN` instructions. The
    /// turn length is a const parameter so that the `TURN = 1` turn loop
    /// folds away: a runtime length in this loop made the
    /// one-instruction path 18–29 % slower.
    fn run_turns<const TURN: u32>(
        &mut self,
        stop: FastStop,
        max_steps: u64,
    ) -> Result<FastSummary, SimError> {
        let mut steps = 0u64;
        let mut clamped = 0u64;
        let mut stopping = self.stop_met(stop);
        let mut stop_hart: Option<HartId> = None;
        let mut include_stopped = false;
        let mut runnable: Vec<usize> = Vec::with_capacity(self.harts.len());
        self.sched_dirty = true;
        'outer: loop {
            if self.at_exit || (stopping && self.rendezvous_quiet()) {
                break;
            }
            if self.sched_dirty {
                runnable.clear();
                runnable.extend((0..self.harts.len()).filter(|&h| self.runnable(h)));
                self.sched_dirty = false;
            }
            let mut progress = false;
            for &hi in &runnable {
                // One turn. A hart that parked, blocked on a fork or was
                // freed ends it: stepping it again would re-issue its
                // blocked instruction.
                let mut left = TURN;
                while left > 0 && self.runnable(hi) {
                    left -= 1;
                    if stopping {
                        if self.rendezvous_quiet() {
                            break 'outer;
                        }
                        if !include_stopped && stop_hart == Some(self.id(hi)) {
                            break; // keep the ROI hart parked while draining
                        }
                    } else if let FastStop::Pc(p) = stop {
                        if self.harts[hi].pc == p {
                            stopping = true;
                            stop_hart = Some(self.id(hi));
                            break;
                        }
                    }
                    let before = self.total_retired;
                    if !self.step(hi)? {
                        if self.at_exit {
                            break 'outer;
                        }
                        break; // parked with a wait reason; pruned on rebuild
                    }
                    progress = true;
                    steps += 1;
                    if steps > max_steps {
                        return Err(SimError::Timeout { cycles: max_steps });
                    }
                    if stopping {
                        clamped += self.total_retired - before;
                    } else if self.stop_met(stop) {
                        stopping = true;
                    }
                }
            }
            if self.at_exit || (stopping && self.rendezvous_quiet()) {
                break;
            }
            if !progress {
                if self.sched_dirty {
                    continue; // a hart parked or woke mid-round: rebuild and retry
                }
                if stopping {
                    if !include_stopped && stop_hart.is_some() {
                        include_stopped = true; // the ROI hart is the only way forward
                        continue;
                    }
                    break; // cannot drain: hand off anyway (not clean)
                }
                return Err(SimError::Deadlock {
                    cycle: self.virtual_cycle(),
                    blocked: self.blocked_report(),
                });
            }
        }
        Ok(FastSummary {
            retired: self.total_retired,
            virtual_cycle: self.virtual_cycle(),
            at_exit: self.at_exit,
            clamped,
            rendezvous_clean: self.rendezvous_quiet(),
            stop_hart,
        })
    }

    fn stop_met(&self, stop: FastStop) -> bool {
        match stop {
            FastStop::Retired(n) => self.total_retired >= n,
            FastStop::Pc(_) | FastStop::Exit => false,
        }
    }

    /// Builds a cycle-exact [`Machine`](crate::Machine) from the current
    /// architectural state — the hybrid handoff. Every pipeline is empty,
    /// no message is in flight, and the machine's clock is set to the
    /// engine's virtual cycle with the per-core cycle-accounting invariant
    /// (`retired + stalls == cycles`) preserved by padding the synthetic
    /// stall budget into the `idle` bucket.
    ///
    /// At zero retired instructions the materialized machine is
    /// bit-identical (snapshot bytes) to `Machine::new(cfg, image)`.
    ///
    /// # Errors
    ///
    /// Refuses fault plans the hybrid timeline cannot honor: message
    /// (drop/delay) faults, and cycle-triggered faults whose trigger falls
    /// inside the fast-forwarded warm phase (trigger ≤ virtual cycle).
    pub fn materialize(&self, image: &Image) -> Result<crate::Machine, SimError> {
        crate::machine::materialize_from_fast(self, image)
    }

    // ---- accessors used by the materialization glue in machine.rs and
    // ---- by the lockstep checker

    pub(crate) fn cfg(&self) -> &LbpConfig {
        &self.cfg
    }

    pub(crate) fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.forks,
            self.joins,
            self.muldiv_ops,
            self.local_accesses,
            self.remote_accesses,
        )
    }

    pub(crate) fn free_queues(&self) -> &[VecDeque<u32>] {
        &self.free_q
    }

    pub(crate) fn banks(&self) -> &Banks {
        &self.banks
    }

    pub(crate) fn hart_view(&self, hi: usize) -> FastHartView<'_> {
        let h = &self.harts[hi];
        FastHartView {
            state: h.state,
            pc: if h.state == HartState::Running {
                Some(h.pc)
            } else {
                None
            },
            regs: &h.regs,
            recv: &h.recv,
            end_signal: h.end_signal,
            team_succ: h.team_succ,
        }
    }
}

/// A read-only architectural view of one functional hart, consumed by the
/// materialization glue.
pub(crate) struct FastHartView<'a> {
    pub state: HartState,
    pub pc: Option<u32>,
    pub regs: &'a [u32; 32],
    pub recv: &'a [VecDeque<u32>],
    pub end_signal: bool,
    pub team_succ: Option<HartId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_asm::assemble;
    use lbp_isa::Reg;

    fn engine(src: &str, cores: usize) -> FastEngine {
        let image = assemble(src).unwrap();
        FastEngine::new(LbpConfig::cores(cores), &image).unwrap()
    }

    #[test]
    fn runs_arithmetic_to_the_exit_boundary() {
        let mut e = engine(
            "main:
                li   a0, 6
                li   a1, 7
                mul  a2, a0, a1
                li   t0, -1
                li   a0, 0
                p_ret a0, t0",
            1,
        );
        let s = e.run(FastStop::Exit, 1_000).unwrap();
        assert!(s.at_exit);
        assert!(s.rendezvous_clean);
        // The exit p_ret itself is NOT executed functionally.
        assert_eq!(s.retired, 5);
        assert_eq!(e.reg(HartId::FIRST, Reg::A2), 42);
        assert_eq!(e.muldiv_ops, 1);
    }

    #[test]
    fn memory_and_counters() {
        let mut e = engine(
            "main:
                la   a0, cell
                li   a1, 1234
                sw   a1, 0(a0)
                lw   a2, 0(a0)
                li   t0, -1
                li   ra, 0
                p_ret
            .data
            cell: .word 0",
            2,
        );
        e.run(FastStop::Exit, 1_000).unwrap();
        assert_eq!(e.reg(HartId::FIRST, Reg::A2), 1234);
        assert_eq!(e.peek_shared(lbp_isa::SHARED_BASE).unwrap(), 1234);
        // cell sits in bank 0, the executing core's own slice.
        assert_eq!(e.local_accesses, 2);
        assert_eq!(e.remote_accesses, 0);
    }

    #[test]
    fn fork_team_runs_functionally() {
        // The crate-level doc example: a two-hart Fig. 8 team.
        let mut e = engine(
            "main:
                li    t0, -1
                addi  sp, sp, -8
                sw    ra, 0(sp)
                sw    t0, 4(sp)
                p_set t0
                la    ra, rp
                p_fc   t6
                p_swcv ra, t6, 0
                p_swcv t0, t6, 4
                p_merge t0, t0, t6
                p_syncm
                la    a0, child
                p_jalr ra, t0, a0
                p_lwcv ra, 0
                p_lwcv t0, 4
                p_set t0
                la    a0, child
                jalr  a0
                lw    ra, 0(sp)
                lw    t0, 4(sp)
                addi  sp, sp, 8
                p_ret
            rp:
                lw    ra, 0(sp)
                lw    t0, 4(sp)
                addi  sp, sp, 8
                p_ret
            child:
                p_ret
            ",
            1,
        );
        let s = e.run(FastStop::Exit, 10_000).unwrap();
        assert!(s.at_exit);
        assert_eq!(e.forks, 1);
        // Two join deliveries: the child's self-join after its inline
        // call, then the backward join that resumes the parent.
        assert_eq!(e.joins, 2);
    }

    #[test]
    fn retired_stop_clamps_to_rendezvous_quiet() {
        let mut e = engine(
            "main:
                li   t0, -1
                p_fc t6          # retires as instruction 2
                li   a0, 5
                li   ra, 0
                p_ret",
            1,
        );
        // Ask to stop mid-way; the fork either completed (quiet) already
        // or the drain pushes past it.
        let s = e.run(FastStop::Retired(2), 1_000).unwrap();
        assert!(s.rendezvous_clean);
        assert!(s.retired >= 2);
    }

    #[test]
    fn functional_deadlock_is_reported() {
        let mut e = engine(
            "main:
                p_lwre a0, 3     # nobody ever sends a result
                li   t0, -1
                li   ra, 0
                p_ret",
            1,
        );
        let err = e.run(FastStop::Exit, 1_000).unwrap_err();
        match err {
            SimError::Deadlock { blocked, .. } => {
                assert_eq!(blocked.len(), 1);
                assert!(blocked[0].waiting_on.contains("result in slot 3"));
            }
            other => panic!("expected deadlock, got {other}"),
        }
        assert!(!e.at_exit());
    }

    #[test]
    fn pc_stop_parks_before_the_marker() {
        let mut e = engine(
            "main:
                li   a0, 1
                li   a1, 2
            roi:
                add  a2, a0, a1
                li   t0, -1
                li   ra, 0
                p_ret",
            1,
        );
        let image = assemble(
            "main:
                li   a0, 1
                li   a1, 2
            roi:
                add  a2, a0, a1
                li   t0, -1
                li   ra, 0
                p_ret",
        )
        .unwrap();
        let roi = image.symbol("roi").unwrap();
        let s = e.run(FastStop::Pc(roi), 1_000).unwrap();
        assert_eq!(s.stop_hart, Some(HartId::FIRST));
        assert_eq!(s.retired, 2); // the add has NOT run
        assert_eq!(e.reg(HartId::FIRST, Reg::A2), 0);
    }

    #[test]
    fn sabotage_changes_the_functional_copy_only() {
        let src = "main:
                li   a0, 6
                li   a1, 7
                add  a2, a0, a1
                li   t0, -1
                li   ra, 0
                p_ret";
        let mut e = engine(src, 1);
        let image = assemble(src).unwrap();
        // Corrupt the add into something else (flip a bit in rs2).
        e.sabotage_code(8, 1 << 20);
        e.run(FastStop::Exit, 1_000).unwrap();
        assert_ne!(e.reg(HartId::FIRST, Reg::A2), 13);
        // The image itself is untouched.
        assert_eq!(image.text[2], assemble(src).unwrap().text[2]);
    }

    #[test]
    fn commit_log_records_per_hart_pcs() {
        let mut e = engine(
            "main:
                li   a0, 1
                li   a1, 2
                li   t0, -1
                li   ra, 0
                p_ret",
            1,
        );
        e.enable_commit_log();
        e.run(FastStop::Exit, 1_000).unwrap();
        assert_eq!(e.commit_log()[0], vec![0, 4, 8, 12]);
    }
}
