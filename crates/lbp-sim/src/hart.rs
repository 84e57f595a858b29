//! Per-hart microarchitectural state: program counter, instruction buffer,
//! renaming table, renaming register file, the in-flight window that is
//! both instruction table (waiting station) and reorder buffer, the result
//! buffer and the `p_swre` receive slots (paper Figs. 11-12).

use std::collections::VecDeque;

use lbp_isa::{HartId, Instr, Reg};

use crate::config::{PHYS_REGS, RESULT_SLOTS, WINDOW};
use crate::index_set::members;
use crate::snapshot::{
    get_hart, get_instr, put_hart, put_instr, SnapError, SnapReader, SnapWriter,
};
use crate::xpar;

/// Index into a hart's renaming (physical) register file, which has 64
/// registers: one bit each in a `u64`.
pub(crate) type PhysReg = u8;

/// Lifecycle of a hart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HartState {
    /// Unallocated; a `p_fc`/`p_fn` may claim it.
    Free,
    /// Allocated by a fork, waiting for its start pc (`p_jal`/`p_jalr`).
    Reserved,
    /// Executing.
    Running,
    /// Ended with a type-2 `p_ret`; waiting for a join address.
    WaitingJoin,
}

/// One mnemonic: an [`Instr`] variant and its kind folded into one byte,
/// so that an executor can dispatch on an instruction with one jump
/// instead of one per level of `Instr` and its `*Kind`. `p_jalr` and
/// `p_ret` are two mnemonics of one variant and two opcodes here.
///
/// Memory instructions are contiguous (`Lb..=PSwcv`), and so are X_PAR
/// instructions (`PLwcv..`) and jumps (`Jal..=Bgeu`), which makes each of
/// [`Op::is_mem`], [`Op::is_xpar`] and [`Op::is_jump`] one range compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub(crate) enum Op {
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
    PLwcv,
    PSwcv,
    PFc,
    PFn,
    PSet,
    PMerge,
    PSyncm,
    PJalr,
    PRet,
    PJal,
    PLwre,
    PSwre,
}

impl Op {
    /// The opcode of `instr`.
    fn of(instr: Instr) -> Op {
        use lbp_isa::{
            BranchKind as B, LoadKind as L, OpImmKind as I, OpKind as K, StoreKind as S,
        };
        match instr {
            Instr::Lui { .. } => Op::Lui,
            Instr::Auipc { .. } => Op::Auipc,
            Instr::Jal { .. } => Op::Jal,
            Instr::Jalr { .. } => Op::Jalr,
            Instr::Branch { kind, .. } => match kind {
                B::Eq => Op::Beq,
                B::Ne => Op::Bne,
                B::Lt => Op::Blt,
                B::Ge => Op::Bge,
                B::Ltu => Op::Bltu,
                B::Geu => Op::Bgeu,
            },
            Instr::OpImm { kind, .. } => match kind {
                I::Add => Op::Addi,
                I::Slt => Op::Slti,
                I::Sltu => Op::Sltiu,
                I::Xor => Op::Xori,
                I::Or => Op::Ori,
                I::And => Op::Andi,
                I::Sll => Op::Slli,
                I::Srl => Op::Srli,
                I::Sra => Op::Srai,
            },
            Instr::Op { kind, .. } => match kind {
                K::Add => Op::Add,
                K::Sub => Op::Sub,
                K::Sll => Op::Sll,
                K::Slt => Op::Slt,
                K::Sltu => Op::Sltu,
                K::Xor => Op::Xor,
                K::Srl => Op::Srl,
                K::Sra => Op::Sra,
                K::Or => Op::Or,
                K::And => Op::And,
                K::Mul => Op::Mul,
                K::Mulh => Op::Mulh,
                K::Mulhsu => Op::Mulhsu,
                K::Mulhu => Op::Mulhu,
                K::Div => Op::Div,
                K::Divu => Op::Divu,
                K::Rem => Op::Rem,
                K::Remu => Op::Remu,
            },
            Instr::Load { kind, .. } => match kind {
                L::B => Op::Lb,
                L::H => Op::Lh,
                L::W => Op::Lw,
                L::Bu => Op::Lbu,
                L::Hu => Op::Lhu,
            },
            Instr::Store { kind, .. } => match kind {
                S::B => Op::Sb,
                S::H => Op::Sh,
                S::W => Op::Sw,
            },
            Instr::PLwcv { .. } => Op::PLwcv,
            Instr::PSwcv { .. } => Op::PSwcv,
            Instr::PFc { .. } => Op::PFc,
            Instr::PFn { .. } => Op::PFn,
            Instr::PSet { .. } => Op::PSet,
            Instr::PMerge { .. } => Op::PMerge,
            Instr::PSyncm => Op::PSyncm,
            Instr::PJalr { rd, .. } if rd.is_zero() => Op::PRet,
            Instr::PJalr { .. } => Op::PJalr,
            Instr::PJal { .. } => Op::PJal,
            Instr::PLwre { .. } => Op::PLwre,
            Instr::PSwre { .. } => Op::PSwre,
        }
    }

    /// [`Instr::is_mem`].
    #[inline]
    pub fn is_mem(self) -> bool {
        (Op::Lb as u8..=Op::PSwcv as u8).contains(&(self as u8))
    }

    /// An X_PAR instruction (`PLwcv..=PSwre`): the functional engine takes
    /// it one at a time, never inside a straight run.
    #[inline]
    pub fn is_xpar(self) -> bool {
        self as u8 >= Op::PLwcv as u8
    }

    /// A jump or a branch (`Jal..=Bgeu`): the last word of a straight run.
    #[inline]
    pub fn is_jump(self) -> bool {
        (Op::Jal as u8..=Op::Bgeu as u8).contains(&(self as u8))
    }

    /// [`Instr::is_p_ret`].
    #[inline]
    pub fn is_p_ret(self) -> bool {
        self == Op::PRet
    }
}

/// One predecoded code word: the instruction, its opcode, and the operand
/// facts the rename stage asks of it every cycle it sits in the
/// instruction buffer. Derived from `instr` alone, so it is never
/// serialized. The functional engine dispatches on `op` and reads the
/// operands out of `instr`; the pipeline reads `srcs`, `dest` and the
/// predicates on `op`. The whole entry is 16 bytes, a quarter of a cache
/// line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    pub instr: Instr,
    /// `instr.sources()`.
    pub srcs: [Option<Reg>; 2],
    /// `instr.dest()`.
    pub dest: Option<Reg>,
    /// `Op::of(instr)`.
    pub op: Op,
}

const _: () = assert!(std::mem::size_of::<Option<Decoded>>() == 16);

impl Decoded {
    pub fn new(instr: Instr) -> Decoded {
        Decoded {
            instr,
            srcs: instr.sources(),
            dest: instr.dest(),
            op: Op::of(instr),
        }
    }
}

/// The fetched instruction sitting in the 1-entry instruction buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetched {
    pub pc: u32,
    pub op: Decoded,
}

/// One in-flight instruction: what rename made of it, kept in the window
/// from rename to commit. Issue reads all of it; afterwards only `pc`,
/// `old` and `is_pret` are looked at again, by commit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub pc: u32,
    pub instr: Instr,
    /// Renamed sources (positionally rs1, rs2); `None` reads as zero.
    pub srcs: [Option<PhysReg>; 2],
    /// Renamed destination.
    pub dest: Option<PhysReg>,
    /// The mapping `dest` replaced, freed at commit.
    pub old: Option<PhysReg>,
    pub is_pret: bool,
    pub is_mem: bool,
    /// One bit per renamed source: the registers issue waits for.
    need: u64,
}

impl Slot {
    /// What a slot holds before its first rename; nothing reads it.
    const EMPTY: Slot = Slot {
        pc: 0,
        instr: Instr::NOP,
        srcs: [None; 2],
        dest: None,
        old: None,
        is_pret: false,
        is_mem: false,
        need: 0,
    };
}

/// The registers `srcs` names, one bit each.
#[inline]
fn need_of(srcs: [Option<PhysReg>; 2]) -> u64 {
    srcs.iter().flatten().fold(0, |need, &p| need | 1 << p)
}

/// What the 1-entry result buffer is waiting for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RbWait {
    /// Functional-unit completion at the given cycle.
    Until { at: u64, value: Option<u32> },
    /// An outstanding memory read (value arrives with the response).
    Mem,
    /// A fork allocation result (`p_fc`/`p_fn`).
    Fork,
    /// Complete; ready for the write-back stage.
    Done { value: Option<u32> },
}

/// The result buffer: holds the unique in-flight result of the hart from
/// issue to write-back. Its occupancy is what throttles a single hart and
/// makes 4-way multithreading necessary to reach 1 IPC per core.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rb {
    pub seq: u64,
    pub dest: Option<PhysReg>,
    pub wait: RbWait,
}

/// Full per-hart context.
#[derive(Debug)]
pub(crate) struct HartCtx {
    pub id: HartId,
    pub state: HartState,
    pub pc: Option<u32>,
    /// Set after every fetch; cleared when the next pc becomes known
    /// (decode for straight-line/direct-jump code, execute for branches).
    pub fetch_suspended: bool,
    /// The earliest cycle a pipeline-internal unsuspension takes effect:
    /// the next pc computed by decode (or execute) in cycle N can feed a
    /// fetch no earlier than cycle N+1 — which is why a lone hart cannot
    /// fill the pipeline (paper §5.2).
    pub resume_at: u64,
    /// A decoded `p_syncm` is holding the fetch until the hart's memory
    /// accesses drain.
    pub syncm_wait: bool,
    pub ib: Option<Fetched>,
    /// Renaming table: architectural → physical.
    pub rat: [PhysReg; 32],
    /// The renaming registers' values. Written through
    /// [`HartCtx::write_phys`], which keeps `ready` in step.
    pub prf: Vec<u32>,
    /// Bit `p`: `prf[p]` holds its value (cleared by the rename that
    /// hands `p` out, set by the write-back into it).
    ready: u64,
    pub free_phys: VecDeque<PhysReg>,
    /// The in-flight window of [`WINDOW`] slots: the instruction with
    /// sequence number `seq` sits at `seq & (WINDOW - 1)` from rename to
    /// commit, and the instructions in flight are `head_seq..next_seq`.
    /// A power of two, so that finding a slot is a mask, and at most 64,
    /// so that a word has a bit for every slot.
    win: Vec<Slot>,
    /// The oldest instruction not yet committed: the reorder buffer is
    /// `head_seq..next_seq`.
    head_seq: u64,
    pub next_seq: u64,
    /// The slots renamed and not yet issued: the instruction table.
    waiting: u64,
    /// The slots written back and not yet committed.
    done: u64,
    /// The resolved `(ra, t0)` of the `p_ret` in flight, from its issue to
    /// its commit. One per hart is enough: rename clears the pc at a
    /// `p_ret`, so nothing is fetched behind it until it has committed.
    pub pret: Option<(u32, u32)>,
    pub rb: Option<Rb>,
    /// Memory instructions renamed but not yet issued.
    pub mem_in_it: u32,
    /// Memory accesses issued and not yet completed/acknowledged.
    pub in_flight_mem: u32,
    /// `p_swre` receive slots (the "result buffers" of the X_PAR ISA).
    pub recv: Vec<VecDeque<u32>>,
    /// The ending-hart signal from the team predecessor has arrived;
    /// consumed by the commit of a `p_ret`.
    pub end_signal: bool,
    /// The team successor: the hart this hart's last `p_jal`/`p_jalr`
    /// started (the paper's §3 "the hardware memorizes the necessary
    /// links"). The ending-hart signal is forwarded to it.
    pub team_succ: Option<HartId>,
}

const _: () = assert!(WINDOW.is_power_of_two() && WINDOW <= 64 && PHYS_REGS == 64);

impl HartCtx {
    /// Creates a hart in the `Free` state.
    pub fn new(id: HartId) -> HartCtx {
        let mut h = HartCtx {
            id,
            state: HartState::Free,
            pc: None,
            fetch_suspended: true,
            resume_at: 0,
            syncm_wait: false,
            ib: None,
            rat: [0; 32],
            prf: vec![0; PHYS_REGS],
            ready: !0,
            free_phys: VecDeque::with_capacity(PHYS_REGS - 32),
            win: vec![Slot::EMPTY; WINDOW],
            head_seq: 0,
            next_seq: 0,
            waiting: 0,
            done: 0,
            pret: None,
            rb: None,
            mem_in_it: 0,
            in_flight_mem: 0,
            recv: (0..RESULT_SLOTS).map(|_| VecDeque::new()).collect(),
            end_signal: false,
            team_succ: None,
        };
        h.reset_register_state(0);
        h
    }

    /// Resets the renaming state: architectural register `i` maps to
    /// physical register `i`, all zero except `sp`. The registers from 32
    /// up keep their value and their ready bit, which a snapshot holds.
    fn reset_register_state(&mut self, sp: u32) {
        for i in 0..32 {
            self.rat[i] = i as PhysReg;
        }
        self.prf[..32].fill(0);
        self.prf[Reg::SP.index()] = sp;
        self.ready |= (1 << 32) - 1;
        self.free_phys.clear();
        self.free_phys.extend(32..self.prf.len() as PhysReg);
        self.head_seq = self.next_seq;
        self.waiting = 0;
        self.done = 0;
        self.pret = None;
        self.rb = None;
        self.ib = None;
        self.mem_in_it = 0;
        self.in_flight_mem = 0;
    }

    /// Claims this hart for a fork: `Reserved`, fresh registers with the
    /// stack pointer at the continuation-value frame base, cleared receive
    /// slots, no ending signal.
    pub fn allocate(&mut self, sp: u32) {
        debug_assert_eq!(self.state, HartState::Free, "allocating a busy hart");
        self.reset_register_state(sp);
        for q in &mut self.recv {
            q.clear();
        }
        self.end_signal = false;
        self.team_succ = None;
        self.syncm_wait = false;
        self.state = HartState::Reserved;
        self.pc = None;
        self.fetch_suspended = true;
    }

    /// Boots this hart as the machine's first hart.
    pub fn boot(&mut self, entry: u32, sp: u32) {
        self.reset_register_state(sp);
        self.state = HartState::Running;
        self.pc = Some(entry);
        self.fetch_suspended = false;
        self.end_signal = true; // nothing precedes the boot hart
    }

    /// Ends the hart (`p_ret` types 1 and 4): back to `Free`.
    pub fn end(&mut self) {
        self.state = HartState::Free;
        self.pc = None;
        self.fetch_suspended = true;
    }

    /// Clears the fetch suspension, effective from the *next* cycle
    /// (pipeline-internal next-pc signals cross a cycle boundary).
    #[inline]
    pub fn unsuspend_next(&mut self, now: u64) {
        self.fetch_suspended = false;
        self.resume_at = now + 1;
    }

    /// Clears the fetch suspension immediately (external events: start
    /// pc or join delivery at the cycle boundary).
    pub fn unsuspend_now(&mut self) {
        self.fetch_suspended = false;
        self.resume_at = 0;
    }

    /// Whether the fetch stage may select this hart at `now`.
    #[inline]
    pub fn can_fetch(&self, now: u64) -> bool {
        !self.fetch_suspended && now >= self.resume_at
    }

    /// Whether this hart would change at a later cycle by time alone: a
    /// result buffer counting down a latency, or a fetch held back only by
    /// `resume_at`. Every other wait ends with a delivery.
    pub fn waits_on_clock(&self, now: u64) -> bool {
        let counting = |rb: &Rb| matches!(rb.wait, RbWait::Until { .. });
        self.rb.as_ref().is_some_and(counting)
            || (self.state == HartState::Running
                && self.pc.is_some()
                && !self.fetch_suspended
                && self.ib.is_none()
                && self.resume_at > now)
    }

    /// The value of a renamed source (`None` reads as zero, i.e. `x0`).
    #[inline]
    pub fn src_value(&self, src: Option<PhysReg>) -> u32 {
        src.map_or(0, |p| self.prf[p as usize])
    }

    /// Writes a renaming register, which makes it ready.
    #[inline]
    pub fn write_phys(&mut self, p: PhysReg, value: u32) {
        self.prf[p as usize] = value;
        self.ready |= 1 << p;
    }

    /// Where the window keeps the instruction `seq`.
    #[inline]
    fn index(&self, seq: u64) -> usize {
        seq as usize & (WINDOW - 1)
    }

    /// The in-flight instruction `seq`.
    #[inline]
    pub fn slot(&self, seq: u64) -> &Slot {
        debug_assert!((self.head_seq..self.next_seq).contains(&seq));
        &self.win[self.index(seq)]
    }

    /// Reorder-buffer occupancy.
    #[inline]
    pub fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// Instruction-table occupancy.
    #[inline]
    pub fn it_len(&self) -> usize {
        self.waiting.count_ones() as usize
    }

    /// The oldest instruction in flight (the reorder buffer's head).
    #[inline]
    pub fn head(&self) -> Option<&Slot> {
        (self.head_seq != self.next_seq).then(|| self.slot(self.head_seq))
    }

    /// Whether the reorder buffer's head has written back.
    #[inline]
    pub fn head_done(&self) -> bool {
        // `done` holds in-flight slots only: an empty buffer has no bit.
        self.done >> self.index(self.head_seq) & 1 != 0
    }

    /// Whether the commit stage may select this hart: its head has written
    /// back, and a `p_ret` additionally has the team predecessor's ending
    /// signal AND a quiescent memory interface — the hardware barrier
    /// guarantees that a consuming region's loads see the producing
    /// region's stores (paper §3, Fig. 4), which only holds if a hart's
    /// stores are done before it ends.
    #[inline]
    pub fn can_commit(&self) -> bool {
        self.head_done()
            && (!self.win[self.index(self.head_seq)].is_pret
                || (self.end_signal && self.in_flight_mem == 0))
    }

    /// Retires the head and frees the mapping its destination replaced;
    /// returns its pc and whether it is the `p_ret`.
    #[inline]
    pub fn pop_head(&mut self) -> (u32, bool) {
        debug_assert!(self.head_done());
        let i = self.index(self.head_seq);
        self.done &= !(1 << i);
        self.head_seq += 1;
        let Slot {
            pc, old, is_pret, ..
        } = self.win[i];
        if let Some(old) = old {
            self.free_phys.push_back(old);
        }
        debug_assert!(self.window_holds());
        (pc, is_pret)
    }

    /// `bits`, a word over the window's slots, turned so that bit `k` is
    /// the slot of `head_seq + k`. The ring has [`WINDOW`] slots, so what
    /// is shifted out below the head comes back in under that bit, not
    /// under bit 64.
    #[inline]
    fn by_age(&self, bits: u64) -> u64 {
        let slots = WINDOW as u32;
        let head = self.index(self.head_seq) as u32;
        let turned = bits >> head | bits << ((slots - head) & 63);
        turned & (!0 >> (64 - slots))
    }

    /// The instruction table's sequence numbers, oldest first.
    #[inline]
    pub fn waiting_seqs(&self) -> impl Iterator<Item = u64> + '_ {
        members(0, self.by_age(self.waiting)).map(|age| self.head_seq + age as u64)
    }

    /// Whether rename can accept one more instruction. The instruction
    /// table lives inside the window and has its capacity, so a window
    /// with room has a table with room.
    #[inline]
    pub fn rename_capacity(&self, needs_dest: bool) -> bool {
        self.rob_len() < WINDOW && (!needs_dest || !self.free_phys.is_empty())
    }

    /// Renames an instruction into the window; returns its sequence
    /// number.
    ///
    /// The caller must have checked [`HartCtx::rename_capacity`].
    #[inline]
    pub fn rename(&mut self, f: Fetched) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let srcs = f.op.srcs.map(|s| s.map(|r| self.rat[r.index()]));
        let (dest, old) = match f.op.dest {
            Some(rd) => {
                let new = self.free_phys.pop_front().expect("checked by capacity");
                let old = std::mem::replace(&mut self.rat[rd.index()], new);
                self.ready &= !(1 << new);
                (Some(new), Some(old))
            }
            None => (None, None),
        };
        let i = self.index(seq);
        self.win[i] = Slot {
            pc: f.pc,
            instr: f.op.instr,
            srcs,
            dest,
            old,
            is_pret: f.op.op.is_p_ret(),
            is_mem: f.op.op.is_mem(),
            need: need_of(srcs),
        };
        self.waiting |= 1 << i;
        if f.op.op.is_mem() {
            self.mem_in_it += 1;
        }
        debug_assert!(self.window_holds());
        seq
    }

    /// The oldest instruction-table entry whose operands (and special
    /// conditions) are satisfied.
    #[inline]
    pub fn oldest_ready(&self) -> Option<u64> {
        self.waiting_seqs().find(|&seq| {
            let e = self.slot(seq);
            e.need & !self.ready == 0
                && match e.instr {
                    Instr::PLwre { offset, .. } => self
                        .recv
                        .get(xpar::slot(offset) as usize)
                        .is_some_and(|q| !q.is_empty()),
                    _ => true,
                }
        })
    }

    /// Takes `seq` out of the instruction table for execution.
    #[inline]
    pub fn issue(&mut self, seq: u64) -> Slot {
        let i = self.index(seq);
        debug_assert!(self.waiting >> i & 1 != 0, "issuing what is not waiting");
        self.waiting &= !(1 << i);
        let slot = self.win[i];
        if slot.is_mem {
            self.mem_in_it -= 1;
        }
        slot
    }

    /// Marks the instruction `seq` as written back.
    #[inline]
    pub fn rob_mark_done(&mut self, seq: u64) {
        self.done |= 1 << self.index(seq);
        debug_assert!(self.window_holds());
    }

    /// Whether every memory access decoded so far has completed
    /// (the `p_syncm` drain condition).
    #[inline]
    pub fn mem_drained(&self) -> bool {
        self.mem_in_it == 0 && self.in_flight_mem == 0
    }

    /// What the representation relies on, for `debug_assert!`: the
    /// instruction table and the written-back slots are disjoint and in
    /// flight, the window is within its capacity, and every waiting
    /// slot's `need` is its sources.
    fn window_holds(&self) -> bool {
        let len = self.next_seq - self.head_seq;
        assert!(len <= WINDOW as u64, "{len} in flight");
        let in_flight = (self.head_seq..self.next_seq).fold(0, |m, s| m | 1 << self.index(s));
        assert_eq!(self.waiting & self.done, 0, "waiting and written back");
        assert_eq!((self.waiting | self.done) & !in_flight, 0, "not in flight");
        for seq in self.waiting_seqs() {
            let e = self.slot(seq);
            assert_eq!(e.need, need_of(e.srcs), "need of {seq}");
        }
        true
    }

    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        put_hart(w, self.id);
        w.u8(match self.state {
            HartState::Free => 0,
            HartState::Reserved => 1,
            HartState::Running => 2,
            HartState::WaitingJoin => 3,
        });
        w.opt(&self.pc, |w, &pc| w.u32(pc));
        w.bool(self.fetch_suspended);
        w.u64(self.resume_at);
        w.bool(self.syncm_wait);
        w.opt(&self.ib, |w, f| {
            w.u32(f.pc);
            put_instr(w, &f.op.instr);
        });
        let phys = |w: &mut SnapWriter, &p: &PhysReg| w.u16(p.into());
        for p in &self.rat {
            phys(w, p);
        }
        w.seq(self.prf.len());
        for (p, &value) in self.prf.iter().enumerate() {
            w.u32(value);
            w.bool(self.ready >> p & 1 != 0);
        }
        w.seq(self.free_phys.len());
        for p in &self.free_phys {
            phys(w, p);
        }
        // The instruction table: the waiting slots, oldest first.
        w.seq(self.it_len());
        for seq in self.waiting_seqs() {
            let e = self.slot(seq);
            w.u64(seq);
            w.u32(e.pc);
            put_instr(w, &e.instr);
            for s in &e.srcs {
                w.opt(s, phys);
            }
            w.opt(&e.dest, phys);
        }
        // The reorder buffer: everything in flight, oldest first.
        w.seq(self.rob_len());
        for seq in self.head_seq..self.next_seq {
            let e = self.slot(seq);
            w.u64(seq);
            w.u32(e.pc);
            w.bool(self.done >> self.index(seq) & 1 != 0);
            w.opt(&e.dest, |w, new| {
                phys(w, new);
                w.opt(&e.old, phys);
            });
            let pret = self.pret.filter(|_| e.is_pret);
            w.opt(&pret, |w, &(ra, t0)| {
                w.u32(ra);
                w.u32(t0);
            });
            w.bool(e.is_pret);
        }
        w.opt(&self.rb, |w, rb| {
            w.u64(rb.seq);
            w.opt(&rb.dest, phys);
            match rb.wait {
                RbWait::Until { at, value } => {
                    w.u8(0);
                    w.u64(at);
                    w.opt(&value, |w, &v| w.u32(v));
                }
                RbWait::Mem => w.u8(1),
                RbWait::Fork => w.u8(2),
                RbWait::Done { value } => {
                    w.u8(3);
                    w.opt(&value, |w, &v| w.u32(v));
                }
            }
        });
        w.u64(self.next_seq);
        w.u32(self.mem_in_it);
        w.u32(self.in_flight_mem);
        w.seq(self.recv.len());
        for q in &self.recv {
            w.seq(q.len());
            for &v in q {
                w.u32(v);
            }
        }
        w.bool(self.end_signal);
        w.opt(&self.team_succ, |w, &h| put_hart(w, h));
        // The format's instruction-table and reorder-buffer capacities.
        w.u64(WINDOW as u64);
        w.u64(WINDOW as u64);
    }

    /// Reads a hart, filling the window as the entries come. The format
    /// lists the instruction table before the reorder buffer and carries
    /// `instr` and `srcs` for table entries only: an issued slot gets
    /// [`Slot::EMPTY`]'s, which nothing reads once an instruction has
    /// issued. A register file, result buffer or capacity of any other
    /// size than every hart's is refused.
    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<HartCtx, SnapError> {
        let mut h = HartCtx::new(get_hart(r)?);
        let id = h.id;
        let corrupt = |why: String| SnapError::Corrupt(format!("hart {id}: {why}"));
        h.state = match r.u8()? {
            0 => HartState::Free,
            1 => HartState::Reserved,
            2 => HartState::Running,
            3 => HartState::WaitingJoin,
            other => return Err(SnapError::Corrupt(format!("bad hart state tag {other}"))),
        };
        h.pc = r.opt(|r| r.u32())?;
        h.fetch_suspended = r.bool()?;
        h.resume_at = r.u64()?;
        h.syncm_wait = r.bool()?;
        h.ib = r.opt(|r| {
            Ok(Fetched {
                pc: r.u32()?,
                op: Decoded::new(get_instr(r)?),
            })
        })?;
        let fixed = |field, got, want: usize| {
            crate::config::fixed(format_args!("hart {id}: {field}"), got, want as u64)
        };
        // Every renamed physical register must exist.
        let phys = |r: &mut SnapReader<'_>| {
            let p = r.u16()?;
            if usize::from(p) >= PHYS_REGS {
                return Err(corrupt(format!(
                    "physical register index beyond the {PHYS_REGS}-entry file"
                )));
            }
            Ok(p as PhysReg)
        };
        for slot in &mut h.rat {
            *slot = phys(r)?;
        }
        let prf = r.seq()?;
        fixed("phys_regs", prf as u64, PHYS_REGS)?;
        h.ready = 0;
        for p in 0..prf {
            h.prf[p] = r.u32()?;
            h.ready |= u64::from(r.bool()?) << p;
        }
        h.free_phys.clear();
        for _ in 0..r.seq()? {
            h.free_phys.push_back(phys(r)?);
        }
        // Issue takes the first ready table entry for the oldest, so the
        // table must come in ascending order; and since every entry will
        // have to lie in the reorder buffer, the first and the last say
        // whether they all do.
        let mut table: Option<(u64, u64)> = None;
        for _ in 0..r.seq()? {
            let seq = r.u64()?;
            if table.is_some_and(|(_, last)| last >= seq) {
                return Err(corrupt(
                    "instruction-table sequence numbers are not ascending".to_owned(),
                ));
            }
            table = Some((table.map_or(seq, |(first, _)| first), seq));
            let pc = r.u32()?;
            let op = Decoded::new(get_instr(r)?);
            let srcs = [r.opt(phys)?, r.opt(phys)?];
            let i = h.index(seq);
            h.win[i] = Slot {
                pc,
                instr: op.instr,
                srcs,
                dest: r.opt(phys)?,
                old: None,
                is_pret: op.op.is_p_ret(),
                is_mem: op.op.is_mem(),
                need: need_of(srcs),
            };
            h.waiting |= 1 << i;
        }
        // Write-back and commit find an instruction at its sequence
        // number: the reorder buffer must be consecutive up to `next_seq`.
        let rob = r.seq()?;
        if rob > WINDOW {
            return Err(corrupt(format!(
                "{rob} reorder-buffer entries in a window of {WINDOW}"
            )));
        }
        let mut prets = 0;
        for k in 0..rob as u64 {
            let seq = r.u64()?;
            if k == 0 {
                h.head_seq = seq;
            }
            if h.head_seq.checked_add(k) != Some(seq) {
                return Err(corrupt(format!(
                    "reorder-buffer sequence numbers are not consecutive from {}",
                    h.head_seq
                )));
            }
            let i = h.index(seq);
            let waits = h.waiting >> i & 1 != 0;
            let mut e = if waits { h.win[i] } else { Slot::EMPTY };
            let pc = r.u32()?;
            let done = r.bool()?;
            let dest = r.opt(|r| Ok((phys(r)?, r.opt(phys)?)))?;
            let pret = r.opt(|r| Ok((r.u32()?, r.u32()?)))?;
            let is_pret = r.bool()?;
            let new = dest.map(|(new, _)| new);
            if waits && (e.pc != pc || e.dest != new || e.is_pret != is_pret || done) {
                return Err(corrupt(format!(
                    "instruction-table entry {seq} contradicts its reorder-buffer entry"
                )));
            }
            e.pc = pc;
            e.dest = new;
            e.old = dest.and_then(|(_, old)| old);
            e.is_pret = is_pret;
            h.win[i] = e;
            h.done |= u64::from(done) << i;
            // One resolved pair per hart: it belongs to the one `p_ret`
            // that can be in flight, from its issue on.
            prets += u32::from(is_pret);
            if prets > 1 {
                return Err(corrupt("two p_rets in flight".to_owned()));
            }
            if pret.is_some() != (is_pret && !waits) {
                return Err(corrupt(format!(
                    "reorder-buffer entry {seq}: a resolved (ra, t0) pair is what \
                     an issued p_ret has, and nothing else"
                )));
            }
            h.pret = h.pret.or(pret);
        }
        h.rb = r.opt(|r| {
            let seq = r.u64()?;
            let dest = r.opt(phys)?;
            let wait = match r.u8()? {
                0 => RbWait::Until {
                    at: r.u64()?,
                    value: r.opt(|r| r.u32())?,
                },
                1 => RbWait::Mem,
                2 => RbWait::Fork,
                3 => RbWait::Done {
                    value: r.opt(|r| r.u32())?,
                },
                other => return Err(SnapError::Corrupt(format!("bad RbWait tag {other}"))),
            };
            Ok(Rb { seq, dest, wait })
        })?;
        h.next_seq = r.u64()?;
        if rob == 0 {
            h.head_seq = h.next_seq;
        }
        if h.head_seq.checked_add(rob as u64) != Some(h.next_seq) {
            return Err(corrupt(format!(
                "reorder-buffer sequence numbers are not consecutive up to {}",
                h.next_seq
            )));
        }
        // Every in-flight `seq` must name a reorder-buffer entry, and the
        // result buffer one that has issued and not yet written back.
        let in_rob = |seq: &u64| (h.head_seq..h.next_seq).contains(seq);
        let (first, last) = table.unzip();
        let rb_seq = h.rb.map(|rb| rb.seq);
        if let Some(seq) = [first, last, rb_seq].iter().flatten().find(|s| !in_rob(s)) {
            return Err(corrupt(format!(
                "in-flight sequence number {seq} names no reorder-buffer entry"
            )));
        }
        if let Some(seq) = rb_seq.filter(|&s| (h.waiting | h.done) >> h.index(s) & 1 != 0) {
            return Err(corrupt(format!(
                "the result buffer holds {seq}, which has not issued or has written back"
            )));
        }
        h.mem_in_it = r.u32()?;
        h.in_flight_mem = r.u32()?;
        fixed("result_slots", r.seq()? as u64, RESULT_SLOTS)?;
        for q in &mut h.recv {
            for _ in 0..r.seq()? {
                q.push_back(r.u32()?);
            }
        }
        h.end_signal = r.bool()?;
        h.team_succ = r.opt(get_hart)?;
        for field in ["it_entries", "rob_entries"] {
            fixed(field, r.u64()?, WINDOW)?;
        }
        debug_assert!(h.window_holds());
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_isa::OpImmKind;

    fn hart() -> HartCtx {
        HartCtx::new(HartId::new(0))
    }

    fn addi_at(pc: u32, rd: Reg, rs1: Reg, imm: i32) -> Fetched {
        Fetched {
            pc,
            op: Decoded::new(Instr::OpImm {
                kind: OpImmKind::Add,
                rd,
                rs1,
                imm,
            }),
        }
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Fetched {
        addi_at(0, rd, rs1, imm)
    }

    /// Issues `seq` into the result buffer, as the issue stage does.
    fn issue(h: &mut HartCtx, seq: u64, wait: RbWait) {
        let dest = h.issue(seq).dest;
        h.rb = Some(Rb { seq, dest, wait });
    }

    #[test]
    fn rename_allocates_and_tracks_old_mapping() {
        let mut h = hart();
        h.boot(0, 0x1000);
        let before = h.rat[Reg::A0.index()];
        let seq = h.rename(addi(Reg::A0, Reg::A0, 1));
        let after = h.rat[Reg::A0.index()];
        assert_ne!(before, after);
        let e = h.slot(seq);
        assert_eq!((e.dest, e.old), (Some(after), Some(before)));
        assert_eq!(h.ready >> after & 1, 0);
        // Source was renamed against the old mapping.
        assert_eq!(e.srcs[0], Some(before));
        assert_eq!((h.rob_len(), h.it_len()), (1, 1));
    }

    #[test]
    fn oldest_ready_respects_dependencies() {
        let mut h = hart();
        h.boot(0, 0x1000);
        h.rename(addi(Reg::A0, Reg::A1, 1)); // ready (a1 ready)
        h.rename(addi(Reg::A2, Reg::A0, 1)); // depends on the first
        assert_eq!(h.oldest_ready(), Some(0));
        // Make the first's dest ready: second becomes eligible, but the
        // first is still older.
        let d = h.slot(0).dest.unwrap();
        h.write_phys(d, 7);
        assert_eq!(h.oldest_ready(), Some(0));
        h.issue(0);
        assert_eq!(h.oldest_ready(), Some(1));
    }

    /// Three instructions at a time go round the [`WINDOW`]-slot ring, and
    /// since three and the window are coprime the oldest of them sits in
    /// every slot in turn; age order is order from the head, wherever in
    /// the ring the head is, and a word of `WINDOW` bits turns within it.
    #[test]
    fn age_order_survives_the_head_going_round_the_ring() {
        let mut h = hart();
        h.boot(0, 0x1000);
        for lap in 0..3 * WINDOW {
            // Three in flight, the middle one waiting on the first.
            let first = h.rename(addi(Reg::A0, Reg::A1, 1));
            h.rename(addi(Reg::A2, Reg::A0, 1));
            h.rename(addi(Reg::A3, Reg::A1, 1));
            assert_eq!(
                h.waiting_seqs().collect::<Vec<_>>(),
                [first, first + 1, first + 2]
            );
            let write_back = |h: &mut HartCtx| {
                let rb = h.rb.take().unwrap();
                h.write_phys(rb.dest.unwrap(), 0);
                h.rob_mark_done(rb.seq);
            };
            assert_eq!(h.oldest_ready(), Some(first));
            issue(&mut h, first, RbWait::Mem);
            assert_eq!(h.oldest_ready(), Some(first + 2), "lap {lap}");
            write_back(&mut h);
            assert_eq!(h.oldest_ready(), Some(first + 1), "lap {lap}");
            issue(&mut h, first + 2, RbWait::Mem);
            write_back(&mut h);
            assert!(h.can_commit());
            h.pop_head();
            assert!(
                !h.can_commit(),
                "lap {lap}: the youngest is done, the head is not"
            );
            issue(&mut h, first + 1, RbWait::Mem);
            write_back(&mut h);
            for _ in 0..2 {
                assert!(h.can_commit());
                h.pop_head();
            }
            assert!(!h.head_done() && h.head().is_none());
        }
    }

    #[test]
    fn p_lwre_waits_for_slot() {
        let mut h = hart();
        h.boot(0, 0x1000);
        h.rename(Fetched {
            pc: 0,
            op: Decoded::new(Instr::PLwre {
                rd: Reg::A0,
                offset: 2,
            }),
        });
        assert_eq!(h.oldest_ready(), None);
        h.recv[2].push_back(99);
        assert!(h.oldest_ready().is_some());
    }

    #[test]
    fn allocation_resets_state() {
        let mut h = hart();
        h.boot(0, 0x1000);
        h.rename(addi(Reg::A0, Reg::A0, 5));
        h.end();
        h.allocate(0x2000);
        assert_eq!(h.state, HartState::Reserved);
        assert_eq!((h.it_len(), h.rob_len()), (0, 0));
        assert_eq!(h.prf[h.rat[Reg::SP.index()] as usize], 0x2000);
        assert_eq!(h.prf[h.rat[Reg::A0.index()] as usize], 0);
        assert!(!h.end_signal);
    }

    #[test]
    fn boot_hart_has_end_signal() {
        let mut h = hart();
        h.boot(0x40, 0x1000);
        assert!(h.end_signal);
        assert_eq!(h.pc, Some(0x40));
    }

    #[test]
    fn x0_sources_read_zero() {
        let h = hart();
        assert_eq!(need_of([None, None]), 0);
        assert_eq!(h.src_value(None), 0);
    }

    /// The pcs of the three instructions of [`in_flight`], which its
    /// snapshot holds nowhere else: an entry is found by its pc.
    const PCS: [u32; 3] = [0x1111_1110, 0x2222_2220, 0x3333_3330];

    /// A hart with three instructions in flight (sequence numbers 0..3),
    /// the oldest issued into the result buffer.
    fn in_flight() -> HartCtx {
        in_flight_of(PCS.map(|pc| addi_at(pc, Reg::A0, Reg::A1, 1)))
    }

    fn in_flight_of(three: [Fetched; 3]) -> HartCtx {
        let mut h = hart();
        h.boot(0, 0x1000);
        for f in three {
            h.rename(f);
        }
        issue(&mut h, 0, RbWait::Mem);
        h
    }

    fn p_ret_at(pc: u32) -> Fetched {
        let p_ret = Instr::PJalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            rs2: Reg::T0,
        };
        Fetched {
            pc,
            op: Decoded::new(p_ret),
        }
    }

    fn snap_bytes(h: &HartCtx) -> Vec<u8> {
        let mut w = SnapWriter::new();
        h.snap(&mut w);
        w.into_bytes()
    }

    fn unsnap_bytes(bytes: &[u8]) -> Result<HartCtx, SnapError> {
        HartCtx::unsnap(&mut SnapReader::new(bytes))
    }

    /// Where the entries of the instruction at `pc` start in the snapshot
    /// of [`in_flight`] (at their `seq`, the eight bytes before the pc):
    /// the instruction table's, if it is waiting, then the reorder
    /// buffer's.
    fn entries_of(bytes: &[u8], pc: u32) -> Vec<usize> {
        let found = |at: &usize| bytes[*at..].starts_with(&pc.to_le_bytes());
        (8..bytes.len() - 4)
            .filter(found)
            .map(|at| at - 8)
            .collect()
    }

    /// Where `next_seq` is, from the fixed-size tail of the snapshot of
    /// [`in_flight`]: two counters, eight empty receive slots, the ending
    /// signal, no team successor, two capacities.
    fn next_seq_of(bytes: &[u8]) -> usize {
        bytes.len() - (8 + 2 * 4 + 9 * 8 + 1 + 1 + 2 * 8)
    }

    /// Where the result buffer's `seq` is: before its destination, its
    /// `Mem` tag and `next_seq`.
    fn rb_seq_of(bytes: &[u8]) -> usize {
        next_seq_of(bytes) - (8 + 3 + 1)
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match unsnap_bytes(bytes) {
            Err(SnapError::Corrupt(why)) => assert!(why.contains(what), "{why}"),
            other => panic!("expected a corrupt-snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn unsnap_accepts_a_hart_in_flight() {
        let bytes = snap_bytes(&in_flight());
        // The helpers find what they say they do.
        let [first, second, third] = PCS.map(|pc| entries_of(&bytes, pc));
        assert_eq!((first.len(), second.len(), third.len()), (1, 2, 2));
        assert_eq!(bytes[next_seq_of(&bytes)..][..8], 3u64.to_le_bytes());
        assert_eq!(bytes[rb_seq_of(&bytes)..][..8], 0u64.to_le_bytes());
        let h = unsnap_bytes(&bytes).unwrap();
        assert_eq!((h.it_len(), h.rob_len(), h.next_seq), (2, 3, 3));
        assert_eq!(snap_bytes(&h), bytes);
    }

    /// Issue takes the first ready table entry for the oldest.
    #[test]
    fn unsnap_rejects_a_descending_instruction_table() {
        let mut bytes = snap_bytes(&in_flight());
        let (second, third) = (entries_of(&bytes, PCS[1])[0], entries_of(&bytes, PCS[2])[0]);
        bytes[second] = 2;
        bytes[third] = 1;
        assert_corrupt(&bytes, "not ascending");
    }

    /// Write-back and commit find an instruction at its sequence number.
    #[test]
    fn unsnap_rejects_a_gap_in_the_reorder_buffer() {
        let good = snap_bytes(&in_flight());
        let mut bytes = good.clone();
        bytes[entries_of(&good, PCS[1])[1]] = 7;
        assert_corrupt(&bytes, "not consecutive");
        let mut bytes = good.clone();
        bytes[next_seq_of(&good)] = 9; // the next rename would open the gap
        assert_corrupt(&bytes, "not consecutive");
    }

    /// ... and would find another, or none, for a `seq` the ROB does not
    /// hold.
    #[test]
    fn unsnap_rejects_a_result_buffer_outside_the_reorder_buffer() {
        let mut bytes = snap_bytes(&in_flight());
        let at = rb_seq_of(&bytes);
        bytes[at] = 3;
        assert_corrupt(&bytes, "names no reorder-buffer entry");
        // Seq 0 retired, yet still in the result buffer.
        let mut h = in_flight();
        let rb = h.rb.take().unwrap();
        h.write_phys(rb.dest.unwrap(), 0);
        h.rob_mark_done(0);
        h.pop_head();
        issue(&mut h, 1, RbWait::Mem);
        let mut bytes = snap_bytes(&h);
        let at = rb_seq_of(&bytes);
        assert_eq!(bytes[at], 1);
        bytes[at] = 0;
        assert_corrupt(&bytes, "names no reorder-buffer entry");
        // Seq 2 is in the reorder buffer, but has not issued.
        bytes[at] = 2;
        assert_corrupt(&bytes, "has not issued");
    }

    /// A hart has one resolved `(ra, t0)` pair, for the one `p_ret` it can
    /// have in flight; the format has room for one per entry.
    #[test]
    fn unsnap_rejects_what_one_resolved_p_ret_per_hart_cannot_hold() {
        let good = snap_bytes(&in_flight());
        // A reorder-buffer entry here is seq, pc, done, dest (tag, new,
        // tag, old), pret (tag), is_pret.
        let (pret, is_pret) = (8 + 4 + 1 + 6, 8 + 4 + 1 + 6 + 1);
        let rob = PCS.map(|pc| *entries_of(&good, pc).last().unwrap());
        let resolved = [1, 0, 0, 0, 0, 0, 0, 0, 0];
        // The flag on a waiting entry contradicts the table: an `addi` is
        // no `p_ret`. On an issued one it wants its pair.
        let mut bytes = good.clone();
        bytes[rob[1] + is_pret] = 1;
        assert_corrupt(&bytes, "contradicts its reorder-buffer entry");
        let mut bytes = good.clone();
        bytes[rob[0] + is_pret] = 1;
        assert_corrupt(&bytes, "an issued p_ret has");
        // With it, it is the hart's one `p_ret` — unless there is another.
        bytes.splice(rob[0] + pret..rob[0] + is_pret, resolved);
        assert_eq!(unsnap_bytes(&bytes).unwrap().pret, Some((0, 0)));
        let [first, _, third] = PCS.map(|pc| addi_at(pc, Reg::A0, Reg::A1, 1));
        let mut bytes = snap_bytes(&in_flight_of([first, p_ret_at(PCS[1]), third]));
        assert!(unsnap_bytes(&bytes).is_ok());
        let oldest = entries_of(&bytes, PCS[0])[0];
        bytes[oldest + is_pret] = 1;
        bytes.splice(oldest + pret..oldest + is_pret, resolved);
        assert_corrupt(&bytes, "two p_rets in flight");
        // A resolved pair on an entry that is not a `p_ret`.
        let mut bytes = good.clone();
        bytes.splice(rob[0] + pret..rob[0] + is_pret, resolved);
        assert_corrupt(&bytes, "an issued p_ret has");
    }

    /// The resolved pair of a `p_ret` goes out in its own entry and comes
    /// back as the hart's.
    #[test]
    fn a_resolved_p_ret_round_trips_through_its_entry() {
        let mut h = hart();
        h.boot(0, 0x1000);
        h.rename(addi(Reg::A0, Reg::A1, 1));
        let seq = h.rename(p_ret_at(4));
        let waiting = snap_bytes(&h);
        assert_eq!(snap_bytes(&unsnap_bytes(&waiting).unwrap()), waiting);
        issue(&mut h, seq, RbWait::Done { value: None });
        h.pret = Some((0x40, 0xdead_beef));
        let issued = snap_bytes(&h);
        let back = unsnap_bytes(&issued).unwrap();
        assert_eq!(back.pret, h.pret);
        assert_eq!(snap_bytes(&back), issued);
    }

    /// Every hart has one shape; the words the format keeps for its sizes
    /// hold nothing else.
    #[test]
    fn unsnap_rejects_a_hart_of_another_shape() {
        let good = snap_bytes(&in_flight());
        // No renaming register is 64, so the first 64 is the file's length.
        let prf = (good.windows(8).position(|w| w == 64u64.to_le_bytes()))
            .expect("the register file is in the snapshot");
        let recv = next_seq_of(&good) + 8 + 2 * 4;
        let tail = good.len() - 2 * 8;
        for (at, value, field) in [
            (prf, 34, "hart c0h0: phys_regs = 34"),
            (recv, 3, "hart c0h0: result_slots = 3"),
            (tail, 31, "hart c0h0: it_entries = 31"),
            (tail + 8, 65, "hart c0h0: rob_entries = 65"),
        ] {
            let mut bytes = good.clone();
            bytes[at] = value;
            assert_corrupt(&bytes, field);
        }
    }

    /// Retires the oldest instruction in flight, which has no destination
    /// to write or has had it written, as issue, write-back and commit do.
    fn retire_head(h: &mut HartCtx) {
        let seq = h.head_seq;
        issue(h, seq, RbWait::Mem);
        let rb = h.rb.take().unwrap();
        if let Some(dest) = rb.dest {
            h.write_phys(dest, 0);
        }
        h.rob_mark_done(seq);
        h.pop_head();
    }

    /// Rename stalls when the window is full and resumes at the first
    /// commit. Stores fill the window and leave the 32 spare registers
    /// free; `addi`s fill the window and the spare registers together,
    /// since every instruction in flight holds at most one register and
    /// there are as many spare registers as slots.
    #[test]
    fn a_full_window_and_no_free_register_stall_rename_until_a_commit() {
        let mut h = hart();
        h.boot(0, 0x1000);
        let store = Fetched {
            pc: 0,
            op: Decoded::new(Instr::Store {
                kind: lbp_isa::StoreKind::W,
                rs1: Reg::SP,
                rs2: Reg::A0,
                offset: 0,
            }),
        };
        for _ in 0..WINDOW {
            assert!(h.rename_capacity(false));
            h.rename(store);
        }
        assert_eq!((h.rob_len(), h.free_phys.len()), (WINDOW, PHYS_REGS - 32));
        assert!(!h.rename_capacity(false) && !h.rename_capacity(true));
        retire_head(&mut h);
        assert!(h.rename_capacity(false) && h.rename_capacity(true));
        while h.head().is_some() {
            retire_head(&mut h);
        }
        for _ in 0..PHYS_REGS - 32 {
            assert!(h.rename_capacity(true));
            h.rename(addi(Reg::A0, Reg::A0, 1));
        }
        assert_eq!((h.rob_len(), h.free_phys.len()), (WINDOW, 0));
        assert!(!h.rename_capacity(false) && !h.rename_capacity(true));
        retire_head(&mut h);
        assert_eq!((h.rob_len(), h.free_phys.len()), (WINDOW - 1, 1));
        assert!(h.rename_capacity(true));
        h.rename(addi(Reg::A0, Reg::A0, 1));
        assert!(!h.rename_capacity(true));
    }

    /// One instruction of every variant and every kind, `p_jalr` and
    /// `p_ret` both.
    fn every_instr() -> Vec<Instr> {
        use lbp_isa::{BranchKind, LoadKind, OpKind, StoreKind};
        let (rd, rs1, rs2, offset) = (Reg::A0, Reg::A1, Reg::A2, 8);
        let mut all = vec![
            Instr::Lui { rd, imm: 0x1000 },
            Instr::Auipc { rd, imm: 0x1000 },
            Instr::Jal { rd, offset },
            Instr::Jalr { rd, rs1, offset },
            Instr::PFc { rd },
            Instr::PFn { rd },
            Instr::PSet { rd, rs1 },
            Instr::PMerge { rd, rs1, rs2 },
            Instr::PSyncm,
            Instr::PJalr { rd, rs1, rs2 },
            Instr::PJalr {
                rd: Reg::ZERO,
                rs1,
                rs2,
            },
            Instr::PJal { rd, rs1, offset },
            Instr::PLwcv { rd, offset },
            Instr::PSwcv { rs1, rs2, offset },
            Instr::PLwre { rd, offset },
            Instr::PSwre { rs1, rs2, offset },
        ];
        all.extend(BranchKind::ALL.map(|kind| Instr::Branch {
            kind,
            rs1,
            rs2,
            offset,
        }));
        all.extend(LoadKind::ALL.map(|kind| Instr::Load {
            kind,
            rd,
            rs1,
            offset,
        }));
        all.extend(StoreKind::ALL.map(|kind| Instr::Store {
            kind,
            rs1,
            rs2,
            offset,
        }));
        all.extend(OpImmKind::ALL.map(|kind| Instr::OpImm {
            kind,
            rd,
            rs1,
            imm: 3,
        }));
        all.extend(OpKind::ALL.map(|kind| Instr::Op { kind, rd, rs1, rs2 }));
        all
    }

    /// The opcode byte names the disassembler's mnemonic (`Op::PRet` is
    /// `p_ret`), no two mnemonics share one, every opcode is some
    /// instruction's, and the predicates on it are the instruction's.
    #[test]
    fn the_opcode_byte_is_total_and_faithful() {
        let all = every_instr();
        let mut seen = std::collections::HashSet::new();
        for instr in &all {
            let op = Decoded::new(*instr).op;
            let text = instr.to_string();
            let mnemonic = text.split(' ').next().unwrap().replace('_', "");
            assert_eq!(format!("{op:?}").to_lowercase(), mnemonic, "{text}");
            assert!(seen.insert(op), "{op:?} is two mnemonics' ({text})");
            assert_eq!(op.is_mem(), instr.is_mem(), "{text}");
            assert_eq!(op.is_p_ret(), instr.is_p_ret(), "{text}");
        }
        assert_eq!(
            all.len(),
            Op::PSwre as usize + 1,
            "an opcode of no mnemonic"
        );
    }

    #[test]
    fn mem_counters_feed_syncm() {
        let mut h = hart();
        h.boot(0, 0x1000);
        assert!(h.mem_drained());
        let seq = h.rename(Fetched {
            pc: 0,
            op: Decoded::new(Instr::Load {
                kind: lbp_isa::LoadKind::W,
                rd: Reg::A0,
                rs1: Reg::SP,
                offset: 0,
            }),
        });
        assert!(!h.mem_drained());
        h.issue(seq);
        assert!(h.mem_drained());
    }
}
