//! Per-hart microarchitectural state: program counter, instruction buffer,
//! renaming table, renaming register file, instruction table (waiting
//! station), reorder buffer, result buffer and `p_swre` receive slots
//! (paper Figs. 11-12).

use std::collections::VecDeque;

use lbp_isa::{HartId, Instr, Reg};

use crate::snapshot::{
    get_hart, get_instr, put_hart, put_instr, SnapError, SnapReader, SnapWriter,
};

/// Index into a hart's renaming (physical) register file.
pub(crate) type PhysReg = u16;

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

/// One renamed-register-file entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrfEntry {
    pub value: u32,
    pub ready: bool,
}

/// One predecoded code word: the instruction plus the operand facts the
/// rename stage asks of it every cycle it sits in the instruction buffer.
/// Derived from `instr` alone, so it is never serialized.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    pub instr: Instr,
    /// `instr.sources()`.
    pub srcs: [Option<Reg>; 2],
    /// `instr.dest()`.
    pub dest: Option<Reg>,
    /// `instr.is_mem()`.
    pub is_mem: bool,
    /// `instr.is_p_ret()`.
    pub is_pret: bool,
}

impl Decoded {
    pub fn new(instr: Instr) -> Decoded {
        Decoded {
            instr,
            srcs: instr.sources(),
            dest: instr.dest(),
            is_mem: instr.is_mem(),
            is_pret: instr.is_p_ret(),
        }
    }
}

/// The fetched instruction sitting in the 1-entry instruction buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetched {
    pub pc: u32,
    pub op: Decoded,
}

/// One instruction-table (waiting station) entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ItEntry {
    pub seq: u64,
    pub pc: u32,
    pub instr: Instr,
    /// Renamed sources (positionally rs1, rs2); `None` reads as zero.
    pub srcs: [Option<PhysReg>; 2],
    /// Renamed destination.
    pub dest: Option<PhysReg>,
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

/// One reorder-buffer entry (in-order commit).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RobEntry {
    pub seq: u64,
    pub pc: u32,
    pub done: bool,
    /// `(new_phys, old_phys)`: the old mapping is freed at commit.
    pub dest: Option<(PhysReg, Option<PhysReg>)>,
    /// For `p_ret`: the resolved `(ra, t0)` pair, filled at issue.
    pub pret: Option<(u32, u32)>,
    pub is_pret: bool,
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
    pub prf: Vec<PrfEntry>,
    pub free_phys: VecDeque<PhysReg>,
    pub it: Vec<ItEntry>,
    pub rob: VecDeque<RobEntry>,
    pub rb: Option<Rb>,
    pub next_seq: u64,
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
    /// Capacity limits (from the machine configuration).
    it_capacity: usize,
    rob_capacity: usize,
}

impl HartCtx {
    /// Creates a hart in the `Free` state.
    pub fn new(
        id: HartId,
        phys_regs: usize,
        it_capacity: usize,
        rob_capacity: usize,
        result_slots: usize,
    ) -> HartCtx {
        assert!(phys_regs >= 34, "need at least 32 + 2 physical registers");
        let mut h = HartCtx {
            id,
            state: HartState::Free,
            pc: None,
            fetch_suspended: true,
            resume_at: 0,
            syncm_wait: false,
            ib: None,
            rat: [0; 32],
            prf: vec![
                PrfEntry {
                    value: 0,
                    ready: true
                };
                phys_regs
            ],
            free_phys: VecDeque::new(),
            it: Vec::with_capacity(it_capacity),
            rob: VecDeque::with_capacity(rob_capacity),
            rb: None,
            next_seq: 0,
            mem_in_it: 0,
            in_flight_mem: 0,
            recv: (0..result_slots).map(|_| VecDeque::new()).collect(),
            end_signal: false,
            team_succ: None,
            it_capacity,
            rob_capacity,
        };
        h.reset_register_state(0);
        h
    }

    /// Resets the renaming state: architectural register `i` maps to
    /// physical register `i`, all zero except `sp`.
    fn reset_register_state(&mut self, sp: u32) {
        for i in 0..32 {
            self.rat[i] = i as PhysReg;
            self.prf[i] = PrfEntry {
                value: 0,
                ready: true,
            };
        }
        self.prf[Reg::SP.index()] = PrfEntry {
            value: sp,
            ready: true,
        };
        self.free_phys.clear();
        self.free_phys.extend(32..self.prf.len() as PhysReg);
        self.it.clear();
        self.rob.clear();
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
    pub fn can_fetch(&self, now: u64) -> bool {
        !self.fetch_suspended && now >= self.resume_at
    }

    /// Reads a source operand value if ready.
    pub fn src_ready(&self, src: Option<PhysReg>) -> bool {
        src.is_none_or(|p| self.prf[p as usize].ready)
    }

    /// The value of a renamed source (`None` reads as zero, i.e. `x0`).
    pub fn src_value(&self, src: Option<PhysReg>) -> u32 {
        src.map_or(0, |p| self.prf[p as usize].value)
    }

    /// Whether rename can accept one more instruction.
    pub fn rename_capacity(&self, needs_dest: bool) -> bool {
        self.rob.len() < self.rob_capacity
            && self.it.len() < self.it_capacity
            && (!needs_dest || !self.free_phys.is_empty())
    }

    /// Renames and inserts an instruction; returns its sequence number.
    ///
    /// The caller must have checked [`HartCtx::rename_capacity`].
    pub fn rename(&mut self, f: Fetched) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let srcs = f.op.srcs.map(|s| s.map(|r| self.rat[r.index()]));
        let dest = f.op.dest.map(|rd| {
            let new = self.free_phys.pop_front().expect("checked by capacity");
            let old = self.rat[rd.index()];
            self.rat[rd.index()] = new;
            self.prf[new as usize].ready = false;
            (rd, new, old)
        });
        self.it.push(ItEntry {
            seq,
            pc: f.pc,
            instr: f.op.instr,
            srcs,
            dest: dest.map(|(_, new, _)| new),
        });
        self.rob.push_back(RobEntry {
            seq,
            pc: f.pc,
            done: false,
            dest: dest.map(|(_, new, old)| (new, Some(old))),
            pret: None,
            is_pret: f.op.is_pret,
        });
        if f.op.is_mem {
            self.mem_in_it += 1;
        }
        seq
    }

    /// The oldest instruction-table entry whose operands (and special
    /// conditions) are satisfied. The table is appended in `seq` order and
    /// `Vec::remove` keeps order, so the first ready entry is the oldest.
    pub fn oldest_ready(&self) -> Option<usize> {
        debug_assert!(self.it.windows(2).all(|w| w[0].seq < w[1].seq));
        self.it.iter().position(|e| {
            self.src_ready(e.srcs[0])
                && self.src_ready(e.srcs[1])
                && match e.instr {
                    Instr::PLwre { offset, .. } => self
                        .recv
                        .get(offset as usize)
                        .is_some_and(|q| !q.is_empty()),
                    _ => true,
                }
        })
    }

    /// The ROB entry of `seq`. ROB sequence numbers are consecutive, so
    /// the entry sits at `seq - front.seq`.
    fn rob_entry(&mut self, seq: u64) -> &mut RobEntry {
        let front = self
            .rob
            .front()
            .expect("rob entry for an in-flight seq")
            .seq;
        let e = &mut self.rob[(seq - front) as usize];
        debug_assert_eq!(e.seq, seq, "rob seqs are consecutive");
        e
    }

    /// Marks the ROB entry of `seq` as done.
    pub fn rob_mark_done(&mut self, seq: u64) {
        self.rob_entry(seq).done = true;
    }

    /// Stores the resolved `(ra, t0)` pair in the ROB entry of a `p_ret`.
    pub fn rob_set_pret(&mut self, seq: u64, ra: u32, t0: u32) {
        self.rob_entry(seq).pret = Some((ra, t0));
    }

    /// Whether every memory access decoded so far has completed
    /// (the `p_syncm` drain condition).
    pub fn mem_drained(&self) -> bool {
        self.mem_in_it == 0 && self.in_flight_mem == 0
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
        for &p in &self.rat {
            w.u16(p);
        }
        w.seq(self.prf.len());
        for e in &self.prf {
            w.u32(e.value);
            w.bool(e.ready);
        }
        w.seq(self.free_phys.len());
        for &p in &self.free_phys {
            w.u16(p);
        }
        w.seq(self.it.len());
        for e in &self.it {
            w.u64(e.seq);
            w.u32(e.pc);
            put_instr(w, &e.instr);
            for s in &e.srcs {
                w.opt(s, |w, &p| w.u16(p));
            }
            w.opt(&e.dest, |w, &p| w.u16(p));
        }
        w.seq(self.rob.len());
        for e in &self.rob {
            w.u64(e.seq);
            w.u32(e.pc);
            w.bool(e.done);
            w.opt(&e.dest, |w, &(new, old)| {
                w.u16(new);
                w.opt(&old, |w, &p| w.u16(p));
            });
            w.opt(&e.pret, |w, &(ra, t0)| {
                w.u32(ra);
                w.u32(t0);
            });
            w.bool(e.is_pret);
        }
        w.opt(&self.rb, |w, rb| {
            w.u64(rb.seq);
            w.opt(&rb.dest, |w, &p| w.u16(p));
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
        w.u64(self.it_capacity as u64);
        w.u64(self.rob_capacity as u64);
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<HartCtx, SnapError> {
        let id = get_hart(r)?;
        let state = match r.u8()? {
            0 => HartState::Free,
            1 => HartState::Reserved,
            2 => HartState::Running,
            3 => HartState::WaitingJoin,
            other => return Err(SnapError::Corrupt(format!("bad hart state tag {other}"))),
        };
        let pc = r.opt(|r| r.u32())?;
        let fetch_suspended = r.bool()?;
        let resume_at = r.u64()?;
        let syncm_wait = r.bool()?;
        let ib = r.opt(|r| {
            Ok(Fetched {
                pc: r.u32()?,
                op: Decoded::new(get_instr(r)?),
            })
        })?;
        let mut rat = [0 as PhysReg; 32];
        for slot in &mut rat {
            *slot = r.u16()?;
        }
        let mut prf = Vec::new();
        for _ in 0..r.seq()? {
            prf.push(PrfEntry {
                value: r.u32()?,
                ready: r.bool()?,
            });
        }
        let mut free_phys = VecDeque::new();
        for _ in 0..r.seq()? {
            free_phys.push_back(r.u16()?);
        }
        let mut it = Vec::new();
        for _ in 0..r.seq()? {
            let seq = r.u64()?;
            let pc = r.u32()?;
            let instr = get_instr(r)?;
            let srcs = [r.opt(|r| r.u16())?, r.opt(|r| r.u16())?];
            let dest = r.opt(|r| r.u16())?;
            it.push(ItEntry {
                seq,
                pc,
                instr,
                srcs,
                dest,
            });
        }
        let mut rob = VecDeque::new();
        for _ in 0..r.seq()? {
            let seq = r.u64()?;
            let pc = r.u32()?;
            let done = r.bool()?;
            let dest = r.opt(|r| {
                let new = r.u16()?;
                let old = r.opt(|r| r.u16())?;
                Ok((new, old))
            })?;
            let pret = r.opt(|r| Ok((r.u32()?, r.u32()?)))?;
            let is_pret = r.bool()?;
            rob.push_back(RobEntry {
                seq,
                pc,
                done,
                dest,
                pret,
                is_pret,
            });
        }
        let rb = r.opt(|r| {
            let seq = r.u64()?;
            let dest = r.opt(|r| r.u16())?;
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
        let next_seq = r.u64()?;
        let mem_in_it = r.u32()?;
        let in_flight_mem = r.u32()?;
        let mut recv = Vec::new();
        for _ in 0..r.seq()? {
            let mut q = VecDeque::new();
            for _ in 0..r.seq()? {
                q.push_back(r.u32()?);
            }
            recv.push(q);
        }
        let end_signal = r.bool()?;
        let team_succ = r.opt(get_hart)?;
        let it_capacity = r.u64()? as usize;
        let rob_capacity = r.u64()? as usize;
        // Sanity: every renamed physical register must exist.
        let bound = prf.len() as u64;
        let bad_phys =
            rat.iter().any(|&p| p as u64 >= bound) || free_phys.iter().any(|&p| p as u64 >= bound);
        if bad_phys {
            return Err(SnapError::Corrupt(format!(
                "hart {id}: physical register index beyond the {bound}-entry file"
            )));
        }
        // Issue picks the first ready table entry as the oldest, and
        // write-back indexes the ROB at `seq - front.seq`: both orders
        // must hold in whatever arrives here, and every in-flight `seq`
        // must name a ROB entry.
        if !it.windows(2).all(|w| w[0].seq < w[1].seq) {
            return Err(SnapError::Corrupt(format!(
                "hart {id}: instruction-table sequence numbers are not ascending"
            )));
        }
        let rob_first = rob.front().map_or(next_seq, |e| e.seq);
        let consecutive = rob.iter().zip(rob_first..).all(|(e, want)| e.seq == want);
        if !consecutive || rob_first.checked_add(rob.len() as u64) != Some(next_seq) {
            return Err(SnapError::Corrupt(format!(
                "hart {id}: reorder-buffer sequence numbers are not consecutive up to {next_seq}"
            )));
        }
        let in_rob = |seq: u64| (rob_first..next_seq).contains(&seq);
        if let Some(seq) = (it.iter().map(|e| e.seq))
            .chain(rb.iter().map(|rb| rb.seq))
            .find(|&seq| !in_rob(seq))
        {
            return Err(SnapError::Corrupt(format!(
                "hart {id}: in-flight sequence number {seq} names no reorder-buffer entry"
            )));
        }
        Ok(HartCtx {
            id,
            state,
            pc,
            fetch_suspended,
            resume_at,
            syncm_wait,
            ib,
            rat,
            prf,
            free_phys,
            it,
            rob,
            rb,
            next_seq,
            mem_in_it,
            in_flight_mem,
            recv,
            end_signal,
            team_succ,
            it_capacity,
            rob_capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_isa::OpImmKind;

    fn hart() -> HartCtx {
        HartCtx::new(HartId::new(0), 64, 32, 32, 8)
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Fetched {
        Fetched {
            pc: 0,
            op: Decoded::new(Instr::OpImm {
                kind: OpImmKind::Add,
                rd,
                rs1,
                imm,
            }),
        }
    }

    #[test]
    fn rename_allocates_and_tracks_old_mapping() {
        let mut h = hart();
        h.boot(0, 0x1000);
        let before = h.rat[Reg::A0.index()];
        h.rename(addi(Reg::A0, Reg::A0, 1));
        let after = h.rat[Reg::A0.index()];
        assert_ne!(before, after);
        assert_eq!(h.rob[0].dest, Some((after, Some(before))));
        assert!(!h.prf[after as usize].ready);
        // Source was renamed against the old mapping.
        assert_eq!(h.it[0].srcs[0], Some(before));
    }

    #[test]
    fn oldest_ready_respects_dependencies() {
        let mut h = hart();
        h.boot(0, 0x1000);
        h.rename(addi(Reg::A0, Reg::A1, 1)); // ready (a1 ready)
        h.rename(addi(Reg::A2, Reg::A0, 1)); // depends on the first
        let idx = h.oldest_ready().unwrap();
        assert_eq!(h.it[idx].seq, 0);
        // Make the first's dest ready: second becomes eligible, but the
        // first is still older.
        let d = h.it[0].dest.unwrap();
        h.prf[d as usize] = PrfEntry {
            value: 7,
            ready: true,
        };
        h.it.remove(0);
        let idx = h.oldest_ready().unwrap();
        assert_eq!(h.it[idx].seq, 1);
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
        assert!(h.it.is_empty() && h.rob.is_empty());
        assert_eq!(h.prf[h.rat[Reg::SP.index()] as usize].value, 0x2000);
        assert_eq!(h.prf[h.rat[Reg::A0.index()] as usize].value, 0);
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
        assert!(h.src_ready(None));
        assert_eq!(h.src_value(None), 0);
    }

    /// A hart with three instructions in flight (sequence numbers 0..3),
    /// the oldest issued into the result buffer.
    fn in_flight() -> HartCtx {
        let mut h = hart();
        h.boot(0, 0x1000);
        for _ in 0..3 {
            h.rename(addi(Reg::A0, Reg::A1, 1));
        }
        let issued = h.it.remove(0);
        h.rb = Some(Rb {
            seq: issued.seq,
            dest: issued.dest,
            wait: RbWait::Mem,
        });
        h
    }

    /// What `restore` makes of the snapshot of `h`.
    fn round_trip(h: &HartCtx) -> Result<HartCtx, SnapError> {
        let mut w = SnapWriter::new();
        h.snap(&mut w);
        let bytes = w.into_bytes();
        HartCtx::unsnap(&mut SnapReader::new(&bytes))
    }

    fn assert_corrupt(h: &HartCtx, what: &str) {
        match round_trip(h) {
            Err(SnapError::Corrupt(why)) => assert!(why.contains(what), "{why}"),
            other => panic!("expected a corrupt-snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn unsnap_accepts_a_hart_in_flight() {
        let h = round_trip(&in_flight()).unwrap();
        assert_eq!((h.it.len(), h.rob.len(), h.next_seq), (2, 3, 3));
    }

    /// Issue takes the first ready table entry for the oldest.
    #[test]
    fn unsnap_rejects_a_descending_instruction_table() {
        let mut h = in_flight();
        h.it.swap(0, 1);
        assert_corrupt(&h, "not ascending");
    }

    /// Write-back finds its ROB entry at `seq - front.seq`.
    #[test]
    fn unsnap_rejects_a_gap_in_the_reorder_buffer() {
        let mut h = in_flight();
        h.rob[1].seq = 7;
        assert_corrupt(&h, "not consecutive");
        let mut h = in_flight();
        h.next_seq = 9; // the next rename would open the gap
        assert_corrupt(&h, "not consecutive");
    }

    /// ... and would index past the end for a `seq` the ROB does not hold.
    #[test]
    fn unsnap_rejects_a_result_buffer_outside_the_reorder_buffer() {
        let mut h = in_flight();
        h.rb.as_mut().unwrap().seq = 3;
        assert_corrupt(&h, "names no reorder-buffer entry");
        let mut h = in_flight();
        h.rob.pop_front(); // seq 0 retired, yet still in the result buffer
        assert_corrupt(&h, "names no reorder-buffer entry");
    }

    #[test]
    fn mem_counters_feed_syncm() {
        let mut h = hart();
        h.boot(0, 0x1000);
        assert!(h.mem_drained());
        h.rename(Fetched {
            pc: 0,
            op: Decoded::new(Instr::Load {
                kind: lbp_isa::LoadKind::W,
                rd: Reg::A0,
                rs1: Reg::SP,
                offset: 0,
            }),
        });
        assert!(!h.mem_drained());
    }
}
