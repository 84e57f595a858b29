//! One LBP core: four harts sharing a five-stage out-of-order pipeline.
//!
//! Every cycle each stage — fetch, decode/rename, issue, write-back,
//! commit — independently selects one eligible hart by round robin (paper
//! Figs. 10-12). A hart is suspended after *every* fetch until its next pc
//! is known: at decode for straight-line code and direct jumps, at execute
//! for conditional branches and indirect calls. There is no branch
//! predictor; multithreading hides the bubble.

use std::collections::VecDeque;

use lbp_isa::{HartId, IdentityWord, Instr, OpKind, HARTS_PER_CORE};

use crate::bank::{MemSys, Route};
use crate::config::{cv_base, ALU_LATENCY, DIV_LATENCY};
use crate::error::SimError;
use crate::fabric::Fabric;
use crate::hart::{Fetched, HartCtx, HartState, Rb, RbWait, Slot};
use crate::msg::{CoreMsg, NetMsg};
use crate::observe::Observers;
use crate::stats::{StallKind, Stats};
use crate::trace::EventKind;
use crate::xpar::{self, Ending};

/// Pipeline stage indices for the round-robin pointers.
const ST_FETCH: usize = 0;
const ST_RENAME: usize = 1;
const ST_ISSUE: usize = 2;
const ST_WB: usize = 3;
const ST_COMMIT: usize = 4;

/// Shared mutable context threaded through the pipeline stages; built
/// once per machine tick and handed to every core in turn.
pub(crate) struct Env<'a> {
    pub mem: &'a mut MemSys,
    pub fabric: &'a mut Fabric,
    pub stats: &'a mut Stats,
    /// Trace, sink, profiler and race witness: the pipeline reports to
    /// its hooks and never looks at which of them are on.
    pub obs: &'a mut Observers,
    /// RV32M multiplication latency in cycles.
    pub mul_latency: u32,
    pub now: u64,
    pub cores: usize,
    pub exited: &'a mut bool,
    /// Set by any commit stage that retires an instruction this tick.
    pub retired: bool,
}

/// One core: its four harts, the stage round-robin pointers and the hart
/// allocator queue.
#[derive(Debug)]
pub(crate) struct Core {
    pub index: u32,
    pub harts: [HartCtx; HARTS_PER_CORE],
    rr: [usize; 5],
    /// Pending fork requests (own `p_fc`s and `ForkReq`s from the
    /// predecessor core), satisfied one per cycle in arrival order.
    pub alloc_q: VecDeque<HartId>,
    /// Allocatable harts, in hand-out order: local indices never yet
    /// allocated (ascending), then recycled harts in the order their
    /// `p_ret`s committed. Because `p_ret` commits are serialized by the
    /// team-predecessor ending signal, this order is a pure function of
    /// the fork/join protocol — not of pipeline or fabric timing — which
    /// is what lets the functional engine reproduce hart assignment
    /// exactly. A set-based "lowest free" policy would instead depend on
    /// *when* an in-flight free lands relative to a fork request.
    pub free_q: VecDeque<u32>,
    /// The harts whose `syncm_wait` is set, one bit each: what lets a
    /// cycle skip [`Core::release_syncm`], which almost every cycle can.
    /// Derived from the harts, so never serialized: restore re-derives it,
    /// and nothing else sets `syncm_wait` from outside the pipeline.
    syncm: u8,
}

/// The stall slot a core records for a cycle in which it retires nothing:
/// the bucket, and the pc it blames if any.
pub(crate) type StallSlot = (StallKind, Option<u32>);

impl Core {
    pub fn new(index: u32) -> Core {
        Core {
            index,
            harts: std::array::from_fn(|l| HartCtx::new(HartId::from_parts(index, l as u32))),
            rr: [0; 5],
            // Each hart has at most one fork request outstanding, and
            // requests come from this core and its predecessor.
            alloc_q: VecDeque::with_capacity(2 * HARTS_PER_CORE),
            free_q: (0..HARTS_PER_CORE as u32).collect(),
            syncm: 0,
        }
    }

    fn syncm_mask(&self) -> u8 {
        let bit = |(l, h): (usize, &HartCtx)| (h.syncm_wait as u8) << l;
        self.harts.iter().enumerate().map(bit).sum()
    }

    pub(crate) fn snap(&self, w: &mut crate::snapshot::SnapWriter) {
        w.u32(self.index);
        w.seq(self.harts.len());
        for h in &self.harts {
            h.snap(w);
        }
        for &p in &self.rr {
            w.u64(p as u64);
        }
        w.seq(self.alloc_q.len());
        for &h in &self.alloc_q {
            crate::snapshot::put_hart(w, h);
        }
        w.seq(self.free_q.len());
        for &l in &self.free_q {
            w.u32(l);
        }
    }

    pub(crate) fn unsnap(
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<Core, crate::snapshot::SnapError> {
        let index = r.u32()?;
        let harts = (0..r.seq()?)
            .map(|_| HartCtx::unsnap(r))
            .collect::<Result<Vec<_>, _>>()?;
        let harts = harts.try_into().map_err(|harts: Vec<_>| {
            let n = harts.len();
            crate::snapshot::SnapError::Corrupt(format!("core {index} has {n} harts"))
        })?;
        let mut rr = [0usize; 5];
        for p in &mut rr {
            *p = r.u64()? as usize;
        }
        let mut alloc_q = VecDeque::new();
        for _ in 0..r.seq()? {
            alloc_q.push_back(crate::snapshot::get_hart(r)?);
        }
        let mut free_q = VecDeque::new();
        for _ in 0..r.seq()? {
            let l = r.u32()?;
            if l >= HARTS_PER_CORE as u32 {
                return Err(crate::snapshot::SnapError::Corrupt(format!(
                    "free-queue entry {l} is not a local hart index"
                )));
            }
            free_q.push_back(l);
        }
        let mut core = Core {
            index,
            harts,
            rr,
            alloc_q,
            free_q,
            syncm: 0,
        };
        core.syncm = core.syncm_mask();
        Ok(core)
    }

    /// Round-robin selection of one hart satisfying `pred`, advancing the
    /// stage pointer past the chosen hart. Picking nobody leaves the
    /// pointer alone, so a tick that fires nothing changes nothing.
    #[inline]
    fn select(&mut self, stage: usize, pred: impl Fn(&HartCtx) -> bool) -> Option<usize> {
        let start = self.rr[stage];
        for k in 0..HARTS_PER_CORE {
            let i = (start + k) % HARTS_PER_CORE;
            if pred(&self.harts[i]) {
                self.rr[stage] = (i + 1) % HARTS_PER_CORE;
                return Some(i);
            }
        }
        None
    }

    /// One full core cycle (stages run in reverse pipeline order so each
    /// stage sees the state its predecessors left at the end of the
    /// previous cycle).
    ///
    /// Returns the stall slot the core can sleep on: `Some` when no stage
    /// fired and no hart waits on the clock ([`HartCtx::waits_on_clock`]).
    /// Such a tick changed nothing, and every stage's choice depends only
    /// on the harts, the fork queue and those two clock-driven waits, so
    /// the next tick finds the same state and records the same slot — and
    /// so does every one after it until something from outside the core
    /// (a delivery, a `flip-reg` fault) changes it.
    pub fn tick(&mut self, env: &mut Env<'_>) -> Result<Option<StallSlot>, SimError> {
        debug_assert_eq!(self.syncm, self.syncm_mask());
        let mut fired = self.process_alloc(env)?;
        if self.syncm != 0 {
            fired |= self.release_syncm(env.now);
        }
        let committed = self.stage_commit(env)?;
        fired |= self.stage_writeback(env);
        fired |= self.stage_issue(env)?;
        fired |= self.stage_rename(env);
        fired |= self.stage_fetch(env)?;
        // Stall attribution: commit selects at most one hart per cycle, so
        // a core cycle either retires one instruction or is a stall slot.
        // Classifying each slot into exactly one bucket yields the exact
        // partition `sum(stalls) + retired == cycles` per core.
        let Some(pc) = committed else {
            let slot @ (kind, blamed) = self.classify_stall();
            env.stats.stalls_per_core[self.index as usize].bump(kind);
            env.obs.stalled(self.index as usize, kind, blamed, 1);
            let asleep = !fired && !self.harts.iter().any(|h| h.waits_on_clock(env.now));
            return Ok(asleep.then_some(slot));
        };
        env.retired = true;
        env.obs.retired(self.index as usize, pc);
        Ok(None)
    }

    /// The program location a stalling hart is blamed at: the oldest
    /// in-flight instruction (ROB head), else the fetched-but-unrenamed
    /// instruction, else the next fetch pc.
    fn blame_loc(h: &HartCtx) -> Option<u32> {
        h.head()
            .map(|e| e.pc)
            .or_else(|| h.ib.as_ref().map(|f| f.pc))
            .or(h.pc)
    }

    /// Attributes a non-retiring cycle to its dominant cause. The checks
    /// run in a fixed priority order (synchronization before memory before
    /// operands before structural hazards), so the classification is as
    /// deterministic as the machine itself. Alongside the bucket, the
    /// classifier names the program location it blames — the oldest
    /// in-flight instruction of the hart that triggered the
    /// classification — or `None` when no instruction is blamable.
    fn classify_stall(&self) -> StallSlot {
        if self.harts.iter().all(|h| h.state == HartState::Free) {
            return (StallKind::Idle, None);
        }
        let running = |h: &&HartCtx| h.state == HartState::Running;
        // Synchronization: a committing p_ret held by the barrier, or a
        // draining p_syncm.
        for h in self.harts.iter().filter(running) {
            // A head that has written back and still cannot commit is a
            // `p_ret`.
            let pret_blocked = h.head_done() && !h.can_commit();
            if pret_blocked || h.syncm_wait {
                return (StallKind::SyncWait, Self::blame_loc(h));
            }
        }
        // Outstanding memory traffic (load responses or store acks).
        for h in self.harts.iter().filter(running) {
            if matches!(
                h.rb,
                Some(Rb {
                    wait: RbWait::Mem,
                    ..
                })
            ) || h.in_flight_mem > 0
            {
                return (StallKind::MemWait, Self::blame_loc(h));
            }
        }
        // A pending fork allocation is synchronization with the allocator.
        for h in self.harts.iter().filter(running) {
            if matches!(
                h.rb,
                Some(Rb {
                    wait: RbWait::Fork,
                    ..
                })
            ) {
                return (StallKind::SyncWait, Self::blame_loc(h));
            }
        }
        // Instructions waiting in the table with no ready operands.
        for h in self.harts.iter().filter(running) {
            if h.it_len() != 0 && h.oldest_ready().is_none() {
                return (StallKind::OperandWait, Self::blame_loc(h));
            }
        }
        // The single-entry result buffer is occupied (functional-unit
        // latency not yet hidden): the structural throttle of one hart.
        for h in self.harts.iter().filter(running) {
            if h.rb.is_some() {
                return (StallKind::RbFull, Self::blame_loc(h));
            }
        }
        if !self.harts.iter().any(|h| h.state == HartState::Running) {
            // Only Reserved/WaitingJoin harts: waiting for a start pc or a
            // join message from another core. No local instruction to
            // blame — the cause is on another core.
            return (StallKind::SyncWait, None);
        }
        // Running harts with an empty back end: the front end has not
        // produced a committable instruction (post-fetch suspension
        // waiting for the next pc, or the pipeline is filling). Blame the
        // first running hart's location.
        let loc = self.harts.iter().find(running).and_then(Self::blame_loc);
        (StallKind::FetchStarved, loc)
    }

    /// Satisfies at most one pending fork request with the head of the
    /// free queue (never-allocated harts in index order, then recycled
    /// harts in `p_ret`-commit order — see [`Core::free_q`]). Returns
    /// whether it allocated.
    fn process_alloc(&mut self, env: &mut Env<'_>) -> Result<bool, SimError> {
        let Some(&requester) = self.alloc_q.front() else {
            return Ok(false);
        };
        let Some(&child_front) = self.free_q.front() else {
            return Ok(false); // all four harts busy: the fork stalls, deterministically
        };
        let child_local = child_front as usize;
        debug_assert_eq!(
            self.harts[child_local].state,
            HartState::Free,
            "free-queue head must be a free hart"
        );
        self.free_q.pop_front();
        self.alloc_q.pop_front();
        let child = HartId::from_parts(self.index, child_local as u32);
        let sp = cv_base(child);
        self.harts[child_local].allocate(sp);
        self.syncm &= !(1 << child_local);
        env.stats.forks += 1;
        env.obs.event(env.now, requester, EventKind::Fork { child });
        if requester.core() == self.index {
            // Complete the local `p_fc`.
            let rb = self.harts[requester.local() as usize]
                .rb
                .as_mut()
                .ok_or_else(|| SimError::Protocol {
                    hart: requester,
                    what: "a fork was allocated for a hart with no pending p_fc".to_owned(),
                })?;
            debug_assert!(matches!(rb.wait, RbWait::Fork));
            rb.wait = RbWait::Done {
                value: Some(child.global()),
            };
        } else {
            // Reply to the predecessor core's `p_fn`.
            env.fabric.send(
                self.index,
                CoreMsg::ForkReply {
                    to: requester,
                    child,
                },
            );
        }
        Ok(true)
    }

    /// Releases harts whose `p_syncm` drain condition is now met; returns
    /// whether it released any.
    fn release_syncm(&mut self, now: u64) -> bool {
        let mut released = false;
        for (l, h) in self.harts.iter_mut().enumerate() {
            if h.syncm_wait && h.mem_drained() {
                h.syncm_wait = false;
                self.syncm &= !(1 << l);
                h.unsuspend_next(now);
                released = true;
            }
        }
        released
    }

    // Each stage below returns whether it selected a hart.

    fn stage_fetch(&mut self, env: &mut Env<'_>) -> Result<bool, SimError> {
        let now = env.now;
        let Some(i) = self.select(ST_FETCH, |h| {
            h.state == HartState::Running && h.pc.is_some() && h.can_fetch(now) && h.ib.is_none()
        }) else {
            return Ok(false);
        };
        let h = &mut self.harts[i];
        let pc = h.pc.expect("checked by predicate");
        let op = *env.mem.code.fetch(pc, h.id)?;
        h.ib = Some(Fetched { pc, op });
        h.fetch_suspended = true;
        let id = h.id;
        env.obs.event(env.now, id, EventKind::Fetch { pc });
        Ok(true)
    }

    fn stage_rename(&mut self, env: &mut Env<'_>) -> bool {
        let Some(i) = self.select(ST_RENAME, |h| {
            h.ib.as_ref()
                .is_some_and(|f| h.rename_capacity(f.op.dest.is_some()))
        }) else {
            return false;
        };
        let h = &mut self.harts[i];
        let f = h.ib.take().expect("checked by predicate");
        h.rename(f);
        // Next-pc resolution (releases the post-fetch suspension).
        match f.op.instr {
            Instr::Jal { offset, .. } | Instr::PJal { offset, .. } => {
                h.pc = Some(f.pc.wrapping_add(offset as u32));
                h.unsuspend_next(env.now);
            }
            Instr::Branch { .. } | Instr::Jalr { .. } => {
                // Resolved at execute; stay suspended.
            }
            Instr::PJalr { rd, .. } => {
                if rd.is_zero() {
                    // p_ret: the hart fetches nothing more until it is
                    // ended, joined or restarted.
                    h.pc = None;
                } // call form: target known at execute; stay suspended.
            }
            Instr::PSyncm => {
                // Fetch stays blocked until the hart's memory accesses
                // drain (released by `release_syncm`).
                h.pc = Some(f.pc.wrapping_add(4));
                h.syncm_wait = true;
                self.syncm |= 1 << i;
            }
            _ => {
                h.pc = Some(f.pc.wrapping_add(4));
                h.unsuspend_next(env.now);
            }
        }
        true
    }

    fn stage_issue(&mut self, env: &mut Env<'_>) -> Result<bool, SimError> {
        let Some(i) = self.select(ST_ISSUE, |h| h.rb.is_none() && h.oldest_ready().is_some())
        else {
            return Ok(false);
        };
        let seq = self.harts[i].oldest_ready().expect("checked by predicate");
        let entry = self.harts[i].issue(seq);
        let wait = self.execute(i, &entry, env)?;
        self.harts[i].rb = Some(Rb {
            seq,
            dest: entry.dest,
            wait,
        });
        Ok(true)
    }

    /// Executes one instruction (the issue + functional-unit step),
    /// returning the result-buffer wait state.
    fn execute(
        &mut self,
        hart_idx: usize,
        e: &Slot,
        env: &mut Env<'_>,
    ) -> Result<RbWait, SimError> {
        let now = env.now;
        let alu = |v: u32| RbWait::Until {
            at: now + ALU_LATENCY as u64,
            value: Some(v),
        };
        let silent = RbWait::Until {
            at: now + ALU_LATENCY as u64,
            value: None,
        };
        let id = self.harts[hart_idx].id;
        let v1 = self.harts[hart_idx].src_value(e.srcs[0]);
        let v2 = self.harts[hart_idx].src_value(e.srcs[1]);
        Ok(match e.instr {
            Instr::Lui { imm, .. } => alu(imm),
            Instr::Auipc { imm, .. } => alu(e.pc.wrapping_add(imm)),
            Instr::OpImm { kind, imm, .. } => alu(kind.eval(v1, imm)),
            Instr::Op { kind, .. } => {
                if kind.is_muldiv() {
                    env.stats.muldiv_ops += 1;
                }
                let cycles = if kind.is_muldiv() {
                    if matches!(
                        kind,
                        OpKind::Mul | OpKind::Mulh | OpKind::Mulhsu | OpKind::Mulhu
                    ) {
                        env.mul_latency
                    } else {
                        DIV_LATENCY
                    }
                } else {
                    ALU_LATENCY
                };
                RbWait::Until {
                    at: now + cycles as u64,
                    value: Some(kind.eval(v1, v2)),
                }
            }
            Instr::Jal { .. } => alu(e.pc.wrapping_add(4)),
            Instr::Jalr { offset, .. } => {
                let target = v1.wrapping_add(offset as u32) & !1;
                let h = &mut self.harts[hart_idx];
                h.pc = Some(target);
                h.unsuspend_next(now);
                alu(e.pc.wrapping_add(4))
            }
            Instr::Branch { kind, offset, .. } => {
                let target = if kind.taken(v1, v2) {
                    e.pc.wrapping_add(offset as u32)
                } else {
                    e.pc.wrapping_add(4)
                };
                let h = &mut self.harts[hart_idx];
                h.pc = Some(target);
                h.unsuspend_next(now);
                silent
            }
            Instr::Load { kind, offset, .. } => {
                let addr = v1.wrapping_add(offset as u32);
                env.obs.load(id, e.pc, addr, kind.size() as u8);
                self.send_read(
                    id,
                    addr,
                    kind.size() as u8,
                    matches!(kind, lbp_isa::LoadKind::B | lbp_isa::LoadKind::H),
                    env,
                )?;
                self.harts[hart_idx].in_flight_mem += 1;
                RbWait::Mem
            }
            Instr::Store { kind, offset, .. } => {
                let addr = v1.wrapping_add(offset as u32);
                env.obs.store(id, e.pc, addr, kind.size() as u8);
                self.send_write(id, addr, v2, kind.size() as u8, env)?;
                self.harts[hart_idx].in_flight_mem += 1;
                silent
            }
            Instr::PLwcv { offset, .. } => {
                let addr = cv_base(id).wrapping_add(offset as u32);
                self.send_read(id, addr, 4, false, env)?;
                self.harts[hart_idx].in_flight_mem += 1;
                RbWait::Mem
            }
            Instr::PSwcv { offset, .. } => {
                self.harts[hart_idx].in_flight_mem += 1;
                let target = xpar::cv_target(id, v1, env.cores)?;
                if target.core() == self.index {
                    let addr = cv_base(target).wrapping_add(offset as u32);
                    env.mem.local_request(
                        self.index,
                        NetMsg::WriteReq {
                            addr,
                            value: v2,
                            size: 4,
                            hart: id,
                        },
                        now,
                    );
                    env.obs.event(
                        env.now,
                        id,
                        EventKind::MemWrite {
                            addr,
                            bank: self.index,
                            value: v2,
                        },
                    );
                    env.stats.local_accesses += 1;
                } else {
                    env.fabric.send(
                        self.index,
                        CoreMsg::CvWrite {
                            to: target,
                            offset: offset as u32,
                            value: v2,
                            from: id,
                        },
                    );
                }
                silent
            }
            Instr::PLwre { offset, .. } => {
                let slot = xpar::slot(offset) as usize;
                let value = self.harts[hart_idx].recv[slot]
                    .pop_front()
                    .expect("issue gated on a full slot");
                alu(value)
            }
            Instr::PSwre { offset, .. } => {
                // rs1 is an identity word: the receiving (prior) hart is in
                // the upper half (`p_set` puts it there; `p_merge` keeps it).
                let target = xpar::result_target(id, v1)?;
                env.fabric.send(
                    self.index,
                    CoreMsg::Result {
                        to: target,
                        slot: xpar::slot(offset),
                        value: v2,
                    },
                );
                silent
            }
            Instr::PFc { .. } => {
                self.alloc_q.push_back(id);
                RbWait::Fork
            }
            Instr::PFn { .. } => {
                xpar::fork_next(id, env.cores)?;
                env.fabric.send(self.index, CoreMsg::ForkReq { from: id });
                RbWait::Fork
            }
            Instr::PSet { .. } => alu(IdentityWord::from_bits(v1).set(id).bits()),
            Instr::PMerge { .. } => alu(IdentityWord::from_bits(v1)
                .merge(IdentityWord::from_bits(v2))
                .bits()),
            Instr::PSyncm => silent,
            Instr::PJalr { rd, .. } if rd.is_zero() => {
                // p_ret: resolved here, acted on at commit (in team order).
                self.harts[hart_idx].pret = Some((v1, v2));
                silent
            }
            Instr::PJal { .. } | Instr::PJalr { .. } => {
                // Parallelized call: start the allocated hart (low half of
                // rs1) at pc+4 as the team successor and clear rd; `p_jalr`
                // jumps locally to rs2 (`p_jal`'s target is known at rename).
                let to = xpar::start_target(id, v1, env.cores)?;
                let pc = e.pc.wrapping_add(4);
                env.fabric.send(self.index, CoreMsg::Start { to, pc });
                let h = &mut self.harts[hart_idx];
                h.team_succ = Some(to);
                if let Instr::PJalr { .. } = e.instr {
                    h.pc = Some(v2 & !1);
                    h.unsuspend_next(now);
                }
                alu(0)
            }
        })
    }

    /// Routes a read request to the right port.
    fn send_read(
        &mut self,
        hart: HartId,
        addr: u32,
        size: u8,
        signed: bool,
        env: &mut Env<'_>,
    ) -> Result<(), SimError> {
        let msg = NetMsg::ReadReq {
            addr,
            hart,
            size,
            signed,
        };
        let bank = self.route_request(hart, addr, msg, env)?;
        env.obs
            .event(env.now, hart, EventKind::MemRead { addr, bank });
        Ok(())
    }

    /// Routes a write request to the right port.
    fn send_write(
        &mut self,
        hart: HartId,
        addr: u32,
        value: u32,
        size: u8,
        env: &mut Env<'_>,
    ) -> Result<(), SimError> {
        let msg = NetMsg::WriteReq {
            addr,
            value,
            size,
            hart,
        };
        let bank = self.route_request(hart, addr, msg, env)?;
        env.obs
            .event(env.now, hart, EventKind::MemWrite { addr, bank, value });
        Ok(())
    }

    /// Hands a request to the port that serves its address and returns the
    /// core whose bank that is.
    fn route_request(
        &mut self,
        hart: HartId,
        addr: u32,
        msg: NetMsg,
        env: &mut Env<'_>,
    ) -> Result<u32, SimError> {
        match env.mem.banks.route(addr, hart)?.to {
            Route::Local | Route::Io => {
                env.mem.local_request(self.index, msg, env.now);
                env.stats.local_accesses += 1;
                Ok(self.index)
            }
            Route::Shared { bank } => {
                env.obs.noc_request(self.index as usize, bank as usize);
                if bank == self.index {
                    env.mem.shared_local_request(self.index, msg, env.now);
                    env.stats.local_accesses += 1;
                } else {
                    env.mem.net.send_from_core(self.index, msg);
                    env.stats.remote_accesses += 1;
                }
                Ok(bank)
            }
        }
    }

    fn stage_writeback(&mut self, env: &mut Env<'_>) -> bool {
        let now = env.now;
        let Some(i) = self.select(ST_WB, |h| {
            h.rb.as_ref().is_some_and(|rb| match rb.wait {
                RbWait::Done { .. } => true,
                RbWait::Until { at, .. } => at <= now,
                RbWait::Mem | RbWait::Fork => false,
            })
        }) else {
            return false;
        };
        let h = &mut self.harts[i];
        let rb = h.rb.take().expect("checked by predicate");
        let value = match rb.wait {
            RbWait::Done { value } | RbWait::Until { value, .. } => value,
            _ => unreachable!("predicate admits only completed buffers"),
        };
        if let Some(dest) = rb.dest {
            h.write_phys(
                dest,
                value.expect("instruction with a destination produced a value"),
            );
        }
        h.rob_mark_done(rb.seq);
        true
    }

    /// Commits at most one instruction; returns the committed pc, if one
    /// retired.
    fn stage_commit(&mut self, env: &mut Env<'_>) -> Result<Option<u32>, SimError> {
        let Some(i) = self.select(ST_COMMIT, HartCtx::can_commit) else {
            return Ok(None);
        };
        let h = &mut self.harts[i];
        let (pc, is_pret) = h.pop_head();
        let id = h.id;
        env.stats.retired_per_hart[id.global() as usize] += 1;
        env.obs.event(env.now, id, EventKind::Commit { pc });
        if is_pret {
            let resolved = h.pret.take().expect("p_ret resolved at issue");
            self.commit_p_ret(i, resolved, env)?;
        }
        Ok(Some(pc))
    }

    /// The four ending types of a committing `p_ret` (paper §4).
    fn commit_p_ret(
        &mut self,
        hart_idx: usize,
        (ra, t0): (u32, u32),
        env: &mut Env<'_>,
    ) -> Result<(), SimError> {
        let id = self.harts[hart_idx].id;
        self.harts[hart_idx].end_signal = false; // consumed
        match Ending::of(id, ra, t0) {
            Ending::Exit => {
                *env.exited = true;
                env.obs.event(env.now, id, EventKind::Exit);
            }
            Ending::AwaitJoin => {
                self.harts[hart_idx].state = HartState::WaitingJoin;
                self.forward_end_signal(hart_idx, env);
            }
            Ending::End => {
                self.end_hart(hart_idx, env);
                self.forward_end_signal(hart_idx, env);
            }
            Ending::Join { to } => {
                // A join to the hart itself (the paper's Fig. 7: the
                // team's last member calls the thread function with a
                // plain `jalr` after `p_set t0`) resumes this same hart,
                // so it waits instead of freeing.
                xpar::join_target(id, to)?;
                env.fabric.send(self.index, CoreMsg::Join { to, pc: ra });
                if to == id {
                    self.harts[hart_idx].state = HartState::WaitingJoin;
                } else {
                    self.end_hart(hart_idx, env);
                }
            }
        }
        Ok(())
    }

    /// Ends a hart (`p_ret` types 1 and 4): `Free` again and allocatable.
    fn end_hart(&mut self, hart_idx: usize, env: &mut Env<'_>) {
        self.harts[hart_idx].end();
        self.free_q.push_back(hart_idx as u32);
        let id = self.harts[hart_idx].id;
        env.obs.event(env.now, id, EventKind::HartEnd);
    }

    /// Forwards the ending-hart signal to the team successor — the hart
    /// this hart's fork started (recorded at `p_jal`/`p_jalr`). A hart
    /// that forked nothing has no successor and the signal stops.
    fn forward_end_signal(&mut self, hart_idx: usize, env: &mut Env<'_>) {
        let h = &self.harts[hart_idx];
        let id = h.id;
        if let Some(next) = h.team_succ {
            if (next.core() as usize) < env.cores {
                env.fabric.send(self.index, CoreMsg::EndSignal { to: next });
                env.obs.event(env.now, id, EventKind::EndSignal);
            }
        }
    }
}
