//! Quiescence-based deadlock detection.
//!
//! LBP has no traps: a protocol mistake (a join address never sent, a
//! `p_swre` to the wrong slot, a fork that can never be satisfied) hangs
//! the real hardware forever. The simulator can do better — it can *see*
//! that nothing is in flight anywhere and that no hart can take another
//! local step, which makes the hang a certainty, not a guess.
//!
//! The detector runs only once the machine has gone several cycles
//! without retiring anything (see `QUIET_CYCLES` in the machine). It then
//! checks, in order:
//!
//! 1. nothing in flight on the fork/join fabric, the memory network or
//!    any bank port (a message could unblock a hart);
//! 2. no pending fork request that a free hart could satisfy;
//! 3. no hart that can make *local* progress (fetch, rename, issue,
//!    write-back or commit could fire for it).
//!
//! If all three hold the machine state can never change again: the run is
//! reported as [`SimError::Deadlock`](crate::SimError::Deadlock) with
//! every blocked hart and the event it waits for. A busy-waiting program
//! (e.g. `loop: j loop`) retires instructions forever, keeps the quiet
//! counter at zero and still gets the honest
//! [`SimError::Timeout`](crate::SimError::Timeout).

use lbp_isa::{HartId, Instr};

use crate::error::BlockedHart;
use crate::hart::{HartCtx, HartState, RbWait};
use crate::machine::Machine;
use crate::xpar;

/// What one hart can do next, from its own state alone.
pub(crate) enum HartProgress {
    /// `Free`: not participating; never blocks the machine.
    Inert,
    /// Some pipeline stage can still fire for this hart.
    Ready,
    /// Stuck until an external event arrives.
    Blocked(Waiting),
}

/// The event a blocked hart waits for. Its `Display` is the description
/// the deadlock report and the crash dump carry — of both engines: the
/// functional one names its parked harts with the same variants, so a
/// hang reads the same cold and warm. Keeping the text out of
/// [`classify`] lets the per-cycle check answer without building strings.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Waiting {
    StartPc,
    JoinAddress,
    MemResponse,
    ForkAllocation,
    EndSignal,
    PretDrain,
    SyncmDrain,
    RecvSlot(u32),
    Operands,
    RenameCapacity,
    NextFetch(u32),
    NoPc,
}

impl Waiting {
    /// The deadlock report's line for `hart`.
    pub(crate) fn for_hart(self, hart: HartId) -> BlockedHart {
        BlockedHart {
            hart,
            waiting_on: self.to_string(),
        }
    }
}

impl std::fmt::Display for Waiting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Waiting::StartPc => f.write_str("a start pc (p_jal/p_jalr) that never arrived"),
            Waiting::JoinAddress => f.write_str("a join address that was never sent"),
            Waiting::MemResponse => f.write_str("a memory response that was lost"),
            Waiting::ForkAllocation => {
                f.write_str("a fork allocation (every hart of the target core stays busy)")
            }
            Waiting::EndSignal => {
                f.write_str("its team predecessor's ending signal before committing p_ret")
            }
            Waiting::PretDrain => {
                f.write_str("outstanding memory acknowledgements to drain before committing p_ret")
            }
            Waiting::SyncmDrain => {
                f.write_str("p_syncm: outstanding memory accesses that never completed")
            }
            Waiting::RecvSlot(slot) => {
                write!(f, "a p_swre result in slot {slot} that was never sent")
            }
            Waiting::Operands => f.write_str("source operands that can never become ready"),
            Waiting::RenameCapacity => {
                f.write_str("rename capacity (ROB/IT/physical registers) that will never free")
            }
            Waiting::NextFetch(pc) => {
                write!(f, "the next fetch address after {pc:#x} to resolve")
            }
            Waiting::NoPc => f.write_str("a next pc it has no way to obtain"),
        }
    }
}

/// Classifies one hart. `Blocked` reasons are ordered by root cause: the
/// stage closest to retirement wins, because that is what actually holds
/// the hart (everything younger queues behind it).
pub(crate) fn classify(h: &HartCtx) -> HartProgress {
    use HartProgress::{Blocked, Ready};
    match h.state {
        HartState::Free => return HartProgress::Inert,
        HartState::Reserved => return Blocked(Waiting::StartPc),
        HartState::WaitingJoin => return Blocked(Waiting::JoinAddress),
        HartState::Running => {}
    }
    // The result buffer: Until/Done complete on their own; Mem and Fork
    // need a message that (the caller established) is not in flight.
    if let Some(rb) = &h.rb {
        return match rb.wait {
            RbWait::Until { .. } | RbWait::Done { .. } => Ready,
            RbWait::Mem => Blocked(Waiting::MemResponse),
            RbWait::Fork => Blocked(Waiting::ForkAllocation),
        };
    }
    // Commit: a done ROB head retires — unless it is a p_ret gated on the
    // team barrier.
    if h.head_done() {
        if h.can_commit() {
            return Ready;
        }
        if !h.end_signal {
            return Blocked(Waiting::EndSignal);
        }
        return Blocked(Waiting::PretDrain);
    }
    // A draining p_syncm (release_syncm fires the moment the drain holds).
    if h.syncm_wait {
        if h.mem_drained() {
            return Ready;
        }
        return Blocked(Waiting::SyncmDrain);
    }
    // Issue: the instruction table holds work; is any entry eligible?
    if h.it_len() != 0 {
        if h.oldest_ready().is_some() {
            return Ready;
        }
        // Name the first `p_lwre` gated on an empty receive slot — the
        // classic "the producer never sent my result" deadlock.
        for seq in h.waiting_seqs() {
            if let Instr::PLwre { offset, .. } = h.slot(seq).instr {
                let slot = xpar::slot(offset);
                if h.recv.get(slot as usize).is_none_or(|q| q.is_empty()) {
                    return Blocked(Waiting::RecvSlot(slot));
                }
            }
        }
        return Blocked(Waiting::Operands);
    }
    // Rename: a fetched instruction waits for capacity.
    if let Some(f) = &h.ib {
        if h.rename_capacity(f.op.dest.is_some()) {
            return Ready;
        }
        return Blocked(Waiting::RenameCapacity);
    }
    // Fetch: with a pc and no suspension the front end advances by itself
    // (`resume_at` is always at most one cycle ahead).
    if let Some(pc) = h.pc {
        if !h.fetch_suspended {
            return Ready;
        }
        return Blocked(Waiting::NextFetch(pc));
    }
    // Running, empty pipeline, no pc: nothing can ever wake this hart.
    Blocked(Waiting::NoPc)
}

/// Checks the whole machine for quiescent deadlock. Returns `None` while
/// anything can still happen; otherwise the list of blocked harts (empty
/// when every hart ended without the program executing its exit `p_ret`),
/// in core order.
///
/// This runs on every quiet cycle, so the common answer — "not yet" — is
/// reached from the occupancy sets and, failing that, from one pass over
/// the harts of the cores that are awake, which builds nothing; the report
/// is put together only once it is certain there is one. A sleeping core
/// is not visited by that pass: its last tick fired no stage and left no
/// hart waiting on the clock, and nothing has reached it since, so no
/// stage can fire for any of its harts — none is
/// [`HartProgress::Ready`] — and its fork queue is not one a free hart
/// can serve (the allocator would have fired). The report does walk it,
/// because its harts may well be blocked.
pub(crate) fn check(m: &Machine) -> Option<Vec<BlockedHart>> {
    if m.exited {
        return None;
    }
    // Anything in flight can change hart state when it lands.
    if !m.fabric.is_quiet() || !m.mem.net.is_quiet() || !m.mem.ports_quiet() {
        return None;
    }
    let awake = || m.awake.iter().map(|c| &m.cores[c]);
    // A queued fork request next to a free hart will be satisfied.
    for core in awake() {
        if !core.alloc_q.is_empty() && core.harts.iter().any(|h| h.state == HartState::Free) {
            return None;
        }
    }
    let ready = |h: &HartCtx| matches!(classify(h), HartProgress::Ready);
    if awake().flat_map(|core| &core.harts).any(ready) {
        return None;
    }
    let blocked = m.cores.iter().flat_map(|core| &core.harts);
    let blocked = blocked.filter_map(|h| match classify(h) {
        HartProgress::Blocked(waiting) => Some(waiting.for_hart(h.id)),
        HartProgress::Inert | HartProgress::Ready => None,
    });
    Some(blocked.collect())
}
