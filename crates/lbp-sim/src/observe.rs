//! The machine's one observation surface.
//!
//! Everything that *watches* a run without being part of it lives in one
//! [`Observers`] value: the event sink (streaming or in-memory), the
//! profiler and the race witness. The machine reports what happens
//! through the typed hooks below and never asks which collectors are on.
//! Two rules hold for all of them, argued here once:
//!
//! - **Zero cost when off.** Every hook is `#[inline]`, returns nothing,
//!   touches no machine state, and starts with the one test that decides
//!   whether anybody listens: a plain run pays one predictable branch per
//!   hook, and an observed run is bit-identical to it.
//! - **Never snapshotted.** [`Observers::off`] is the only constructor
//!   and both `Machine::new` and `Machine::restore` call it: a restored
//!   machine starts with no sink and both collectors off, and no
//!   observer writes a snapshot byte. An observer switched on after a
//!   restore reports from the restore on, so the prefix's output followed
//!   by the resumed run's is the unsplit run's
//!   (`tests/snapshot_roundtrip.rs`). An observer whose verdict spans an
//!   interval cannot do that for a restore inside the interval, and
//!   refuses it: the race witness judges a team from its fork to its
//!   join, so `lbp-run` refuses it on a machine restored inside a
//!   parallel region ([`Machine::in_parallel_region`](crate::Machine::in_parallel_region)).

use lbp_isa::HartId;

use crate::prof::ProfData;
use crate::race::RaceData;
use crate::stats::StallKind;
use crate::trace::{Event, EventKind, TraceSink};

/// All observers of one machine (see the module docs).
pub(crate) struct Observers {
    pub sink: Option<Box<dyn TraceSink>>,
    pub prof: Option<Box<ProfData>>,
    pub race: Option<Box<RaceData>>,
}

impl Observers {
    /// Everything off.
    pub fn off() -> Observers {
        Observers {
            sink: None,
            prof: None,
            race: None,
        }
    }

    /// One machine event: recorded by the sink and, for the hart-lifecycle
    /// kinds, by the profiler's fork-tree timeline.
    #[inline]
    pub fn event(&mut self, cycle: u64, hart: HartId, kind: EventKind) {
        // Every hook site passes a literal variant, so `timeline` folds to
        // `false` at all but the five lifecycle sites and the test is the
        // sink one alone. `|`, not `||`: one branch, not two.
        let timeline = self.prof.is_some() & is_lifecycle(&kind);
        if self.sink.is_some() | timeline {
            self.deliver(Event { cycle, hart, kind });
        }
    }

    /// The listening half of [`Observers::event`], kept out of line so
    /// the dozen hook sites in the pipeline stay one test each.
    #[inline(never)]
    fn deliver(&mut self, event: Event) {
        if let Some(p) = self.prof.as_mut().filter(|_| is_lifecycle(&event.kind)) {
            p.lifecycle(event.clone());
        }
        if let Some(sink) = &mut self.sink {
            sink.record(&event);
        }
    }

    /// `core` retired the instruction at `pc` this cycle.
    #[inline]
    pub fn retired(&mut self, core: usize, pc: u32) {
        if let Some(p) = &mut self.prof {
            p.retired(core, pc);
        }
    }

    /// `core` retired nothing for `n` cycles: that many `kind` stall
    /// slots, blamed on the instruction at `blamed` (if any is blamable).
    #[inline]
    pub fn stalled(&mut self, core: usize, kind: StallKind, blamed: Option<u32>, n: u64) {
        if let Some(p) = &mut self.prof {
            p.stalled(core, blamed, kind, n);
        }
    }

    /// `hart` issued the load (`write` false) or store at `pc` to `addr`.
    #[inline]
    pub fn access(&mut self, hart: HartId, pc: u32, addr: u32, write: bool) {
        if let Some(r) = &mut self.race {
            r.access(hart, pc, addr, write);
        }
    }

    /// `from` sent `to` a start pc: `to` is the next member of `from`'s
    /// team.
    #[inline]
    pub fn start(&mut self, from: HartId, to: HartId) {
        if let Some(r) = &mut self.race {
            r.start(from, to);
        }
    }

    /// A join address reached `to`: its team's members are done.
    #[inline]
    pub fn join(&mut self, to: HartId) {
        if let Some(r) = &mut self.race {
            r.join(to);
        }
    }

    /// Core `src` sent a request to shared bank `bank`.
    #[inline]
    pub fn noc_request(&mut self, src: usize, bank: usize) {
        if let Some(p) = &mut self.prof {
            p.noc_request(src, bank);
        }
    }

    /// One queued request-cycle at shared bank `bank` for each requester
    /// core in `requesters` (lazy: not walked unless profiling is on).
    #[inline]
    pub fn bank_conflict(&mut self, bank: usize, requesters: impl Iterator<Item = usize>) {
        if let Some(p) = &mut self.prof {
            for requester in requesters {
                p.bank_conflict(requester, bank, 1);
            }
        }
    }

    /// The interval sampler closed the `len` cycles ending at `cycle`.
    #[inline]
    pub fn interval(&mut self, cycle: u64, len: u64) {
        if let Some(p) = &mut self.prof {
            p.take_interval(cycle, len);
        }
    }
}

/// The kinds that make up the profiler's fork-tree timeline.
#[inline]
fn is_lifecycle(kind: &EventKind) -> bool {
    use EventKind::{Exit, Fork, HartEnd, Join, Start};
    matches!(
        kind,
        Fork { .. } | Start { .. } | Join { .. } | HartEnd | Exit
    )
}
