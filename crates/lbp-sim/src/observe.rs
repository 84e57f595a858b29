//! The machine's one observation surface.
//!
//! Everything that *watches* a run without being part of it lives in one
//! [`Observers`] value: the in-memory trace and its on/off bit, the
//! streaming sink, the profiler and the race witness. The machine reports
//! what happens through the typed hooks below and never asks which
//! collectors are on. Two rules hold for all of them, argued here once:
//!
//! - **Zero cost when off.** Every hook is `#[inline]`, returns nothing,
//!   touches no machine state, and starts with the one test that decides
//!   whether anybody listens: a plain run pays one predictable branch per
//!   hook, and an observed run is bit-identical to it.
//! - **Never snapshotted.** [`Observers::off`] is the only constructor
//!   and both `Machine::new` and `Machine::restore` call it: a restored
//!   machine starts with an empty trace, no sink and both collectors
//!   off. The one bit that does cross a snapshot, `cfg.trace`, is
//!   configuration, which is why the constructor takes it.

use lbp_isa::HartId;

use crate::prof::ProfData;
use crate::race::RaceData;
use crate::stats::StallKind;
use crate::trace::{Event, EventKind, Trace, TraceSink};

/// All observers of one machine (see the module docs).
pub(crate) struct Observers {
    pub trace: Trace,
    /// Mirrors `cfg.trace`; `Machine::set_trace` keeps the two in step.
    pub trace_on: bool,
    pub sink: Option<Box<dyn TraceSink>>,
    pub prof: Option<Box<ProfData>>,
    pub race: Option<Box<RaceData>>,
}

impl Observers {
    /// Everything off, except that the in-memory trace follows the
    /// machine's `cfg.trace`.
    pub fn off(trace_on: bool) -> Observers {
        Observers {
            trace: Trace::new(),
            trace_on,
            sink: None,
            prof: None,
            race: None,
        }
    }

    /// One machine event: streamed to the sink, appended to the
    /// in-memory trace, and — for the hart-lifecycle kinds — to the
    /// profiler's fork-tree timeline.
    #[inline]
    pub fn event(&mut self, cycle: u64, hart: HartId, kind: EventKind) {
        // Every hook site passes a literal variant, so `timeline` folds to
        // `false` at all but the five lifecycle sites and the test is the
        // trace/sink one alone. `|`, not `||`: one branch, not three.
        let timeline = self.prof.is_some() & is_lifecycle(&kind);
        if self.trace_on | self.sink.is_some() | timeline {
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
        if self.trace_on {
            self.trace.push(event.cycle, event.hart, event.kind);
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

    /// `hart` issued the load at `pc`: `size` bytes at `addr`.
    #[inline]
    pub fn load(&mut self, hart: HartId, pc: u32, addr: u32, size: u8) {
        if let Some(r) = &mut self.race {
            r.read(hart, pc, addr, size);
        }
    }

    /// `hart` issued the store at `pc`: `size` bytes at `addr`.
    #[inline]
    pub fn store(&mut self, hart: HartId, pc: u32, addr: u32, size: u8) {
        if let Some(r) = &mut self.race {
            r.write(hart, pc, addr, size);
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

    /// A rendezvous message (fork reply, start, join) reached `to`, which
    /// was provably not executing: a happens-before edge.
    #[inline]
    pub fn rendezvous(&mut self, to: HartId) {
        if let Some(r) = &mut self.race {
            r.sync(to);
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
