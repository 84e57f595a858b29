//! Guest-program profiling collectors (the machine side of `lbp-prof`).
//!
//! When profiling is enabled ([`Machine::enable_profiling`]
//! (crate::Machine::enable_profiling)), the machine attributes every core
//! cycle to a program counter: a retiring cycle to the committed
//! instruction's pc, a stall slot to the pc the stall classifier blames
//! (the oldest in-flight instruction of the hart it singled out). The
//! attribution refines the six-bucket stall partition of
//! [`Stats`](crate::Stats) down to program locations while preserving its
//! exactness: per core, the attributed retired and stall counts sum to
//! the machine cycle count.
//!
//! The collectors also record a shared-traffic matrix (requests from each
//! source core to each shared bank — the load the deterministic routes
//! place on the NoC links), a bank-conflict matrix (queued request-cycles
//! at the shared banks by requester core), and a fork-tree timeline
//! (fork/start/join/end events), all sampled per interval when the
//! configuration sets `sample_interval`.
//!
//! Profiling is strictly observational: every mutator is reached only
//! through the machine's `Observers` hooks (`observe.rs`), which keep
//! every collector zero-cost when off and out of snapshots. The timeline
//! is not a second event vocabulary: it is the hart-lifecycle subset
//! (`Fork`/`Start`/`Join`/`HartEnd`/`Exit`) of the one [`Event`] stream.

use std::collections::BTreeMap;

use crate::bank::is_code_word;
use crate::stats::{CoreStalls, StallKind};
use crate::trace::Event;

/// Cycle attribution of one (core, pc) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcCounters {
    /// Cycles this pc retired on this core.
    pub retired: u64,
    /// Stall slots blamed on this pc, by bucket.
    pub stalls: CoreStalls,
}

impl PcCounters {
    /// Total cycles attributed to the pc (retired + stall slots).
    pub fn cycles(&self) -> u64 {
        self.retired + self.stalls.total()
    }
}

/// One per-interval sample of the traffic matrices: the *deltas* over
/// the `interval` cycles ending at `cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfInterval {
    /// The cycle the interval ends on.
    pub cycle: u64,
    /// The number of cycles the interval covers.
    pub interval: u64,
    /// Shared requests issued during the interval, `[src * cores + bank]`.
    pub noc_requests: Vec<u64>,
    /// Conflict request-cycles during the interval, `[req * cores + bank]`.
    pub bank_conflicts: Vec<u64>,
}

/// All profiling collectors of one machine.
///
/// Row-major square matrices of side `cores`: `noc_requests[src][bank]`
/// counts shared-memory requests from `src` to shared bank `bank` (the
/// diagonal is the own-slice local port; off-diagonal requests ride the
/// router hierarchy), `bank_conflicts[req][bank]` counts request-cycles
/// a requester's messages spent queued at a busy shared-bank port.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfData {
    cores: usize,
    /// Words in the code bank: the row length of `per_word`.
    code_words: usize,
    /// The counters of every code word of every core, core by core, a
    /// core's at `pc >> 2`: one retiring or stalling core-cycle is one
    /// indexed add. A word is listed once it has been charged.
    per_word: Vec<PcCounters>,
    /// Per core, whatever else a stall was blamed on: the misaligned
    /// target of a `jalr`, a pc past the bank (blamed before the fetch
    /// of it faults).
    elsewhere: Vec<BTreeMap<u32, PcCounters>>,
    unattributed: Vec<CoreStalls>,
    noc_requests: Vec<u64>,
    bank_conflicts: Vec<u64>,
    timeline: Vec<Event>,
    intervals: Vec<ProfInterval>,
    cursor_noc: Vec<u64>,
    cursor_conflicts: Vec<u64>,
}

impl ProfData {
    /// Creates empty collectors for a `cores`-core machine running a
    /// program of `code_words` instruction words.
    pub fn new(cores: usize, code_words: usize) -> ProfData {
        ProfData {
            cores,
            code_words,
            per_word: vec![PcCounters::default(); cores * code_words],
            elsewhere: vec![BTreeMap::new(); cores],
            unattributed: vec![CoreStalls::default(); cores],
            noc_requests: vec![0; cores * cores],
            bank_conflicts: vec![0; cores * cores],
            timeline: Vec::new(),
            intervals: Vec::new(),
            cursor_noc: vec![0; cores * cores],
            cursor_conflicts: vec![0; cores * cores],
        }
    }

    /// The counters of `pc` on `core`.
    #[inline]
    fn counters(&mut self, core: usize, pc: u32) -> &mut PcCounters {
        if is_code_word(self.code_words, pc) {
            &mut self.per_word[core * self.code_words + (pc >> 2) as usize]
        } else {
            self.elsewhere[core].entry(pc).or_default()
        }
    }

    /// Attributes one retiring cycle of `core` to the committed `pc`.
    #[inline]
    pub(crate) fn retired(&mut self, core: usize, pc: u32) {
        self.counters(core, pc).retired += 1;
    }

    /// Attributes `n` stall slots of `core` to the blamed `pc` (or to the
    /// core's unattributed bucket when no instruction is blamable, e.g.
    /// an idle core).
    #[inline]
    pub(crate) fn stalled(&mut self, core: usize, pc: Option<u32>, kind: StallKind, n: u64) {
        let stalls = match pc {
            Some(pc) => &mut self.counters(core, pc).stalls,
            None => &mut self.unattributed[core],
        };
        stalls.charge(kind, n);
    }

    /// Counts one shared-memory request from `src` to shared bank `bank`.
    pub(crate) fn noc_request(&mut self, src: usize, bank: usize) {
        self.noc_requests[src * self.cores + bank] += 1;
    }

    /// Adds `n` queued request-cycles of `requester` at shared bank
    /// `bank`.
    pub(crate) fn bank_conflict(&mut self, requester: usize, bank: usize, n: u64) {
        self.bank_conflicts[requester * self.cores + bank] += n;
    }

    /// Appends one hart-lifecycle event to the fork-tree timeline.
    pub(crate) fn lifecycle(&mut self, event: Event) {
        self.timeline.push(event);
    }

    /// Closes the current interval: records the matrix deltas since the
    /// previous sample (mirrors the stats interval sampler).
    pub(crate) fn take_interval(&mut self, cycle: u64, interval: u64) {
        let delta = |cur: &[u64], cursor: &[u64]| -> Vec<u64> {
            cur.iter().zip(cursor).map(|(&c, &p)| c - p).collect()
        };
        self.intervals.push(ProfInterval {
            cycle,
            interval,
            noc_requests: delta(&self.noc_requests, &self.cursor_noc),
            bank_conflicts: delta(&self.bank_conflicts, &self.cursor_conflicts),
        });
        self.cursor_noc.copy_from_slice(&self.noc_requests);
        self.cursor_conflicts.copy_from_slice(&self.bank_conflicts);
    }

    /// The machine size the collectors were built for.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The code words of one core that were charged, in pc order. Every
    /// charge is of at least one cycle, so an untouched word is one whose
    /// cycles are zero.
    fn charged_words(&self, core: usize) -> impl Iterator<Item = (u32, &PcCounters)> {
        let row = &self.per_word[core * self.code_words..][..self.code_words];
        let charged = row.iter().enumerate().filter(|(_, c)| c.cycles() != 0);
        charged.map(|(word, c)| ((word as u32) << 2, c))
    }

    /// The per-pc attribution of one core, in pc order.
    pub fn per_pc(&self, core: usize) -> impl Iterator<Item = (u32, &PcCounters)> {
        let mut words = self.charged_words(core).peekable();
        let mut elsewhere = self.elsewhere[core]
            .iter()
            .map(|(&pc, c)| (pc, c))
            .peekable();
        // No pc is in both.
        std::iter::from_fn(move || match (words.peek(), elsewhere.peek()) {
            (Some(word), Some(other)) if other.0 < word.0 => elsewhere.next(),
            (Some(_), _) => words.next(),
            (None, _) => elsewhere.next(),
        })
    }

    /// Stall slots of one core no instruction could be blamed for.
    pub fn unattributed(&self, core: usize) -> &CoreStalls {
        &self.unattributed[core]
    }

    /// The cumulative shared-request matrix, row-major `[src][bank]`.
    pub fn noc_matrix(&self) -> &[u64] {
        &self.noc_requests
    }

    /// The cumulative bank-conflict matrix, row-major `[req][bank]`.
    pub fn conflict_matrix(&self) -> &[u64] {
        &self.bank_conflicts
    }

    /// The fork-tree timeline: the run's `Fork` (stamped with the
    /// requesting hart), `Start`, `Join`, `HartEnd` and `Exit` events, in
    /// event order.
    pub fn timeline(&self) -> &[Event] {
        &self.timeline
    }

    /// The per-interval matrix samples.
    pub fn intervals(&self) -> &[ProfInterval] {
        &self.intervals
    }

    /// Total cycles attributed to one core: per-pc retired + per-pc
    /// stalls + unattributed stalls. Equals the machine cycle count for
    /// every core of a profiled run (the exactness invariant).
    pub fn attributed_cycles(&self, core: usize) -> u64 {
        let charged = self.per_pc(core).map(|(_, c)| c.cycles());
        charged.sum::<u64>() + self.unattributed[core].total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_partitions() {
        let mut p = ProfData::new(2, 8);
        p.retired(0, 0x10);
        p.retired(0, 0x10);
        p.stalled(0, Some(0x14), StallKind::MemWait, 1);
        p.stalled(0, None, StallKind::Idle, 1);
        p.stalled(1, None, StallKind::Idle, 1);
        assert_eq!(p.attributed_cycles(0), 4);
        assert_eq!(p.attributed_cycles(1), 1);
        let cells: Vec<_> = p.per_pc(0).collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0, 0x10);
        assert_eq!(cells[0].1.retired, 2);
        assert_eq!(cells[1].1.stalls.mem_wait, 1);
        assert_eq!(p.unattributed(0).idle, 1);
    }

    /// A stall can be blamed on a pc that is no code word — the odd
    /// target of a `jalr`, a pc past the bank — and those come out in pc
    /// order among the table's.
    #[test]
    fn pcs_that_are_no_code_word_are_listed_in_order_with_those_that_are() {
        let mut p = ProfData::new(1, 4); // code words at 0x0, 0x4, 0x8, 0xc
        p.stalled(0, Some(0x40), StallKind::FetchStarved, 1); // past the bank
        p.retired(0, 0xc);
        p.stalled(0, Some(0x6), StallKind::FetchStarved, 1); // misaligned
        p.retired(0, 0x4);
        p.stalled(0, Some(0x10), StallKind::MemWait, 2); // the first pc past it
        p.retired(0, 0x4);
        let listed: Vec<_> = p.per_pc(0).map(|(pc, c)| (pc, c.cycles())).collect();
        assert_eq!(listed, [(0x4, 2), (0x6, 1), (0xc, 1), (0x10, 2), (0x40, 1)]);
        assert_eq!(p.attributed_cycles(0), 7);
    }

    #[test]
    fn matrices_and_intervals_delta() {
        let mut p = ProfData::new(2, 0);
        p.noc_request(0, 1);
        p.noc_request(0, 1);
        p.bank_conflict(1, 0, 3);
        p.take_interval(100, 100);
        p.noc_request(1, 0);
        p.take_interval(200, 100);
        assert_eq!(p.noc_matrix()[1], 2); // [0][1]
        assert_eq!(p.conflict_matrix()[2], 3); // [1][0]
        assert_eq!(p.intervals().len(), 2);
        assert_eq!(p.intervals()[0].noc_requests[1], 2);
        assert_eq!(p.intervals()[1].noc_requests[1], 0);
        assert_eq!(p.intervals()[1].noc_requests[2], 1);
        assert_eq!(p.intervals()[1].bank_conflicts[2], 0);
    }

    #[test]
    fn timeline_records_order() {
        use crate::trace::EventKind;
        let mut p = ProfData::new(1, 0);
        let hart = lbp_isa::HartId::new(0);
        for (cycle, kind) in [(1, EventKind::Fork { child: hart }), (2, EventKind::Exit)] {
            p.lifecycle(Event { cycle, hart, kind });
        }
        assert_eq!(p.timeline().len(), 2);
        assert_eq!(p.timeline()[0].kind.name(), "fork");
        assert_eq!(p.timeline()[1].cycle, 2);
    }
}
