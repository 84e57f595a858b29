//! The race witness: deterministic OpenMP's join check, run on the team
//! the machine forks — the soundness net under `lbp-verify`'s M-pass.
//!
//! Members of a team must not conflict between fork and join: no shared
//! word may be written by two members, or written by one and read by
//! another (*Deterministic Consistency*). lbp-sema checks that on the
//! source at each join, and the witness on the machine, with the same
//! code: [`note`] keeps a word's two lowest writers and readers,
//! [`Overlap::of`] picks the lowest conflicting pair and
//! [`Overlap::message`] words it.
//!
//! *Teams.* A `p_jal`/`p_jalr` starts the allocated hart on the rest of
//! the fork loop, and that hart forks the next member. So the `Start`
//! send gives the started hart its starter's team and member index + 1,
//! and a starter in no team opens one as member 0: lbp-sema's member
//! numbering. The `Join` delivered to a member closes its team.
//!
//! *The table.* One entry per shared word, allocated zeroed (untouched
//! pages cost nothing): the tag of the team that last touched the word,
//! then its writers and readers, each with the hart and pc of its first
//! such access. At the join, the team's touched words give the lowest
//! conflicting word, member pair and kind: one [`RaceWitness`].
//!
//! The collector is reached only through the machine's `Observers`
//! hooks, which cost one branch each when it is off; it never changes the
//! simulation and is never snapshotted.

use std::fmt;

use lbp_isa::{HartId, HARTS_PER_CORE, SHARED_BASE};

use crate::LbpConfig;

/// Witnesses stop accumulating past this count; a racy loop of regions
/// would otherwise add one per join.
const MAX_WITNESSES: usize = 64;

/// An empty slot of a lowest-two set.
pub const NOBODY: u32 = u32::MAX;

/// A lowest-two set: the two lowest-indexed members that did something,
/// each with where it first did it ([`NOBODY`] marks an empty slot).
pub type Two<A> = [(u32, A); 2];

/// Adds member `m`, seen at `at`, to a lowest-two set; a member already
/// there keeps its first `at`.
#[inline]
pub fn note<A: Copy>(two: &mut Two<A>, m: u32, at: A) {
    if m < two[0].0 {
        two[1] = two[0];
        two[0] = (m, at);
    } else if m != two[0].0 && m < two[1].0 {
        two[1] = (m, at);
    }
}

/// The overlap of two members on one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// Both members wrote it (lower index first).
    Writes(u32, u32),
    /// One wrote it, the other read it.
    ReadWrite {
        /// The writing member.
        writer: u32,
        /// The reading member.
        reader: u32,
    },
}

impl Overlap {
    /// The member pair, lower index first.
    #[inline]
    pub fn pair(self) -> (u32, u32) {
        match self {
            Overlap::Writes(a, b) => (a, b),
            Overlap::ReadWrite { writer, reader } => (writer.min(reader), writer.max(reader)),
        }
    }

    /// The lowest conflicting member pair on a word with these writers
    /// and readers, if any, with where each of the two (first writer,
    /// then the other writer or the reader) did it. A lowest pair never
    /// needs a member past the two lowest writers and readers: swapping
    /// one for a lower member of the same set lowers the pair.
    #[inline]
    pub fn of<A: Copy>(writers: &Two<A>, readers: &Two<A>) -> Option<(Overlap, [A; 2])> {
        let [(w0, at0), (w1, at1)] = *writers;
        let mut best = (w1 != NOBODY).then_some((Overlap::Writes(w0, w1), [at0, at1]));
        for &(writer, w_at) in writers {
            for &(reader, r_at) in readers {
                if writer == NOBODY || reader == NOBODY || writer == reader {
                    continue;
                }
                let rw = Overlap::ReadWrite { writer, reader };
                if best.is_none_or(|(b, _)| rw.pair() < b.pair()) {
                    best = Some((rw, [w_at, r_at]));
                }
            }
        }
        best
    }

    /// The conflict in lbp-sema's words: `on` names the word and `who`
    /// a member.
    #[cold]
    pub fn message(self, on: impl fmt::Display, who: impl Fn(u32) -> String) -> String {
        match self {
            Overlap::Writes(a, b) => format!(
                "write/write conflict on {on}: members {} and {} both write it",
                who(a),
                who(b)
            ),
            Overlap::ReadWrite { writer, reader } => format!(
                "read/write conflict on {on}: member {} writes it and member {} reads it",
                who(writer),
                who(reader)
            ),
        }
    }
}

/// One conflict the machine showed: the lowest conflicting word of a
/// team at its join, and the lowest member pair on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWitness {
    /// The conflicting shared word's address.
    pub addr: u32,
    /// The kind and the member pair.
    pub overlap: Overlap,
    /// Hart and pc of the first member the message names (the lower
    /// writer, or the writer): the pc of its first such access.
    pub first: (HartId, u32),
    /// Hart and pc of the second member.
    pub second: (HartId, u32),
}

impl fmt::Display for RaceWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let second = match self.overlap {
            Overlap::Writes(_, b) => b,
            Overlap::ReadWrite { reader, .. } => reader,
        };
        let who = |m: u32| {
            let (hart, pc) = if m == second { self.second } else { self.first };
            format!("{m} (hart {hart}, pc {pc:#x})")
        };
        let on = format!("{:#010x}", self.addr);
        f.write_str(&self.overlap.message(on, who))
    }
}

/// Where a member first touched a word: its hart (global id) and pc.
type At = (u32, u32);

/// What one team did to one shared word: the team's tag (0: none yet),
/// its writers and its readers. Plain integers, so the table allocates
/// zeroed.
type Shadow = (u32, Two<At>, Two<At>);

/// The race-witness collector. Created by
/// [`crate::Machine::enable_race_witness`]; read back through
/// [`crate::Machine::race_witnesses`].
#[derive(Debug)]
pub struct RaceData {
    /// Per hart (global id): its team's tag (0: none) and member index.
    member: Vec<(u32, u32)>,
    /// The tag the next team opened gets.
    next_tag: u32,
    /// One entry per shared word.
    shadow: Vec<Shadow>,
    /// The words open teams touched, each once per team.
    touched: Vec<u32>,
    /// Collected witnesses, in join order, at most [`MAX_WITNESSES`].
    pub(crate) witnesses: Vec<RaceWitness>,
}

impl RaceData {
    /// An empty collector for a machine of configuration `cfg`.
    pub(crate) fn new(cfg: &LbpConfig) -> RaceData {
        RaceData {
            member: vec![(0, 0); cfg.cores * HARTS_PER_CORE],
            next_tag: 1,
            shadow: vec![(0, [(0, (0, 0)); 2], [(0, (0, 0)); 2]); cfg.shared_bytes() as usize / 4],
            touched: Vec::new(),
            witnesses: Vec::new(),
        }
    }

    /// `from` sent hart `to` its start pc: `to` joins `from`'s team as
    /// the next member, and a `from` in no team opens one as member 0.
    pub(crate) fn start(&mut self, from: HartId, to: HartId) {
        let starter = &mut self.member[from.global() as usize];
        if starter.0 == 0 {
            *starter = (self.next_tag, 0);
            self.next_tag += 1;
        }
        let (tag, m) = *starter;
        self.member[to.global() as usize] = (tag, m + 1);
    }

    /// `hart` accessed the shared word at `addr` at `pc`, writing it or
    /// reading it. Accesses outside a team or the banks are not checked.
    /// Not `#[inline]`: inlined into the issue stage's two memory arms it
    /// made the machine ~7 % slower with the collector off (empty
    /// fork-joins on 64 cores, 2-core x86-64 host).
    pub(crate) fn access(&mut self, hart: HartId, pc: u32, addr: u32, write: bool) {
        let (tag, m) = self.member[hart.global() as usize];
        // Below the banks the subtraction wraps past the table's end.
        let word = addr.wrapping_sub(SHARED_BASE) / 4;
        let Some(entry) = self.shadow.get_mut(word as usize).filter(|_| tag != 0) else {
            return;
        };
        if entry.0 != tag {
            *entry = (tag, [(NOBODY, (0, 0)); 2], [(NOBODY, (0, 0)); 2]);
            self.touched.push(word);
        }
        let set = if write { &mut entry.1 } else { &mut entry.2 };
        note(set, m, (hart.global(), pc));
    }

    /// A join address reached `to`: its team closes, and `to` leaves it.
    pub(crate) fn join(&mut self, to: HartId) {
        let tag = std::mem::take(&mut self.member[to.global() as usize]).0;
        let mut lowest = None::<(u32, Overlap, [At; 2])>;
        let shadow = &self.shadow;
        self.touched.retain(|&w| {
            let (t, writers, readers) = &shadow[w as usize];
            if *t != tag {
                return true;
            }
            if let Some((o, at)) = Overlap::of(writers, readers) {
                if lowest.is_none_or(|(lw, lo, _)| (w, o.pair()) < (lw, lo.pair())) {
                    lowest = Some((w, o, at));
                }
            }
            false
        });
        let Some((w, overlap, [a, b])) = lowest else {
            return;
        };
        if self.witnesses.len() < MAX_WITNESSES {
            self.witnesses.push(RaceWitness {
                addr: SHARED_BASE + w * 4,
                overlap,
                first: (HartId::new(a.0), a.1),
                second: (HartId::new(b.0), b.1),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hart(n: u32) -> HartId {
        HartId::new(n)
    }

    const A: u32 = SHARED_BASE + 0x100;

    /// A two-core collector with hart 0 opening a team of `n` harts,
    /// member `i` on hart `i`.
    fn team(n: u32) -> RaceData {
        let mut r = RaceData::new(&LbpConfig::cores(2));
        for i in 1..n {
            r.start(hart(i - 1), hart(i));
        }
        r
    }

    #[test]
    fn two_members_writing_one_word_conflict_at_the_join() {
        let mut r = team(2);
        r.access(hart(0), 0x10, A, true);
        r.access(hart(1), 0x20, A + 2, true);
        assert!(
            r.witnesses.is_empty(),
            "nothing is reported before the join"
        );
        r.join(hart(0));
        assert_eq!(
            r.witnesses,
            [RaceWitness {
                addr: A,
                overlap: Overlap::Writes(0, 1),
                first: (hart(0), 0x10),
                second: (hart(1), 0x20),
            }]
        );
        assert_eq!(
            r.witnesses[0].to_string(),
            "write/write conflict on 0x80000100: members 0 (hart c0h0, pc 0x10) and \
             1 (hart c0h1, pc 0x20) both write it"
        );
    }

    #[test]
    fn the_lowest_word_then_the_lowest_pair_is_reported() {
        let mut r = team(4);
        r.access(hart(3), 0x30, A + 8, true);
        r.access(hart(2), 0x24, A + 4, true);
        r.access(hart(1), 0x18, A + 4, false);
        r.access(hart(3), 0x34, A + 4, true);
        r.access(hart(0), 0x04, A + 8, false);
        r.join(hart(0));
        let w = r.witnesses[0];
        assert_eq!(w.addr, A + 4);
        assert_eq!(
            w.overlap,
            Overlap::ReadWrite {
                writer: 2,
                reader: 1
            }
        );
        assert_eq!((w.first, w.second), ((hart(2), 0x24), (hart(1), 0x18)));
        assert_eq!(
            w.to_string(),
            "read/write conflict on 0x80000104: member 2 (hart c0h2, pc 0x24) writes it \
             and member 1 (hart c0h1, pc 0x18) reads it"
        );
        assert_eq!(r.witnesses.len(), 1, "one witness per join");
    }

    #[test]
    fn a_member_alone_a_hart_in_no_team_and_local_words_never_conflict() {
        let mut r = RaceData::new(&LbpConfig::cores(1));
        r.access(hart(1), 0x20, A, true); // hart 1 is in no team
        r.start(hart(0), hart(1));
        r.access(hart(0), 0x10, A + 4, true);
        r.access(hart(0), 0x14, A + 4, false);
        r.access(hart(1), 0x24, 0x4000_0000, true); // local bank
        r.join(hart(0));
        r.access(hart(0), 0x18, A + 4, true); // after the join
        assert!(r.witnesses.is_empty());
        assert!(r.touched.is_empty());
    }

    #[test]
    fn each_region_is_judged_alone() {
        let mut r = team(2);
        r.access(hart(1), 0x20, A, true);
        r.join(hart(0));
        r.start(hart(0), hart(1));
        r.access(hart(0), 0x10, A, true);
        r.join(hart(0));
        assert!(r.witnesses.is_empty(), "two regions, one writer each");
    }
}
