//! Dynamic race-witness collector — the soundness net under the static
//! M-pass (`lbp-verify`'s `LBP-M001`..`M006`).
//!
//! The static analyzer proves cross-member disjointness of shared
//! accesses where it can and *warns* where it cannot (`LBP-M003`/`M004`).
//! This module closes the loop at runtime: with the collector enabled
//! ([`crate::Machine::enable_race_witness`]), every shared-memory load
//! and store is checked, byte by byte, against the accesses that came
//! before it, and a concrete [`RaceWitness`] is recorded whenever two
//! different harts touch the same byte (at least one writing) without an
//! intervening fork/join synchronization edge between them.
//!
//! # Ordering model
//!
//! The fabric's deterministic protocol messages are the only cross-hart
//! synchronization in LBP. The collector keeps one global counter `g`,
//! bumped on every *rendezvous* [`crate::msg::CoreMsg`] delivery — fork
//! reply, start, join — where the recipient is provably not executing
//! (blocked on the fork result, not yet started, or waiting in `p_ret`),
//! plus a per-hart *watermark*: the `g` value of the last rendezvous that
//! hart received. An access is tagged with the current `g`; a later
//! access by hart `b` is considered ordered after a prior access tagged
//! `g_a` iff `watermark[b] > g_a`, i.e. `b` passed a rendezvous after the
//! prior access happened. Deliveries that can reach a hart mid-execution
//! (cv writes and acks, end signals, result-line values) do not bump —
//! they would fabricate an ordering for accesses already in flight.
//!
//! This over-approximates the true happens-before relation (every
//! delivery is treated as a transitive join with the whole machine), so
//! the collector can *miss* exotic races but never fabricates one: a
//! reported witness is two accesses with no protocol message between
//! them, which on this machine means no synchronization at all. That
//! direction is exactly what the cross-validation oracle needs — a
//! statically *accepted* program must produce zero witnesses.
//!
//! Like profiling ([`crate::prof`]), the collector is observational: it
//! is reached only through the machine's `Observers` hooks (`load`,
//! `store`, `rendezvous` in `observe.rs`), which cost one branch each
//! when it is off, never change the simulation, and keep it out of
//! snapshots.

use std::collections::{BTreeMap, BTreeSet};

use lbp_isa::{HartId, Region, HARTS_PER_CORE};

/// Witnesses stop accumulating past this count; racy loops would
/// otherwise grow the list with one entry per iteration even after
/// pc-pair deduplication has seen every distinct site.
const MAX_WITNESSES: usize = 64;

/// What the two unsynchronized accesses were.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    /// Two writes to the same byte.
    WriteWrite,
    /// A read of a byte after an unordered write.
    WriteRead,
    /// A write of a byte after an unordered read.
    ReadWrite,
}

impl RaceKind {
    fn as_str(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::WriteRead => "write-read",
            RaceKind::ReadWrite => "read-write",
        }
    }
}

/// One concrete race: two accesses to the same shared byte by different
/// harts with no protocol message between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWitness {
    /// The contested byte address (first racing byte of the access).
    pub addr: u32,
    /// Write-write, write-read or read-write.
    pub kind: RaceKind,
    /// The earlier access: hart and pc of the instruction.
    pub first: (HartId, u32),
    /// The later access: hart and pc of the instruction.
    pub second: (HartId, u32),
}

impl std::fmt::Display for RaceWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} race on {:#010x}: hart {} pc {:#x} vs hart {} pc {:#x}",
            self.kind.as_str(),
            self.addr,
            self.first.0,
            self.first.1,
            self.second.0,
            self.second.1,
        )
    }
}

/// Per-byte record of the last shared write: (hart, delivery tag, pc).
type ByteWrite = (u32, u64, u32);

/// The race-witness collector. Created by
/// [`crate::Machine::enable_race_witness`]; read back through
/// [`crate::Machine::race_witnesses`].
#[derive(Debug)]
pub struct RaceData {
    /// Global protocol-delivery counter.
    g: u64,
    /// Per hart (global id): `g` of the last delivery it received.
    watermark: Vec<u64>,
    /// Last write per shared byte.
    last_write: BTreeMap<u32, ByteWrite>,
    /// Reads of each shared byte since its last write, at most one entry
    /// per hart: (hart, delivery tag, pc).
    reads: BTreeMap<u32, Vec<ByteWrite>>,
    /// Deduplication of witnesses by (kind, first pc, second pc).
    seen: BTreeSet<(RaceKind, u32, u32)>,
    /// Collected witnesses, in discovery order, capped at
    /// [`MAX_WITNESSES`] distinct pc pairs.
    pub(crate) witnesses: Vec<RaceWitness>,
}

impl RaceData {
    /// An empty collector for a machine of `cores` cores.
    pub(crate) fn new(cores: usize) -> RaceData {
        RaceData {
            g: 0,
            watermark: vec![0; cores * HARTS_PER_CORE],
            last_write: BTreeMap::new(),
            reads: BTreeMap::new(),
            seen: BTreeSet::new(),
            witnesses: Vec::new(),
        }
    }

    /// A rendezvous message (fork reply / start / join) was delivered to
    /// `to`, which was not executing: everything recorded so far
    /// happens-before whatever `to` does next.
    pub(crate) fn sync(&mut self, to: HartId) {
        self.g += 1;
        self.watermark[to.global() as usize] = self.g;
    }

    fn witness(&mut self, kind: RaceKind, addr: u32, first: (u32, u32), second: (u32, u32)) {
        if self.witnesses.len() >= MAX_WITNESSES {
            return;
        }
        if !self.seen.insert((kind, first.1, second.1)) {
            return;
        }
        self.witnesses.push(RaceWitness {
            addr,
            kind,
            first: (HartId::new(first.0), first.1),
            second: (HartId::new(second.0), second.1),
        });
    }

    /// Records a shared-memory write of `size` bytes at `addr` by `hart`
    /// executing the store at `pc`. Non-shared addresses are ignored.
    pub(crate) fn write(&mut self, hart: HartId, pc: u32, addr: u32, size: u8) {
        if Region::of(addr) != Region::Shared {
            return;
        }
        let h = hart.global();
        let unordered = |tag: u64, wm: &[u64]| wm[h as usize] <= tag;
        for byte in (0..size as u32).map(|i| addr.wrapping_add(i)) {
            if let Some(&(w, gw, wpc)) = self.last_write.get(&byte) {
                if w != h && unordered(gw, &self.watermark) {
                    self.witness(RaceKind::WriteWrite, byte, (w, wpc), (h, pc));
                }
            }
            if let Some(readers) = self.reads.remove(&byte) {
                for (r, gr, rpc) in readers {
                    if r != h && unordered(gr, &self.watermark) {
                        self.witness(RaceKind::ReadWrite, byte, (r, rpc), (h, pc));
                    }
                }
            }
            self.last_write.insert(byte, (h, self.g, pc));
        }
    }

    /// Records a shared-memory read of `size` bytes at `addr` by `hart`
    /// executing the load at `pc`. Non-shared addresses are ignored.
    pub(crate) fn read(&mut self, hart: HartId, pc: u32, addr: u32, size: u8) {
        if Region::of(addr) != Region::Shared {
            return;
        }
        let h = hart.global();
        for byte in (0..size as u32).map(|i| addr.wrapping_add(i)) {
            if let Some(&(w, gw, wpc)) = self.last_write.get(&byte) {
                if w != h && self.watermark[h as usize] <= gw {
                    self.witness(RaceKind::WriteRead, byte, (w, wpc), (h, pc));
                }
            }
            let readers = self.reads.entry(byte).or_default();
            match readers.iter_mut().find(|(r, ..)| *r == h) {
                Some(entry) => *entry = (h, self.g, pc),
                None => readers.push((h, self.g, pc)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hart(n: u32) -> HartId {
        HartId::new(n)
    }

    const A: u32 = 0x8000_0100;

    #[test]
    fn unsynchronized_cross_hart_write_write_is_a_witness() {
        let mut r = RaceData::new(2);
        r.sync(hart(0));
        r.sync(hart(1));
        r.write(hart(0), 0x10, A, 4);
        r.write(hart(1), 0x20, A, 4);
        assert_eq!(r.witnesses.len(), 1, "one witness after pc-pair dedup");
        let w = r.witnesses[0];
        assert_eq!(w.kind, RaceKind::WriteWrite);
        assert_eq!(w.addr, A);
        assert_eq!((w.first.1, w.second.1), (0x10, 0x20));
    }

    #[test]
    fn delivery_between_accesses_orders_them() {
        let mut r = RaceData::new(2);
        r.write(hart(0), 0x10, A, 4);
        r.sync(hart(1)); // e.g. the Join/Start edge
        r.write(hart(1), 0x20, A, 4);
        assert!(r.witnesses.is_empty(), "synchronized accesses do not race");
    }

    #[test]
    fn same_hart_never_races_and_local_is_ignored() {
        let mut r = RaceData::new(1);
        r.write(hart(0), 0x10, A, 4);
        r.write(hart(0), 0x14, A, 4);
        r.read(hart(0), 0x18, A, 4);
        r.write(hart(1), 0x20, 0x4000_0000, 4); // Local region
        r.read(hart(1), 0x24, 0x4000_0000, 4);
        assert!(r.witnesses.is_empty());
    }

    #[test]
    fn read_write_and_write_read_directions_fire() {
        let mut r = RaceData::new(2);
        r.read(hart(0), 0x10, A, 4);
        r.write(hart(1), 0x20, A, 4); // unordered after the read
        r.read(hart(0), 0x30, A + 2, 2); // unordered after the write
        let kinds: Vec<_> = r.witnesses.iter().map(|w| w.kind).collect();
        assert_eq!(kinds, vec![RaceKind::ReadWrite, RaceKind::WriteRead]);
    }

    #[test]
    fn disjoint_bytes_do_not_race() {
        let mut r = RaceData::new(2);
        r.write(hart(0), 0x10, A, 4);
        r.write(hart(1), 0x20, A + 4, 4);
        assert!(r.witnesses.is_empty());
    }

    #[test]
    fn witnesses_dedup_by_pc_pair_and_cap() {
        let mut r = RaceData::new(2);
        for i in 0..100 {
            r.write(hart(0), 0x10, A + 8 * i, 4);
            r.write(hart(1), 0x20, A + 8 * i, 4);
        }
        assert_eq!(r.witnesses.len(), 1, "same pc pair reported once");
    }
}
