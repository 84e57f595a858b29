//! Memory banks and the per-core memory ports.
//!
//! Each core owns three banks (paper Fig. 13): a code bank (a copy of the
//! program image; read by the fetch stage, one word per cycle, never
//! contended), a local bank (hart stacks and cv frames, private to the
//! core) and one slice of the distributed shared memory. Shared banks are
//! dual-ported: the local port serves the owning core, the network port
//! serves remote requests arriving through the r1 router.
//!
//! The module is split where the paper splits the machine. [`CodeBank`]
//! and [`Banks`] are *architectural* state: what the words are, where an
//! address lives, which accesses fault and in which order the checks run.
//! Both engines own one of each — the cycle-exact [`MemSys`] and the
//! functional [`FastEngine`](crate::FastEngine) — so an access that is
//! undefined gets the same verdict whichever engine meets it. [`MemSys`]
//! adds the *timing*: port queues, the r1/r2/r3 network and the devices.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use lbp_isa::{HartId, Instr, Region, LOCAL_BANK_BYTES, LOCAL_BASE, SHARED_BASE};

use crate::config::{cv_base, fixed, LbpConfig};
use crate::error::SimError;
use crate::hart::Decoded;
use crate::hash;
use crate::index_set::members;
use crate::io::IoBus;
use crate::msg::NetMsg;
use crate::network::Network;
use crate::observe::Observers;
use crate::queues::Queues;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};

/// A fatal memory fault. LBP has no traps: a bad access ends the
/// simulation with an error describing the offending access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFault {
    /// Address not mapped to any bank of this configuration.
    Unmapped {
        /// The faulting address.
        addr: u32,
        /// The hart that issued the access.
        hart: HartId,
    },
    /// Access not aligned to its size.
    Unaligned {
        /// The faulting address.
        addr: u32,
        /// The access size.
        size: u8,
        /// The hart that issued the access.
        hart: HartId,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::Unmapped { addr, hart } => {
                write!(f, "hart {hart} accessed unmapped address {addr:#010x}")
            }
            MemFault::Unaligned { addr, size, hart } => write!(
                f,
                "hart {hart} made a misaligned {size}-byte access at {addr:#010x}"
            ),
        }
    }
}

impl std::error::Error for MemFault {}

/// The code bank: the image's text words (every core's bank holds the
/// same copy) and, beside them, what the decoder makes of each.
#[derive(Debug)]
pub(crate) struct CodeBank {
    words: Vec<u32>,
    /// `words`, decoded; `None` marks a word the decoder rejects. Derived
    /// state, never serialized: built wherever `words` is and patched by
    /// [`CodeBank::corrupt`], the only writer of `words`.
    decoded: Vec<Option<Decoded>>,
    /// Per word, the length of the straight run that starts there: words
    /// with no X_PAR part, the last of them alone may jump; capped at 255,
    /// 0 at an X_PAR or undecodable word. Derived, and rebuilt with `decoded`.
    runs: Vec<u8>,
}

impl CodeBank {
    /// Decodes a code image once, so that no fetch decodes again.
    pub fn new(text: &[u32]) -> CodeBank {
        let decoded: Vec<_> = text.iter().map(|&word| decode_word(word)).collect();
        CodeBank {
            words: text.to_vec(),
            runs: straight_runs(&decoded),
            decoded,
        }
    }

    /// How many words the bank holds.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// The decoded instruction at `pc` (no contention). An undecodable
    /// word is an error only here, when it is actually fetched, and the
    /// error carries the raw word.
    #[inline]
    pub fn fetch(&self, pc: u32, hart: HartId) -> Result<&Decoded, SimError> {
        if !pc.is_multiple_of(4) {
            return Err(SimError::Mem(MemFault::Unaligned {
                addr: pc,
                size: 4,
                hart,
            }));
        }
        let index = (pc / 4) as usize;
        match self.decoded.get(index) {
            Some(Some(op)) => Ok(op),
            Some(None) => Err(SimError::Decode {
                pc,
                word: self.words[index],
                hart,
            }),
            None => Err(SimError::Mem(MemFault::Unmapped { addr: pc, hart })),
        }
    }

    /// The length of the straight run at `pc`; 0 if there is none.
    #[inline(always)]
    pub fn run_at(&self, pc: u32) -> u32 {
        match self.runs.get((pc / 4) as usize) {
            Some(&run) if pc.is_multiple_of(4) => run.into(),
            _ => 0,
        }
    }

    /// The instruction at `pc`, a word of a straight run.
    #[inline(always)]
    pub fn in_run(&self, pc: u32) -> Decoded {
        self.decoded[(pc / 4) as usize].expect("a straight run is decoded")
    }

    /// XORs the code word at `pc` with `xor` (fault injection, lockstep
    /// sabotage). A `pc` that is not a code word changes nothing — callers
    /// that take one from outside refuse it first.
    pub fn corrupt(&mut self, pc: u32, xor: u32) {
        if is_code_word(self.words.len(), pc) {
            let index = (pc / 4) as usize;
            self.words[index] ^= xor;
            self.decoded[index] = decode_word(self.words[index]);
            self.runs = straight_runs(&self.decoded);
        }
    }

    fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.words.len());
        for &word in &self.words {
            w.u32(word);
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<CodeBank, SnapError> {
        let mut words = Vec::new();
        for _ in 0..r.seq()? {
            words.push(r.u32()?);
        }
        Ok(CodeBank::new(&words))
    }
}

fn decode_word(word: u32) -> Option<Decoded> {
    Instr::decode(word).ok().map(Decoded::new)
}

/// [`CodeBank::runs`] of `decoded`, and a 0 past its end.
fn straight_runs(decoded: &[Option<Decoded>]) -> Vec<u8> {
    let mut runs = vec![0u8; decoded.len() + 1];
    for i in (0..decoded.len()).rev() {
        runs[i] = match decoded[i].map(|d| d.op) {
            Some(op) if op.is_jump() => 1,
            Some(op) if !op.is_xpar() => runs[i + 1].saturating_add(1),
            _ => 0,
        };
    }
    runs
}

/// Whether `pc` names a word of a text section of `words` words — what a
/// fault plan's `corrupt-instr` and a lockstep sabotage must aim at.
pub(crate) fn is_code_word(words: usize, pc: u32) -> bool {
    pc.is_multiple_of(4) && ((pc / 4) as usize) < words
}

/// The shared bank (the number of the core that owns it) holding a
/// shared-space address, and the byte offset inside that bank.
#[inline]
pub(crate) fn shared_slot(addr: u32, shared_bank_bytes: u32) -> (u32, u32) {
    let rel = addr - SHARED_BASE;
    if shared_bank_bytes.is_power_of_two() {
        // A shift and a mask where a divide and a remainder would do the
        // same: this runs per request, per port service and per hop.
        let shift = shared_bank_bytes.trailing_zeros();
        (rel >> shift, rel & (shared_bank_bytes - 1))
    } else {
        (rel / shared_bank_bytes, rel % shared_bank_bytes)
    }
}

/// The port a data access goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The accessing core's own local bank.
    Local,
    /// The shared bank of core `bank`.
    Shared { bank: u32 },
    /// A device.
    Io,
}

/// A data access that [`Banks::route`] let through: where it goes and,
/// for the two checks still ahead of it, where it came from. Only `route`
/// makes one, so nothing reaches a bank past the first two checks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Routed {
    pub to: Route,
    addr: u32,
    /// Byte offset inside the bank.
    off: u32,
    hart: HartId,
}

/// Bytes of a page, the unit in which the banks track what was written.
const PAGE_BYTES: usize = 4096;
const PAGE_SHIFT: u32 = PAGE_BYTES.trailing_zeros();

/// Bytes of zeroed banks the process keeps for the banks it builds next:
/// two machines of 64 cores. The pool is one for all threads because
/// lbp-batch runs each batch on newly spawned scoped workers, whose own
/// pools would start empty on every call.
const SPARE_BYTES: usize = 16 << 20;

static SPARES: Mutex<Spares> = Mutex::new(Spares {
    bytes: 0,
    by_size: Vec::new(),
});

/// The zeroed banks of dropped machines the process keeps, by size.
#[derive(Default)]
struct Spares {
    bytes: usize,
    by_size: Vec<(usize, Vec<Vec<u8>>)>,
}

impl Spares {
    /// A kept bank of `size` bytes.
    fn take(&mut self, size: usize) -> Option<Vec<u8>> {
        let (_, banks) = self.by_size.iter_mut().find(|(s, _)| *s == size)?;
        let bank = banks.pop()?;
        self.bytes -= size;
        Some(bank)
    }

    /// Keeps a zeroed bank, unless the pool holds enough already.
    fn keep(&mut self, bank: Vec<u8>) {
        let size = bank.len();
        if self.bytes + size > SPARE_BYTES {
            return;
        }
        self.bytes += size;
        match self.by_size.iter_mut().find(|(s, _)| *s == size) {
            Some((_, banks)) => banks.push(bank),
            None => self.by_size.push((size, vec![bank])),
        }
    }
}

/// The pool. Neither `take` nor `keep` panics, so a poisoned lock still
/// guards a whole pool.
fn spares() -> MutexGuard<'static, Spares> {
    SPARES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A zeroed bank of `size` bytes: one the process kept, else a fresh one.
fn zeroed_bank(size: usize) -> Vec<u8> {
    let kept = spares().take(size);
    kept.unwrap_or_else(|| vec![0; size])
}

/// The local and shared banks of every core: their contents, the address
/// map onto them and the faults of an access that misses them.
///
/// Beside the banks a bit per 4 KiB page records whether a write reached
/// it, so that everything but an access costs what the written pages
/// cost: the hash, the snapshot and a copy pass over a page never written
/// without reading it, and dropped banks zero the pages written and leave
/// the banks to the process's next ones, which then zero nothing.
#[derive(Debug)]
pub(crate) struct Banks {
    cores: usize,
    shared_bank_bytes: u32,
    /// The local bank of every core, then the shared bank of every core.
    banks: Vec<Vec<u8>>,
    /// Pages of a bank in `written`: those of the larger kind of bank.
    stride: usize,
    /// Per page of every bank (`stride` pages a bank), one bit: whether
    /// it was written.
    written: Vec<u64>,
}

impl Clone for Banks {
    /// A copy that copies only the pages written.
    fn clone(&self) -> Banks {
        let mut copy = Banks::zeroed(self.cores, self.shared_bank_bytes);
        for (bank, page) in self.written_pages() {
            copy.banks[bank][page.clone()].copy_from_slice(&self.banks[bank][page]);
        }
        copy.written.copy_from_slice(&self.written);
        copy
    }
}

impl Drop for Banks {
    /// Zeroes the pages written and leaves the banks to the pool.
    fn drop(&mut self) {
        self.zero_written();
        let mut spares = spares();
        self.banks.drain(..).for_each(|bank| spares.keep(bank));
    }
}

impl Banks {
    /// Zeroed banks with the image's initialized data distributed over
    /// the shared ones from [`SHARED_BASE`] up.
    pub fn new(cfg: &LbpConfig, data: &[u8]) -> Result<Banks, MemFault> {
        let shared = cfg.cores * cfg.shared_bank_bytes as usize;
        if data.len() > shared {
            return Err(MemFault::Unmapped {
                addr: SHARED_BASE + shared as u32,
                hart: HartId::FIRST,
            });
        }
        let mut banks = Banks::zeroed(cfg.cores, cfg.shared_bank_bytes);
        let blocks = data.chunks(cfg.shared_bank_bytes as usize);
        for (k, block) in blocks.enumerate() {
            banks.fill(cfg.cores + k, block);
        }
        Ok(banks)
    }

    /// Banks of `cores` cores that hold nothing but zeros.
    fn zeroed(cores: usize, shared_bank_bytes: u32) -> Banks {
        let sized = |bytes: u32| (0..cores).map(move |_| zeroed_bank(bytes as usize));
        let stride = LOCAL_BANK_BYTES.max(shared_bank_bytes) as usize;
        let stride = stride.div_ceil(PAGE_BYTES);
        Banks {
            cores,
            shared_bank_bytes,
            banks: sized(LOCAL_BANK_BYTES)
                .chain(sized(shared_bank_bytes))
                .collect(),
            stride,
            written: vec![0; (2 * cores * stride).div_ceil(64)],
        }
    }

    /// Zeroes the pages written, and forgets that they were.
    fn zero_written(&mut self) {
        let pages = self.written.iter().enumerate();
        for p in pages.flat_map(|(w, &bits)| members(w, bits)) {
            let bank = &mut self.banks[p / self.stride];
            let page = p % self.stride * PAGE_BYTES;
            let end = bank.len().min(page + PAGE_BYTES);
            bank[page..end].fill(0);
        }
        self.written.fill(0);
    }

    /// Records a write to byte `off` of bank `bank`.
    #[inline]
    fn mark(&mut self, bank: usize, off: usize) {
        let p = bank * self.stride + (off >> PAGE_SHIFT);
        self.written[p / 64] |= 1 << (p % 64);
    }

    /// Whether page `page` of bank `bank` was written.
    fn is_written(&self, bank: usize, page: usize) -> bool {
        let p = bank * self.stride + page;
        self.written[p / 64] & 1 << (p % 64) != 0
    }

    /// The pages written: each one's bank and where in the bank it lies.
    fn written_pages(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let pages = self.written.iter().enumerate();
        let pages = pages.flat_map(|(w, &bits)| members(w, bits));
        pages.map(|p| {
            let (bank, page) = (p / self.stride, p % self.stride);
            let end = self.banks[bank].len().min((page + 1) * PAGE_BYTES);
            (bank, page * PAGE_BYTES..end)
        })
    }

    /// Writes `bytes` into the start of never-written bank `bank`,
    /// touching a page only where they are not all zero.
    fn fill(&mut self, bank: usize, bytes: &[u8]) {
        for (page, chunk) in bytes.chunks(PAGE_BYTES).enumerate() {
            // An OR over the whole chunk, not a search: it vectorizes.
            if chunk.iter().fold(0, |any, &b| any | b) != 0 {
                let at = page * PAGE_BYTES;
                self.banks[bank][at..at + chunk.len()].copy_from_slice(chunk);
                self.mark(bank, at);
            }
        }
    }

    /// The bytes of bank `bank` a page at a time: whether the page was
    /// written, and its bytes. A page never written is all zeros, and
    /// its bytes are best left unread.
    fn pieces(&self, bank: usize) -> impl Iterator<Item = (bool, &[u8])> {
        let pages = self.banks[bank].chunks(PAGE_BYTES).enumerate();
        pages.map(move |(page, bytes)| (self.is_written(bank, page), bytes))
    }

    /// Decides where a data access of `hart` goes: the first two checks of
    /// every access, in the order the hardware meets them — the region
    /// (the code bank has no data port), then the shared bank's existence.
    /// [`Banks::span`] runs the remaining two.
    #[inline]
    pub fn route(&self, addr: u32, hart: HartId) -> Result<Routed, SimError> {
        let (to, off) = match Region::of(addr) {
            Region::Code => return Err(code_region_access(addr, hart)),
            Region::Local => (Route::Local, addr - LOCAL_BASE),
            Region::Shared => {
                let (bank, off) = shared_slot(addr, self.shared_bank_bytes);
                if bank as usize >= self.cores {
                    return Err(SimError::Mem(MemFault::Unmapped { addr, hart }));
                }
                (Route::Shared { bank }, off)
            }
            Region::Io => (Route::Io, 0),
        };
        Ok(Routed {
            to,
            addr,
            off,
            hart,
        })
    }

    /// The last two checks of an access — alignment, then the bank's
    /// bounds — and the bank and byte it starts at. `core` is the
    /// accessing core, whose local bank a local access means. An I/O
    /// address has no bank: it is unmapped, aligned or not, as the
    /// machine's bus finds it with no device there.
    #[inline]
    fn slot(&self, core: u32, at: Routed, size: u8) -> Result<(usize, usize), MemFault> {
        let (addr, hart) = (at.addr, at.hart);
        debug_assert!(matches!(size, 1 | 2 | 4), "a {size}-byte access");
        let bank = match at.to {
            Route::Local => core as usize,
            Route::Shared { bank } => self.cores + bank as usize,
            Route::Io => return Err(MemFault::Unmapped { addr, hart }),
        };
        if addr & (size as u32 - 1) != 0 {
            return Err(MemFault::Unaligned { addr, size, hart });
        }
        if at.off as usize + size as usize > self.banks[bank].len() {
            return Err(MemFault::Unmapped { addr, hart });
        }
        Ok((bank, at.off as usize))
    }

    /// The `size` bytes a routed access made on `core` reads.
    #[inline]
    pub fn span(&self, core: u32, at: Routed, size: u8) -> Result<&[u8], MemFault> {
        let (bank, off) = self.slot(core, at, size)?;
        Ok(&self.banks[bank][off..off + size as usize])
    }

    /// The `size` bytes a routed access made on `core` writes.
    #[inline]
    pub fn span_mut(&mut self, core: u32, at: Routed, size: u8) -> Result<&mut [u8], MemFault> {
        let (bank, off) = self.slot(core, at, size)?;
        self.mark(bank, off);
        Ok(&mut self.banks[bank][off..off + size as usize])
    }

    /// Routes a harness-side access to a shared word; anything that is not
    /// shared memory is unmapped to the harness.
    fn shared_word(&self, addr: u32) -> Result<Routed, MemFault> {
        let hart = HartId::FIRST;
        match self.route(addr, hart) {
            Ok(at) if matches!(at.to, Route::Shared { .. }) => Ok(at),
            _ => Err(MemFault::Unmapped { addr, hart }),
        }
    }

    /// Reads a word of shared memory (test harnesses, result extraction).
    pub fn peek(&self, addr: u32) -> Result<u32, MemFault> {
        let bytes = self.span(0, self.shared_word(addr)?, 4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("a 4-byte span")))
    }

    /// Writes a word of shared memory (input loading before a run).
    pub fn poke(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        let bytes = self.span_mut(0, self.shared_word(addr)?, 4)?;
        bytes.copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// XORs bit `bit` of the shared word holding `addr` (fault injection).
    /// Out-of-range targets are ignored — the plan was validated up front.
    pub fn flip(&mut self, addr: u32, bit: u32) {
        let word = self.shared_word(addr & !3);
        let bytes = word.and_then(|at| self.span_mut(0, at, 4));
        if let Some(byte) = bytes.ok().and_then(|b| b.get_mut((bit / 8) as usize)) {
            *byte ^= 1 << (bit % 8);
        }
    }

    /// Continues the FNV-1a hash `h` over every bank's contents, the local
    /// banks in core order and then the shared ones, as one byte string.
    /// A page never written is one multiplication.
    pub fn extend_hash(&self, h: u64) -> u64 {
        let pages = (0..self.banks.len()).flat_map(|bank| self.pieces(bank));
        pages.fold(h, |h, (written, bytes)| match written {
            true => hash::extend(h, bytes),
            false => hash::extend_zeros(h, bytes.len()),
        })
    }

    /// The first shared word on which two stores of one configuration
    /// differ: its address, its value here and its value in `other`.
    pub fn first_shared_difference(&self, other: &Banks) -> Option<(u32, u32, u32)> {
        for bank in self.cores..self.banks.len() {
            let pages = self.pieces(bank).zip(other.pieces(bank)).enumerate();
            for (page, ((here, mine), (there, theirs))) in pages {
                if !(here || there) || mine == theirs {
                    continue;
                }
                let at = mine.iter().zip(theirs).position(|(a, b)| a != b)? & !3;
                let word = |page: &[u8]| {
                    let bytes = page[at..].iter().take(4).rev();
                    bytes.fold(0, |acc, &b| acc << 8 | b as u32)
                };
                let off = (bank - self.cores) as u32 * self.shared_bank_bytes;
                let addr = SHARED_BASE + off + (page * PAGE_BYTES + at) as u32;
                return Some((addr, word(mine), word(theirs)));
            }
        }
        None
    }

    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.cores as u64);
        w.u32(LOCAL_BANK_BYTES);
        w.u32(self.shared_bank_bytes);
        for bank in 0..self.banks.len() {
            w.u64(self.banks[bank].len() as u64);
            for (written, bytes) in self.pieces(bank) {
                match written {
                    true => w.raw(bytes),
                    false => w.zeros(bytes.len()),
                }
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>, cores: usize) -> Result<Banks, SnapError> {
        let held = r.u64()?;
        if held != cores as u64 {
            return Err(SnapError::Corrupt(format!(
                "memory system has {held} cores, configuration says {cores}"
            )));
        }
        let field = "memory system: local_bank_bytes";
        fixed(field, r.u32()?.into(), LOCAL_BANK_BYTES.into())?;
        let shared_bank_bytes = r.u32()?;
        // Every bank is read before any is built, so that a hostile core
        // count cannot build more than the snapshot holds.
        let mut blocks = Vec::new();
        for expect in [LOCAL_BANK_BYTES, shared_bank_bytes] {
            for _ in 0..cores {
                let block = r.block()?;
                if block.len() != expect as usize {
                    return Err(SnapError::Corrupt(format!(
                        "bank holds {} bytes, configured for {expect}",
                        block.len()
                    )));
                }
                blocks.push(block);
            }
        }
        let mut banks = Banks::zeroed(cores, shared_bank_bytes);
        for (bank, block) in blocks.into_iter().enumerate() {
            banks.fill(bank, block);
        }
        Ok(banks)
    }
}

#[cold]
fn code_region_access(addr: u32, hart: HartId) -> SimError {
    SimError::Protocol {
        hart,
        what: format!("data access to the code region at {addr:#010x}"),
    }
}

/// A queued request at a bank port, stamped with its arrival cycle so the
/// bank serves it no earlier than the following cycle.
#[derive(Debug, Clone, Copy)]
struct Ported {
    msg: NetMsg,
    arrived: u64,
}

impl Ported {
    fn snap(&self, w: &mut SnapWriter) {
        self.msg.snap(w);
        w.u64(self.arrived);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Ported, SnapError> {
        Ok(Ported {
            msg: NetMsg::unsnap(r)?,
            arrived: r.u64()?,
        })
    }
}

/// Takes the oldest request at a port if it arrived before `now`.
fn pop_ready(port: &mut Queues<Ported>, core: usize, now: u64) -> Option<NetMsg> {
    if port[core].front()?.arrived >= now {
        return None;
    }
    port.pop(core).map(|p| p.msg)
}

/// The cycle-exact memory system: the banks, and everything that makes
/// reaching them take time.
#[derive(Debug)]
pub struct MemSys {
    pub(crate) banks: Banks,
    pub(crate) code: CodeBank,
    /// Local-bank port queue, one per core (own loads/stores/`p_lwcv`).
    local_q: Queues<Ported>,
    /// Own-shared-slice local port queue, one per core.
    shared_q: Queues<Ported>,
    /// Responses completed by local ports, delivered next cycle.
    staged: Queues<NetMsg>,
    /// The r1/r2/r3 network serving remote shared accesses.
    pub net: Network,
    /// Memory-mapped devices (served through the local ports).
    pub io: IoBus,
    /// Count of accesses served by local ports.
    pub local_served: u64,
    /// Count of accesses served by network ports.
    pub remote_served: u64,
    /// Request-cycles spent waiting at a busy bank port: each cycle, every
    /// ready request a port could not serve (because the port serves one
    /// request per cycle) adds one. This measures bank conflicts.
    pub conflicts: u64,
    /// The current cycle, updated by [`MemSys::tick`] (device timing).
    now: u64,
}

impl MemSys {
    /// Builds idle ports, network and devices around the given banks.
    pub(crate) fn new(cfg: &LbpConfig, code: CodeBank, banks: Banks) -> MemSys {
        let cores = cfg.cores;
        MemSys {
            banks,
            code,
            local_q: Queues::new(cores),
            shared_q: Queues::new(cores),
            staged: Queues::new(cores),
            net: Network::new(cores, cfg.shared_bank_bytes),
            io: IoBus::new(),
            local_served: 0,
            remote_served: 0,
            conflicts: 0,
            now: 0,
        }
    }

    /// Enqueues a request on the owning core's local-bank port.
    pub fn local_request(&mut self, core: u32, msg: NetMsg, now: u64) {
        self.local_q
            .push(core as usize, Ported { msg, arrived: now });
    }

    /// Enqueues a request on the core's own shared-slice local port.
    pub fn shared_local_request(&mut self, core: u32, msg: NetMsg, now: u64) {
        self.shared_q
            .push(core as usize, Ported { msg, arrived: now });
    }

    /// Applies a cross-core `p_swcv` continuation-value write (the forward
    /// link's dedicated port into the local bank).
    pub fn cv_write(&mut self, to: HartId, offset: u32, value: u32) -> Result<(), SimError> {
        let addr = cv_base(to).wrapping_add(offset);
        let at = self.port_route(to.core(), addr, to)?;
        Ok(self.write(to.core(), at, value, 4)?)
    }

    /// The `w`-th 64 cores that a memory response waits for, one bit each.
    pub fn arrival_word(&self, w: usize) -> u64 {
        self.net.core_inbox.word(w) | self.staged.word(w)
    }

    /// The `i`-th memory response waiting for a core this cycle: the
    /// network's in arrival order, then the local ports'.
    pub fn arrival(&self, core: u32, i: usize) -> Option<NetMsg> {
        let inbox = &self.net.core_inbox[core as usize];
        let msg = match inbox.get(i) {
            Some(msg) => msg,
            None => self.staged[core as usize].get(i - inbox.len())?,
        };
        Some(*msg)
    }

    /// Forgets the memory responses waiting for a core; their buffers keep
    /// their capacity.
    pub fn clear_arrivals(&mut self, core: u32) {
        self.net.core_inbox.clear(core as usize);
        self.staged.clear(core as usize);
    }

    /// One cycle of bank service: each local port and each network port
    /// serves one request that arrived on an earlier cycle. With profiling
    /// enabled the shared-bank backlog (local shared-slice port plus
    /// network port) is also attributed to the requester's core in the
    /// bank-conflict matrix; local-bank (private) backlog stays out of the
    /// matrix, so the matrix totals at most `conflicts`.
    pub fn tick(&mut self, now: u64, obs: &mut Observers) -> Result<(), SimError> {
        self.now = now;
        // A core whose three port queues are empty would serve nothing and
        // add 0 to every counter below: only the others are visited.
        for w in 0..self.local_q.words() {
            let ports = self.local_q.word(w) | self.shared_q.word(w);
            for c in members(w, ports | self.net.bank_inbox.word(w)) {
                let core = c as u32;
                // Local-bank port.
                if let Some(msg) = pop_ready(&mut self.local_q, c, now) {
                    let resp = self.perform(core, msg)?;
                    self.stage(c, resp);
                }
                self.conflicts += Self::port_backlog(&self.local_q[c], now);
                // Shared-slice local port.
                if let Some(msg) = pop_ready(&mut self.shared_q, c, now) {
                    let resp = self.perform(core, msg)?;
                    self.stage(c, resp);
                }
                self.conflicts += Self::port_backlog(&self.shared_q[c], now);
                let ready = self.shared_q[c].iter().filter(|p| p.arrived < now);
                obs.bank_conflict(c, ready.map(|p| p.msg.hart().core() as usize));
                // Network port of the shared bank.
                if let Some(msg) = self.net.bank_inbox.pop(c) {
                    let resp = self.perform(core, msg)?;
                    self.net.send_from_bank(core, resp);
                    self.remote_served += 1;
                }
                let queued = &self.net.bank_inbox[c];
                self.conflicts += queued.len() as u64;
                obs.bank_conflict(c, queued.iter().map(|m| m.hart().core() as usize));
            }
        }
        Ok(())
    }

    /// Stages a local port's response for delivery next cycle.
    fn stage(&mut self, core: usize, resp: NetMsg) {
        self.staged.push(core, resp);
        self.local_served += 1;
    }

    /// Requests at a port that were ready this cycle but not served.
    fn port_backlog(q: &VecDeque<Ported>, now: u64) -> u64 {
        q.iter().filter(|p| p.arrived < now).count() as u64
    }

    /// Routes a request that reached a port of `bank_core`.
    fn port_route(&self, bank_core: u32, addr: u32, hart: HartId) -> Result<Routed, SimError> {
        let at = self.banks.route(addr, hart)?;
        debug_assert!(
            !matches!(at.to, Route::Shared { bank } if bank != bank_core),
            "request routed to wrong bank"
        );
        Ok(at)
    }

    /// Performs a read/write at `bank_core` and builds the response.
    fn perform(&mut self, bank_core: u32, msg: NetMsg) -> Result<NetMsg, SimError> {
        match msg {
            NetMsg::ReadReq {
                addr,
                hart,
                size,
                signed,
            } => {
                let at = self.port_route(bank_core, addr, hart)?;
                let value = if at.to == Route::Io {
                    self.io
                        .read(addr, self.now)
                        .ok_or(MemFault::Unmapped { addr, hart })?
                } else {
                    self.read(bank_core, at, size, signed)?
                };
                Ok(NetMsg::ReadResp { addr, value, hart })
            }
            NetMsg::WriteReq {
                addr,
                value,
                size,
                hart,
            } => {
                let at = self.port_route(bank_core, addr, hart)?;
                if at.to == Route::Io {
                    self.io
                        .write(addr, value, self.now)
                        .ok_or(MemFault::Unmapped { addr, hart })?;
                } else {
                    self.write(bank_core, at, value, size)?;
                }
                Ok(NetMsg::WriteAck { addr, hart })
            }
            other => unreachable!("bank port received a response {other:?}"),
        }
    }

    /// Reads a value of `size` bytes from `bank_core`'s banks.
    fn read(&self, bank_core: u32, at: Routed, size: u8, signed: bool) -> Result<u32, MemFault> {
        let bytes = self.banks.span(bank_core, at, size)?;
        let mut raw = 0u32;
        for (i, b) in bytes.iter().enumerate() {
            raw |= (*b as u32) << (8 * i);
        }
        Ok(match (size, signed) {
            (1, true) => (raw as u8 as i8) as i32 as u32,
            (2, true) => (raw as u16 as i16) as i32 as u32,
            _ => raw,
        })
    }

    /// Writes the low `size` bytes of `value`.
    fn write(&mut self, bank_core: u32, at: Routed, value: u32, size: u8) -> Result<(), MemFault> {
        let bytes = self.banks.span_mut(bank_core, at, size)?;
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Whether every bank port is idle: no queued local request, no staged
    /// response. Feeds the machine's quiescence-based deadlock detector
    /// (the network's own queues are checked separately).
    pub fn ports_quiet(&self) -> bool {
        self.local_q.is_empty() && self.shared_q.is_empty() && self.staged.is_empty()
    }

    /// Requests queued at a core's bank ports (crash dumps).
    pub fn queued_at(&self, core: u32) -> usize {
        self.local_q[core as usize].len()
            + self.shared_q[core as usize].len()
            + self.staged[core as usize].len()
    }

    /// Serializes the full memory system: bank contents, the code image,
    /// every queued/staged request, the network and the I/O bus.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        self.banks.snap(w);
        self.code.snap(w);
        self.local_q.snap(w, Ported::snap);
        self.shared_q.snap(w, Ported::snap);
        self.staged.snap(w, NetMsg::snap);
        self.net.snap(w);
        self.io.snap(w);
        w.u64(self.local_served);
        w.u64(self.remote_served);
        w.u64(self.conflicts);
        w.u64(self.now);
    }

    /// Reads back the memory system of a `cores`-core machine.
    pub(crate) fn unsnap(r: &mut SnapReader<'_>, cores: usize) -> Result<MemSys, SnapError> {
        let banks = Banks::unsnap(r, cores)?;
        let code = CodeBank::unsnap(r)?;
        let local_q = Queues::unsnap(r, cores, Ported::unsnap)?;
        let shared_q = Queues::unsnap(r, cores, Ported::unsnap)?;
        let staged = Queues::unsnap(r, cores, NetMsg::unsnap)?;
        let net = Network::unsnap(r, cores)?;
        let io = IoBus::unsnap(r)?;
        Ok(MemSys {
            banks,
            code,
            local_q,
            shared_q,
            staged,
            net,
            io,
            local_served: r.u64()?,
            remote_served: r.u64()?,
            conflicts: r.u64()?,
            now: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CV_FRAME_BYTES;
    use lbp_testutil::Rng;

    /// The memory responses waiting for `core`, taken away from it.
    fn take_arrivals(m: &mut MemSys, core: u32) -> Vec<NetMsg> {
        let out = (0..).map_while(|i| m.arrival(core, i)).collect();
        m.clear_arrivals(core);
        out
    }

    fn banks(cores: usize) -> Banks {
        Banks::new(&LbpConfig::cores(cores), &[1, 0, 0, 0]).unwrap()
    }

    fn memsys(cores: usize) -> MemSys {
        let code = CodeBank::new(&[0x13]);
        MemSys::new(&LbpConfig::cores(cores), code, banks(cores))
    }

    /// One access through both checks, as a port or the functional engine
    /// makes it.
    fn load(b: &Banks, addr: u32, size: u8) -> Result<Vec<u8>, SimError> {
        let h = HartId::FIRST;
        Ok(b.span(0, b.route(addr, h)?, size)?.to_vec())
    }

    #[test]
    fn image_data_lands_in_shared_bank_zero() {
        assert_eq!(banks(4).peek(SHARED_BASE).unwrap(), 1);
    }

    #[test]
    fn image_data_spills_into_the_next_bank_and_no_further() {
        let cfg = LbpConfig::cores(2);
        let bank = cfg.shared_bank_bytes;
        let mut data = vec![0u8; bank as usize + 4];
        data[bank as usize] = 7;
        let b = Banks::new(&cfg, &data).unwrap();
        assert_eq!(b.peek(SHARED_BASE + bank).unwrap(), 7);
        assert_eq!(
            Banks::new(&cfg, &vec![0; 2 * bank as usize + 1]).unwrap_err(),
            MemFault::Unmapped {
                addr: SHARED_BASE + 2 * bank,
                hart: HartId::FIRST
            }
        );
    }

    #[test]
    fn cv_base_is_per_hart() {
        // 64 KiB local bank -> 16 KiB stacks.
        assert_eq!(
            cv_base(HartId::from_parts(2, 0)),
            LOCAL_BASE + 16 * 1024 - CV_FRAME_BYTES
        );
        assert_eq!(
            cv_base(HartId::from_parts(2, 3)),
            LOCAL_BASE + 64 * 1024 - CV_FRAME_BYTES
        );
    }

    #[test]
    fn local_port_serves_one_per_cycle_after_arrival() {
        let mut m = memsys(1);
        let h = HartId::FIRST;
        m.local_request(
            0,
            NetMsg::WriteReq {
                addr: LOCAL_BASE,
                value: 42,
                size: 4,
                hart: h,
            },
            5,
        );
        // Same-cycle service is not allowed.
        m.tick(5, &mut Observers::off()).unwrap();
        assert!(take_arrivals(&mut m, 0).is_empty());
        m.tick(6, &mut Observers::off()).unwrap();
        let resp = take_arrivals(&mut m, 0);
        assert_eq!(
            resp,
            vec![NetMsg::WriteAck {
                addr: LOCAL_BASE,
                hart: h
            }]
        );
        assert_eq!(load(&m.banks, LOCAL_BASE, 4).unwrap(), [42, 0, 0, 0]);
    }

    #[test]
    fn sign_extension() {
        let mut m = memsys(1);
        let at = |m: &MemSys, addr| m.banks.route(addr, HartId::FIRST).unwrap();
        m.write(0, at(&m, LOCAL_BASE), 0x80, 1).unwrap();
        let byte = |signed| m.read(0, at(&m, LOCAL_BASE), 1, signed).unwrap();
        assert_eq!((byte(true), byte(false)), (0xffff_ff80, 0x80));
        m.write(0, at(&m, LOCAL_BASE + 2), 0x8000, 2).unwrap();
        let half = m.read(0, at(&m, LOCAL_BASE + 2), 2, true);
        assert_eq!(half.unwrap(), 0xffff_8000);
    }

    #[test]
    fn checks_run_region_then_bank_then_alignment_then_bounds() {
        let b = banks(1);
        let h = HartId::FIRST;
        let unmapped = |addr| Err(SimError::Mem(MemFault::Unmapped { addr, hart: h }));
        let unaligned = |addr, size| {
            Err(SimError::Mem(MemFault::Unaligned {
                addr,
                size,
                hart: h,
            }))
        };
        // The code region has no data port, aligned or not.
        for addr in [2, 4] {
            assert!(matches!(load(&b, addr, 4), Err(SimError::Protocol { .. })));
        }
        // Past the last shared bank: unmapped before it is misaligned.
        assert_eq!(
            load(&b, SHARED_BASE + 0x10002, 4),
            unmapped(SHARED_BASE + 0x10002)
        );
        assert_eq!(load(&b, LOCAL_BASE + 2, 4), unaligned(LOCAL_BASE + 2, 4));
        assert_eq!(load(&b, SHARED_BASE + 1, 2), unaligned(SHARED_BASE + 1, 2));
        // Past the end of the local bank: nothing but the bounds is wrong.
        assert_eq!(
            load(&b, LOCAL_BASE + 0x10000, 4),
            unmapped(LOCAL_BASE + 0x10000)
        );
        assert_eq!(load(&b, LOCAL_BASE + 0xfffc, 4).unwrap(), [0; 4]);
    }

    #[test]
    fn the_harness_sees_shared_words_only() {
        let mut b = banks(1);
        let h = HartId::FIRST;
        b.poke(SHARED_BASE + 8, 0xdead_beef).unwrap();
        assert_eq!(b.peek(SHARED_BASE + 8).unwrap(), 0xdead_beef);
        b.flip(SHARED_BASE + 9, 31);
        assert_eq!(b.peek(SHARED_BASE + 8).unwrap(), 0x5ead_beef);
        // Beyond the single 64 KiB shared bank, and outside shared space.
        for addr in [SHARED_BASE + 0x10000, LOCAL_BASE, 0, lbp_isa::IO_BASE] {
            assert_eq!(b.peek(addr), Err(MemFault::Unmapped { addr, hart: h }));
            assert_eq!(b.poke(addr, 1), Err(MemFault::Unmapped { addr, hart: h }));
            b.flip(addr, 0); // ignored
        }
        let misaligned = MemFault::Unaligned {
            addr: SHARED_BASE + 2,
            size: 4,
            hart: h,
        };
        assert_eq!(b.peek(SHARED_BASE + 2), Err(misaligned));
    }

    #[test]
    fn first_shared_difference_names_the_word() {
        let (a, mut b) = (banks(2), banks(2));
        assert_eq!(a.first_shared_difference(&b), None);
        let addr = SHARED_BASE + 0x10000 + 12;
        b.poke(addr, 0x0100_0000).unwrap();
        assert_eq!(a.first_shared_difference(&b), Some((addr, 0, 0x0100_0000)));
        // Local banks are not part of the comparison.
        b.poke(addr, 0).unwrap();
        let local = b.route(LOCAL_BASE, HartId::FIRST).unwrap();
        b.span_mut(0, local, 1).unwrap()[0] = 1;
        assert_eq!(a.first_shared_difference(&b), None);
    }

    /// Writes a byte every half page of every bank.
    fn scribble(b: &mut Banks) {
        for bank in 0..b.banks.len() {
            for at in (0..b.banks[bank].len()).step_by(PAGE_BYTES / 2) {
                b.banks[bank][at] = 0xff;
                b.mark(bank, at);
            }
        }
    }

    /// What dropped banks leave to the pool holds zeros only, and banks
    /// built after them, whichever banks they take, hold zeros only too.
    #[test]
    fn spare_banks_come_back_zeroed() {
        let cfg = LbpConfig {
            shared_bank_bytes: PAGE_BYTES as u32 + 2052,
            ..LbpConfig::cores(2)
        };
        let banks = || Banks::new(&cfg, &[]).unwrap();
        let zeroed = |b: &Banks| {
            assert!(b.banks.iter().flatten().all(|&byte| byte == 0));
            assert!(b.written.iter().all(|&w| w == 0));
        };
        let (mut used, mut dropped) = (banks(), banks());
        scribble(&mut used);
        used.zero_written();
        zeroed(&used);
        scribble(&mut dropped);
        drop((used, dropped));
        zeroed(&banks());
    }

    /// The pool is the process's: a machine built on one scoped thread
    /// after a machine that wrote every page was dropped on another reads
    /// zeros only, and hashes as the first machine did when it was new.
    #[test]
    fn a_machine_reads_zeros_where_a_machine_dropped_on_another_thread_wrote() {
        let cfg = LbpConfig::cores(4);
        let image = lbp_asm::assemble("main:\n  li t0, -1\n  li a0, 0\n  p_ret a0, t0").unwrap();
        let build = || crate::Machine::new(cfg.clone(), &image).unwrap();
        let new_hash = std::thread::scope(|s| {
            s.spawn(|| {
                let mut m = build();
                let hash = m.arch_hash();
                scribble(&mut m.mem.banks);
                hash
            })
            .join()
            .unwrap()
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                let m = build();
                assert!(m.mem.banks.banks.iter().flatten().all(|&b| b == 0));
                assert_eq!(m.arch_hash(), new_hash);
            });
        });
    }

    /// A pool takes back what it kept, by size, and keeps no more than
    /// `SPARE_BYTES`.
    #[test]
    fn spares_take_what_they_keep_up_to_the_cap() {
        let mut spares = Spares::default();
        assert!(spares.take(8).is_none());
        let (small, large) = (vec![0u8; 8], vec![0u8; 4096]);
        let kept = [small.as_ptr(), large.as_ptr()];
        spares.keep(small);
        spares.keep(large);
        assert_eq!(spares.bytes, 4104);
        assert!(spares.take(16).is_none(), "no bank of that size");
        assert_eq!(spares.take(4096).map(|b| b.as_ptr()), Some(kept[1]));
        assert_eq!(spares.take(8).map(|b| b.as_ptr()), Some(kept[0]));
        assert_eq!(spares.bytes, 0);
        // Filled to the cap, the pool refuses a bank that would pass it.
        let bank = SPARE_BYTES / 4;
        for _ in 0..4 {
            spares.keep(vec![0; bank]);
        }
        assert_eq!(spares.bytes, SPARE_BYTES);
        spares.keep(vec![0; 1]);
        assert_eq!(spares.bytes, SPARE_BYTES);
        assert!(spares.take(1).is_none(), "the bank past the cap is dropped");
        assert!((0..4).all(|_| spares.take(bank).is_some()));
        assert_eq!(spares.bytes, 0);
    }

    /// The banks as plain dense arrays that record nothing of what was
    /// written: the model [`Banks`] is checked against.
    #[derive(Clone)]
    struct Dense {
        cfg: LbpConfig,
        /// The local bank of every core, then the shared bank of every core.
        banks: Vec<Vec<u8>>,
    }

    impl Dense {
        fn new(cfg: &LbpConfig, data: &[u8]) -> Dense {
            let sized = |bytes: u32| (0..cfg.cores).map(move |_| vec![0; bytes as usize]);
            let mut banks: Vec<_> = sized(LOCAL_BANK_BYTES)
                .chain(sized(cfg.shared_bank_bytes))
                .collect();
            let shared = banks[cfg.cores..].iter_mut().flatten();
            for (byte, &d) in shared.zip(data) {
                *byte = d;
            }
            let cfg = cfg.clone();
            Dense { cfg, banks }
        }

        /// The bank and byte an access of `size` bytes at `addr` made on
        /// `core` lands on, or `None` where [`Banks`] must refuse it.
        fn place(&self, core: u32, addr: u32, size: u8) -> Option<(usize, usize)> {
            let (bank, off) = if addr >= SHARED_BASE {
                let (bank, off) = shared_slot(addr, self.cfg.shared_bank_bytes);
                (self.cfg.cores + bank as usize, off as usize)
            } else {
                (core as usize, (addr - LOCAL_BASE) as usize)
            };
            let fits = bank < self.banks.len() && off + size as usize <= self.banks[bank].len();
            (addr.is_multiple_of(size as u32) && fits).then_some((bank, off))
        }

        fn span(&self, core: u32, addr: u32, size: u8) -> Option<&[u8]> {
            let (bank, off) = self.place(core, addr, size)?;
            Some(&self.banks[bank][off..off + size as usize])
        }

        fn span_mut(&mut self, core: u32, addr: u32, size: u8) -> Option<&mut [u8]> {
            let (bank, off) = self.place(core, addr, size)?;
            Some(&mut self.banks[bank][off..off + size as usize])
        }

        /// What a snapshot of dense banks held: each a length-prefixed block.
        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.u64(self.cfg.cores as u64);
            w.u32(LOCAL_BANK_BYTES);
            w.u32(self.cfg.shared_bank_bytes);
            for bank in &self.banks {
                w.bytes(bank);
            }
            w.into_bytes()
        }

        fn first_shared_difference(&self, other: &Dense) -> Option<(u32, u32, u32)> {
            let shared = |d: &Dense| d.banks[d.cfg.cores..].concat();
            let (mine, theirs) = (shared(self), shared(other));
            let at = mine.iter().zip(&theirs).position(|(a, b)| a != b)? & !3;
            let word = |bytes: &[u8]| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            Some((SHARED_BASE + at as u32, word(&mine), word(&theirs)))
        }
    }

    fn snapshot(b: &Banks) -> Vec<u8> {
        let mut w = SnapWriter::new();
        b.snap(&mut w);
        w.into_bytes()
    }

    /// An address in the local or the shared space of `model`'s machine,
    /// aligned to `size`: at or near a page's edges or anywhere in it, in
    /// any page of any bank or just past the last.
    fn address(rng: &mut Rng, model: &Dense, size: u8) -> u32 {
        let (base, bank_bytes, banks) = match rng.flip() {
            true => (LOCAL_BASE, LOCAL_BANK_BYTES, 1),
            false => (SHARED_BASE, model.cfg.shared_bank_bytes, model.cfg.cores),
        };
        let bank = rng.index(banks + 1) as u32;
        let page = rng.index(bank_bytes as usize / PAGE_BYTES + 1) as u32;
        let edge = PAGE_BYTES as u32;
        let anywhere = rng.range_u32(0, edge - 1);
        let byte = rng.pick(&[0, 4, edge - 4, edge - 1, anywhere]);
        base + bank * bank_bytes + page * edge + (byte & !(size as u32 - 1))
    }

    /// Banks against the dense model under seeded random accesses,
    /// harness pokes and flips, copies and snapshot round trips; one
    /// configuration's shared bank is not a whole number of pages.
    #[test]
    fn banks_agree_with_a_dense_model() {
        let mut rng = Rng::new(41);
        let odd = LbpConfig {
            shared_bank_bytes: PAGE_BYTES as u32 + 2052,
            ..LbpConfig::cores(3)
        };
        for cfg in [LbpConfig::cores(2), odd] {
            // Image data that spills into the second shared bank, with a
            // page-sized run of zeros in it.
            let mut data: Vec<u8> = (0..cfg.shared_bank_bytes + PAGE_BYTES as u32 + 700)
                .map(|_| rng.next_u32() as u8)
                .collect();
            data[PAGE_BYTES..2 * PAGE_BYTES].fill(0);
            let (mut tracked, mut model) =
                (Banks::new(&cfg, &data).unwrap(), Dense::new(&cfg, &data));
            let (mut base_tracked, mut base_model) = (tracked.clone(), model.clone());
            let h = HartId::FIRST;
            for step in 0..600 {
                let size = rng.pick(&[1u8, 2, 4]);
                let core = rng.index(cfg.cores) as u32;
                let addr = address(&mut rng, &model, size);
                let value = match rng.flip() {
                    true => 0,
                    false => rng.next_u32(),
                };
                match rng.index(7) {
                    0 => {
                        let at = tracked.route(addr, h).ok();
                        let got = at.and_then(|at| tracked.span_mut(core, at, size).ok());
                        let want = model.span_mut(core, addr, size);
                        assert_eq!(got.is_some(), want.is_some(), "store {addr:#x}");
                        for span in [got, want].into_iter().flatten() {
                            span.copy_from_slice(&value.to_le_bytes()[..size as usize]);
                        }
                    }
                    1 => {
                        let at = tracked.route(addr, h).ok();
                        let got = at.and_then(|at| tracked.span(core, at, size).ok());
                        assert_eq!(got, model.span(core, addr, size), "load {addr:#x}");
                    }
                    2 => {
                        let addr = SHARED_BASE.max(addr & !3);
                        let want = model.span_mut(0, addr, 4);
                        assert_eq!(tracked.poke(addr, value).is_ok(), want.is_some());
                        if let Some(span) = want {
                            span.copy_from_slice(&value.to_le_bytes());
                        }
                    }
                    3 => {
                        let addr = SHARED_BASE.max(addr & !3);
                        let want = model
                            .span(0, addr, 4)
                            .map(|b| u32::from_le_bytes(b.try_into().unwrap()));
                        assert_eq!(tracked.peek(addr).ok(), want, "peek {addr:#x}");
                    }
                    4 => {
                        let (addr, bit) = (SHARED_BASE.max(addr), rng.range_u32(0, 40));
                        tracked.flip(addr, bit);
                        if let Some(byte) = model
                            .span_mut(0, addr & !3, 4)
                            .and_then(|b| b.get_mut(bit as usize / 8))
                        {
                            *byte ^= 1 << (bit % 8);
                        }
                    }
                    5 => tracked = tracked.clone(),
                    _ => {
                        let bytes = snapshot(&tracked);
                        let mut r = SnapReader::new(&bytes);
                        tracked = Banks::unsnap(&mut r, cfg.cores).unwrap();
                        r.finish().unwrap();
                    }
                }
                assert_eq!(snapshot(&tracked), model.snapshot(), "step {step}");
                let dense_hash = hash::fnv1a64(&model.banks.concat());
                assert_eq!(
                    tracked.extend_hash(hash::OFFSET_BASIS),
                    dense_hash,
                    "step {step}"
                );
                for (a, b, x, y) in [
                    (&tracked, &base_tracked, &model, &base_model),
                    (&base_tracked, &tracked, &base_model, &model),
                ] {
                    assert_eq!(a.first_shared_difference(b), x.first_shared_difference(y));
                }
                if step % 50 == 0 {
                    (base_tracked, base_model) = (tracked.clone(), model.clone());
                }
            }
        }
    }

    #[test]
    fn remote_requests_flow_through_network() {
        let mut m = memsys(4);
        let h = HartId::from_parts(3, 0);
        // Core 3 reads bank 0 remotely.
        m.net.send_from_core(
            3,
            NetMsg::ReadReq {
                addr: SHARED_BASE,
                hart: h,
                size: 4,
                signed: false,
            },
        );
        let mut got = None;
        for now in 1..20 {
            m.net.tick();
            m.tick(now, &mut Observers::off()).unwrap();
            let inbox = take_arrivals(&mut m, 3);
            if !inbox.is_empty() {
                got = Some((now, inbox));
                break;
            }
        }
        let (when, inbox) = got.expect("response arrives");
        assert_eq!(
            inbox,
            vec![NetMsg::ReadResp {
                addr: SHARED_BASE,
                value: 1,
                hart: h
            }]
        );
        // core->r1 (1), r1->bank (2), served (2), bank->r1 (3), r1->core (4).
        assert_eq!(when, 4);
    }

    #[test]
    fn code_fetch_bounds() {
        let code = CodeBank::new(&[0x13, 0xffff_ffff]);
        let h = HartId::FIRST;
        assert_eq!(code.fetch(0, h).unwrap().instr, Instr::NOP);
        // The table is indexed by pc: word 1 is the undecodable one, and
        // its error carries the raw word.
        let undecodable = SimError::Decode {
            pc: 4,
            word: 0xffff_ffff,
            hart: h,
        };
        assert_eq!(code.fetch(4, h).unwrap_err(), undecodable);
        let past_the_end = MemFault::Unmapped { addr: 8, hart: h };
        assert_eq!(code.fetch(8, h).unwrap_err(), SimError::Mem(past_the_end));
        let misaligned = MemFault::Unaligned {
            addr: 2,
            size: 4,
            hart: h,
        };
        assert_eq!(code.fetch(2, h).unwrap_err(), SimError::Mem(misaligned));
    }

    #[test]
    fn a_straight_run_ends_at_a_jump_or_before_an_xpar_or_undecodable_word() {
        let words = "addi a0, a0, 1\nlw a1, 0(a0)\nbeq a0, a1, 0\nsw a1, 0(a0)\n\
                     p_syncm\nmul a2, a0, a1\njal zero, 0\naddi a0, a0, 1";
        let mut text = lbp_asm::assemble(words).unwrap().text;
        text.push(0xffff_ffff);
        let code = CodeBank::new(&text);
        let runs: Vec<u32> = (0..=text.len() as u32)
            .map(|i| code.run_at(4 * i))
            .collect();
        assert_eq!(runs, [3, 2, 1, 1, 0, 2, 1, 1, 0, 0]);
        assert_eq!(code.run_at(2), 0);
        let long = CodeBank::new(&[0x13; 300]);
        assert_eq!(
            [0, 44, 45, 299].map(|i| long.run_at(4 * i)),
            [255, 255, 255, 1]
        );
    }

    #[test]
    fn corrupt_patches_word_and_entry_and_ignores_what_is_not_a_code_word() {
        let mut code = CodeBank::new(&[0x13, 0x13]);
        let h = HartId::FIRST;
        for pc in [6, 8, 4000] {
            code.corrupt(pc, 0xffff_ffff);
        }
        assert_eq!(code.words, [0x13, 0x13]);
        code.corrupt(4, 0xffff_ffff);
        assert!(matches!(
            code.fetch(4, h),
            Err(SimError::Decode {
                word: 0xffff_ffec,
                ..
            })
        ));
        assert_eq!([code.run_at(0), code.run_at(4)], [1, 0]);
        code.corrupt(4, 0xffff_ffff);
        assert_eq!(code.fetch(4, h).unwrap().instr, Instr::NOP);
        assert_eq!([code.run_at(0), code.run_at(4)], [2, 1]);
    }
}
