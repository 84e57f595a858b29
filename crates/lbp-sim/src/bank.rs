//! Memory banks and the per-core memory ports.
//!
//! Each core owns three banks (paper Fig. 13): a code bank (a copy of the
//! program image; read by the fetch stage, one word per cycle, never
//! contended), a local bank (hart stacks and cv frames, private to the
//! core) and one slice of the distributed shared memory. Shared banks are
//! dual-ported: the local port serves the owning core, the network port
//! serves remote requests arriving through the r1 router.

use std::collections::VecDeque;

use lbp_isa::{HartId, Instr, Region, LOCAL_BASE, SHARED_BASE};

use crate::config::{cv_base_in, LbpConfig};
use crate::error::SimError;
use crate::hart::Decoded;
use crate::io::IoBus;
use crate::msg::{NetMsg, QUEUE_DEPTH};
use crate::network::Network;
use crate::observe::Observers;
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

/// A queued request at a bank port, stamped with its arrival cycle so the
/// bank serves it no earlier than the following cycle.
#[derive(Debug, Clone, Copy)]
struct Ported {
    msg: NetMsg,
    arrived: u64,
}

/// All memory state of the machine plus the per-core local ports.
#[derive(Debug)]
pub struct MemSys {
    cores: usize,
    local_bank_bytes: u32,
    shared_bank_bytes: u32,
    /// Per-core local banks (stacks, cv frames).
    local: Vec<Vec<u8>>,
    /// Per-core shared-bank slices.
    shared: Vec<Vec<u8>>,
    /// The code image (identical copy in every core's code bank).
    code: Vec<u32>,
    /// `code`, decoded: what the fetch stage reads. `None` marks a word
    /// the decoder rejects. Derived state, never serialized: built by
    /// [`predecode`] wherever `code` is, and patched by
    /// [`MemSys::corrupt_code`], the only writer of `code`.
    decoded: Vec<Option<Decoded>>,
    /// Local-bank port queue, one per core (own loads/stores/`p_lwcv`).
    local_q: Vec<VecDeque<Ported>>,
    /// Own-shared-slice local port queue, one per core.
    shared_q: Vec<VecDeque<Ported>>,
    /// Requests in all of `local_q` and `shared_q` together.
    queued: usize,
    /// Responses completed by local ports, delivered next cycle.
    staged: Vec<Vec<NetMsg>>,
    /// Responses in all of `staged` together.
    staged_total: usize,
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
    /// Builds the memory system and loads the program image copies.
    pub fn new(cfg: &LbpConfig, text: &[u32], data: &[u8]) -> Result<MemSys, MemFault> {
        let cores = cfg.cores;
        let mut mem = MemSys {
            cores,
            local_bank_bytes: cfg.local_bank_bytes,
            shared_bank_bytes: cfg.shared_bank_bytes,
            local: (0..cores)
                .map(|_| vec![0; cfg.local_bank_bytes as usize])
                .collect(),
            shared: (0..cores)
                .map(|_| vec![0; cfg.shared_bank_bytes as usize])
                .collect(),
            code: text.to_vec(),
            decoded: predecode(text),
            local_q: (0..cores)
                .map(|_| VecDeque::with_capacity(QUEUE_DEPTH))
                .collect(),
            shared_q: (0..cores)
                .map(|_| VecDeque::with_capacity(QUEUE_DEPTH))
                .collect(),
            queued: 0,
            staged: (0..cores)
                .map(|_| Vec::with_capacity(QUEUE_DEPTH))
                .collect(),
            staged_total: 0,
            net: Network::new(cores, cfg.shared_bank_bytes),
            io: IoBus::new(),
            local_served: 0,
            remote_served: 0,
            conflicts: 0,
            now: 0,
        };
        // Distribute the initialized data over the shared banks.
        for (i, &byte) in data.iter().enumerate() {
            let addr = SHARED_BASE + i as u32;
            mem.poke_shared(addr, byte, HartId::FIRST)?;
        }
        Ok(mem)
    }

    /// The shared bank (== core number) serving a shared address.
    pub fn shared_bank_of(&self, addr: u32) -> u32 {
        (addr - SHARED_BASE) / self.shared_bank_bytes
    }

    /// Fetches the decoded instruction at `pc` (used by the fetch stage;
    /// no contention). An undecodable word is an error only here, when it
    /// is actually fetched, and the error carries the raw word.
    pub fn fetch(&self, pc: u32, hart: HartId) -> Result<Decoded, SimError> {
        if !pc.is_multiple_of(4) {
            return Err(SimError::Mem(MemFault::Unaligned {
                addr: pc,
                size: 4,
                hart,
            }));
        }
        let index = (pc / 4) as usize;
        match self.decoded.get(index) {
            Some(Some(op)) => Ok(*op),
            Some(None) => Err(SimError::Decode {
                pc,
                word: self.code[index],
                hart,
            }),
            None => Err(SimError::Mem(MemFault::Unmapped { addr: pc, hart })),
        }
    }

    /// The fixed continuation-value frame base address of a hart (within
    /// its core's local bank).
    pub fn cv_base(&self, hart: HartId) -> u32 {
        cv_base_in(self.local_bank_bytes, hart)
    }

    /// The per-core local banks (hybrid-handoff materialization and
    /// architectural hashing).
    pub(crate) fn local_banks(&self) -> &[Vec<u8>] {
        &self.local
    }

    /// The per-core shared-bank slices (hybrid-handoff materialization
    /// and architectural hashing).
    pub(crate) fn shared_banks(&self) -> &[Vec<u8>] {
        &self.shared
    }

    /// Mutable per-core local banks (hybrid-handoff materialization).
    pub(crate) fn local_banks_mut(&mut self) -> &mut [Vec<u8>] {
        &mut self.local
    }

    /// Mutable per-core shared-bank slices (hybrid-handoff
    /// materialization).
    pub(crate) fn shared_banks_mut(&mut self) -> &mut [Vec<u8>] {
        &mut self.shared
    }

    /// Writes one byte directly into a shared bank (image loading).
    fn poke_shared(&mut self, addr: u32, byte: u8, hart: HartId) -> Result<(), MemFault> {
        let bank = self.shared_bank_of(addr) as usize;
        if bank >= self.cores {
            return Err(MemFault::Unmapped { addr, hart });
        }
        let off = ((addr - SHARED_BASE) % self.shared_bank_bytes) as usize;
        self.shared[bank][off] = byte;
        Ok(())
    }

    /// Enqueues a request on the owning core's local-bank port.
    pub fn local_request(&mut self, core: u32, msg: NetMsg, now: u64) {
        self.local_q[core as usize].push_back(Ported { msg, arrived: now });
        self.queued += 1;
    }

    /// Enqueues a request on the core's own shared-slice local port.
    pub fn shared_local_request(&mut self, core: u32, msg: NetMsg, now: u64) {
        self.shared_q[core as usize].push_back(Ported { msg, arrived: now });
        self.queued += 1;
    }

    /// Applies a cross-core `p_swcv` continuation-value write (the forward
    /// link's dedicated port into the local bank).
    pub fn cv_write(&mut self, to: HartId, offset: u32, value: u32) -> Result<(), MemFault> {
        let addr = self.cv_base(to) + offset;
        self.write_local(to.core(), addr, value, 4, to)
    }

    /// Whether a memory response waits for any core.
    pub fn any_arrivals(&self) -> bool {
        self.staged_total != 0 || self.net.any_at_cores()
    }

    /// The `i`-th memory response waiting for a core this cycle: the
    /// network's in arrival order, then the local ports'.
    pub fn arrival(&self, core: u32, i: usize) -> Option<NetMsg> {
        let inbox = self.net.core_inbox(core);
        let msg = match inbox.get(i) {
            Some(msg) => msg,
            None => self.staged[core as usize].get(i - inbox.len())?,
        };
        Some(*msg)
    }

    /// Forgets the memory responses waiting for a core; their buffers keep
    /// their capacity.
    pub fn clear_arrivals(&mut self, core: u32) {
        self.net.clear_core_inbox(core);
        let staged = &mut self.staged[core as usize];
        self.staged_total -= staged.len();
        staged.clear();
    }

    /// One cycle of bank service: each local port and each network port
    /// serves one request that arrived on an earlier cycle. With profiling
    /// enabled the shared-bank backlog (local shared-slice port plus
    /// network port) is also attributed to the requester's core in the
    /// bank-conflict matrix; local-bank (private) backlog stays out of the
    /// matrix, so the matrix totals at most `conflicts`.
    pub fn tick(&mut self, now: u64, obs: &mut Observers) -> Result<(), MemFault> {
        self.now = now;
        if self.queued == 0 && !self.net.any_at_banks() {
            return Ok(());
        }
        for core in 0..self.cores as u32 {
            let c = core as usize;
            // A core whose three port queues are empty serves nothing and
            // adds 0 to every counter below.
            if self.local_q[c].is_empty()
                && self.shared_q[c].is_empty()
                && self.net.bank_queue(core).is_empty()
            {
                continue;
            }
            // Local-bank port.
            if let Some(p) = self.local_q[c].front().copied() {
                if p.arrived < now {
                    self.local_q[c].pop_front();
                    self.queued -= 1;
                    let resp = self.perform(core, p.msg)?;
                    self.stage(c, resp);
                }
            }
            self.conflicts += Self::port_backlog(&self.local_q[c], now);
            // Shared-slice local port.
            if let Some(p) = self.shared_q[c].front().copied() {
                if p.arrived < now {
                    self.shared_q[c].pop_front();
                    self.queued -= 1;
                    let resp = self.perform(core, p.msg)?;
                    self.stage(c, resp);
                }
            }
            self.conflicts += Self::port_backlog(&self.shared_q[c], now);
            let ready = self.shared_q[c].iter().filter(|p| p.arrived < now);
            obs.bank_conflict(c, ready.map(|p| p.msg.hart().core() as usize));
            // Network port of the shared bank.
            if let Some(msg) = self.net.pop_bank(core) {
                let resp = self.perform(core, msg)?;
                self.net.send_from_bank(core, resp);
                self.remote_served += 1;
            }
            let queued = self.net.bank_queue(core);
            self.conflicts += queued.len() as u64;
            obs.bank_conflict(c, queued.iter().map(|m| m.hart().core() as usize));
        }
        Ok(())
    }

    /// Stages a local port's response for delivery next cycle.
    fn stage(&mut self, core: usize, resp: NetMsg) {
        self.staged[core].push(resp);
        self.staged_total += 1;
        self.local_served += 1;
    }

    /// Requests at a port that were ready this cycle but not served.
    fn port_backlog(q: &VecDeque<Ported>, now: u64) -> u64 {
        q.iter().filter(|p| p.arrived < now).count() as u64
    }

    /// Performs a read/write at `bank_core` and builds the response.
    fn perform(&mut self, bank_core: u32, msg: NetMsg) -> Result<NetMsg, MemFault> {
        match msg {
            NetMsg::ReadReq {
                addr,
                hart,
                size,
                signed,
            } => {
                let value = if Region::of(addr) == Region::Io {
                    self.io
                        .read(addr, self.now)
                        .ok_or(MemFault::Unmapped { addr, hart })?
                } else {
                    self.read(bank_core, addr, size, signed, hart)?
                };
                Ok(NetMsg::ReadResp { addr, value, hart })
            }
            NetMsg::WriteReq {
                addr,
                value,
                size,
                hart,
            } => {
                if Region::of(addr) == Region::Io {
                    self.io
                        .write(addr, value, self.now)
                        .ok_or(MemFault::Unmapped { addr, hart })?;
                } else {
                    self.write(bank_core, addr, value, size, hart)?;
                }
                Ok(NetMsg::WriteAck { addr, hart })
            }
            other => unreachable!("bank port received a response {other:?}"),
        }
    }

    fn check_align(addr: u32, size: u8, hart: HartId) -> Result<(), MemFault> {
        if !addr.is_multiple_of(size as u32) {
            Err(MemFault::Unaligned { addr, size, hart })
        } else {
            Ok(())
        }
    }

    fn slice_for(
        &mut self,
        bank_core: u32,
        addr: u32,
        size: u8,
        hart: HartId,
    ) -> Result<&mut [u8], MemFault> {
        Self::check_align(addr, size, hart)?;
        let (arr, off) = match Region::of(addr) {
            Region::Local => (
                &mut self.local[bank_core as usize],
                (addr - LOCAL_BASE) as usize,
            ),
            Region::Shared => {
                let bank = self.shared_bank_of(addr) as usize;
                if bank >= self.cores {
                    return Err(MemFault::Unmapped { addr, hart });
                }
                debug_assert_eq!(bank as u32, bank_core, "request routed to wrong bank");
                (
                    &mut self.shared[bank],
                    ((addr - SHARED_BASE) % self.shared_bank_bytes) as usize,
                )
            }
            Region::Code | Region::Io => return Err(MemFault::Unmapped { addr, hart }),
        };
        let end = off + size as usize;
        if end > arr.len() {
            return Err(MemFault::Unmapped { addr, hart });
        }
        Ok(&mut arr[off..end])
    }

    /// Reads a value of `size` bytes at `addr` from `bank_core`'s banks.
    pub fn read(
        &mut self,
        bank_core: u32,
        addr: u32,
        size: u8,
        signed: bool,
        hart: HartId,
    ) -> Result<u32, MemFault> {
        let bytes = self.slice_for(bank_core, addr, size, hart)?;
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

    /// Writes the low `size` bytes of `value` at `addr`.
    pub fn write(
        &mut self,
        bank_core: u32,
        addr: u32,
        value: u32,
        size: u8,
        hart: HartId,
    ) -> Result<(), MemFault> {
        let bytes = self.slice_for(bank_core, addr, size, hart)?;
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn write_local(
        &mut self,
        core: u32,
        addr: u32,
        value: u32,
        size: u8,
        hart: HartId,
    ) -> Result<(), MemFault> {
        self.write(core, addr, value, size, hart)
    }

    /// Directly reads shared memory (for test harnesses and result
    /// extraction after a run).
    pub fn peek_shared(&mut self, addr: u32) -> Result<u32, MemFault> {
        let bank = self.shared_bank_of(addr);
        self.read(bank, addr, 4, false, HartId::FIRST)
    }

    /// Whether every bank port is idle: no queued local request, no staged
    /// response. Feeds the machine's quiescence-based deadlock detector
    /// (the network's own queues are checked separately).
    pub fn ports_quiet(&self) -> bool {
        self.queued == 0 && self.staged_total == 0
    }

    /// Requests queued at a core's bank ports (crash dumps).
    pub fn queued_at(&self, core: u32) -> usize {
        self.local_q[core as usize].len()
            + self.shared_q[core as usize].len()
            + self.staged[core as usize].len()
    }

    /// XORs one bit of the shared-memory byte holding it (fault
    /// injection). Out-of-range addresses are ignored — the plan was
    /// validated up front.
    pub fn flip_shared_bit(&mut self, addr: u32, bit: u32) {
        let word = addr & !3;
        let bank = self.shared_bank_of(word) as usize;
        if bank >= self.cores {
            return;
        }
        let off = ((word - SHARED_BASE) % self.shared_bank_bytes) as usize + (bit / 8) as usize;
        if let Some(byte) = self.shared[bank].get_mut(off) {
            *byte ^= 1 << (bit % 8);
        }
    }

    /// Serializes the full memory system: bank contents, the code image,
    /// every queued/staged request, the network and the I/O bus.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.cores as u64);
        w.u32(self.local_bank_bytes);
        w.u32(self.shared_bank_bytes);
        for bank in &self.local {
            w.bytes(bank);
        }
        for bank in &self.shared {
            w.bytes(bank);
        }
        w.seq(self.code.len());
        for &word in &self.code {
            w.u32(word);
        }
        let put_ports = |w: &mut SnapWriter, qs: &[VecDeque<Ported>]| {
            for q in qs {
                w.seq(q.len());
                for p in q {
                    p.msg.snap(w);
                    w.u64(p.arrived);
                }
            }
        };
        put_ports(w, &self.local_q);
        put_ports(w, &self.shared_q);
        for staged in &self.staged {
            w.seq(staged.len());
            for msg in staged {
                msg.snap(w);
            }
        }
        self.net.snap(w);
        self.io.snap(w);
        w.u64(self.local_served);
        w.u64(self.remote_served);
        w.u64(self.conflicts);
        w.u64(self.now);
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<MemSys, SnapError> {
        let cores = r.u64()? as usize;
        if cores == 0 {
            return Err(SnapError::Corrupt(
                "memory system has zero cores".to_owned(),
            ));
        }
        let local_bank_bytes = r.u32()?;
        let shared_bank_bytes = r.u32()?;
        let get_banks = |r: &mut SnapReader<'_>, expect: u32| -> Result<Vec<Vec<u8>>, SnapError> {
            (0..cores)
                .map(|_| {
                    let bank = r.bytes()?;
                    if bank.len() != expect as usize {
                        return Err(SnapError::Corrupt(format!(
                            "bank holds {} bytes, configured for {expect}",
                            bank.len()
                        )));
                    }
                    Ok(bank)
                })
                .collect()
        };
        let local = get_banks(r, local_bank_bytes)?;
        let shared = get_banks(r, shared_bank_bytes)?;
        let mut code = Vec::new();
        for _ in 0..r.seq()? {
            code.push(r.u32()?);
        }
        let get_ports = |r: &mut SnapReader<'_>| -> Result<Vec<VecDeque<Ported>>, SnapError> {
            (0..cores)
                .map(|_| {
                    let mut q = VecDeque::new();
                    for _ in 0..r.seq()? {
                        q.push_back(Ported {
                            msg: NetMsg::unsnap(r)?,
                            arrived: r.u64()?,
                        });
                    }
                    Ok(q)
                })
                .collect()
        };
        let local_q = get_ports(r)?;
        let shared_q = get_ports(r)?;
        let mut staged = Vec::with_capacity(cores);
        for _ in 0..cores {
            let mut v = Vec::new();
            for _ in 0..r.seq()? {
                v.push(NetMsg::unsnap(r)?);
            }
            staged.push(v);
        }
        let net = Network::unsnap(r)?;
        let io = IoBus::unsnap(r)?;
        Ok(MemSys {
            cores,
            local_bank_bytes,
            shared_bank_bytes,
            local,
            shared,
            decoded: predecode(&code),
            code,
            queued: local_q.iter().chain(&shared_q).map(VecDeque::len).sum(),
            local_q,
            shared_q,
            staged_total: staged.iter().map(Vec::len).sum(),
            staged,
            net,
            io,
            local_served: r.u64()?,
            remote_served: r.u64()?,
            conflicts: r.u64()?,
            now: r.u64()?,
        })
    }

    /// XORs the code word at `pc` with `xor` (fault injection). Every
    /// core's code bank is the same copy, so all cores see the corruption.
    pub fn corrupt_code(&mut self, pc: u32, xor: u32) {
        let index = (pc / 4) as usize;
        if let Some(word) = self.code.get_mut(index) {
            *word ^= xor;
            self.decoded[index] = decode_word(*word);
        }
    }
}

fn decode_word(word: u32) -> Option<Decoded> {
    Instr::decode(word).ok().map(Decoded::new)
}

/// Decodes a code image once, so that no fetch decodes again.
fn predecode(code: &[u32]) -> Vec<Option<Decoded>> {
    code.iter().map(|&word| decode_word(word)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CV_FRAME_BYTES;

    /// The memory responses waiting for `core`, taken away from it.
    fn take_arrivals(m: &mut MemSys, core: u32) -> Vec<NetMsg> {
        let out = (0..).map_while(|i| m.arrival(core, i)).collect();
        m.clear_arrivals(core);
        out
    }

    fn memsys(cores: usize) -> MemSys {
        MemSys::new(&LbpConfig::cores(cores), &[0x13], &[1, 0, 0, 0]).unwrap()
    }

    #[test]
    fn image_data_lands_in_shared_bank_zero() {
        let mut m = memsys(4);
        assert_eq!(m.peek_shared(SHARED_BASE).unwrap(), 1);
    }

    #[test]
    fn cv_base_is_per_hart() {
        let m = memsys(4);
        // 64 KiB local bank -> 16 KiB stacks.
        assert_eq!(
            m.cv_base(HartId::from_parts(2, 0)),
            LOCAL_BASE + 16 * 1024 - CV_FRAME_BYTES
        );
        assert_eq!(
            m.cv_base(HartId::from_parts(2, 3)),
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
        m.tick(5, &mut Observers::off(false)).unwrap();
        assert!(take_arrivals(&mut m, 0).is_empty());
        m.tick(6, &mut Observers::off(false)).unwrap();
        let resp = take_arrivals(&mut m, 0);
        assert_eq!(
            resp,
            vec![NetMsg::WriteAck {
                addr: LOCAL_BASE,
                hart: h
            }]
        );
        assert_eq!(m.read(0, LOCAL_BASE, 4, false, h).unwrap(), 42);
    }

    #[test]
    fn sign_extension() {
        let mut m = memsys(1);
        let h = HartId::FIRST;
        m.write(0, LOCAL_BASE, 0x80, 1, h).unwrap();
        assert_eq!(m.read(0, LOCAL_BASE, 1, true, h).unwrap(), 0xffff_ff80);
        assert_eq!(m.read(0, LOCAL_BASE, 1, false, h).unwrap(), 0x80);
        m.write(0, LOCAL_BASE + 2, 0x8000, 2, h).unwrap();
        assert_eq!(m.read(0, LOCAL_BASE + 2, 2, true, h).unwrap(), 0xffff_8000);
    }

    #[test]
    fn misaligned_access_faults() {
        let mut m = memsys(1);
        let err = m
            .read(0, LOCAL_BASE + 2, 4, false, HartId::FIRST)
            .unwrap_err();
        assert!(matches!(err, MemFault::Unaligned { .. }));
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = memsys(1);
        // Beyond the single 64 KiB shared bank.
        let err = m.peek_shared(SHARED_BASE + 0x10000).unwrap_err();
        assert!(matches!(err, MemFault::Unmapped { .. }));
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
            m.tick(now, &mut Observers::off(false)).unwrap();
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
        let m = memsys(1);
        assert_eq!(m.fetch(0, HartId::FIRST).unwrap().instr, Instr::NOP);
        assert!(m.fetch(4, HartId::FIRST).is_err());
        assert!(m.fetch(2, HartId::FIRST).is_err());
    }
}
