//! Deterministic binary serialization of full machine state.
//!
//! A [`MachineState`] is a self-contained, byte-exact encoding of a
//! [`Machine`](crate::Machine) at a cycle boundary: configuration and
//! fault plan, every hart's architectural and microarchitectural state
//! (renaming tables, instruction table, reorder buffer, result buffer,
//! receive slots), the three memory banks of every core, every in-flight
//! router and fabric message, the I/O bus, the statistics counters and
//! the cycle count. Restoring it yields a machine whose future is
//! bit-identical to the original's — the paper's cycle-determinism
//! claim means machine state at cycle N is a pure function of
//! (image, configuration, fault plan), so `restore(snapshot_at(N))`
//! followed by M cycles reproduces exactly what cycles N..N+M of the
//! original run would have done.
//!
//! The encoding is a flat little-endian byte stream with no padding and
//! a fixed field order, so two snapshots of identical machines are
//! byte-identical — which is what lets the divergence bisector compare
//! machine states by comparing bytes.
//!
//! The payload is split in two sections. The *static* section holds the
//! configuration, the fault plan and the fault bookkeeping; the
//! *dynamic* section holds everything the program's execution actually
//! determines. [`MachineState::dynamic_bytes`] exposes the latter so
//! two runs under *different* fault plans (e.g. a clean and an injected
//! run) can still be compared state-for-state. The static section also
//! records the machine's [`Engine`] lineage, which no dynamic comparison
//! sees: a tool that compares timing checks it apart.

use std::fmt;

/// An error raised while decoding or restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the value it should contain.
    Truncated,
    /// A structural invariant of the encoding does not hold (bad tag,
    /// inconsistent sizes, an instruction word that does not decode).
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Bytes of the payload header: cycle, core count, dynamic-section
/// offset (three little-endian u64 values).
const HEADER_BYTES: usize = 24;

/// Where the engine byte sits in the payload: the configuration section
/// follows the header.
const ENGINE_AT: usize = HEADER_BYTES + crate::config::FIXED_WORDS_BYTES;

/// Which engine a machine state's clock descends from.
///
/// A machine materialized from the functional engine after a warm phase
/// that retired anything holds that engine's virtual cycle: its
/// architectural state is exact, but its cycle count is a model estimate
/// and its stall ledger synthetic, in every snapshot it or a machine
/// restored from it takes. Tools that compare timing, the divergence
/// bisector above all, must not line the two up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Every cycle ran on the full pipeline, network and bank model.
    CycleExact,
    /// A functional warm phase set the clock.
    Functional,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::CycleExact => "cycle-exact",
            Engine::Functional => "functional",
        })
    }
}

/// A full machine state, encoded. Produced by
/// [`Machine::snapshot`](crate::Machine::snapshot) and consumed by
/// [`Machine::restore`](crate::Machine::restore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    cycle: u64,
    cores: usize,
    engine: Engine,
    dyn_offset: usize,
    bytes: Vec<u8>,
}

impl MachineState {
    /// The cycle the machine was at when the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The machine's core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The engine the machine's clock descends from.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The raw encoded payload (what `lbp-snap` wraps into its
    /// versioned, content-hashed container).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The dynamic (execution-determined) section of the payload:
    /// everything except the configuration, the fault plan and the
    /// fault bookkeeping. Two machines are in the same execution state
    /// exactly when these bytes are equal — even when their fault plans
    /// differ, which is what divergence bisection compares.
    pub fn dynamic_bytes(&self) -> &[u8] {
        &self.bytes[self.dyn_offset..]
    }

    /// Reassembles a state from payload bytes (e.g. read back from an
    /// `lbp-snap` v3 container).
    ///
    /// Only the header and the engine byte are validated here; full
    /// validation happens in [`Machine::restore`](crate::Machine::restore).
    ///
    /// # Errors
    ///
    /// Fails if the header is truncated or self-inconsistent, or the
    /// engine byte is neither 0 nor 1.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<MachineState, SnapError> {
        let mut r = SnapReader::new(&bytes);
        let cycle = r.u64()?;
        let cores = r.u64()? as usize;
        let dyn_offset = r.u64()? as usize;
        if cores == 0 {
            return Err(SnapError::Corrupt("core count is zero".to_owned()));
        }
        if dyn_offset <= ENGINE_AT || dyn_offset > bytes.len() {
            return Err(SnapError::Corrupt(format!(
                "dynamic-section offset {dyn_offset} is outside the payload"
            )));
        }
        let engine = match bytes[ENGINE_AT] {
            0 => Engine::CycleExact,
            1 => Engine::Functional,
            other => return Err(SnapError::Corrupt(format!("bad engine byte {other}"))),
        };
        Ok(MachineState {
            cycle,
            cores,
            engine,
            dyn_offset,
            bytes,
        })
    }
}

/// The snapshot byte writer: little-endian, no padding, fixed order.
#[derive(Debug, Default)]
pub(crate) struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// The bytes written, holding no spare capacity: a snapshot kept for
    /// long would otherwise hold up to as much again, unused.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.shrink_to_fit();
        self.buf
    }

    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Overwrites the u64 previously written at `pos` (header patching).
    pub fn patch_u64(&mut self, pos: usize, v: u64) {
        self.buf[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A length-prefixed raw byte block.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.raw(b);
    }

    /// Raw bytes with no length prefix (a block written in parts).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// `n` zero bytes with no length prefix (a block written in parts).
    pub fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// An `Option`: presence tag then the value.
    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut SnapWriter, &T)) {
        match v {
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
            None => self.u8(0),
        }
    }

    /// A sequence length prefix (pair with a loop over the items).
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }
}

/// The snapshot byte reader, mirroring [`SnapWriter`] field for field.
#[derive(Debug)]
pub(crate) struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(data: &'a [u8]) -> SnapReader<'a> {
        SnapReader { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bad bool tag {other}"))),
        }
    }

    /// A length-prefixed raw byte block.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        Ok(self.block()?.to_vec())
    }

    /// A length-prefixed raw byte block, borrowed from the stream.
    pub fn block(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.u64()? as usize;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| SnapError::Corrupt("string is not UTF-8".to_owned()))
    }

    /// An `Option`: presence tag then the value.
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            other => Err(SnapError::Corrupt(format!("bad option tag {other}"))),
        }
    }

    /// A sequence length prefix. Every encoded item occupies at least
    /// one byte, so a length beyond the remaining bytes is corruption —
    /// rejecting it here keeps a hostile length from over-allocating.
    pub fn seq(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()? as usize;
        if n > self.remaining() {
            return Err(SnapError::Corrupt(format!(
                "sequence of {n} items in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Requires the stream to be fully consumed (restore ends exactly at
    /// the last byte; trailing garbage means a format mismatch).
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Corrupt(format!(
                "{} unread bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Serializes an instruction as its machine word (every in-flight
/// instruction came from decode, and encode is total on decode's image).
pub(crate) fn put_instr(w: &mut SnapWriter, i: &lbp_isa::Instr) {
    let word = i.encode().expect("a decoded instruction re-encodes");
    w.u32(word);
}

/// Deserializes an instruction from its machine word.
pub(crate) fn get_instr(r: &mut SnapReader<'_>) -> Result<lbp_isa::Instr, SnapError> {
    let word = r.u32()?;
    lbp_isa::Instr::decode(word)
        .map_err(|e| SnapError::Corrupt(format!("instruction word {word:#010x}: {e}")))
}

/// Serializes a hart id as its global number.
pub(crate) fn put_hart(w: &mut SnapWriter, h: lbp_isa::HartId) {
    w.u32(h.global());
}

/// Deserializes a hart id.
pub(crate) fn get_hart(r: &mut SnapReader<'_>) -> Result<lbp_isa::HartId, SnapError> {
    Ok(lbp_isa::HartId::new(r.u32()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX);
        w.bool(true);
        w.str("hi");
        w.opt(&Some(5u32), |w, v| w.u32(*v));
        w.opt(&None::<u32>, |w, v| w.u32(*v));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hi");
        assert_eq!(r.opt(|r| r.u32()).unwrap(), Some(5));
        assert_eq!(r.opt(|r| r.u32()).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let mut bytes = w.into_bytes();
        bytes.pop();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_tags_are_corrupt() {
        let bytes = [9u8];
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.opt(|r| r.u8()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn oversized_sequence_rejected() {
        let mut w = SnapWriter::new();
        w.seq(1_000_000);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.seq(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn machine_state_header_parses() {
        let mut w = SnapWriter::new();
        w.u64(42); // cycle
        w.u64(4); // cores
        w.u64(ENGINE_AT as u64 + 1); // the static section ends at the engine byte
        w.zeros(ENGINE_AT - HEADER_BYTES);
        w.u8(1);
        let mut bytes = w.into_bytes();
        let state = MachineState::from_bytes(bytes.clone()).unwrap();
        assert_eq!(state.cycle(), 42);
        assert_eq!(state.cores(), 4);
        assert_eq!(state.engine(), Engine::Functional);
        assert!(state.dynamic_bytes().is_empty());
        bytes[ENGINE_AT] = 2;
        assert!(matches!(
            MachineState::from_bytes(bytes),
            Err(SnapError::Corrupt(m)) if m == "bad engine byte 2"
        ));
        assert!(MachineState::from_bytes(vec![0; 8]).is_err());
    }
}
