//! # lbp-snap — deterministic checkpoint/restore for LBP machines
//!
//! A versioned, content-hashed file container (`lbp-snap`, format v3)
//! around [`lbp_sim::MachineState`]. The divergence bisector over two
//! runs' states is [`lbp_sim::first_divergence`]; it needs no container.
//!
//! The container prepends a fixed header to the raw machine payload and
//! holds nothing the payload already says:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"LBPSNAP1"
//!      8     2  format version (little-endian u16, currently 3)
//!     10     8  payload length in bytes
//!     18     8  FNV-1a-64 hash of the payload
//!     26     …  payload (the `MachineState` bytes)
//! ```
//!
//! The cycle, the core count and the producing [`lbp_sim::Engine`] are the
//! payload's own ([`MachineState::cycle`], [`MachineState::cores`],
//! [`MachineState::engine`]). A container of any other version is
//! refused by [`decode`], and so by every reader, with one message: v1
//! payloads lack the hart free queues, and v2 headers restated the
//! payload's cycle, core count and engine, while a v2 payload may hold
//! the in-memory trace's old switch where the engine byte now is.
//!
//! The hash makes snapshots *content-addressed*: two machines in the same
//! state produce byte-identical files with the same [`content_hash`],
//! watched or not, which the fuzzer's oracles and `lbp-run --snap-info`
//! compare and print. (`lbp-batch` deduplicates jobs before any machine
//! runs, by `job_hash` over each job's fields.)
//!
//! # Examples
//!
//! ```
//! use lbp_sim::{LbpConfig, Machine};
//!
//! let image = lbp_asm::assemble(
//!     "main:
//!         li   t0, -1
//!         li   a0, 0
//!         p_ret a0, t0",
//! )?;
//! let mut m = Machine::new(LbpConfig::cores(1), &image)?;
//! m.run_to(2)?;
//! let bytes = lbp_snap::encode(&m.snapshot());
//! let restored = Machine::restore(&lbp_snap::decode(&bytes)?)?;
//! assert_eq!(restored.snapshot().as_bytes(), m.snapshot().as_bytes());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use std::path::Path;

use lbp_sim::{MachineState, SnapError};

/// The container magic, spelling the format name.
pub const MAGIC: [u8; 8] = *b"LBPSNAP1";

/// The current container format version.
pub const FORMAT_VERSION: u16 = 3;

/// Bytes of container header before the payload (current format).
pub const CONTAINER_HEADER_BYTES: usize = 26;

/// A failure to read or write a snapshot container.
///
/// The two corruption modes a crashing writer can leave behind get
/// their own variants so recovery code can tell them apart: a torn
/// write truncates the file ([`SnapFileError::ShortRead`]), while media
/// or memory damage flips bits under an intact length
/// ([`SnapFileError::HashMismatch`]). Everything else that fails
/// structural parsing stays [`SnapFileError::Format`].
#[derive(Debug)]
pub enum SnapFileError {
    /// The underlying I/O operation failed.
    Io(std::io::Error),
    /// The container ends early: a torn or truncated write. `expected`
    /// is the byte count the header promised (or the header size itself
    /// when not even the header is complete), `got` what is there.
    ShortRead {
        /// Bytes the container should hold.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload bytes do not hash to the header's integrity hash:
    /// the container is complete but its content was altered.
    HashMismatch {
        /// The FNV-1a-64 hash the header recorded at write time.
        expected: u64,
        /// The hash of the payload as read.
        got: u64,
    },
    /// The bytes are not a well-formed `lbp-snap` container (bad
    /// magic, unsupported version, trailing bytes).
    Format(String),
    /// The payload does not describe a valid machine.
    Snap(SnapError),
}

impl std::fmt::Display for SnapFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapFileError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapFileError::ShortRead { expected, got } => write!(
                f,
                "truncated lbp-snap container: {got} of {expected} bytes present \
                 (torn or interrupted write)"
            ),
            SnapFileError::HashMismatch { expected, got } => write!(
                f,
                "lbp-snap content-hash mismatch: header says {expected:#018x}, \
                 payload hashes to {got:#018x} (the snapshot bytes were altered)"
            ),
            SnapFileError::Format(what) => write!(f, "not a valid lbp-snap container: {what}"),
            SnapFileError::Snap(e) => write!(f, "snapshot payload rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapFileError::Io(e) => Some(e),
            SnapFileError::Snap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapFileError {
    fn from(e: std::io::Error) -> SnapFileError {
        SnapFileError::Io(e)
    }
}

impl From<SnapError> for SnapFileError {
    fn from(e: SnapError) -> SnapFileError {
        SnapFileError::Snap(e)
    }
}

/// FNV-1a 64-bit — the format's (non-cryptographic) integrity and
/// content-addressing hash, and the one `Machine::arch_hash` uses.
pub use lbp_sim::fnv1a64;

/// The content hash of a machine state — equal for machines in equal
/// states, whatever run produced them.
pub fn content_hash(state: &MachineState) -> u64 {
    fnv1a64(state.as_bytes())
}

/// Serializes a machine state into the current container format.
pub fn encode(state: &MachineState) -> Vec<u8> {
    let payload = state.as_bytes();
    let mut out = Vec::with_capacity(CONTAINER_HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses a container back into a [`MachineState`], verifying the
/// magic, version, length and integrity hash, then the payload's header.
///
/// # Errors
///
/// [`SnapFileError::ShortRead`] when the container ends before the
/// header's declared size (torn write), [`SnapFileError::HashMismatch`]
/// when the payload is complete but its bytes were altered,
/// [`SnapFileError::Format`] on any other container-level violation (a
/// container of an older format version among them),
/// [`SnapFileError::Snap`] if the verified payload's header does not
/// parse. Full machine validation is [`lbp_sim::Machine::restore`]'s.
pub fn decode(bytes: &[u8]) -> Result<MachineState, SnapFileError> {
    let bad = |what: String| Err(SnapFileError::Format(what));
    let header = CONTAINER_HEADER_BYTES;
    if bytes.len() >= 10 && bytes[..8] == MAGIC {
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version < FORMAT_VERSION {
            return bad(format!(
                "snapshot container v{version} predates this build's machine-state layout: \
                 re-run the producing simulation to regenerate the snapshot"
            ));
        }
        if version > FORMAT_VERSION {
            return bad(format!("unsupported format version {version}"));
        }
    }
    if bytes.len() < header {
        return Err(SnapFileError::ShortRead {
            expected: header as u64,
            got: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return bad("bad magic".to_owned());
    }
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (len, hash) = (u64_at(10), u64_at(18));
    let payload = &bytes[header..];
    if (payload.len() as u64) < len {
        return Err(SnapFileError::ShortRead {
            expected: header as u64 + len,
            got: bytes.len() as u64,
        });
    }
    if payload.len() as u64 > len {
        return bad(format!(
            "header declares {len} payload bytes, container holds {} (trailing bytes)",
            payload.len()
        ));
    }
    let got_hash = fnv1a64(payload);
    if got_hash != hash {
        return Err(SnapFileError::HashMismatch {
            expected: hash,
            got: got_hash,
        });
    }
    Ok(MachineState::from_bytes(payload.to_vec())?)
}

/// Writes a machine state to `path`.
///
/// # Errors
///
/// Any I/O failure creating or writing the file.
pub fn save(state: &MachineState, path: impl AsRef<Path>) -> Result<(), SnapFileError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&encode(state))?;
    Ok(())
}

/// Reads and verifies a snapshot container from `path`.
///
/// # Errors
///
/// I/O failures, container-format violations, or payload rejection.
pub fn load(path: impl AsRef<Path>) -> Result<MachineState, SnapFileError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_sim::{Engine, FastEngine, FastStop, LbpConfig, Machine};

    const PROGRAM: &str = "main:
        li   t0, -1
        li   a0, 0
        p_ret a0, t0";

    fn snapped() -> MachineState {
        let image = lbp_asm::assemble(PROGRAM).unwrap();
        let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
        m.run_to(2).unwrap();
        m.snapshot()
    }

    #[test]
    fn container_round_trips() {
        let state = snapped();
        let bytes = encode(&state);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.as_bytes(), state.as_bytes());
        assert_eq!(back.cycle(), 2);
    }

    #[test]
    fn equal_states_hash_equal() {
        let a = snapped();
        let b = snapped();
        assert_eq!(content_hash(&a), content_hash(&b));
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn damage_is_detected_and_classified() {
        let mut bytes = encode(&snapped());
        // Cut inside the header: short read against the header size.
        assert!(matches!(
            decode(&bytes[..CONTAINER_HEADER_BYTES - 1]),
            Err(SnapFileError::ShortRead { expected, got })
                if expected == CONTAINER_HEADER_BYTES as u64
                    && got == CONTAINER_HEADER_BYTES as u64 - 1
        ));
        // Cut inside the payload: short read against the declared total.
        assert!(matches!(
            decode(&bytes[..bytes.len() - 3]),
            Err(SnapFileError::ShortRead { expected, got })
                if expected == bytes.len() as u64 && got == bytes.len() as u64 - 3
        ));
        // Bit flip under an intact length: a hash mismatch, not a short
        // read and not a generic format error.
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(matches!(
            decode(&bytes),
            Err(SnapFileError::HashMismatch { expected, got }) if expected != got
        ));
        bytes[last] ^= 1;
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(SnapFileError::Format(_))));
    }

    /// The program [`snapped`] runs, handed over by the functional
    /// engine after one retired instruction.
    fn warmed() -> MachineState {
        let image = lbp_asm::assemble(PROGRAM).unwrap();
        let mut fast = FastEngine::new(LbpConfig::cores(1), &image).unwrap();
        fast.run(FastStop::Retired(1), 100).unwrap();
        fast.materialize(&image).unwrap().snapshot()
    }

    #[test]
    fn engine_provenance_round_trips() {
        let state = warmed();
        let back = decode(&encode(&state)).unwrap();
        assert_eq!(back.engine(), Engine::Functional);
        assert_eq!(back.engine().to_string(), "functional");
        assert_eq!((back.cycle(), back.cores()), (state.cycle(), 1));
        let cold = decode(&encode(&snapped())).unwrap();
        assert_eq!(cold.engine(), Engine::CycleExact);
        // The mark is machine state: a restored machine snapshots it again.
        let restored = Machine::restore(&back).unwrap();
        assert_eq!(restored.snapshot().as_bytes(), state.as_bytes());
    }

    #[test]
    fn v2_containers_are_refused_by_decode() {
        let state = snapped();
        let payload = state.as_bytes();
        // Hand-build a v2 container (43-byte header restating the
        // payload's engine, cycle and core count).
        let mut v2 = Vec::new();
        v2.extend_from_slice(&MAGIC);
        v2.extend_from_slice(&2u16.to_le_bytes());
        v2.push(0);
        v2.extend_from_slice(&state.cycle().to_le_bytes());
        v2.extend_from_slice(&(state.cores() as u64).to_le_bytes());
        v2.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v2.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        v2.extend_from_slice(payload);
        // One refusal, torn or whole, never a misparse.
        for bytes in [&v2[..], &v2[..20]] {
            let Err(SnapFileError::Format(msg)) = decode(bytes) else {
                panic!("a v2 container is a format refusal");
            };
            assert!(
                msg.contains("v2") && msg.contains("predates") && msg.contains("re-run"),
                "{msg}"
            );
        }
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("lbp-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t-{}.lbpsnap", std::process::id()));
        let state = snapped();
        save(&state, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.as_bytes(), state.as_bytes());
        std::fs::remove_file(&path).unwrap();
    }
}
