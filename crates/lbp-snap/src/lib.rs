//! # lbp-snap — deterministic checkpoint/restore for LBP machines
//!
//! A versioned, content-hashed file container (`lbp-snap`, format v2)
//! around [`lbp_sim::MachineState`], plus a divergence bisector that
//! binary-searches two runs for the first cycle — and the first traced
//! event — where their evolutions part ways.
//!
//! The container prepends a fixed header to the raw machine payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"LBPSNAP1"
//!      8     2  format version (little-endian u16, currently 2)
//!     10     1  producing engine (0 = cycle-exact, 1 = functional)
//!     11     8  snapshot cycle
//!     19     8  core count
//!     27     8  payload length in bytes
//!     35     8  FNV-1a-64 hash of the payload
//!     43     …  payload (the `MachineState` bytes)
//! ```
//!
//! Version-1 containers (no engine byte; every snapshot implicitly
//! cycle-exact) still decode. The engine byte records *provenance*: a
//! snapshot materialized from the functional fast-forward engine
//! ([`lbp_sim::FastEngine`]) carries approximate timing (its cycle is a
//! retirement lower bound, its stall ledger synthetic), so tools that
//! compare timing — the bisector above all — must refuse to mix the two.
//!
//! The hash makes snapshots *content-addressed*: two machines in the same
//! state produce byte-identical files with the same
//! [`content_hash`], which `lbp-batch` exploits to deduplicate jobs.
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

mod bisect;

pub use bisect::{first_divergence, DivergencePoint};

/// The container magic, spelling the format name.
pub const MAGIC: [u8; 8] = *b"LBPSNAP1";

/// The current container format version.
pub const FORMAT_VERSION: u16 = 2;

/// Bytes of container header before the payload (current format).
pub const CONTAINER_HEADER_BYTES: usize = 43;

/// Header size of the legacy version-1 container (no engine byte).
pub const V1_HEADER_BYTES: usize = 42;

/// Which simulation engine produced a snapshot.
///
/// Functional snapshots come from the fast-forward interpreter: their
/// architectural state is exact, but the cycle count is a retirement
/// lower bound and the stall ledger synthetic. Timing-sensitive tools
/// (the bisector) must not compare them against cycle-exact snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The full pipeline/NoC/bank model — exact cycles.
    CycleExact,
    /// The functional fast-forward interpreter — exact architecture,
    /// virtual cycles.
    Functional,
}

impl Engine {
    fn to_byte(self) -> u8 {
        match self {
            Engine::CycleExact => 0,
            Engine::Functional => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Engine> {
        match b {
            0 => Some(Engine::CycleExact),
            1 => Some(Engine::Functional),
            _ => None,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::CycleExact => "cycle-exact",
            Engine::Functional => "functional",
        })
    }
}

/// Container metadata, readable without restoring the machine.
#[derive(Debug, Clone, Copy)]
pub struct Meta {
    /// The container format version (1 or 2).
    pub version: u16,
    /// The engine that produced the snapshot (v1 containers predate the
    /// field and are always cycle-exact).
    pub engine: Engine,
    /// The cycle the machine was snapshotted at.
    pub cycle: u64,
    /// The machine's core count.
    pub cores: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// The FNV-1a-64 content hash of the payload.
    pub content_hash: u64,
}

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
    /// magic, unsupported version, header/payload disagreement).
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

/// Serializes a machine state into the current container format,
/// recording a cycle-exact producing engine.
pub fn encode(state: &MachineState) -> Vec<u8> {
    encode_with_engine(state, Engine::CycleExact)
}

/// Serializes a machine state, recording which engine produced it.
pub fn encode_with_engine(state: &MachineState, engine: Engine) -> Vec<u8> {
    let payload = state.as_bytes();
    let mut out = Vec::with_capacity(CONTAINER_HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(engine.to_byte());
    out.extend_from_slice(&state.cycle().to_le_bytes());
    out.extend_from_slice(&(state.cores() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads and verifies the container header without touching the payload
/// beyond hashing it — cheap inspection of cycle, cores and producing
/// engine. Accepts both format versions.
///
/// # Errors
///
/// [`SnapFileError::ShortRead`], [`SnapFileError::HashMismatch`] or
/// [`SnapFileError::Format`] exactly as [`decode`] classifies them.
pub fn peek(bytes: &[u8]) -> Result<Meta, SnapFileError> {
    let bad = |what: String| Err(SnapFileError::Format(what));
    if bytes.len() < V1_HEADER_BYTES {
        // Too short for any header; report against the declared version
        // when readable, else the current format's size.
        let expected = if bytes.len() >= 10 && bytes[8..10] == 1u16.to_le_bytes() {
            V1_HEADER_BYTES
        } else {
            CONTAINER_HEADER_BYTES
        };
        return Err(SnapFileError::ShortRead {
            expected: expected as u64,
            got: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return bad("bad magic".to_owned());
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
    // v1 has no engine byte; numeric fields start right after the
    // version and every snapshot is implicitly cycle-exact.
    let (engine, header) = match version {
        1 => (Engine::CycleExact, V1_HEADER_BYTES),
        2 => {
            if bytes.len() < CONTAINER_HEADER_BYTES {
                return Err(SnapFileError::ShortRead {
                    expected: CONTAINER_HEADER_BYTES as u64,
                    got: bytes.len() as u64,
                });
            }
            match Engine::from_byte(bytes[10]) {
                Some(e) => (e, CONTAINER_HEADER_BYTES),
                None => return bad(format!("unknown producing engine {}", bytes[10])),
            }
        }
        v => return bad(format!("unsupported format version {v}")),
    };
    let base = header - 32;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (cycle, cores, len, hash) = (
        u64_at(base),
        u64_at(base + 8),
        u64_at(base + 16),
        u64_at(base + 24),
    );
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
    Ok(Meta {
        version,
        engine,
        cycle,
        cores,
        payload_len: len,
        content_hash: hash,
    })
}

/// Parses a container back into a [`MachineState`], verifying the
/// magic, version, length and integrity hash. Both format versions are
/// accepted; use [`peek`] first when the producing engine matters.
///
/// # Errors
///
/// [`SnapFileError::ShortRead`] when the container ends before the
/// header's declared size (torn write), [`SnapFileError::HashMismatch`]
/// when the payload is complete but its bytes were altered,
/// [`SnapFileError::Format`] on any other container-level violation,
/// [`SnapFileError::Snap`] if the verified payload still fails machine
/// validation.
pub fn decode(bytes: &[u8]) -> Result<MachineState, SnapFileError> {
    let meta = peek(bytes)?;
    if meta.version < FORMAT_VERSION {
        // The v2 payload gained the per-core hart free queue; a v1
        // payload lacks it and cannot be restored by this build.
        return Err(SnapFileError::Format(format!(
            "snapshot container v{} predates this build's machine-state layout: \
             re-run the producing simulation to regenerate the snapshot",
            meta.version
        )));
    }
    let state = MachineState::from_bytes(bytes[CONTAINER_HEADER_BYTES..].to_vec())?;
    if state.cycle() != meta.cycle || state.cores() as u64 != meta.cores {
        return Err(SnapFileError::Format(format!(
            "container header (cycle {}, {} cores) disagrees with the payload \
             (cycle {}, {} cores)",
            meta.cycle,
            meta.cores,
            state.cycle(),
            state.cores()
        )));
    }
    Ok(state)
}

/// Checks that two snapshots may be bisected against each other.
///
/// Bisection compares *timing* evolution, so both snapshots must come
/// from the same container format version and the same engine; a
/// functional snapshot's virtual cycle cannot be lined up against a
/// cycle-exact one's.
///
/// # Errors
///
/// [`SnapFileError::Format`] naming the mismatched field and both
/// values, with the fix (re-snapshot, or bisect within one engine).
pub fn ensure_bisect_compatible(a: &Meta, b: &Meta) -> Result<(), SnapFileError> {
    if a.version != b.version {
        return Err(SnapFileError::Format(format!(
            "cannot bisect across container format versions (one snapshot is v{}, the \
             other v{}); re-save the older snapshot with this tool to upgrade it",
            a.version, b.version
        )));
    }
    if a.engine != b.engine {
        return Err(SnapFileError::Format(format!(
            "cannot bisect a {} snapshot against a {} one: functional snapshots carry \
             virtual cycles, not pipeline timing; take both snapshots from the same \
             engine (e.g. re-run the warm phase cycle-exact)",
            a.engine, b.engine
        )));
    }
    Ok(())
}

/// Writes a machine state to `path` as a cycle-exact container.
///
/// # Errors
///
/// Any I/O failure creating or writing the file.
pub fn save(state: &MachineState, path: impl AsRef<Path>) -> Result<(), SnapFileError> {
    save_with_engine(state, Engine::CycleExact, path)
}

/// Writes a machine state to `path`, recording its producing engine.
///
/// # Errors
///
/// Any I/O failure creating or writing the file.
pub fn save_with_engine(
    state: &MachineState,
    engine: Engine,
    path: impl AsRef<Path>,
) -> Result<(), SnapFileError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&encode_with_engine(state, engine))?;
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

/// Reads and verifies only the container metadata from `path`.
///
/// # Errors
///
/// I/O failures or container-format violations.
pub fn peek_file(path: impl AsRef<Path>) -> Result<Meta, SnapFileError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    peek(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_sim::{LbpConfig, Machine};

    fn snapped() -> MachineState {
        let image = lbp_asm::assemble(
            "main:
                li   t0, -1
                li   a0, 0
                p_ret a0, t0",
        )
        .unwrap();
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

    #[test]
    fn engine_provenance_round_trips() {
        let state = snapped();
        let bytes = encode_with_engine(&state, Engine::Functional);
        let meta = peek(&bytes).unwrap();
        assert_eq!(meta.version, FORMAT_VERSION);
        assert_eq!(meta.engine, Engine::Functional);
        assert_eq!(meta.cycle, 2);
        assert_eq!(meta.engine.to_string(), "functional");
        assert_eq!(peek(&encode(&state)).unwrap().engine, Engine::CycleExact);
        // Provenance does not perturb the payload.
        assert_eq!(decode(&bytes).unwrap().as_bytes(), state.as_bytes());
    }

    #[test]
    fn v1_containers_peek_as_cycle_exact_but_refuse_decode() {
        let state = snapped();
        let payload = state.as_bytes();
        // Hand-build a legacy v1 container (42-byte header, no engine).
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&state.cycle().to_le_bytes());
        v1.extend_from_slice(&(state.cores() as u64).to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        let meta = peek(&v1).unwrap();
        assert_eq!(meta.version, 1);
        assert_eq!(meta.engine, Engine::CycleExact);
        // The v2 machine-state layout (hart free queues) is not present
        // in a v1 payload, so decode refuses rather than misparsing.
        let msg = decode(&v1).unwrap_err().to_string();
        assert!(msg.contains("v1") && msg.contains("re-run"), "{msg}");
    }

    #[test]
    fn bisect_refuses_mixed_engines_and_versions() {
        let state = snapped();
        let exact = peek(&encode(&state)).unwrap();
        let fast = peek(&encode_with_engine(&state, Engine::Functional)).unwrap();
        assert!(ensure_bisect_compatible(&exact, &exact).is_ok());
        let msg = ensure_bisect_compatible(&exact, &fast)
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("cycle-exact") && msg.contains("functional"),
            "{msg}"
        );
        let mut v1 = exact;
        v1.version = 1;
        let msg = ensure_bisect_compatible(&v1, &exact)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("v1") && msg.contains("v2"), "{msg}");
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
