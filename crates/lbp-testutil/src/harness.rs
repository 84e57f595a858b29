//! The shared test harness: machine builders and scratch-directory
//! program writers that used to be copy-pasted across `tests/*.rs`.
//!
//! Everything here is a thin, panicking wrapper over the public
//! `lbp-asm`/`lbp-sim` API — the panics carry the offending program so a
//! failing generator-driven case is debuggable from the assertion
//! message alone. Gated behind the `harness` cargo feature so the core
//! PRNG stays dependency-free.

use std::path::{Path, PathBuf};

use lbp_asm::Image;
use lbp_sim::{Fault, FaultPlan, LbpConfig, Machine, MachineState, SimError};

/// Assembles a test program, panicking with the source on failure.
pub fn assemble(src: &str) -> Image {
    lbp_asm::assemble(src).unwrap_or_else(|e| panic!("test program rejected: {e}\n---\n{src}"))
}

/// Builds a machine with default parameters on `cores` cores.
pub fn machine(cores: usize, src: &str) -> Machine {
    machine_cfg(LbpConfig::cores(cores), src)
}

/// Builds a machine with default parameters plus event tracing.
pub fn machine_traced(cores: usize, src: &str) -> Machine {
    machine_cfg(LbpConfig::cores(cores).with_trace(), src)
}

/// Builds a machine from an explicit configuration.
pub fn machine_cfg(cfg: LbpConfig, src: &str) -> Machine {
    let image = assemble(src);
    Machine::new(cfg, &image).unwrap_or_else(|e| panic!("machine rejected: {e}\n---\n{src}"))
}

/// Builds a machine from an already-assembled image (tracing on, the
/// configuration determinism tests want).
pub fn machine_from_image(image: &Image, cores: usize) -> Machine {
    Machine::new(LbpConfig::cores(cores).with_trace(), image).expect("machine builds")
}

/// Builds a machine with a deterministic fault plan. Unlike the other
/// builders this returns the error: fault tests assert on rejected plans.
pub fn machine_with_faults(cores: usize, src: &str, faults: &[Fault]) -> Result<Machine, SimError> {
    let image = assemble(src);
    let cfg = LbpConfig::cores(cores).with_faults(faults.iter().copied().collect::<FaultPlan>());
    Machine::new(cfg, &image)
}

/// `m`'s snapshot with its fabric section, the last of the payload,
/// rewritten as the consistent fabric of a machine one core smaller: a
/// payload whose parts disagree on the core count. `m`'s fabric must hold
/// nothing and have counted nothing, as a fresh machine's.
pub fn fabric_one_core_short(m: &Machine) -> MachineState {
    // The core count, the forward, backward and inbox queues (a count,
    // then an empty queue each), hops, contention, sent, no delayed one.
    let quiet = |cores: u64| {
        let mut bytes = (cores as u32).to_le_bytes().to_vec();
        for queues in [cores - 1, cores - 1, cores] {
            bytes.extend(queues.to_le_bytes());
            bytes.extend(vec![0; 8 * queues as usize]);
        }
        bytes.extend([0u8; 32]);
        bytes
    };
    let cores = m.config().cores as u64;
    let bytes = m.snapshot().as_bytes().to_vec();
    let fabric = quiet(cores);
    assert!(bytes.ends_with(&fabric), "the fabric is not a fresh one");
    let mut patched = bytes[..bytes.len() - fabric.len()].to_vec();
    patched.extend(quiet(cores - 1));
    MachineState::from_bytes(patched).expect("the header is untouched")
}

/// A per-process scratch directory for tests that must round-trip
/// programs through the filesystem (CLI tests, corpus tests).
///
/// The directory is namespaced by `label` and the process id so parallel
/// `cargo test` invocations never collide; it is created on first use
/// and left behind for post-mortem inspection (the OS temp dir owns the
/// lifecycle).
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbp-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

/// Writes `text` as `name` inside [`scratch_dir`]`(label)` and returns
/// the full path.
pub fn scratch_file(label: &str, name: &str, text: &str) -> PathBuf {
    let path = scratch_dir(label).join(name);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("scratch subdir creates");
    }
    std::fs::write(&path, text).expect("scratch file writes");
    path
}

/// Removes a scratch tree, ignoring races with parallel tests.
pub fn scratch_cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
