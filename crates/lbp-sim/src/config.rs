//! Machine configuration.

use std::fmt::Display;

use lbp_isa::{HartId, DEFAULT_SHARED_BANK_BYTES, HARTS_PER_CORE, LOCAL_BANK_BYTES, LOCAL_BASE};

use crate::fault::{Fault, FaultPlan};
use crate::snapshot::{Engine, SnapError, SnapReader, SnapWriter};

/// Renaming (physical) registers per hart: the 32 architectural ones and
/// 32 to rename into, one bit each in a word of ready flags.
pub(crate) const PHYS_REGS: usize = 64;

/// The in-flight window of a hart: its reorder buffer, and the
/// instruction table inside it, hold this many instructions.
pub(crate) const WINDOW: usize = 32;

/// `p_swre`/`p_lwre` result-buffer slots per hart.
pub(crate) const RESULT_SLOTS: usize = 8;

/// ALU latency in cycles: the result is available the next cycle.
pub(crate) const ALU_LATENCY: u32 = 1;

/// RV32M division/remainder latency in cycles (an iterative divider).
pub(crate) const DIV_LATENCY: u32 = 12;

/// Bytes of the configuration section before the engine byte: the core
/// count, two bank sizes, four sizes and five latencies.
pub(crate) const FIXED_WORDS_BYTES: usize = 8 + 2 * 4 + 4 * 8 + 5 * 4;

/// The largest core count the tools build a machine for: `lbp-run
/// --cores` and a batch manifest's `cores` are refused above it.
pub const MAX_CORES: usize = 4096;

/// The settings of an LBP machine instance.
///
/// Every hart has the one pipeline of the FPGA implementation the paper
/// reports on: 64 renaming registers, a 32-instruction reorder buffer
/// and instruction table, 8 result-buffer slots, a single-cycle ALU and
/// a 12-cycle divider; every core has a 64 KiB local bank
/// ([`lbp_isa::LOCAL_BANK_BYTES`]). Link hops and bank service take one
/// cycle each by construction of the interconnect model. What may vary
/// is what follows.
///
/// # Examples
///
/// ```
/// use lbp_sim::LbpConfig;
/// let cfg = LbpConfig::cores(16);
/// assert_eq!(cfg.cores, 16);
/// assert_eq!(cfg.harts(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LbpConfig {
    /// Number of cores (the paper evaluates 4, 16 and 64).
    pub cores: usize,
    /// Bytes of shared bank per core (64 KiB by default); the global
    /// shared space is the concatenation of all shared banks.
    pub shared_bank_bytes: u32,
    /// RV32M multiplication latency in cycles (3 by default: a short
    /// pipelined multiplier).
    pub mul_latency: u32,
    /// Record one [`crate::IntervalSample`] every this many cycles
    /// (0 disables the interval time series).
    pub sample_interval: u64,
    /// Deterministic faults to inject into the run (empty by default).
    pub faults: FaultPlan,
}

impl LbpConfig {
    /// A machine with `cores` cores and default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn cores(cores: usize) -> LbpConfig {
        assert!(cores > 0, "a machine needs at least one core");
        LbpConfig {
            cores,
            shared_bank_bytes: DEFAULT_SHARED_BANK_BYTES,
            mul_latency: 3,
            sample_interval: 0,
            faults: FaultPlan::none(),
        }
    }

    /// Total hart count (`4 * cores`).
    pub fn harts(&self) -> usize {
        self.cores * HARTS_PER_CORE
    }

    /// Total bytes of the global shared space.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_bank_bytes as u64 * self.cores as u64
    }

    /// Enables the interval sampler with the given period in cycles.
    pub fn with_interval(mut self, cycles: u64) -> LbpConfig {
        self.sample_interval = cycles;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> LbpConfig {
        self.faults = faults;
        self
    }

    /// Writes the configuration section with the machine's `engine` byte
    /// after its fixed words ([`MachineState::engine`](crate::MachineState::engine)
    /// reads it back). The format has a word for each fixed size and
    /// latency, and for two latencies nothing reads (`link_hop`, `bank`,
    /// always 1); each holds the one value every machine has, which keeps
    /// every snapshot byte and content hash what older containers hold.
    pub(crate) fn snap(&self, w: &mut SnapWriter, engine: Engine) {
        w.u64(self.cores as u64);
        w.u32(LOCAL_BANK_BYTES);
        w.u32(self.shared_bank_bytes);
        for size in [PHYS_REGS, WINDOW, WINDOW, RESULT_SLOTS] {
            w.u64(size as u64);
        }
        for latency in [ALU_LATENCY, self.mul_latency, DIV_LATENCY, 1, 1] {
            w.u32(latency);
        }
        w.bool(engine == Engine::Functional);
        w.u64(self.sample_interval);
        // Faults serialize as their (round-tripping) spec strings.
        w.seq(self.faults.faults.len());
        for f in &self.faults.faults {
            w.str(&f.to_string());
        }
    }

    /// Reads the configuration section, refusing a fixed word that holds
    /// anything but its one value: a machine this simulator cannot build.
    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<LbpConfig, SnapError> {
        let cores = r.u64()? as usize;
        if cores == 0 {
            return Err(SnapError::Corrupt(
                "configuration has zero cores".to_owned(),
            ));
        }
        let check = |field, got, want| fixed(format_args!("configuration: {field}"), got, want);
        check("local_bank_bytes", r.u32()?.into(), LOCAL_BANK_BYTES.into())?;
        let shared_bank_bytes = r.u32()?;
        for (field, want) in [
            ("phys_regs", PHYS_REGS),
            ("rob_entries", WINDOW),
            ("it_entries", WINDOW),
            ("result_slots", RESULT_SLOTS),
        ] {
            check(field, r.u64()?, want as u64)?;
        }
        check("latencies.alu", r.u32()?.into(), ALU_LATENCY.into())?;
        let mul_latency = r.u32()?;
        check("latencies.div", r.u32()?.into(), DIV_LATENCY.into())?;
        check("reserved latency word `link_hop`", r.u32()?.into(), 1)?;
        check("reserved latency word `bank`", r.u32()?.into(), 1)?;
        r.bool()?; // the engine byte, which `MachineState` holds
        let sample_interval = r.u64()?;
        let mut faults = FaultPlan::none();
        for _ in 0..r.seq()? {
            let spec = r.str()?;
            faults.push(Fault::parse(&spec).map_err(SnapError::Corrupt)?);
        }
        Ok(LbpConfig {
            cores,
            shared_bank_bytes,
            mul_latency,
            sample_interval,
            faults,
        })
    }
}

/// Refuses `got` where the format keeps a value every machine shares,
/// naming the field.
pub(crate) fn fixed(field: impl Display, got: u64, want: u64) -> Result<(), SnapError> {
    if got == want {
        Ok(())
    } else {
        Err(SnapError::Corrupt(format!(
            "{field} = {got}, but every machine has {want}"
        )))
    }
}

/// Bytes reserved at the top of each hart stack for the continuation-value
/// frame written by `p_swcv` and read by `p_lwcv` (16 word slots).
pub const CV_FRAME_BYTES: u32 = 64;

/// The fixed continuation-value frame base address of a hart: the top
/// [`CV_FRAME_BYTES`] of its stack within its core's local bank, which is
/// also where its `sp` starts.
pub(crate) fn cv_base(hart: HartId) -> u32 {
    let stack = LOCAL_BANK_BYTES / HARTS_PER_CORE as u32;
    LOCAL_BASE + (hart.local() + 1) * stack - CV_FRAME_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = LbpConfig::cores(64);
        assert_eq!(cfg.harts(), 256);
        assert_eq!(cfg.shared_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = LbpConfig::cores(0);
    }

    /// `MachineState` finds the engine byte at `FIXED_WORDS_BYTES`: the
    /// two lineages' sections differ there and nowhere else.
    #[test]
    fn the_engine_byte_follows_the_fixed_words() {
        let section = |engine| {
            let mut w = SnapWriter::new();
            LbpConfig::cores(4).with_interval(500).snap(&mut w, engine);
            w.into_bytes()
        };
        let (cold, warm) = (section(Engine::CycleExact), section(Engine::Functional));
        let differ: Vec<usize> = (0..cold.len()).filter(|&i| cold[i] != warm[i]).collect();
        assert_eq!(differ, [FIXED_WORDS_BYTES]);
        assert_eq!((cold[FIXED_WORDS_BYTES], warm[FIXED_WORDS_BYTES]), (0, 1));
    }
}
