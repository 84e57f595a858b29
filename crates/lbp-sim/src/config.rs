//! Machine configuration.

use lbp_isa::{HartId, HARTS_PER_CORE, LOCAL_BASE};

use crate::fault::{Fault, FaultPlan};
use crate::snapshot::{SnapError, SnapReader, SnapWriter};

/// Functional-unit latencies, in cycles.
///
/// The defaults model the FPGA implementation the paper reports on: a
/// single-cycle ALU, a short pipelined multiplier and an iterative
/// divider. Link hops and bank service take one cycle each by
/// construction of the interconnect model; they are not knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// ALU operations (result available the next cycle).
    pub alu: u32,
    /// RV32M multiplications.
    pub mul: u32,
    /// RV32M divisions/remainders.
    pub div: u32,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            alu: 1,
            mul: 3,
            div: 12,
        }
    }
}

/// Full configuration of an LBP machine instance.
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
    /// Bytes of local (stack) bank per core; divided evenly among the
    /// core's four harts.
    pub local_bank_bytes: u32,
    /// Bytes of shared bank per core; the global shared space is the
    /// concatenation of all shared banks.
    pub shared_bank_bytes: u32,
    /// Renaming (physical) registers per hart, 34 to 64: the 32
    /// architectural registers, at least two to rename into, and no more
    /// than the one word of ready flags has bits. Outside that range the
    /// machine refuses to be built ([`SimError::Protocol`](crate::SimError)).
    pub phys_regs: usize,
    /// Reorder-buffer entries per hart, at most 64 (one word of flags over
    /// the instructions in flight; more is refused like `phys_regs`). With
    /// 0, as with 0 `it_entries`, nothing renames and the run deadlocks.
    pub rob_entries: usize,
    /// Instruction-table (waiting-station) entries per hart.
    pub it_entries: usize,
    /// `p_swre`/`p_lwre` result-buffer slots per hart.
    pub result_slots: usize,
    /// Functional-unit latencies.
    pub latencies: Latencies,
    /// Record a full event trace (costly; for determinism checks and
    /// debugging).
    pub trace: bool,
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
            local_bank_bytes: 64 * 1024,
            shared_bank_bytes: 64 * 1024,
            phys_regs: 64,
            rob_entries: 32,
            it_entries: 32,
            result_slots: 8,
            latencies: Latencies::default(),
            trace: false,
            sample_interval: 0,
            faults: FaultPlan::none(),
        }
    }

    /// Total hart count (`4 * cores`).
    pub fn harts(&self) -> usize {
        self.cores * HARTS_PER_CORE
    }

    /// Stack bytes available to each hart.
    pub fn stack_bytes(&self) -> u32 {
        self.local_bank_bytes / HARTS_PER_CORE as u32
    }

    /// The fixed continuation-value frame base address of a hart: the
    /// top [`CV_FRAME_BYTES`] of its stack within its core's local bank,
    /// which is also where its `sp` starts.
    pub fn cv_base(&self, hart: HartId) -> u32 {
        cv_base_in(self.local_bank_bytes, hart)
    }

    /// Total bytes of the global shared space.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_bank_bytes as u64 * self.cores as u64
    }

    /// Whether a hart's pipeline can hold this configuration; if not, the
    /// field that is out of range and the range.
    pub(crate) fn check_pipeline(&self) -> Result<(), String> {
        if !(34..=64).contains(&self.phys_regs) {
            return Err(format!("phys_regs = {} is outside 34..=64", self.phys_regs));
        }
        if self.rob_entries > 64 {
            return Err(format!(
                "rob_entries = {} is outside 0..=64",
                self.rob_entries
            ));
        }
        Ok(())
    }

    /// Enables event tracing.
    pub fn with_trace(mut self) -> LbpConfig {
        self.trace = true;
        self
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
}

impl Latencies {
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u32(self.alu);
        w.u32(self.mul);
        w.u32(self.div);
        // Two reserved words of the format (once a `link_hop` and a
        // `bank` latency that nothing read): always 1, which keeps every
        // snapshot byte and content hash what older containers hold.
        w.u32(1);
        w.u32(1);
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<Latencies, SnapError> {
        let lat = Latencies {
            alu: r.u32()?,
            mul: r.u32()?,
            div: r.u32()?,
        };
        for reserved in ["link_hop", "bank"] {
            let value = r.u32()?;
            if value != 1 {
                return Err(SnapError::Corrupt(format!(
                    "reserved latency word `{reserved}` is {value}, not 1"
                )));
            }
        }
        Ok(lat)
    }
}

impl LbpConfig {
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.cores as u64);
        w.u32(self.local_bank_bytes);
        w.u32(self.shared_bank_bytes);
        w.u64(self.phys_regs as u64);
        w.u64(self.rob_entries as u64);
        w.u64(self.it_entries as u64);
        w.u64(self.result_slots as u64);
        self.latencies.snap(w);
        w.bool(self.trace);
        w.u64(self.sample_interval);
        // Faults serialize as their (round-tripping) spec strings.
        w.seq(self.faults.faults.len());
        for f in &self.faults.faults {
            w.str(&f.to_string());
        }
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<LbpConfig, SnapError> {
        let cores = r.u64()? as usize;
        if cores == 0 {
            return Err(SnapError::Corrupt(
                "configuration has zero cores".to_owned(),
            ));
        }
        let local_bank_bytes = r.u32()?;
        let shared_bank_bytes = r.u32()?;
        let phys_regs = r.u64()? as usize;
        let rob_entries = r.u64()? as usize;
        let it_entries = r.u64()? as usize;
        let result_slots = r.u64()? as usize;
        let latencies = Latencies::unsnap(r)?;
        let trace = r.bool()?;
        let sample_interval = r.u64()?;
        let mut faults = FaultPlan::none();
        for _ in 0..r.seq()? {
            let spec = r.str()?;
            faults.push(Fault::parse(&spec).map_err(SnapError::Corrupt)?);
        }
        let cfg = LbpConfig {
            cores,
            local_bank_bytes,
            shared_bank_bytes,
            phys_regs,
            rob_entries,
            it_entries,
            result_slots,
            latencies,
            trace,
            sample_interval,
            faults,
        };
        match cfg.check_pipeline() {
            Ok(()) => Ok(cfg),
            Err(why) => Err(SnapError::Corrupt(format!("configuration: {why}"))),
        }
    }
}

/// Bytes reserved at the top of each hart stack for the continuation-value
/// frame written by `p_swcv` and read by `p_lwcv` (16 word slots).
pub const CV_FRAME_BYTES: u32 = 64;

/// [`LbpConfig::cv_base`] for a holder of the bank size alone (the memory
/// system is rebuilt from snapshots without a configuration).
pub(crate) fn cv_base_in(local_bank_bytes: u32, hart: HartId) -> u32 {
    let stack = local_bank_bytes / HARTS_PER_CORE as u32;
    LOCAL_BASE + (hart.local() + 1) * stack - CV_FRAME_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = LbpConfig::cores(64);
        assert_eq!(cfg.harts(), 256);
        assert_eq!(cfg.stack_bytes(), 16 * 1024);
        assert_eq!(cfg.shared_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = LbpConfig::cores(0);
    }
}
