//! A Xeon-Phi-2-class comparator model
//!
//! The paper's Fig. 21 compares the 64-core LBP against a Xeon Phi 2
//! (Knights Landing) running the tiled matmul under PAPI, reporting for
//! the Phi: **391 K cycles**, **32 M retired instructions** and
//! **IPC 81.86** (1.28 per core over 64 cores, 21 % of its 6-IPC peak).
//!
//! We do not have that machine; this module substitutes an analytic model
//! of the same class of processor: wide out-of-order SMT cores with
//! 512-bit vector units and a cached memory hierarchy. The model has two
//! parts:
//!
//! 1. an **instruction model**: the scalar instruction stream of the
//!    tiled kernel (the same `7·h³/2`-dominated count LBP retires), of
//!    which a calibrated fraction vectorizes across the 16 int32 lanes —
//!    the remainder (loop control, addressing, runtime overhead,
//!    remainder loops) stays scalar;
//! 2. a **throughput model**: a roofline over the peak issue width
//!    (2 int + 2 mem + 2 vector = 6 per cycle) degraded by a calibrated
//!    utilization, against the cached-memory bandwidth ceiling.
//!
//! With the default calibration ([`PhiModel::paper_calibrated`]) the
//! model reproduces the paper's three reported numbers at `h = 256`;
//! the interesting output is how the *shape* extrapolates across sizes
//! next to the LBP simulator's measurements.

pub mod energy;

pub use energy::{Activity, LbpEnergyModel, PhiEnergyModel};

/// An estimate produced by the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Retired instructions (hardware-thread instructions, as PAPI
    /// counts them).
    pub instructions: f64,
    /// Execution cycles.
    pub cycles: f64,
}

impl Estimate {
    /// Whole-chip IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions / self.cycles
        }
    }
}

/// A Knights-Landing-class chip model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiModel {
    /// Active cores (the paper pins 256 threads on 64 cores).
    pub cores: usize,
    /// SMT hardware threads per core.
    pub smt: usize,
    /// 32-bit lanes per vector operation (AVX-512: 16).
    pub vector_lanes: usize,
    /// Peak issue width per core per cycle (2 int + 2 mem + 2 vector).
    pub peak_issue: f64,
    /// Fraction of the scalar work the compiler vectorizes; the rest
    /// (control, addressing, runtime, remainders) retires scalar.
    pub vector_fraction: f64,
    /// Sustained IPC per core (the paper measures 1.28 = 21 % of peak).
    pub sustained_ipc_per_core: f64,
    /// Sustained memory bandwidth in bytes/cycle for streaming misses
    /// (MCDRAM flat mode; only binds when a working set spills caches).
    pub mem_bytes_per_cycle: f64,
    /// Per-core cache capacity in bytes (1 MiB L2 per tile, halved per
    /// core on KNL).
    pub cache_bytes_per_core: f64,
}

impl PhiModel {
    /// The calibration that reproduces the paper's measured point
    /// (32 M instructions, 391 K cycles, IPC ≈ 81.9 at `h = 256`).
    pub fn paper_calibrated() -> PhiModel {
        PhiModel {
            cores: 64,
            smt: 4,
            vector_lanes: 16,
            peak_issue: 6.0,
            // Solves 65.8e6 * ((1-f) + f/16) = 32e6  =>  f ≈ 0.548
            // (65.8e6 = the h=256 tiled scalar stream incl. overhead).
            vector_fraction: 0.548,
            sustained_ipc_per_core: 1.28,
            mem_bytes_per_cycle: 256.0,
            cache_bytes_per_core: 512.0 * 1024.0,
        }
    }

    /// The scalar-equivalent dynamic instruction count of the tiled
    /// matmul at hart-count-equivalent size `h` (`X: h × h/2`,
    /// `Y: h/2 × h`): the seven-instruction MAC loop plus ~12 % staging
    /// and loop-control overhead, matching what the LBP kernel retires.
    pub fn tiled_scalar_instructions(&self, h: usize) -> f64 {
        let macs = (h as f64).powi(3) / 2.0;
        7.0 * macs * 1.12
    }

    /// Estimates the tiled matmul of size `h`.
    pub fn estimate_tiled_matmul(&self, h: usize) -> Estimate {
        let scalar = self.tiled_scalar_instructions(h);
        let f = self.vector_fraction;
        let instructions = scalar * ((1.0 - f) + f / self.vector_lanes as f64);
        // Compute-bound cycles at the sustained issue rate.
        let compute = instructions / (self.cores as f64 * self.sustained_ipc_per_core);
        // Memory-bound cycles: traffic beyond cache (tiles are reused in
        // cache, so only the compulsory footprint streams in/out).
        let footprint = 8.0 * (h as f64) * (h as f64) * 4.0 / 8.0; // X+Y+Z bytes
        let per_core_set = footprint / self.cores as f64;
        let spill = if per_core_set > self.cache_bytes_per_core {
            footprint * 2.0
        } else {
            footprint
        };
        let memory = spill / self.mem_bytes_per_cycle;
        Estimate {
            instructions,
            cycles: compute.max(memory),
        }
    }

    /// Whole-chip peak IPC.
    pub fn peak_ipc(&self) -> f64 {
        self.cores as f64 * self.peak_issue
    }
}

impl Default for PhiModel {
    fn default() -> PhiModel {
        PhiModel::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_measured_point() {
        let m = PhiModel::paper_calibrated();
        let e = m.estimate_tiled_matmul(256);
        // Paper: 32 M instructions, 391 K cycles, IPC 81.86.
        assert!(
            (e.instructions - 32.0e6).abs() / 32.0e6 < 0.05,
            "instructions {}",
            e.instructions
        );
        assert!(
            (e.cycles - 391.0e3).abs() / 391.0e3 < 0.05,
            "cycles {}",
            e.cycles
        );
        assert!((e.ipc() - 81.86).abs() / 81.86 < 0.05, "ipc {}", e.ipc());
    }

    #[test]
    fn utilization_is_a_fifth_of_peak() {
        let m = PhiModel::paper_calibrated();
        let e = m.estimate_tiled_matmul(256);
        let util = e.ipc() / m.peak_ipc();
        assert!((0.18..0.25).contains(&util), "utilization {util}");
    }

    #[test]
    fn scales_cubically_with_h() {
        let m = PhiModel::paper_calibrated();
        let small = m.estimate_tiled_matmul(64);
        let big = m.estimate_tiled_matmul(256);
        let ratio = big.instructions / small.instructions;
        assert!((ratio - 64.0).abs() < 1.0, "4^3 = 64, got {ratio}");
    }

    #[test]
    fn vectorization_shrinks_instructions() {
        let m = PhiModel::paper_calibrated();
        let e = m.estimate_tiled_matmul(256);
        let scalar = m.tiled_scalar_instructions(256);
        let shrink = scalar / e.instructions;
        // The paper observes LBP retiring 2.28x more than the Phi.
        assert!((1.8..2.8).contains(&shrink), "shrink factor {shrink}");
    }
}
