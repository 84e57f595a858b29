//! Energy proxies backing the paper's closing claim: "LBP is aiming
//! embedded applications and should keep low-power and energy efficient,
//! which the Xeon Phi2 is not" (§7).
//!
//! Neither machine is physical here, so these are *proxies*, clearly
//! parameterized and documented:
//!
//! - for **LBP**, an activity-based model: per-event energies (front-end,
//!   ALU, multiply/divide, bank access, link hop) scaled at a
//!   28-nm-embedded-class operating point, plus a per-core static/clock
//!   power. All event counts come from the simulator's exact statistics.
//! - for the **Phi**, the published TDP applied over the modelled cycle
//!   count at the nominal clock (KNL 7210: 215 W, 1.3 GHz) — generous to
//!   the Phi, since real packages rarely sit at TDP.
//!
//! The interesting output is the *ratio*: the shape of the efficiency
//! argument, not absolute joules.

use super::Estimate;

/// Per-event energies (picojoules) and static power for an LBP-class
/// embedded manycore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbpEnergyModel {
    /// Fetch + decode + rename + commit per retired instruction.
    pub pj_front_end: f64,
    /// ALU execution per instruction.
    pub pj_alu: f64,
    /// Extra energy of a multiply/divide.
    pub pj_muldiv_extra: f64,
    /// One bank access (either port).
    pub pj_bank_access: f64,
    /// One link/router hop.
    pub pj_link_hop: f64,
    /// Static + clock power per core, in watts.
    pub static_w_per_core: f64,
    /// Operating frequency, hertz.
    pub clock_hz: f64,
}

impl LbpEnergyModel {
    /// A 28-nm-class embedded operating point (per-event energies in the
    /// range published for simple in-order/lightly-OoO RISC cores).
    pub fn embedded_default() -> LbpEnergyModel {
        LbpEnergyModel {
            pj_front_end: 8.0,
            pj_alu: 6.0,
            pj_muldiv_extra: 20.0,
            pj_bank_access: 25.0,
            pj_link_hop: 4.0,
            static_w_per_core: 0.05,
            clock_hz: 1.0e9,
        }
    }

    /// Energy of a run, in joules, from the simulator's exact activity
    /// counts.
    pub fn estimate_joules(&self, activity: &Activity) -> f64 {
        let dynamic_pj = activity.retired as f64 * (self.pj_front_end + self.pj_alu)
            + activity.muldiv_ops as f64 * self.pj_muldiv_extra
            + activity.mem_ops as f64 * self.pj_bank_access
            + activity.link_hops as f64 * self.pj_link_hop;
        let seconds = activity.cycles as f64 / self.clock_hz;
        dynamic_pj * 1e-12 + self.static_w_per_core * activity.cores as f64 * seconds
    }
}

/// The activity counts of one LBP run (a plain-old-data mirror of the
/// simulator's `Stats`, so this module stays simulator-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activity {
    /// Machine cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Multiply/divide operations.
    pub muldiv_ops: u64,
    /// Memory accesses (local + remote).
    pub mem_ops: u64,
    /// Router/link hops.
    pub link_hops: u64,
    /// Cores powered.
    pub cores: usize,
}

/// TDP-based energy for the Phi-class comparator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiEnergyModel {
    /// Package power, watts (KNL 7210 TDP).
    pub tdp_w: f64,
    /// Nominal clock, hertz.
    pub clock_hz: f64,
}

impl PhiEnergyModel {
    /// The KNL 7210 data-sheet point.
    pub fn knl_7210() -> PhiEnergyModel {
        PhiEnergyModel {
            tdp_w: 215.0,
            clock_hz: 1.3e9,
        }
    }

    /// Energy of a modelled run, in joules.
    pub fn estimate_joules(&self, e: &Estimate) -> f64 {
        self.tdp_w * e.cycles / self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::PhiModel;

    /// The h = 256 tiled-matmul activity of the checked-in reference run.
    fn lbp_reference_activity() -> Activity {
        Activity {
            cycles: 1_427_796,
            retired: 82_256_064,
            muldiv_ops: 8_388_608, // h^3/2 multiplications
            mem_ops: 26_000_000,   // staged loads/stores, order of magnitude
            link_hops: 40_000_000,
            cores: 64,
        }
    }

    #[test]
    fn lbp_run_is_single_digit_millijoules() {
        let m = LbpEnergyModel::embedded_default();
        let j = m.estimate_joules(&lbp_reference_activity());
        assert!((1e-3..20e-3).contains(&j), "LBP energy {j} J");
    }

    #[test]
    fn phi_run_is_tens_of_millijoules() {
        let phi = PhiModel::paper_calibrated();
        let e = phi.estimate_tiled_matmul(256);
        let j = PhiEnergyModel::knl_7210().estimate_joules(&e);
        assert!((20e-3..200e-3).contains(&j), "Phi energy {j} J");
    }

    #[test]
    fn lbp_wins_the_efficiency_comparison_by_a_wide_margin() {
        // The paper's positioning: the Phi is ~3x faster but burns far
        // more than 3x the energy.
        let lbp = LbpEnergyModel::embedded_default().estimate_joules(&lbp_reference_activity());
        let phi = PhiEnergyModel::knl_7210()
            .estimate_joules(&PhiModel::paper_calibrated().estimate_tiled_matmul(256));
        let ratio = phi / lbp;
        assert!(ratio > 4.0, "efficiency ratio {ratio} too small");
    }
}
