//! Acceptance check for the profiler: a *profiled* Figure-19 matmul run
//! must land on exactly the cycle count of the unprofiled run that
//! `tests/golden_reference.rs` pins (profiling is observationally free),
//! and the per-function hot-spot attribution must reconcile with the
//! run's stats — function cycles plus unattributed stalls partition the
//! full `cycles x cores` budget, function retired counts sum to the
//! retired total.

use lbp::figures::measure;
use lbp::kernels::matmul::{Matmul, Version};
use lbp::prof::{function_rows, SymTab};

#[test]
fn profiled_figure19_reconciles_with_the_reference() {
    for version in [Version::Base, Version::Tiled] {
        let mm = Matmul::new(16, version);
        let image = mm.build();
        let mut m = mm.machine().expect("machine builds");
        m.enable_profiling();
        let report = m.run(1_000_000_000).expect("run completes");
        assert!(mm.verify(&mut m).expect("peek"), "wrong result");

        let (unprofiled, _) = measure(16, version);
        assert_eq!(
            report.stats.cycles,
            unprofiled.cycles,
            "{}: profiled cycle count diverges from the unprofiled run",
            version.name()
        );

        // Reconciliation: the hot-spot table is a *partition* of the
        // machine's time, not an estimate of it.
        let prof = m.profile().expect("profiling enabled");
        let sym = SymTab::from_image(&image);
        let rows = function_rows(prof, &sym);
        assert!(!rows.is_empty(), "matmul has attributable functions");
        let func_cycles: u64 = rows.iter().map(|r| r.cycles()).sum();
        let unattributed: u64 = (0..prof.cores())
            .map(|c| prof.unattributed(c).total())
            .sum();
        assert_eq!(
            func_cycles + unattributed,
            report.stats.cycles * prof.cores() as u64,
            "{}: function cycles + unattributed != cycles x cores",
            version.name()
        );
        let func_retired: u64 = rows.iter().map(|r| r.retired).sum();
        assert_eq!(
            func_retired,
            report.stats.retired(),
            "{}: function retired counts do not sum to the stats total",
            version.name()
        );
    }
}
