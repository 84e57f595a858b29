//! # lbp-bench — the evaluation harness
//!
//! Regenerates every quantitative artifact of the paper's §7 evaluation:
//!
//! - **Fig. 19**: cycles / IPC / retired instructions for the five matmul
//!   versions on a 4-core LBP (`h = 16`);
//! - **Fig. 20**: the same on a 16-core LBP (`h = 64`);
//! - **Fig. 21**: the same on a 64-core LBP (`h = 256`), plus the
//!   Xeon-Phi-2-class baseline estimate for the tiled version;
//! - the behavioural claims: **C1** cycle determinism, **C2** low
//!   parallelization overhead, **C3** interconnect sustains the demand.
//!
//! Because LBP is cycle-deterministic, *one* simulated run is an exact,
//! complete measurement — there is no run-to-run variance to average
//! away, which is precisely the paper's point. So this crate holds guest
//! numbers only: the `figures` binary prints them
//! (`cargo run -p lbp-bench --release --bin figures -- all`),
//! `results_reference.txt` records them and `tests/golden_reference.rs`
//! pins them. How fast the *host* simulates is a noisy number and is
//! measured, with medians and bounds, by the ledger in `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use lbp_baseline::PhiModel;
use lbp_kernels::matmul::{Matmul, Version};
use lbp_sim::{LbpConfig, Machine, Stats};

/// One measured row of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The matmul version (or baseline) name.
    pub name: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Whole-machine IPC.
    pub ipc: f64,
    /// Retired instructions.
    pub retired: u64,
    /// Fraction of memory accesses served locally.
    pub locality: f64,
}

/// A reproduced figure: the machine size and one row per version.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper figure number (19, 20 or 21).
    pub number: u32,
    /// Hart count `h` (team size and matrix dimension).
    pub harts: usize,
    /// The measured rows, in the paper's version order.
    pub rows: Vec<Row>,
}

impl Row {
    fn of(name: String, stats: &Stats) -> Row {
        Row {
            name,
            cycles: stats.cycles,
            ipc: stats.ipc(),
            retired: stats.retired(),
            locality: stats.locality(),
        }
    }
}

/// Runs `mm` to completion on `cfg` and checks the result matrix.
fn run_matmul(mm: &Matmul, cfg: LbpConfig, name: String) -> (Row, lbp_sim::RunReport) {
    let mut m = mm.machine_with(cfg).expect("machine builds");
    let report = m
        .run(1_000_000_000)
        .unwrap_or_else(|e| panic!("{name} h={}: {e}", mm.harts));
    assert!(
        mm.verify(&mut m).expect("verification reads"),
        "{name} h={}: wrong result",
        mm.harts
    );
    (Row::of(name, &report.stats), report)
}

/// Runs one matmul version to completion and returns its row plus the
/// full run report, for callers that also want the machine-readable
/// stats (schema `lbp-stats-v1`).
///
/// # Panics
///
/// Panics if the simulation faults or the result matrix is wrong —
/// a figure must never be produced from an incorrect run.
pub fn measure_with_report(harts: usize, version: Version) -> (Row, lbp_sim::RunReport) {
    let mm = Matmul::new(harts, version);
    run_matmul(&mm, mm.config(), version.name().to_owned())
}

/// Runs one matmul version to completion and returns its row.
///
/// # Panics
///
/// Panics if the simulation faults or the result matrix is wrong —
/// a figure must never be produced from an incorrect run.
pub fn measure(harts: usize, version: Version) -> Row {
    measure_with_report(harts, version).0
}

/// Wraps a run report as the per-benchmark stats JSON: the
/// `lbp-stats-v1` report with `benchmark` and `harts` fields inserted
/// after the schema tag, so every benchmark emits the same shape.
pub fn benchmark_json(name: &str, harts: usize, report: &lbp_sim::RunReport) -> lbp_sim::Json {
    use lbp_sim::Json;
    let mut json = report.to_json();
    if let Json::Obj(fields) = &mut json {
        fields.insert(1, ("benchmark".to_owned(), Json::Str(name.to_owned())));
        fields.insert(2, ("harts".to_owned(), Json::U64(harts as u64)));
    }
    json
}

/// Reproduces one of the paper's figures (19 → `h=16`, 20 → `h=64`,
/// 21 → `h=256` plus the Phi baseline row).
///
/// # Panics
///
/// Panics on an unknown figure number or a failing run.
pub fn reproduce_figure(number: u32) -> Figure {
    reproduce_figure_with_reports(number).0
}

/// Like [`reproduce_figure`], but also returns the run report of every
/// simulated version (the Phi model row has no simulated report), named
/// `fig<N>_<version>`, for per-benchmark stats JSON emission.
///
/// # Panics
///
/// Panics on an unknown figure number or a failing run.
pub fn reproduce_figure_with_reports(number: u32) -> (Figure, Vec<(String, lbp_sim::RunReport)>) {
    let harts = match number {
        19 => 16,
        20 => 64,
        21 => 256,
        other => panic!("the paper's evaluation figures are 19, 20 and 21, not {other}"),
    };
    let mut reports = Vec::new();
    let mut rows: Vec<Row> = Version::ALL
        .iter()
        .map(|&v| {
            let (row, report) = measure_with_report(harts, v);
            reports.push((format!("fig{number}_{}", row.name), report));
            row
        })
        .collect();
    if number == 21 {
        let phi = PhiModel::paper_calibrated();
        let e = phi.estimate_tiled_matmul(harts);
        rows.push(Row {
            name: "xeon-phi2 tiled (model)".to_owned(),
            cycles: e.cycles as u64,
            ipc: e.ipc(),
            retired: e.instructions as u64,
            locality: f64::NAN,
        });
    }
    let figure = Figure {
        number,
        harts,
        rows,
    };
    (figure, reports)
}

/// Appends `rows` as an aligned text table under a header line whose
/// first column is `first`.
fn write_rows(s: &mut String, first: &str, rows: &[Row]) {
    let _ = writeln!(
        s,
        "{first:<24} {:>12} {:>8} {:>12} {:>9}",
        "cycles", "IPC", "retired", "locality"
    );
    for r in rows {
        let loc = if r.locality.is_nan() {
            "-".to_owned()
        } else {
            format!("{:.2}", r.locality)
        };
        let _ = writeln!(
            s,
            "{:<24} {:>12} {:>8.2} {:>12} {:>9}",
            r.name, r.cycles, r.ipc, r.retired, loc
        );
    }
}

impl Figure {
    /// Renders the figure as an aligned text table (the three histograms
    /// of the paper, as columns).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure {} — matrix multiplication, {} harts ({} cores), peak IPC {}",
            self.number,
            self.harts,
            self.harts / 4,
            self.harts / 4,
        );
        write_rows(&mut s, "version", &self.rows);
        s
    }

    /// Renders the figure as CSV (`figure,version,cycles,ipc,retired,locality`).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "figure,version,cycles,ipc,retired,locality
",
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{},{},{},{:.4},{},{:.4}",
                self.number, r.name, r.cycles, r.ipc, r.retired, r.locality
            );
        }
        s
    }

    /// The row of a version.
    pub fn row(&self, name: &str) -> &Row {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no row named {name}"))
    }

    /// Checks the paper's qualitative claims for this figure, returning
    /// human-readable pass/fail lines.
    pub fn check_shapes(&self) -> Vec<(String, bool)> {
        let mut checks = Vec::new();
        let base = self.row("base");
        let copy = self.row("copy");
        let dist = self.row("distributed");
        let tiled = self.row("tiled");
        match self.number {
            19 => {
                checks.push((
                    format!(
                        "base is about twice as fast as tiled ({} vs {} cycles)",
                        base.cycles, tiled.cycles
                    ),
                    tiled.cycles > base.cycles * 3 / 2,
                ));
                checks.push((
                    format!("tiled has the best IPC ({:.2})", tiled.ipc),
                    self.rows[..5].iter().all(|r| r.ipc <= tiled.ipc),
                ));
            }
            20 => {
                checks.push((
                    format!(
                        "copy is >= 10% faster than base ({} vs {} cycles)",
                        copy.cycles, base.cycles
                    ),
                    (copy.cycles as f64) < 0.9 * base.cycles as f64,
                ));
                checks.push((
                    format!(
                        "copying is a modest instruction overhead ({} vs {})",
                        copy.retired, base.retired
                    ),
                    copy.retired < base.retired * 105 / 100,
                ));
            }
            21 => {
                checks.push((
                    format!(
                        "tiled beats distributed by ~2x ({} vs {} cycles)",
                        tiled.cycles, dist.cycles
                    ),
                    dist.cycles > tiled.cycles * 3 / 2,
                ));
                checks.push((
                    format!(
                        "tiled beats base by >= 4x ({} vs {} cycles)",
                        tiled.cycles, base.cycles
                    ),
                    base.cycles >= tiled.cycles * 4,
                ));
                checks.push((
                    format!(
                        "tiled sustains >= 85% of the 64-IPC peak ({:.1})",
                        tiled.ipc
                    ),
                    tiled.ipc >= 0.85 * 64.0,
                ));
                checks.push((
                    format!(
                        "tiling costs extra instructions over base ({} vs {})",
                        tiled.retired, base.retired
                    ),
                    tiled.retired > base.retired,
                ));
                let phi = self.row("xeon-phi2 tiled (model)");
                checks.push((
                    format!(
                        "the Phi model runs ~2.3x fewer instructions ({} vs {})",
                        phi.retired, tiled.retired
                    ),
                    tiled.retired as f64 / phi.retired as f64 > 1.8,
                ));
                checks.push((
                    format!(
                        "the Phi model is ~3x faster in cycles ({} vs {})",
                        phi.cycles, tiled.cycles
                    ),
                    (2.0..6.0).contains(&(tiled.cycles as f64 / phi.cycles as f64)),
                ));
            }
            _ => {}
        }
        checks
    }
}

/// Runs `regions` consecutive parallel regions of a team of `threads`
/// members doing no work.
fn empty_regions(name: String, threads: usize, regions: usize) -> Row {
    let mut p = lbp_omp::DetOmp::new(threads).function("empty", "p_ret");
    for _ in 0..regions {
        p = p.parallel_for("empty");
    }
    let image = p.build().expect("program assembles");
    let cores = threads.div_ceil(4);
    let mut m = Machine::new(LbpConfig::cores(cores), &image).expect("machine");
    let report = m.run(10_000_000).expect("run");
    Row::of(name, &report.stats)
}

/// Measures claim **C2**: the cycle and instruction overhead of creating,
/// distributing and joining a team of `threads` members doing no work.
pub fn fork_join_overhead(threads: usize) -> Row {
    empty_regions(format!("fork-join x{threads}"), threads, 1)
}

/// The two ablations, one row per variant:
///
/// - **multiplier latency** 1 / 3 / 8 on the Fig. 19 base matmul: the
///   cacheless core hides functional-unit latency behind its other harts
///   (paper §5.2), so cycles must grow far less than the latency does;
/// - **consecutive regions** 1 / 4 / 16 of an empty 16-member team: the
///   hardware barrier between regions adds nothing, so a re-spawn costs
///   what the first spawn did, never more.
///
/// Latency 3 is the default, so that row is Fig. 19's `base`, and one
/// region is `fork-join x16` of claim C2.
pub fn ablation() -> Vec<Row> {
    let mm = Matmul::new(16, Version::Base);
    let mul = [1, 3, 8].map(|lat| {
        let mut cfg = mm.config();
        cfg.mul_latency = lat;
        run_matmul(&mm, cfg, format!("mul latency {lat}")).0
    });
    let regions = [1, 4, 16].map(|n| empty_regions(format!("regions x{n}"), 16, n));
    mul.into_iter().chain(regions).collect()
}

/// Renders [`ablation`]'s rows as the table `figures ablation` prints.
pub fn ablation_table(rows: &[Row]) -> String {
    let mut s = String::from(
        "Ablation — multiplier latency (Fig. 19 base matmul); consecutive regions (empty 16-member team)\n",
    );
    write_rows(&mut s, "variant", rows);
    s
}

/// Checks the two claims [`ablation`] measures, like
/// [`Figure::check_shapes`].
///
/// # Panics
///
/// Panics if `rows` are not the six rows of [`ablation`].
pub fn ablation_checks(rows: &[Row]) -> Vec<(String, bool)> {
    let [fast, _, slow, one, _, many] = rows else {
        panic!("the six rows of `ablation`, not {}", rows.len());
    };
    vec![
        (
            format!(
                "an 8x slower multiplier costs < 5% ({} vs {} cycles)",
                slow.cycles, fast.cycles
            ),
            slow.cycles * 100 < fast.cycles * 105,
        ),
        (
            format!(
                "16 regions cost at most 16x one ({} vs {} cycles)",
                many.cycles, one.cycles
            ),
            many.cycles <= 16 * one.cycles,
        ),
    ]
}

/// Compares the energy proxies of LBP and the Phi-class comparator on
/// the tiled matmul at size `harts` (paper §7's closing low-power
/// argument). Returns `(lbp_joules, phi_joules)` and the LBP activity the
/// estimate was computed from.
pub fn energy_comparison(harts: usize) -> (f64, f64, lbp_baseline::Activity) {
    use lbp_baseline::{LbpEnergyModel, PhiEnergyModel};
    let mm = Matmul::new(harts, Version::Tiled);
    let mut m = mm.machine().expect("machine");
    let report = m.run(1_000_000_000).expect("run");
    assert!(mm.verify(&mut m).expect("peek"));
    let s = &report.stats;
    let activity = lbp_baseline::Activity {
        cycles: s.cycles,
        retired: s.retired(),
        muldiv_ops: s.muldiv_ops,
        mem_ops: s.mem_ops(),
        link_hops: s.link_hops,
        cores: mm.cores(),
    };
    let lbp_j = LbpEnergyModel::embedded_default().estimate_joules(&activity);
    let phi_e = PhiModel::paper_calibrated().estimate_tiled_matmul(harts);
    let phi_j = PhiEnergyModel::knl_7210().estimate_joules(&phi_e);
    (lbp_j, phi_j, activity)
}

/// Measures the multithreading ablation (paper §5.2: "at least two full
/// harts are necessary to fill the pipeline"; with four active harts the
/// core approaches its 1-IPC peak): runs `members` harts of pure ALU
/// work on a single core and reports the achieved core IPC.
pub fn single_core_ipc(members: usize) -> f64 {
    use lbp_omp::DetOmp;
    assert!((1..=4).contains(&members));
    let p = DetOmp::new(members)
        .function(
            "spin",
            "li   a2, 2000
             li   a3, 0
spin_loop:
             addi a3, a3, 1
             xori a3, a3, 5
             addi a2, a2, -1
             bnez a2, spin_loop
             p_ret",
        )
        .parallel_for("spin");
    let image = p.build().expect("assembles");
    let mut m = Machine::new(LbpConfig::cores(1), &image).expect("machine");
    let report = m.run(10_000_000).expect("runs");
    report.stats.ipc()
}

/// Measures claim **C1**: runs the given figure's tiled version twice
/// with tracing and reports whether the traces are bit-identical.
pub fn determinism_check(harts: usize) -> bool {
    let mm = Matmul::new(harts, Version::Tiled);
    let run = || {
        let mut m = mm.machine_with(mm.config().with_trace()).expect("machine");
        m.run(1_000_000_000).expect("run");
        (m.stats().cycles, m.stats().retired(), m.trace().clone())
    };
    run() == run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_19_shapes_hold() {
        let fig = reproduce_figure(19);
        for (what, ok) in fig.check_shapes() {
            assert!(ok, "claim failed: {what}");
        }
    }

    #[test]
    fn fork_join_overhead_is_small() {
        let row = fork_join_overhead(16);
        assert!(row.retired < 1600, "overhead {} too high", row.retired);
        assert!(row.cycles < 4000, "cycles {} too high", row.cycles);
    }

    #[test]
    fn determinism_holds_at_small_size() {
        assert!(determinism_check(16));
    }

    #[test]
    fn energy_proxy_favors_lbp() {
        let (lbp_j, phi_j, activity) = energy_comparison(16);
        assert!(lbp_j > 0.0 && phi_j > 0.0);
        assert!(
            phi_j / lbp_j > 2.0,
            "LBP should be the efficient one: {lbp_j} vs {phi_j} J"
        );
        assert!(activity.retired > 0);
    }

    #[test]
    fn multithreading_fills_the_pipeline() {
        // Paper §5.2: one hart cannot fill the pipeline (every fetch
        // suspends); four harts approach the 1-IPC peak.
        let one = single_core_ipc(1);
        let two = single_core_ipc(2);
        let four = single_core_ipc(4);
        assert!(one < 0.6, "one hart should starve the pipeline: {one}");
        assert!(two > one, "two harts must beat one: {two} vs {one}");
        assert!(four > 0.85, "four harts should approach peak: {four}");
    }

    #[test]
    #[should_panic(expected = "figures are 19, 20 and 21")]
    fn unknown_figure_rejected() {
        let _ = reproduce_figure(7);
    }
}
