//! The paper's evaluation, one function per section the `figures` binary
//! prints (`cargo run --release --bin figures -- all`):
//!
//! - **Fig. 19**: cycles / IPC / retired instructions for the five matmul
//!   versions on a 4-core LBP (`h = 16`);
//! - **Fig. 20**: the same on a 16-core LBP (`h = 64`);
//! - **Fig. 21**: the same on a 64-core LBP (`h = 256`), plus the
//!   Xeon-Phi-2-class baseline estimate for the tiled version;
//! - the behavioural claims: **C1** cycle determinism, **C2** low
//!   parallelization overhead, the §5.2 multithreading ablation, §7's
//!   energy argument, and the latency and re-spawn ablation.
//!
//! Because LBP is cycle-deterministic, *one* simulated run is an exact,
//! complete measurement — there is no run-to-run variance to average
//! away, which is precisely the paper's point. So each [`Section`] is a
//! pure function of the code: `results_reference.txt` is their
//! concatenation, and `tests/golden_reference.rs` compares each with its
//! block of that file as text. How fast the *host* simulates is a noisy
//! number and is measured, with medians and bounds, by the ledger in
//! `benchmark/`.

use std::fmt::Write as _;

use lbp_kernels::matmul::{Matmul, Version};
use lbp_sim::{LbpConfig, Machine, RunReport, Stats, Trace};

use crate::baseline::{Activity, LbpEnergyModel, PhiEnergyModel, PhiModel};

/// One target's block of `figures` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The text, ending in the blank line that separates sections.
    pub text: String,
    /// Whether every check the text prints held.
    pub ok: bool,
}

/// Appends one `[ok]`/`[FAIL]` line per check and the closing blank line.
fn section(mut text: String, checks: &[(String, bool)]) -> Section {
    for (what, ok) in checks {
        let _ = writeln!(text, "  [{}] {what}", if *ok { "ok" } else { "FAIL" });
    }
    text.push('\n');
    Section {
        text,
        ok: checks.iter().all(|(_, ok)| *ok),
    }
}

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

/// A reproduced figure: the machine size, one row per version and the
/// run report of every simulated one.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper figure number (19, 20 or 21).
    pub number: u32,
    /// Hart count `h` (team size and matrix dimension).
    pub harts: usize,
    /// The measured rows, in the paper's version order.
    pub rows: Vec<Row>,
    /// The run report of every simulated version, named
    /// `fig<N>_<version>` (the Phi model row has none).
    pub reports: Vec<(String, RunReport)>,
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
fn run_matmul(mm: &Matmul, cfg: LbpConfig, name: String) -> (Row, RunReport) {
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
/// full run report.
///
/// # Panics
///
/// Panics if the simulation faults or the result matrix is wrong —
/// a figure must never be produced from an incorrect run.
pub fn measure(harts: usize, version: Version) -> (Row, RunReport) {
    let mm = Matmul::new(harts, version);
    run_matmul(&mm, mm.config(), version.name().to_owned())
}

/// Reproduces one of the paper's figures (19 → `h=16`, 20 → `h=64`,
/// 21 → `h=256` plus the Phi baseline row).
///
/// # Panics
///
/// Panics on an unknown figure number or a failing run.
pub fn reproduce_figure(number: u32) -> Figure {
    let harts = match number {
        19 => 16,
        20 => 64,
        21 => 256,
        other => panic!("the paper's evaluation figures are 19, 20 and 21, not {other}"),
    };
    let (mut rows, mut reports) = (Vec::new(), Vec::new());
    for version in Version::ALL {
        let (row, report) = measure(harts, version);
        reports.push((format!("fig{number}_{}", row.name), report));
        rows.push(row);
    }
    if number == 21 {
        let e = PhiModel::paper_calibrated().estimate_tiled_matmul(harts);
        rows.push(Row {
            name: "xeon-phi2 tiled (model)".to_owned(),
            cycles: e.cycles as u64,
            ipc: e.ipc(),
            retired: e.instructions as u64,
            locality: f64::NAN,
        });
    }
    Figure {
        number,
        harts,
        rows,
        reports,
    }
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
    /// The figure as an aligned text table (the three histograms of the
    /// paper, as columns) followed by its shape checks.
    pub fn section(&self) -> Section {
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
        s.push_str("shape checks:\n");
        section(s, &self.check_shapes())
    }

    /// The run report of `version`.
    pub fn report(&self, version: Version) -> &RunReport {
        let name = format!("fig{}_{}", self.number, version.name());
        (self.reports.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, report)| report)
            .expect("every version of a figure is simulated")
    }

    /// Renders the figure as CSV (`figure,version,cycles,ipc,retired,locality`).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("figure,version,cycles,ipc,retired,locality\n");
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{},{},{},{:.4},{},{:.4}",
                self.number, r.name, r.cycles, r.ipc, r.retired, r.locality
            );
        }
        s
    }

    /// The paper's qualitative claims for this figure, as
    /// human-readable lines and whether each held.
    fn check_shapes(&self) -> Vec<(String, bool)> {
        let [base, copy, dist, _, tiled, models @ ..] = &self.rows[..] else {
            panic!("figure {} lacks a row per version", self.number);
        };
        match (self.number, models) {
            (19, _) => vec![
                (
                    format!(
                        "base is about twice as fast as tiled ({} vs {} cycles)",
                        base.cycles, tiled.cycles
                    ),
                    tiled.cycles > base.cycles * 3 / 2,
                ),
                (
                    format!("tiled has the best IPC ({:.2})", tiled.ipc),
                    self.rows[..5].iter().all(|r| r.ipc <= tiled.ipc),
                ),
            ],
            (20, _) => vec![
                (
                    format!(
                        "copy is >= 10% faster than base ({} vs {} cycles)",
                        copy.cycles, base.cycles
                    ),
                    (copy.cycles as f64) < 0.9 * base.cycles as f64,
                ),
                (
                    format!(
                        "copying is a modest instruction overhead ({} vs {})",
                        copy.retired, base.retired
                    ),
                    copy.retired < base.retired * 105 / 100,
                ),
            ],
            (21, [phi]) => vec![
                (
                    format!(
                        "tiled beats distributed by ~2x ({} vs {} cycles)",
                        tiled.cycles, dist.cycles
                    ),
                    dist.cycles > tiled.cycles * 3 / 2,
                ),
                (
                    format!(
                        "tiled beats base by >= 4x ({} vs {} cycles)",
                        tiled.cycles, base.cycles
                    ),
                    base.cycles >= tiled.cycles * 4,
                ),
                (
                    format!(
                        "tiled sustains >= 85% of the 64-IPC peak ({:.1})",
                        tiled.ipc
                    ),
                    tiled.ipc >= 0.85 * 64.0,
                ),
                (
                    format!(
                        "tiling costs extra instructions over base ({} vs {})",
                        tiled.retired, base.retired
                    ),
                    tiled.retired > base.retired,
                ),
                (
                    format!(
                        "the Phi model runs ~2.3x fewer instructions ({} vs {})",
                        phi.retired, tiled.retired
                    ),
                    tiled.retired as f64 / phi.retired as f64 > 1.8,
                ),
                (
                    format!(
                        "the Phi model is ~3x faster in cycles ({} vs {})",
                        phi.cycles, tiled.cycles
                    ),
                    (2.0..6.0).contains(&(tiled.cycles as f64 / phi.cycles as f64)),
                ),
            ],
            _ => Vec::new(),
        }
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

/// Claim **C1**: the tiled matmul at `h` = 16 and 64, run twice with
/// tracing, gives bit-identical traces, cycles and retired counts.
pub fn determinism() -> Section {
    let checks = [16, 64].map(|harts| {
        let mm = Matmul::new(harts, Version::Tiled);
        let run = || {
            let mut m = mm.machine().expect("machine");
            m.set_sink(Box::new(Trace::new()));
            m.run(1_000_000_000).expect("run");
            let trace = m.sink::<Trace>().expect("traced").clone();
            (m.stats().cycles, m.stats().retired(), trace)
        };
        (
            format!("h={harts}: traces, cycles and retired counts bit-identical"),
            run() == run(),
        )
    });
    let text = "C1 — cycle determinism (tiled matmul, two traced replays):\n".to_owned();
    section(text, &checks)
}

/// Claim **C2**: the cycle and instruction cost of creating,
/// distributing and joining a team of 4, 16, 64 and 256 members doing
/// no work.
pub fn overhead() -> Section {
    let mut s =
        String::from("C2 — parallelization overhead (empty team, spawn + barrier + join):\n");
    let _ = writeln!(
        s,
        "{:<18} {:>10} {:>10} {:>16}",
        "team", "cycles", "retired", "retired/member"
    );
    for threads in [4, 16, 64, 256] {
        let row = empty_regions(format!("fork-join x{threads}"), threads, 1);
        let _ = writeln!(
            s,
            "{:<18} {:>10} {:>10} {:>16.1}",
            row.name,
            row.cycles,
            row.retired,
            row.retired as f64 / threads as f64
        );
    }
    section(s, &[])
}

/// The multithreading ablation (paper §5.2: "at least two full harts are
/// necessary to fill the pipeline"; with four active harts the core
/// approaches its 1-IPC peak): 1 to 4 harts of pure ALU work on a single
/// core, and the core IPC each achieves.
pub fn multithreading() -> Section {
    let mut s = String::from(
        "Multithreading ablation — §5.2: harts needed to fill one core's pipeline\n\
         (no branch predictor: every fetch suspends until the next pc is known)\n",
    );
    let _ = writeln!(s, "{:<14} {:>10}", "active harts", "core IPC");
    for members in 1..=4 {
        let image = lbp_omp::DetOmp::new(members)
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
            .parallel_for("spin")
            .build()
            .expect("assembles");
        let mut m = Machine::new(LbpConfig::cores(1), &image).expect("machine");
        let report = m.run(10_000_000).expect("runs");
        let _ = writeln!(s, "{:<14} {:>10.2}", members, report.stats.ipc());
    }
    section(s, &[])
}

/// The energy proxies of LBP and the Phi-class comparator on the tiled
/// matmul at `h = 64` (paper §7's closing low-power argument), and the
/// LBP activity the estimate was computed from: `tiled` is that run's
/// report, which Fig. 20 already made (`Figure::report`).
pub fn energy(tiled: &RunReport) -> Section {
    let harts = 64;
    let s = &tiled.stats;
    let a = Activity {
        cycles: s.cycles,
        retired: s.retired(),
        muldiv_ops: s.muldiv_ops,
        mem_ops: s.mem_ops(),
        link_hops: s.link_hops,
        cores: Matmul::new(harts, Version::Tiled).cores(),
    };
    let lbp_j = LbpEnergyModel::embedded_default().estimate_joules(&a);
    let phi_e = PhiModel::paper_calibrated().estimate_tiled_matmul(harts);
    let phi_j = PhiEnergyModel::knl_7210().estimate_joules(&phi_e);
    let text = format!(
        "Energy proxy — §7's closing claim (tiled matmul, h = 64):\n  \
         LBP (activity model, embedded 28nm-class point): {:.3} mJ\n  \
         Xeon-Phi2-class (TDP x modelled time):           {:.3} mJ\n  \
         efficiency ratio: {:.1}x in LBP's favor\n  \
         (activity: {} instr, {} muldiv, {} mem ops, {} hops, {} cycles on {} cores)\n",
        lbp_j * 1e3,
        phi_j * 1e3,
        phi_j / lbp_j,
        a.retired,
        a.muldiv_ops,
        a.mem_ops,
        a.link_hops,
        a.cycles,
        a.cores
    );
    section(text, &[])
}

/// The two ablations, one row per variant, and the claim each is there
/// for:
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
pub fn ablation() -> Section {
    let mm = Matmul::new(16, Version::Base);
    let [fast, mid, slow] = [1, 3, 8].map(|lat| {
        let mut cfg = mm.config();
        cfg.mul_latency = lat;
        run_matmul(&mm, cfg, format!("mul latency {lat}")).0
    });
    let [one, four, many] = [1, 4, 16].map(|n| empty_regions(format!("regions x{n}"), 16, n));
    let checks = [
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
    ];
    let mut s = String::from(
        "Ablation — multiplier latency (Fig. 19 base matmul); consecutive regions (empty 16-member team)\n",
    );
    write_rows(&mut s, "variant", &[fast, mid, slow, one, four, many]);
    s.push_str("shape checks:\n");
    section(s, &checks)
}
