//! Golden-reference regression test: the checked-in
//! `results_reference.txt` (a captured `figures all` run) is the
//! contract. Simulated numbers are exact — the machine is
//! deterministic by construction — so the cycle counts, IPC and
//! retired-instruction counts of its figure and ablation tables must
//! match a fresh run **bit for bit**. Any drift is a behavioural change
//! of the simulator and fails tier-1.
//!
//! ## Blessing a deliberate change
//!
//! If a change intentionally alters the performance model (and the
//! shape checks in the file still hold), regenerate the reference:
//!
//! ```text
//! cargo run -p lbp-bench --release --bin figures -- all > results_reference.txt
//! ```
//!
//! then re-run this test and commit the new file together with the
//! change that moved the numbers, explaining the delta in the commit
//! message.

use lbp_bench::{ablation, ablation_checks, measure, Row};
use lbp_kernels::matmul::Version;

/// One parsed row of a figure table in `results_reference.txt`.
#[derive(Debug, PartialEq)]
struct GoldenRow {
    name: String,
    cycles: u64,
    ipc: f64,
    retired: u64,
}

/// Parses the named figure's table from the reference file.
fn golden_rows(reference: &str, figure: &str) -> Vec<GoldenRow> {
    let mut rows = Vec::new();
    let mut in_figure = false;
    for line in reference.lines() {
        if line.starts_with(figure) {
            in_figure = true;
            continue;
        }
        if !in_figure {
            continue;
        }
        if line.starts_with("shape checks:") || line.trim().is_empty() {
            break;
        }
        // `name cycles IPC retired locality` with a possibly
        // multi-word name: take the four numeric fields from the right.
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert!(fields.len() >= 5, "malformed reference row: {line}");
        if fields[fields.len() - 1] == "locality" {
            continue; // table header
        }
        let nums = &fields[fields.len() - 4..];
        let name = fields[..fields.len() - 4].join(" ");
        if nums[3] == "-" {
            continue; // analytic baseline rows (no locality) aren't simulated
        }
        rows.push(GoldenRow {
            name,
            cycles: nums[0]
                .parse()
                .unwrap_or_else(|_| panic!("cycles in {line}")),
            ipc: nums[1].parse().unwrap_or_else(|_| panic!("ipc in {line}")),
            retired: nums[2]
                .parse()
                .unwrap_or_else(|_| panic!("retired in {line}")),
        });
    }
    assert!(
        !rows.is_empty(),
        "section {figure:?} not found in results_reference.txt"
    );
    rows
}

fn reference_text() -> String {
    // The file lives at the repository root, one level above the
    // crate's manifest directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_reference.txt");
    std::fs::read_to_string(path).expect("results_reference.txt is checked in")
}

/// Holds one fresh row to its golden row.
fn check_row(section: &str, gold: &GoldenRow, row: &Row) {
    assert_eq!(row.name, gold.name, "{section}: row order matches the file");
    assert_eq!(
        row.cycles, gold.cycles,
        "{section}: {} cycle count drifted from results_reference.txt \
         (got {}, reference {}). If this is an intended performance-model \
         change, re-bless: see the header of this test.",
        gold.name, row.cycles, gold.cycles
    );
    assert_eq!(
        row.retired, gold.retired,
        "{section}: {} retired-instruction count drifted from the reference",
        gold.name
    );
    // IPC is printed rounded to 2 decimals; compare at that grain.
    assert!(
        (row.ipc - gold.ipc).abs() < 0.005 + 1e-9,
        "{section}: {} IPC drifted (got {:.4}, reference {:.2})",
        gold.name,
        row.ipc,
        gold.ipc
    );
}

fn check_figure(figure: &str, harts: usize) {
    let golden = golden_rows(&reference_text(), figure);
    assert_eq!(
        golden.len(),
        Version::ALL.len(),
        "one golden row per version"
    );
    for (version, gold) in Version::ALL.into_iter().zip(&golden) {
        check_row(figure, gold, &measure(harts, version));
    }
}

/// Figure 19 (16 harts, 4 cores): every version, exact match.
#[test]
fn figure19_matches_the_reference_exactly() {
    check_figure("Figure 19", 16);
}

/// Figure 20 (64 harts, 16 cores): every version, exact match; seconds
/// in a debug build.
#[test]
fn figure20_matches_the_reference_exactly() {
    check_figure("Figure 20", 64);
}

/// The tiled row of Figure 21 (256 harts, 64 cores), the one the
/// paper's headline claims rest on. Seconds in a release build, minutes
/// in a debug one; CI's `figures` job runs it:
/// `cargo test -p lbp-bench --release --test golden_reference -- --include-ignored`.
#[test]
#[ignore = "minutes in debug builds; the figures job of CI runs it in release"]
fn figure21_tiled_matches_the_reference_exactly() {
    let golden = golden_rows(&reference_text(), "Figure 21");
    let gold = golden
        .iter()
        .find(|g| g.name == Version::Tiled.name())
        .expect("Figure 21 has a tiled row");
    check_row("Figure 21", gold, &measure(256, Version::Tiled));
}

/// The ablation table: every row exact, and the two claims it is there
/// for hold.
#[test]
fn ablation_matches_the_reference_exactly() {
    let golden = golden_rows(&reference_text(), "Ablation");
    let rows = ablation();
    assert_eq!(rows.len(), golden.len(), "one golden row per variant");
    for (row, gold) in rows.iter().zip(&golden) {
        check_row("Ablation", gold, row);
    }
    for (what, ok) in ablation_checks(&rows) {
        assert!(ok, "claim failed: {what}");
    }
}
