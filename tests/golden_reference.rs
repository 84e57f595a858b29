//! `results_reference.txt` is the stdout of `figures all`. Simulated
//! numbers are exact — the machine is deterministic by construction — so
//! each section a fresh run prints must equal its block of the file byte
//! for byte. Any drift is a behavioural change of the simulator.
//!
//! A change that moves the numbers on purpose regenerates the file,
//!
//! ```text
//! cargo run --release --bin figures -- all > results_reference.txt
//! ```
//!
//! and says why in the commit that moved them.

use std::sync::OnceLock;

use lbp::figures::{self, Figure, Section};
use lbp::kernels::matmul::Version;

/// Asserts `section` is the block of the reference file whose first line
/// starts with `heading`, and that its checks held.
fn check(heading: &str, section: Section) {
    let reference = include_str!("../results_reference.txt");
    let block = reference
        .split_inclusive("\n\n")
        .find(|block| block.starts_with(heading))
        .unwrap_or_else(|| panic!("results_reference.txt has no `{heading}` section"));
    assert_eq!(
        section.text, block,
        "`{heading}` drifted from results_reference.txt"
    );
    assert!(section.ok, "`{heading}`: a check failed");
}

/// Fig. 20, simulated once: the energy section reads its tiled run.
fn fig20() -> &'static Figure {
    static FIG20: OnceLock<Figure> = OnceLock::new();
    FIG20.get_or_init(|| figures::reproduce_figure(20))
}

// Each test is named for its section's place in the file. libtest starts
// tests in name order, so Fig. 20 (most of this binary's debug time) and
// C1 start first and run side by side.

#[test]
fn s1_fig19() {
    check("Figure 19 ", figures::reproduce_figure(19).section());
}

#[test]
fn s2_fig20() {
    check("Figure 20 ", fig20().section());
}

/// Seconds in a release build, minutes in a debug one; CI's `figures` job
/// runs it: `cargo test --release --test golden_reference -- --include-ignored`.
#[test]
#[ignore = "minutes in debug builds; the figures job of CI runs it in release"]
fn s3_fig21() {
    check("Figure 21 ", figures::reproduce_figure(21).section());
}

#[test]
fn s4_determinism() {
    check("C1 ", figures::determinism());
}

#[test]
fn s5_overhead() {
    check("C2 ", figures::overhead());
}

#[test]
fn s6_multithreading() {
    check("Multithreading ", figures::multithreading());
}

#[test]
fn s7_energy() {
    check("Energy ", figures::energy(fig20().report(Version::Tiled)));
}

#[test]
fn s8_ablation() {
    check("Ablation ", figures::ablation());
}
