//! Umbrella crate re-exporting the LBP stack.

#![forbid(unsafe_code)]

pub use lbp_asm as asm;
pub use lbp_baseline as baseline;
pub use lbp_cc as cc;
pub use lbp_isa as isa;
pub use lbp_kernels as kernels;
pub use lbp_omp as omp;
pub use lbp_prof as prof;
pub use lbp_sema as sema;
pub use lbp_sim as sim;
pub use lbp_snap as snap;
pub use lbp_verify as verify;

/// The static verdict of `lbp-run --verify` and `lbp-cc --lint`, one
/// function so the two print the same lines: [`cc::judge`] the program
/// at `path`, print [`verify::report_text`] on stdout — unless
/// `diag_json` is `-`, where the `lbp-diag-v1` report owns stdout and
/// must stay parseable — and write the report to `diag_json`.
/// [`ExitClass::Rejected`](sim::ExitClass::Rejected) when an error-class
/// diagnostic says no.
pub fn verdict(tool: &str, path: &str, source: &str, diag_json: Option<&str>) -> sim::ExitClass {
    let diags = match cc::judge(cc::SourceKind::of(path), source, &Default::default()) {
        Ok(judged) => [judged.lint, judged.binary].concat(),
        Err(e) => {
            eprintln!("{tool}: {e}");
            return sim::ExitClass::Failure;
        }
    };
    if diag_json != Some("-") {
        print!("{}", verify::report_text(&diags));
    }
    if let Some(out) = diag_json {
        if let Err(e) = sim::cli::write_out(out, &verify::report_json(path, &diags)) {
            eprintln!("{tool}: cannot write diag JSON to `{out}`: {e}");
            return sim::ExitClass::Failure;
        }
        if out != "-" {
            println!("diags:    {out}");
        }
    }
    if verify::accepted(&diags) {
        sim::ExitClass::Ok
    } else {
        sim::ExitClass::Rejected
    }
}
