//! Umbrella crate re-exporting the LBP stack.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use sim::cli::Outcome;
use sim::ExitClass;

pub mod baseline;
pub mod figures;

pub use lbp_asm as asm;
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
/// function so the two say the same lines: [`cc::judge`] the program at
/// `path`, put [`verify::report_text`] on stdout — unless `diag_json` is
/// `-`, where the `lbp-diag-v1` report owns stdout and must stay
/// parseable — and write the report to `diag_json`. Ends
/// [`ExitClass::Rejected`] when an error-class diagnostic says no.
pub fn verdict(
    o: &mut Outcome,
    path: &str,
    source: &str,
    diag_json: Option<&str>,
) -> Result<(), ExitClass> {
    let failure = ExitClass::Failure;
    let kind = cc::SourceKind::of(path);
    let judged = cc::judge(kind, source, &Default::default()).map_err(|e| o.fail(failure, e))?;
    let diags = [judged.lint, judged.binary].concat();
    if diag_json != Some("-") {
        o.stdout.push_str(&verify::report_text(&diags));
    }
    if let Some(out) = diag_json {
        if let Err(e) = o.write_out(out, &verify::report_json(path, &diags)) {
            return Err(o.fail(failure, format!("cannot write diag JSON to `{out}`: {e}")));
        }
        if out != "-" {
            o.say(format!("diags:    {out}"));
        }
    }
    if verify::accepted(&diags) {
        Ok(())
    } else {
        Err(ExitClass::Rejected)
    }
}
