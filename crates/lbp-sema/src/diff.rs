//! Differential harness: interpret a checked unit under the executable
//! semantics AND simulate the image compiled from it, then demand the
//! observables agree word for word.
//!
//! The harness takes what the caller already built — the
//! [`Checked`] unit and its image — so a source goes through the front
//! end once, whoever holds it. The compared observable is the final
//! shared store — every declared global, element by element — plus a
//! clean exit on the machine side. The interpreter's addresses are taken
//! from the image's symbols, so even cross-global pointer arithmetic
//! resolves to the same words on both sides. A mismatch anywhere is a
//! [`DiffError::Divergence`] naming the first differing word: either
//! the code generator, the simulator, or the interpreter is wrong about
//! what the program means.

use std::fmt;

use lbp_cc::sema::Checked;
use lbp_sim::{LbpConfig, Machine, SimError};

use crate::interp::{self, InterpOptions};
use crate::{Layout, Outcome, Trap};

/// Why a differential run failed.
#[derive(Debug)]
pub enum DiffError {
    /// The interpreter trapped (the program's meaning is undefined).
    Trap(Trap),
    /// The machine failed: a fault, or no clean exit within the cycle
    /// budget ([`SimError::Timeout`]).
    Sim(SimError),
    /// Both sides completed but disagree on an observable word.
    Divergence(String),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Trap(t) => write!(f, "{t}"),
            DiffError::Sim(e) => write!(f, "simulation failed: {e}"),
            DiffError::Divergence(m) => write!(f, "observable divergence: {m}"),
        }
    }
}

impl std::error::Error for DiffError {}

/// A successful differential run: the agreed observable outcome.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The interpreter's observable outcome (the simulator matched
    /// every global word of it).
    pub outcome: Outcome,
    /// Machine cycles the simulated run took.
    pub cycles: u64,
}

impl DiffReport {
    /// Content hash of the agreed outcome.
    pub fn hash(&self) -> u64 {
        self.outcome.content_hash()
    }
}

/// The smallest core count whose hart pool covers every parallel region
/// in `main` (at least one core).
pub fn required_cores(cx: &Checked) -> usize {
    let mut team = 1usize;
    if let Some(main) = cx.unit.functions.iter().find(|f| f.name == "main") {
        use lbp_cc::ast::Stmt;
        lbp_cc::ast::walk(&main.body, &mut |s| match s {
            Stmt::ParallelFor { count, .. } => team = team.max(*count as usize),
            Stmt::ParallelSections { sections, .. } => team = team.max(sections.len()),
            _ => {}
        });
    }
    team.div_ceil(lbp_isa::HARTS_PER_CORE).max(1)
}

/// The differential check: interprets `cx` with globals laid out where
/// `image` puts them, simulates `image` on `cores` cores for at most
/// `max_cycles`, and compares every global word. `image` is compiled
/// from `cx` — with sabotage, when the caller plants one on the
/// compiled side only.
///
/// # Errors
///
/// Any [`DiffError`]; [`DiffError::Divergence`] is the interesting one.
pub fn diff(
    cx: &Checked,
    image: &lbp_asm::Image,
    cores: usize,
    max_cycles: u64,
    opts: &InterpOptions,
) -> Result<DiffReport, DiffError> {
    let layout = Layout::from_image(cx, image);
    let outcome = interp::run(cx, &layout, opts).map_err(DiffError::Trap)?;

    let mut machine = Machine::new(LbpConfig::cores(cores), image).map_err(DiffError::Sim)?;
    let report = machine.run(max_cycles).map_err(DiffError::Sim)?;

    for (name, words) in &outcome.globals {
        let base = image.symbol(name).ok_or_else(|| {
            DiffError::Divergence(format!("global {name}: the image has no symbol for it"))
        })?;
        for (i, &want) in words.iter().enumerate() {
            let got = machine
                .peek_shared(base + 4 * i as u32)
                .map_err(DiffError::Sim)? as i32;
            if got != want {
                return Err(DiffError::Divergence(format!(
                    "global {name}[{i}]: interpreter {want}, simulator {got}"
                )));
            }
        }
    }
    Ok(DiffReport {
        outcome,
        cycles: report.stats.cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_cc::{CcOptions, CodegenSabotage};

    const SQUARES: &str = "int v[8];\nvoid main(void) {\nint t;\nomp_set_num_threads(8);\n#pragma omp parallel for\nfor (t = 0; t < 8; t++) { v[t] = (t + 1) * (t + 1); }\n}";

    /// Front end once, then the back end with `sabotage` and the harness.
    fn diff_built(src: &str, sabotage: Option<CodegenSabotage>) -> Result<DiffReport, DiffError> {
        let cx = lbp_cc::front_end(src).expect("front end");
        let image = lbp_cc::compile_checked(&cx, &CcOptions { sabotage })
            .expect("compile")
            .image;
        diff(
            &cx,
            &image,
            required_cores(&cx),
            1_000_000,
            &InterpOptions::default(),
        )
    }

    #[test]
    fn squares_agree_between_interpreter_and_simulator() {
        let report = diff_built(SQUARES, None).expect("diff");
        assert_eq!(
            report.outcome.global("v"),
            Some(&[1, 4, 9, 16, 25, 36, 49, 64][..])
        );
        assert!(report.cycles > 0);
    }

    #[test]
    fn required_cores_covers_the_widest_region() {
        let cx = lbp_cc::front_end(SQUARES).unwrap();
        assert_eq!(required_cores(&cx), 2);
        let cx = lbp_cc::front_end("void main(void) { }").unwrap();
        assert_eq!(required_cores(&cx), 1);
    }

    #[test]
    fn chunk_bounds_sabotage_diverges() {
        let err = diff_built(SQUARES, Some(CodegenSabotage::ChunkBounds))
            .expect_err("sabotage must diverge");
        assert!(matches!(err, DiffError::Divergence(_)), "{err}");
    }

    #[test]
    fn index_shift_sabotage_diverges() {
        let err = diff_built(SQUARES, Some(CodegenSabotage::IndexShift))
            .expect_err("sabotage must diverge");
        assert!(matches!(err, DiffError::Divergence(_)), "{err}");
    }

    #[test]
    fn const_fold_sabotage_diverges() {
        // `8 - 3` folds at compile time; mis-folded as `8 + 3` it lands
        // in the store where the interpreter (the spec) says 5.
        let src = "int g;\nvoid main(void) { g = 8 - 3; }";
        let err =
            diff_built(src, Some(CodegenSabotage::ConstFold)).expect_err("sabotage must diverge");
        assert!(matches!(err, DiffError::Divergence(_)), "{err}");
    }

    #[test]
    fn a_run_out_of_cycles_keeps_its_timeout_class() {
        let cx = lbp_cc::front_end(SQUARES).unwrap();
        let image = lbp_cc::compile(SQUARES).unwrap().image;
        let err = diff(&cx, &image, 2, 10, &InterpOptions::default())
            .expect_err("10 cycles cannot finish");
        match err {
            DiffError::Sim(e) => assert_eq!(e.class(), "timeout", "{e}"),
            other => panic!("expected a machine failure, got {other}"),
        }
    }
}
