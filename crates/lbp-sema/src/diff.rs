//! Differential harness: interpret the source under the executable
//! semantics AND compile-and-simulate it, then demand the observables
//! agree word for word.
//!
//! The compared observable is the final shared store — every declared
//! global, element by element — plus a clean exit on the machine side.
//! The interpreter's addresses are taken from the assembled image's
//! symbols, so even cross-global pointer arithmetic resolves to the
//! same words on both sides. A mismatch anywhere is a
//! [`DiffError::Divergence`] naming the first differing word: either
//! the code generator, the simulator, or the interpreter is wrong about
//! what the program means.

use std::fmt;

use lbp_cc::sema::Checked;
use lbp_cc::{CcError, CcOptions};
use lbp_sim::{LbpConfig, Machine};

use crate::interp::{self, InterpOptions};
use crate::{Layout, Outcome, Trap};

/// Why a differential run failed.
#[derive(Debug)]
pub enum DiffError {
    /// The source does not compile.
    Compile(CcError),
    /// The interpreter trapped (the program's meaning is undefined).
    Trap(Trap),
    /// The simulator side failed (machine error, or no clean exit
    /// within the cycle budget).
    Sim(String),
    /// Both sides completed but disagree on an observable word.
    Divergence(String),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Compile(e) => write!(f, "{e}"),
            DiffError::Trap(t) => write!(f, "{t}"),
            DiffError::Sim(m) => write!(f, "simulation failed: {m}"),
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

/// Interprets `source` under the executable semantics, laying globals
/// out exactly where the compiled image puts them.
///
/// # Errors
///
/// [`DiffError::Compile`] or [`DiffError::Trap`].
pub fn interp_source(source: &str, opts: &InterpOptions) -> Result<Outcome, DiffError> {
    let cx = lbp_cc::front_end(source).map_err(DiffError::Compile)?;
    let compiled = lbp_cc::compile(source).map_err(DiffError::Compile)?;
    let layout = Layout::from_image(&cx, &compiled.image);
    interp::run(&cx, &layout, opts).map_err(DiffError::Trap)
}

/// Runs the full differential check on `source`: compile (with
/// `cc_opts`, so deliberate sabotage can be injected on the compiled
/// side only), simulate on `cores` cores for at most `max_cycles`, and
/// compare against the interpreted outcome.
///
/// # Errors
///
/// Any [`DiffError`]; [`DiffError::Divergence`] is the interesting one.
pub fn diff_source_with(
    source: &str,
    cc_opts: &CcOptions,
    cores: Option<usize>,
    max_cycles: u64,
    opts: &InterpOptions,
) -> Result<DiffReport, DiffError> {
    let compiled = lbp_cc::compile_with(source, cc_opts).map_err(DiffError::Compile)?;
    let cx = lbp_cc::front_end(source).map_err(DiffError::Compile)?;
    let cores = cores.unwrap_or_else(|| required_cores(&cx));
    diff_checked(&cx, source, &compiled.image, cores, max_cycles, opts)
}

/// [`diff_source_with`] with default compilation and interpreter
/// options.
///
/// # Errors
///
/// Any [`DiffError`].
pub fn diff_source(
    source: &str,
    cores: Option<usize>,
    max_cycles: u64,
) -> Result<DiffReport, DiffError> {
    diff_source_with(
        source,
        &CcOptions::default(),
        cores,
        max_cycles,
        &InterpOptions::default(),
    )
}

/// Differential check against an already-assembled image of `source`
/// (e.g. one compiled with sabotage injected): interprets the source,
/// simulates the image, compares every global word.
///
/// # Errors
///
/// Any [`DiffError`].
pub fn diff_compiled(
    source: &str,
    image: &lbp_asm::Image,
    cores: usize,
    max_cycles: u64,
    opts: &InterpOptions,
) -> Result<DiffReport, DiffError> {
    let cx = lbp_cc::front_end(source).map_err(DiffError::Compile)?;
    diff_checked(&cx, source, image, cores, max_cycles, opts)
}

fn diff_checked(
    cx: &Checked,
    _source: &str,
    image: &lbp_asm::Image,
    cores: usize,
    max_cycles: u64,
    opts: &InterpOptions,
) -> Result<DiffReport, DiffError> {
    let layout = Layout::from_image(cx, image);
    let outcome = interp::run(cx, &layout, opts).map_err(DiffError::Trap)?;

    let mut machine =
        Machine::new(LbpConfig::cores(cores), image).map_err(|e| DiffError::Sim(e.to_string()))?;
    let report = machine
        .run(max_cycles)
        .map_err(|e| DiffError::Sim(e.to_string()))?;
    if !report.exited {
        return Err(DiffError::Sim(format!(
            "no clean exit within {max_cycles} cycles"
        )));
    }

    for (name, words) in &outcome.globals {
        let base = image
            .symbol(name)
            .ok_or_else(|| DiffError::Sim(format!("image lacks symbol `{name}`")))?;
        for (i, &want) in words.iter().enumerate() {
            let got = machine
                .peek_shared(base + 4 * i as u32)
                .map_err(|e| DiffError::Sim(e.to_string()))? as i32;
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
    use lbp_cc::CodegenSabotage;

    const SQUARES: &str = "int v[8];\nvoid main(void) {\nint t;\nomp_set_num_threads(8);\n#pragma omp parallel for\nfor (t = 0; t < 8; t++) { v[t] = (t + 1) * (t + 1); }\n}";

    #[test]
    fn squares_agree_between_interpreter_and_simulator() {
        let report = diff_source(SQUARES, None, 1_000_000).expect("diff");
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
        let opts = CcOptions {
            sabotage: Some(CodegenSabotage::ChunkBounds),
        };
        let err = diff_source_with(SQUARES, &opts, None, 1_000_000, &InterpOptions::default())
            .expect_err("sabotage must diverge");
        assert!(matches!(err, DiffError::Divergence(_)), "{err}");
    }

    #[test]
    fn index_shift_sabotage_diverges() {
        let opts = CcOptions {
            sabotage: Some(CodegenSabotage::IndexShift),
        };
        let err = diff_source_with(SQUARES, &opts, None, 1_000_000, &InterpOptions::default())
            .expect_err("sabotage must diverge");
        assert!(matches!(err, DiffError::Divergence(_)), "{err}");
    }

    #[test]
    fn const_fold_sabotage_diverges() {
        // `8 - 3` folds at compile time; mis-folded as `8 + 3` it lands
        // in the store where the interpreter (the spec) says 5.
        let src = "int g;\nvoid main(void) { g = 8 - 3; }";
        let opts = CcOptions {
            sabotage: Some(CodegenSabotage::ConstFold),
        };
        let err = diff_source_with(src, &opts, None, 1_000_000, &InterpOptions::default())
            .expect_err("sabotage must diverge");
        assert!(matches!(err, DiffError::Divergence(_)), "{err}");
    }
}
