//! # lbp-cc — the Deterministic OpenMP translator
//!
//! A from-scratch mini-C compiler targeting the PISC ISA, implementing
//! the paper's source-to-source story: a Deterministic OpenMP program "is
//! quite not distinguishable from a classic OpenMP one" (its Fig. 1) —
//! the same `#pragma omp parallel for` / `parallel sections` source
//! compiles to ordered hart teams synchronized by hardware. (The paper
//! lists completing this translator as future work; it is implemented
//! here.)
//!
//! ## The subset
//!
//! `int` scalars, pointers and one-dimensional global arrays; functions;
//! `if`/`while`/`for`; the usual operators; `#define` object macros;
//! `omp_set_num_threads`; `#pragma omp parallel for` over the canonical
//! `for (t = 0; t < N; t++)` loop; and `#pragma omp parallel sections`.
//! Scalar locals live in registers (at most eight per function) and
//! cannot have their address taken. Parallel-region bodies may touch the
//! index variable, their own locals and globals — the shape of every
//! program in the paper.
//!
//! # Examples
//!
//! Compile and run the paper's Fig. 1 program:
//!
//! ```
//! use lbp_sim::{LbpConfig, Machine};
//!
//! let compiled = lbp_cc::compile(
//!     r#"
//! #define NUM_HART 8
//! #include <det_omp.h>
//! int v[NUM_HART];
//! void thread(int t) { v[t] = t + 1; }
//! void main(void) {
//!     int t;
//!     omp_set_num_threads(NUM_HART);
//! #pragma omp parallel for
//!     for (t = 0; t < NUM_HART; t++) thread(t);
//! }
//! "#,
//! )?;
//! let mut m = Machine::new(LbpConfig::cores(2), &compiled.image)?;
//! m.run(1_000_000)?;
//! let v = compiled.image.symbol("v").unwrap();
//! assert_eq!(m.peek_shared(v + 4 * 3)?, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod ast;
mod codegen;
pub mod lex;
mod lint;
pub mod parse;
pub mod sema;

pub use sema::{MAX_ARGS, MAX_LOCALS};

/// A compilation error with its 1-based source line (and column, when
/// the error is anchored to a concrete token).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcError {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column; 0 when unknown (statement-granular
    /// diagnostics from sema carry a line only).
    pub col: usize,
    /// Description.
    pub message: String,
}

impl CcError {
    /// Creates an error with a line but no column.
    pub fn new(line: usize, message: impl Into<String>) -> CcError {
        CcError {
            line,
            col: 0,
            message: message.into(),
        }
    }

    /// Creates an error anchored to a line *and* column.
    pub fn at(line: usize, col: usize, message: impl Into<String>) -> CcError {
        CcError {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "compile error at line {}:{}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "compile error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for CcError {}

/// A deliberate, named miscompilation the code generator can inject
/// (`lbp-cc --sabotage codegen:<kind>`). Each kind is designed to stay
/// *internally consistent* — the sabotaged binary runs deterministically,
/// races with nobody, and passes the whole lockstep battery — so only a
/// codegen-independent executable semantics (lbp-sema) can catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodegenSabotage {
    /// Off-by-one static chunk bounds: a team of `n > 1` spawns only
    /// `n - 1` members, silently dropping the last chunk.
    ChunkBounds,
    /// Every parallel-for member computes with index `t + 1` instead of
    /// `t`: the static schedule is shifted by one chunk.
    IndexShift,
    /// Constant folding treats `a - b` as `a + b` (runtime subtraction
    /// is untouched).
    ConstFold,
    /// A loop that tests an end pointer (rule E) sets that end one
    /// stride short, so its last iteration never runs.
    EndPointer,
}

impl CodegenSabotage {
    /// All kinds, for enumeration in tests and CLIs.
    pub const ALL: [CodegenSabotage; 4] = [
        CodegenSabotage::ChunkBounds,
        CodegenSabotage::IndexShift,
        CodegenSabotage::ConstFold,
        CodegenSabotage::EndPointer,
    ];

    /// The CLI name of this kind (without the `codegen:` prefix).
    pub fn name(self) -> &'static str {
        match self {
            CodegenSabotage::ChunkBounds => "chunk-bounds",
            CodegenSabotage::IndexShift => "index-shift",
            CodegenSabotage::ConstFold => "const-fold",
            CodegenSabotage::EndPointer => "end-pointer",
        }
    }

    /// Parses a kind name as spelled by [`CodegenSabotage::name`].
    pub fn parse(name: &str) -> Option<CodegenSabotage> {
        CodegenSabotage::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Compilation options beyond the defaults of [`compile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcOptions {
    /// Inject a deliberate miscompilation (testing only).
    pub sabotage: Option<CodegenSabotage>,
}

/// The output of a successful compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The generated PISC assembly (inspectable, diffable against the
    /// paper's listings).
    pub asm: String,
    /// The assembled, loadable image.
    pub image: lbp_asm::Image,
}

/// Compiles a mini-C translation unit to a loadable LBP image.
///
/// # Errors
///
/// Returns the first lexical, syntactic, semantic or code-generation
/// error with its source line.
pub fn compile(source: &str) -> Result<Compiled, CcError> {
    compile_checked(&front_end(source)?, &CcOptions::default())
}

/// The back end: code generation (with `opts`, e.g. codegen sabotage)
/// and assembly of a unit the front end accepted. Every path from a
/// mini-C source to an image goes through here, so a caller that already
/// holds the [`sema::Checked`] never runs the front end again.
///
/// The generator hands the assembler the items it built beside the
/// listing; nothing here parses the listing back.
///
/// # Errors
///
/// A code-generation error, or generated code the assembler refuses (a
/// compiler bug: a value out of range or a missing label), naming the
/// generated line.
pub fn compile_checked(checked: &sema::Checked, opts: &CcOptions) -> Result<Compiled, CcError> {
    let asm = codegen::generate_with(checked, opts.sabotage)?;
    let image = asm.items().and_then(lbp_asm::assemble_items).map_err(|e| {
        let line = e
            .line
            .checked_sub(1)
            .and_then(|at| asm.text().lines().nth(at));
        CcError::new(
            0,
            format!(
                "internal error: generated assembly rejected: {e} (generated line: `{}`)",
                line.unwrap_or_default().trim()
            ),
        )
    })?;
    Ok(Compiled {
        asm: asm.into_text(),
        image,
    })
}

/// How a program's text reaches the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// PISC assembly, fed to `lbp-asm`.
    Asm,
    /// The C subset, fed to this crate's translator.
    C,
}

impl SourceKind {
    /// The kind of the program at `path`: `.c` is mini-C, everything
    /// else assembly.
    pub fn of(path: &str) -> SourceKind {
        if path.ends_with(".c") {
            SourceKind::C
        } else {
            SourceKind::Asm
        }
    }
}

/// Why [`build`] or [`judge`] produced nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The translator rejected a mini-C source.
    Compile(CcError),
    /// The assembler rejected an assembly source.
    Assemble(lbp_asm::AsmError),
}

impl BuildError {
    /// The stage that failed, as `lbp-batch-v1` lines spell it.
    pub fn stage(&self) -> &'static str {
        match self {
            BuildError::Compile(_) => "compile",
            BuildError::Assemble(_) => "assemble",
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(e) => e.fmt(f),
            BuildError::Assemble(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BuildError {}

/// Source to image, for either kind: mini-C through [`front_end`] and
/// [`compile_checked`], assembly through the assembler (its `asm` is the
/// source itself).
///
/// # Errors
///
/// The front end's first error.
pub fn build(kind: SourceKind, source: &str, opts: &CcOptions) -> Result<Compiled, BuildError> {
    match kind {
        SourceKind::C => front_end(source)
            .and_then(|checked| compile_checked(&checked, opts))
            .map_err(BuildError::Compile),
        SourceKind::Asm => match lbp_asm::assemble(source) {
            Ok(image) => Ok(Compiled {
                asm: source.to_owned(),
                image,
            }),
            Err(e) => Err(BuildError::Assemble(e)),
        },
    }
}

/// What [`judge`] found, and what it built on the way.
#[derive(Debug)]
pub struct Judged {
    /// The source lint's diagnostics (mini-C only).
    pub lint: Vec<lbp_verify::Diag>,
    /// The binary verifier's, which carry generated-assembly lines and a
    /// `pc`.
    pub binary: Vec<lbp_verify::Diag>,
    /// The unit sema accepted (mini-C only): the one [`front_end`]
    /// returns.
    pub checked: Option<sema::Checked>,
    /// The image, unless the source lint rejected the program.
    pub compiled: Option<Compiled>,
}

/// The static verdict on a program, for either kind: mini-C goes through
/// the source [`lint`] and — only a source-accepted program compiles to
/// an image worth checking — the binary verifier over the image
/// [`compile_checked`] generates, with `opts`, from the unit the lint
/// checked; assembly through the binary verifier alone. The front end
/// runs once.
///
/// # Errors
///
/// The source does not parse, assemble or (once accepted) compile.
pub fn judge(kind: SourceKind, source: &str, opts: &CcOptions) -> Result<Judged, BuildError> {
    let (lint, checked, compiled) = match kind {
        SourceKind::C => {
            let (diags, checked) = lint_keeping(source).map_err(BuildError::Compile)?;
            let compiled = checked
                .as_ref()
                .filter(|_| lbp_verify::accepted(&diags))
                .map(|checked| compile_checked(checked, opts).map_err(BuildError::Compile))
                .transpose()?;
            (diags, checked, compiled)
        }
        SourceKind::Asm => (Vec::new(), None, Some(build(kind, source, opts)?)),
    };
    let binary = compiled.as_ref().map_or_else(Vec::new, |compiled| {
        lbp_verify::verify_image(&compiled.image)
    });
    Ok(Judged {
        lint,
        binary,
        checked,
        compiled,
    })
}

/// Runs the front end only — lex, parse and semantic check — returning
/// the typed, checked AST both the code generator and the lbp-sema
/// reference interpreter consume.
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error.
pub fn front_end(source: &str) -> Result<sema::Checked, CcError> {
    let tokens = lex::lex(source)?;
    let unit = parse::parse(tokens)?;
    sema::check(unit)
}

/// Runs the determinism lint over a mini-C translation unit without
/// generating code: every parallel region is checked for races (see the
/// `lint` module docs) and the result is a batch of `lbp-diag-v1`
/// diagnostics. Semantic errors are reported — **all** of them, not just
/// the first — as `LBP-C001` diagnostics; the race analysis needs a
/// well-formed unit and is skipped when sema fails.
///
/// The program is acceptable iff [`lbp_verify::accepted`] holds on the
/// result.
///
/// # Errors
///
/// Returns an error only when the source cannot be parsed at all
/// (lexical or syntactic failure); everything later is a diagnostic.
pub fn lint(source: &str) -> Result<Vec<lbp_verify::Diag>, CcError> {
    lint_keeping(source).map(|(diags, _)| diags)
}

/// [`lint`], keeping the checked unit when sema accepts it: the one
/// [`front_end`] returns, since [`sema::check`] is [`sema::check_all`]
/// cut to its first error.
fn lint_keeping(source: &str) -> Result<(Vec<lbp_verify::Diag>, Option<sema::Checked>), CcError> {
    let tokens = lex::lex(source)?;
    let unit = parse::parse(tokens)?;
    match sema::check_all(unit) {
        Err(errs) => {
            let diags = errs
                .into_iter()
                .map(|e| {
                    lbp_verify::Diag::new(
                        lbp_verify::DiagCode::CSema,
                        lbp_verify::Severity::Error,
                        e.line,
                        e.message,
                    )
                })
                .collect();
            Ok((diags, None))
        }
        Ok(checked) => Ok((lint::lint_unit(&checked), Some(checked))),
    }
}
