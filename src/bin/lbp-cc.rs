//! `lbp-cc` — the Deterministic OpenMP front end as a standalone tool.
//!
//! ```text
//! lbp-cc program.c                  # compile, print PISC assembly
//! lbp-cc program.c -o program.s     # compile to a file
//! lbp-cc program.c --lint           # static verdict, no run
//! lbp-cc program.c --interp         # run the executable semantics
//! lbp-cc program.c --diff           # interpret AND simulate, compare
//! lbp-cc --help
//! ```
//!
//! `--lint` is `lbp-run --verify` on a `.c` file — the same function
//! ([`lbp::verdict`]) printing the same lines: the source-level
//! determinism lint, then, when it accepts, the binary analyses over the
//! generated image, merged into one `lbp-diag-v1` report; a rejection
//! exits 10. `--interp` prints the canonical observable outcome under
//! lbp-sema's executable semantics with its content hash; `--diff` also
//! compiles and simulates and demands the simulator reproduce every
//! global word — a divergence exits 12 and is, by construction, a
//! compiler or simulator bug (`--sabotage codegen:KIND` plants one).

use std::process::ExitCode;

use lbp::cc::{CcOptions, CodegenSabotage, SourceKind};
use lbp::sim::cli::{self, Flag, Grammar, Positional, ALL_MODES};
use lbp::sim::ExitClass;

const COMPILE: u32 = 1 << 0;
const LINT: u32 = 1 << 1;
const INTERP: u32 = 1 << 2;
const DIFF: u32 = 1 << 3;

lbp::sim::flags! { FLAGS:
    OUTPUT = Flag::new("-o", &["FILE"], COMPILE,
        "write the generated assembly to FILE ('-' = stdout)");
    LINT_F = Flag::new("--lint", &[], LINT,
        "run the static determinism lint instead of compiling").selects(LINT);
    DIAG_JSON = Flag::new("--diag-json", &["FILE"], LINT,
        "write the lbp-diag-v1 report ('-' = stdout)");
    INTERP_F = Flag::new("--interp", &[], INTERP,
        "run the executable semantics, print the outcome + hash").selects(INTERP);
    DIFF_F = Flag::new("--diff", &[], DIFF,
        "interpret AND compile-and-simulate, compare observables").selects(DIFF);
    SABOTAGE = Flag::new("--sabotage", &["codegen:KIND"], COMPILE | DIFF,
        "inject a deliberate miscompilation into generated code\n\
         (chunk-bounds | index-shift | const-fold)");
    MAX_CYCLES = Flag::new("--max-cycles", &["N"], DIFF,
        "simulation budget (default 100000000)");
}

static GRAMMAR: Grammar = Grammar {
    tool: "lbp-cc",
    synopsis: &["lbp-cc <program.c> [options]"],
    about: "",
    modes: &[
        ("compile", "translate to PISC assembly"),
        ("lint", "static verdict, as `lbp-run --verify`"),
        ("interp", "the program's meaning under lbp-sema"),
        ("diff", "meaning against the simulated binary"),
    ],
    positional: Positional::one("<program.c>", ALL_MODES, ALL_MODES),
    flags: FLAGS,
    footer: "exit codes: 0 ok, 1 front-end/I/O, 2 usage, 10 lint rejection,\n\
             12 observable divergence (--diff)",
};

fn run_interp(source: &str) -> ExitCode {
    match lbp::sema::diff::interp_source(source, &Default::default()) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            println!("hash {:016x}", outcome.content_hash());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbp-cc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_diff(source: &str, cc_opts: &CcOptions, max_cycles: u64) -> ExitCode {
    match lbp::sema::diff::diff_source_with(source, cc_opts, None, max_cycles, &Default::default())
    {
        Ok(report) => {
            print!("{}", report.outcome.render());
            println!("hash {:016x}", report.hash());
            println!(
                "diff:     observables agree (simulated in {} cycles)",
                report.cycles
            );
            ExitCode::SUCCESS
        }
        Err(lbp::sema::diff::DiffError::Divergence(d)) => {
            eprintln!("lbp-cc: observable divergence: {d}");
            ExitClass::SemanticsDivergence.into()
        }
        Err(e) => {
            eprintln!("lbp-cc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = GRAMMAR.parse_env();
    let sabotage = args.get_with(SABOTAGE, |spec| {
        spec.strip_prefix("codegen:")
            .and_then(CodegenSabotage::parse)
            .ok_or("unknown sabotage".to_owned())
    });
    let (cc_opts, max_cycles) = match (sabotage, args.get::<u64>(MAX_CYCLES)) {
        (Ok(sabotage), Ok(n)) => (CcOptions { sabotage }, n.unwrap_or(100_000_000)),
        (Err(what), _) | (_, Err(what)) => GRAMMAR.refuse(&what),
    };
    let input = args.positional()[0].as_str();
    if SourceKind::of(input) != SourceKind::C {
        eprintln!("lbp-cc: input must be a `.c` file, got `{input}`");
        return ExitClass::Usage.into();
    }
    let source = match std::fs::read_to_string(input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lbp-cc: cannot read `{input}`: {e}");
            return ExitClass::Usage.into();
        }
    };
    match args.mode() {
        LINT => lbp::verdict("lbp-cc", input, &source, args.str(DIAG_JSON)).into(),
        DIFF => run_diff(&source, &cc_opts, max_cycles),
        INTERP => run_interp(&source),
        _ => {
            let compiled = match lbp::cc::compile_with(&source, &cc_opts) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("lbp-cc: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let dest = args.str(OUTPUT).unwrap_or("-");
            if let Err(e) = cli::write_out(dest, &compiled.asm) {
                eprintln!("lbp-cc: cannot write assembly to `{dest}`: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
    }
}
