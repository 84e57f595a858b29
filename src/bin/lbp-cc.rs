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
//! simulates and demands the simulator reproduce every global word — a
//! divergence exits 12 and is, by construction, a compiler or simulator
//! bug (`--sabotage codegen:KIND` plants one), and a failed simulation
//! exits with its class, as under `lbp-run`. Every mode runs the front
//! end once and compiles from the unit it built (`--lint` only a program
//! it accepts); `--interp` lays the globals out where that image puts
//! them.

use std::process::ExitCode;

use lbp::asm::Image;
use lbp::cc::sema::Checked;
use lbp::cc::{CcOptions, CodegenSabotage, SourceKind};
use lbp::sema::diff::{diff, required_cores, DiffError};
use lbp::sema::{interp, InterpOptions, Layout};
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
         (chunk-bounds | index-shift | const-fold | end-pointer)");
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
             12 observable divergence (--diff); a failed --diff simulation exits\n\
             4 timeout, 5 deadlock, 6 protocol, 7 decode or 8 memory fault",
};

/// `--interp`, or with a cycle budget `--diff`: the outcome under the
/// executable semantics, then, for `--diff`, the simulated image
/// compared against it.
fn run_semantics(checked: &Checked, image: &Image, max_cycles: Option<u64>) -> ExitCode {
    let opts = InterpOptions::default();
    let ran = match max_cycles {
        None => interp::run(checked, &Layout::from_image(checked, image), &opts)
            .map(|outcome| (outcome, None))
            .map_err(DiffError::Trap),
        Some(max) => diff(checked, image, required_cores(checked), max, &opts)
            .map(|report| (report.outcome, Some(report.cycles))),
    };
    match ran {
        Ok((outcome, simulated)) => {
            print!("{}", outcome.render());
            println!("hash {:016x}", outcome.content_hash());
            if let Some(cycles) = simulated {
                println!("diff:     observables agree (simulated in {cycles} cycles)");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbp-cc: {e}");
            match e {
                DiffError::Trap(_) => ExitClass::Failure,
                DiffError::Sim(sim) => sim.exit_class(),
                DiffError::Divergence(_) => ExitClass::SemanticsDivergence,
            }
            .into()
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
    if args.mode() == LINT {
        return lbp::verdict("lbp-cc", input, &source, args.str(DIAG_JSON)).into();
    }
    // The front end once; the back end compiles from the unit it built.
    let built = lbp::cc::front_end(&source)
        .and_then(|cx| lbp::cc::compile_checked(&cx, &cc_opts).map(|compiled| (cx, compiled)));
    let (checked, compiled) = match built {
        Ok(built) => built,
        Err(e) => {
            eprintln!("lbp-cc: {e}");
            return ExitCode::FAILURE;
        }
    };
    match args.mode() {
        DIFF => run_semantics(&checked, &compiled.image, Some(max_cycles)),
        INTERP => run_semantics(&checked, &compiled.image, None),
        _ => {
            let dest = args.str(OUTPUT).unwrap_or("-");
            if let Err(e) = cli::write_out(dest, &compiled.asm) {
                eprintln!("lbp-cc: cannot write assembly to `{dest}`: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
    }
}
