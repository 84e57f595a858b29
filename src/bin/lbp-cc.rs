//! `lbp-cc` — the Deterministic OpenMP front end as a standalone tool.
//!
//! ```text
//! lbp-cc program.c                  # compile, print PISC assembly
//! lbp-cc program.c -o program.s     # compile to a file
//! lbp-cc program.c --lint           # static determinism lint, no codegen
//! lbp-cc program.c --lint --diag-json report.json
//! lbp-cc program.c --interp         # run the executable semantics
//! lbp-cc program.c --diff           # interpret AND simulate, compare
//! ```
//!
//! `--lint` runs the source-level determinism analysis: every variable
//! in a parallel region is classified private / shared / reduction, and
//! shared writes that two harts can both reach are rejected with a
//! hart-pair witness and a fix hint. When the source level accepts, the
//! program is also compiled and the binary-level analyses (protocol
//! B-codes and the shared-memory M-pass) run over the generated image,
//! merged into the same report. Diagnostics print to stdout;
//! `--diag-json FILE` additionally writes the machine-readable
//! `lbp-diag-v1` report. A lint rejection exits with code 10, the same
//! verification exit class as `lbp-run --verify`.
//!
//! `--interp` runs the program under lbp-sema's executable semantics —
//! no code generation involved beyond laying globals out where the
//! image would — and prints the canonical observable outcome with its
//! content hash. `--diff` additionally compiles and simulates the
//! program and demands the simulator reproduce every global word of the
//! interpreted outcome; a divergence exits with code 12 (and is, by
//! construction, a compiler or simulator bug). `--sabotage
//! codegen:<kind>` injects a deliberate miscompilation into the
//! compiled side (`chunk-bounds`, `index-shift` or `const-fold`) so the
//! differential harness can be watched catching it.

use std::io::Write as _;
use std::process::ExitCode;

use lbp::sim::ExitClass;

struct Options {
    input: String,
    output: Option<String>,
    lint: bool,
    diag_json: Option<String>,
    interp: bool,
    diff: bool,
    sabotage: Option<lbp::cc::CodegenSabotage>,
    max_cycles: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: lbp-cc <program.c> [options]\n\
         \n\
         options:\n\
           -o FILE            write the generated assembly to FILE ('-' = stdout)\n\
           --lint             run the static determinism lint instead of compiling\n\
           --diag-json FILE   with --lint, write the lbp-diag-v1 report ('-' = stdout)\n\
           --interp           run the executable semantics, print the outcome + hash\n\
           --diff             interpret AND compile-and-simulate, compare observables\n\
           --sabotage codegen:KIND\n\
                              inject a deliberate miscompilation into generated code\n\
                              (chunk-bounds | index-shift | const-fold)\n\
           --max-cycles N     simulation budget for --diff (default 100000000)\n\
         \n\
         exit codes: 0 ok, 1 front-end/I/O, 2 usage, 10 lint rejection,\n\
                     12 observable divergence (--diff)"
    );
    ExitClass::Usage.exit()
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        input: String::new(),
        output: None,
        lint: false,
        diag_json: None,
        interp: false,
        diff: false,
        sabotage: None,
        max_cycles: 100_000_000,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" => opts.output = Some(args.next().unwrap_or_else(|| usage())),
            "--lint" => opts.lint = true,
            "--diag-json" => opts.diag_json = Some(args.next().unwrap_or_else(|| usage())),
            "--interp" => opts.interp = true,
            "--diff" => opts.diff = true,
            "--sabotage" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let kind = spec
                    .strip_prefix("codegen:")
                    .and_then(lbp::cc::CodegenSabotage::parse);
                match kind {
                    Some(k) => opts.sabotage = Some(k),
                    None => {
                        eprintln!("lbp-cc: unknown sabotage `{spec}`");
                        usage()
                    }
                }
            }
            "--max-cycles" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.max_cycles = n.parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            other if opts.input.is_empty() && !other.starts_with('-') => {
                opts.input = other.to_owned();
            }
            _ => usage(),
        }
    }
    if opts.input.is_empty() {
        usage();
    }
    opts
}

/// Opens `path` for output; `-` means stdout.
fn open_out(path: &str) -> std::io::Result<Box<dyn std::io::Write>> {
    if path == "-" {
        Ok(Box::new(std::io::stdout()))
    } else {
        let file = std::fs::File::create(path)?;
        Ok(Box::new(std::io::BufWriter::new(file)))
    }
}

fn write_out(path: &str, text: &str) -> std::io::Result<()> {
    let mut out = open_out(path)?;
    out.write_all(text.as_bytes())?;
    out.flush()
}

fn run_lint(opts: &Options, source: &str) -> ExitCode {
    let mut diags = match lbp::cc::lint(source) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lbp-cc: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Cross-check the source verdict at the binary level: compile the
    // program (when the source lint accepted it) and run the image-level
    // analyses, including the shared-memory M-pass, over the generated
    // code. The two layers speak the same `lbp-diag-v1` format, so the
    // reports merge; line numbers of binary diags refer to the generated
    // assembly, which is why they also carry a `pc`.
    if lbp::verify::accepted(&diags) {
        if let Ok(compiled) = lbp::cc::compile(source) {
            diags.extend(lbp::verify::verify_image(&compiled.image));
            diags.sort_by(|a, b| (a.line, a.code.as_str()).cmp(&(b.line, b.code.as_str())));
        }
    }
    // `--diag-json -` owns stdout: the JSON must stay parseable, so the
    // human-readable rendering is suppressed.
    let json_to_stdout = opts.diag_json.as_deref() == Some("-");
    let ok = lbp::verify::accepted(&diags);
    if !json_to_stdout {
        for d in &diags {
            println!("{d}");
        }
        println!(
            "lint:     {} ({} diagnostic{})",
            if ok { "accepted" } else { "rejected" },
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
    }
    if let Some(path) = &opts.diag_json {
        let text = lbp::verify::report_json(&opts.input, &diags);
        if let Err(e) = write_out(path, &text) {
            eprintln!("lbp-cc: cannot write diag JSON to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        if path != "-" {
            println!("diags:    {path}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitClass::Rejected.into()
    }
}

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

fn run_diff(opts: &Options, source: &str) -> ExitCode {
    let cc_opts = lbp::cc::CcOptions {
        sabotage: opts.sabotage,
    };
    match lbp::sema::diff::diff_source_with(
        source,
        &cc_opts,
        None,
        opts.max_cycles,
        &Default::default(),
    ) {
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
    let opts = parse_args();
    if !opts.input.ends_with(".c") {
        eprintln!("lbp-cc: input must be a `.c` file, got `{}`", opts.input);
        return ExitClass::Usage.into();
    }
    let source = match std::fs::read_to_string(&opts.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lbp-cc: cannot read `{}`: {e}", opts.input);
            return ExitClass::Usage.into();
        }
    };
    if opts.lint {
        return run_lint(&opts, &source);
    }
    if opts.diff {
        return run_diff(&opts, &source);
    }
    if opts.interp {
        return run_interp(&source);
    }
    let compiled = match lbp::cc::compile_with(
        &source,
        &lbp::cc::CcOptions {
            sabotage: opts.sabotage,
        },
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lbp-cc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dest = opts.output.as_deref().unwrap_or("-");
    if let Err(e) = write_out(dest, &compiled.asm) {
        eprintln!("lbp-cc: cannot write assembly to `{dest}`: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
