//! `lbp-fuzz` — seeded conformance fuzzing of the LBP stack.
//!
//! ```text
//! lbp-fuzz --seed N [--count N] [--kinds seq,mem,fork,c] [--corpus DIR]
//! lbp-fuzz --help
//! ```
//!
//! Verdicts stream to `--out` (default stdout) as `lbp-fuzz-v1` JSONL;
//! a human summary goes to stderr. The stream and any corpus written
//! are byte-identical for identical arguments. Exit code 0 when every
//! case passed, 3 when any oracle tripped, 2 on usage errors, 1 on I/O
//! problems.

use lbp_fuzz::gen::{Kind, Sabotage};
use lbp_fuzz::FuzzOptions;
use lbp_sim::cli::{self, Args, Flag, Grammar, Positional, ALL_MODES};
use lbp_sim::ExitClass;

lbp_sim::flags! { FLAGS:
    SEED = Flag::new("--seed", &["N"], ALL_MODES, "master seed (required)");
    COUNT = Flag::new("--count", &["N"], ALL_MODES, "cases to run (default 20)");
    SKIP = Flag::new("--skip", &["N"], ALL_MODES,
        "first case index (replay: --skip I --count 1)");
    CORPUS = Flag::new("--corpus", &["DIR"], ALL_MODES, "persist failing cases under DIR");
    KINDS = Flag::new("--kinds", &["LIST"], ALL_MODES,
        "comma list of seq,mem,fork,c (default: all)");
    MAX_TEAM = Flag::new("--max-team", &["N"], ALL_MODES,
        "fork-tree team-size cap, 2..=256 (default 32)");
    MAX_CORES = Flag::new("--max-cores", &["N"], ALL_MODES,
        "machine-size cap in cores, 1..=64 (default 8)");
    SABOTAGE = Flag::new("--sabotage", &["KIND"], ALL_MODES,
        "plant a known bug: wild-store | hang |\n\
         codegen:chunk-bounds | codegen:index-shift |\n\
         codegen:const-fold (miscompilations only the\n\
         semantics oracle can catch)");
    SHRINK_ATTEMPTS = Flag::new("--shrink-attempts", &["N"], ALL_MODES,
        "shrink budget per failure, 0 = off (default 200)");
    OUT = Flag::new("--out", &["FILE"], ALL_MODES,
        "write the JSONL stream to FILE instead of stdout");
}

static GRAMMAR: Grammar = Grammar {
    tool: "lbp-fuzz",
    synopsis: &["lbp-fuzz --seed N [options]"],
    about: "Generates seeded PISC/Deterministic-OpenMP programs and checks each\n\
            against the oracle battery (build, verify, run, determinism,\n\
            race-witness, snapshot round-trip, cross-process resume,\n\
            lockstep, hybrid fast-forward, executable semantics), shrinking\n\
            and persisting any failure. Identical arguments produce\n\
            byte-identical output.",
    modes: &[("fuzz", "")],
    positional: Positional::one("", 0, 0),
    flags: FLAGS,
    footer: "exit codes: 0 every case passed, 3 an oracle tripped, 2 usage, 1 I/O",
};

/// Hidden helper mode behind the cross-process resume oracle:
/// `lbp-fuzz --resume-worker SNAP MAX_CYCLES` restores SNAP in this
/// fresh process, runs it to completion, and prints
/// `"<final-state-hash:016x> <cycles>"` for the parent to compare. Not
/// in the flag table — it is an implementation detail of the oracle,
/// not user surface.
fn resume_worker(snap: &str, max_cycles: &str) -> ! {
    let Ok(max_cycles) = max_cycles.parse::<u64>() else {
        GRAMMAR.refuse("the resume worker wants SNAP MAX_CYCLES")
    };
    let state = match lbp_snap::load(snap) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lbp-fuzz: cannot load snapshot `{snap}`: {e}");
            ExitClass::Failure.exit();
        }
    };
    let mut machine = match lbp_sim::Machine::restore(&state) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("lbp-fuzz: cannot restore snapshot `{snap}`: {e}");
            ExitClass::Failure.exit();
        }
    };
    if let Err(fail) = machine.run_diagnosed(max_cycles) {
        eprintln!("lbp-fuzz: resumed run failed: {}", fail.error);
        ExitClass::Finding.exit();
    }
    println!(
        "{:016x} {}",
        lbp_snap::content_hash(&machine.snapshot()),
        machine.stats().cycles
    );
    ExitClass::Ok.exit();
}

/// The fuzz run the command line describes.
fn fuzz_options(args: &Args) -> Result<FuzzOptions, String> {
    let mut opts = FuzzOptions::default();
    let Some(seed) = args.get(SEED)? else {
        return Err(format!("`{}` is required", SEED.name));
    };
    opts.seed = seed;
    let within = |flag: &Flag, range: std::ops::RangeInclusive<usize>| match args.get(flag)? {
        Some(n) if !range.contains(&n) => Err(format!(
            "`{}` must be within {}..={}",
            flag.name,
            range.start(),
            range.end()
        )),
        n => Ok(n),
    };
    if let Some(n) = args.get(COUNT)? {
        opts.count = n;
    }
    if let Some(n) = args.get(SKIP)? {
        opts.skip = n;
    }
    opts.corpus = args.str(CORPUS).map(Into::into);
    let kinds = args.get_with(KINDS, |list| {
        let kinds: Option<Vec<Kind>> = list.split(',').map(Kind::parse).collect();
        kinds.ok_or("want a comma list of seq,mem,fork,c".to_owned())
    })?;
    if let Some(kinds) = kinds {
        opts.config.kinds = kinds;
    }
    if let Some(n) = within(MAX_TEAM, 2..=256)? {
        opts.config.max_team = n;
    }
    if let Some(n) = within(MAX_CORES, 1..=64)? {
        opts.config.max_cores = n;
    }
    opts.config.sabotage = args.get_with(SABOTAGE, |s| {
        Sabotage::parse(s).ok_or("unknown kind".to_owned())
    })?;
    if let Some(n) = args.get(SHRINK_ATTEMPTS)? {
        opts.shrink_attempts = n;
    }
    Ok(opts)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--resume-worker") {
        match (argv.get(2), argv.get(3)) {
            (Some(snap), Some(max)) => resume_worker(snap, max),
            _ => GRAMMAR.refuse("the resume worker wants SNAP MAX_CYCLES"),
        }
    }
    let args = GRAMMAR.parse_env();
    let mut opts = fuzz_options(&args).unwrap_or_else(|what| GRAMMAR.refuse(&what));
    // The CLI always runs the resume oracle across a real process
    // boundary, re-execing itself as the worker.
    opts.resume_exec = std::env::current_exe().ok();
    let out = args.str(OUT).unwrap_or("-");
    let summary = match cli::open_out(out) {
        Ok(out) => lbp_fuzz::run_fuzz(&opts, out),
        Err(e) => {
            eprintln!("lbp-fuzz: cannot create {out}: {e}");
            ExitClass::Failure.exit();
        }
    };
    match summary {
        Ok(s) => {
            eprintln!(
                "lbp-fuzz: seed {} -> {} case(s), {} passed, {} failed",
                opts.seed,
                s.cases,
                s.passed,
                s.failures.len()
            );
            for (case, class) in &s.failures {
                eprintln!(
                    "lbp-fuzz:   case {case}: {class} (replay: --seed {} --skip {case} --count 1)",
                    opts.seed
                );
            }
            let class = if s.clean() {
                ExitClass::Ok
            } else {
                ExitClass::Finding
            };
            class.exit()
        }
        Err(e) => {
            eprintln!("lbp-fuzz: writing output failed: {e}");
            ExitClass::Failure.exit();
        }
    }
}
