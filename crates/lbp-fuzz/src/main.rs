//! `lbp-fuzz` — seeded conformance fuzzing of the LBP stack.
//!
//! ```text
//! lbp-fuzz --seed N [--count N] [--skip N] [--corpus DIR]
//!          [--kinds seq,mem,fork,c] [--max-team N] [--max-cores N]
//!          [--sabotage wild-store|hang|codegen:<kind>]
//!          [--shrink-attempts N] [--out FILE]
//! ```
//!
//! Verdicts stream to `--out` (default stdout) as `lbp-fuzz-v1` JSONL;
//! a human summary goes to stderr. The stream and any corpus written
//! are byte-identical for identical arguments. Exit code 0 when every
//! case passed, 3 when any oracle tripped, 2 on usage errors, 1 on I/O
//! problems.

use std::path::PathBuf;

use lbp_fuzz::gen::{Kind, Sabotage};
use lbp_fuzz::FuzzOptions;
use lbp_sim::ExitClass;

fn usage() -> ! {
    eprintln!(
        "usage: lbp-fuzz --seed N [--count N] [--skip N] [--corpus DIR]\n\
         \x20                [--kinds LIST] [--max-team N] [--max-cores N]\n\
         \x20                [--sabotage KIND] [--shrink-attempts N] [--out FILE]\n\
         \n\
         Generates seeded PISC/Deterministic-OpenMP programs and checks each\n\
         against the oracle battery (build, verify, run, determinism,\n\
         race-witness, snapshot round-trip, cross-process resume,\n\
         lockstep, hybrid fast-forward, executable semantics), shrinking\n\
         and persisting any failure. Identical arguments produce\n\
         byte-identical output.\n\
         \n\
         --seed N             master seed (required)\n\
         --count N            cases to run (default 20)\n\
         --skip N             first case index (replay: --skip I --count 1)\n\
         --corpus DIR         persist failing cases under DIR\n\
         --kinds LIST         comma list of seq,mem,fork,c (default: all)\n\
         --max-team N         fork-tree team-size cap (default 32)\n\
         --max-cores N        machine-size cap in cores (default 8)\n\
         --sabotage KIND      plant a known bug: wild-store | hang |\n\
         \x20                    codegen:chunk-bounds | codegen:index-shift |\n\
         \x20                    codegen:const-fold (miscompilations only the\n\
         \x20                    semantics oracle can catch)\n\
         --shrink-attempts N  shrink budget per failure, 0 = off (default 200)\n\
         --out FILE           write the JSONL stream to FILE instead of stdout"
    );
    ExitClass::Usage.exit();
}

/// Hidden helper mode behind the cross-process resume oracle:
/// `lbp-fuzz --resume-worker SNAP MAX_CYCLES` restores SNAP in this
/// fresh process, runs it to completion, and prints
/// `"<final-state-hash:016x> <cycles>"` for the parent to compare. Not
/// documented in `usage()` — it is an implementation detail of the
/// oracle, not user surface.
fn resume_worker(snap: &str, max_cycles: &str) -> ! {
    let Ok(max_cycles) = max_cycles.parse::<u64>() else {
        usage()
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

fn parse_args() -> (FuzzOptions, Option<PathBuf>) {
    let mut seed = None;
    let mut opts = FuzzOptions::default();
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = Some(v),
                None => usage(),
            },
            "--count" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.count = v,
                None => usage(),
            },
            "--skip" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.skip = v,
                None => usage(),
            },
            "--corpus" => match args.next() {
                Some(p) => opts.corpus = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--kinds" => match args.next() {
                Some(list) => {
                    let kinds: Option<Vec<Kind>> = list.split(',').map(Kind::parse).collect();
                    match kinds {
                        Some(kinds) if !kinds.is_empty() => opts.config.kinds = kinds,
                        _ => usage(),
                    }
                }
                None => usage(),
            },
            "--max-team" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if (2..=256).contains(&v) => opts.config.max_team = v,
                _ => usage(),
            },
            "--max-cores" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if (1..=64).contains(&v) => opts.config.max_cores = v,
                _ => usage(),
            },
            "--sabotage" => match args.next().as_deref().and_then(Sabotage::parse) {
                Some(s) => opts.config.sabotage = Some(s),
                None => usage(),
            },
            "--shrink-attempts" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.shrink_attempts = v,
                None => usage(),
            },
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(seed) = seed else { usage() };
    opts.seed = seed;
    (opts, out)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--resume-worker") {
        match (argv.get(2), argv.get(3)) {
            (Some(snap), Some(max)) => resume_worker(snap, max),
            _ => usage(),
        }
    }
    let (mut opts, out) = parse_args();
    // The CLI always runs the resume oracle across a real process
    // boundary, re-execing itself as the worker.
    opts.resume_exec = std::env::current_exe().ok();
    let summary = match &out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => lbp_fuzz::run_fuzz(&opts, std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("lbp-fuzz: cannot create {}: {e}", path.display());
                ExitClass::Failure.exit();
            }
        },
        None => lbp_fuzz::run_fuzz(&opts, std::io::stdout().lock()),
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
