//! `lbp-batch` — run a manifest of LBP simulation jobs on a worker pool.
//!
//! ```text
//! lbp-batch MANIFEST.json [--workers N] [--out FILE]
//! lbp-batch MANIFEST.json --state-dir DIR [service options]
//! ```
//!
//! Without `--state-dir`, results stream to `--out` (default stdout) as
//! `lbp-batch-v1` JSONL, one line per manifest job; a human summary
//! goes to stderr. With `--state-dir`, the run is the crash-recoverable
//! *service*: every job transition is journaled durably under DIR, long
//! jobs checkpoint periodically, and killing the process at any instant
//! loses nothing — rerun the same command and the sweep resumes where
//! the journal says it stood, finishing with `DIR/results.jsonl`
//! byte-identical to an uninterrupted run.
//!
//! `lbp-batch --help` prints the flag table with the mode (one-shot or
//! service) each flag belongs to. Exit code 0 when every job reached a
//! verdict (even a failing one — its line says so), 1 on
//! manifest/front-end/state-dir problems, 2 on usage errors, 86 when an
//! injected crash point fired; a closed stdout cuts the stream short:
//! exit 1, quietly. The rest is one [`Outcome`], written at the end.

#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lbp_batch::service::ServiceOptions;
use lbp_sim::cli::{self, Args, Flag, Grammar, Outcome, Positional, ALL_MODES};
use lbp_sim::ExitClass;

const BATCH: u32 = 1 << 0;
const SERVICE: u32 = 1 << 1;

lbp_sim::flags! { FLAGS:
    WORKERS = Flag::new("--workers", &["N"], ALL_MODES,
        "worker threads (default: available parallelism)");
    OUT = Flag::new("--out", &["FILE"], BATCH,
        "write results to FILE instead of stdout");
    STATE_DIR = Flag::new("--state-dir", &["DIR"], SERVICE,
        "durable journal + checkpoints under DIR; results land\n\
         in DIR/results.jsonl; rerunning resumes an\n\
         interrupted sweep").selects(SERVICE);
    MAX_ATTEMPTS = Flag::new("--max-attempts", &["N"], SERVICE,
        "attempts before a job is quarantined (default 3)");
    QUEUE_CAP = Flag::new("--queue-cap", &["N"], SERVICE,
        "distinct jobs admitted, rest shed as `rejected`\n\
         backpressure (default 0 = unbounded)");
    CHECKPOINT_EVERY = Flag::new("--checkpoint-every", &["N"], SERVICE,
        "cycles between checkpoints (default 250000; 0 disables)");
    SLICE = Flag::new("--slice", &["N"], SERVICE,
        "cycles between watchdog polls (default 10000)");
    WALL_MS = Flag::new("--wall-ms", &["MS"], SERVICE,
        "per-attempt wall-clock budget; a cancelled attempt\n\
         retries with backoff (default 0 = off)");
    BACKOFF_MS = Flag::new("--backoff-ms", &["MS"], SERVICE,
        "retry backoff base (default 10)");
    CRASH_AFTER_APPENDS = Flag::new("--crash-after-appends", &["N"], SERVICE,
        "TEST HOOK: exit 86 after the Nth journal append\n\
         (crash injection for the soak suite)");
    CRASH_TORN = Flag::new("--crash-torn", &[], SERVICE,
        "TEST HOOK: also leave a torn half-record at the\n\
         journal tail").requires(&[CRASH_AFTER_APPENDS]);
}

static GRAMMAR: Grammar = Grammar {
    tool: "lbp-batch",
    synopsis: &[
        "lbp-batch MANIFEST.json [--workers N] [--out FILE]",
        "lbp-batch MANIFEST.json --state-dir DIR [service options]",
    ],
    about: "Runs every job in an lbp-batch-manifest-v1 file across a worker\n\
            pool, streaming one lbp-batch-v1 JSONL result line per job.",
    modes: &[
        ("batch", "one shot: results stream to --out"),
        ("service", "crash-recoverable: journaled under DIR"),
    ],
    positional: Positional::one("MANIFEST.json", ALL_MODES, ALL_MODES),
    flags: FLAGS,
    footer: "exit codes: 0 every job reached a verdict, 1 manifest/front-end/\n\
             state-dir failure, 2 usage, 86 an injected crash point fired",
};

/// The service's policy knobs, each flag at least `min`.
fn service_options(args: &Args, workers: usize) -> Result<ServiceOptions, String> {
    let at_least = |flag: &Flag, min: u64, default: u64| match args.get::<u64>(flag)? {
        Some(n) if n < min => Err(format!("`{}` must be at least {min}", flag.name)),
        n => Ok(n.unwrap_or(default)),
    };
    let max_attempts = at_least(MAX_ATTEMPTS, 1, 3)?;
    Ok(ServiceOptions {
        workers,
        max_attempts: u32::try_from(max_attempts)
            .map_err(|_| format!("`{}` is too large", MAX_ATTEMPTS.name))?,
        queue_cap: at_least(QUEUE_CAP, 0, 0)? as usize,
        checkpoint_every: at_least(CHECKPOINT_EVERY, 0, 250_000)?,
        slice: at_least(SLICE, 1, 10_000)?,
        wall_ms: at_least(WALL_MS, 0, 0)?,
        backoff_ms: at_least(BACKOFF_MS, 0, 10)?,
        crash_after_appends: args.get(CRASH_AFTER_APPENDS)?,
        crash_torn: args.has(CRASH_TORN),
    })
}

/// Runs the manifest the command line names: the service under
/// `--state-dir`, else one shot streaming to `--out`.
fn run(args: &Args, o: &mut Outcome) -> Result<(), ExitClass> {
    let workers = match args.get::<usize>(WORKERS) {
        Ok(Some(0)) => return Err(o.refuse(&format!("`{}` must be at least 1", WORKERS.name))),
        Ok(n) => n.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        Err(what) => return Err(o.refuse(&what)),
    };
    let service = service_options(args, workers).map_err(|what| o.refuse(&what))?;
    let failure = ExitClass::Failure;
    let manifest = Path::new(&args.positional()[0]);
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| o.fail(failure, format!("cannot read {}: {e}", manifest.display())))?;
    let base = manifest
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let jobs = lbp_batch::load_manifest(&text, &base).map_err(|e| o.fail(failure, e))?;
    let started = std::time::Instant::now();
    if let Some(dir) = args.str(STATE_DIR).map(Path::new) {
        let r = lbp_batch::service::run_service(&text, &jobs, dir, &service)
            .map_err(|e| o.fail(failure, e))?;
        o.note(format!(
            "epoch {}: {} jobs ({} admitted, {} rejected, {} failed, {} quarantined) — {} \
             attempts ({} resumed, {} retries) on {} workers in {:.2?}; results in {}",
            r.epoch,
            r.jobs,
            r.admitted,
            r.rejected,
            r.failed,
            r.quarantined,
            r.attempted,
            r.resumed,
            r.retries,
            workers,
            started.elapsed(),
            dir.join("results.jsonl").display()
        ));
        return Ok(());
    }
    let out = args.str(OUT).unwrap_or("-");
    let out =
        cli::open_out(out).map_err(|e| o.fail(failure, format!("cannot create {out}: {e}")))?;
    let s = lbp_batch::run_batch(&jobs, workers, out)
        .map_err(|e| o.stream_failed("writing results failed", &e))?;
    o.note(format!(
        "{} jobs ({} unique, {} failed) on {} workers in {:.2?}",
        s.jobs,
        s.unique,
        s.failed,
        workers,
        started.elapsed()
    ));
    Ok(())
}

fn main() -> ExitCode {
    GRAMMAR.outcome(run).finish()
}
