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
//! Exit code 0 when every job reached a verdict (even a failing one —
//! its line says so), 1 on manifest/front-end/state-dir problems, 2 on
//! usage errors, 86 when an injected crash point fired.

use std::path::PathBuf;

use lbp_batch::service::ServiceOptions;
use lbp_sim::ExitClass;

fn usage() -> ! {
    eprintln!(
        "usage: lbp-batch MANIFEST.json [--workers N] [--out FILE]\n\
         \x20      lbp-batch MANIFEST.json --state-dir DIR [service options]\n\
         \n\
         Runs every job in an lbp-batch-manifest-v1 file across a worker\n\
         pool, streaming one lbp-batch-v1 JSONL result line per job.\n\
         \n\
         --workers N   worker threads (default: available parallelism)\n\
         --out FILE    write results to FILE instead of stdout\n\
         \n\
         Service mode (crash-recoverable; results land in DIR/results.jsonl):\n\
         --state-dir DIR        durable journal + checkpoints under DIR;\n\
         \x20                      rerunning resumes an interrupted sweep\n\
         --max-attempts N       attempts before a job is quarantined (default 3)\n\
         --queue-cap N          distinct jobs admitted, rest shed as\n\
         \x20                      `rejected` backpressure (default 0 = unbounded)\n\
         --checkpoint-every N   cycles between checkpoints (default 250000;\n\
         \x20                      0 disables)\n\
         --slice N              cycles between watchdog polls (default 10000)\n\
         --wall-ms MS           per-attempt wall-clock budget; a cancelled\n\
         \x20                      attempt retries with backoff (default 0 = off)\n\
         --backoff-ms MS        retry backoff base (default 10)\n\
         --crash-after-appends N  TEST HOOK: exit 86 after the Nth journal\n\
         \x20                      append (crash injection for the soak suite)\n\
         --crash-torn           TEST HOOK: with the above, also leave a torn\n\
         \x20                      half-record at the journal tail"
    );
    ExitClass::Usage.exit();
}

struct Options {
    manifest: PathBuf,
    workers: usize,
    out: Option<PathBuf>,
    state_dir: Option<PathBuf>,
    service: ServiceOptions,
}

fn parse_args() -> Options {
    let mut manifest = None;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = None;
    let mut state_dir = None;
    let mut service = ServiceOptions {
        checkpoint_every: 250_000,
        ..ServiceOptions::default()
    };
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>| -> u64 {
        match args.next().and_then(|v| v.parse::<u64>().ok()) {
            Some(n) => n,
            None => usage(),
        }
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => usage(),
            },
            "--out" => match args.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--state-dir" => match args.next() {
                Some(dir) => state_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--max-attempts" => match num(&mut args) {
                n if n >= 1 && n <= u32::MAX as u64 => service.max_attempts = n as u32,
                _ => usage(),
            },
            "--queue-cap" => service.queue_cap = num(&mut args) as usize,
            "--checkpoint-every" => service.checkpoint_every = num(&mut args),
            "--slice" => match num(&mut args) {
                n if n >= 1 => service.slice = n,
                _ => usage(),
            },
            "--wall-ms" => service.wall_ms = num(&mut args),
            "--backoff-ms" => service.backoff_ms = num(&mut args),
            "--crash-after-appends" => service.crash_after_appends = Some(num(&mut args)),
            "--crash-torn" => service.crash_torn = true,
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ if manifest.is_none() => manifest = Some(PathBuf::from(arg)),
            _ => usage(),
        }
    }
    let Some(manifest) = manifest else { usage() };
    if state_dir.is_some() && out.is_some() {
        // Service results are the state dir's; --out would silently
        // split the source of truth.
        usage();
    }
    service.workers = workers;
    Options {
        manifest,
        workers,
        out,
        state_dir,
        service,
    }
}

fn main() {
    let opts = parse_args();
    let text = match std::fs::read_to_string(&opts.manifest) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("lbp-batch: cannot read {}: {e}", opts.manifest.display());
            ExitClass::Failure.exit();
        }
    };
    let base = opts
        .manifest
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let jobs = match lbp_batch::load_manifest(&text, &base) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("lbp-batch: {e}");
            ExitClass::Failure.exit();
        }
    };
    let started = std::time::Instant::now();
    if let Some(dir) = &opts.state_dir {
        match lbp_batch::service::run_service(&text, &jobs, dir, &opts.service) {
            Ok(r) => {
                eprintln!(
                    "lbp-batch: epoch {}: {} jobs ({} admitted, {} rejected, {} failed, \
                     {} quarantined) — {} attempts ({} resumed, {} retries) on {} workers \
                     in {:.2?}; results in {}",
                    r.epoch,
                    r.jobs,
                    r.admitted,
                    r.rejected,
                    r.failed,
                    r.quarantined,
                    r.attempted,
                    r.resumed,
                    r.retries,
                    opts.workers,
                    started.elapsed(),
                    dir.join("results.jsonl").display()
                );
            }
            Err(e) => {
                eprintln!("lbp-batch: {e}");
                ExitClass::Failure.exit();
            }
        }
        return;
    }
    let summary = match &opts.out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => lbp_batch::run_batch(&jobs, opts.workers, std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("lbp-batch: cannot create {}: {e}", path.display());
                ExitClass::Failure.exit();
            }
        },
        None => lbp_batch::run_batch(&jobs, opts.workers, std::io::stdout()),
    };
    match summary {
        Ok(s) => {
            eprintln!(
                "lbp-batch: {} jobs ({} unique, {} failed) on {} workers in {:.2?}",
                s.jobs,
                s.unique,
                s.failed,
                opts.workers,
                started.elapsed()
            );
        }
        Err(e) => {
            eprintln!("lbp-batch: writing results failed: {e}");
            ExitClass::Failure.exit();
        }
    }
}
