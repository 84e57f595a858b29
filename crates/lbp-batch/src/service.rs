//! The crash-recoverable batch service.
//!
//! [`run_service`] runs a manifest the way [`crate::run_batch`] does —
//! dedup groups on a worker pool — but against a *state directory*
//! whose durable write-ahead journal (see [`crate::journal`]) records
//! every job transition before it is acted on. Kill the process at any
//! instant (`kill -9` included) and a restart replays the journal,
//! resumes interrupted jobs from their newest loadable checkpoint,
//! charges crashed attempts against the retry budget, and finishes the
//! sweep; because each job's result line is a pure function of the job,
//! the final `results.jsonl` is byte-identical to an uninterrupted run.
//!
//! ## State directory layout
//!
//! ```text
//! <state>/journal.jsonl   the lbp-batch-journal-v1 write-ahead log
//! <state>/ck/             periodic lbp-snap checkpoints (2 newest/job)
//! <state>/dumps/          lbp-dump-v1 reports for failed/cancelled attempts
//! <state>/results.jsonl   lbp-batch-v1 lines, manifest order (on completion)
//! <state>/bench.jsonl     lbp-prof-v1 p50/p99 job-latency rows
//! ```
//!
//! ## Policies
//!
//! * **Retry.** An attempt that dies with the process, is cancelled by
//!   the wall-clock watchdog, or hits host-side I/O counts against the
//!   job's attempt budget; the job requeues with deterministic bounded
//!   backoff (`backoff_ms << (attempt-1)`, capped). Deterministic
//!   verdicts — compile/config errors, simulation faults, the cycle
//!   budget — are *permanent*: retrying a deterministic machine cannot
//!   change them.
//! * **Quarantine.** A job still without a deterministic verdict after
//!   `max_attempts` attempts is poison: it gets a final
//!   `status:"quarantined"` line instead of blocking the sweep forever.
//! * **Backpressure.** At most `queue_cap` *distinct* jobs are admitted
//!   (0 = unbounded); the rest are shed at admission with a final
//!   `status:"rejected"` backpressure line. Admission is decided once,
//!   in manifest order, and journaled — a restart never re-litigates it.
//! * **Watchdogs.** The cycle budget (`max_cycles`, a property of the
//!   job) ends a run deterministically as `status:"timeout"`. The
//!   wall-clock budget (`wall_ms`, a property of the host) cancels an
//!   attempt cooperatively at a cycle boundary and still writes a valid
//!   `lbp-dump-v1` report of the machine at the cancellation point.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lbp_sim::{Json, Machine, MachineState, Watch, Watched};

use crate::journal::{Journal, JournalError, Rec};
use crate::{compile, job_hash, machine_for, profile_summary, result_line};
use crate::{BatchJob, JobOutcome};

/// Exit code of a process that died at its crash-injection point (the
/// `--crash-after-appends` test hook): distinguishes an injected crash
/// from real failures in the soak harness.
pub const CRASH_EXIT: i32 = 86;

/// Checkpoint files kept per job (newest first); older ones are pruned.
const CHECKPOINTS_KEPT: usize = 2;

/// Longest deterministic backoff an attempt can wait, in milliseconds.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Tuning and policy knobs for [`run_service`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Attempts a job may spend before quarantine (at least 1).
    pub max_attempts: u32,
    /// Distinct jobs admitted before shedding; 0 means unbounded.
    pub queue_cap: usize,
    /// Cycles between checkpoints; 0 disables checkpointing.
    pub checkpoint_every: u64,
    /// Cycles simulated between watchdog polls (cancellation latency).
    pub slice: u64,
    /// Per-attempt wall-clock budget in milliseconds; 0 disables it.
    pub wall_ms: u64,
    /// Base of the deterministic retry backoff, in milliseconds.
    pub backoff_ms: u64,
    /// Crash-injection test hook: exit with [`CRASH_EXIT`] immediately
    /// after the Nth journal append of this process.
    pub crash_after_appends: Option<u64>,
    /// With `crash_after_appends`, also leave a torn half-record at the
    /// journal tail, as a crash mid-append would.
    pub crash_torn: bool,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            workers: 1,
            max_attempts: 3,
            queue_cap: 0,
            checkpoint_every: 0,
            slice: 10_000,
            wall_ms: 0,
            backoff_ms: 10,
            crash_after_appends: None,
            crash_torn: false,
        }
    }
}

/// A failure that aborts the service (job failures never do — they land
/// in result lines).
#[derive(Debug)]
pub enum ServiceError {
    /// The journal could not be opened, replayed, or appended to.
    Journal(JournalError),
    /// A state-directory file operation failed.
    Io(std::io::Error),
    /// The state directory contradicts this invocation (different
    /// manifest, admission records that do not replay, …).
    State(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Journal(e) => write!(f, "{e}"),
            ServiceError::Io(e) => write!(f, "state-directory i/o failed: {e}"),
            ServiceError::State(what) => write!(f, "state directory mismatch: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<JournalError> for ServiceError {
    fn from(e: JournalError) -> ServiceError {
        ServiceError::Journal(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> ServiceError {
        ServiceError::Io(e)
    }
}

/// What a finished (or resumed-and-finished) service run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReport {
    /// Jobs in the manifest (== lines in `results.jsonl`).
    pub jobs: usize,
    /// Distinct jobs admitted to the queue.
    pub admitted: usize,
    /// Manifest jobs shed at admission (backpressure).
    pub rejected: usize,
    /// Result lines whose status is not `ok`.
    pub failed: usize,
    /// Jobs quarantined as poison.
    pub quarantined: usize,
    /// Attempts run by *this* process (0 when the sweep was already
    /// complete in the journal).
    pub attempted: u64,
    /// Attempts this process resumed from a checkpoint.
    pub resumed: u64,
    /// Transient failures journaled by this process.
    pub retries: u64,
    /// This run's epoch: 0 for a fresh state directory, +1 per restart.
    pub epoch: u64,
}

/// Admission verdict for one manifest job, a pure function of manifest
/// order and `queue_cap` — which is what lets a restart recompute and
/// verify it instead of trusting partial journal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// The job is its dedup group's representative and will simulate.
    Run,
    /// Satisfied by the representative at this manifest index.
    Dup(usize),
    /// Shed: the queue already held `queue_cap` distinct jobs (the
    /// whole dedup group is shed with it — a rejected representative
    /// cannot satisfy anyone).
    Shed,
}

fn admit(hashes: &[u64], cap: usize) -> Vec<Admission> {
    let mut groups: HashMap<u64, Option<usize>> = HashMap::new();
    let mut reps = 0usize;
    hashes
        .iter()
        .enumerate()
        .map(|(i, &h)| match groups.get(&h) {
            Some(Some(rep)) => Admission::Dup(*rep),
            Some(None) => Admission::Shed,
            None => {
                if cap != 0 && reps >= cap {
                    groups.insert(h, None);
                    Admission::Shed
                } else {
                    groups.insert(h, Some(i));
                    reps += 1;
                    Admission::Run
                }
            }
        })
        .collect()
}

/// The admission record the journal must hold for manifest job `i`.
fn admission_rec(jobs: &[BatchJob], hashes: &[u64], admission: &[Admission], i: usize) -> Rec {
    match admission[i] {
        Admission::Shed => Rec::Rejected {
            id: jobs[i].id.clone(),
        },
        Admission::Run => Rec::Queued {
            id: jobs[i].id.clone(),
            job: hashes[i],
            dedup_of: None,
        },
        Admission::Dup(rep) => Rec::Queued {
            id: jobs[i].id.clone(),
            job: hashes[i],
            dedup_of: Some(jobs[rep].id.clone()),
        },
    }
}

/// Everything a journal replay says about where the sweep stands.
#[derive(Debug, Default)]
struct Recovered {
    /// Epochs already started (== the `Start` records seen).
    epoch: u64,
    /// Admission records already journaled (a prefix of the manifest).
    admitted_prefix: usize,
    /// Highest attempt each job has *started*. Any started attempt that
    /// did not reach `Final` was spent — on a transient failure or with
    /// the process — so the next attempt is this plus one.
    attempts: HashMap<String, u32>,
    /// Checkpoints journaled per job, oldest first.
    checkpoints: HashMap<String, Vec<(u64, String)>>,
    /// Final result lines (no trailing newline) per finalized job.
    finals: HashMap<String, String>,
    /// Finalizing-attempt latencies from earlier epochs, recovered from
    /// the `t_us` of each `Final` and its same-epoch `Running`.
    latencies_us: Vec<u64>,
}

/// Folds a replayed journal into the sweep's recovered state. Pure, so
/// the crash-ordering corner cases are unit-testable without a process
/// to kill.
fn recover(recs: &[Rec]) -> Recovered {
    let mut r = Recovered::default();
    // id -> (epoch, t_us) of its most recent `Running`. Timestamps are
    // only comparable within one epoch (each process restarts its
    // clock), so a `Final` in a later epoch yields no latency sample.
    let mut running: HashMap<String, (u64, u64)> = HashMap::new();
    for rec in recs {
        match rec {
            Rec::Start { .. } => r.epoch += 1,
            Rec::Manifest { .. } => {}
            Rec::Queued { .. } | Rec::Rejected { .. } => r.admitted_prefix += 1,
            Rec::Running { id, attempt, t_us } => {
                let spent = r.attempts.entry(id.clone()).or_insert(0);
                *spent = (*spent).max(*attempt);
                running.insert(id.clone(), (r.epoch, *t_us));
            }
            // A `Transient` means its attempt's `Running` was journaled
            // first; the attempt counter already covers it.
            Rec::Transient { .. } => {}
            Rec::Checkpoint { id, cycle, file } => r
                .checkpoints
                .entry(id.clone())
                .or_default()
                .push((*cycle, file.clone())),
            Rec::Final { id, line, t_us, .. } => {
                if let Some(&(epoch, started)) = running.get(id) {
                    if epoch == r.epoch && *t_us >= started {
                        r.latencies_us.push((*t_us - started).max(1));
                    }
                }
                r.finals.insert(id.clone(), line.clone());
            }
        }
    }
    r
}

/// Rewrites a representative's result line into its dedup twin's: same
/// verdict, the twin's `id`, `dedup_of` naming the representative.
/// Byte-equal to rendering the twin directly (the JSON writer is
/// canonical and floats round-trip), which `rewritten_twin_lines_match`
/// pins.
fn twin_line(rep_line: &str, twin_id: &str, rep_id: &str) -> Option<String> {
    let mut v = Json::parse(rep_line).ok()?;
    let Json::Obj(pairs) = &mut v else {
        return None;
    };
    let mut seen = 0;
    for (k, val) in pairs.iter_mut() {
        if k == "id" {
            *val = Json::Str(twin_id.to_owned());
            seen += 1;
        } else if k == "dedup_of" {
            *val = Json::Str(rep_id.to_owned());
            seen += 1;
        }
    }
    (seen == 2).then(|| {
        let mut line = String::new();
        v.write(&mut line);
        line
    })
}

/// The journal plus the crash-injection hook. Crashing *after* the
/// append commits models a process killed between an acknowledged
/// transition and its next step; the torn variant additionally leaves
/// the half-written line a mid-append kill would.
struct HookedJournal {
    j: Journal,
    appends: u64,
    crash_after: Option<u64>,
    crash_torn: bool,
}

impl HookedJournal {
    fn append(&mut self, rec: &Rec) -> Result<(), JournalError> {
        self.j.append(rec)?;
        self.appends += 1;
        if Some(self.appends) == self.crash_after {
            if self.crash_torn {
                let torn = std::fs::OpenOptions::new()
                    .append(true)
                    .open(self.j.path())
                    .and_then(|mut f| f.write_all(br#"{"schema":"lbp-batch-journal-v1","seq":99"#));
                let _ = torn;
            }
            std::process::exit(CRASH_EXIT);
        }
        Ok(())
    }
}

/// One queued unit of work: a representative's next attempt.
struct QueueItem {
    idx: usize,
    attempt: u32,
    not_before: Option<Instant>,
}

/// State the worker pool shares under one lock.
struct Inner {
    journal: HookedJournal,
    queue: std::collections::VecDeque<QueueItem>,
    /// Representatives not yet final; workers exit when it hits 0.
    outstanding: usize,
    /// Final lines (no trailing newline) by manifest index.
    finals: HashMap<usize, String>,
    /// Checkpoints per representative index, oldest first.
    checkpoints: HashMap<usize, Vec<(u64, String)>>,
    latencies_us: Vec<u64>,
    attempted: u64,
    resumed: u64,
    retries: u64,
    quarantined: usize,
    fatal: Option<ServiceError>,
}

struct Shared<'a> {
    jobs: &'a [BatchJob],
    hashes: &'a [u64],
    opts: &'a ServiceOptions,
    ck_dir: PathBuf,
    dump_dir: PathBuf,
    t0: Instant,
    inner: Mutex<Inner>,
}

impl Shared<'_> {
    fn t_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }
}

/// Runs (or, against a populated state directory, *finishes*) a sweep.
///
/// `manifest_text` is the raw manifest the jobs were loaded from; its
/// content hash pins the state directory to one manifest. On
/// completion `results.jsonl` holds one `lbp-batch-v1` line per
/// manifest job, in manifest order, and `bench.jsonl` the epoch's
/// p50/p99 job-latency rows.
///
/// # Errors
///
/// Journal damage beyond torn-tail recovery, a state directory pinned
/// to a different manifest, or state-directory I/O failures. Job
/// failures are verdicts, not errors.
pub fn run_service(
    manifest_text: &str,
    jobs: &[BatchJob],
    state_dir: &Path,
    opts: &ServiceOptions,
) -> Result<ServiceReport, ServiceError> {
    std::fs::create_dir_all(state_dir)?;
    let ck_dir = state_dir.join("ck");
    let dump_dir = state_dir.join("dumps");
    std::fs::create_dir_all(&ck_dir)?;
    std::fs::create_dir_all(&dump_dir)?;

    let hashes: Vec<u64> = jobs.iter().map(job_hash).collect();
    let admission = admit(&hashes, opts.queue_cap);
    let mhash = lbp_snap::fnv1a64(manifest_text.as_bytes());

    let (journal, replayed) = Journal::open(state_dir.join("journal.jsonl"))?;
    let recovered = recover(&replayed);

    // Pin the directory to this manifest before trusting anything else.
    for rec in &replayed {
        if let Rec::Manifest { mhash: m, jobs: n } = rec {
            if *m != mhash || *n != jobs.len() as u64 {
                return Err(ServiceError::State(format!(
                    "journal serves manifest {m:016x} ({n} jobs), this invocation \
                     loaded {mhash:016x} ({} jobs)",
                    jobs.len()
                )));
            }
        }
    }
    // Journaled admission decisions must replay exactly (they are a
    // pure function of the manifest, so any divergence is damage).
    if recovered.admitted_prefix > jobs.len() {
        return Err(ServiceError::State(format!(
            "journal admits {} jobs, manifest has {}",
            recovered.admitted_prefix,
            jobs.len()
        )));
    }
    {
        let mut seen = 0;
        for rec in &replayed {
            if matches!(rec, Rec::Queued { .. } | Rec::Rejected { .. }) {
                let want = admission_rec(jobs, &hashes, &admission, seen);
                if *rec != want {
                    return Err(ServiceError::State(format!(
                        "journaled admission for manifest job {seen} does not replay \
                         (journal {rec:?}, expected {want:?})"
                    )));
                }
                seen += 1;
            }
        }
    }

    let mut journal = HookedJournal {
        j: journal,
        appends: 0,
        crash_after: opts.crash_after_appends,
        crash_torn: opts.crash_torn,
    };
    let epoch = recovered.epoch;
    journal.append(&Rec::Start { epoch })?;
    if !replayed.iter().any(|r| matches!(r, Rec::Manifest { .. })) {
        journal.append(&Rec::Manifest {
            mhash,
            jobs: jobs.len() as u64,
        })?;
    }
    // Finish (or start) admission where the journal left off.
    for i in recovered.admitted_prefix..jobs.len() {
        journal.append(&admission_rec(jobs, &hashes, &admission, i))?;
    }

    // Seed the worker state from the recovery fold.
    let mut inner = Inner {
        journal,
        queue: std::collections::VecDeque::new(),
        outstanding: 0,
        finals: HashMap::new(),
        checkpoints: HashMap::new(),
        latencies_us: recovered.latencies_us.clone(),
        attempted: 0,
        resumed: 0,
        retries: 0,
        quarantined: 0,
        fatal: None,
    };
    let max_attempts = opts.max_attempts.max(1);
    let mut admitted = 0usize;
    for (i, a) in admission.iter().enumerate() {
        if !matches!(a, Admission::Run) {
            continue;
        }
        admitted += 1;
        let id = &jobs[i].id;
        if let Some(line) = recovered.finals.get(id) {
            inner.finals.insert(i, line.clone());
            if line.contains("\"status\":\"quarantined\"") {
                inner.quarantined += 1;
            }
            continue;
        }
        if let Some(cks) = recovered.checkpoints.get(id) {
            inner.checkpoints.insert(i, cks.clone());
        }
        let next_attempt = recovered.attempts.get(id).copied().unwrap_or(0) + 1;
        if next_attempt > max_attempts {
            // Poison found at recovery: every attempt died with a
            // process or failed transiently. Quarantine it now.
            let outcome = JobOutcome::Quarantined {
                attempts: max_attempts,
            };
            let line = rep_line(&jobs[i], hashes[i], &outcome);
            inner.journal.append(&Rec::Final {
                id: id.clone(),
                line: line.clone(),
                ok: false,
                cycles: 0,
                t_us: 0,
            })?;
            inner.finals.insert(i, line);
            inner.quarantined += 1;
            continue;
        }
        inner.outstanding += 1;
        inner.queue.push_back(QueueItem {
            idx: i,
            attempt: next_attempt,
            not_before: None,
        });
    }

    let shared = Shared {
        jobs,
        hashes: &hashes,
        opts,
        ck_dir,
        dump_dir,
        t0: Instant::now(),
        inner: Mutex::new(inner),
    };
    let workers = opts.workers.max(1).min(jobs.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker(&shared));
        }
    });

    let mut inner = shared.inner.into_inner().unwrap();
    if let Some(e) = inner.fatal.take() {
        return Err(e);
    }

    drain(state_dir, jobs, &hashes, &admission, &inner, opts, epoch)?;
    let failed = (0..jobs.len())
        .filter(|&i| match admission[i] {
            Admission::Shed => true,
            Admission::Run => !is_ok_line(&inner.finals[&i]),
            Admission::Dup(rep) => !is_ok_line(&inner.finals[&rep]),
        })
        .count();
    Ok(ServiceReport {
        jobs: jobs.len(),
        admitted,
        rejected: admission
            .iter()
            .filter(|a| matches!(a, Admission::Shed))
            .count(),
        failed,
        quarantined: inner.quarantined,
        attempted: inner.attempted,
        resumed: inner.resumed,
        retries: inner.retries,
        epoch,
    })
}

fn is_ok_line(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|v| v.get("status").and_then(Json::as_str).map(str::to_owned))
        .is_some_and(|s| s == "ok")
}

/// A representative's own result line (no trailing newline).
fn rep_line(job: &BatchJob, hash: u64, outcome: &JobOutcome) -> String {
    let mut line = result_line(job, hash, None, outcome);
    line.truncate(line.trim_end_matches('\n').len());
    line
}

fn worker(shared: &Shared<'_>) {
    loop {
        let item = {
            let mut g = shared.inner.lock().unwrap();
            if g.outstanding == 0 || g.fatal.is_some() {
                return;
            }
            g.queue.pop_front()
        };
        let Some(item) = item else {
            // Work is outstanding but claimed by other workers.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        if let Some(at) = item.not_before {
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
        }
        if let Err(e) = run_attempt(shared, item.idx, item.attempt) {
            let mut g = shared.inner.lock().unwrap();
            if g.fatal.is_none() {
                g.fatal = Some(e);
            }
            return;
        }
    }
}

/// How one attempt ended, before retry policy is applied.
enum Attempt {
    Final {
        outcome: JobOutcome,
        cycles: u64,
        dump: Option<Json>,
    },
    Transient {
        class: &'static str,
        error: String,
        dump: Option<Json>,
    },
}

fn run_attempt(shared: &Shared<'_>, idx: usize, attempt: u32) -> Result<(), ServiceError> {
    let job = &shared.jobs[idx];
    let opts = shared.opts;
    {
        let mut g = shared.inner.lock().unwrap();
        let t_us = shared.t_us();
        g.journal.append(&Rec::Running {
            id: job.id.clone(),
            attempt,
            t_us,
        })?;
        g.attempted += 1;
    }
    let started = Instant::now();

    // Resume from the newest loadable checkpoint. Profiled jobs always
    // start over: the profiling collectors are not part of a machine
    // snapshot, so a resumed run would under-count.
    let resume: Option<MachineState> = if job.profile {
        None
    } else {
        let cks = shared
            .inner
            .lock()
            .unwrap()
            .checkpoints
            .get(&idx)
            .cloned()
            .unwrap_or_default();
        newest_loadable(&shared.ck_dir, &job.id, &cks)
    };

    let result = attempt_once(shared, idx, attempt, resume, started);
    let elapsed_us = started.elapsed().as_micros() as u64;

    let mut g = shared.inner.lock().unwrap();
    match result {
        Attempt::Final {
            outcome,
            cycles,
            dump,
        } => {
            if let Some(dump) = dump {
                write_dump(&shared.dump_dir, idx, attempt, &dump);
            }
            let line = rep_line(job, shared.hashes[idx], &outcome);
            let t_us = shared.t_us();
            g.journal.append(&Rec::Final {
                id: job.id.clone(),
                line: line.clone(),
                ok: matches!(outcome, JobOutcome::Ok { .. }),
                cycles,
                t_us,
            })?;
            g.finals.insert(idx, line);
            g.outstanding -= 1;
            g.latencies_us.push(elapsed_us.max(1));
            // The verdict is durable; the checkpoints served their
            // purpose.
            for (_, file) in g.checkpoints.remove(&idx).unwrap_or_default() {
                let _ = std::fs::remove_file(shared.ck_dir.join(file));
            }
        }
        Attempt::Transient { class, error, dump } => {
            if let Some(dump) = dump {
                write_dump(&shared.dump_dir, idx, attempt, &dump);
            }
            let t_us = shared.t_us();
            g.journal.append(&Rec::Transient {
                id: job.id.clone(),
                attempt,
                class: class.to_owned(),
                error,
                t_us,
            })?;
            g.retries += 1;
            if attempt >= opts.max_attempts.max(1) {
                let outcome = JobOutcome::Quarantined {
                    attempts: opts.max_attempts.max(1),
                };
                let line = rep_line(job, shared.hashes[idx], &outcome);
                let t_us = shared.t_us();
                g.journal.append(&Rec::Final {
                    id: job.id.clone(),
                    line: line.clone(),
                    ok: false,
                    cycles: 0,
                    t_us,
                })?;
                g.finals.insert(idx, line);
                g.outstanding -= 1;
                g.quarantined += 1;
            } else {
                let backoff =
                    Duration::from_millis((opts.backoff_ms << (attempt - 1)).min(BACKOFF_CAP_MS));
                g.queue.push_back(QueueItem {
                    idx,
                    attempt: attempt + 1,
                    not_before: Some(Instant::now() + backoff),
                });
            }
        }
    }
    Ok(())
}

/// Simulates one attempt, checkpointing and watching the wall clock.
fn attempt_once(
    shared: &Shared<'_>,
    idx: usize,
    attempt: u32,
    resume: Option<MachineState>,
    started: Instant,
) -> Attempt {
    let job = &shared.jobs[idx];
    let opts = shared.opts;
    let prepared = compile(job).and_then(|image| machine_for(job, &image).map(|m| (image, m)));
    let (image, fresh) = match prepared {
        Ok(pair) => pair,
        Err(outcome) => {
            return Attempt::Final {
                outcome,
                cycles: 0,
                dump: None,
            }
        }
    };
    let resumed_from = resume.as_ref().map(MachineState::cycle);
    let mut machine = match resume {
        Some(state) => match Machine::restore(&state) {
            Ok(m) => m,
            Err(e) => {
                eprintln!(
                    "lbp-batch: job `{}`: checkpoint payload rejected ({e}); starting over",
                    job.id
                );
                fresh
            }
        },
        None => fresh,
    };
    if resumed_from.is_some() {
        shared.inner.lock().unwrap().resumed += 1;
    }

    let watch = Watch {
        slice: opts.slice,
        checkpoint_every: opts.checkpoint_every,
        deadline: (opts.wall_ms > 0).then(|| started + Duration::from_millis(opts.wall_ms)),
    };
    let run = machine.run_watched(job.max_cycles, &watch, |m| {
        if let Err(e) = write_checkpoint(shared, idx, attempt, m) {
            eprintln!(
                "lbp-batch: job `{}`: checkpoint failed ({e}); continuing without",
                job.id
            );
        }
    });

    match run {
        Ok(Watched::Exited(report)) => Attempt::Final {
            outcome: JobOutcome::Ok {
                report: report.to_json(),
                profile: job.profile.then(|| profile_summary(&image, &machine, 5)),
            },
            cycles: machine.stats().cycles,
            dump: None,
        },
        Ok(Watched::Cancelled) => {
            let message = format!(
                "wall-clock budget of {}ms exceeded at cycle {}",
                opts.wall_ms,
                machine.stats().cycles
            );
            let dump = machine.dump_with("cancelled", message.clone()).to_json();
            Attempt::Transient {
                class: "cancelled",
                error: message,
                dump: Some(dump),
            }
        }
        // A fault, a deadlock or the deterministic cycle-budget
        // watchdog: same verdict, message and class the one-shot runner
        // produces.
        Err(f) => Attempt::Final {
            outcome: JobOutcome::Err {
                class: f.error.class(),
                message: f.error.to_string(),
            },
            cycles: 0,
            dump: Some(f.dump.to_json()),
        },
    }
}

/// Loads the newest checkpoint that still verifies, telling the
/// operator exactly how each damaged one is damaged (torn write versus
/// altered bytes) while falling back to the one before it.
fn newest_loadable(ck_dir: &Path, id: &str, cks: &[(u64, String)]) -> Option<MachineState> {
    for (cycle, file) in cks.iter().rev() {
        match lbp_snap::load(ck_dir.join(file)) {
            Ok(state) => return Some(state),
            Err(e) => eprintln!(
                "lbp-batch: job `{id}`: checkpoint {file} (cycle {cycle}) unusable: {e}; \
                 falling back"
            ),
        }
    }
    None
}

/// Writes a checkpoint durably (temp file, fsync, rename), journals it,
/// and prunes the job's older checkpoints.
fn write_checkpoint(
    shared: &Shared<'_>,
    idx: usize,
    attempt: u32,
    m: &Machine,
) -> Result<(), ServiceError> {
    let state = m.snapshot();
    let cycle = state.cycle();
    let file = format!("job{idx}.c{cycle}.lbpsnap");
    let tmp = shared.ck_dir.join(format!(".tmp-job{idx}-a{attempt}"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&lbp_snap::encode(&state))?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, shared.ck_dir.join(&file))?;
    let mut g = shared.inner.lock().unwrap();
    g.journal.append(&Rec::Checkpoint {
        id: shared.jobs[idx].id.clone(),
        cycle,
        file: file.clone(),
    })?;
    let cks = g.checkpoints.entry(idx).or_default();
    cks.push((cycle, file));
    while cks.len() > CHECKPOINTS_KEPT {
        let (_, old) = cks.remove(0);
        let _ = std::fs::remove_file(shared.ck_dir.join(old));
    }
    Ok(())
}

/// Best-effort `lbp-dump-v1` report for a failed or cancelled attempt.
fn write_dump(dump_dir: &Path, idx: usize, attempt: u32, dump: &Json) {
    let mut text = String::new();
    dump.write_pretty(&mut text);
    text.push('\n');
    let _ = std::fs::write(dump_dir.join(format!("job{idx}.a{attempt}.json")), text);
}

/// Writes `results.jsonl` (manifest order, atomically) and the epoch's
/// latency rows.
fn drain(
    state_dir: &Path,
    jobs: &[BatchJob],
    hashes: &[u64],
    admission: &[Admission],
    inner: &Inner,
    opts: &ServiceOptions,
    epoch: u64,
) -> Result<(), ServiceError> {
    let mut text = String::new();
    for (i, a) in admission.iter().enumerate() {
        match a {
            Admission::Run => {
                text.push_str(&inner.finals[&i]);
                text.push('\n');
            }
            Admission::Dup(rep) => {
                let line = twin_line(&inner.finals[rep], &jobs[i].id, &jobs[*rep].id).ok_or_else(
                    || {
                        ServiceError::State(format!(
                            "final line for `{}` cannot be derived from its representative",
                            jobs[i].id
                        ))
                    },
                )?;
                text.push_str(&line);
                text.push('\n');
            }
            Admission::Shed => {
                text.push_str(&rep_line(
                    &jobs[i],
                    hashes[i],
                    &JobOutcome::Rejected {
                        cap: opts.queue_cap,
                    },
                ));
                text.push('\n');
            }
        }
    }
    let tmp = state_dir.join(".results.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, state_dir.join("results.jsonl"))?;

    // p50/p99 job latency for the attempts this epoch finalized, as
    // lbp-prof-v1 bench rows (host_ns carries the latency).
    if !inner.latencies_us.is_empty() {
        let mut lat = inner.latencies_us.clone();
        lat.sort_unstable();
        let pick = |p: usize| lat[(lat.len() - 1) * p / 100];
        let mut rows = String::new();
        for (tag, p) in [("p50", 50), ("p99", 99)] {
            let row = lbp_prof::BenchRow {
                name: format!("batch/job-latency/{tag}/e{epoch}"),
                harts: opts.workers.max(1) as u32,
                cores: 1,
                sim_cycles: lat.len() as u64,
                retired: inner.resumed,
                events: inner.retries,
                host_ns: pick(p).saturating_mul(1_000),
                state_bytes: 0,
                peak_rss_kb: lbp_prof::peak_rss_kb(),
            };
            row.to_json().write(&mut rows);
            rows.push('\n');
        }
        std::fs::write(state_dir.join("bench.jsonl"), rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceKind;

    fn job(id: &str, cycles: u64) -> BatchJob {
        BatchJob {
            id: id.to_owned(),
            source: "main:\n  li t0, -1\n  li a0, 0\n  p_ret a0, t0".to_owned(),
            kind: SourceKind::Asm,
            cores: 1,
            max_cycles: cycles,
            faults: Vec::new(),
            profile: false,
            warm: None,
        }
    }

    fn state_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lbp-batch-service-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn admission_is_deterministic_and_group_wise() {
        // b duplicates a; d duplicates c; cap 1 admits only a's group.
        let jobs = [job("a", 10_000), job("b", 10_000), job("c", 7), job("d", 7)];
        let hashes: Vec<u64> = jobs.iter().map(job_hash).collect();
        assert_eq!(
            admit(&hashes, 0),
            vec![
                Admission::Run,
                Admission::Dup(0),
                Admission::Run,
                Admission::Dup(2)
            ]
        );
        assert_eq!(
            admit(&hashes, 1),
            vec![
                Admission::Run,
                Admission::Dup(0),
                Admission::Shed,
                Admission::Shed
            ],
            "a shed representative sheds its whole group"
        );
    }

    #[test]
    fn transient_failure_does_not_satisfy_dedup_twins() {
        // The dedup-vs-retry regression: job `a` (representing twin `b`)
        // fails transiently. The fold must leave `b` unsatisfied and
        // requeue `a` with the attempt charged — a fold that finalized
        // twins off any terminal-looking record would emit `b` here.
        let recs = vec![
            Rec::Start { epoch: 0 },
            Rec::Queued {
                id: "a".into(),
                job: 7,
                dedup_of: None,
            },
            Rec::Queued {
                id: "b".into(),
                job: 7,
                dedup_of: Some("a".into()),
            },
            Rec::Running {
                id: "a".into(),
                attempt: 1,
                t_us: 10,
            },
            Rec::Transient {
                id: "a".into(),
                attempt: 1,
                class: "cancelled".into(),
                error: "wall clock".into(),
                t_us: 20,
            },
        ];
        let r = recover(&recs);
        assert!(r.finals.is_empty(), "no job may be finalized");
        assert_eq!(r.attempts.get("a"), Some(&1), "the attempt is spent");
        assert_eq!(r.attempts.get("b"), None);
    }

    #[test]
    fn crashed_attempt_is_spent() {
        // `Running` with no successor = the process died mid-attempt.
        let recs = vec![
            Rec::Running {
                id: "a".into(),
                attempt: 2,
                t_us: 10,
            },
            Rec::Running {
                id: "a".into(),
                attempt: 1,
                t_us: 5,
            },
        ];
        assert_eq!(recover(&recs).attempts.get("a"), Some(&2));
    }

    #[test]
    fn rewritten_twin_lines_match_direct_rendering() {
        // Recovery derives a twin's line from its representative's
        // journaled line; the bytes must equal rendering the twin
        // directly (floats included).
        let rep = job("rep", 10_000);
        let twin = job("twin", 10_000);
        let outcome = crate::simulate(&rep, &compile(&rep));
        let rep_rendered = rep_line(&rep, job_hash(&rep), &outcome);
        let direct = {
            let mut l = result_line(&twin, job_hash(&twin), Some("rep"), &outcome);
            l.truncate(l.trim_end_matches('\n').len());
            l
        };
        assert_eq!(twin_line(&rep_rendered, "twin", "rep"), Some(direct));
    }

    #[test]
    fn service_results_match_one_shot_batch() {
        let jobs = vec![job("a", 10_000), job("b", 10_000), job("c", 777)];
        let dir = state_dir("parity");
        let opts = ServiceOptions {
            workers: 2,
            checkpoint_every: 50,
            slice: 25,
            ..ServiceOptions::default()
        };
        let manifest = "parity";
        let report = run_service(manifest, &jobs, &dir, &opts).unwrap();
        assert_eq!(report.jobs, 3);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.failed, 0);
        let mut service: Vec<String> = std::fs::read_to_string(dir.join("results.jsonl"))
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        let mut one_shot = Vec::new();
        crate::run_batch(&jobs, 1, &mut one_shot).unwrap();
        let mut one_shot: Vec<String> = String::from_utf8(one_shot)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        service.sort();
        one_shot.sort();
        assert_eq!(service, one_shot);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_of_a_finished_sweep_is_idempotent() {
        let jobs = vec![job("a", 10_000), job("b", 4321)];
        let dir = state_dir("idempotent");
        let opts = ServiceOptions::default();
        let first = run_service("m", &jobs, &dir, &opts).unwrap();
        let bytes = std::fs::read(dir.join("results.jsonl")).unwrap();
        let second = run_service("m", &jobs, &dir, &opts).unwrap();
        assert_eq!(first.epoch, 0);
        assert_eq!(second.epoch, 1);
        assert_eq!(second.attempted, 0, "nothing left to run");
        assert_eq!(std::fs::read(dir.join("results.jsonl")).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changed_manifest_is_refused() {
        let jobs = vec![job("a", 10_000)];
        let dir = state_dir("pin");
        run_service("one", &jobs, &dir, &ServiceOptions::default()).unwrap();
        match run_service("two", &jobs, &dir, &ServiceOptions::default()) {
            Err(ServiceError::State(msg)) => assert!(msg.contains("manifest"), "{msg}"),
            other => panic!("expected a state mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backpressure_rejects_with_explicit_verdict() {
        let jobs = vec![job("a", 10_000), job("b", 2222), job("c", 3333)];
        let dir = state_dir("shed");
        let opts = ServiceOptions {
            queue_cap: 1,
            ..ServiceOptions::default()
        };
        let report = run_service("m", &jobs, &dir, &opts).unwrap();
        assert_eq!(report.rejected, 2);
        assert_eq!(report.failed, 2);
        let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines[1..] {
            let v = Json::parse(l).unwrap();
            assert_eq!(v.get("status").and_then(Json::as_str), Some("rejected"));
            let err = v.get("error").and_then(Json::as_str).unwrap();
            assert!(err.contains("backpressure"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wall_clock_watchdog_cancels_then_quarantines_with_dumps() {
        // An infinite loop under a 0ms wall budget cancels at the first
        // poll, retries, and quarantines after max_attempts — leaving a
        // valid lbp-dump-v1 report for every cancelled attempt.
        let mut poison = job("spin", u64::MAX);
        poison.source = "main:\nloop:\n  j loop".to_owned();
        let dir = state_dir("watchdog");
        let opts = ServiceOptions {
            wall_ms: 1,
            slice: 16,
            max_attempts: 2,
            backoff_ms: 1,
            ..ServiceOptions::default()
        };
        let report = run_service("m", &[poison], &dir, &opts).unwrap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.retries, 2);
        assert_eq!(report.attempted, 2);
        let text = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
        let v = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("quarantined"));
        for attempt in 1..=2 {
            let dump =
                std::fs::read_to_string(dir.join(format!("dumps/job0.a{attempt}.json"))).unwrap();
            let d = Json::parse(&dump).unwrap();
            assert_eq!(
                d.get("schema").and_then(Json::as_str),
                Some(lbp_sim::DUMP_SCHEMA)
            );
            assert_eq!(
                d.get("error_class").and_then(Json::as_str),
                Some("cancelled")
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
