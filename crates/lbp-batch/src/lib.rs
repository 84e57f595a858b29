//! # lbp-batch — parallel batch simulation service
//!
//! Runs a *manifest* of simulation jobs — (program × configuration ×
//! fault plan) triples — across a pool of worker threads, streaming one
//! JSONL result line per job (schema `lbp-batch-v1`) as jobs complete.
//!
//! Each machine is cycle-deterministic, so a job's result line depends
//! only on the job itself: the output of an N-worker run equals the
//! output of a 1-worker run after sorting by job id, which the CI smoke
//! job checks byte-for-byte. For the same reason identical jobs are
//! **deduplicated** by content hash — each distinct job simulates once,
//! and every duplicate's line is emitted from the one run, marked with
//! `dedup_of`.
//!
//! ## Manifest (`lbp-batch-manifest-v1`)
//!
//! ```json
//! {
//!   "schema": "lbp-batch-manifest-v1",
//!   "jobs": [
//!     {"id": "mm-c4", "program": "examples/c/matmul.c",
//!      "cores": 4, "max_cycles": 2000000, "faults": ["drop-msg:0"]}
//!   ]
//! }
//! ```
//!
//! `program` paths are resolved relative to the manifest file. `id`
//! defaults to `job-<index>`; `cores` to 1; `max_cycles` to 1,000,000;
//! `faults` to none. Programs ending in `.c` go through the `lbp-cc`
//! front end, everything else through the assembler. A job may opt into
//! profiling with `"profile": true` (default false): the run then
//! carries the `lbp-prof` collectors and its result line gains a
//! hot-function summary. Profiling is part of the job's content hash —
//! a profiled job never dedups against an unprofiled twin — but an
//! unprofiled job's hash is unchanged from earlier schema revisions.
//! A job may set `"warm": N` to fast-forward its first N retired
//! instructions on the functional engine (`lbp_sim::FastEngine`) before
//! the cycle-exact window — hybrid jobs hash apart from cold twins the
//! same way profiled jobs do.
//!
//! ## Result lines (`lbp-batch-v1`)
//!
//! One object per line: `schema`, `id`, `hash` (16 hex digits of the
//! job's FNV-1a-64 content hash), `dedup_of` (the id of the job that
//! actually ran, or `null`), `status` (`"ok"` or an error class), and on
//! success the run `report` (the `lbp-stats-v1` stats with `exited`), on
//! failure a human-readable `error`. Profiled jobs additionally carry
//! `profile`: the top five functions by attributed cycles, each with
//! `name`, `retired`, and `cycles`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod service;

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

pub use lbp_cc::SourceKind;
use lbp_sim::{FastEngine, FastStop, Fault, FaultPlan, Json, LbpConfig, Machine, WarmError};

/// The manifest schema identifier.
pub const MANIFEST_SCHEMA: &str = "lbp-batch-manifest-v1";

/// The result-line schema identifier.
pub const RESULT_SCHEMA: &str = "lbp-batch-v1";

/// A failure to parse or load a manifest.
#[derive(Debug)]
pub struct BatchError(pub String);

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BatchError {}

/// One fully-loaded simulation job: program source plus configuration.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The job's manifest id (unique within a run).
    pub id: String,
    /// The program text (already read from disk).
    pub source: String,
    /// Which front end compiles `source`.
    pub kind: SourceKind,
    /// Core count of the simulated machine.
    pub cores: usize,
    /// Cycle budget before the run counts as timed out.
    pub max_cycles: u64,
    /// Fault specs (`lbp_sim::Fault` syntax) injected into the run.
    pub faults: Vec<String>,
    /// Whether the run carries the `lbp-prof` collectors and the result
    /// line a hot-function summary.
    pub profile: bool,
    /// Fast-forward the first N retired instructions on the functional
    /// engine before the cycle-exact run (`None` = fully cycle-exact).
    pub warm: Option<u64>,
}

/// The job's content hash: equal hashes mean byte-equal work, so one
/// simulation serves every job in the group.
pub fn job_hash(job: &BatchJob) -> u64 {
    let mut key = String::new();
    key.push_str(match job.kind {
        SourceKind::Asm => "asm\0",
        SourceKind::C => "c\0",
    });
    key.push_str(&job.source);
    key.push('\0');
    key.push_str(&format!("{}\0{}\0", job.cores, job.max_cycles));
    for f in &job.faults {
        key.push_str(f);
        key.push('\0');
    }
    // Appended only when set so unprofiled jobs keep their historical
    // hashes (the CI smoke fixtures pin them).
    if job.profile {
        key.push_str("profile\0");
    }
    // Likewise: a warmed job does different work (its stats carry the
    // virtual warm phase), so it never dedups against a cold twin.
    if let Some(warm) = job.warm {
        key.push_str(&format!("warm={warm}\0"));
    }
    lbp_snap::fnv1a64(key.as_bytes())
}

/// Parses a manifest and loads every referenced program, resolving paths
/// against `base_dir` (normally the manifest's directory).
///
/// # Errors
///
/// Malformed JSON, unknown schema, duplicate ids, or unreadable program
/// files — all reported with the offending job's id.
pub fn load_manifest(text: &str, base_dir: &Path) -> Result<Vec<BatchJob>, BatchError> {
    let bad = |what: String| BatchError(what);
    let v = Json::parse(text).map_err(|e| bad(format!("manifest is not JSON: {e}")))?;
    match v.get("schema").and_then(Json::as_str) {
        Some(MANIFEST_SCHEMA) => {}
        other => {
            return Err(bad(format!(
                "manifest schema is {other:?}, expected {MANIFEST_SCHEMA:?}"
            )))
        }
    }
    let jobs = v
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("manifest has no `jobs` array".to_owned()))?;
    let mut out = Vec::with_capacity(jobs.len());
    let mut seen = std::collections::HashSet::new();
    for (i, j) in jobs.iter().enumerate() {
        let id = match j.get("id").and_then(Json::as_str) {
            Some(id) => id.to_owned(),
            None => format!("job-{i}"),
        };
        if !seen.insert(id.clone()) {
            return Err(bad(format!("duplicate job id `{id}`")));
        }
        let program = j
            .get("program")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(format!("job `{id}` has no `program`")))?;
        let path = base_dir.join(program);
        let source = std::fs::read_to_string(&path)
            .map_err(|e| bad(format!("job `{id}`: cannot read {}: {e}", path.display())))?;
        let kind = SourceKind::of(program);
        let cores = j.get("cores").and_then(Json::as_u64).unwrap_or(1) as usize;
        let max_cycles = j
            .get("max_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(1_000_000);
        let mut faults = Vec::new();
        if let Some(arr) = j.get("faults").and_then(Json::as_arr) {
            for f in arr {
                let spec = f
                    .as_str()
                    .ok_or_else(|| bad(format!("job `{id}`: faults must be strings")))?;
                // Validate early so a typo fails the whole batch up front
                // rather than one job at simulation time.
                Fault::parse(spec).map_err(|e| bad(format!("job `{id}`: {e}")))?;
                faults.push(spec.to_owned());
            }
        }
        if cores == 0 {
            return Err(bad(format!("job `{id}`: cores must be at least 1")));
        }
        let profile = match j.get("profile") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad(format!("job `{id}`: profile must be a boolean")))?,
        };
        let warm = match j.get("warm") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| bad(format!("job `{id}`: warm must be a number")))?,
            ),
        };
        out.push(BatchJob {
            id,
            source,
            kind,
            cores,
            max_cycles,
            faults,
            profile,
            warm,
        });
    }
    Ok(out)
}

/// What one simulated job produced (shared by its whole dedup group).
#[derive(Debug, Clone)]
enum JobOutcome {
    /// The run completed (possibly by timeout) with a report and, for
    /// profiled jobs, a hot-function summary.
    Ok { report: Json, profile: Option<Json> },
    /// The front end or the machine rejected the job.
    Err {
        class: &'static str,
        message: String,
    },
    /// The service shed the job at admission: the bounded queue already
    /// held `cap` distinct jobs. Never produced by [`run_batch`].
    Rejected { cap: usize },
    /// The service retried the job `attempts` times without reaching a
    /// deterministic verdict and quarantined it as poison. Never
    /// produced by [`run_batch`].
    Quarantined { attempts: u32 },
}

/// The top `top` functions by attributed cycles, as a JSON array.
fn profile_summary(image: &lbp_asm::Image, machine: &Machine, top: usize) -> Json {
    let sym = lbp_prof::SymTab::from_image(image);
    let prof = machine.profile().expect("job ran with profiling enabled");
    let rows = lbp_prof::function_rows(prof, &sym);
    Json::Arr(
        rows.iter()
            .take(top)
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.name.clone())),
                    ("retired", Json::U64(r.retired)),
                    ("cycles", Json::U64(r.cycles())),
                ])
            })
            .collect(),
    )
}

/// Compiles a job's program and builds its (profiling-enabled, when
/// asked) machine. Front-end and configuration failures come back as
/// the error outcome the job's result line should carry. Shared by the
/// one-shot runner and the crash-recoverable service worker.
fn prepare(job: &BatchJob) -> Result<(lbp_asm::Image, Machine), JobOutcome> {
    let err = |class: &'static str, message: String| Err(JobOutcome::Err { class, message });
    let image = match lbp_cc::build(job.kind, &job.source, &Default::default()) {
        Ok(built) => built.image,
        Err(e) => return err(e.stage(), e.to_string()),
    };
    let plan: FaultPlan = job
        .faults
        .iter()
        .map(|s| Fault::parse(s).expect("validated when the manifest was loaded"))
        .collect();
    let cfg = LbpConfig::cores(job.cores).with_faults(plan);
    let mut machine = if let Some(warm) = job.warm {
        // Hybrid job: fast-forward functionally, then hand the
        // materialized machine to the cycle-exact window. Warm-phase
        // refusals (message faults, faults scheduled inside the warm
        // window) land in the job's result line like any other error.
        match FastEngine::warm(cfg, &image, FastStop::Retired(warm), job.max_cycles) {
            Ok((machine, _)) => machine,
            Err(WarmError::Setup(e)) => return err(e.class(), e.to_string()),
            Err(e) => return err(e.sim().class(), e.sim().to_string()),
        }
    } else {
        match Machine::new(cfg, &image) {
            Ok(m) => m,
            Err(e) => return err(e.class(), e.to_string()),
        }
    };
    if job.profile {
        machine.enable_profiling();
    }
    Ok((image, machine))
}

/// Simulates one job to completion. Infallible: every failure becomes an
/// error outcome on the job's result line.
fn simulate(job: &BatchJob) -> JobOutcome {
    let (image, mut machine) = match prepare(job) {
        Ok(pair) => pair,
        Err(outcome) => return outcome,
    };
    match machine.run(job.max_cycles) {
        Ok(report) => JobOutcome::Ok {
            report: report.to_json(),
            profile: job.profile.then(|| profile_summary(&image, &machine, 5)),
        },
        Err(e) => JobOutcome::Err {
            class: e.class(),
            message: e.to_string(),
        },
    }
}

/// One result line, rendered deterministically from the job alone.
fn result_line(job: &BatchJob, hash: u64, dedup_of: Option<&str>, outcome: &JobOutcome) -> String {
    let mut pairs = vec![
        ("schema".to_owned(), Json::Str(RESULT_SCHEMA.to_owned())),
        ("id".to_owned(), Json::Str(job.id.clone())),
        ("hash".to_owned(), Json::Str(format!("{hash:016x}"))),
        (
            "dedup_of".to_owned(),
            match dedup_of {
                Some(id) => Json::Str(id.to_owned()),
                None => Json::Null,
            },
        ),
    ];
    match outcome {
        JobOutcome::Ok { report, profile } => {
            pairs.push(("status".to_owned(), Json::Str("ok".to_owned())));
            pairs.push(("report".to_owned(), report.clone()));
            if let Some(p) = profile {
                pairs.push(("profile".to_owned(), p.clone()));
            }
        }
        JobOutcome::Err { class, message } => {
            pairs.push(("status".to_owned(), Json::Str((*class).to_owned())));
            pairs.push(("error".to_owned(), Json::Str(message.clone())));
        }
        JobOutcome::Rejected { cap } => {
            pairs.push(("status".to_owned(), Json::Str("rejected".to_owned())));
            pairs.push((
                "error".to_owned(),
                Json::Str(format!(
                    "backpressure: admission queue at capacity ({cap} distinct jobs)"
                )),
            ));
        }
        JobOutcome::Quarantined { attempts } => {
            pairs.push(("status".to_owned(), Json::Str("quarantined".to_owned())));
            pairs.push((
                "error".to_owned(),
                Json::Str(format!(
                    "poison job: {attempts} attempts exhausted without a deterministic \
                     verdict (see the journal for the attempt history)"
                )),
            ));
        }
    }
    let mut line = String::new();
    Json::Obj(pairs).write(&mut line);
    line.push('\n');
    line
}

/// A finished batch, summarized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Jobs in the manifest (== result lines written).
    pub jobs: usize,
    /// Distinct jobs actually simulated after deduplication.
    pub unique: usize,
    /// Jobs whose status was not `ok`.
    pub failed: usize,
}

/// Runs `jobs` on `workers` threads, writing one `lbp-batch-v1` line per
/// job to `out` as results complete.
///
/// Identical jobs (equal [`job_hash`]) simulate once; the representative
/// writes the whole group's lines together, duplicates marked with
/// `dedup_of`. Line order depends on worker scheduling — sort by `id` to
/// compare runs — but each line's bytes are deterministic.
///
/// # Errors
///
/// Only writer I/O errors abort a batch; simulation failures land in the
/// affected job's result line.
pub fn run_batch<W: Write + Send>(
    jobs: &[BatchJob],
    workers: usize,
    out: W,
) -> Result<BatchSummary, std::io::Error> {
    // Group duplicate jobs: first index with a given hash represents.
    let hashes: Vec<u64> = jobs.iter().map(job_hash).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_hash: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, &h) in hashes.iter().enumerate() {
        match by_hash.get(&h) {
            Some(&g) => groups[g].push(i),
            None => {
                by_hash.insert(h, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    let unique = groups.len();
    let queue: Mutex<VecDeque<Vec<usize>>> = Mutex::new(groups.into_iter().collect());
    let writer = Mutex::new(out);
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let failed = Mutex::new(0usize);
    let workers = workers.max(1).min(jobs.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(group) = queue.lock().unwrap().pop_front() else {
                    return;
                };
                let rep = &jobs[group[0]];
                let outcome = simulate(rep);
                if !matches!(outcome, JobOutcome::Ok { .. }) {
                    *failed.lock().unwrap() += group.len();
                }
                // Emit the whole dedup group in one locked section so a
                // group's lines are contiguous in the stream.
                let mut text = String::new();
                for &i in &group {
                    let dedup_of = (i != group[0]).then_some(rep.id.as_str());
                    text.push_str(&result_line(&jobs[i], hashes[i], dedup_of, &outcome));
                }
                let mut w = writer.lock().unwrap();
                if let Err(e) = w.write_all(text.as_bytes()) {
                    let mut slot = io_error.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    queue.lock().unwrap().clear(); // abort remaining work
                    return;
                }
            });
        }
    });
    if let Some(e) = io_error.into_inner().unwrap() {
        return Err(e);
    }
    writer.into_inner().unwrap().flush()?;
    Ok(BatchSummary {
        jobs: jobs.len(),
        unique,
        failed: failed.into_inner().unwrap(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str, cores: usize) -> BatchJob {
        BatchJob {
            id: id.to_owned(),
            source: "main:\n  li t0, -1\n  li a0, 0\n  p_ret a0, t0".to_owned(),
            kind: SourceKind::Asm,
            cores,
            max_cycles: 10_000,
            faults: Vec::new(),
            profile: false,
            warm: None,
        }
    }

    fn lines(buf: &[u8]) -> Vec<String> {
        String::from_utf8(buf.to_vec())
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn identical_jobs_dedupe_and_report_once_each() {
        let jobs = vec![job("a", 1), job("b", 1), job("c", 2)];
        let mut out = Vec::new();
        let summary = run_batch(&jobs, 2, &mut out).unwrap();
        assert_eq!(
            summary,
            BatchSummary {
                jobs: 3,
                unique: 2,
                failed: 0
            }
        );
        let lines = lines(&out);
        assert_eq!(lines.len(), 3);
        let b = lines
            .iter()
            .map(|l| Json::parse(l).unwrap())
            .find(|v| v.get("id").and_then(Json::as_str) == Some("b"))
            .unwrap();
        assert_eq!(b.get("dedup_of").and_then(Json::as_str), Some("a"));
        assert_eq!(b.get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn worker_count_does_not_change_sorted_output() {
        let jobs: Vec<BatchJob> = (0..8)
            .map(|i| {
                let mut j = job(&format!("j{i}"), 1 + i % 2);
                j.max_cycles = 5_000 + i as u64; // make all 8 unique
                j
            })
            .collect();
        let run = |workers| {
            let mut out = Vec::new();
            run_batch(&jobs, workers, &mut out).unwrap();
            let mut l = lines(&out);
            l.sort();
            l
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn profiled_jobs_summarize_and_hash_apart() {
        let plain = job("p", 1);
        let mut profiled = job("q", 1);
        profiled.profile = true;
        // The profile flag is part of the job identity: a profiled job
        // must not dedup against (or collide with) its unprofiled twin,
        // while the unprofiled hash stays what it always was.
        assert_ne!(job_hash(&plain), job_hash(&profiled));
        let mut unflagged = profiled.clone();
        unflagged.profile = false;
        assert_eq!(job_hash(&plain), job_hash(&unflagged));
        let mut out = Vec::new();
        let summary = run_batch(&[plain, profiled], 1, &mut out).unwrap();
        assert_eq!(summary.unique, 2);
        let lines = lines(&out);
        for l in &lines {
            let v = Json::parse(l).unwrap();
            let id = v.get("id").and_then(Json::as_str).unwrap();
            let prof = v.get("profile");
            if id == "q" {
                let funcs = prof.and_then(Json::as_arr).expect("profiled job summary");
                assert!(!funcs.is_empty() && funcs.len() <= 5);
                for f in funcs {
                    assert!(f.get("name").and_then(Json::as_str).is_some());
                    assert!(f.get("cycles").and_then(Json::as_u64).is_some());
                }
            } else {
                assert!(prof.is_none(), "unprofiled line must not grow fields");
            }
        }
    }

    #[test]
    fn warmed_jobs_run_hybrid_and_hash_apart() {
        let cold = job("cold", 1);
        let mut warm = job("warm", 1);
        warm.warm = Some(2);
        assert_ne!(job_hash(&cold), job_hash(&warm), "warm is job identity");
        let mut out = Vec::new();
        let summary = run_batch(&[cold, warm], 1, &mut out).unwrap();
        assert_eq!(summary.unique, 2);
        assert_eq!(summary.failed, 0);
        for l in &lines(&out) {
            let v = Json::parse(l).unwrap();
            assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{l}");
            let exited = v
                .get("report")
                .and_then(|r| r.get("exited"))
                .and_then(Json::as_bool);
            assert_eq!(exited, Some(true), "{l}");
        }
        // A fault scheduled inside the warm window, and a message fault
        // the warm phase cannot count, are usage refusals, and each lands
        // in its result line rather than panicking.
        let mut clash = job("clash", 1);
        clash.warm = Some(2);
        clash.faults = vec!["flip-reg:0:a0:0:1".to_owned()];
        let mut drop = job("drop", 1);
        drop.warm = Some(2);
        drop.faults = vec!["drop-msg:0".to_owned()];
        let mut out = Vec::new();
        let summary = run_batch(&[clash, drop], 1, &mut out).unwrap();
        assert_eq!(summary.failed, 2);
        for (l, why) in lines(&out).iter().zip(["warm", "functional"]) {
            let v = Json::parse(l).unwrap();
            assert_eq!(v.get("status").and_then(Json::as_str), Some("usage"), "{l}");
            let msg = v.get("error").and_then(Json::as_str).unwrap();
            assert!(
                msg.starts_with("invalid fault plan: `") && msg.contains(why),
                "the diagnostic names the plan and why: {msg}"
            );
        }
    }

    /// A fault plan aimed outside the machine carries the class `lbp-run`
    /// exits with, cold and warm.
    #[test]
    fn an_invalid_fault_plan_is_a_usage_refusal() {
        let mut cold = job("cold", 1);
        cold.faults = vec!["flip-reg:99:a0:0:5".to_owned()];
        let mut warm = cold.clone();
        warm.id = "warm".to_owned();
        warm.warm = Some(2);
        let mut out = Vec::new();
        let summary = run_batch(&[cold, warm], 1, &mut out).unwrap();
        assert_eq!(summary.failed, 2);
        for l in &lines(&out) {
            let v = Json::parse(l).unwrap();
            assert_eq!(v.get("status").and_then(Json::as_str), Some("usage"), "{l}");
            let msg = v.get("error").and_then(Json::as_str).unwrap();
            assert!(
                msg.starts_with("invalid fault plan: `flip-reg:99:a0:0:5`"),
                "{msg}"
            );
        }
    }

    #[test]
    fn failures_land_in_the_result_line() {
        let mut bad = job("x", 1);
        bad.source = "main:\n  not_an_instruction".to_owned();
        let mut out = Vec::new();
        let summary = run_batch(&[bad], 1, &mut out).unwrap();
        assert_eq!(summary.failed, 1);
        let v = Json::parse(&lines(&out)[0]).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("assemble"));
        assert!(v.get("error").and_then(Json::as_str).is_some());
    }

    #[test]
    fn manifest_parses_and_validates() {
        let dir = std::env::temp_dir().join(format!("lbp-batch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("p.s"),
            "main:\n  li t0, -1\n  li a0, 0\n  p_ret a0, t0",
        )
        .unwrap();
        let manifest = r#"{
            "schema": "lbp-batch-manifest-v1",
            "jobs": [
                {"program": "p.s"},
                {"id": "two", "program": "p.s", "cores": 2, "max_cycles": 77,
                 "faults": ["drop-msg:0"], "profile": true, "warm": 5}
            ]
        }"#;
        let jobs = load_manifest(manifest, &dir).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, "job-0");
        assert_eq!(jobs[1].cores, 2);
        assert_eq!(jobs[1].max_cycles, 77);
        assert_eq!(jobs[1].faults, vec!["drop-msg:0".to_owned()]);
        assert!(!jobs[0].profile, "profile defaults to off");
        assert!(jobs[1].profile);
        assert_eq!(jobs[0].warm, None, "warm defaults to fully cycle-exact");
        assert_eq!(jobs[1].warm, Some(5));
        // A non-boolean profile flag is rejected up front.
        let bad_profile = manifest.replace("\"profile\": true", "\"profile\": \"yes\"");
        assert!(load_manifest(&bad_profile, &dir).is_err());
        // So is a non-numeric warm target.
        let bad_warm = manifest.replace("\"warm\": 5", "\"warm\": \"lots\"");
        assert!(load_manifest(&bad_warm, &dir).is_err());
        // Bad fault spec fails the whole manifest up front.
        let bad = manifest.replace("drop-msg:0", "warp-core:9");
        assert!(load_manifest(&bad, &dir).is_err());
        // Duplicate ids are rejected.
        let dup = manifest.replace("\"two\"", "\"job-0\"");
        assert!(load_manifest(&dup, &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
