//! `batch_sweep`: source to report under the `lbp-batch` pool.

use lbp_batch::{BatchJob, BatchSummary};
use lbp_sim::Json;
use lbp_testutil::Rng;

use super::cx::failed;
use super::{Guest, Outcome, Workload};
use crate::reference::repo_root;
use crate::trace::Tracer;

/// The sweep of `tests/batch_parallel.rs`: 4 core counts x 4 budgets.
const CORES: [usize; 4] = [4, 8, 16, 32];
const BUDGETS: [u64; 4] = [2_000_000, 3_000_000, 4_000_000, 5_000_000];
/// Duplicate jobs added, drawn by the seed.
const TWINS: usize = 4;
const PROGRAM: &str = "examples/c/matmul.c";

/// The 16 distinct jobs plus 4 seeded twins, in seeded order, through
/// `run_batch` into an in-memory writer. The only workload with threads,
/// dedupe, a `Machine::new` per job and JSONL serialization.
pub struct Sweep {
    jobs: Vec<BatchJob>,
    workers: usize,
    /// Hash of the sorted result lines of a one-worker run.
    serial_hash: u64,
    /// Code words of `matmul.c`'s image, once per distinct job.
    code_words: u64,
}

impl Sweep {
    /// Writes the manifest, loads it and runs it once on one worker.
    pub fn new(seed: u64, t: &Tracer) -> Result<Sweep, String> {
        let mut entries: Vec<(String, usize, u64)> = CORES
            .iter()
            .flat_map(|&c| {
                BUDGETS
                    .iter()
                    .map(move |&b| (format!("matmul-c{c}-m{b}"), c, b))
            })
            .collect();
        let mut rng = Rng::new(seed);
        for twin in 0..TWINS {
            let (id, cores, budget) = entries[rng.index(CORES.len() * BUDGETS.len())].clone();
            entries.push((format!("twin{twin}-of-{id}"), cores, budget));
        }
        // Fisher-Yates, so the job order is the seed's.
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.index(i + 1));
        }
        let jobs: Vec<Json> = entries
            .iter()
            .map(|(id, cores, budget)| {
                Json::obj([
                    ("id", Json::Str(id.clone())),
                    ("program", Json::Str(PROGRAM.to_owned())),
                    ("cores", Json::U64(*cores as u64)),
                    ("max_cycles", Json::U64(*budget)),
                ])
            })
            .collect();
        let manifest = Json::obj([
            ("schema", Json::Str(lbp_batch::MANIFEST_SCHEMA.to_owned())),
            ("jobs", Json::Arr(jobs)),
        ])
        .to_string();
        let jobs = {
            let _load = t.span("batch.load_manifest");
            lbp_batch::load_manifest(&manifest, &repo_root()).map_err(|e| e.0)?
        };

        let source = &jobs[0].source;
        let image_words = lbp_cc::compile(source)
            .map_err(|e| format!("{PROGRAM}: {e}"))?
            .image
            .text
            .len();
        let (_, serial) = run(t, &jobs, 1)?;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Sweep {
            workers: nproc.min(2),
            serial_hash: lines_hash(&serial),
            code_words: (image_words * CORES.len() * BUDGETS.len()) as u64,
            jobs,
        })
    }
}

/// `run_batch` under its span, with its counts.
fn run(t: &Tracer, jobs: &[BatchJob], workers: usize) -> Result<(BatchSummary, String), String> {
    let span = t.span("batch.run_batch");
    let mut out = Vec::new();
    let summary = lbp_batch::run_batch(jobs, workers, &mut out).map_err(|e| e.to_string())?;
    span.count("workers", workers as f64);
    span.count("jobs", summary.jobs as f64);
    span.count("unique", summary.unique as f64);
    span.count("failed", summary.failed as f64);
    span.count("jsonl_bytes", out.len() as f64);
    let text = String::from_utf8(out).map_err(|e| e.to_string())?;
    Ok((summary, text))
}

/// Line order depends on worker scheduling, each line's bytes do not.
fn lines_hash(jsonl: &str) -> u64 {
    let mut lines: Vec<&str> = jsonl.lines().collect();
    lines.sort_unstable();
    lbp_snap::fnv1a64(lines.join("\n").as_bytes())
}

impl Workload for Sweep {
    fn iterate(&self, t: &Tracer) -> Outcome {
        let (summary, jsonl) = match run(t, &self.jobs, self.workers) {
            Ok(done) => done,
            Err(e) => return failed(e),
        };
        let mut out = Outcome {
            ops: self.jobs.len() as u64,
            ..Outcome::default()
        };
        out.expect_eq("batch: jobs", summary.jobs, self.jobs.len());
        out.expect_eq("batch: unique", summary.unique, self.jobs.len() - TWINS);
        out.expect_eq("batch: failed", summary.failed, 0);
        out.check_hash = lines_hash(&jsonl);
        out.expect_eq(
            "batch: sorted lines equal the one-worker run's",
            out.check_hash,
            self.serial_hash,
        );
        // Work simulated, not work reported: a twin's line repeats its
        // representative's report.
        let mut guest = Guest::default();
        for line in jsonl.lines() {
            let parsed = Json::parse(line).ok();
            let simulated = parsed
                .as_ref()
                .filter(|l| l.get("dedup_of") == Some(&Json::Null));
            if let Some(report) = simulated.and_then(|l| l.get("report")) {
                if guest.add_report(report).is_none() {
                    out.fail(|| format!("batch: malformed report in {line}"));
                }
            }
        }
        out.guest = Some(guest);
        out
    }

    /// Every distinct job alone on one worker: what a job costs without
    /// the pool, and so what the pool buys.
    fn probe(&self, t: &Tracer) {
        let mut seen = std::collections::BTreeSet::new();
        for job in &self.jobs {
            if seen.insert(lbp_batch::job_hash(job)) {
                let _job = t.span("batch.job");
                let mut out = Vec::new();
                let _ = lbp_batch::run_batch(std::slice::from_ref(job), 1, &mut out);
            }
        }
    }

    fn code_words(&self) -> u64 {
        self.code_words
    }
}
