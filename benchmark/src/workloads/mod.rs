//! The seven workloads.
//!
//! Each is a closed loop with one client: [`setup`] builds the inputs and
//! the reference values, and [`Workload::iterate`] does one fixed amount
//! of work through the public functions of the crates under `crates/` and
//! checks what came out. The paper kernels keep the paper's all-ones
//! initialization, so only `src_to_verdict` and `batch_sweep` depend on
//! the seed.

use lbp_sim::{CoreStalls, Json, Stats};

use crate::trace::Tracer;

mod batch;
mod cx;
mod ff;
mod verdict;

/// Cycle budget no workload comes near.
const MAX_CYCLES: u64 = 1_000_000_000;

/// What the modelled machine did in one iteration, summed over its runs.
/// Exact: a change that only speeds the simulator up leaves every field
/// as it was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Guest {
    /// Simulated (or, on the functional engine, virtual) cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Cycles times cores, summed over the runs.
    pub core_cycles: u64,
    /// Memory accesses served by the local port.
    pub local_accesses: u64,
    /// Memory accesses that crossed the routers.
    pub remote_accesses: u64,
    /// Router link hops.
    pub link_hops: u64,
    /// Message-cycles queued at a busy link.
    pub link_contention: u64,
    /// Request-cycles queued at a busy bank port.
    pub bank_conflicts: u64,
    /// Harts allocated by forks.
    pub forks: u64,
    /// Stall cycles by cause, summed over cores.
    pub stalls: CoreStalls,
}

impl Guest {
    /// Adds one finished run on `cores` cores.
    pub fn add(&mut self, stats: &Stats, cores: usize) {
        self.cycles += stats.cycles;
        self.retired += stats.retired();
        self.core_cycles += stats.cycles * cores as u64;
        self.local_accesses += stats.local_accesses;
        self.remote_accesses += stats.remote_accesses;
        self.link_hops += stats.link_hops;
        self.link_contention += stats.link_contention;
        self.bank_conflicts += stats.bank_conflicts;
        self.forks += stats.forks;
        self.stalls = self.stalls.add(&stats.stalls_total());
    }

    /// Adds one run from its `lbp-stats-v1` report, as `lbp-batch` prints
    /// it on a result line. `None` if the report lacks a counter.
    pub fn add_report(&mut self, report: &Json) -> Option<()> {
        let n = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64);
        let cores = report.get("cores")?.as_arr()?;
        let cycles = n(report, "cycles")?;
        self.cycles += cycles;
        self.retired += n(report, "retired")?;
        self.core_cycles += cycles * cores.len() as u64;
        self.local_accesses += n(report, "local_accesses")?;
        self.remote_accesses += n(report, "remote_accesses")?;
        self.link_hops += n(report, "link_hops")?;
        self.link_contention += n(report, "link_contention")?;
        self.bank_conflicts += n(report, "bank_conflicts")?;
        self.forks += n(report, "forks")?;
        for core in cores {
            let s = core.get("stalls")?;
            self.stalls = self.stalls.add(&CoreStalls {
                fetch_starved: n(s, "fetch_starved")?,
                mem_wait: n(s, "mem_wait")?,
                operand_wait: n(s, "operand_wait")?,
                rb_full: n(s, "rb_full")?,
                sync_wait: n(s, "sync_wait")?,
                idle: n(s, "idle")?,
            });
        }
        Some(())
    }

    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.retired as f64 / self.cycles.max(1) as f64
    }
}

/// What one iteration produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Why the outputs are wrong; `None` when every check passed.
    pub failure: Option<String>,
    /// Checked results the iteration delivered: simulation runs, verdicts
    /// or jobs.
    pub ops: u64,
    /// The modelled machine's counters; `None` when no machine ran.
    pub guest: Option<Guest>,
    /// `|cycles - reference| / reference` in percent, where
    /// `results_reference.txt` has a row for the run.
    pub ref_cycle_err_pct: Option<f64>,
    /// FNV-1a over everything the iteration checked. Every iteration of a
    /// run, and the plain and the traced run of one seed, must agree on it.
    pub check_hash: u64,
}

impl Outcome {
    /// Records the first failed check.
    fn fail(&mut self, why: impl FnOnce() -> String) {
        if self.failure.is_none() {
            self.failure = Some(why());
        }
    }

    /// Checks `got == want`, naming `what` on a mismatch.
    fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.fail(|| format!("{what}: got {got:?}, expected {want:?}"));
        }
    }
}

/// One set-up workload.
pub trait Workload {
    /// Runs one fixed-work iteration and checks its outputs. Spans go to
    /// `t`, which records nothing in the plain binary.
    fn iterate(&self, t: &Tracer) -> Outcome;

    /// The extra calls only a traced run makes, once, after its timed
    /// iterations: layers no iteration reaches or separates.
    fn probe(&self, _t: &Tracer) {}

    /// Code words of the seed-independent images the workload builds, in
    /// set-up or in one iteration.
    fn code_words(&self) -> u64;
}

/// Builds the inputs and reference values of workload `name`. `reference`
/// is the text of `results_reference.txt`.
///
/// # Errors
///
/// An unknown name, a missing reference row, or a shipped source that
/// cannot be read or built.
pub fn setup(
    name: &str,
    seed: u64,
    reference: &str,
    t: &Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cx_dense" => Box::new(cx::Plain::dense(reference, t)?),
        "cx_remote" => Box::new(cx::Plain::remote(reference, t)?),
        "cx_idle" => Box::new(cx::Plain::idle(reference, t)?),
        "cx_observed" => Box::new(cx::Observed::new(reference, t)?),
        "ff_scale" => Box::new(ff::Scale::new(reference, t)?),
        "src_to_verdict" => Box::new(verdict::Corpus::new(seed, t)?),
        "batch_sweep" => Box::new(batch::Sweep::new(seed, t)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// FNV-1a-64 over a sequence of words, the hash the snapshot tooling uses.
fn hash_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    lbp_snap::fnv1a64(&bytes)
}
