//! One run of one workload: set-ups, a warm-up, the timed closed loop, and
//! the numbers they collapse to.

use lbp_sim::Json;

use crate::calibrate::{Calibrator, Phase, Timed};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{hi_percentile, median};
use crate::trace::{Root, Span, Summary, Tracer};
use crate::workloads::{self, Guest, Outcome};

/// Seconds one run measures for, unless `--seconds` says otherwise. It is
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// How long and how often a run repeats its parts.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// The timed loop starts no iteration after this many seconds.
    pub seconds: f64,
    /// Timed iterations at least.
    pub min_iters: usize,
    /// Set-ups at least; `setup_s` is their median.
    pub min_setups: usize,
    /// Set-up repeats until this many seconds have gone, so that a set-up
    /// of a millisecond is measured over dozens of repeats.
    pub setup_seconds: f64,
}

impl Budget {
    /// The budget of a measuring run of `seconds` seconds.
    pub fn measuring(seconds: f64) -> Budget {
        Budget {
            seconds,
            min_iters: 5,
            min_setups: 7,
            setup_seconds: 0.5,
        }
    }

    /// One set-up, one warm-up and one timed iteration: enough to check
    /// outputs, not to time anything.
    pub fn smoke() -> Budget {
        Budget {
            seconds: 0.0,
            min_iters: 1,
            min_setups: 1,
            setup_seconds: 0.0,
        }
    }
}

/// Set-ups at most, however fast they are.
const MAX_SETUPS: usize = 1000;
/// In a traced run, one iteration in this many runs with the tracer off,
/// as the base of `trace.overhead_x`.
const UNTRACED_EVERY: usize = 4;
/// Failure messages kept.
const MAX_FAILURES: usize = 5;

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload's name.
    pub workload: String,
    /// The seed its inputs were made from.
    pub seed: u64,
    /// Whether the tracer recorded.
    pub traced: bool,
    /// Iterations run, each a checked operation.
    pub attempted: u64,
    /// Iterations whose outputs were wrong.
    pub failed: u64,
    /// The first few reasons.
    pub failures: Vec<String>,
    /// Timed iterations, the sample count of the timings.
    pub samples: usize,
    /// The tail of the iteration time: percentile and milliseconds.
    pub iter_ms_hi: Option<(f64, f64)>,
    /// Median wall time of an iteration, before calibration.
    pub wall_ms_p50: f64,
    /// Median of the reference kernel's time around the iterations; it is
    /// [`NOMINAL_MS`](crate::calibrate::NOMINAL_MS) on the quiet reference
    /// machine.
    pub calib_ms_p50: f64,
    /// Hash of the checked outputs.
    pub check_hash: u64,
    /// End-to-end metrics that apply to the workload.
    pub e2e: Vec<(&'static str, f64)>,
    /// Every per-layer metric; empty in a plain run.
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs workload `name` once: set-ups, warm-up, timed loop and, when the
/// tracer records, the probe. The spans stay in the tracer.
///
/// # Errors
///
/// A set-up failure. Wrong outputs are not errors: they are counted.
pub fn run_workload(
    name: &str,
    seed: u64,
    budget: Budget,
    reference: &str,
    t: &Tracer,
) -> Result<RunResult, String> {
    let traced = t.is_enabled();
    let mut calibrator = Calibrator::default();
    let calibrated =
        |timed: &[Timed]| -> Vec<f64> { timed.iter().map(Timed::calibrated_ms).collect() };

    let mut phase = Phase::begin(&mut calibrator);
    let workload = loop {
        let built = phase.time(|| {
            let _root = t.root(Root::Setup);
            workloads::setup(name, seed, reference, t)
        })?;
        let enough =
            phase.pieces() >= budget.min_setups && phase.elapsed_s() >= budget.setup_seconds;
        if enough || phase.pieces() >= MAX_SETUPS {
            break built;
        }
    };
    let setups_ms = calibrated(&phase.end());

    let mut tally = Tally::default();
    t.set_enabled(false);
    let warm_up = workload.iterate(t);
    tally.record(&warm_up, &warm_up);

    // In a traced run one iteration in four, the first of each four, runs
    // with the tracer off: the same binary, the same minutes, so the ratio
    // of the two medians is the tracer's cost and not the machine's drift.
    let mut phase = Phase::begin(&mut calibrator);
    let mut with_tracer = Vec::new();
    let mut last = warm_up.clone();
    while with_tracer.iter().filter(|&&on| on == traced).count() < budget.min_iters
        || phase.elapsed_s() < budget.seconds
    {
        let on = traced && with_tracer.len() % UNTRACED_EVERY != 0;
        t.set_enabled(on);
        let out = phase.time(|| {
            let _root = t.root(Root::Iter);
            workload.iterate(t)
        });
        with_tracer.push(on);
        tally.record(&out, &warm_up);
        last = out;
    }
    t.set_enabled(traced);
    let all = phase.end();
    let pick = |on: bool| -> Vec<Timed> {
        let kept = all.iter().zip(&with_tracer).filter(|(_, &w)| w == on);
        kept.map(|(timed, _)| *timed).collect()
    };
    let timed = pick(traced);
    let iter_ms = calibrated(&timed);

    if traced {
        let _root = t.root(Root::Probe);
        workload.probe(t);
    }

    let p50 = median(&iter_ms);
    let mut e2e = Vec::new();
    for m in &END_TO_END {
        let guest = last.guest.as_ref();
        let value = match m.metric.name {
            "setup_s" => Some(median(&setups_ms) / 1e3),
            "iter_ms_p50" => Some(p50),
            "sim_mcyc_per_s" => guest.map(|g| g.cycles as f64 / (p50 * 1e3)),
            "guest_minstr_per_s" => guest.map(|g| g.retired as f64 / (p50 * 1e3)),
            "ops_per_s" => Some(last.ops as f64 / (p50 / 1e3)),
            "peak_rss_mb" => Some(
                lbp_prof::peak_rss_kb().ok_or("no VmHWM in /proc/self/status")? as f64 / 1024.0,
            ),
            "guest_cycles" => guest.map(|g| g.cycles as f64),
            "guest_ipc" => guest.map(Guest::ipc),
            "ref_cycle_err_pct" => last.ref_cycle_err_pct,
            "code_words" => Some(workload.code_words() as f64),
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        if let Some(v) = value {
            e2e.push((m.metric.name, v));
        }
    }

    let layers = if traced {
        let overhead_x = p50 / median(&calibrated(&pick(false)));
        layer_metrics(&t.spans(), &last, overhead_x)
    } else {
        Vec::new()
    };

    Ok(RunResult {
        workload: name.to_owned(),
        seed,
        traced,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        samples: iter_ms.len(),
        iter_ms_hi: hi_percentile(&iter_ms),
        wall_ms_p50: median(&timed.iter().map(|t| t.wall_ms).collect::<Vec<_>>()),
        calib_ms_p50: median(&timed.iter().map(|t| t.calib_ms).collect::<Vec<_>>()),
        check_hash: last.check_hash,
        e2e,
        layers,
    })
}

/// Attempted and failed operations of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts one iteration. Beyond its own checks it must repeat the
    /// warm-up's outputs and simulated counts exactly: on a deterministic
    /// machine a changed count is a wrong output, not a gain.
    fn record(&mut self, out: &Outcome, warm_up: &Outcome) {
        self.attempted += 1;
        let why = out.failure.clone().or_else(|| {
            (out.check_hash != warm_up.check_hash || out.guest != warm_up.guest)
                .then(|| "outputs differ from the warm-up iteration's".to_owned())
        });
        if let Some(why) = why {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURES {
                self.failures.push(why);
            }
        }
    }
}

/// Every per-layer metric of a traced run, from its spans, the counts on
/// them and the last iteration's simulated counters.
pub fn layer_metrics(spans: &[Span], last: &Outcome, overhead_x: f64) -> Vec<(&'static str, f64)> {
    let s = Summary::of(spans);
    let none = Guest::default();
    let g = last.guest.as_ref().unwrap_or(&none);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ns = |l: &crate::trace::Layer| l.ns;
    let allocs = |l: &crate::trace::Layer| l.allocs;
    PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name {
                "asm.source_bytes" => s.count("asm.assemble", "source_bytes"),
                "asm.code_words" => s.count("asm.assemble", "code_words"),
                "cc.codegen_self_ns" => (s.ns("cc.compile")
                    - s.ns("cc.lex")
                    - s.ns("cc.parse")
                    - s.ns("cc.sema")
                    - s.ns("cc.assemble_output"))
                .max(0.0),
                "cc.source_bytes" => s.count("cc.compile", "source_bytes"),
                "cc.asm_lines" => s.count("cc.compile", "asm_lines"),
                "sema.traps" => s.count("sema.interp", "traps"),
                "verify.diags" => s.count("verify.image", "diags"),
                "verify.rejected" => s.count("verify.image", "rejected"),
                "sim.ns_per_cycle" => s.per("sim.run", ns, "cycles"),
                "sim.ns_per_core_cycle" => s.per("sim.run", ns, "core_cycles"),
                "sim.ns_per_retired" => s.per("sim.run", ns, "retired"),
                "sim.ns_per_event" => s.per("sim.run", ns, "events"),
                "sim.allocs_per_cycle" => s.per("sim.run", allocs, "cycles"),
                "sim.alloc_bytes_per_cycle" => s.per("sim.run", |l| l.alloc_bytes, "cycles"),
                "sim.report_json_bytes" => s.count("sim.report_json", "bytes"),
                "sim.state_bytes" => s.mean("sim.snapshot", "state_bytes"),
                "guest.cycles" => g.cycles as f64,
                "guest.retired" => g.retired as f64,
                "guest.ipc" => g.ipc(),
                "guest.core_util" => ratio(g.retired as f64, g.core_cycles as f64),
                "guest.locality" => ratio(
                    g.local_accesses as f64,
                    (g.local_accesses + g.remote_accesses) as f64,
                ),
                "guest.link_hops" => g.link_hops as f64,
                "guest.link_contention" => g.link_contention as f64,
                "guest.bank_conflicts" => g.bank_conflicts as f64,
                "guest.forks" => g.forks as f64,
                "guest.stall.fetch_starved" => g.stalls.fetch_starved as f64,
                "guest.stall.mem_wait" => g.stalls.mem_wait as f64,
                "guest.stall.operand_wait" => g.stalls.operand_wait as f64,
                "guest.stall.rb_full" => g.stalls.rb_full as f64,
                "guest.stall.sync_wait" => g.stalls.sync_wait as f64,
                "guest.stall.idle" => g.stalls.idle as f64,
                // The run alone: checkpoints are its children.
                "sim.observed_run_ns" => s.self_ns("sim.observed_run"),
                "sim.observe_overhead_x" => ratio(s.self_ns("sim.observed_run"), s.ns("sim.run")),
                "snap.bytes" => s.mean("snap.encode", "bytes"),
                "sim.samples" => s.count("sim.observed_run", "samples"),
                "sim.race_witnesses" => s.count("sim.observed_run", "race_witnesses"),
                "sim.trace_jsonl_ns_per_event" => s.per("sim.trace_jsonl_run", ns, "events"),
                "sim.trace_events" => s.count("sim.trace_jsonl_run", "events"),
                "fast.minstr_per_s" => ratio(1e3, s.per("fast.run", ns, "retired")),
                "fast.ns_per_retired" => s.per("fast.run", ns, "retired"),
                "fast.allocs_per_minstr" => s.per("fast.run", allocs, "retired") * 1e6,
                "fast.virtual_cycles" => s.count("fast.run", "virtual_cycles"),
                "fast.cycle_err_pct" => match s.layer("fast.run") {
                    Some(_) => last.ref_cycle_err_pct.unwrap_or(0.0),
                    None => 0.0,
                },
                "fast.warm_fraction" => ratio(
                    s.count("fast.run", "warm_retired"),
                    s.count("fast.run", "warm_of"),
                ),
                "batch.job_ns_p50" => {
                    let jobs: Vec<f64> = spans
                        .iter()
                        .filter(|sp| sp.name == "batch.job")
                        .map(|sp| sp.ns() as f64)
                        .collect();
                    if jobs.is_empty() {
                        0.0
                    } else {
                        median(&jobs)
                    }
                }
                // Work of the jobs run alone over what the pool's workers
                // had: 1 when the pool wastes nothing.
                "batch.parallel_efficiency" => ratio(
                    s.ns("batch.job"),
                    s.count("batch.run_batch", "workers") * s.ns("batch.run_batch"),
                ),
                "batch.dedup_share" => ratio(
                    s.count("batch.run_batch", "jobs") - s.count("batch.run_batch", "unique"),
                    s.count("batch.run_batch", "jobs"),
                ),
                "batch.jsonl_bytes" => s.count("batch.run_batch", "jsonl_bytes"),
                "batch.failed" => s.count("batch.run_batch", "failed"),
                "trace.overhead_x" => overhead_x,
                "trace.spans" => spans.len() as f64,
                timed => match timed.strip_suffix("_ns") {
                    Some(span) => s.ns(span),
                    None => unreachable!("no rule for per-layer metric {timed}"),
                },
            };
            (m.name, v)
        })
        .collect()
}

/// The unit of a per-layer metric.
fn layer_unit(name: &str) -> &'static str {
    let metric = PER_LAYER.iter().find(|m| m.name == name);
    metric.expect("a per-layer name").unit
}

impl RunResult {
    /// Whether every iteration's outputs were correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of an end-to-end metric, if the workload has it.
    pub fn e2e(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The line the driver reads: the end-to-end metrics every workload
    /// has for a plain run, every per-layer metric for a traced one.
    pub fn driver_line(&self) -> String {
        let metric = |name: &str, unit: &str, value: f64| {
            let cell = Json::obj([
                ("value", Json::F64(value)),
                ("unit", Json::Str(unit.to_owned())),
            ]);
            (name.to_owned(), cell)
        };
        let metrics: Vec<(String, Json)> = if self.traced {
            self.layers
                .iter()
                .map(|&(name, v)| metric(name, layer_unit(name), v))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.everywhere)
                .map(|m| {
                    let v = self.e2e(m.metric.name).expect("every workload has it");
                    metric(m.metric.name, m.metric.unit, v)
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({}, seed {}): attempted {} failed {} samples {}\n",
            self.workload,
            if self.traced { "traced" } else { "plain" },
            self.seed,
            self.attempted,
            self.failed,
            self.samples
        );
        for why in &self.failures {
            out.push_str(&format!("  FAILED: {why}\n"));
        }
        for &(name, v) in &self.e2e {
            let m = spec::end_to_end(name).expect("an end-to-end name");
            out.push_str(&format!("  {name:<30} {v:>18.6} {}\n", m.metric.unit));
        }
        if let Some((pct, ms)) = self.iter_ms_hi {
            out.push_str(&format!("  {:<30} {ms:>18.6} ms (p{pct})\n", "iter_ms_hi"));
        }
        for (name, ms) in [
            ("wall_ms_p50", self.wall_ms_p50),
            ("calib_ms_p50", self.calib_ms_p50),
        ] {
            out.push_str(&format!("  {name:<30} {ms:>18.6} ms (uncalibrated)\n"));
        }
        for &(name, v) in &self.layers {
            out.push_str(&format!("  {name:<30} {v:>18.6} {}\n", layer_unit(name)));
        }
        out
    }

    /// The whole result, for `benchmark/out/` and for `--compare`.
    pub fn to_json(&self) -> Json {
        let cells = |rows: &[(&'static str, f64)]| {
            Json::Obj(
                rows.iter()
                    .map(|&(n, v)| (n.to_owned(), Json::F64(v)))
                    .collect(),
            )
        };
        let (hi_percentile, iter_ms_hi) = match self.iter_ms_hi {
            Some((pct, ms)) => (Json::F64(pct), Json::F64(ms)),
            None => (Json::Null, Json::Null),
        };
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::U64(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("samples", Json::U64(self.samples as u64)),
            ("hi_percentile", hi_percentile),
            ("iter_ms_hi", iter_ms_hi),
            ("wall_ms_p50", Json::F64(self.wall_ms_p50)),
            ("calib_ms_p50", Json::F64(self.calib_ms_p50)),
            ("check_hash", Json::Str(format!("{:016x}", self.check_hash))),
            ("e2e", cells(&self.e2e)),
            ("layers", cells(&self.layers)),
        ])
    }
}
