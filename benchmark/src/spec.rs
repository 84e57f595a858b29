//! Every name the ledger prints: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository root
//! repeats these tables in the driver's format; a test holds the two
//! together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A workload and the one-line reason it is in the set.
pub struct WorkloadSpec {
    /// Its name on the command line and in every output.
    pub name: &'static str,
    /// Why it was chosen: which layer carries it.
    pub why: &'static str,
}

/// The seven workloads, in the order a full run executes them.
pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "cx_dense",
        why: "cycle-exact tiled matmul h=64, IPC 15.24/16: the core pipelines do nearly all the work",
    },
    WorkloadSpec {
        name: "cx_remote",
        why: "cycle-exact base matmul h=64, locality 0.06: routers, fabric and banks carry the run",
    },
    WorkloadSpec {
        name: "cx_idle",
        why: "cycle-exact empty fork-join x256 on 64 cores, IPC 0.48/64: only per-core-per-cycle fixed cost shows",
    },
    WorkloadSpec {
        name: "cx_observed",
        why: "the cx_dense guest with profiler, race witness, sampler and checkpoints on, then restored: the collectors' cost",
    },
    WorkloadSpec {
        name: "ff_scale",
        why: "functional engine on the 256-hart tiled matmul plus an h=64 hybrid90 leg: fast.rs is nearly all the time",
    },
    WorkloadSpec {
        name: "src_to_verdict",
        why: "toolchain only, 133 sources (37 shipped, 96 seeded): lint, compile, assemble, verify and interpret, no Machine",
    },
    WorkloadSpec {
        name: "batch_sweep",
        why: "the 16-job matmul.c sweep plus 4 seeded twins through lbp-batch on 2 workers: pool, dedupe, Machine::new, JSONL",
    },
];

/// A metric the ledger prints.
pub struct MetricSpec {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

/// An end-to-end metric: one a user of the system sees.
pub struct EndToEnd {
    /// Name, unit and direction.
    pub metric: MetricSpec,
    /// The share of the base's median it may worsen by before the change
    /// counts as a regression.
    pub bound: f64,
    /// Whether every workload has it. Only those are in `BENCHMARK.json`,
    /// whose format wants each end-to-end metric on each workload; the
    /// others are printed and compared where they apply.
    pub everywhere: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    everywhere: bool,
) -> EndToEnd {
    EndToEnd {
        metric: MetricSpec { name, unit, better },
        bound,
        everywhere,
    }
}

/// A repeat of exact simulated counts may not worsen at all. The driver's
/// format wants a share, so the bound is one part in a million: below one
/// unit of any count the ledger holds.
pub const EXACT: f64 = 1e-6;

/// Bound of the host times. Ten runs of unchanged code, each with another
/// seed, spread by up to 7 % of their median on `src_to_verdict` and 11 %
/// on `batch_sweep` even after calibration (see `calibrate.rs`); a bound is
/// only worth having at about three times that.
const HOST: f64 = 0.25;
/// Bound of peak memory, which repeats to within 1.5 %.
const MEMORY: f64 = 0.10;

/// The end-to-end metrics. Times and memory are host measurements; cycles,
/// IPC, error and code words are exact simulated counts; the three
/// throughputs divide one by the other.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, HOST, true),
    e2e("iter_ms_p50", "ms", Better::Lower, HOST, true),
    e2e("sim_mcyc_per_s", "Mcycle/s", Better::Higher, HOST, false),
    e2e(
        "guest_minstr_per_s",
        "Minstr/s",
        Better::Higher,
        HOST,
        false,
    ),
    e2e("ops_per_s", "1/s", Better::Higher, HOST, true),
    e2e("peak_rss_mb", "MB", Better::Lower, MEMORY, true),
    e2e("guest_cycles", "cycles", Better::Lower, EXACT, false),
    e2e("guest_ipc", "instr/cycle", Better::Higher, EXACT, false),
    e2e("ref_cycle_err_pct", "%", Better::Lower, EXACT, false),
    e2e("code_words", "words", Better::Lower, EXACT, true),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run. On a workload that never
/// calls a layer, the layer's times and counts are 0.
pub const PER_LAYER: [MetricSpec; 74] = [
    // Program construction: moves setup_s on cx_* and ff_scale.
    layer("kernels.build_ns", "ns", Lower),
    layer("asm.assemble_ns", "ns", Lower),
    layer("asm.source_bytes", "bytes", Lower),
    layer("asm.code_words", "words", Lower),
    // lbp-cc and lbp-sema: move src_to_verdict, weakly batch_sweep.
    layer("cc.lex_ns", "ns", Lower),
    layer("cc.parse_ns", "ns", Lower),
    layer("cc.sema_ns", "ns", Lower),
    layer("cc.lint_ns", "ns", Lower),
    layer("cc.compile_ns", "ns", Lower),
    layer("cc.codegen_self_ns", "ns", Lower),
    layer("cc.source_bytes", "bytes", Lower),
    layer("cc.asm_lines", "lines", Lower),
    layer("sema.interp_ns", "ns", Lower),
    layer("sema.traps", "count", Lower),
    // lbp-verify: moves src_to_verdict only.
    layer("verify.image_ns", "ns", Lower),
    layer("verify.diags", "count", Lower),
    layer("verify.rejected", "count", Lower),
    // lbp-sim cycle-exact: sim.run_ns is iter_ms_p50 on cx_dense/remote/idle.
    layer("sim.new_ns", "ns", Lower),
    layer("sim.run_ns", "ns", Lower),
    layer("sim.ns_per_cycle", "ns/cycle", Lower),
    layer("sim.ns_per_core_cycle", "ns/cycle", Lower),
    layer("sim.ns_per_retired", "ns/instr", Lower),
    layer("sim.ns_per_event", "ns/event", Lower),
    layer("sim.allocs_per_cycle", "1/cycle", Lower),
    layer("sim.alloc_bytes_per_cycle", "bytes/cycle", Lower),
    layer("sim.report_json_ns", "ns", Lower),
    layer("sim.report_json_bytes", "bytes", Lower),
    layer("sim.state_bytes", "bytes", Lower),
    // The modelled machine: exact, and identical before and after any
    // simulator-speed change.
    layer("guest.cycles", "cycles", Lower),
    layer("guest.retired", "instr", Lower),
    layer("guest.ipc", "instr/cycle", Higher),
    layer("guest.core_util", "ratio", Higher),
    layer("guest.locality", "ratio", Higher),
    layer("guest.link_hops", "count", Lower),
    layer("guest.link_contention", "cycles", Lower),
    layer("guest.bank_conflicts", "cycles", Lower),
    layer("guest.forks", "count", Lower),
    layer("guest.stall.fetch_starved", "cycles", Lower),
    layer("guest.stall.mem_wait", "cycles", Lower),
    layer("guest.stall.operand_wait", "cycles", Lower),
    layer("guest.stall.rb_full", "cycles", Lower),
    layer("guest.stall.sync_wait", "cycles", Lower),
    layer("guest.stall.idle", "cycles", Lower),
    // Observers: move iter_ms_p50 on cx_observed only.
    layer("sim.observed_run_ns", "ns", Lower),
    layer("sim.observe_overhead_x", "x", Lower),
    layer("sim.snapshot_ns", "ns", Lower),
    layer("sim.restore_ns", "ns", Lower),
    layer("snap.encode_ns", "ns", Lower),
    layer("snap.decode_ns", "ns", Lower),
    layer("snap.bytes", "bytes", Lower),
    layer("prof.report_ns", "ns", Lower),
    layer("sim.samples", "count", Lower),
    layer("sim.race_witnesses", "count", Lower),
    layer("sim.trace_jsonl_ns_per_event", "ns/event", Lower),
    layer("sim.trace_events", "count", Lower),
    // lbp-sim functional: moves ff_scale.
    layer("fast.new_ns", "ns", Lower),
    layer("fast.run_ns", "ns", Lower),
    layer("fast.minstr_per_s", "Minstr/s", Higher),
    layer("fast.ns_per_retired", "ns/instr", Lower),
    layer("fast.allocs_per_minstr", "1/Minstr", Lower),
    layer("fast.materialize_ns", "ns", Lower),
    layer("fast.tail_run_ns", "ns", Lower),
    layer("fast.virtual_cycles", "cycles", Lower),
    layer("fast.cycle_err_pct", "%", Lower),
    layer("fast.warm_fraction", "ratio", Higher),
    // lbp-batch: moves ops_per_s on batch_sweep.
    layer("batch.load_manifest_ns", "ns", Lower),
    layer("batch.run_batch_ns", "ns", Lower),
    layer("batch.job_ns_p50", "ns", Lower),
    layer("batch.parallel_efficiency", "ratio", Higher),
    layer("batch.dedup_share", "ratio", Higher),
    layer("batch.jsonl_bytes", "bytes", Lower),
    layer("batch.failed", "count", Lower),
    // The tracer itself.
    layer("trace.overhead_x", "x", Lower),
    layer("trace.spans", "count", Lower),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.metric.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_sim::Json;
    use std::collections::BTreeSet;

    /// A name the driver's format accepts: it starts with a letter or digit
    /// and holds at most 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A unit the driver's format accepts: at most 16 letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    /// The spelling used in `BENCHMARK.json`.
    fn spelled(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        assert!(valid_name("sim.ns_per_cycle") && valid_name("9-a_b.c"));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("é"));
        assert!(!valid_name(&"x".repeat(65)) && valid_name(&"x".repeat(64)));
        assert!(valid_unit("Mcycle/s") && valid_unit("%") && !valid_unit("per second"));
        let mut seen = BTreeSet::new();
        let metrics = END_TO_END.iter().map(|m| &m.metric).chain(PER_LAYER.iter());
        for m in metrics {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.metric.name);
        }
    }

    /// `BENCHMARK.json` says what this file says, name for name.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = crate::reference::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is checked in");
        assert!(text.len() <= 64 * 1024);
        let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let Json::Obj(pairs) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| json.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, ours);

        let theirs: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.everywhere)
            .map(|m| {
                (
                    m.metric.name.to_owned(),
                    m.metric.unit.to_owned(),
                    spelled(m.metric.better).to_owned(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(theirs, ours);

        let theirs: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    spelled(m.better).to_owned(),
                )
            })
            .collect();
        assert_eq!(theirs, ours);

        let seconds = json.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert_eq!(seconds, crate::runner::DEFAULT_SECONDS);
        let paths: Vec<String> = list("paths")
            .iter()
            .map(|p| p.as_str().unwrap().to_owned())
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
