//! One set-up, one warm-up and one timed iteration of every workload with
//! its correctness check, on the real inputs; the names a run emits
//! against `BENCHMARK.json`; and a wrong pin, which must count as failed
//! operations and not as a different speed.

use lbp_benchmark::reference::{read_reference, repo_root};
use lbp_benchmark::runner::{run_workload, Budget, RunResult};
use lbp_benchmark::spec::WORKLOADS;
use lbp_benchmark::trace::{self_times, Root, Span, Tracer};
use lbp_sim::Json;

fn smoke(workload: &str, traced: bool) -> (RunResult, Vec<Span>) {
    let t = if traced {
        Tracer::enabled(None)
    } else {
        Tracer::disabled()
    };
    let reference = read_reference().unwrap();
    let result = run_workload(workload, 42, Budget::smoke(), &reference, &t).unwrap();
    let spans = t.spans().clone();
    (result, spans)
}

/// Plain: every iteration correct, and every end-to-end number a positive
/// finite one, since the driver's format has no place for a zero.
fn smoke_plain(workload: &str) -> RunResult {
    let (r, spans) = smoke(workload, false);
    assert_eq!(r.failed, 0, "{workload}: {:?}", r.failures);
    assert_eq!(r.attempted, 2, "warm-up and one timed iteration");
    assert!(spans.is_empty() && r.layers.is_empty());
    for name in [
        "setup_s",
        "iter_ms_p50",
        "ops_per_s",
        "peak_rss_mb",
        "code_words",
    ] {
        let v = r
            .e2e(name)
            .unwrap_or_else(|| panic!("{workload} lacks {name}"));
        assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
    }
    r
}

#[test]
fn cx_dense_reproduces_its_reference_row() {
    let r = smoke_plain("cx_dense");
    assert_eq!(r.e2e("guest_cycles"), Some(112_262.0));
    assert_eq!(r.e2e("ref_cycle_err_pct"), Some(0.0));
}

#[test]
fn cx_remote_reproduces_its_reference_row() {
    let r = smoke_plain("cx_remote");
    assert_eq!(r.e2e("guest_cycles"), Some(135_059.0));
}

#[test]
fn cx_idle_reproduces_its_reference_row() {
    let r = smoke_plain("cx_idle");
    assert_eq!(r.e2e("guest_cycles"), Some(15_303.0));
    assert!(r.e2e("guest_ipc").unwrap() < 0.5);
}

#[test]
fn cx_observed_reaches_the_plain_hash_and_nests_its_spans() {
    let (r, spans) = smoke("cx_observed", true);
    assert_eq!(r.failed, 0, "{:?}", r.failures);
    let layer = |name: &str| r.layers.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(layer("sim.race_witnesses"), 0.0);
    assert_eq!(layer("sim.samples"), 113.0);
    assert!(layer("snap.bytes") > 0.0 && layer("sim.observe_overhead_x") > 0.0);
    assert!(layer("sim.trace_events") > 0.0);

    // Self times of an iteration's spans add up to the iteration.
    let own = self_times(&spans);
    let iter = spans
        .iter()
        .position(|s| s.name == Root::Iter.name())
        .expect("one traced iteration");
    let mut inside = vec![false; spans.len()];
    inside[iter] = true;
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            inside[i] = inside[p];
        }
    }
    let sum: u64 = own
        .iter()
        .zip(&inside)
        .filter(|(_, &i)| i)
        .map(|(o, _)| o)
        .sum();
    assert_eq!(sum, spans[iter].ns());
    // 11 checkpoints, each a snapshot and an encode under the observed run.
    let under_run = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name && inside[s.parent.unwrap()])
            .filter(|s| spans[s.parent.unwrap()].name == "sim.observed_run")
            .count()
    };
    assert_eq!(
        (under_run("sim.snapshot"), under_run("snap.encode")),
        (11, 11)
    );
}

#[test]
fn ff_scale_reproduces_figure_21_and_the_hybrid_hash() {
    let r = smoke_plain("ff_scale");
    let err = r.e2e("ref_cycle_err_pct").unwrap();
    assert!((9.0..11.0).contains(&err), "functional cycle error {err} %");
    assert!(r.e2e("guest_minstr_per_s").unwrap() > 1.0);
}

#[test]
fn src_to_verdict_gives_every_known_answer() {
    let r = smoke_plain("src_to_verdict");
    assert_eq!(r.e2e("guest_cycles"), None, "no machine runs here");
    let other_seed = {
        let reference = read_reference().unwrap();
        run_workload(
            "src_to_verdict",
            7,
            Budget::smoke(),
            &reference,
            &Tracer::disabled(),
        )
        .unwrap()
    };
    assert_eq!(other_seed.failed, 0, "{:?}", other_seed.failures);
    assert_ne!(
        other_seed.check_hash, r.check_hash,
        "the seed reaches the corpus"
    );
    assert_eq!(other_seed.e2e("code_words"), r.e2e("code_words"));
}

#[test]
fn batch_sweep_matches_the_one_worker_run() {
    let r = smoke_plain("batch_sweep");
    assert!(r.e2e("guest_cycles").unwrap() > 0.0);
}

/// A pin that disagrees with the simulator is wrong output on every
/// iteration, named after the row; a missing row fails set-up.
#[test]
fn a_wrong_pin_counts_as_failed_operations() {
    let reference = read_reference().unwrap();
    let row = "tiled                          112262";
    assert!(reference.contains(row));
    let t = Tracer::disabled();
    let doctored = reference.replace(row, "tiled                          112263");
    let r = run_workload("cx_dense", 42, Budget::smoke(), &doctored, &t).unwrap();
    assert_eq!((r.attempted, r.failed), (2, 2));
    assert!(
        r.failures[0].contains("Figure 20 tiled: cycles"),
        "{:?}",
        r.failures
    );
    assert!(!r.correct() && r.driver_line().starts_with("{\"correct\":false,"));
    assert!(r.e2e("ref_cycle_err_pct").unwrap() > 0.0);

    let missing = reference.replace("fork-join x256", "fork-join x255");
    let e = run_workload("cx_idle", 42, Budget::smoke(), &missing, &t)
        .err()
        .unwrap();
    assert!(e.contains("fork-join x256"), "{e}");
    assert!(run_workload("cx_nothing", 42, Budget::smoke(), &reference, &t).is_err());
}

/// The driver's line carries exactly the names `BENCHMARK.json` lists:
/// its end-to-end metrics for a plain run, its per-layer ones for a traced.
#[test]
fn a_run_emits_the_names_of_benchmark_json_and_no_others() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let listed = Json::parse(&text).unwrap();
    let names = |key: &str| -> Vec<String> {
        let rows = listed.get(key).and_then(Json::as_arr).unwrap();
        rows.iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    };
    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let (r, _) = smoke("cx_idle", traced);
        let line = Json::parse(&r.driver_line()).unwrap();
        let Json::Obj(top) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(emitted, names(key), "--trace {}", u8::from(traced));
        for (name, cell) in metrics {
            assert!(cell.get("value").and_then(Json::as_f64).is_some(), "{name}");
            assert!(cell.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
    assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name.to_owned()));
}
