//! `throughput` — the simulator self-metrics suite.
//!
//! Measures how fast the *host* simulates the corpus workloads
//! (sim-cycles/sec, host-ns/sim-cycle, events/sec, peak-RSS proxy) and
//! proves the zero-cost-when-disabled instrumentation claim by rerunning
//! a subset profiled and bit-comparing reports and final states.
//!
//! ```text
//! cargo run -p lbp-bench --release --bin throughput -- --out BENCH_006.json
//! ```
//!
//! Options:
//!
//! - `--out FILE` write the `lbp-prof-v1` bench-suite JSON (default:
//!   stdout);
//! - `--quick`    reduced corpus (drops the h=64 matmul; CI smoke);
//! - `--check`    exit 1 if profiling is not bit-identical or the
//!   profiled/plain wall-clock ratio of any checked workload exceeds the
//!   overhead guard (3.0x — generous because the guest runs are short
//!   and host timing is noisy; the real claim is bit-identity).

use std::io::Write as _;
use std::process::ExitCode;

use lbp_bench::throughput::{overhead_check, suite_json, Workload};
use lbp_sim::ExitClass;

const OVERHEAD_GUARD: f64 = 3.0;

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut quick = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next(),
            "--quick" => quick = true,
            "--check" => check = true,
            other => {
                eprintln!("throughput: unknown option `{other}`");
                eprintln!("usage: throughput [--out FILE] [--quick] [--check]");
                return ExitClass::Usage.into();
            }
        }
    }

    let corpus = Workload::corpus(quick);
    let mut rows = Vec::new();
    let mut plain = Vec::new();
    for w in &corpus {
        let m = w.run(false);
        eprintln!(
            "{:<24} {:>10} cycles  {:>8.2} Mcyc/s  {:>7.1} ns/cyc",
            w.name,
            m.row.sim_cycles,
            m.row.sim_cycles_per_sec() / 1e6,
            m.row.host_ns_per_cycle(),
        );
        rows.push(m.row.clone());
        plain.push(m);
    }

    // Zero-cost check on the two cheapest workload families — enough to
    // exercise both the fork fabric and the memory system paths.
    let mut overhead = Vec::new();
    let mut ok = true;
    for (w, p) in corpus.iter().zip(&plain) {
        if !w.name.starts_with("fork_join") && !w.name.starts_with("spin_alu") {
            continue;
        }
        let o = overhead_check(w, p);
        eprintln!(
            "overhead {:<16} bit-identical: {}  profiled/plain: {:.2}x",
            o.name, o.bit_identical, o.ratio
        );
        if !o.bit_identical || o.ratio > OVERHEAD_GUARD {
            ok = false;
        }
        overhead.push(o);
    }

    let suite = suite_json("BENCH_006", &rows, &overhead);
    let mut text = String::new();
    suite.write_pretty(&mut text);
    text.push('\n');
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("throughput: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("throughput: suite written to {path}");
        }
        None => {
            let _ = std::io::stdout().write_all(text.as_bytes());
        }
    }

    if check && !ok {
        eprintln!("throughput: overhead guard tripped (or profiling not bit-identical)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
