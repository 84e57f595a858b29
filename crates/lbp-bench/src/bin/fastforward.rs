//! `fastforward` — the hybrid fast-forward speedup suite.
//!
//! Runs every corpus workload three ways over the same image and
//! inputs — cycle-exact, functional, and hybrid (90% functional warm
//! phase, cycle-exact tail) — and records wall-clock speedups plus the
//! fidelity verdict (every mode must land on the cycle-exact run's
//! architectural hash).
//!
//! ```text
//! cargo run -p lbp-bench --release --bin fastforward -- --out BENCH_009.json
//! ```
//!
//! Options:
//!
//! - `--out FILE`       write the `lbp-prof-v1` bench-suite JSON
//!   (default: stdout);
//! - `--quick`          reduced corpus (drops the h=64 matmul; CI
//!   smoke);
//! - `--check`          exit 1 if any workload's engines are not
//!   bit-identical, or if the functional speedup on a matmul workload
//!   falls below the guard;
//! - `--min-speedup X`  the `--check` guard for matmul functional
//!   speedup (default 3.0 — deliberately far under the ~10x+ a
//!   release build reaches, because CI machines are noisy; the real
//!   claim is bit-identity).

use std::io::Write as _;
use std::process::ExitCode;

use lbp_bench::fastforward::{measure, suite_json};
use lbp_bench::throughput::Workload;
use lbp_sim::ExitClass;

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut quick = false;
    let mut check = false;
    let mut min_speedup = 3.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next(),
            "--quick" => quick = true,
            "--check" => check = true,
            "--min-speedup" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("fastforward: --min-speedup needs a number");
                    return ExitClass::Usage.into();
                };
                min_speedup = v;
            }
            other => {
                eprintln!("fastforward: unknown option `{other}`");
                eprintln!("usage: fastforward [--out FILE] [--quick] [--check] [--min-speedup X]");
                return ExitClass::Usage.into();
            }
        }
    }

    let corpus = Workload::corpus(quick);
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    let mut ok = true;
    for w in &corpus {
        let m = measure(w);
        eprintln!(
            "{:<24} functional: {:>6.1}x  hybrid90: {:>5.2}x (warm {:>4.1}%)  bit-identical: {}",
            w.name,
            m.summary.functional_speedup,
            m.summary.hybrid_speedup,
            m.summary.warm_fraction * 100.0,
            m.summary.bit_identical,
        );
        if !m.summary.bit_identical {
            ok = false;
        }
        if w.name.starts_with("matmul") && m.summary.functional_speedup < min_speedup {
            eprintln!(
                "fastforward: {} functional speedup {:.1}x under the {min_speedup:.1}x guard",
                w.name, m.summary.functional_speedup
            );
            ok = false;
        }
        rows.extend(m.rows);
        summaries.push(m.summary);
    }

    let suite = suite_json("BENCH_009", &rows, &summaries);
    let mut text = String::new();
    suite.write_pretty(&mut text);
    text.push('\n');
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("fastforward: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("fastforward: suite written to {path}");
        }
        None => {
            let _ = std::io::stdout().write_all(text.as_bytes());
        }
    }

    if check && !ok {
        eprintln!("fastforward: fidelity or speedup guard tripped");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
