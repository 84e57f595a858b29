//! The command line both binaries share.
//!
//! ```text
//! lbp-benchmark [--seed N] [--seconds S] [--runs N] [--out FILE]
//!     every workload, plain then traced, each in a child process
//! lbp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line of output is the
//!     driver's JSON object
//! lbp-benchmark --compare A.json B.json
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use lbp_sim::Json;

use crate::compare::compare;
use crate::reference::{read_reference, repo_root};
use crate::runner::{run_workload, Budget, DEFAULT_SECONDS};
use crate::spec::{END_TO_END, EXACT, WORKLOADS};
use crate::trace::{trace_json, AllocProbe, Tracer};

/// Name of the binary that carries the tracer and the counting allocator.
const TRACED_BINARY: &str = "lbp-benchmark-traced";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: out_dir().join("results.json"),
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} {text}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => parsed.trace = number(value()?)? != 0,
            "--runs" => parsed.runs = (number(value()?)? as usize).max(1),
            "--out" => parsed.out = PathBuf::from(value()?),
            "--compare" => {
                parsed.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Where results and trace files go; ignored by git.
fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut text = String::new();
    json.write_pretty(&mut text);
    text.push('\n');
    std::fs::write(path, text).map_err(io)
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The binary called `name` beside this one.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = me.with_file_name(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built; build both binaries first: \
             cargo build --release --manifest-path benchmark/Cargo.toml",
            path.display()
        ))
    }
}

/// Runs both binaries' `main`. `probe` is the counting allocator's reading
/// in the traced binary and `None` in the plain one.
pub fn main(probe: Option<AllocProbe>) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|args| dispatch(&args, probe)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lbp-benchmark: {e}");
            2
        }
    }
}

fn dispatch(args: &Args, probe: Option<AllocProbe>) -> Result<i32, String> {
    if let Some((a, b)) = &args.compare {
        let (table, regressed) = compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(i32::from(regressed));
    }
    match &args.workload {
        Some(name) if args.trace && probe.is_none() => {
            // The tracer and its allocator live in the other binary.
            let status = child(&sibling(TRACED_BINARY)?, name, args, true)
                .status()
                .map_err(|e| e.to_string())?;
            Ok(status.code().unwrap_or(1))
        }
        Some(name) => one_workload(name, args, probe),
        None => every_workload(args),
    }
}

fn child(binary: &Path, workload: &str, args: &Args, trace: bool) -> Command {
    let mut cmd = Command::new(binary);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    cmd
}

fn result_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!("{workload}.{}.json", kind(traced)))
}

/// Runs one workload in this process and prints its metrics; the last
/// line is the driver's JSON object.
fn one_workload(name: &str, args: &Args, probe: Option<AllocProbe>) -> Result<i32, String> {
    let tracer = if args.trace {
        Tracer::enabled(probe)
    } else {
        Tracer::disabled()
    };
    let reference = read_reference()?;
    let budget = Budget::measuring(args.seconds as f64);
    let result = run_workload(name, args.seed, budget, &reference, &tracer)?;
    write(&result_path(name, args.trace), &result.to_json())?;
    if args.trace {
        let path = out_dir().join(format!("{name}.trace.json"));
        write(&path, &trace_json(name, &tracer.spans()))?;
    }
    print!("{}", result.table());
    println!("{}", result.driver_line());
    Ok(0)
}

/// Runs every workload, plain and traced, each in a child process of its
/// own so that peak memory is the workload's; `--runs N` repeats the set.
fn every_workload(args: &Args) -> Result<i32, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let traced_binary = sibling(TRACED_BINARY)?;
    let run_child = |binary: &Path, workload: &str, traced: bool| -> Result<Json, String> {
        let done = child(binary, workload, args, traced)
            .output()
            .map_err(|e| format!("{}: {e}", binary.display()))?;
        if !done.status.success() {
            return Err(format!(
                "{workload} ({}) exited with {}:\n{}",
                kind(traced),
                done.status,
                String::from_utf8_lossy(&done.stderr)
            ));
        }
        // All but the driver's line, which the files carry in full.
        let text = String::from_utf8_lossy(&done.stdout);
        let table: Vec<&str> = text.lines().collect();
        println!("{}", table[..table.len().saturating_sub(1)].join("\n"));
        read(&result_path(workload, traced))
    };
    let mut runs = Vec::new();
    let mut wrong = Vec::new();
    for run in 1..=args.runs {
        let mut row = Vec::new();
        for w in &WORKLOADS {
            eprintln!("run {run}/{}: {}", args.runs, w.name);
            let plain = run_child(&me, w.name, false)?;
            let traced = run_child(&traced_binary, w.name, true)?;
            wrong.extend(disagreements(w.name, &plain, &traced));
            let both = Json::obj([("plain", plain), ("traced", traced)]);
            row.push((w.name.to_owned(), both));
        }
        runs.push(Json::Obj(row));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = Json::obj([
        ("schema", Json::Str("lbp-benchmark-v1".to_owned())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("nproc", Json::U64(nproc as u64)),
        ("runs", Json::Arr(runs)),
    ]);
    write(&args.out, &results)?;
    println!("results: {}", args.out.display());
    for why in &wrong {
        println!("WRONG: {why}");
    }
    Ok(i32::from(!wrong.is_empty()))
}

fn kind(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "plain"
    }
}

/// Everything that makes a pair of child runs wrong: a failed operation,
/// or the plain and the traced binary disagreeing on what is exact.
fn disagreements(workload: &str, plain: &Json, traced: &Json) -> Vec<String> {
    let mut wrong = Vec::new();
    for (side, result) in [("plain", plain), ("traced", traced)] {
        if result.get("failed").and_then(Json::as_u64) != Some(0) {
            let why = result
                .get("failures")
                .map(Json::to_string)
                .unwrap_or_default();
            wrong.push(format!("{workload} ({side}): failed operations {why}"));
        }
    }
    let exact = END_TO_END.iter().filter(|m| m.bound == EXACT);
    let differing = exact
        .map(|m| vec!["e2e", m.metric.name])
        .chain([vec!["check_hash"]])
        .filter(|path| {
            let at = |root: &Json| {
                path.iter()
                    .try_fold(root.clone(), |v, key| v.get(key).cloned())
            };
            at(plain) != at(traced)
        });
    for path in differing {
        wrong.push(format!(
            "{workload}: plain and traced runs disagree on {}",
            path.join(".")
        ));
    }
    wrong
}
