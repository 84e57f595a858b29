//! Regenerates the paper's evaluation artifacts: stdout of `all` is
//! `results_reference.txt`; the host time each target took goes to stderr.
//! Both are written at the end; a closed stdout ends the tool quietly with
//! the checks' class.
//!
//! ```text
//! cargo run --release --bin figures -- all
//! cargo run --release --bin figures -- fig19 fig20
//! cargo run --release --bin figures -- determinism overhead
//! cargo run --release --bin figures -- --help
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use lbp::figures::{self, Figure, Section};
use lbp::kernels::matmul::Version;
use lbp::sim::cli::{Args, Flag, Grammar, Outcome, Positional, ALL_MODES};
use lbp::sim::{ExitClass, Json};

lbp::sim::flags! { FLAGS:
    CSV = Flag::new("--csv", &[], ALL_MODES, "print figures as CSV rows instead of tables");
    STATS_DIR = Flag::new("--stats-dir", &["DIR"], ALL_MODES,
        "write one lbp-stats-v1 JSON per benchmark run into DIR");
}

static GRAMMAR: Grammar = Grammar {
    tool: "figures",
    synopsis: &[
        "figures [--csv] [--stats-dir DIR] TARGET...",
        "TARGET: fig19 fig20 fig21 determinism overhead multithreading energy ablation all",
    ],
    about: "Regenerates the paper's Figures 19-21 and the claim checks.",
    modes: &[("figures", "")],
    positional: Positional {
        name: "a TARGET",
        required: ALL_MODES,
        allowed: ALL_MODES,
        many: true,
    },
    flags: FLAGS,
    footer: "",
};

/// The targets `all` stands for, in the order of `results_reference.txt`.
const ALL: [&str; 8] = [
    "fig19",
    "fig20",
    "fig21",
    "determinism",
    "overhead",
    "multithreading",
    "energy",
    "ablation",
];

/// Writes one `lbp-stats-v1` report per simulated version of `fig` into
/// `dir`, with `benchmark` and `harts` fields after the schema tag.
fn write_stats(fig: &Figure, dir: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, report) in &fig.reports {
        let mut json = report.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.insert(1, ("benchmark".to_owned(), Json::Str(name.clone())));
            fields.insert(2, ("harts".to_owned(), Json::U64(fig.harts as u64)));
        }
        let mut text = String::new();
        json.write_pretty(&mut text);
        text.push('\n');
        std::fs::write(Path::new(dir).join(format!("{name}.json")), text)?;
    }
    Ok(())
}

/// Figure `fig` as a table with its checks, or as CSV rows, which carry
/// no checks.
fn figure(
    o: &mut Outcome,
    fig: &Figure,
    csv: bool,
    dir: Option<&str>,
) -> Result<Section, ExitClass> {
    if let Some(dir) = dir {
        let what = |e| format!("cannot write stats JSON to `{dir}`: {e}");
        write_stats(fig, dir).map_err(|e| o.fail(ExitClass::Failure, what(e)))?;
    }
    if csv {
        return Ok(Section {
            text: fig.to_csv(),
            ok: true,
        });
    }
    Ok(fig.section())
}

/// Regenerates the targets in order, each section's text on stdout and
/// its host time on stderr; a failed check ends the run after its
/// section, an unknown target is refused where it stands.
fn run(args: &Args, o: &mut Outcome) -> Result<(), ExitClass> {
    let (csv, stats_dir) = (args.has(CSV), args.str(STATS_DIR));
    let targets = args.positional().iter().map(String::as_str);
    // Fig. 20's tiled run, which the energy section reads too.
    let mut tiled_h64 = None;
    for target in targets.flat_map(|t| if t == "all" { ALL.to_vec() } else { vec![t] }) {
        let t = Instant::now();
        let section = match target {
            "fig19" => figure(o, &figures::reproduce_figure(19), csv, stats_dir)?,
            "fig20" => {
                let fig = figures::reproduce_figure(20);
                tiled_h64 = Some(fig.report(Version::Tiled).clone());
                figure(o, &fig, csv, stats_dir)?
            }
            "fig21" => figure(o, &figures::reproduce_figure(21), csv, stats_dir)?,
            "determinism" => figures::determinism(),
            "overhead" => figures::overhead(),
            "multithreading" => figures::multithreading(),
            "energy" => figures::energy(
                tiled_h64.get_or_insert_with(|| figures::measure(64, Version::Tiled).1),
            ),
            "ablation" => figures::ablation(),
            other => return Err(o.refuse(&format!("unknown target `{other}`"))),
        };
        o.stdout.push_str(&section.text);
        let _ = writeln!(
            o.stderr,
            "({target} regenerated in {:.1?} of host time; simulated numbers are exact)",
            t.elapsed()
        );
        if !section.ok {
            return Err(ExitClass::Failure);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    GRAMMAR.outcome(run).finish()
}
