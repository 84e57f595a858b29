//! Regenerates the paper's evaluation artifacts: stdout of `all` is
//! `results_reference.txt`; the host time each target took goes to stderr.
//!
//! ```text
//! cargo run --release --bin figures -- all
//! cargo run --release --bin figures -- fig19 fig20
//! cargo run --release --bin figures -- determinism overhead
//! cargo run --release --bin figures -- --help
//! ```

use std::path::Path;
use std::time::Instant;

use lbp::figures::{self, Figure, Section};
use lbp::kernels::matmul::Version;
use lbp::sim::cli::{Flag, Grammar, Positional, ALL_MODES};
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
fn figure(fig: &Figure, csv: bool, stats_dir: Option<&str>) -> Section {
    if let Some(dir) = stats_dir {
        if let Err(e) = write_stats(fig, dir) {
            eprintln!("figures: cannot write stats JSON to `{dir}`: {e}");
            ExitClass::Failure.exit();
        }
    }
    if csv {
        return Section {
            text: fig.to_csv(),
            ok: true,
        };
    }
    fig.section()
}

fn main() {
    let args = GRAMMAR.parse_env();
    let csv = args.has(CSV);
    let stats_dir = args.str(STATS_DIR);
    // Fig. 20's tiled run, which the energy section reads too.
    let mut tiled_h64 = None;
    for arg in args.positional() {
        let targets = if arg == "all" {
            &ALL[..]
        } else {
            &[arg.as_str()][..]
        };
        for &target in targets {
            let t = Instant::now();
            let section = match target {
                "fig19" => figure(&figures::reproduce_figure(19), csv, stats_dir),
                "fig20" => {
                    let fig = figures::reproduce_figure(20);
                    tiled_h64 = Some(fig.report(Version::Tiled).clone());
                    figure(&fig, csv, stats_dir)
                }
                "fig21" => figure(&figures::reproduce_figure(21), csv, stats_dir),
                "determinism" => figures::determinism(),
                "overhead" => figures::overhead(),
                "multithreading" => figures::multithreading(),
                "energy" => figures::energy(
                    tiled_h64.get_or_insert_with(|| figures::measure(64, Version::Tiled).1),
                ),
                "ablation" => figures::ablation(),
                other => GRAMMAR.refuse(&format!("unknown target `{other}`")),
            };
            print!("{}", section.text);
            eprintln!(
                "({target} regenerated in {:.1?} of host time; simulated numbers are exact)",
                t.elapsed()
            );
            if !section.ok {
                ExitClass::Failure.exit();
            }
        }
    }
}
