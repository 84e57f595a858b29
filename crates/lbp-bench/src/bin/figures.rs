//! Regenerates the paper's evaluation artifacts.
//!
//! ```text
//! cargo run -p lbp-bench --release --bin figures -- all
//! cargo run -p lbp-bench --release --bin figures -- fig19 fig20
//! cargo run -p lbp-bench --release --bin figures -- determinism overhead
//! cargo run -p lbp-bench --release --bin figures -- --help
//! ```

use std::path::Path;
use std::time::Instant;

use lbp_bench::{
    ablation, ablation_checks, ablation_table, benchmark_json, determinism_check,
    energy_comparison, fork_join_overhead, reproduce_figure_with_reports, single_core_ipc,
};
use lbp_sim::cli::{Flag, Grammar, Positional, ALL_MODES};
use lbp_sim::ExitClass;

lbp_sim::flags! { FLAGS:
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

fn run_figure(number: u32, csv: bool, stats_dir: Option<&str>) {
    let t = Instant::now();
    let (fig, reports) = reproduce_figure_with_reports(number);
    if let Some(dir) = stats_dir {
        std::fs::create_dir_all(dir).expect("create stats dir");
        for (name, report) in &reports {
            let mut text = String::new();
            benchmark_json(name, fig.harts, report).write_pretty(&mut text);
            text.push('\n');
            let path = Path::new(dir).join(format!("{name}.json"));
            std::fs::write(&path, text).expect("write stats JSON");
        }
    }
    if csv {
        print!("{}", fig.to_csv());
        return;
    }
    print!("{}", fig.to_table());
    let all_ok = print_checks(&fig.check_shapes());
    println!(
        "(regenerated in {:.1?} of host time; simulated numbers are exact)\n",
        t.elapsed()
    );
    if !all_ok {
        ExitClass::Failure.exit();
    }
}

/// Prints the `shape checks:` block and returns whether every check held.
fn print_checks(checks: &[(String, bool)]) -> bool {
    println!("shape checks:");
    for (what, ok) in checks {
        println!("  [{}] {}", if *ok { "ok" } else { "FAIL" }, what);
    }
    checks.iter().all(|(_, ok)| *ok)
}

fn run_determinism() {
    println!("C1 — cycle determinism (tiled matmul, two traced replays):");
    for harts in [16usize, 64] {
        let ok = determinism_check(harts);
        println!(
            "  [{}] h={harts}: traces, cycles and retired counts bit-identical",
            if ok { "ok" } else { "FAIL" }
        );
        assert!(ok);
    }
    println!();
}

fn run_overhead() {
    println!("C2 — parallelization overhead (empty team, spawn + barrier + join):");
    println!(
        "{:<18} {:>10} {:>10} {:>16}",
        "team", "cycles", "retired", "retired/member"
    );
    for threads in [4usize, 16, 64, 256] {
        let row = fork_join_overhead(threads);
        println!(
            "{:<18} {:>10} {:>10} {:>16.1}",
            row.name,
            row.cycles,
            row.retired,
            row.retired as f64 / threads as f64
        );
    }
    println!();
}

fn run_multithreading() {
    println!(
        "Multithreading ablation — §5.2: harts needed to fill one core's pipeline\n\
         (no branch predictor: every fetch suspends until the next pc is known)"
    );
    println!("{:<14} {:>10}", "active harts", "core IPC");
    for members in 1..=4 {
        println!("{:<14} {:>10.2}", members, single_core_ipc(members));
    }
    println!();
}

fn run_energy() {
    println!("Energy proxy — §7's closing claim (tiled matmul, h = 64):");
    let (lbp_j, phi_j, a) = energy_comparison(64);
    println!(
        "  LBP (activity model, embedded 28nm-class point): {:.3} mJ",
        lbp_j * 1e3
    );
    println!(
        "  Xeon-Phi2-class (TDP x modelled time):           {:.3} mJ",
        phi_j * 1e3
    );
    println!("  efficiency ratio: {:.1}x in LBP's favor", phi_j / lbp_j);
    println!(
        "  (activity: {} instr, {} muldiv, {} mem ops, {} hops, {} cycles on {} cores)\n",
        a.retired, a.muldiv_ops, a.mem_ops, a.link_hops, a.cycles, a.cores
    );
}

fn run_ablation() {
    let rows = ablation();
    print!("{}", ablation_table(&rows));
    let all_ok = print_checks(&ablation_checks(&rows));
    println!();
    if !all_ok {
        ExitClass::Failure.exit();
    }
}

fn main() {
    let args = GRAMMAR.parse_env();
    let csv = args.has(CSV);
    let stats_dir = args.str(STATS_DIR);
    for arg in args.positional() {
        match arg.as_str() {
            "fig19" => run_figure(19, csv, stats_dir),
            "fig20" => run_figure(20, csv, stats_dir),
            "fig21" => run_figure(21, csv, stats_dir),
            "determinism" => run_determinism(),
            "overhead" => run_overhead(),
            "multithreading" => run_multithreading(),
            "energy" => run_energy(),
            "ablation" => run_ablation(),
            "all" => {
                run_figure(19, csv, stats_dir);
                run_figure(20, csv, stats_dir);
                run_figure(21, csv, stats_dir);
                run_determinism();
                run_overhead();
                run_multithreading();
                run_energy();
                run_ablation();
            }
            other => GRAMMAR.refuse(&format!("unknown target `{other}`")),
        }
    }
}
