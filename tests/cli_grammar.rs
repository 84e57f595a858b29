//! The grammar is the contract: each tool's flag table is its `--help`
//! text, its parser and its legality check, so what a command line does
//! can be read off the command line. For `lbp-run` and `lbp-cc` (the
//! binaries of this package; `lbp-batch`, `lbp-fuzz` and `figures` hold
//! the same contract in their own crates' `tests/cli_grammar.rs`):
//! nothing was added, removed or renamed against the parent's usage
//! text; a flag the selected mode would ignore is a usage error naming
//! both; the documents spell no flag the tables lack; `lbp-run --verify`
//! and `lbp-cc --lint` are one function; and hostile nesting is a
//! positioned diagnostic, not an abort.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

mod cli_contract;

use cli_contract::{check_contract, help_modes, help_table};
use lbp::sim::ExitClass;
use lbp_testutil::harness;

const LBP_RUN: &str = env!("CARGO_BIN_EXE_lbp-run");
const LBP_CC: &str = env!("CARGO_BIN_EXE_lbp-cc");

fn repo(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("tool spawns")
}

/// Asserts a usage refusal whose message names every one of `names`.
fn refused(out: &Output, names: &[&str], what: &str) {
    assert_eq!(
        out.status.code(),
        Some(i32::from(ExitClass::Usage.code())),
        "{what}"
    );
    assert!(
        out.stdout.is_empty(),
        "{what}: a refusal prints nothing on stdout"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let message = stderr.lines().last().unwrap_or("");
    for name in names {
        assert!(
            message.contains(name),
            "{what}: `{message}` does not name {name}"
        );
    }
}

#[test]
fn lbp_run_lists_the_27_flags_of_the_parent_and_the_documents_spell_no_other() {
    let pinned = [
        "--bisect",
        "--bisect-snaps",
        "--checkpoint-every",
        "--checkpoint-prefix",
        "--cores",
        "--diag-json",
        "--disasm",
        "--dump",
        "--dump-on-error",
        "--emit-asm",
        "--fault",
        "--interval",
        "--lockstep",
        "--max-cycles",
        "--profile",
        "--race-witness",
        "--resume-from",
        "--roi",
        "--sabotage",
        "--snap-info",
        "--stats-json",
        "--trace",
        "--trace-format",
        "--verify",
        "--wall-ms",
        "--warm",
        "--warm-snap",
    ];
    assert_eq!(pinned.len(), 27);
    check_contract(Path::new(LBP_RUN), "lbp-run", &pinned);
}

#[test]
fn lbp_cc_lists_the_7_flags_of_the_parent_and_the_documents_spell_no_other() {
    let pinned = [
        "--diag-json",
        "--diff",
        "--interp",
        "--lint",
        "--max-cycles",
        "--sabotage",
        "-o",
    ];
    check_contract(Path::new(LBP_CC), "lbp-cc", &pinned);
}

/// A command line that selects `mode` of `lbp-run` and is legal as it
/// stands. The program need not exist: legality is decided first.
fn selecting(mode: &str) -> Vec<&'static str> {
    match mode {
        "run" => vec!["p.s"],
        "warm" => vec!["p.s", "--warm", "1"],
        "resume" => vec!["--resume-from", "ck.lbpsnap"],
        "verify" => vec!["p.s", "--verify"],
        "emit-asm" => vec!["p.s", "--emit-asm"],
        "disasm" => vec!["p.s", "--disasm"],
        "bisect" => vec!["p.s", "--bisect", "--fault", "drop-msg:0"],
        "lockstep" => vec!["p.s", "--lockstep"],
        "snap-info" => vec!["--snap-info", "ck.lbpsnap"],
        "bisect-snaps" => vec!["--bisect-snaps", "a.lbpsnap", "b.lbpsnap"],
        other => panic!("lbp-run grew a mode this test cannot select: {other}"),
    }
}

#[test]
fn every_flag_outside_its_modes_is_refused_naming_flag_and_mode() {
    let help = String::from_utf8(run(LBP_RUN, &["--help"]).stdout).unwrap();
    let (table, modes) = (help_table(&help), help_modes(&help));
    assert_eq!(modes.len(), 10, "{modes:?}");
    let mut pairs = 0;
    for (flag, row) in &table {
        // A selector outside its mode is a second selector: see below.
        for mode in modes
            .iter()
            .filter(|m| !row.modes.is_empty() && !row.modes.contains(m))
        {
            let mut line = selecting(mode);
            line.push(flag);
            line.extend(std::iter::repeat_n("1", row.arity));
            let out = run(LBP_RUN, &line);
            refused(
                &out,
                &[&format!("`{flag}`"), &format!("mode `{mode}`")],
                &line.join(" "),
            );
            pairs += 1;
        }
    }
    // 17 flags that are not selectors x 10 modes, less the 51 legal pairs.
    assert_eq!(pairs, 119);
    // And no legal pair is refused for its mode: the message, if any,
    // is about the value or the missing file.
    for (flag, row) in &table {
        for mode in &row.modes {
            let mut line = selecting(mode);
            if line.contains(&flag.as_str()) {
                continue;
            }
            line.push(flag);
            line.extend(std::iter::repeat_n("1", row.arity));
            let stderr = String::from_utf8_lossy(&run(LBP_RUN, &line).stderr).into_owned();
            assert!(
                !stderr.contains("does not apply"),
                "{}: {stderr}",
                line.join(" ")
            );
        }
    }
}

#[test]
fn two_mode_selectors_are_refused_naming_both() {
    let help = String::from_utf8(run(LBP_RUN, &["--help"]).stdout).unwrap();
    let modes = help_modes(&help);
    for (i, a) in modes.iter().enumerate().skip(1) {
        for b in modes.iter().skip(i + 1) {
            let (line_a, line_b) = (selecting(a), selecting(b));
            let mut line = line_a.clone();
            line.extend(line_b.iter().filter(|w| **w != "p.s"));
            let selector = |l: &[&'static str]| *l.iter().find(|w| w.starts_with("--")).unwrap();
            refused(
                &run(LBP_RUN, &line),
                &[selector(&line_a), selector(&line_b), "pick one"],
                &line.join(" "),
            );
        }
    }
}

/// The command lines ISSUE 21 found silently ignoring a flag at the
/// parent commit, each now refused; `writes` are the files the ignored
/// flags named, none of which may appear.
#[test]
fn the_probes_that_were_silently_ignored_are_refused() {
    let dir = harness::scratch_dir("grammar-probes");
    let at = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let mul = repo("examples/asm/mul.s");
    let mul = mul.to_str().unwrap();
    let (stats, trace, prof) = (at("s.json"), at("t.txt"), at("p"));
    let probes: [(&str, Vec<&str>, Vec<&str>); 9] = [
        (
            "verifies and exits 0 without a lockstep run",
            vec![mul, "--verify", "--lockstep"],
            vec!["`--verify`", "`--lockstep`"],
        ),
        (
            "exits 0 and writes none of the three",
            vec![
                mul,
                "--verify",
                "--stats-json",
                &stats,
                "--trace",
                &trace,
                "--profile",
                &prof,
                "--race-witness",
            ],
            vec!["`--stats-json`", "mode `verify`"],
        ),
        (
            "drops the output flag",
            vec![mul, "--lockstep", "--stats-json", &stats],
            vec!["`--stats-json`", "mode `lockstep`"],
        ),
        (
            "drops the output flag",
            vec![
                mul,
                "--bisect",
                "--fault",
                "flip-reg:0:a2:4:14",
                "--profile",
                &prof,
            ],
            vec!["`--profile`", "mode `bisect`"],
        ),
        (
            "prints only the assembly",
            vec![mul, "--emit-asm", "--disasm"],
            vec!["`--emit-asm`", "`--disasm`"],
        ),
        (
            "skips every validation",
            vec!["--snap-info", "F", "--cores", "0", "--bisect"],
            vec!["`--snap-info`", "`--bisect`"],
        ),
        (
            "skips every validation",
            vec!["--snap-info", "F", "--cores", "0"],
            vec!["`--cores`", "mode `snap-info`"],
        ),
        (
            "is accepted and means nothing",
            vec![mul, "--checkpoint-prefix", "ck-"],
            vec!["`--checkpoint-prefix`", "`--checkpoint-every`"],
        ),
        (
            "is accepted and means nothing",
            vec![mul, "--trace-format", "jsonl"],
            vec!["`--trace-format`", "`--trace`"],
        ),
    ];
    for (was, line, names) in probes {
        refused(
            &run(LBP_RUN, &line),
            &names,
            &format!("{} (at the parent: {was})", line[1..].join(" ")),
        );
    }
    for written in [&stats, &trace, &prof] {
        assert!(
            !Path::new(written).exists(),
            "{written} was written by a refused command"
        );
    }
    // What the table keeps: the same flags where they mean something.
    let kept: [&[&str]; 4] = [
        &[
            mul,
            "--cores",
            "1",
            "--stats-json",
            &stats,
            "--trace",
            &trace,
            "--trace-format",
            "jsonl",
        ],
        &[
            mul,
            "--cores",
            "1",
            "--lockstep",
            "--fault",
            "flip-reg:0:a2:4:14",
            "--dump-on-error",
            &trace,
        ],
        &[
            mul,
            "--cores",
            "1",
            "--warm",
            "3",
            "--warm-snap",
            &at("w.lbpsnap"),
        ],
        &[mul, "--verify", "--diag-json", &at("d.json")],
    ];
    for (line, want) in kept.iter().zip([0, 9, 0, 0]) {
        assert_eq!(
            run(LBP_RUN, line).status.code(),
            Some(want),
            "{}",
            line[1..].join(" ")
        );
    }
    harness::scratch_cleanup(&dir);
}

#[test]
fn lbp_cc_refuses_what_its_mode_would_ignore() {
    let src = repo("examples/c/reduce.c");
    let src = src.to_str().unwrap();
    refused(
        &run(LBP_CC, &[src, "--lint", "--diff"]),
        &["`--lint`", "`--diff`"],
        "two selectors",
    );
    refused(
        &run(LBP_CC, &[src, "--diag-json", "-"]),
        &["`--diag-json`", "mode `compile`"],
        "no lint",
    );
    refused(
        &run(LBP_CC, &[src, "--lint", "-o", "x.s"]),
        &["`-o`", "mode `lint`"],
        "no assembly",
    );
    refused(
        &run(LBP_CC, &[src, "--interp", "--max-cycles", "9"]),
        &["`--max-cycles`"],
        "no run",
    );
    assert_eq!(
        run(LBP_CC, &[src, "--diff", "--max-cycles", "2000000"])
            .status
            .code(),
        Some(0)
    );
}

#[test]
fn verify_and_lint_are_one_function_printing_the_same_lines() {
    let dir = harness::scratch_dir("grammar-verdict");
    let mut programs: Vec<PathBuf> = ["hello_team", "matmul", "reduce", "set_get"]
        .iter()
        .map(|n| repo(&format!("examples/c/{n}.c")))
        .collect();
    for n in ["carried", "const_index", "opaque", "pointer", "scalar"] {
        programs.push(repo(&format!(
            "crates/lbp-verify/tests/fixtures/race_{n}.c"
        )));
    }
    for program in &programs {
        let p = program.to_str().unwrap();
        let (a, b) = (run(LBP_RUN, &[p, "--verify"]), run(LBP_CC, &[p, "--lint"]));
        assert_eq!(a.status.code(), b.status.code(), "{p}");
        assert!(
            !a.stdout.is_empty() && a.stdout == b.stdout,
            "{p}: the printed verdicts differ"
        );
        let (ja, jb) = (dir.join("run.json"), dir.join("cc.json"));
        run(
            LBP_RUN,
            &[p, "--verify", "--diag-json", ja.to_str().unwrap()],
        );
        run(LBP_CC, &[p, "--lint", "--diag-json", jb.to_str().unwrap()]);
        let (ja, jb) = (std::fs::read(ja).unwrap(), std::fs::read(jb).unwrap());
        assert!(
            ja.starts_with(b"{\n  \"schema\": \"lbp-diag-v1\"") && ja == jb,
            "{p}: reports differ"
        );
        // `-` hands stdout to the report, byte for byte the file's.
        assert_eq!(
            run(LBP_CC, &[p, "--lint", "--diag-json", "-"]).stdout,
            ja,
            "{p}"
        );
    }
    harness::scratch_cleanup(&dir);
}

/// `lbp-cc --interp`, `--diff` and `--lint --diag-json -` print these
/// bytes: one row per command line, with its exit code and the FNV-1a of
/// its stdout and stderr. Paths are relative to the package root, since
/// the diagnostics report names the program it judged.
#[test]
fn lbp_cc_interp_diff_and_lint_print_the_pinned_bytes() {
    // FNV-1a of no bytes.
    const EMPTY: u64 = 0xcbf29ce484222325;
    const PINS: &[(&[&str], i32, u64, u64)] = &[
        (
            &["examples/c/hello_team.c", "--interp"],
            0,
            0xb0428e2e4d127f2b,
            EMPTY,
        ),
        (
            &["examples/c/matmul.c", "--interp"],
            0,
            0xc2f6269e4424e3b9,
            EMPTY,
        ),
        (
            &["examples/c/reduce.c", "--interp"],
            0,
            0x35db0d53bdcbd350,
            EMPTY,
        ),
        (
            &["examples/c/set_get.c", "--interp"],
            0,
            0xcc61e7670ceabbfe,
            EMPTY,
        ),
        (
            &["examples/c/hello_team.c", "--diff"],
            0,
            0x7940197c32b000d6,
            EMPTY,
        ),
        (
            &["examples/c/matmul.c", "--diff"],
            0,
            0x541592e5d3230ed9,
            EMPTY,
        ),
        (
            &["examples/c/reduce.c", "--diff"],
            0,
            0x72cb7c4e2a28e2e7,
            EMPTY,
        ),
        (
            &["examples/c/set_get.c", "--diff"],
            0,
            0x58bd7f56e47c770d,
            EMPTY,
        ),
        (
            &[
                "tests/fixtures/sabotage_witness.c",
                "--diff",
                "--sabotage",
                "codegen:chunk-bounds",
            ],
            12,
            EMPTY,
            0x4d39a389bdd8840a,
        ),
        (
            &[
                "tests/fixtures/sabotage_witness.c",
                "--diff",
                "--sabotage",
                "codegen:index-shift",
            ],
            12,
            EMPTY,
            0x95cc7854017d25ec,
        ),
        (
            &[
                "tests/fixtures/sabotage_witness.c",
                "--diff",
                "--sabotage",
                "codegen:const-fold",
            ],
            12,
            EMPTY,
            0xdda4e44bde5a4f07,
        ),
        (
            &["examples/c/hello_team.c", "--lint", "--diag-json", "-"],
            0,
            0x7a5bb319f5a99c3b,
            EMPTY,
        ),
        (
            &["examples/c/matmul.c", "--lint", "--diag-json", "-"],
            0,
            0x87b277088e50cb8e,
            EMPTY,
        ),
        (
            &["examples/c/reduce.c", "--lint", "--diag-json", "-"],
            0,
            0xd828cfadf605b7ac,
            EMPTY,
        ),
        (
            &["examples/c/set_get.c", "--lint", "--diag-json", "-"],
            0,
            0xb4589b82196b82ba,
            EMPTY,
        ),
        (
            &[
                "crates/lbp-verify/tests/fixtures/bad_sema.c",
                "--lint",
                "--diag-json",
                "-",
            ],
            10,
            0x0cd5aaa6a0f50045,
            EMPTY,
        ),
        (
            &[
                "crates/lbp-verify/tests/fixtures/race_carried.c",
                "--lint",
                "--diag-json",
                "-",
            ],
            10,
            0xe898dcf427663d87,
            EMPTY,
        ),
        (
            &[
                "crates/lbp-verify/tests/fixtures/race_const_index.c",
                "--lint",
                "--diag-json",
                "-",
            ],
            10,
            0x34315e8cbc871404,
            EMPTY,
        ),
        (
            &[
                "crates/lbp-verify/tests/fixtures/race_opaque.c",
                "--lint",
                "--diag-json",
                "-",
            ],
            0,
            0x592e844f339bec9d,
            EMPTY,
        ),
        (
            &[
                "crates/lbp-verify/tests/fixtures/race_pointer.c",
                "--lint",
                "--diag-json",
                "-",
            ],
            0,
            0x6a1096fa050ca4a1,
            EMPTY,
        ),
        (
            &[
                "crates/lbp-verify/tests/fixtures/race_scalar.c",
                "--lint",
                "--diag-json",
                "-",
            ],
            10,
            0xa24142c3ea4ea64b,
            EMPTY,
        ),
    ];
    let mut moved = Vec::new();
    for &(args, code, stdout, stderr) in PINS {
        let out = Command::new(LBP_CC)
            .args(args)
            .current_dir(repo(""))
            .output()
            .expect("lbp-cc spawns");
        let got = (
            out.status.code().unwrap_or(-1),
            lbp::sim::fnv1a64(&out.stdout),
            lbp::sim::fnv1a64(&out.stderr),
        );
        if got != (code, stdout, stderr) {
            moved.push(format!(
                "(&{args:?}, {}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(moved.is_empty(), "rows that moved:\n{}", moved.join("\n"));
}

/// At the parent both die with `fatal runtime error: stack overflow`
/// (SIGABRT, exit 134 — no row of `cli_exit_codes.rs`'s `CONTRACT`).
fn positioned_failure(out: &Output, position: &str) {
    assert_eq!(
        out.status.code(),
        Some(i32::from(ExitClass::Failure.code()))
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(position) && stderr.contains("too deep"),
        "{stderr}"
    );
}

#[test]
fn lbp_cc_on_a_return_nested_100_000_deep_is_a_positioned_failure() {
    let n = 100_000;
    let src = format!(
        "int main(void) {{ return {}1{}; }}\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    let deep = harness::scratch_file("grammar-nesting", "deep.c", &src);
    positioned_failure(&run(LBP_CC, &[deep.to_str().unwrap()]), "at line 1:");
    positioned_failure(
        &run(LBP_CC, &[deep.to_str().unwrap(), "--lint"]),
        "at line 1:",
    );
    // An operator chain nests the tree without nesting the parser.
    let chain = format!("int main(void) {{ return {}; }}\n", vec!["1"; n].join("+"));
    let chain = harness::scratch_file("grammar-nesting", "chain.c", &chain);
    positioned_failure(&run(LBP_RUN, &[chain.to_str().unwrap()]), "at line 1:");
}

#[test]
fn lbp_run_on_an_li_operand_nested_100_000_deep_is_a_positioned_failure() {
    let n = 100_000;
    let operands = [
        format!("{}1{}", "(".repeat(n), ")".repeat(n)),
        vec!["1"; n].join("+"),
        format!("{}1", "-".repeat(n)),
    ];
    for (i, operand) in operands.iter().enumerate() {
        let src = format!("main:\n  li a0, {operand}\n  li t0, -1\n  li ra, 0\n  p_ret\n");
        let deep = harness::scratch_file("grammar-nesting", &format!("deep{i}.s"), &src);
        positioned_failure(&run(LBP_RUN, &[deep.to_str().unwrap()]), "at line 2:");
        positioned_failure(
            &run(LBP_RUN, &[deep.to_str().unwrap(), "--verify"]),
            "at line 2:",
        );
    }
}

/// Sizes the assembler takes from its input. At the parent `.align
/// 0x100000000` truncated to `Align(0)` and divided by it (exit 101), a
/// `.space` of 2 GB was allocated word by word (exit 134 under a memory
/// limit) and a line of 200,000 labels recursed once a label (exit 134).
/// An immediate past 32 bits lost its high half and ran (exit 0).
#[test]
fn lbp_run_on_sizes_past_the_machine_is_a_positioned_failure_not_an_abort() {
    let exit = "  li t0, -1\n  li ra, 0\n  p_ret\n";
    let rows = [
        (".align 0x100000000", ".align needs a positive power-of-two"),
        (".space 0x7ffffff0", "section overflow"),
        (".data\n.space 0x7ffffff0", "section overflow"),
        (".align 0x80000000", "section overflow"),
        (
            "addi a0, a0, 4294967297",
            "operand value 4294967297 exceeds 32 bits",
        ),
    ];
    for (i, (directive, what)) in rows.iter().enumerate() {
        let src = format!("main:\n{exit}{directive}\n");
        let file = harness::scratch_file("grammar-sizes", &format!("size{i}.s"), &src);
        for mode in [&[][..], &["--verify"], &["--disasm"]] {
            let out = run(LBP_RUN, &[&[file.to_str().unwrap()], mode].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(i32::from(ExitClass::Failure.code())),
                "{directive} {mode:?}: {stderr}"
            );
            assert!(
                stderr.contains("at line") && stderr.contains(what),
                "{stderr}"
            );
        }
    }
    let labels: String = (0..200_000).map(|i| format!("l{i}: ")).collect();
    let src = format!("main: {labels}li t0, -1\n  li ra, 0\n  p_ret\n");
    let file = harness::scratch_file("grammar-sizes", "labels.s", &src);
    let out = run(LBP_RUN, &[file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(i32::from(ExitClass::Ok.code())));
}

/// The third reproducer; `lbp-batch`'s own `tests/cli_grammar.rs` holds
/// the exit class of the binary, this the parser under it.
#[test]
fn a_manifest_of_200_000_brackets_is_a_positioned_error() {
    let e = lbp_batch::load_manifest(&"[".repeat(200_000), Path::new(".")).unwrap_err();
    assert!(
        e.0.contains("JSON error at byte 128: nested too deep"),
        "{e}"
    );
}
