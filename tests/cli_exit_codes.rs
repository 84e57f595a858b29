//! Pins `lbp-run`'s documented exit-code contract: 0 ok, 2 usage,
//! 1 front-end/I-O, 4 timeout, 5 deadlock, 6 protocol, 7 decode,
//! 8 memory fault, 9 lockstep divergence, 10 verification rejection,
//! 11 wall-clock cancellation.
//! Scripts and CI match on these numbers, so they are load-bearing API.

use std::path::PathBuf;
use std::process::Command;

use lbp::sim::ExitClass;
use lbp_testutil::harness;

fn lbp_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lbp-run"))
}

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/asm")
        .join(name)
}

/// Writes a scratch program and returns its path.
fn scratch(name: &str, text: &str) -> PathBuf {
    harness::scratch_file("exit-codes", name, text)
}

/// The contract itself: every class with the number scripts match on and
/// its machine-readable name. Every expectation below names a class;
/// this is the one place the numbers are pinned.
const CONTRACT: [(ExitClass, u8, &str); 13] = [
    (ExitClass::Ok, 0, "ok"),
    (ExitClass::Failure, 1, "failure"),
    (ExitClass::Usage, 2, "usage"),
    (ExitClass::Finding, 3, "finding"),
    (ExitClass::Timeout, 4, "timeout"),
    (ExitClass::Deadlock, 5, "deadlock"),
    (ExitClass::Protocol, 6, "protocol"),
    (ExitClass::Decode, 7, "decode"),
    (ExitClass::Mem, 8, "mem"),
    (ExitClass::Divergence, 9, "divergence"),
    (ExitClass::Rejected, 10, "rejected"),
    (ExitClass::Cancelled, 11, "cancelled"),
    (ExitClass::SemanticsDivergence, 12, "semantics-divergence"),
];

#[test]
fn exit_class_numbers_and_names_are_pinned() {
    for (class, code, name) in CONTRACT {
        assert_eq!((class.code(), class.name()), (code, name));
    }
}

/// The exit class a finished process reported (panics on a code outside
/// the vocabulary, e.g. a signal or a Rust panic's 101).
fn class_of(status: std::process::ExitStatus) -> ExitClass {
    let code = status.code().expect("lbp-run exits, not signalled");
    let row = CONTRACT.iter().find(|&&(_, c, _)| i32::from(c) == code);
    row.unwrap_or_else(|| panic!("exit code {code} is not an ExitClass"))
        .0
}

fn code(cmd: &mut Command) -> ExitClass {
    class_of(cmd.output().expect("lbp-run spawns").status)
}

#[test]
fn exit_0_clean_run() {
    assert_eq!(
        code(lbp_run().arg(example("mul.s")).args(["--cores", "1"])),
        ExitClass::Ok
    );
}

#[test]
fn exit_2_usage_errors() {
    assert_eq!(code(&mut lbp_run()), ExitClass::Usage, "no arguments");
    assert_eq!(
        code(lbp_run().arg("--no-such-flag")),
        ExitClass::Usage,
        "unknown flag"
    );
    assert_eq!(
        code(lbp_run().arg(example("mul.s")).args(["--cores", "0"])),
        ExitClass::Usage,
        "zero cores"
    );
    let too_many = (lbp::sim::MAX_CORES + 1).to_string();
    assert_eq!(
        code(lbp_run().arg(example("mul.s")).args(["--cores", &too_many])),
        ExitClass::Usage,
        "more cores than MAX_CORES"
    );
    assert_eq!(
        code(lbp_run().arg(example("mul.s")).arg("--bisect")),
        ExitClass::Usage,
        "--bisect without --fault"
    );
    assert_eq!(
        code(
            lbp_run()
                .arg(example("mul.s"))
                .args(["--diag-json", "d.json"])
        ),
        ExitClass::Usage,
        "--diag-json without --verify"
    );
}

/// A fault plan aimed outside the machine is refused before the run, as a
/// bad command line: the refusal names the spec and the reason, and no
/// hart, since no hart did anything.
#[test]
fn exit_2_an_invalid_fault_plan_names_the_spec_and_the_reason() {
    let rows = [
        (
            "flip-reg:99999:a0:1:5",
            "`flip-reg:99999:a0:1:5`: no such hart in this configuration",
        ),
        (
            "flip-reg:0:x0:1:5",
            "`flip-reg:0:zero:1:5`: x0 is hard-wired to zero",
        ),
        (
            "flip-reg:0:a0:32:5",
            "`flip-reg:0:a0:32:5`: registers have 32 bits",
        ),
        (
            "flip-mem:0x100:0:5",
            "`flip-mem:0x100:0:5`: address is outside the shared space",
        ),
        (
            "corrupt-instr:0x100000:1:5",
            "`corrupt-instr:0x100000:0x1:5`: pc is not a code word of the image",
        ),
        (
            "delay-msg:3:0",
            "`delay-msg:3:0`: a delay of 0 cycles injects nothing",
        ),
    ];
    for (spec, reason) in rows {
        let out = lbp_run()
            .arg(example("fork2.s"))
            .args(["--fault", spec])
            .output()
            .expect("lbp-run spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(class_of(out.status), ExitClass::Usage, "{spec}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("lbp-run: invalid fault plan: {reason}"),
            "{spec}"
        );
    }
}

/// An output `figures` cannot write is the classified failure `lbp-run`
/// gives for one, naming the path, not a panic.
#[test]
fn exit_1_figures_cannot_write_its_stats_dir() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig19", "--stats-dir", "/dev/null/x"])
        .output()
        .expect("figures spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(class_of(out.status), ExitClass::Failure, "{stderr}");
    assert!(
        stderr.contains("figures: cannot write stats JSON to `/dev/null/x`: "),
        "{stderr}"
    );
}

/// `--stats-dir` writes one `lbp-stats-v1` report per figure and matmul
/// version, named after both.
#[test]
fn exit_0_figures_writes_one_stats_json_per_version() {
    use lbp::kernels::matmul::Version;
    use lbp::sim::Json;
    let dir = harness::scratch_dir("figures-stats").join("stats");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig19", "fig20", "--stats-dir"])
        .arg(&dir)
        .output()
        .expect("figures spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(class_of(out.status), ExitClass::Ok, "{stderr}");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    let mut expected: Vec<String> = ["fig19", "fig20"]
        .iter()
        .flat_map(|fig| Version::ALL.map(|v| format!("{fig}_{}.json", v.name())))
        .collect();
    expected.sort();
    assert_eq!(written, expected);
    for name in written {
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let schema = json.get("schema").and_then(Json::as_str);
        assert_eq!(schema, Some("lbp-stats-v1"), "{name}");
        let benchmark = json.get("benchmark").and_then(Json::as_str);
        assert_eq!(benchmark.map(|b| format!("{b}.json")), Some(name));
    }
    harness::scratch_cleanup(&dir);
}

#[test]
fn exit_1_front_end_failure() {
    let bad = scratch("bad.c", "int main( { this is not C }\n");
    assert_eq!(code(lbp_run().arg(bad)), ExitClass::Failure);
}

/// A comment between two names is a space, not glue: `a/**/b = 7;` is
/// `a b = 7;`, a syntax error at the `b`, not an assignment to `ab`.
#[test]
fn exit_1_compiling_two_names_a_comment_apart() {
    let glued = scratch(
        "glued.c",
        "int a;\nint b;\nvoid main(void) {\n    a/**/b = 7;\n}\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_lbp-cc"))
        .arg(glued)
        .output()
        .expect("lbp-cc spawns");
    assert_eq!(class_of(out.status), ExitClass::Failure);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 4:10: expected `;`, found `b`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// An expression error in an operand names its column in the line, as
/// lbp-cc does: the same operand indented further sits further right.
#[test]
fn exit_1_an_assembler_expression_error_names_its_line_column() {
    for (name, indent, column) in [("two.s", 2, 14), ("eight.s", 8, 20)] {
        let source = format!("main:\n{}li a0, 1 + )\n", " ".repeat(indent));
        let out = lbp_run().arg(scratch(name, &source)).output().unwrap();
        assert_eq!(class_of(out.status), ExitClass::Failure);
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("lbp-run: assembly error at line 2: unexpected `)` at column {column}\n")
        );
    }
}

/// `lbp-cc --diff` whose simulation runs out of cycles exits with the
/// timeout's class, as `lbp-run` does on the same program and budget.
#[test]
fn exit_4_a_diff_whose_simulation_times_out() {
    let matmul = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/c/matmul.c");
    let budget = ["--max-cycles", "100"];
    assert_eq!(
        code(lbp_run().arg(&matmul).args(budget)),
        ExitClass::Timeout
    );
    let out = Command::new(env!("CARGO_BIN_EXE_lbp-cc"))
        .arg(&matmul)
        .arg("--diff")
        .args(budget)
        .output()
        .expect("lbp-cc spawns");
    assert_eq!(class_of(out.status), ExitClass::Timeout);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("simulation failed"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn lbp_cc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lbp-cc"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("lbp-cc spawns")
}

/// An `if`, `while` or bottom-tested `for` whose body is longer than a
/// branch reaches (4 KiB) compiles to the inverse branch around a `j`,
/// and runs as the interpreter says it should. Each `g = g + 1;` is 8
/// words, so the 700 of them span 5,600.
#[test]
fn exit_0_a_condition_whose_body_is_past_a_branchs_reach() {
    let body = "        g = g + 1;\n".repeat(700);
    for (name, source, g) in [
        (
            "far_if.c",
            format!("int g;\nvoid main(void) {{\n    if (g == 0) {{\n{body}    }}\n}}\n"),
            700,
        ),
        (
            "far_while.c",
            format!(
                "int g;\nvoid main(void) {{\n    int i;\n    i = 0;\n    while (i < 3) {{\n\
                 {body}        i = i + 1;\n    }}\n}}\n"
            ),
            2100,
        ),
        (
            "far_for.c",
            format!(
                "int g;\nvoid main(void) {{\n    int i;\n    for (i = 0; i < 3; i++) {{\n\
                 {body}    }}\n}}\n"
            ),
            2100,
        ),
    ] {
        let path = scratch(name, &source);
        let path = path.to_str().unwrap();
        let out = lbp_cc(&[path, "-o", "-"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(class_of(out.status), ExitClass::Ok, "{name}: {stderr}");
        let listing = String::from_utf8_lossy(&out.stdout);
        assert!(
            listing.contains("\n_cc_far_"),
            "{name}: no branch around a `j`"
        );

        let out = lbp_run().args([path, "--dump", "g:1"]).output().unwrap();
        assert_eq!(class_of(out.status), ExitClass::Ok, "{name}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("g: {g}\n")), "{name}: {stdout}");

        let out = lbp_cc(&[path, "--diff"]);
        assert_eq!(class_of(out.status), ExitClass::Ok, "{name}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("observables agree"), "{name}: {stdout}");
    }
}

/// A literal or `#define` value wider than a word is refused at its line
/// and column; it never reaches the assembler as a `li` it refuses.
#[test]
fn exit_1_a_literal_wider_than_a_word_names_its_column() {
    for (name, source, error) in [
        (
            "wide.c",
            "int g;\nvoid main(void) {\n    g = 5000000000;\n}\n",
            "3:9: literal 5000000000 exceeds 32 bits",
        ),
        (
            "wide_define.c",
            "#define N (1<<40)\nint g;\nvoid main(void) {\n    g = N;\n}\n",
            "1:11: #define value `(1<<40)` exceeds 32 bits",
        ),
    ] {
        let wide = scratch(name, source);
        let out = lbp_cc(&[wide.to_str().unwrap()]);
        assert_eq!(class_of(out.status), ExitClass::Failure);
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("lbp-cc: compile error at line {error}\n")
        );
    }
}

/// An initializer that does not fit its array is refused at its line and
/// column: a fill over part of the array, or a list longer than it,
/// would otherwise compile to values the source does not say.
#[test]
fn exit_1_an_initializer_that_does_not_fit_its_array_names_its_column() {
    let main = "void main(void) { }\n";
    for (source, error) in [
        (
            "int A[4] = {[2 ... 3] = 7};",
            "1:13: only the whole-array designator `[0 ... 3]` is supported",
        ),
        (
            "int A[4] = {1, 2, 3, 4, 5, 6};",
            "1:25: more initializers than the 4 elements of the array",
        ),
    ] {
        let path = scratch("initializer.c", &format!("{source}\n{main}"));
        let out = lbp_cc(&[path.to_str().unwrap()]);
        assert_eq!(class_of(out.status), ExitClass::Failure, "{source}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("lbp-cc: compile error at line {error}\n"),
            "{source}"
        );
    }
}

/// An array bound whose arithmetic overflows, whose bytes pass the
/// 32-bit address space or, with the globals before it, the largest
/// image, or that has no element is refused at its line
/// and column, in release as in debug: a shift or product never wraps to
/// a small size, and a local array never to a slot in the caller's frame.
#[test]
fn exit_1_an_array_size_past_the_machine_names_its_column() {
    let main = "void main(void) { }\n";
    for (source, error) in [
        ("int u[1 << 70];", "1:14: array size 1 << 70 overflows"),
        ("int u[1 << 64];", "1:14: array size 1 << 64 overflows"),
        ("int u[3 << 62];", "1:14: array size 3 << 62 overflows"),
        (
            "int g[1 << 31];",
            "1:14: array of 2147483648 words exceeds the 4 GiB address space",
        ),
        (
            "int u[1073741823];",
            "1:17: globals through `u` take 4294967292 bytes, past the 67108864-byte image",
        ),
        (
            "int a[12000000]; int b[5000000];",
            "1:31: globals through `b` take 68000000 bytes, past the 67108864-byte image",
        ),
        ("int g[0];", "1:8: an array needs at least one element"),
        (
            "void f(void) { int a[0]; }",
            "1:23: an array needs at least one element",
        ),
        (
            "void f(void) { int a[1073741824]; a[5] = 1; }",
            "1:32: array of 1073741824 words exceeds the 4 GiB address space",
        ),
    ] {
        let path = scratch("array_size.c", &format!("{source}\n{main}"));
        let out = lbp_cc(&[path.to_str().unwrap()]);
        assert_eq!(class_of(out.status), ExitClass::Failure, "{source}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("lbp-cc: compile error at line {error}\n"),
            "{source}"
        );
    }
}

/// Team members that overlap on a shared word give the program no
/// meaning: the interpreter traps at the join, naming both members, and
/// `--diff` stops there too. Conflict-free programs are untouched.
#[test]
fn exit_1_a_conflict_between_team_members() {
    let fixtures = "crates/lbp-verify/tests/fixtures";
    let out = lbp_cc(&[&format!("{fixtures}/race_scalar.c"), "--interp"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(class_of(out.status), ExitClass::Failure, "{stderr}");
    assert!(stderr.contains("[conflict]"), "{stderr}");
    assert!(stderr.contains("members 0 and 1 both write"), "{stderr}");
    assert!(out.stdout.is_empty());

    let out = lbp_cc(&[&format!("{fixtures}/race_carried.c"), "--diff"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(class_of(out.status), ExitClass::Failure, "{stderr}");
    assert!(
        stderr.contains("read/write conflict on `v[1]`: member 1 writes it and member 0 reads it"),
        "{stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("observables agree"));

    for example in ["hello_team", "matmul", "reduce", "set_get"] {
        let out = lbp_cc(&[&format!("examples/c/{example}.c"), "--interp"]);
        assert_eq!(class_of(out.status), ExitClass::Ok, "{example}");
    }
}

#[test]
fn exit_4_timeout() {
    assert_eq!(
        code(
            lbp_run()
                .arg(example("mul.s"))
                .args(["--cores", "1", "--max-cycles", "5"])
        ),
        ExitClass::Timeout
    );
}

#[test]
fn exit_5_deadlock() {
    assert_eq!(
        code(lbp_run().arg(example("hung.s")).args(["--cores", "1"])),
        ExitClass::Deadlock
    );
}

/// The blocked harts of a deadlocked run, without the cycle (which is
/// each engine's own).
fn blocked_harts(cmd: &mut Command) -> String {
    let out = cmd.output().expect("lbp-run spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(class_of(out.status), ExitClass::Deadlock, "{stderr}");
    let (_, harts) = stderr.split_once("blocked: ").expect("names the harts");
    harts.trim_end().to_owned()
}

#[test]
fn a_hang_reads_the_same_cold_and_warm() {
    let exit = "  li t0, -1\n  li ra, 0\n  p_ret\n";
    let programs = [
        example("hung.s"),
        scratch("slot-minus-1.s", &format!("main:\n  p_lwre a0, -1\n{exit}")),
        // The team's first member waits in its p_ret for a join address
        // the second one ends without sending.
        scratch(
            "join-never-sent.s",
            "main:\n  p_set t0\n  p_fc t6\n  p_jal ra, t6, wait\n  p_ret\n\
             wait:\n  li ra, 0\n  p_ret\n",
        ),
        scratch(
            "core-busy.s",
            &format!("main:\n  p_fc t1\n  p_fc t2\n  p_fc t3\n  p_fc t4\n{exit}"),
        ),
    ];
    let mut texts = Vec::new();
    for p in &programs {
        let run = || {
            let mut cmd = lbp_run();
            cmd.arg(p).args(["--cores", "1"]);
            cmd
        };
        let cold = blocked_harts(&mut run());
        let warm = blocked_harts(run().args(["--warm", "1000000"]));
        assert!(cold.contains("waiting for"), "{cold}");
        assert_eq!(cold, warm, "{}", p.display());
        texts.push(cold);
    }
    // A slot of -1 reads as the `p_swre` error renders it.
    assert!(texts[1].contains("slot 4294967295 "), "{}", texts[1]);
}

#[test]
fn exit_6_protocol_violation() {
    // p_fn on the last core: the forward line does not wrap.
    let p = scratch("proto.s", "main:\n  p_fn t6\n  p_ret\n");
    assert_eq!(
        code(lbp_run().arg(p).args(["--cores", "1"])),
        ExitClass::Protocol
    );
    // A data access to the code region, misaligned as well: the region is
    // what is wrong with it, on the functional engine too.
    let p = scratch(
        "coderegion.s",
        "main:\n  li t1, 2\n  lw a0, 0(t1)\n  li t0, -1\n  li ra, 0\n  p_ret\n",
    );
    for warm in [&[][..], &["--warm", "100"]] {
        assert_eq!(
            code(lbp_run().arg(&p).args(["--cores", "1"]).args(warm)),
            ExitClass::Protocol,
            "{warm:?}"
        );
    }
}

#[test]
fn exit_7_decode_fault() {
    // Corrupt the first code word into something undecodable.
    assert_eq!(
        code(lbp_run().arg(example("mul.s")).args([
            "--cores",
            "1",
            "--fault",
            "corrupt-instr:0x0:0xffffffff:1"
        ])),
        ExitClass::Decode
    );
}

#[test]
fn exit_8_memory_fault() {
    let p = scratch(
        "memf.s",
        "main:
  li a0, 0x40000002
  lw a1, 0(a0)      # misaligned word load
  li t0, -1
  li a0, 0
  p_ret a0, t0
",
    );
    assert_eq!(
        code(lbp_run().arg(p).args(["--cores", "1"])),
        ExitClass::Mem
    );
}

/// An I/O access with no device there faults the same way whichever
/// engine meets it: the same exit and the same fault line, cold and in
/// the functional warm phase.
#[test]
fn an_io_access_is_the_same_fault_cold_and_warm() {
    let p = scratch(
        "io.s",
        "main:\n  li t1, 0xf0000000\n  lw a0, 0(t1)\n  li t0, -1\n  li ra, 0\n  p_ret\n",
    );
    let run = |warm: &[&str]| {
        let out = lbp_run()
            .arg(&p)
            .args(["--cores", "1"])
            .args(warm)
            .output()
            .expect("lbp-run spawns");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let line = stderr.lines().last().unwrap_or_default().to_owned();
        (class_of(out.status), line)
    };
    let (cold_class, cold) = run(&[]);
    let (warm_class, warm) = run(&["--warm", "100"]);
    assert_eq!(cold_class, ExitClass::Mem, "{cold}");
    assert_eq!(warm_class, cold_class, "{warm}");
    let fault = "hart c0h0 accessed unmapped address 0xf0000000";
    assert_eq!(cold, format!("lbp-run: {fault}"));
    // The warm phase met the access, not the cycle-exact tail.
    assert_eq!(warm, format!("lbp-run: warm phase failed: {fault}"));
}

#[test]
fn exit_9_lockstep_divergence() {
    // Flip a2 after `mul` wrote it: only the differential check sees it.
    assert_eq!(
        code(lbp_run().arg(example("mul.s")).args([
            "--cores",
            "1",
            "--lockstep",
            "--fault",
            "flip-reg:0:a2:4:14"
        ])),
        ExitClass::Divergence
    );
}

#[test]
fn lockstep_exit_policy_covers_forked_programs_and_sabotage() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    // Clean images agree, forked ones included...
    for p in ["c/matmul.c", "c/reduce.c", "asm/fork2.s"] {
        let out = lbp_run()
            .arg(root.join(p))
            .arg("--lockstep")
            .output()
            .unwrap();
        assert_eq!(class_of(out.status), ExitClass::Ok, "{p}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("commits verified") && !stdout.contains("(0 commits"),
            "{p}: {stdout}"
        );
    }
    // ...and a divergence found is a failure, not a report.
    let out = lbp_run()
        .arg(root.join("c/matmul.c"))
        .args(["--lockstep", "--sabotage", "68:1024"])
        .output()
        .unwrap();
    assert_eq!(class_of(out.status), ExitClass::Divergence);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("engines diverge at hart"), "{stderr}");
    assert!(stderr.contains("last agreed instruction"), "{stderr}");
    // --fault reaches the machine of a forked program too.
    assert_eq!(
        code(lbp_run().arg(example("fork2.s")).args([
            "--cores",
            "2",
            "--lockstep",
            "--fault",
            "flip-mem:0x80000000:0:5"
        ])),
        ExitClass::Divergence
    );
}

#[test]
fn exit_10_verification_rejection() {
    assert_eq!(
        code(lbp_run().arg(example("hung.s")).arg("--verify")),
        ExitClass::Rejected
    );
}

/// The M-pass multiplies abstract addresses: a shift chain that leaves
/// 64 bits is an unknown value, not an arithmetic panic (exit 101).
#[test]
fn exit_0_verifying_an_overflowing_shift_chain() {
    let p = scratch(
        "shift-chain.s",
        "main:\n  li t0, 0x40000000\n  slli t0, t0, 3\n  slli t0, t0, 31\n  \
         li t0, -1\n  li ra, 0\n  p_ret\n",
    );
    assert_eq!(code(lbp_run().arg(p).arg("--verify")), ExitClass::Ok);
}

#[test]
fn exit_11_wall_clock_cancellation() {
    // `--wall-ms 0` arms an already-expired watchdog: the run is
    // cancelled at the first cooperative poll, deterministically.
    let p = scratch("spin.s", "main:\nloop:\n  j loop\n");
    let dir = harness::scratch_dir("wall-cli");
    let dump = dir.join("partial.json");
    let out = lbp_run()
        .arg(&p)
        .args(["--cores", "1", "--max-cycles", "1000000", "--wall-ms", "0"])
        .args(["--dump-on-error", dump.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(class_of(out.status), ExitClass::Cancelled);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("wall-clock budget"),
        "cancellation must be named on stderr: {stderr}"
    );
    // Graceful cancellation still yields a valid partial dump.
    let text = std::fs::read_to_string(&dump).unwrap();
    assert!(
        text.contains("\"lbp-dump-v1\"") && text.contains("\"cancelled\""),
        "partial dump must be a well-formed lbp-dump-v1 report: {text}"
    );
    harness::scratch_cleanup(&dir);
}

#[test]
fn wall_clock_budget_that_fits_the_run_changes_nothing() {
    // A generous budget must not perturb the run: same stdout as the
    // plain path, exit 0.
    let plain = lbp_run()
        .arg(example("mul.s"))
        .args(["--cores", "1"])
        .output()
        .unwrap();
    assert!(plain.status.success());
    let watched = lbp_run()
        .arg(example("mul.s"))
        .args(["--cores", "1", "--wall-ms", "60000"])
        .output()
        .unwrap();
    assert_eq!(class_of(watched.status), ExitClass::Ok);
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&watched.stdout),
        "an unexpired watchdog must not change the run"
    );
}

#[test]
fn checkpoint_resume_reaches_the_same_state() {
    // End-to-end over the CLI: checkpoint a run, resume it, and compare
    // the printed stats line-for-line with the uninterrupted run.
    let dir = harness::scratch_dir("ckpt-cli");
    let prefix = dir.join("ck-");
    let full = lbp_run()
        .arg(example("mul.s"))
        .args(["--cores", "1"])
        .output()
        .unwrap();
    assert!(full.status.success());
    let ckpt = lbp_run()
        .arg(example("mul.s"))
        .args(["--cores", "1", "--checkpoint-every", "10"])
        .args(["--checkpoint-prefix", prefix.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(ckpt.status.success());
    assert_eq!(
        String::from_utf8_lossy(&full.stdout),
        String::from_utf8_lossy(&ckpt.stdout),
        "checkpointing must not change the run"
    );
    let resumed = lbp_run()
        .args(["--resume-from", &format!("{}10.lbpsnap", prefix.display())])
        .output()
        .unwrap();
    assert!(resumed.status.success());
    assert_eq!(
        String::from_utf8_lossy(&full.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "a resumed run must report the same stats as the original"
    );
    harness::scratch_cleanup(&dir);
}

#[test]
fn checkpoints_are_the_same_files_with_and_without_a_watchdog() {
    // A checkpoint at every interval boundary the run reaches without
    // exiting, the cycle budget's included; then the timeout. An
    // unexpired `--wall-ms` changes neither the files nor the exit.
    let p = scratch("spin-ck.s", "main:\nloop:\n  j loop\n");
    for (max_cycles, want) in [("20", vec![10, 20]), ("25", vec![10, 20, 25])] {
        for watchdog in [&[][..], &["--wall-ms", "100000"]] {
            let dir = harness::scratch_dir(&format!("ckpt-files-{max_cycles}-{}", watchdog.len()));
            let out = lbp_run()
                .arg(&p)
                .args(["--cores", "1", "--max-cycles", max_cycles])
                .args(["--checkpoint-every", "10", "--checkpoint-prefix"])
                .arg(dir.join("ck-"))
                .args(watchdog)
                .output()
                .unwrap();
            assert_eq!(class_of(out.status), ExitClass::Timeout, "{watchdog:?}");
            let mut written: Vec<u64> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .map(|f| {
                    let cycle = f
                        .strip_prefix("ck-")
                        .and_then(|f| f.strip_suffix(".lbpsnap"));
                    cycle.and_then(|c| c.parse().ok()).expect("a checkpoint")
                })
                .collect();
            written.sort_unstable();
            assert_eq!(written, want, "--max-cycles {max_cycles} {watchdog:?}");
            harness::scratch_cleanup(&dir);
        }
    }
}

/// A checkpoint whose fabric is sized for fewer cores than its
/// configuration is refused when read, not run into a panic (exit 101).
#[test]
fn exit_1_resuming_a_checkpoint_whose_parts_disagree_on_cores() {
    let source = std::fs::read_to_string(example("fork2.s")).unwrap();
    let image = harness::assemble(&source);
    let m = lbp::sim::Machine::new(lbp::sim::LbpConfig::cores(2), &image).unwrap();
    let dir = harness::scratch_dir("short-fabric");
    let path = dir.join("short.lbpsnap");
    lbp::snap::save(&harness::fabric_one_core_short(&m), &path).unwrap();
    let out = lbp_run().arg("--resume-from").arg(&path).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(class_of(out.status), ExitClass::Failure, "{stderr}");
    assert!(stderr.contains("cannot restore"), "{stderr}");
    assert!(stderr.contains("fabric has 1 cores"), "{stderr}");
    harness::scratch_cleanup(&dir);
}

/// The race witness judges a team over its whole fork-join interval, and
/// a checkpoint does not record what the team did before it: enabling the
/// witness on a run resumed inside a parallel region is a usage refusal
/// naming the checkpoint's cycle. Resumed before the fork, it still finds
/// the race; without the witness the same checkpoint resumes.
#[test]
fn exit_2_resuming_inside_a_parallel_region_with_the_race_witness() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/lbp-verify/tests/fixtures/race_dynamic_only.s");
    let dir = harness::scratch_dir("race-resume");
    let ckpt = lbp_run()
        .arg(&fixture)
        .args([
            "--cores",
            "1",
            "--checkpoint-every",
            "10",
            "--checkpoint-prefix",
        ])
        .arg(dir.join("ck-"))
        .output()
        .unwrap();
    assert_eq!(class_of(ckpt.status), ExitClass::Ok);
    let resume = |cycle: u32, witness: &[&str]| {
        let path = dir.join(format!("ck-{cycle}.lbpsnap"));
        let out = lbp_run()
            .arg("--resume-from")
            .arg(path)
            .args(witness)
            .output();
        out.unwrap()
    };
    let inside = resume(80, &["--race-witness"]);
    let stderr = String::from_utf8_lossy(&inside.stderr);
    assert_eq!(class_of(inside.status), ExitClass::Usage, "{stderr}");
    assert!(stderr.contains("inside a parallel region"), "{stderr}");
    assert!(stderr.contains("at cycle 80"), "{stderr}");
    assert!(inside.stdout.is_empty(), "nothing ran");
    assert_eq!(class_of(resume(80, &[]).status), ExitClass::Ok);
    let before = resume(10, &["--race-witness"]);
    let stdout = String::from_utf8_lossy(&before.stdout);
    assert_eq!(class_of(before.status), ExitClass::Rejected, "{stdout}");
    assert!(
        stdout.contains("races:    1 concrete overlap observed"),
        "{stdout}"
    );
    harness::scratch_cleanup(&dir);
}
