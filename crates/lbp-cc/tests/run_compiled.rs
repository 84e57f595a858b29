//! End-to-end compiler tests: compile mini-C, run on the LBP simulator,
//! check memory.

use lbp_cc::compile;
use lbp_sim::{LbpConfig, Machine};

/// Compiles, runs, and returns the machine plus the image.
fn run(cores: usize, src: &str) -> (Machine, lbp_asm::Image) {
    let compiled = compile(src).unwrap_or_else(|e| panic!("{e}"));
    let mut m = Machine::new(LbpConfig::cores(cores), &compiled.image)
        .unwrap_or_else(|e| panic!("{e}\n{}", compiled.asm));
    let report = m
        .run(50_000_000)
        .unwrap_or_else(|e| panic!("{e}\n{}", compiled.asm));
    assert!(report.exited, "program must exit");
    (m, compiled.image)
}

fn word(m: &mut Machine, image: &lbp_asm::Image, sym: &str, idx: u32) -> i32 {
    m.peek_shared(image.symbol(sym).unwrap_or_else(|| panic!("symbol {sym}")) + 4 * idx)
        .unwrap() as i32
}

#[test]
fn arithmetic_and_globals() {
    let (mut m, img) = run(
        1,
        "int out[4];
void main(void) {
    out[0] = 2 + 3 * 4;
    out[1] = (2 + 3) * 4;
    out[2] = 17 / 5 + 17 % 5;
    out[3] = 1 << 10;
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 14);
    assert_eq!(word(&mut m, &img, "out", 1), 20);
    assert_eq!(word(&mut m, &img, "out", 2), 5);
    assert_eq!(word(&mut m, &img, "out", 3), 1024);
}

#[test]
fn control_flow() {
    let (mut m, img) = run(
        1,
        "int out[3];
int abs(int x) { if (x < 0) { return -x; } return x; }
void main(void) {
    int i; int s;
    s = 0;
    for (i = 1; i <= 10; i++) s += i;
    out[0] = s;
    out[1] = abs(-42);
    i = 0;
    while (i < 5) i++;
    out[2] = i;
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 55);
    assert_eq!(word(&mut m, &img, "out", 1), 42);
    assert_eq!(word(&mut m, &img, "out", 2), 5);
}

#[test]
fn comparisons_and_logic() {
    let (mut m, img) = run(
        1,
        "int out[8];
void main(void) {
    out[0] = 3 < 5;  out[1] = 5 < 3;
    out[2] = -1 < 0; out[3] = 3 <= 3;
    out[4] = 1 && 2; out[5] = 0 || 0;
    out[6] = !7;     out[7] = (3 == 3) + (3 != 3);
}",
    );
    let expect = [1, 0, 1, 1, 1, 0, 0, 1];
    for (i, e) in expect.iter().enumerate() {
        assert_eq!(word(&mut m, &img, "out", i as u32), *e, "out[{i}]");
    }
}

#[test]
fn pointers_and_arrays() {
    let (mut m, img) = run(
        1,
        "int v[8];
int sum(int *p, int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i++) s += p[i];
    return s;
}
void main(void) {
    int i;
    for (i = 0; i < 8; i++) v[i] = i * i;
    v[0] = sum(v, 8);
}",
    );
    // 0+1+4+9+16+25+36+49 = 140.
    assert_eq!(word(&mut m, &img, "v", 0), 140);
}

#[test]
fn recursion() {
    let (mut m, img) = run(
        1,
        "int out[1];
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main(void) { out[0] = fib(12); }",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 144);
}

#[test]
fn global_initializers() {
    let (mut m, img) = run(
        1,
        "int ones[4] = {[0 ... 3] = 1};
int x = 7;
int out[2];
void main(void) {
    out[0] = ones[0] + ones[3];
    out[1] = x;
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 2);
    assert_eq!(word(&mut m, &img, "out", 1), 7);
}

#[test]
fn parallel_for_basic() {
    let (mut m, img) = run(
        2,
        "#define NUM_HART 8
int v[NUM_HART];
void thread(int t) { v[t] = t * 10; }
void main(void) {
    int t;
    omp_set_num_threads(NUM_HART);
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) thread(t);
}",
    );
    for t in 0..8 {
        assert_eq!(word(&mut m, &img, "v", t), 10 * t as i32);
    }
}

#[test]
fn parallel_for_inline_body() {
    // The body itself is parallelized (no separate thread function).
    let (mut m, img) = run(
        2,
        "int v[8];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 8; t++) { int x; x = t + 1; v[t] = x * x; }
}",
    );
    for t in 0..8u32 {
        assert_eq!(word(&mut m, &img, "v", t), ((t + 1) * (t + 1)) as i32);
    }
}

#[test]
fn two_regions_with_barrier() {
    // The paper's Fig. 4: set then get, separated by the hardware barrier.
    let (mut m, img) = run(
        2,
        "#define NUM_HART 8
int v[NUM_HART];
int w[NUM_HART];
void thread_set(int t) { v[t] = t + 1; }
void thread_get(int t) { w[t] = v[t] * 2; }
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) thread_set(t);
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) thread_get(t);
}",
    );
    for t in 0..8u32 {
        assert_eq!(word(&mut m, &img, "w", t), 2 * (t as i32 + 1));
    }
}

#[test]
fn parallel_sections() {
    let (mut m, img) = run(
        1,
        "int s[4];
void main(void) {
#pragma omp parallel sections
{
#pragma omp section
    { s[0] = 10; }
#pragma omp section
    { s[1] = 20; }
#pragma omp section
    { s[2] = 30; }
#pragma omp section
    { s[3] = 40; }
}
    s[0] = s[0] + s[1] + s[2] + s[3];
}",
    );
    assert_eq!(word(&mut m, &img, "s", 0), 100);
}

#[test]
fn paper_fig18_matmul_source_compiles_and_runs() {
    // The paper's Fig. 18 program, verbatim shape (h = 16).
    let src = "
#define NUM_HART 16
#define LINE_X 16
#define COLUMN_X 8
#define LINE_Y 8
#define COLUMN_Y 16
#define LINE_Z 16
#define COLUMN_Z 16
#include <det_omp.h>

int X[128] = {[0 ... 127] = 1};
int Y[128] = {[0 ... 127] = 1};
int Z[256];

void thread(int t) {
    int i; int j; int k; int l; int tmp;
    for (l = 0, i = t; l < 1; l++) {
        for (j = 0; j < COLUMN_Z; j++) {
            tmp = 0;
            for (k = 0; k < COLUMN_X; k++) {
                tmp += X[i * COLUMN_X + k] * Y[k * COLUMN_Y + j];
            }
            Z[i * COLUMN_Z + j] = tmp;
        }
        i++;
    }
}

void main(void) {
    int t;
    omp_set_num_threads(NUM_HART);
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) thread(t);
}";
    // `for (l = 0, i = t; ...)` comma-init is not in the subset; rewrite:
    let src = src.replace(
        "for (l = 0, i = t; l < 1; l++) {",
        "i = t; for (l = 0; l < 1; l++) {",
    );
    let (mut m, img) = run(4, &src);
    for e in 0..256u32 {
        assert_eq!(word(&mut m, &img, "Z", e), 8, "Z[{e}]");
    }
}

/// What the shipped Fig. 18 source costs on four cores, the job size
/// the batch sweep starts at. Its inner loop is the paper's 7
/// instructions: `X` and `Y` are read through pointer registers the `j`
/// loop hands it, and it tests one of them against its end; the `j` loop
/// stores `Z` through a pointer and tests that against its end. A back
/// end that gives any of that back exceeds the bound.
#[test]
fn shipped_matmul_costs_at_most_the_pinned_cycles_and_instructions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/c/matmul.c");
    let src = std::fs::read_to_string(path).expect("examples/c/matmul.c");
    let compiled = compile(&src).unwrap_or_else(|e| panic!("{e}"));
    let mut m = Machine::new(LbpConfig::cores(4), &compiled.image).unwrap();
    let report = m.run(1_000_000).unwrap();
    assert!(report.exited);
    let (cycles, retired) = (report.stats.cycles, report.stats.retired());
    assert!(cycles <= 5_578, "{cycles} cycles\n{}", compiled.asm);
    assert!(retired <= 17_712, "{retired} retired\n{}", compiled.asm);
    for e in 0..256 {
        assert_eq!(word(&mut m, &compiled.image, "Z", e), 8, "Z[{e}]");
    }
}

/// The shipped Fig. 18 source's innermost loop, from its label to the
/// branch back to it, is the paper's 7 instructions: two loads, the
/// product and the sum, two pointer advances and the end test.
#[test]
fn shipped_matmul_innermost_loop_is_the_papers_seven_instructions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/c/matmul.c");
    let src = std::fs::read_to_string(path).expect("examples/c/matmul.c");
    let asm = compile(&src).unwrap_or_else(|e| panic!("{e}")).asm;
    let lines: Vec<&str> = asm.lines().collect();
    // Every loop: a `_cc_for_N:` label and the last line naming it.
    let innermost = (0..lines.len())
        .filter_map(|at| {
            let label = lines[at].strip_prefix("_cc_for_")?.strip_suffix(':')?;
            let target = format!("_cc_for_{label}");
            let back = (at + 1..lines.len())
                .rev()
                .find(|&b| lines[b].ends_with(&target))?;
            Some(&lines[at + 1..=back])
        })
        .min_by_key(|body| body.len())
        .expect("a loop");
    let ops: Vec<&str> = innermost
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|op| !op.ends_with(':'))
        .collect();
    assert_eq!(
        ops,
        ["lw", "lw", "mul", "add", "addi", "addi", "bne"],
        "{}",
        innermost.join("\n")
    );
}

/// A loop counting down to 0 steps with `addi -1`, not `li` and `sub`,
/// and tests a pointer against its end; each pointer's entry address is
/// one `la` with the offset folded in.
#[test]
fn a_down_counting_loop_steps_by_addi_and_folds_its_entry_offsets() {
    let src = "int A[8] = {1, 2, 3, 4, 5, 6, 7, 8};\nint r[8];\n\
               void main(void) {\n    int k;\n    for (k = 7; k >= 0; k--) r[k] = A[k];\n}\n";
    let asm = compile(src).unwrap_or_else(|e| panic!("{e}")).asm;
    let ops: Vec<&str> = asm
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(!ops.contains(&"sub"), "{asm}");
    for line in ["la   a7, r+28", "la   a6, A+28", "addi s4, a7, -32"] {
        assert!(asm.lines().any(|l| l.trim() == line), "no `{line}`:\n{asm}");
    }
    let (mut m, img) = run(1, src);
    for e in 0..8 {
        assert_eq!(word(&mut m, &img, "r", e), e as i32 + 1, "r[{e}]");
    }
}

#[test]
fn syncm_inserted_for_readback() {
    // Read-after-write to the same array within one hart: the compiler
    // must fence (LBP reorders loads past stores freely).
    let (mut m, img) = run(
        1,
        "int v[2];
int out[1];
void main(void) {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 100; i++) {
        v[0] = i;
        acc += v[0];
    }
    out[0] = acc;
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 4950);
}

#[test]
fn compile_errors_are_reported() {
    assert!(compile("void main(void) { undefined(); }").is_err());
    assert!(compile("int x = ;").is_err());
    assert!(compile("void f() { }").is_err()); // no main
}

#[test]
fn generated_asm_is_available() {
    let c = compile("void main(void) { }").unwrap();
    assert!(c.asm.contains("p_ret"));
    assert!(c.asm.contains("main:"));
}

#[test]
fn deterministic_compilation_and_execution() {
    let src = "int v[4];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 4; t++) { v[t] = t; }
}";
    let a = compile(src).unwrap().asm;
    let b = compile(src).unwrap().asm;
    assert_eq!(a, b, "compilation is deterministic");
    let image = compile(src).unwrap().image;
    let cycles = |_| {
        let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
        m.run(10_000_000).unwrap().stats.cycles
    };
    assert_eq!(cycles(()), cycles(()));
}

#[test]
fn break_and_continue() {
    let (mut m, img) = run(
        1,
        "int out[3];
void main(void) {
    int i; int s;
    s = 0;
    for (i = 0; i < 100; i++) {
        if (i == 10) break;
        s += i;
    }
    out[0] = s;                 // 0+..+9 = 45
    s = 0;
    for (i = 0; i < 10; i++) {
        if (i % 2 == 0) continue;
        s += i;
    }
    out[1] = s;                 // 1+3+5+7+9 = 25
    s = 0; i = 0;
    while (1) {
        i++;
        if (i > 5) break;
        if (i == 3) continue;
        s += i;
    }
    out[2] = s;                 // 1+2+4+5 = 12
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 45);
    assert_eq!(word(&mut m, &img, "out", 1), 25);
    assert_eq!(word(&mut m, &img, "out", 2), 12);
}

#[test]
fn break_outside_loop_rejected() {
    let err = compile("void main(void) { break; }").unwrap_err();
    assert!(err.to_string().contains("outside a loop"));
}

#[test]
fn do_while_and_comma_for_init() {
    let (mut m, img) = run(
        1,
        "int out[2];
void main(void) {
    int i; int l; int s;
    s = 0; i = 5;
    do {
        s += i;
        i--;
    } while (i > 0);
    out[0] = s;                     // 5+4+3+2+1 = 15
    s = 0;
    for (l = 0, i = 10; l < 3; l++, i++) s += i;
    out[1] = s;                     // 10+11+12 = 33
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 15);
    assert_eq!(word(&mut m, &img, "out", 1), 33);
}

#[test]
fn paper_fig18_for_header_compiles_verbatim() {
    // With comma-lists in for headers, the paper's exact loop shape works.
    let (mut m, img) = run(
        1,
        "int Z[4];
void main(void) {
    int l; int i;
    for (l = 0, i = 2; l < 2; l++, i++) Z[l] = i;
}",
    );
    assert_eq!(word(&mut m, &img, "Z", 0), 2);
    assert_eq!(word(&mut m, &img, "Z", 1), 3);
}

#[test]
fn continue_in_do_while_is_rejected() {
    let err = compile(
        "void main(void) { int i; i = 0; do { i++; if (i == 1) continue; } while (i < 3); }",
    )
    .unwrap_err();
    assert!(err.to_string().contains("do/while"));
}

#[test]
fn paper_fig16_sensor_fusion_from_c() {
    // The §6 application written as plain C: each section polls its
    // memory-mapped sensor register through a pointer; the sequential
    // part fuses the four readings and writes the actuator. Device
    // timing is jittered; the fused outputs must not change.
    use lbp_sim::{InputDevice, IoBus};
    let src = format!(
        "int s[4];
void main(void) {{
#pragma omp parallel sections
{{
#pragma omp section
    {{ int p; int v; p = {in0}; do {{ v = *p; }} while (v >= 0); s[0] = v & 2147483647; }}
#pragma omp section
    {{ int p; int v; p = {in1}; do {{ v = *p; }} while (v >= 0); s[1] = v & 2147483647; }}
#pragma omp section
    {{ int p; int v; p = {in2}; do {{ v = *p; }} while (v >= 0); s[2] = v & 2147483647; }}
#pragma omp section
    {{ int p; int v; p = {in3}; do {{ v = *p; }} while (v >= 0); s[3] = v & 2147483647; }}
}}
    {{
        int f; int q;
        f = (s[0] + s[1] + s[2] + s[3]) / 4;
        q = {out};
        *q = f;
    }}
}}",
        in0 = IoBus::input_addr(0),
        in1 = IoBus::input_addr(1),
        in2 = IoBus::input_addr(2),
        in3 = IoBus::input_addr(3),
        out = IoBus::output_addr(0),
    );
    // Braces-as-block statements are not in the subset; flatten the
    // trailing block.
    let src = src.replace("    {\n        int f; int q;", "    int f; int q;");
    let src = src.replace("        f = (", "    f = (");
    let src = src.replace("        q = ", "    q = ");
    let src = src.replace("        *q = f;\n    }", "    *q = f;");
    let compiled = compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let run_with = |jitter: u64| {
        let mut m = Machine::new(LbpConfig::cores(1), &compiled.image).unwrap();
        for i in 0..4u64 {
            m.io_mut().add_input(InputDevice::scripted([(
                10 + i * jitter,
                (10 * (i + 1)) as u32,
            )]));
        }
        let out = m.io_mut().add_output();
        m.run(10_000_000)
            .unwrap_or_else(|e| panic!("{e}\n{}", compiled.asm));
        m.io_mut().output(out).values()
    };
    let fast = run_with(3);
    let slow = run_with(700);
    assert_eq!(fast, vec![25]); // (10+20+30+40)/4
    assert_eq!(fast, slow, "fusion must be timing-independent");
}

#[test]
fn local_arrays_on_the_stack() {
    let (mut m, img) = run(
        1,
        "int out[3];
int sum8(int *p) {
    int i; int s;
    s = 0;
    for (i = 0; i < 8; i++) s += p[i];
    return s;
}
void main(void) {
    int buf[8];
    int i;
    for (i = 0; i < 8; i++) buf[i] = i * i;
    out[0] = sum8(buf);          // array decays to a frame pointer
    out[1] = buf[3];
    out[2] = *(&buf[5]);
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 140);
    assert_eq!(word(&mut m, &img, "out", 1), 9);
    assert_eq!(word(&mut m, &img, "out", 2), 25);
}

#[test]
fn copy_matmul_in_c_stages_the_x_row_locally() {
    // The paper's *copy* version, straight from C: each member copies its
    // X row into a stack array before the MAC loops (h = 16).
    let (mut m, img) = run(
        4,
        "#define H 16
#define M 8
int X[128] = {[0 ... 127] = 1};
int Y[128] = {[0 ... 127] = 1};
int Z[256];
void thread(int t) {
    int row[8];
    int j; int k; int tmp;
    for (k = 0; k < M; k++) row[k] = X[t * M + k];
    for (j = 0; j < H; j++) {
        tmp = 0;
        for (k = 0; k < M; k++) {
            tmp += row[k] * Y[k * H + j];
        }
        Z[t * H + j] = tmp;
    }
}
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < H; t++) thread(t);
}",
    );
    for e in 0..256u32 {
        assert_eq!(word(&mut m, &img, "Z", e), 8, "Z[{e}]");
    }
}

#[test]
fn recursive_functions_with_arrays_keep_frames_separate() {
    let (mut m, img) = run(
        1,
        "int out[1];
int f(int depth) {
    int scratch[4];
    int i; int s;
    for (i = 0; i < 4; i++) scratch[i] = depth * 10 + i;
    if (depth > 0) {
        s = f(depth - 1);
    } else {
        s = 0;
    }
    // our frame must be intact after the recursive call
    return s + scratch[0] + scratch[3];
}
void main(void) { out[0] = f(3); }",
    );
    // depth d contributes (10d) + (10d+3); sum over d=0..3 = 60+6+60...
    // d=3: 30+33, d=2: 20+23, d=1: 10+13, d=0: 0+3 => 132.
    assert_eq!(word(&mut m, &img, "out", 0), 132);
}

#[test]
fn tiled_matmul_in_c_with_three_stack_arrays() {
    // The paper's *tiled* version from C at h = 16 (4x4 tiles): each
    // member stages an X tile and a Y tile in its frame, accumulates into
    // a zt tile, and writes one Z tile — five loop levels, three local
    // arrays, exactly the §7 kernel.
    let (mut m, img) = run(
        4,
        "#define H 16
#define M 8
#define TH 4
#define TK 2
int X[128] = {[0 ... 127] = 1};
int Y[128] = {[0 ... 127] = 1};
int Z[256];
void thread(int t) {
    int zt[16];
    int xt[8];
    int yt[8];
    int ti; int tj; int kk; int i2; int j2; int k2; int acc;
    ti = t / TH;
    tj = t % TH;
    for (i2 = 0; i2 < 16; i2++) zt[i2] = 0;
    for (kk = 0; kk < TH; kk++) {
        for (i2 = 0; i2 < TH; i2++) {
            for (k2 = 0; k2 < TK; k2++) {
                xt[i2 * TK + k2] = X[(ti * TH + i2) * M + kk * TK + k2];
                yt[k2 * TH + i2] = Y[(kk * TK + k2) * H + tj * TH + i2];
            }
        }
        for (i2 = 0; i2 < TH; i2++) {
            for (j2 = 0; j2 < TH; j2++) {
                acc = zt[i2 * TH + j2];
                for (k2 = 0; k2 < TK; k2++) {
                    acc += xt[i2 * TK + k2] * yt[k2 * TH + j2];
                }
                zt[i2 * TH + j2] = acc;
            }
        }
    }
    for (i2 = 0; i2 < TH; i2++) {
        for (j2 = 0; j2 < TH; j2++) {
            Z[(ti * TH + i2) * H + tj * TH + j2] = zt[i2 * TH + j2];
        }
    }
}
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < H; t++) thread(t);
}",
    );
    for e in 0..256u32 {
        assert_eq!(word(&mut m, &img, "Z", e), 8, "Z[{e}]");
    }
}

#[test]
fn list_initializers_fill_leading_elements() {
    let (mut m, img) = run(
        1,
        "int v[6] = {10, -20, 30};
int out[2];
void main(void) {
    out[0] = v[0] + v[1] + v[2];
    out[1] = v[3] + v[4] + v[5];   // the tail is zero
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 20);
    assert_eq!(word(&mut m, &img, "out", 1), 0);
}

#[test]
fn nested_calls_spill_live_temporaries() {
    // Calls inside expressions force the codegen to spill live scratch
    // registers around the call and reload them after it.
    let (mut m, img) = run(
        1,
        "int out[3];
int twice(int x) { return x * 2; }
int inc(int x) { return x + 1; }
void main(void) {
    out[0] = twice(1) + twice(2) + twice(3);     // 2+4+6 = 12
    out[1] = inc(twice(inc(4)));                 // ((4+1)*2)+1 = 11
    out[2] = 1000 + twice(inc(0)) - inc(1);      // 1000+2-2 = 1000
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 12);
    assert_eq!(word(&mut m, &img, "out", 1), 11);
    assert_eq!(word(&mut m, &img, "out", 2), 1000);
}

#[test]
fn six_argument_calls() {
    let (mut m, img) = run(
        1,
        "int out[1];
int sum6(int a, int b, int c, int d, int e, int f) {
    return a + b + c + d + e + f;
}
void main(void) { out[0] = sum6(1, 2, 3, 4, 5, 6); }",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 21);
}

#[test]
fn seven_arguments_rejected() {
    let err = compile(
        "int f(int a, int b, int c, int d, int e, int g, int h) { return a; }
void main(void) { f(1,2,3,4,5,6,7); }",
    )
    .unwrap_err();
    assert!(err.to_string().contains("at most"));
}

#[test]
fn globals_shadowed_by_locals() {
    let (mut m, img) = run(
        1,
        "int x = 100;
int out[2];
void f(void) { out[1] = x; }        // reads the global
void main(void) {
    int x;
    x = 5;
    out[0] = x;                     // reads the local
    f();
}",
    );
    assert_eq!(word(&mut m, &img, "out", 0), 5);
    assert_eq!(word(&mut m, &img, "out", 1), 100);
}

#[test]
fn deep_expressions_report_a_clean_error() {
    // Something deeper than the 7-register scratch pool must error, not
    // miscompile.
    let deep = "(((((((1+2)*(3+4))+((5+6)*(7+8)))*(((1+2)*(3+4))+((5+6)*(7+8))))+\
                 ((((1+2)*(3+4))+((5+6)*(7+8)))*(((1+2)*(3+4))+((5+6)*(7+8)))))))";
    let src = format!("int out[1];\nvoid main(void) {{ out[0] = {deep} * {deep}; }}");
    match compile(&src) {
        // Either it fits (constant folding helps) or it errors cleanly.
        Ok(c) => {
            let mut m = Machine::new(LbpConfig::cores(1), &c.image).unwrap();
            m.run(10_000_000).unwrap();
        }
        Err(e) => assert!(e.to_string().contains("too complex"), "{e}"),
    }
}
