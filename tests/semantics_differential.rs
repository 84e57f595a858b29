//! The differential acceptance suite for lbp-sema's executable
//! semantics (ISSUE 10's headline property): for every shipped example,
//! a battery of hand-written kernels, and a 200-case seeded sweep of
//! generated Deterministic-OpenMP programs, the interpreter's
//! observable outcome is **bit-identical** to compiling the same source
//! with `lbp-cc` and running it on the cycle-exact simulator.
//!
//! The arithmetic-edge tests pin the tricky corners — wrapping
//! overflow, division and remainder by negative numbers and by zero,
//! shift widths — to the same answers on both paths, so the semantics
//! can never silently fork from the hardware.

use lbp::asm::Image;
use lbp::cc::sema::Checked;
use lbp::cc::{CcOptions, CodegenSabotage};
use lbp::sema::diff::{diff, required_cores, DiffError, DiffReport};
use lbp::sema::{InterpOptions, Layout, Outcome, Schedule};

/// The front end once, then the back end with `sabotage`: the unit and
/// its image, as the tools build them.
fn built(src: &str, sabotage: Option<CodegenSabotage>) -> (Checked, Image) {
    let cx = lbp::cc::front_end(src).unwrap_or_else(|e| panic!("{e}\n--- source ---\n{src}"));
    let image = lbp::cc::compile_checked(&cx, &CcOptions { sabotage })
        .unwrap_or_else(|e| panic!("{e}\n--- source ---\n{src}"))
        .image;
    (cx, image)
}

/// The differential check of an honest compile, on `cores` cores (the
/// widest region's need by default).
fn diff_built(src: &str, cores: Option<usize>, max_cycles: u64) -> Result<DiffReport, DiffError> {
    let (cx, image) = built(src, None);
    let cores = cores.unwrap_or_else(|| required_cores(&cx));
    diff(&cx, &image, cores, max_cycles, &InterpOptions::default())
}

/// The interpreted outcome, globals laid out where the image puts them.
fn interpret(src: &str, opts: &InterpOptions) -> Outcome {
    let (cx, image) = built(src, None);
    lbp::sema::interp::run(&cx, &Layout::from_image(&cx, &image), opts).expect("interp")
}

/// Differential check with the default budget, panicking with the
/// program attached on any failure.
fn diff_ok(name: &str, src: &str) -> DiffReport {
    diff_built(src, None, 100_000_000)
        .unwrap_or_else(|e| panic!("{name}: {e}\n--- source ---\n{src}"))
}

// ---------------------------------------------------------------------------
// Shipped examples
// ---------------------------------------------------------------------------

/// Every `.c` file shipped under `examples/c/` must pass the
/// differential check — including ones added after this test was
/// written.
#[test]
fn every_shipped_example_is_differentially_clean() {
    let dir = format!("{}/examples/c", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/c")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let report = diff_ok(&name, &src);
        assert!(report.cycles > 0, "{name}: simulated run took no cycles");
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected the four shipped samples, got {checked}"
    );
}

/// The canonical example's observable effects, pinned as a golden
/// trace: region structure is part of the observable outcome, not just
/// the final store.
#[test]
fn hello_team_effect_trace_is_golden() {
    let path = format!("{}/examples/c/hello_team.c", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    let outcome = interpret(&src, &InterpOptions::default());
    let effects: Vec<String> = outcome.effects.iter().map(|e| e.to_string()).collect();
    assert_eq!(
        effects,
        ["set_num_threads 8", "fork team=8", "join team=8", "exit"]
    );
    // The content hash is exactly the FNV-1a of the canonical
    // rendering — the same convention as the simulator's snapshot
    // content hash, so tooling can treat them interchangeably.
    assert_eq!(
        outcome.content_hash(),
        lbp::snap::fnv1a64(outcome.render().as_bytes())
    );
}

// ---------------------------------------------------------------------------
// Hand-written kernels
// ---------------------------------------------------------------------------

#[test]
fn scale_kernel_diffs_clean() {
    let src = "\
#define N 32
int x[N];
int y[N];
void main(void) {
    int t; int i;
    for (i = 0; i < N; i++) x[i] = i - 16;
    omp_set_num_threads(8);
#pragma omp parallel for
    for (t = 0; t < 8; t++) {
        int j;
        for (j = t * 4; j < t * 4 + 4; j++) y[j] = 3 * x[j] + 1;
    }
}";
    let report = diff_ok("scale", src);
    let y = report.outcome.global("y").unwrap();
    assert_eq!(y[0], 3 * -16 + 1);
    assert_eq!(y[31], 3 * 15 + 1);
}

#[test]
fn dot_product_kernel_diffs_clean() {
    let src = "\
#define N 16
int a[N];
int b[N];
int partial[4];
int dot[1];
void main(void) {
    int t; int i; int s;
    for (i = 0; i < N; i++) { a[i] = i + 1; b[i] = 2 * i - 3; }
    omp_set_num_threads(4);
#pragma omp parallel for
    for (t = 0; t < 4; t++) {
        int j; int acc;
        acc = 0;
        for (j = t * 4; j < t * 4 + 4; j++) acc = acc + a[j] * b[j];
        partial[t] = acc;
    }
    s = 0;
    for (i = 0; i < 4; i++) s = s + partial[i];
    dot[0] = s;
}";
    let report = diff_ok("dot", src);
    let expect: i32 = (0..16).map(|i| (i + 1) * (2 * i - 3)).sum();
    assert_eq!(report.outcome.global("dot").unwrap()[0], expect);
}

#[test]
fn stencil_kernel_reads_the_entry_snapshot() {
    // Members read cells their neighbours write in the same region:
    // under deterministic consistency every member sees the
    // region-entry snapshot, so the result is a *jacobi* step, not a
    // gauss-seidel one — on both the interpreter and the machine.
    let src = "\
#define N 16
int u[N];
int v[N];
void main(void) {
    int t; int i;
    for (i = 0; i < N; i++) u[i] = i * i;
    omp_set_num_threads(4);
#pragma omp parallel for
    for (t = 0; t < 4; t++) {
        int j;
        for (j = t * 4; j < t * 4 + 4; j++) {
            if (j == 0) { v[j] = u[j]; }
            else { if (j == N - 1) { v[j] = u[j]; } else { v[j] = u[j - 1] + u[j + 1]; } }
        }
    }
}";
    let report = diff_ok("stencil", src);
    let v = report.outcome.global("v").unwrap();
    assert_eq!(v[0], 0);
    for (j, &got) in v.iter().enumerate().take(15).skip(1) {
        let (l, r) = ((j as i32 - 1).pow(2), (j as i32 + 1).pow(2));
        assert_eq!(got, l + r, "v[{j}]");
    }
    assert_eq!(v[15], 225);
}

#[test]
fn sections_kernel_diffs_clean() {
    let src = "\
int r[4];
void main(void) {
    omp_set_num_threads(2);
#pragma omp parallel sections
    {
#pragma omp section
        { r[0] = 11; r[1] = 22; }
#pragma omp section
        { r[2] = 33; r[3] = 44; }
    }
}";
    let report = diff_ok("sections", src);
    assert_eq!(report.outcome.global("r").unwrap(), &[11, 22, 33, 44]);
}

// ---------------------------------------------------------------------------
// Arithmetic edges, pinned identically on both paths
// ---------------------------------------------------------------------------

/// Signed overflow wraps (two's complement), on the interpreter and the
/// RV32IM datapath alike.
#[test]
fn wrapping_overflow_is_identical_on_both_paths() {
    let src = "\
int r[4];
void main(void) {
    int big;
    big = 2147483647;
    r[0] = big + 1;
    r[1] = 0 - big - 2;
    r[2] = big * 2;
    r[3] = (0 - big - 1) * (0 - 1);
}";
    let report = diff_ok("wrap", src);
    assert_eq!(
        report.outcome.global("r").unwrap(),
        &[i32::MIN, i32::MAX, -2, i32::MIN]
    );
}

/// Division and remainder follow RISC-V M: trunc-toward-zero, div by
/// zero yields -1, rem by zero yields the dividend, MIN/-1 wraps.
#[test]
fn division_edges_are_identical_on_both_paths() {
    let src = "\
int r[8];
void main(void) {
    int min; int z;
    min = 0 - 2147483647 - 1;
    z = 0;
    r[0] = 7 / (0 - 2);
    r[1] = (0 - 7) / 2;
    r[2] = 7 % (0 - 2);
    r[3] = (0 - 7) % 2;
    r[4] = 5 / z;
    r[5] = 5 % z;
    r[6] = min / (0 - 1);
    r[7] = min % (0 - 1);
}";
    let report = diff_ok("divmod", src);
    assert_eq!(
        report.outcome.global("r").unwrap(),
        &[-3, -3, 1, -1, -1, 5, i32::MIN, 0]
    );
}

/// Shift amounts are masked to 5 bits; right shift of a negative value
/// is arithmetic.
#[test]
fn shift_width_edges_are_identical_on_both_paths() {
    let src = "\
int r[5];
void main(void) {
    int n; int w;
    n = 0 - 8;
    w = 33;
    r[0] = 1 << 31;
    r[1] = 1 << w;
    r[2] = n >> 1;
    r[3] = n >> 31;
    r[4] = 6 >> w;
}";
    let report = diff_ok("shift", src);
    assert_eq!(
        report.outcome.global("r").unwrap(),
        &[i32::MIN, 2, -4, -1, 3]
    );
}

/// A product by the constant 2^k compiles to `slli` by k, in either
/// operand order: for k = 1..30 and the words where wrapping shows, the
/// simulated shift and the interpreter's wrapping product agree.
#[test]
fn power_of_two_products_are_identical_on_both_paths() {
    let xs = [0, 1, -1, i32::MIN, i32::MAX];
    let mut body = String::new();
    for k in 1..=30 {
        let (lo, hi, p) = (2 * k - 2, 2 * k - 1, 1 << k);
        body += &format!("        r[j * 64 + {lo}] = x * {p}; r[j * 64 + {hi}] = {p} * x;\n");
    }
    let src = format!(
        "int xs[5] = {{0, 1, -1, -2147483648, 2147483647}};\nint r[320];\n\
         void main(void) {{\n    int j; int x;\n    for (j = 0; j < 5; j++) {{\n        x = xs[j];\n{body}    }}\n}}"
    );
    let asm = lbp::cc::compile(&src).expect("compiles").asm;
    assert!(!asm.contains("mul"), "a product by 2^k is a shift:\n{asm}");
    let report = diff_ok("pow2", &src);
    let want: Vec<i32> = xs
        .iter()
        .flat_map(|&x| {
            let row = (1..=30).flat_map(move |k| [x.wrapping_mul(1 << k); 2]);
            row.chain([0; 4])
        })
        .collect();
    assert_eq!(report.outcome.global("r").unwrap(), want.as_slice());
}

/// The two loop rules at their edges. An innermost counted loop reads
/// and writes its global arrays through pointer registers advanced at
/// the step (`(a7)` in the listing), and a loop whose init decides its
/// entry test tests at the bottom only (a conditional branch back to
/// its label). Each row states whether it must take either rule, and
/// both paths must give `r` as computed here, with `A[i] = 3i + 1`.
#[test]
fn reduced_and_bottom_tested_loops_are_identical_on_both_paths() {
    fn a(i: usize) -> i32 {
        3 * i as i32 + 1
    }
    type Row = (&'static str, &'static str, bool, bool, fn(usize) -> i32);
    let rows: [Row; 15] = [
        ("step -1", "for (k = 63; k >= 0; k--) { r[k] = A[k] * 2; }", true, true, |i| 2 * a(i)),
        ("step +2", "for (k = 0; k < 63; k += 2) { r[k] = A[k + 1]; }", true, true, |i| {
            if i % 2 == 0 && i < 63 { a(i + 1) } else { 0 }
        }),
        ("step -3", "for (k = 63; k > 0; k -= 3) { r[k] = A[k - 1]; }", true, true, |i| {
            if i % 3 == 0 && i > 0 { a(i - 1) } else { 0 }
        }),
        ("2*k+1", "for (k = 0; k < 32; k++) { r[k] = A[2 * k + 1]; }", true, true, |i| {
            if i < 32 { a(2 * i + 1) } else { 0 }
        }),
        ("k*16+j", "j = 3; for (k = 0; k < 4; k++) { r[k * 16 + j] = A[k * 16 + j] + k; }", true, true, |i| {
            if i % 16 == 3 { a(i) + i as i32 / 16 } else { 0 }
        }),
        ("j-k", "j = 40; for (k = 0; k < 32; k++) { r[k] = A[j - k]; }", true, true, |i| {
            if i < 32 { a(40 - i) } else { 0 }
        }),
        ("-k", "for (k = -63; k <= 0; k++) { r[-k] = A[-k] - k; }", true, true, |i| a(i) + i as i32),
        ("continue", "for (k = 0; k < 64; k++) { if (A[k] % 2 == 0) { continue; } r[k] = A[k]; }", true, true, |i| {
            if a(i) % 2 == 0 { 0 } else { a(i) }
        }),
        ("break", "for (k = 0; k < 64; k++) { if (A[k] > 100) { break; } r[k] = A[k]; }", true, true, |i| {
            if a(i) > 100 { 0 } else { a(i) }
        }),
        ("assigns an index local", "j = 0; for (k = 0; k < 32; k++) { r[k + j] = k; j = j + 1; }", false, true, |i| {
            if i % 2 == 0 { i as i32 / 2 } else { 0 }
        }),
        ("calls", "for (k = 0; k < 32; k++) { r[k] = f(k); }", false, true, |i| {
            if i < 32 { a(i) + 1 } else { 0 }
        }),
        ("entry test false", "for (k = 8; k < 8; k++) { r[k] = A[k]; }", true, false, |_| 0),
        // The entry test folds on 32-bit words: k is -1 and ~k is 0.
        ("entry test ~0xffffffff", "for (k = 0xffffffff; ~k; k++) { r[0] = 1; }", false, false, |_| 0),
        ("entry test not decided", "t = A[0] - 1; for (k = t; k < 8; k++) { r[k] = A[k] + A[k]; }", true, false, |i| {
            if i < 8 { 2 * a(i) } else { 0 }
        }),
        (
            "wraps through i32::MAX",
            "for (k = 2147483640; k != -2147483640; k++) { r[k - 2147483640] = A[k - 2147483640] + 1; }",
            true,
            true,
            |i| if i < 16 { a(i) + 1 } else { 0 },
        ),
    ];
    let init: Vec<String> = (0..64).map(|i| a(i).to_string()).collect();
    for (name, body, reduced, rotated, want) in rows {
        let src = format!(
            "int A[64] = {{{}}};\nint r[64];\nint f(int x) {{ return A[x] + 1; }}\n\
             void main(void) {{\n    int k; int j; int t;\n    {body}\n}}\n",
            init.join(", ")
        );
        let asm = lbp::cc::compile(&src).expect("compiles").asm;
        let back = asm
            .lines()
            .any(|l| l.trim_start().starts_with('b') && l.contains("_cc_for_"));
        assert_eq!(
            asm.contains("(a7)"),
            reduced,
            "{name}: pointer registers\n{asm}"
        );
        assert_eq!(back, rotated, "{name}: bottom test\n{asm}");
        let report = diff_ok(name, &src);
        let want: Vec<i32> = (0..64).map(want).collect();
        assert_eq!(
            report.outcome.global("r").unwrap(),
            want.as_slice(),
            "{name}"
        );
    }
}

/// Rules B, E and S⁺ at the edges of their exactness arguments. Each row
/// gives how many of its loops must test an end pointer (rule E: an
/// `addi` sets a counter's register from a pointer register) and `r` as
/// computed here, with `A[i] = 3i + 1`; both paths must give it.
#[test]
fn end_pointer_and_carried_loops_are_identical_on_both_paths() {
    fn a(i: usize) -> i32 {
        3 * i as i32 + 1
    }
    type Row = (&'static str, &'static str, usize, fn(usize) -> i32);
    let rows: [Row; 6] = [
        ("counter read after the loop", "for (k = 0; k < 8; k++) { r[k] = A[k]; } r[8] = k;", 1, |i| {
            match i { 0..8 => a(i), 8 => 8, _ => 0 }
        }),
        ("break", "for (k = 0; k < 64; k++) { if (A[k] > 100) { break; } r[k] = A[k]; } r[63] = k;", 0, |i| {
            match i { 0..34 => a(i), 63 => 34, _ => 0 }
        }),
        ("k-- to an end pointer", "for (k = 7; k >= 0; k--) { r[k] = A[k]; } r[8] = k;", 1, |i| {
            match i { 0..8 => a(i), 8 => -1, _ => 0 }
        }),
        (
            "inner entry reads a local the outer body writes",
            "for (j = 0; j < 4; j++) { t = j * 2; for (k = 0; k < 4; k++) { r[j * 8 + k] = A[k + t]; } }",
            1,
            |i| if i < 32 && i % 8 < 4 { a(i % 8 + 2 * (i / 8)) } else { 0 },
        ),
        (
            "carried and hoisted entries",
            "for (j = 0; j < 4; j++) { s = 0; for (k = 0; k < 8; k++) { s = s + A[k * 4 + j] * A[j * 8 + k]; } r[j] = s; }",
            2,
            |i| if i < 4 { (0..8).map(|k| a(k * 4 + i) * a(i * 8 + k)).sum() } else { 0 },
        ),
        (
            "counters read after a nest",
            "for (j = 3; j >= 0; j--) { for (k = 0; k < 4; k++) { r[j * 4 + k] = A[j + k]; } } r[20] = j; r[21] = k;",
            2,
            |i| match i { 0..16 => a(i / 4 + i % 4), 20 => -1, 21 => 4, _ => 0 },
        ),
    ];
    let init: Vec<String> = (0..64).map(|i| a(i).to_string()).collect();
    for (name, body, ends, want) in rows {
        let src = format!(
            "int A[64] = {{{}}};\nint r[64];\nvoid main(void) {{\n    int k; int j; int t; int s;\n    {body}\n}}\n",
            init.join(", ")
        );
        let asm = lbp::cc::compile(&src).expect("compiles").asm;
        let set_from_pointer = |l: &str| {
            let ops: Vec<&str> = l.split([' ', ',']).filter(|w| !w.is_empty()).collect();
            matches!(ops[..], ["addi", e, p, _] if e.starts_with('s') && !p.starts_with('s'))
        };
        assert_eq!(
            asm.lines().filter(|l| set_from_pointer(l)).count(),
            ends,
            "{name}: end pointers\n{asm}"
        );
        let report = diff_ok(name, &src);
        let want: Vec<i32> = (0..64).map(want).collect();
        assert_eq!(
            report.outcome.global("r").unwrap(),
            want.as_slice(),
            "{name}"
        );
    }
}

/// A nest whose inner expressions run the scratch pool dry gives its
/// pointers back, the outer loop's carried entries included, down to
/// none: the inner loop compiles as a `for` exactly when it compiles as
/// a `while`, and both paths agree on it.
#[test]
fn a_nest_short_of_registers_gives_its_pointers_back() {
    let init: Vec<String> = (0..64).map(|i| (3 * i + 1).to_string()).collect();
    let mut compiled = 0;
    for d in 2..=8 {
        let mut sum = format!("A[j + k + {}]", d - 1);
        for i in (0..d - 1).rev() {
            sum = format!("A[j + k + {i}] + ({sum})");
        }
        let body = format!("r[j * 8 + k] = {sum};");
        let program = |l: String| {
            format!(
                "int A[64] = {{{}}};\nint r[64];\nvoid main(void) {{\n    int j; int k;\n    \
                 for (j = 0; j < 4; j++) {{ {l} }}\n}}\n",
                init.join(", ")
            )
        };
        let for_src = program(format!("for (k = 0; k < 8; k++) {{ {body} }}"));
        let while_src = program(format!("k = 0; while (k < 8) {{ {body} k = k + 1; }}"));
        let for_ok = lbp::cc::compile(&for_src).is_ok();
        assert_eq!(for_ok, lbp::cc::compile(&while_src).is_ok(), "depth {d}");
        if !for_ok {
            continue;
        }
        compiled += 1;
        let report = diff_ok(&format!("depth {d}"), &for_src);
        let want: Vec<i32> = (0..64)
            .map(|i| match (i / 8, i % 8) {
                (j, k) if j < 4 => (j + k..j + k + d).map(|x| 3 * x + 1).sum(),
                _ => 0,
            })
            .collect();
        assert_eq!(
            report.outcome.global("r").unwrap(),
            want.as_slice(),
            "depth {d}"
        );
    }
    assert!(compiled >= 5, "{compiled} depths compiled");
}

/// A unary operation on a constant folds on its 32-bit word, as the
/// machine computes it: `~0xffffffff` is 0, not −2^32.
#[test]
fn unary_constants_fold_on_32_bit_words() {
    let src = "int r[4];\nvoid main(void) {\n    r[0] = !(~0xffffffff);\n    \
               r[1] = -(~0xffffffff);\n    r[2] = ~0xffffffff;\n    r[3] = ~(-0x80000000);\n}\n";
    let report = diff_ok("unary constants", src);
    assert_eq!(report.outcome.global("r").unwrap(), [1, 0, 0, i32::MAX]);
}

/// A reduced loop whose expressions run the scratch pool dry gives its
/// pointers back one by one, down to none: `r[k] = A[k] + (A[k + 1] +
/// ...)` nested `d` deep compiles as a `for` exactly when it compiles
/// as the `while` rule S never touches, and both paths agree on it.
#[test]
fn a_loop_short_of_registers_gives_its_pointers_back() {
    let init: Vec<String> = (0..64).map(|i| (3 * i + 1).to_string()).collect();
    let mut compiled = 0;
    for d in 2..=8 {
        let mut sum = format!("A[k + {}]", d - 1);
        for i in (0..d - 1).rev() {
            sum = format!("A[k + {i}] + ({sum})");
        }
        let body = format!("r[k] = {sum};");
        let program = |l: String| {
            format!(
                "int A[64] = {{{}}};\nint r[64];\nvoid main(void) {{\n    int k;\n    {l}\n}}\n",
                init.join(", ")
            )
        };
        let for_src = program(format!("for (k = 0; k < 8; k++) {{ {body} }}"));
        let while_src = program(format!("k = 0; while (k < 8) {{ {body} k = k + 1; }}"));
        let for_ok = lbp::cc::compile(&for_src).is_ok();
        assert_eq!(for_ok, lbp::cc::compile(&while_src).is_ok(), "depth {d}");
        if !for_ok {
            continue;
        }
        compiled += 1;
        let report = diff_ok(&format!("depth {d}"), &for_src);
        let want: Vec<i32> = (0..64)
            .map(|k| match k < 8 {
                true => (k..k + d).map(|i| 3 * i + 1).sum(),
                false => 0,
            })
            .collect();
        assert_eq!(
            report.outcome.global("r").unwrap(),
            want.as_slice(),
            "depth {d}"
        );
    }
    // Depths 4 to 6 compile only by giving pointers back; 7 and 8 need
    // more than the pool without any.
    assert_eq!(compiled, 5);
}

// ---------------------------------------------------------------------------
// Schedule independence
// ---------------------------------------------------------------------------

/// Deterministic consistency makes the member interleaving
/// unobservable: the interpreter run under four different seeded
/// schedules (and round-robin) lands on one content hash, which is also
/// the hash the simulator agrees with.
#[test]
fn outcome_is_independent_of_the_interpreter_schedule() {
    let path = format!("{}/examples/c/matmul.c", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    let reference = interpret(&src, &InterpOptions::default()).content_hash();
    for seed in [1u64, 7, 42, 0xdead_beef] {
        let opts = InterpOptions {
            schedule: Schedule::Seeded(seed),
            ..InterpOptions::default()
        };
        let hash = interpret(&src, &opts).content_hash();
        assert_eq!(hash, reference, "seed {seed} changed the outcome");
    }
    let report = diff_built(&src, None, 100_000_000).expect("diff");
    assert_eq!(report.hash(), reference);
}

// ---------------------------------------------------------------------------
// 200-case generated sweep
// ---------------------------------------------------------------------------

/// The acceptance sweep: 200 generated Deterministic-OpenMP programs
/// (seed 42), every one interpreted AND compiled-and-simulated, with
/// bit-identical observables demanded each time. Uses the same
/// generator and case-seed derivation as `lbp-fuzz --seed 42 --kinds c
/// --count 200`, so any failure here replays there.
#[test]
fn two_hundred_generated_programs_diff_clean() {
    use lbp_fuzz::gen::{generate, GenConfig, Kind};
    let cfg = GenConfig {
        kinds: vec![Kind::C],
        ..GenConfig::default()
    };
    for case in 0..200u64 {
        let mut rng = lbp_testutil::Rng::new(lbp_fuzz::case_seed(42, case));
        let program = generate(&mut rng, &cfg, case);
        let src = program.render();
        let report = diff_built(&src, Some(program.cores), program.max_cycles)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n--- source ---\n{src}"));
        assert!(report.cycles > 0, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Sabotage witness
// ---------------------------------------------------------------------------

/// The committed witness program trips every `codegen:*` sabotage kind
/// (`tests/golden_cli.rs` drives it through `lbp-cc --diff --sabotage`),
/// and diffs clean when compiled honestly.
#[test]
fn sabotage_witness_diverges_under_every_kind_and_is_otherwise_clean() {
    let path = format!(
        "{}/tests/fixtures/sabotage_witness.c",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap();
    diff_ok("sabotage_witness (clean)", &src);
    for kind in CodegenSabotage::ALL {
        let (cx, image) = built(&src, Some(kind));
        let err = diff(
            &cx,
            &image,
            required_cores(&cx),
            100_000_000,
            &InterpOptions::default(),
        )
        .expect_err("sabotaged binary must diverge");
        assert!(
            matches!(err, DiffError::Divergence(_)),
            "{}: expected a divergence, got {err}",
            kind.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Harness self-checks
// ---------------------------------------------------------------------------

/// `required_cores` sizes the machine from the widest region.
#[test]
fn required_cores_matches_the_widest_region() {
    let cx = lbp::cc::front_end(
        "void main(void) {\nint t;\n#pragma omp parallel for\nfor (t = 0; t < 16; t++) { }\n}",
    )
    .unwrap();
    assert_eq!(
        required_cores(&cx),
        16usize.div_ceil(lbp::isa::HARTS_PER_CORE)
    );
}

/// A program whose meaning is undefined (uninitialized read) is
/// rejected by the interpreter rather than silently compared.
#[test]
fn undefined_programs_trap_instead_of_diffing() {
    let err = diff_built("int g;\nvoid main(void) { int x; g = x; }", None, 1_000_000)
        .expect_err("uninit read must trap");
    match err {
        DiffError::Trap(t) => assert_eq!(t.class, "uninit"),
        other => panic!("expected a trap, got {other}"),
    }
}
