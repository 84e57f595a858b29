//! Whole-stack integration tests: C source → translator → assembler →
//! simulator, and runtime-generated programs across machine sizes.

use lbp::cc;
use lbp::kernels::matmul::{Matmul, Version};
use lbp::omp::{DetOmp, ReduceOp};
use lbp::sim::{LbpConfig, Machine};

#[test]
fn c_program_through_the_whole_stack() {
    let compiled = cc::compile(
        "#define NT 8
int data[NT];
int total[1];
void work(int t) { data[t] = (t + 1) * (t + 1); }
void main(void) {
    int t; int i; int s;
#pragma omp parallel for
    for (t = 0; t < NT; t++) work(t);
    s = 0;
    for (i = 0; i < NT; i++) s += data[i];
    total[0] = s;
}",
    )
    .expect("compiles");
    let mut m = Machine::new(LbpConfig::cores(2), &compiled.image).expect("machine");
    let report = m.run(10_000_000).expect("runs");
    assert!(report.exited);
    let total = m
        .peek_shared(compiled.image.symbol("total").unwrap())
        .unwrap();
    assert_eq!(total, (1..=8u32).map(|x| x * x).sum());
}

#[test]
fn runtime_and_compiler_agree_on_the_protocol() {
    // The same semantics expressed through the DetOmp builder and through
    // C must produce the same memory contents.
    let n = 8u32;
    let via_builder = {
        let p = DetOmp::new(n as usize)
            .data_space("v", n * 4)
            .function(
                "thread",
                "la   a2, v
                 slli a3, a0, 2
                 add  a2, a2, a3
                 slli a4, a0, 1
                 sw   a4, 0(a2)
                 p_ret",
            )
            .parallel_for("thread");
        let image = p.build().unwrap();
        let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
        m.run(10_000_000).unwrap();
        let v = image.symbol("v").unwrap();
        (0..n)
            .map(|t| m.peek_shared(v + 4 * t).unwrap())
            .collect::<Vec<_>>()
    };
    let via_c = {
        let compiled = cc::compile(
            "int v[8];
void main(void) {
    int t;
#pragma omp parallel for
    for (t = 0; t < 8; t++) { v[t] = t * 2; }
}",
        )
        .unwrap();
        let mut m = Machine::new(LbpConfig::cores(2), &compiled.image).unwrap();
        m.run(10_000_000).unwrap();
        let v = compiled.image.symbol("v").unwrap();
        (0..n)
            .map(|t| m.peek_shared(v + 4 * t).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(via_builder, via_c);
}

#[test]
fn matmul_kernels_match_a_host_reference_with_random_inputs() {
    let mut rng = lbp_testutil::Rng::new(7);
    for version in [Version::Base, Version::Tiled, Version::Distributed] {
        let mm = Matmul::new(16, version);
        let image = mm.build();
        let mut m = Machine::new(mm.config(), &image).unwrap();
        let l = mm.layout();
        // Random small inputs instead of the paper's all-ones.
        let mut x = vec![0i64; (l.n * l.m) as usize];
        let mut y = vec![0i64; (l.m * l.n) as usize];
        for i in 0..l.n {
            for k in 0..l.m {
                let v = rng.range_i64(-9, 8);
                x[(i * l.m + k) as usize] = v;
                m.poke_shared(l.x(i, k), v as u32).unwrap();
            }
        }
        for k in 0..l.m {
            for j in 0..l.n {
                let v = rng.range_i64(-9, 8);
                y[(k * l.n + j) as usize] = v;
                m.poke_shared(l.y(k, j), v as u32).unwrap();
            }
        }
        m.run(100_000_000).unwrap();
        for i in 0..l.n {
            for j in 0..l.n {
                let want: i64 = (0..l.m)
                    .map(|k| x[(i * l.m + k) as usize] * y[(k * l.n + j) as usize])
                    .sum();
                let got = m.peek_shared(l.z(i, j)).unwrap() as i32 as i64;
                assert_eq!(got, want, "{} Z[{i}][{j}]", version.name());
            }
        }
    }
}

#[test]
fn region_team_larger_than_machine_is_a_clean_error() {
    // 8 members need 2 cores; on a single-core machine the p_fn hits the
    // end of the core line: a protocol error, not a hang.
    let p = DetOmp::new(8).function("f", "p_ret").parallel_for("f");
    let image = p.build().unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    let err = m.run(1_000_000).unwrap_err();
    assert!(matches!(err, lbp::sim::SimError::Protocol { .. }));
}

/// A reduction nobody contributes to keeps its variable's initial value,
/// as in OpenMP: the program waits for no partial value and stores none.
#[test]
fn a_reduction_of_no_values_leaves_its_destination_as_it_was() {
    let image = DetOmp::new(1)
        .data_words("out", &[7])
        .collect_reduction(0, 0, ReduceOp::Add, "out")
        .build()
        .unwrap();
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    assert!(m.run(1_000_000).expect("runs to its exit").exited);
    assert_eq!(m.peek_shared(image.symbol("out").unwrap()).unwrap(), 7);
}

#[test]
fn umbrella_crate_reexports_work() {
    // The public API is reachable through the umbrella crate.
    let _cfg = lbp::sim::LbpConfig::cores(4);
    let _reg: lbp::isa::Reg = lbp::isa::Reg::A0;
    let _ = lbp::asm::assemble("main: nop").unwrap();
    let _ = lbp::baseline::PhiModel::paper_calibrated();
}
