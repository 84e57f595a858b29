//! Functional correctness of every kernel, run end-to-end on the
//! simulator.

use lbp_kernels::matmul::{Matmul, Version};
use lbp_kernels::sensor::SensorApp;
use lbp_kernels::simple::{
    dot_product_expected, dot_product_program, set_get_program, stencil_expected, stencil_program,
    VectorParams,
};
use lbp_sim::{LbpConfig, Machine};

#[test]
fn matmul_all_versions_correct_at_16_harts() {
    for version in Version::ALL {
        let mm = Matmul::new(16, version);
        let mut m = mm.machine().unwrap();
        m.run(10_000_000)
            .unwrap_or_else(|e| panic!("{} failed: {e}", version.name()));
        let z = mm.read_z(&mut m).unwrap();
        assert!(
            z.iter().all(|&v| v == 8),
            "{}: Z must be all 8 (h/2), got {:?}...",
            version.name(),
            &z[..8]
        );
    }
}

#[test]
fn matmul_base_and_tiled_correct_at_64_harts() {
    for version in [Version::Base, Version::Tiled, Version::Distributed] {
        let mm = Matmul::new(64, version);
        let mut m = mm.machine().unwrap();
        m.run(50_000_000)
            .unwrap_or_else(|e| panic!("{} failed: {e}", version.name()));
        assert!(
            mm.verify(&mut m).unwrap(),
            "{}: sampled Z values must equal 32",
            version.name()
        );
    }
}

#[test]
fn matmul_versions_retire_different_instruction_counts() {
    // copy/tiled trade extra instructions for locality; the counts must
    // differ from base (the paper's Fig. 19-21 third histogram).
    let retired = |v: Version| {
        let mm = Matmul::new(16, v);
        let mut m = mm.machine().unwrap();
        m.run(10_000_000).unwrap();
        m.stats().retired()
    };
    let base = retired(Version::Base);
    let copy = retired(Version::Copy);
    let tiled = retired(Version::Tiled);
    assert!(copy > base, "copy adds staging instructions");
    assert!(tiled > base, "tiling adds staging + loop control");
    // The inner loop dominates: base is within 2x of pure 7*h^3/2.
    let inner = 7 * 16u64.pow(3) / 2;
    assert!(base as f64 >= inner as f64);
    assert!(
        (base as f64) < 2.0 * inner as f64,
        "base {base} vs inner {inner}"
    );
}

#[test]
fn set_get_scales_every_element() {
    let p = VectorParams::new(8, 64);
    let prog = set_get_program(p, 3);
    let image = prog.build().unwrap();
    let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
    m.run(10_000_000).unwrap();
    let w = image.symbol("vec_w").unwrap();
    for i in 0..64u32 {
        assert_eq!(m.peek_shared(w + 4 * i).unwrap(), 3 * i);
    }
}

#[test]
fn stencil_matches_host_reference() {
    let p = VectorParams::new(8, 64);
    let prog = stencil_program(p);
    let image = prog.build().unwrap();
    let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
    m.run(10_000_000).unwrap();
    let out = image.symbol("st_out").unwrap();
    let expect = stencil_expected(p);
    for (i, &want) in expect.iter().enumerate().take(63).skip(1) {
        assert_eq!(
            m.peek_shared(out + 4 * i as u32).unwrap(),
            want,
            "element {i}"
        );
    }
}

#[test]
fn dot_product_reduces_over_backward_line() {
    let p = VectorParams::new(8, 64);
    let prog = dot_product_program(p);
    let image = prog.build().unwrap();
    let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
    m.run(10_000_000).unwrap();
    let sum = image.symbol("dp_sum").unwrap();
    assert_eq!(m.peek_shared(sum).unwrap() as u64, dot_product_expected(p));
}

#[test]
fn sensor_fusion_output_is_deterministic_under_jitter() {
    let app = SensorApp::new(2);
    let image = app.program().build().unwrap();
    let values = [[10, 20, 30, 40], [8, 8, 8, 8]];
    let run_with = |schedules: [Vec<(u64, u32)>; 4]| {
        let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
        let out = app.attach_devices(&mut m, schedules);
        m.run(10_000_000).unwrap();
        m.io_mut().output(out).values()
    };
    // Sensors answering fast and in order...
    let orderly = run_with([
        vec![(10, 10), (500, 8)],
        vec![(20, 20), (510, 8)],
        vec![(30, 30), (520, 8)],
        vec![(40, 40), (530, 8)],
    ]);
    // ...or slow, jittered and out of order: same fused outputs.
    let jittered = run_with([
        vec![(900, 10), (2000, 8)],
        vec![(50, 20), (3000, 8)],
        vec![(700, 30), (1200, 8)],
        vec![(5, 40), (4000, 8)],
    ]);
    let expect = app.expected(&values);
    assert_eq!(orderly, expect);
    assert_eq!(jittered, expect);
}

#[test]
fn matmul_runs_are_cycle_deterministic() {
    let mm = Matmul::new(16, Version::Tiled);
    let cycles = |_: ()| {
        let mut m = mm.machine().unwrap();
        let r = m.run(10_000_000).unwrap();
        (r.stats.cycles, r.stats.retired())
    };
    assert_eq!(cycles(()), cycles(()));
}

#[test]
fn prefix_sum_matches_host_reference() {
    use lbp_kernels::simple::{prefix_sum_expected, prefix_sum_program};
    let p = VectorParams::new(8, 64);
    let prog = prefix_sum_program(p);
    let image = prog
        .build()
        .unwrap_or_else(|e| panic!("{e}\n{}", prog.source()));
    let mut m = Machine::new(LbpConfig::cores(2), &image).unwrap();
    m.run(10_000_000).unwrap();
    let out = image.symbol("ps_out").unwrap();
    let expect = prefix_sum_expected(p);
    for (i, &want) in expect.iter().enumerate().take(64) {
        assert_eq!(
            m.peek_shared(out + 4 * i as u32).unwrap(),
            want,
            "element {i}"
        );
    }
}

#[test]
fn histogram_matches_host_reference() {
    use lbp_kernels::simple::{histogram_expected, histogram_program, HISTOGRAM_BINS};
    let p = VectorParams::new(8, 128);
    let prog = histogram_program(p);
    let image = prog
        .build()
        .unwrap_or_else(|e| panic!("{e}\n{}", prog.source()));
    let mut m = Machine::new(LbpConfig::cores(4), &image).unwrap();
    m.run(10_000_000).unwrap();
    let out = image.symbol("hg_out").unwrap();
    let expect = histogram_expected(p);
    let mut total = 0;
    for (b, &want) in expect.iter().enumerate().take(HISTOGRAM_BINS) {
        let got = m.peek_shared(out + 4 * b as u32).unwrap();
        assert_eq!(got, want, "bin {b}");
        total += got;
    }
    assert_eq!(total, 128, "every element lands in a bin");
}

#[test]
fn odd_even_sort_orders_the_array() {
    use lbp_kernels::simple::{odd_even_sort_expected, odd_even_sort_program};
    let harts = 16;
    let prog = odd_even_sort_program(harts, 3);
    let image = prog
        .build()
        .unwrap_or_else(|e| panic!("{e}\n{}", prog.source()));
    let mut m = Machine::new(LbpConfig::cores(4), &image).unwrap();
    m.run(50_000_000).unwrap();
    let a = image.symbol("oe_a").unwrap();
    let expect = odd_even_sort_expected(harts, 3);
    for (i, &want) in expect.iter().enumerate().take(harts) {
        assert_eq!(
            m.peek_shared(a + 4 * i as u32).unwrap() as i32 as i64,
            want,
            "element {i}"
        );
    }
}

/// The sensor kernel's listing, two `parallel sections` regions and
/// their function tables included, is pinned byte for byte.
#[test]
fn sensor_listing_is_pinned() {
    let source = SensorApp::new(2).program().source();
    let fnv = source.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((source.len(), fnv), (4127, 0x6025_7239_27f7_45ed));
    let data = &source[source.find(".data").unwrap()..];
    assert_eq!(
        data,
        ".data\n    .align 4\ns_vals:\n    .space 16\n\
         _omp_sections_0:\n    .word get_sensor0\n    .word get_sensor1\n\
         \x20   .word get_sensor2\n    .word get_sensor3\n\
         _omp_sections_1:\n    .word get_sensor0\n    .word get_sensor1\n\
         \x20   .word get_sensor2\n    .word get_sensor3\n"
    );
}
