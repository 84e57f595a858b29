//! Cross-validation of static verdicts against the dynamic
//! infrastructure: no program the verifier accepts may deadlock in the
//! simulator across the fault-free test matrix — and the one program the
//! dynamic detector catches hanging (`examples/asm/hung.s`) must already
//! be rejected statically, for the same reason. Since the M-pass, the
//! same bargain covers shared memory: every accepted program also runs
//! under the race-witness collector and must produce zero witnesses.

use lbp_kernels::matmul::{Matmul, Version};
use lbp_kernels::simple::{self, VectorParams};
use lbp_sim::{LbpConfig, Machine, SimError};
use lbp_verify::{accepted, verify_image};

use crate::repo;

/// Verifies, then runs: accepted programs must exit without deadlock.
fn verify_then_run(name: &str, image: &lbp_asm::Image, cores: usize) {
    let diags = verify_image(image);
    assert!(
        accepted(&diags),
        "{name}: statically rejected:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let mut m = Machine::new(LbpConfig::cores(cores), image).unwrap();
    // The dynamic side of the M-pass bargain: a statically accepted
    // program must not produce a concrete shared-memory race witness.
    m.enable_race_witness();
    match m.run(100_000_000) {
        Ok(report) => assert!(report.exited, "{name}: accepted but did not exit"),
        Err(SimError::Deadlock { .. }) => {
            panic!("{name}: verifier accepted a program that deadlocks")
        }
        Err(e) => panic!("{name}: {e}"),
    }
    assert!(
        m.race_witnesses().is_empty(),
        "{name}: statically accepted but raced dynamically: {}",
        m.race_witnesses()
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn accepted_asm_examples_run_deadlock_free() {
    for (file, cores) in [("examples/asm/mul.s", 1), ("examples/asm/fork2.s", 2)] {
        let source = std::fs::read_to_string(repo(file)).unwrap();
        let image = lbp_asm::assemble(&source).unwrap();
        verify_then_run(file, &image, cores);
    }
}

#[test]
fn accepted_c_examples_run_deadlock_free() {
    for (file, cores) in [
        ("examples/c/hello_team.c", 2),
        ("examples/c/matmul.c", 4),
        ("examples/c/reduce.c", 2),
        ("examples/c/set_get.c", 4),
    ] {
        let source = std::fs::read_to_string(repo(file)).unwrap();
        let compiled = lbp_cc::compile(&source).unwrap();
        // Both layers must agree: source lint and binary verification.
        let lint = lbp_cc::lint(&source).unwrap();
        assert!(accepted(&lint), "{file}: lint rejected a green program");
        verify_then_run(file, &compiled.image, cores);
    }
}

#[test]
fn accepted_matmul_kernels_run_deadlock_free() {
    for version in [Version::Base, Version::Tiled] {
        let mm = Matmul::new(16, version);
        let image = mm.build();
        let diags = verify_image(&image);
        assert!(accepted(&diags), "{}: rejected", version.name());
        let mut m = mm.machine().unwrap();
        m.enable_race_witness();
        match m.run(100_000_000) {
            Ok(_) => {}
            Err(SimError::Deadlock { .. }) => {
                panic!("{}: verifier accepted a deadlocking kernel", version.name())
            }
            Err(e) => panic!("{}: {e}", version.name()),
        }
        assert!(
            m.race_witnesses().is_empty(),
            "{}: accepted kernel raced dynamically",
            version.name()
        );
        assert!(
            mm.verify(&mut m).unwrap(),
            "{}: wrong result",
            version.name()
        );
    }
}

#[test]
fn accepted_simple_kernels_run_deadlock_free() {
    let p = VectorParams::new(4, 32);
    let programs = [
        ("set_get", simple::set_get_program(p, 3)),
        ("dot_product", simple::dot_product_program(p)),
        ("stencil", simple::stencil_program(p)),
    ];
    for (name, program) in programs {
        let image = program.build().unwrap();
        verify_then_run(name, &image, 1);
    }
}

#[test]
fn the_statically_rejected_hang_does_deadlock_dynamically() {
    let source = std::fs::read_to_string(repo("examples/asm/hung.s")).unwrap();
    let image = lbp_asm::assemble(&source).unwrap();
    // Static verdict: rejected, with the B001 wait-reason.
    let diags = verify_image(&image);
    assert!(!accepted(&diags));
    assert_eq!(diags[0].code.as_str(), "LBP-B001");
    // Dynamic verdict: the simulator's detector agrees it blocks on the
    // result line.
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    match m.run(1_000_000) {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert!(
                blocked.iter().any(|b| b.waiting_on.contains("p_swre")),
                "dynamic wait-reason agrees with the static one: {blocked:?}"
            );
        }
        other => panic!("hung.s must deadlock dynamically, got {other:?}"),
    }
}
