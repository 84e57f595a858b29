//! Every green program in the repository must verify clean: the binary
//! protocol analysis may not reject (or even error on) any example,
//! compiled C program, or paper kernel that runs correctly.

use lbp_kernels::matmul::{Matmul, Version};
use lbp_kernels::sensor::SensorApp;
use lbp_kernels::simple::{self, VectorParams};
use lbp_verify::{accepted, verify_image, Severity};

use crate::repo;

fn assert_clean(name: &str, image: &lbp_asm::Image) {
    let diags = verify_image(image);
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        accepted(&diags),
        "{name} must verify clean but got:\n{}",
        errors.join("\n")
    );
}

#[test]
fn green_asm_examples_verify_clean() {
    for file in ["examples/asm/mul.s", "examples/asm/fork2.s"] {
        let source = std::fs::read_to_string(repo(file)).unwrap();
        let image = lbp_asm::assemble(&source).unwrap();
        assert_clean(file, &image);
    }
}

#[test]
fn compiled_c_examples_verify_clean() {
    for file in [
        "examples/c/hello_team.c",
        "examples/c/matmul.c",
        "examples/c/reduce.c",
        "examples/c/set_get.c",
    ] {
        let source = std::fs::read_to_string(repo(file)).unwrap();
        let compiled = lbp_cc::compile(&source).unwrap();
        assert_clean(file, &compiled.image);
    }
}

#[test]
fn matmul_kernels_verify_clean() {
    for version in [
        Version::Base,
        Version::Copy,
        Version::Distributed,
        Version::DistributedCopy,
        Version::Tiled,
    ] {
        let mm = Matmul::new(16, version);
        let image = mm.build();
        assert_clean(version.name(), &image);
    }
}

#[test]
fn simple_kernels_verify_clean() {
    let p = VectorParams::new(4, 32);
    let programs = [
        ("set_get", simple::set_get_program(p, 3)),
        ("stencil", simple::stencil_program(p)),
        ("dot_product", simple::dot_product_program(p)),
        ("prefix_sum", simple::prefix_sum_program(p)),
        ("histogram", simple::histogram_program(p)),
        ("odd_even_sort", simple::odd_even_sort_program(4, 7)),
    ];
    for (name, program) in programs {
        let image = program.build().unwrap();
        assert_clean(name, &image);
    }
}

#[test]
fn sensor_app_verifies_clean() {
    let app = SensorApp::new(3);
    let image = app.program().build().unwrap();
    assert_clean("sensor", &image);
}
