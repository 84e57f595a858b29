//! Generator-validity property: every generated program assembles (or
//! compiles), is either accepted by the static verifier or rejected
//! with a classified diagnostic code, and never panics the simulator —
//! across every program family and many seeds.

use std::panic::{self, AssertUnwindSafe};

use lbp_fuzz::gen::{generate, GenConfig, Kind};
use lbp_fuzz::oracle;
use lbp_sim::{LbpConfig, Machine};
use lbp_testutil::check_cases;
use lbp_verify::Severity;

const CASES: u64 = 48;

#[test]
fn generated_programs_build_verify_and_never_panic() {
    let cfg = GenConfig::default();
    check_cases(CASES, 0x1bf0_55ed, |rng, case| {
        let program = generate(rng, &cfg, case);
        let src = program.render();

        // 1. The front end accepts the program.
        let image = if program.is_c() {
            lbp_cc::compile(&src)
                .unwrap_or_else(|e| panic!("case {case}: generated C rejected: {e}\n---\n{src}"))
                .image
        } else {
            lbp_asm::assemble(&src)
                .unwrap_or_else(|e| panic!("case {case}: generated asm rejected: {e}\n---\n{src}"))
        };

        // 2. The verifier either accepts or rejects with a classified
        //    stable code (`LBP-B*`); it never crashes and never emits
        //    an unclassified error.
        let diags = lbp_verify::verify_image(&image);
        for d in diags.iter().filter(|d| d.severity == Severity::Error) {
            let code = d.code.as_str();
            assert!(
                code.starts_with("LBP-B") || code.starts_with("LBP-C") || code.starts_with("LBP-S"),
                "case {case}: unclassified rejection {code}: {}",
                d.message
            );
        }

        // 3. The simulator never panics on the program, whatever its
        //    verdict was — errors must surface as classified SimErrors.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut m = Machine::new(LbpConfig::cores(program.cores), &image)
                .unwrap_or_else(|e| panic!("machine rejected generated image: {e}"));
            match m.run_diagnosed(program.max_cycles) {
                Ok(report) => assert!(report.exited, "in-budget completion reports exited"),
                Err(fail) => {
                    // A classified failure is an acceptable outcome for
                    // this property (the oracle battery, not this test,
                    // decides whether it is a bug).
                    let _ = fail.error.class();
                }
            }
        }));
        assert!(ran.is_ok(), "case {case}: simulator panicked\n---\n{src}");
    });
}

/// The full battery agrees with the standalone property: a clean sweep
/// over each kind individually (catches a family broken only when it
/// is not interleaved with the others).
#[test]
fn each_family_sweeps_clean_through_the_battery() {
    for kind in Kind::ALL {
        let cfg = GenConfig {
            kinds: vec![kind],
            ..GenConfig::default()
        };
        check_cases(6, 0xface ^ kind.name().len() as u64, |rng, case| {
            let program = generate(rng, &cfg, case);
            match oracle::check(&program) {
                Ok(report) => assert!(
                    report.lockstep_commits > 0,
                    "kind {} case {case}: no commit was lockstep-checked",
                    kind.name()
                ),
                Err(f) => panic!(
                    "kind {} case {case}: oracle {} tripped ({}): {}\n---\n{}",
                    kind.name(),
                    f.oracle,
                    f.class,
                    f.detail,
                    program.render()
                ),
            }
        });
    }
}
