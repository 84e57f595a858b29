//! Property test for graceful cancellation: a run cancelled
//! cooperatively at *any* cycle boundary, snapshotted through the
//! `lbp-snap` container, and resumed in a fresh machine must be
//! bit-identical to the uninterrupted run — same report, same final
//! state bytes. This is the invariant the crash-recoverable batch
//! service leans on: a worker killed or cancelled mid-job loses wall
//! time, never determinism.
//!
//! Seeded trials vary both the cooperative slice width and the poll at
//! which cancellation fires, so cut points land on many different cycle
//! boundaries. Set `LBP_CANCEL_SEED` to replay a particular sequence.

use lbp::sim::{Machine, RunPause};
use lbp::snap;
use lbp_testutil::{harness, Rng};

mod outcome;

use outcome::{finish, Outcome};

const MAX_CYCLES: u64 = 2_000_000;

/// Cancels a fresh run after `polls` cooperative polls of width `slice`,
/// round-trips the snapshot through encode/decode, resumes, and returns
/// the resumed outcome. `None` if the program finished before the cut.
fn cancel_and_resume(
    image: &lbp::asm::Image,
    cores: usize,
    slice: u64,
    polls: u64,
) -> Option<Outcome> {
    let mut seen = 0u64;
    let mut prefix = harness::machine_from_image(image, cores);
    let pause = prefix
        .run_cooperative(MAX_CYCLES, slice, |_| {
            seen += 1;
            seen < polls
        })
        .expect("cooperative run failed before the cut");
    match pause {
        RunPause::Cancelled => {}
        RunPause::Exited | RunPause::Target => return None,
    }
    let cut = prefix.stats().cycles;
    assert!(cut > 0, "cancellation must land on a real cycle boundary");

    let bytes = snap::encode(&prefix.snapshot());
    let state = snap::decode(&bytes).unwrap_or_else(|e| panic!("snapshot at cycle {cut}: {e}"));
    let mut resumed = Machine::restore(&state).unwrap();
    assert_eq!(resumed.stats().cycles, cut, "resume must start at the cut");
    let outcome = resumed.run(MAX_CYCLES);
    Some(finish(&mut resumed, outcome))
}

fn check_program(name: &str, image: &lbp::asm::Image, cores: usize, rng: &mut Rng) {
    let mut full = harness::machine_from_image(image, cores);
    let outcome = full.run(MAX_CYCLES);
    let total = full.stats().cycles;
    let reference = finish(&mut full, outcome);

    let mut cancelled = 0;
    for trial in 0..24 {
        let slice = 1 + rng.below(total.max(2) / 2);
        let polls = 1 + rng.below((total / slice).max(1) + 1);
        let Some(replay) = cancel_and_resume(image, cores, slice, polls) else {
            continue; // the cut fell past the program's natural end
        };
        cancelled += 1;
        assert_eq!(
            reference, replay,
            "{name}: trial {trial} (slice {slice}, cancel at poll {polls}) \
             diverged from the uninterrupted run"
        );
    }
    assert!(
        cancelled >= 8,
        "{name}: only {cancelled}/24 trials actually cancelled; the \
         sampler is not exercising the property"
    );
}

#[test]
fn cancelled_then_resumed_runs_are_bit_identical() {
    let seed = std::env::var("LBP_CANCEL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xcafe);
    let mut rng = Rng::new(seed);
    for name in ["mul.s", "fork2.s"] {
        let path = format!("{}/examples/asm/{name}", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).unwrap();
        let image = lbp::asm::assemble(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_program(name, &image, 4, &mut rng);
    }
    let source = format!("{}/examples/c/reduce.c", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&source).unwrap();
    let compiled = lbp::cc::compile(&source).unwrap();
    check_program("reduce.c", &compiled.image, 4, &mut rng);
}

#[test]
fn back_to_back_cancellations_compose() {
    // Cancel, resume, cancel the resumed run, resume again — two cuts
    // in one lineage must still land on the uninterrupted outcome.
    let path = format!("{}/examples/asm/mul.s", env!("CARGO_MANIFEST_DIR"));
    let image = lbp::asm::assemble(&std::fs::read_to_string(&path).unwrap()).unwrap();

    let mut full = harness::machine_from_image(&image, 4);
    let outcome = full.run(MAX_CYCLES);
    let total = full.stats().cycles;
    assert!(total > 12, "program too short for two cuts");
    let reference = finish(&mut full, outcome);

    let mut machine = harness::machine_from_image(&image, 4);
    for cut in [total / 4, total / 2] {
        let pause = machine
            .run_cooperative(MAX_CYCLES, cut - machine.stats().cycles, |_| false)
            .unwrap();
        assert_eq!(pause, RunPause::Cancelled);
        let bytes = snap::encode(&machine.snapshot());
        machine = Machine::restore(&snap::decode(&bytes).unwrap()).unwrap();
        assert_eq!(machine.stats().cycles, cut);
    }
    let outcome = machine.run(MAX_CYCLES);
    assert_eq!(reference, finish(&mut machine, outcome));
}
