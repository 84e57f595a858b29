//! The three determinism judges agree on what a conflicting program is.
//!
//! - lbp-sema's interpreter traps `conflict` at a region's join when two
//!   team members overlap on a shared word (write/write or read/write);
//! - the verifier's M-pass rejects an image whose members provably
//!   overlap (`LBP-M001` overlapping writes, `LBP-M002` a racing read);
//! - the race witness reports overlaps it observes on the machine.
//!
//! Over the shipped mini-C sources and 200 generated programs this holds
//! two implications: an M001/M002 rejection means a sema conflict, and a
//! sema conflict means at least one race witness when the image runs.
//! The M-pass is also sound the other way on this corpus: every conflict
//! it meets is one it rejects.
//!
//! Named precision boundaries, where the judges stay silent by design:
//! - *Unknown provenance (M004).* `race_opaque.c` and `race_pointer.c`
//!   are accepted with a warning: the M-pass cannot prove their members
//!   disjoint, and at run time they are.
//! - *Frame arrays through a pointer.* A frame array lives in its
//!   frame's private storage, outside the shared store: a member that
//!   writes one of `main`'s arrays through a pointer held in a global is
//!   neither tracked by the join (sema), nor seen on shared memory (the
//!   witness), nor provable (the M-pass warns M004).

use std::collections::BTreeSet;

// Only the directory reader is used here.
#[allow(dead_code)]
mod identity_corpus;

use identity_corpus::dir;
use lbp::cc::sema::Checked;
use lbp::sema::diff::required_cores;
use lbp::sema::{interp, InterpOptions, Layout, Trap};
use lbp::sim::{LbpConfig, Machine};
use lbp::verify::{verify_image, DiagCode};
use lbp_fuzz::gen::{self, GenConfig, Kind};
use lbp_testutil::Rng;

/// The corpus: shipped examples, the verifier's C fixtures, the sabotage
/// witness and 200 generated programs at seed 42.
fn corpus() -> Vec<(String, String)> {
    let mut programs = dir("examples/c", ".c");
    programs.extend(dir("crates/lbp-verify/tests/fixtures", ".c"));
    programs.extend(dir("tests/fixtures", ".c"));
    let cfg = GenConfig {
        kinds: vec![Kind::C],
        ..GenConfig::default()
    };
    for case in 0..200 {
        let mut rng = Rng::new(lbp_fuzz::case_seed(42, case));
        let program = gen::generate(&mut rng, &cfg, case);
        programs.push((format!("c/{case}"), program.render()));
    }
    programs
}

/// The sema verdict on an image's layout: the conflict trap, if any.
fn conflict(cx: &Checked, image: &lbp::asm::Image) -> Option<Trap> {
    let layout = Layout::from_image(cx, image);
    interp::run(cx, &layout, &InterpOptions::default())
        .err()
        .filter(|t| t.class == "conflict")
}

#[test]
fn the_three_determinism_judges_agree_on_conflicts() {
    let mut conflicting = BTreeSet::new();
    let mut judged = 0;
    for (name, source) in corpus() {
        // `bad_sema.c` is refused by the front end: no judge sees it.
        let Ok(cx) = lbp::cc::front_end(&source) else {
            continue;
        };
        let image = lbp::cc::compile_checked(&cx, &Default::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .image;
        judged += 1;
        let rejected = verify_image(&image)
            .iter()
            .any(|d| matches!(d.code, DiagCode::MOverlappingWrite | DiagCode::MRacingRead));
        let trap = conflict(&cx, &image);
        assert!(
            !rejected || trap.is_some(),
            "{name}: the M-pass rejects it, sema finds no conflict"
        );
        assert!(
            rejected || trap.is_none(),
            "{name}: sema conflict the M-pass accepts ({trap:?})"
        );
        let Some(trap) = trap else { continue };
        let mut m = Machine::new(LbpConfig::cores(required_cores(&cx)), &image)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        m.enable_race_witness();
        m.run(10_000_000).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            !m.race_witnesses().is_empty(),
            "{name}: sema conflict ({trap}) but no race witness"
        );
        conflicting.insert(name);
    }
    assert_eq!(judged, 4 + 5 + 1 + 200);
    // `race_const_index.c` and `race_carried.c` are the mini-C twins of
    // the verifier's `m_overlap_write.s` (M001) and `m_racing_read.s`
    // (M002).
    assert_eq!(
        conflicting,
        BTreeSet::from(["race_carried.c", "race_const_index.c", "race_scalar.c"].map(String::from))
    );
}

#[test]
fn members_disjoint_at_run_time_do_not_conflict() {
    for name in ["race_opaque.c", "race_pointer.c"] {
        let source = dir("crates/lbp-verify/tests/fixtures", ".c")
            .into_iter()
            .find(|(n, _)| n == name)
            .expect("fixture")
            .1;
        let cx = lbp::cc::front_end(&source).unwrap();
        let image = lbp::cc::compile(&source).unwrap().image;
        let codes: BTreeSet<&str> = verify_image(&image)
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        assert_eq!(codes, BTreeSet::from(["LBP-M004"]), "{name}");
        assert!(conflict(&cx, &image).is_none(), "{name}");
    }
}

/// The frame-array boundary: members store the team index into one word
/// of `main`'s frame array through a global pointer. Sema keeps frame
/// arrays out of the join, so the last member to run wins; the M-pass
/// only warns, and the witness watches shared memory only.
#[test]
fn a_frame_array_reached_through_a_pointer_is_outside_the_join() {
    let source = "int p;\nint r[4];\nvoid main(void) {\n    int t;\n    int buf[4];\n    buf[0] = 0;\n    p = buf;\n#pragma omp parallel for\n    for (t = 0; t < 4; t++) *p = t;\n    r[0] = buf[0];\n}\n";
    let cx = lbp::cc::front_end(source).unwrap();
    let image = lbp::cc::compile(source).unwrap().image;
    let codes: BTreeSet<&str> = verify_image(&image)
        .iter()
        .map(|d| d.code.as_str())
        .collect();
    assert_eq!(codes, BTreeSet::from(["LBP-M004"]));
    let outcome = interp::run(&cx, &Layout::from_image(&cx, &image), &Default::default())
        .expect("no conflict is found");
    assert_eq!(outcome.global("r"), Some(&[3, 0, 0, 0][..]));
    let mut m = Machine::new(LbpConfig::cores(1), &image).unwrap();
    m.enable_race_witness();
    m.run(10_000_000).unwrap();
    assert!(m.race_witnesses().is_empty());
}
