//! The three determinism judges agree on what a conflicting program is.
//!
//! A conflict is two members of one team that overlap on a shared word
//! between fork and join, one of them writing (*Deterministic
//! Consistency*). Each judge looks for it in its own place:
//!
//! - lbp-sema's interpreter traps `conflict` at a region's join;
//! - the verifier's M-pass rejects an image whose members provably
//!   overlap (`LBP-M001` overlapping writes, `LBP-M002` a racing read);
//! - the race witness runs lbp-sema's join check on the team the
//!   hardware forks, and reports at the join.
//!
//! Over the shipped mini-C sources, the verifier's C fixtures,
//! `tests/fixtures` and 200 generated programs this is an equivalence:
//! an M001/M002 rejection ⇔ a sema conflict ⇔ a witness naming the same
//! word, member pair and kind in the same words.
//!
//! Named precision boundaries, where the judges part by design:
//! - *Unknown provenance (M004).* `race_opaque.c` and `race_pointer.c`
//!   are accepted with a warning: the M-pass cannot prove their members
//!   disjoint, and at run time they are.
//! - *Frame arrays through a pointer.* A frame array lives in its
//!   frame's private storage, outside the shared store: a member that
//!   writes one of `main`'s arrays through a pointer held in a global is
//!   neither tracked by the join (sema), nor seen on shared memory (the
//!   witness), nor provable (the M-pass warns M004).
//! - *Words, not bytes.* Mini-C has only words; in assembly, members that
//!   store disjoint bytes of one word conflict on that word for the
//!   witness, as they would for lbp-sema's word store.

use std::collections::BTreeSet;

// Only the directory reader and the generator are used here.
#[allow(dead_code)]
mod identity_corpus;

use identity_corpus::{dir, generated_n};
use lbp::cc::sema::Checked;
use lbp::omp::{emit_parallel_region, TeamBody};
use lbp::sema::diff::required_cores;
use lbp::sema::{interp, InterpOptions, Layout, Trap};
use lbp::sim::{LbpConfig, Machine, Overlap, RaceWitness};
use lbp::verify::{verify_image, DiagCode};
use lbp_fuzz::gen::Kind;

/// The corpus: shipped examples, the verifier's C fixtures, the sabotage
/// witness and 200 generated programs at seed 42.
fn corpus() -> Vec<(String, String)> {
    let mut programs = dir("examples/c", ".c");
    programs.extend(dir("crates/lbp-verify/tests/fixtures", ".c"));
    programs.extend(dir("tests/fixtures", ".c"));
    programs.extend(generated_n(Kind::C, 200));
    programs
}

/// The sema verdict on an image's layout: the conflict trap, if any.
fn conflict(cx: &Checked, layout: &Layout) -> Option<Trap> {
    interp::run(cx, layout, &InterpOptions::default())
        .err()
        .filter(|t| t.class == "conflict")
}

/// The witnesses of a run of `image` on the cores the program asks for.
fn witnesses(cores: usize, image: &lbp::asm::Image) -> Vec<RaceWitness> {
    let mut m = Machine::new(LbpConfig::cores(cores), image).unwrap();
    m.enable_race_witness();
    m.run(10_000_000).unwrap();
    m.race_witnesses().to_vec()
}

/// A witness in lbp-sema's words: the word by its global's name.
fn in_sema_words(cx: &Checked, layout: &Layout, w: &RaceWitness) -> String {
    let (gi, elem) = layout
        .resolve(w.addr)
        .expect("a witness word is a global's");
    let on = format!("`{}[{elem}]`", cx.unit.globals[gi].name);
    w.overlap.message(on, |m| m.to_string())
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
        let layout = Layout::from_image(&cx, &image);
        let trap = conflict(&cx, &layout);
        assert_eq!(
            rejected,
            trap.is_some(),
            "{name}: M-pass rejects: {rejected}, sema: {trap:?}"
        );
        let witnessed = witnesses(required_cores(&cx), &image);
        let witnessed = witnessed.first().map(|w| in_sema_words(&cx, &layout, w));
        assert_eq!(
            witnessed.as_deref(),
            trap.as_ref().map(|t| t.message.as_str()),
            "{name}: the witness and sema disagree"
        );
        if trap.is_some() {
            conflicting.insert(name);
        }
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
        assert!(
            conflict(&cx, &Layout::from_image(&cx, &image)).is_none(),
            "{name}"
        );
        assert!(witnesses(required_cores(&cx), &image).is_empty(), "{name}");
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
    assert!(witnesses(1, &image).is_empty());
}

/// The word boundary: a team of four whose member `i` stores one byte at
/// `out + i`. No byte is stored twice, but every member writes the one
/// word `out[0]`, so the witness reports the lowest pair, members 0 and
/// 1, as lbp-sema would on its word store.
#[test]
fn members_storing_disjoint_bytes_of_one_word_conflict_on_the_word() {
    let mut region = lbp::asm::Asm::new();
    let body = TeamBody::Uniform {
        function: "byte".to_owned(),
    };
    emit_parallel_region(&mut region, 4, &body, None);
    let source = format!(
        "main:
    li t0, -1
    addi sp, sp, -8
    sw ra, 0(sp)
    sw t0, 4(sp)
{}    lw ra, 0(sp)
    lw t0, 4(sp)
    addi sp, sp, 8
    p_ret
byte:
    la a2, out
    add a2, a2, a0
    sb a0, 0(a2)
    p_ret
.data
.align 4
out: .space 4
",
        region.text()
    );
    let image = lbp::asm::assemble(&source).unwrap();
    let found = witnesses(1, &image);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].overlap, Overlap::Writes(0, 1));
    assert_eq!(found[0].addr, image.symbol("out").unwrap());
}
