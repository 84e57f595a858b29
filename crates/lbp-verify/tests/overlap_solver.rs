//! The shared overlap solver against a brute-force reference.
//!
//! `lbp_verify::affine::overlap_pair` answers, for the binary M-pass and
//! the source lint alike, whether two different team members can touch
//! the same units. The reference below is the pair search the source
//! lint ran before it shared the solver, widened from element points to
//! interval offsets and access sizes: every member pair, one by one.
//! Strides in [-8, 8] (equal and unequal), sizes 1 and 4, widths up to 8
//! and member ranges up to 16.

use lbp_testutil::{check_cases, Rng};
use lbp_verify::affine::{overlap_pair, Aff, Footprint, PAIR_BUDGET};

/// The units member `t` touches: `[start, end)`.
fn span(at: &Footprint, t: i64) -> (i64, i64) {
    (at.start(t), at.addr.hi + at.addr.a * t + at.size)
}

fn meet(x: &Footprint, t1: i64, y: &Footprint, t2: i64) -> bool {
    let ((sx, ex), (sy, ey)) = (span(x, t1), span(y, t2));
    sx < ey && sy < ex
}

/// Every member pair `t1 ≠ t2`, one by one.
fn collide(x: &Footprint, y: &Footprint) -> Option<(i64, i64)> {
    for t1 in x.tlo..=x.thi {
        for t2 in y.tlo..=y.thi {
            if t1 != t2 && meet(x, t1, y, t2) {
                return Some((t1, t2));
            }
        }
    }
    None
}

fn footprint(rng: &mut Rng, a: i64) -> Footprint {
    let lo = rng.range_i64(-40, 40);
    let width = if rng.flip() { 0 } else { rng.range_i64(0, 8) };
    let tlo = rng.range_i64(0, 15);
    Footprint {
        addr: Aff {
            a,
            lo,
            hi: lo + width,
        },
        size: rng.pick(&[1, 4]),
        tlo,
        thi: rng.range_i64(tlo, 15),
    }
}

#[test]
fn the_solver_finds_a_pair_exactly_when_brute_force_does() {
    let mut found = [0u32; 2];
    check_cases(40_000, 0x5eed_0a11, |rng, case| {
        let ax = rng.range_i64(-8, 8);
        let ay = if rng.flip() { ax } else { rng.range_i64(-8, 8) };
        let x = footprint(rng, ax);
        let y = if rng.weighted(&[1, 7]) == 0 {
            x
        } else {
            footprint(rng, ay)
        };
        let mut budget = PAIR_BUDGET;
        let got = overlap_pair(&x, &y, &mut budget);
        let want = collide(&x, &y);
        assert_eq!(got.is_some(), want.is_some(), "case {case}: {x:?} {y:?}");
        if let Some((t1, t2)) = got {
            assert_ne!(t1, t2, "case {case}");
            assert!((x.tlo..=x.thi).contains(&t1), "case {case}: t1 = {t1}");
            assert!((y.tlo..=y.thi).contains(&t2), "case {case}: t2 = {t2}");
            assert!(
                meet(&x, t1, &y, t2),
                "case {case}: {x:?} {y:?} ({t1}, {t2})"
            );
        }
        found[usize::from(got.is_some())] += 1;
    });
    // Both answers are well represented.
    assert!(found.iter().all(|&n| n > 5_000), "{found:?}");
}
