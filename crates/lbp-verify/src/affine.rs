//! The one affine-overlap solver both determinism layers share.
//!
//! A member's access is a [`Footprint`]: `size` units from `a·t + v`,
//! `v ∈ [lo, hi]`, for each member index `t ∈ [tlo, thi]`. The M-pass
//! counts bytes of the shared region, the source lint (`lbp_cc::lint`)
//! elements of one named object (a scalar is element 0). [`overlap_pair`]
//! asks what a fork–join interval poses: do two *different* members'
//! footprints meet? [`Aff`] arithmetic keeps every part within
//! [`MAG_LIMIT`], so products with a member index stay inside `i64`.

/// Coefficient/offset magnitude beyond which a value is not an [`Aff`].
pub const MAG_LIMIT: i64 = 1 << 33;

/// Member-pair evaluations one parallel region (or epoch) may spend in
/// [`overlap_pair`] before the rest of its pairs go unchecked.
pub const PAIR_BUDGET: usize = 2_000_000;

/// An affine value `a·t + v` for some `v ∈ [lo, hi]`, `t` the member
/// index. `a = 0, lo = hi` is a constant; `lo < hi` an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aff {
    /// Stride per member.
    pub a: i64,
    /// Least offset.
    pub lo: i64,
    /// Greatest offset.
    pub hi: i64,
}

impl Aff {
    /// The constant `v`.
    pub const fn point(v: i64) -> Aff {
        Aff { a: 0, lo: v, hi: v }
    }

    /// A constant: no stride and one offset.
    pub fn is_point(self) -> bool {
        self.a == 0 && self.lo == self.hi
    }

    /// One offset (a stride is allowed).
    pub fn is_exact(self) -> bool {
        self.lo == self.hi
    }

    /// `self`, unless a part runs past [`MAG_LIMIT`].
    pub fn bounded(self) -> Option<Aff> {
        let limit = MAG_LIMIT.unsigned_abs();
        let within = |v: i64| v.unsigned_abs() <= limit;
        (within(self.a) && within(self.lo) && within(self.hi)).then_some(self)
    }

    /// `self + other`.
    pub fn checked_add(self, other: Aff) -> Option<Aff> {
        checked(
            self.a.checked_add(other.a),
            self.lo.checked_add(other.lo),
            self.hi.checked_add(other.hi),
        )
    }

    /// `self - other`.
    pub fn checked_sub(self, other: Aff) -> Option<Aff> {
        checked(
            self.a.checked_sub(other.a),
            self.lo.checked_sub(other.hi),
            self.hi.checked_sub(other.lo),
        )
    }

    /// `self · k`.
    pub fn scale(self, k: i64) -> Option<Aff> {
        let (lo, hi) = if k >= 0 {
            (self.lo, self.hi)
        } else {
            (self.hi, self.lo)
        };
        checked(self.a.checked_mul(k), lo.checked_mul(k), hi.checked_mul(k))
    }
}

/// The affine form with these parts, `None` if computing any of them
/// overflowed (`slli`/`mul` chains reach 2^64 in two steps) or ran past
/// [`MAG_LIMIT`].
fn checked(a: Option<i64>, lo: Option<i64>, hi: Option<i64>) -> Option<Aff> {
    let (a, lo, hi) = (a?, lo?, hi?);
    Aff { a, lo, hi }.bounded()
}

/// What one access covers for each member of its range: the units
/// `[addr.lo + addr.a·t, addr.hi + addr.a·t + size)`, `t ∈ [tlo, thi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Where the access starts.
    pub addr: Aff,
    /// Units it covers from there.
    pub size: i64,
    /// Least member index that executes it.
    pub tlo: i64,
    /// Greatest member index that executes it.
    pub thi: i64,
}

impl Footprint {
    /// The first unit member `t` touches.
    pub fn start(&self, t: i64) -> i64 {
        self.addr.lo + self.addr.a * t
    }
}

/// Finds a member pair `t1 ≠ t2`, `t1` running `x` and `t2` running `y`,
/// whose footprints can overlap. Each pair it evaluates costs one unit of
/// `budget`; it returns `None` with the budget at 0 when the budget ran
/// out before it could answer.
pub fn overlap_pair(x: &Footprint, y: &Footprint, budget: &mut usize) -> Option<(i64, i64)> {
    let wx = x.addr.hi - x.addr.lo + x.size;
    let wy = y.addr.hi - y.addr.lo + y.size;
    let hit = |t1: i64, t2: i64| {
        let sx = x.addr.lo + x.addr.a * t1;
        let sy = y.addr.lo + y.addr.a * t2;
        sx < sy + wy && sy < sx + wx
    };
    if x.addr.a == y.addr.a {
        // Equal strides: overlap depends only on the member distance
        // `d = t1 - t2`, so one representative pair per distance.
        let dmin = x.tlo - y.thi;
        let dmax = x.thi - y.tlo;
        for d in dmin..=dmax {
            if d == 0 {
                continue;
            }
            let t2 = y.tlo.max(x.tlo - d);
            if t2 > y.thi || t2 + d > x.thi {
                continue;
            }
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            if hit(t2 + d, t2) {
                return Some((t2 + d, t2));
            }
        }
        return None;
    }
    for t1 in x.tlo..=x.thi {
        for t2 in y.tlo..=y.thi {
            if t1 == t2 {
                continue;
            }
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            if hit(t1, t2) {
                return Some((t1, t2));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(a: i64, lo: i64, hi: i64, size: i64, thi: i64) -> Footprint {
        Footprint {
            addr: Aff { a, lo, hi },
            size,
            tlo: 0,
            thi,
        }
    }

    fn aff(a: i64, lo: i64, hi: i64) -> Option<Aff> {
        Some(Aff { a, lo, hi })
    }

    #[test]
    fn affine_arithmetic() {
        let t4 = Aff { a: 4, lo: 0, hi: 0 };
        assert_eq!(t4.checked_add(Aff::point(16)), aff(4, 16, 16));
        assert_eq!(t4.scale(8), aff(32, 0, 0));
        assert_eq!(t4.checked_sub(t4), aff(0, 0, 0));
        let span = Aff { a: 0, lo: 2, hi: 6 };
        assert_eq!(span.scale(-1), aff(0, -6, -2));
        assert_eq!(span.checked_sub(span), aff(0, -4, 4));
        // Magnitude clamp, and overflow, are not affine values.
        assert_eq!(Aff::point(1 << 33).scale(1 << 10), None);
        assert_eq!(Aff::point(i64::MIN).bounded(), None);
        assert_eq!(Aff::point(i64::MAX).checked_add(Aff::point(1)), None);
    }

    #[test]
    fn overlap_disjoint_strides() {
        // sw to base + 16t, 4 bytes, team of 4: provably disjoint.
        let w = at(16, 0x8000_0000, 0x8000_0000, 4, 3);
        let mut budget = 1000;
        assert_eq!(overlap_pair(&w, &w, &mut budget), None);
        // A footprint wider than the stride makes t and t+1 collide.
        let wide = Footprint { size: 20, ..w };
        assert!(overlap_pair(&wide, &wide, &mut budget).is_some());
    }

    #[test]
    fn overlap_const_vs_stride() {
        // Member-strided writes at 0x80000000 + 8t (4 bytes) vs a fixed
        // read at 0x80000010: only member t=2 touches it.
        let w = at(8, 0x8000_0000, 0x8000_0000, 4, 7);
        let r = at(0, 0x8000_0010, 0x8000_0010, 4, 7);
        let mut budget = 1000;
        let (t1, t2) = overlap_pair(&w, &r, &mut budget).unwrap();
        assert_eq!(t1, 2);
        assert_ne!(t1, t2);
    }

    #[test]
    fn an_exhausted_budget_answers_nothing() {
        let shared = at(0, 0, 0, 1, 3);
        let mut budget = 0;
        assert_eq!(overlap_pair(&shared, &shared, &mut budget), None);
        let mut budget = 1;
        assert_eq!(overlap_pair(&shared, &shared, &mut budget), Some((0, 3)));
        assert_eq!(budget, 0);
    }
}
