//! # lbp-sema — executable semantics for Deterministic OpenMP mini-C
//!
//! A small-step reference interpreter over lbp-cc's typed AST, defining
//! what a mini-C + Deterministic OpenMP program *means* independently of
//! the code generator and the simulator. The abstract machine:
//!
//! - **Per-member environments.** Each team member runs in its own frame
//!   (register locals, private stack arrays), exactly the isolation the
//!   hardware gives a hart.
//! - **Deterministic-consistency visibility.** Inside a parallel region
//!   a member reads the shared store as it was at region entry, plus its
//!   *own* buffered writes. Nothing a sibling writes is ever visible.
//! - **Join in member-index order.** At the region join the members'
//!   write buffers are folded into the shared store in ascending member
//!   index, so overlapping writes resolve to the highest-indexed writer
//!   — the paper's ordered-commit rule, and the reason the outcome is a
//!   function of the program alone, not of any schedule.
//!
//! The interpreter actually *interleaves* member execution (round-robin
//! by default, or driven by a seeded PRNG) to demonstrate that under DC
//! visibility the observable outcome is schedule-independent.
//!
//! The observable outcome — final shared store plus the ordered effect
//! trace — renders to a canonical text form and content-hashes like a
//! simulator report, so "same behavior" is one `u64` comparison.
//! [`diff::diff`] takes a checked unit and the image lbp-cc compiled from
//! it, runs the image on lbp-sim and demands the two observables agree,
//! word for word.
//!
//! # Examples
//!
//! ```
//! let source = r#"
//! int v[4];
//! void main(void) {
//!     int t;
//! #pragma omp parallel for
//!     for (t = 0; t < 4; t++) v[t] = t * t;
//! }
//! "#;
//! let checked = lbp_cc::front_end(source)?;
//! let layout = lbp_sema::Layout::synthetic(&checked);
//! let out = lbp_sema::interp::run(&checked, &layout, &Default::default())?;
//! assert_eq!(out.global("v"), Some(&[0, 1, 4, 9][..]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use lbp_cc::sema::Checked;

pub mod diff;
pub mod interp;

pub use interp::{InterpOptions, Schedule};

/// An externally visible event, recorded in program order. Member
/// effects are buffered like member stores and appended at the join in
/// member-index order — the effect trace is part of the deterministic
/// outcome, not a schedule artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// `omp_set_num_threads(n)` was called (accepted for source
    /// compatibility; team sizes come from each region's trip count).
    SetNumThreads(i32),
    /// The `__roi_start()` marker.
    RoiStart,
    /// The `__roi_end()` marker.
    RoiEnd,
    /// A parallel region forked a team of `team` members.
    Fork {
        /// Requested team size (the region's trip/section count).
        team: u32,
    },
    /// The matching join: all member buffers folded into the store.
    Join {
        /// Team size, mirroring the fork.
        team: u32,
    },
    /// The program exited cleanly.
    Exit,
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::SetNumThreads(n) => write!(f, "set_num_threads {n}"),
            Effect::RoiStart => write!(f, "roi_start"),
            Effect::RoiEnd => write!(f, "roi_end"),
            Effect::Fork { team } => write!(f, "fork team={team}"),
            Effect::Join { team } => write!(f, "join team={team}"),
            Effect::Exit => write!(f, "exit"),
        }
    }
}

/// The canonical observable outcome of a program: the final shared
/// store (every global, in declaration order) and the ordered effect
/// trace. Two runs are "the same" iff their outcomes render (and hence
/// hash) identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Final value of every global, in declaration order.
    pub globals: Vec<(String, Vec<i32>)>,
    /// Effects in program order.
    pub effects: Vec<Effect>,
}

impl Outcome {
    /// The final words of one global, by name.
    pub fn global(&self, name: &str) -> Option<&[i32]> {
        self.globals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Renders the outcome in the canonical `lbp-sema-outcome-v1` text
    /// form (the hash pre-image).
    pub fn render(&self) -> String {
        let mut s = String::from("lbp-sema-outcome-v1\n");
        for (name, words) in &self.globals {
            s.push_str(&format!("global {name}[{}] =", words.len()));
            for w in words {
                s.push_str(&format!(" {w}"));
            }
            s.push('\n');
        }
        for e in &self.effects {
            s.push_str(&format!("effect {e}\n"));
        }
        s
    }

    /// Content hash of the rendered outcome (FNV-1a 64, the same hash
    /// the snapshot/report tooling uses).
    pub fn content_hash(&self) -> u64 {
        lbp_sim::fnv1a64(self.render().as_bytes())
    }
}

/// A semantic trap: the program performed an operation the semantics
/// leaves undefined (wild address, uninitialized read, ...) or blew an
/// interpreter resource bound. The compiled binary may happen to *do*
/// something on the machine; the spec refuses to assign it a meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trap {
    /// Stable machine-readable class (`uninit`, `wild-address`,
    /// `misaligned`, `oob`, `budget`, `depth`, `missing-return`,
    /// `no-main`).
    pub class: &'static str,
    /// 1-based source line of the trapping statement.
    pub line: usize,
    /// Human description.
    pub message: String,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "semantic trap at line {}: {} [{}]",
            self.line, self.message, self.class
        )
    }
}

impl std::error::Error for Trap {}

/// Where each global lives in the 32-bit address space. Taking the
/// layout from an assembled [`lbp_asm::Image`] makes interpreter
/// addresses coincide bit-for-bit with the machine's, so address
/// arithmetic (cross-global pointers included) behaves identically on
/// both sides of the differential harness.
#[derive(Debug, Clone)]
pub struct Layout {
    regions: Vec<LayoutRegion>,
}

#[derive(Debug, Clone)]
struct LayoutRegion {
    base: u32,
    elems: u32,
}

impl Layout {
    /// Builds the layout from the symbols of an assembled image of the
    /// same translation unit. Falls back to [`Layout::synthetic`] if any
    /// global's symbol is missing (which would indicate the image was
    /// built from different source).
    pub fn from_image(cx: &Checked, image: &lbp_asm::Image) -> Layout {
        let mut regions = Vec::with_capacity(cx.unit.globals.len());
        for g in &cx.unit.globals {
            match image.symbol(&g.name) {
                Some(base) => regions.push(LayoutRegion {
                    base,
                    elems: g.elems,
                }),
                None => return Layout::synthetic(cx),
            }
        }
        Layout { regions }
    }

    /// The assembler-convention layout without an image: globals packed
    /// word-aligned in declaration order from the shared-memory base,
    /// exactly as the generated `.data` section lays them out.
    pub fn synthetic(cx: &Checked) -> Layout {
        let mut cursor = lbp_isa::SHARED_BASE;
        let regions = cx
            .unit
            .globals
            .iter()
            .map(|g| {
                let r = LayoutRegion {
                    base: cursor,
                    elems: g.elems,
                };
                cursor += 4 * g.elems;
                r
            })
            .collect();
        Layout { regions }
    }

    /// Base address of the `gi`-th global (declaration order).
    pub fn base(&self, gi: usize) -> u32 {
        self.regions[gi].base
    }

    /// Resolves an address to `(global index, element index)` if it
    /// falls inside any global. Resolution is flat — an address formed
    /// by arithmetic off one global that lands inside another resolves
    /// to the latter, exactly as the flat shared memory would behave.
    pub fn resolve(&self, addr: u32) -> Option<(usize, u32)> {
        self.regions.iter().enumerate().find_map(|(gi, r)| {
            let end = r.base + 4 * r.elems;
            (r.base..end)
                .contains(&addr)
                .then(|| (gi, (addr - r.base) / 4))
        })
    }
}
