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
//! - **Conflicts trap at the join.** A shared word written by two
//!   members, or written by one member and read by another, is a
//!   `conflict` trap naming both members and the word: deterministic
//!   consistency gives such a program no meaning. Otherwise every written
//!   word takes its one writer's value, and member effects append in
//!   member-index order, so the outcome is a function of the program
//!   alone, not of any schedule.
//!
//! The interpreter actually *interleaves* member execution (round-robin
//! by default, or driven by a seeded PRNG) to demonstrate that under DC
//! visibility the observable outcome — and the conflict a racy program
//! traps on — is schedule-independent.
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
use std::fmt::Write as _;

use lbp_cc::sema::Checked;

pub mod diff;
pub mod interp;
mod lower;

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
        let words: usize = self.globals.iter().map(|(_, w)| w.len()).sum();
        let mut s = String::with_capacity(64 + 12 * words + 32 * self.effects.len());
        s.push_str("lbp-sema-outcome-v1\n");
        // Writing into a `String` cannot fail.
        for (name, words) in &self.globals {
            let _ = write!(s, "global {name}[{}] =", words.len());
            for &w in words {
                s.push(' ');
                push_decimal(&mut s, w);
            }
            s.push('\n');
        }
        for e in &self.effects {
            let _ = writeln!(s, "effect {e}");
        }
        s
    }

    /// Content hash of the rendered outcome (FNV-1a 64, the same hash
    /// the snapshot/report tooling uses).
    pub fn content_hash(&self) -> u64 {
        lbp_sim::fnv1a64(self.render().as_bytes())
    }
}

/// Appends `v` in decimal, as `Display` writes it, without the
/// formatting machinery a store of thousands of words would pay per word.
fn push_decimal(s: &mut String, v: i32) {
    let mut digits = [0u8; 11];
    let mut at = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        digits[at] = b'-';
    }
    s.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// A semantic trap: the program performed an operation the semantics
/// leaves undefined (wild address, uninitialized read, ...) or blew an
/// interpreter resource bound. The compiled binary may happen to *do*
/// something on the machine; the spec refuses to assign it a meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trap {
    /// Stable machine-readable class: `uninit`, `wild-address`,
    /// `misaligned`, `budget`, `depth`, `missing-return`, `no-main`,
    /// `nested-region`, `conflict` (two members overlap on a shared word)
    /// or `unresolved` (a name of a hand-built unit that sema would have
    /// refused).
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
    /// Base address of each global, in declaration order.
    bases: Vec<u32>,
    /// The globals with at least one word, by ascending base.
    spans: Vec<Span>,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    base: u32,
    elems: u32,
    global: usize,
    /// Flat index of the global's first word in the interpreter's store.
    word: usize,
}

impl Layout {
    fn new(cx: &Checked, bases: Vec<u32>) -> Layout {
        let mut spans = Vec::with_capacity(bases.len());
        let mut word = 0;
        for (global, (g, &base)) in cx.unit.globals.iter().zip(&bases).enumerate() {
            if g.elems > 0 {
                spans.push(Span {
                    base,
                    elems: g.elems,
                    global,
                    word,
                });
            }
            word += g.elems as usize;
        }
        spans.sort_by_key(|s| s.base);
        Layout { bases, spans }
    }

    /// Builds the layout from the symbols of an assembled image of the
    /// same translation unit. Falls back to [`Layout::synthetic`] if any
    /// global's symbol is missing (which would indicate the image was
    /// built from different source).
    pub fn from_image(cx: &Checked, image: &lbp_asm::Image) -> Layout {
        let bases: Option<Vec<u32>> = (cx.unit.globals.iter())
            .map(|g| image.symbol(&g.name))
            .collect();
        match bases {
            Some(bases) => Layout::new(cx, bases),
            None => Layout::synthetic(cx),
        }
    }

    /// The assembler-convention layout without an image: globals packed
    /// word-aligned in declaration order from the shared-memory base,
    /// exactly as the generated `.data` section lays them out.
    pub fn synthetic(cx: &Checked) -> Layout {
        let mut cursor = lbp_isa::SHARED_BASE;
        let bases = (cx.unit.globals.iter())
            .map(|g| {
                let base = cursor;
                cursor += 4 * g.elems;
                base
            })
            .collect();
        Layout::new(cx, bases)
    }

    /// Base address of the `gi`-th global (declaration order).
    pub fn base(&self, gi: usize) -> u32 {
        self.bases[gi]
    }

    /// Resolves an address to `(global index, element index)` if it
    /// falls inside any global. Resolution is flat — an address formed
    /// by arithmetic off one global that lands inside another resolves
    /// to the latter, exactly as the flat shared memory would behave.
    /// Globals never overlap, so a binary search over their bases finds
    /// the one global an address can fall in.
    pub fn resolve(&self, addr: u32) -> Option<(usize, u32)> {
        self.span(addr).map(|(s, elem)| (s.global, elem))
    }

    /// The flat store index of the word at `addr`, if it is a global's.
    pub(crate) fn word(&self, addr: u32) -> Option<usize> {
        self.span(addr).map(|(s, elem)| s.word + elem as usize)
    }

    /// Whether element `i` of the `gi`-th global, for every `i` below its
    /// element count, is the word at `base(gi) + 4 i`: its base is
    /// aligned, and globals never overlap.
    pub(crate) fn direct(&self, gi: usize) -> bool {
        self.bases[gi].is_multiple_of(4)
    }

    fn span(&self, addr: u32) -> Option<(&Span, u32)> {
        let below = self.spans.partition_point(|s| s.base <= addr);
        let s = self.spans.get(below.checked_sub(1)?)?;
        let elem = (addr - s.base) / 4;
        (elem < s.elems).then_some((s, elem))
    }
}
