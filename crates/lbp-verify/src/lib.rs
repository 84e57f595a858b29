//! # lbp-verify — static determinism & fork-protocol verification
//!
//! The paper's central claim is that LBP programs are deterministic *by
//! construction*. The rest of this workspace checks that claim
//! dynamically — `lbp-sim`'s deadlock detector and lockstep checker fire
//! after the fact, one input at a time. This crate closes the gap with
//! static analyses that run before a single cycle is simulated:
//!
//! - [`verify_image`] — binary-level PISC protocol verification: an
//!   abstract interpretation over an assembled [`lbp_asm::Image`] that
//!   proves fork/join well-formedness (`p_fc`/`p_fn` → `p_swcv` →
//!   `p_merge` → `p_syncm` → `p_jalr` per the paper's Fig. 8) and
//!   result-line slot liveness (`p_lwre` receives must have `p_swre`
//!   senders), flagging statically the hangs the simulator can only
//!   report at runtime. A third pass — the shared-memory determinism
//!   analysis (`LBP-M001`..`M006`) — runs an address-lattice abstract
//!   interpretation (constant / affine-in-member-index / interval /
//!   unknown) over every load and store of each discovered parallel
//!   epoch and proves cross-member write-write and write-read
//!   disjointness, the binary-level counterpart of the source `S` codes.
//! - The source-level race analysis lives in `lbp-cc` (`lbp_cc::lint`)
//!   and reports through this crate's [`Diag`] type, so both layers
//!   speak one diagnostic format: `lbp-diag-v1` (see [`report_json`]).
//!
//! The verdict discipline: an [`Severity::Error`] is a *definite*
//! violation on some path (with a witness or wait-reason), a
//! [`Severity::Warning`] marks what the analysis cannot prove. Only
//! errors reject — see [`accepted`] — so every green program in the
//! repository verifies clean while `examples/asm/hung.s` is rejected
//! with the precise reason its hart would block.
//!
//! # Examples
//!
//! A receive with no sender is rejected before simulation:
//!
//! ```
//! let image = lbp_asm::assemble(
//!     "main:\n    p_lwre a0, 3\n    li t0, -1\n    li ra, 0\n    p_ret\n",
//! )?;
//! let diags = lbp_verify::verify_image(&image);
//! assert!(!lbp_verify::accepted(&diags));
//! assert_eq!(diags[0].code.as_str(), "LBP-B001");
//! assert!(diags[0].wait_reason.as_deref().unwrap().contains("slot 3"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod diag;
mod flow;
mod mpass;

pub use binary::verify_image;
pub use diag::{accepted, report_json, report_text, Diag, DiagCode, Severity};
