//! # lbp-omp — Deterministic OpenMP for the LBP manycore
//!
//! The paper's primary contribution: an OpenMP-like runtime whose
//! synchronization "is no more a matter of locks, barriers and critical
//! sections inserted by the programmer, properly or not, but is handled
//! automatically by the hardware".
//!
//! A Deterministic OpenMP program differs from classic OpenMP in three
//! ways (paper §3):
//!
//! 1. a `parallel for` builds a team of **harts**, not OS threads: each
//!    member has a unique, constant placement (the team fills each core's
//!    four harts before expanding to the next core);
//! 2. team members are **ordered** in the sequential referential order,
//!    which the hardware uses to connect producers and consumers
//!    (`p_swcv`/`p_lwcv` forward, `p_swre`/`p_lwre` backward);
//! 3. consecutive regions are separated by a **hardware barrier**: the
//!    in-team-order commit of the members' `p_ret` instructions.
//!
//! This crate generates those programs: [`DetOmp`] is the builder
//! (the `det_omp.h` of the paper's Fig. 1), and [`codegen`] emits the
//! Fig. 2/7/8 translation through typed `lbp_asm::Asm` calls: an
//! inspectable listing with the assembler's items beside it.
//!
//! # Examples
//!
//! The paper's Fig. 4 pattern — a producing region, a hardware barrier,
//! a consuming region — and run it on the simulator:
//!
//! ```
//! use lbp_omp::DetOmp;
//! use lbp_sim::{LbpConfig, Machine};
//!
//! let image = DetOmp::new(8)
//!     .data_space("v", 8 * 4)
//!     .data_space("sum", 4)
//!     .function(
//!         "thread_set",
//!         "la   a2, v
//!          slli a3, a0, 2
//!          add  a2, a2, a3
//!          addi a4, a0, 1
//!          sw   a4, 0(a2)
//!          p_ret",
//!     )
//!     .function(
//!         "thread_get",
//!         "la   a2, v
//!          slli a3, a0, 2
//!          add  a2, a2, a3
//!          lw   a4, 0(a2)
//!          p_swre a4, t1, 0
//!          p_ret",
//!     )
//!     .parallel_for("thread_set")
//!     .parallel_for("thread_get")
//!     .collect_reduction(0, 8, lbp_omp::ReduceOp::Add, "sum")
//!     .build()?;
//! let mut m = Machine::new(LbpConfig::cores(2), &image)?;
//! m.run(1_000_000)?;
//! let sum = m.peek_shared(image.symbol("sum").unwrap())?;
//! assert_eq!(sum, (1..=8).sum::<u32>());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channels;
pub mod codegen;
mod program;

pub use channels::{Channel, StreamChannel};
pub use codegen::{cv_slots, emit_parallel_region, TeamBody};
pub use program::{DetOmp, ReduceOp};
