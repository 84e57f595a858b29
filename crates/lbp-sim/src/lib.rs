//! # lbp-sim — cycle-level simulator of the LBP manycore processor
//!
//! A deterministic, cycle-level model of the *Little Big Processor*
//! (Goossens, Louetsi, Parello, PACT 2021): up to 64 cores of four harts
//! each, five-stage out-of-order pipelines with **no** branch predictor,
//! **no** caches, **no** load/store queue and **no** interrupts; three
//! memory banks per core; a hierarchical r1/r2/r3 bus interconnect; and
//! the X_PAR hardware fork/join fabric (forward inter-core links plus a
//! backward result line).
//!
//! Determinism is by construction: every arbiter is round-robin or FIFO,
//! every queue is serviced in a fixed order, and there is no source of
//! randomness — so a program applied to the same data produces the same
//! cycle-by-cycle event trace on every run, which is the paper's central
//! claim.
//!
//! # Examples
//!
//! Run a two-hart program that forks with the paper's Fig. 8 protocol:
//!
//! ```
//! use lbp_sim::{LbpConfig, Machine};
//!
//! let image = lbp_asm::assemble(
//!     "main:
//!         li    t0, -1
//!         addi  sp, sp, -8
//!         sw    ra, 0(sp)
//!         sw    t0, 4(sp)
//!         p_set t0
//!         la    ra, rp             # the team joins back to rp
//!         p_fc   t6                # fork: child continues after p_jalr
//!         p_swcv ra, t6, 0
//!         p_swcv t0, t6, 4
//!         p_merge t0, t0, t6
//!         p_syncm
//!         la    a0, child
//!         p_jalr ra, t0, a0        # call child locally, continuation on t6
//!         p_lwcv ra, 0             # (these run on the forked hart)
//!         p_lwcv t0, 4
//!         p_set t0
//!         la    a0, child
//!         jalr  a0                 # last member: plain call, self-join
//!         lw    ra, 0(sp)          # reloads rp from the cv frame
//!         lw    t0, 4(sp)
//!         addi  sp, sp, 8
//!         p_ret                    # sends rp back to hart 0
//!     rp:
//!         lw    ra, 0(sp)
//!         lw    t0, 4(sp)
//!         addi  sp, sp, 8
//!         p_ret                    # exit (ra=0, t0=-1)
//!     child:
//!         p_ret                    # end of a team member
//!     ",
//! )?;
//! let mut m = Machine::new(LbpConfig::cores(1), &image)?;
//! let report = m.run(100_000)?;
//! assert!(report.exited);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod bisect;
pub mod cli;
mod config;
mod core;
mod deadlock;
mod dump;
mod error;
mod fabric;
pub mod fast;
mod fault;
mod hart;
mod hash;
mod index_set;
mod io;
pub mod json;
mod lockstep;
mod machine;
mod msg;
mod network;
mod observe;
mod prof;
mod queues;
pub mod race;
mod snapshot;
mod stats;
mod trace;
mod xpar;

pub use bank::MemFault;
pub use bisect::{first_divergence, BisectError, DivergencePoint};
pub use config::{LbpConfig, CV_FRAME_BYTES, MAX_CORES};
pub use dump::{HartDump, MachineDump, SimFailure, DUMP_SCHEMA};
pub use error::{BlockedHart, ExitClass, SimError};
pub use fast::{FastEngine, FastStop, FastSummary, WarmError};
pub use fault::{Fault, FaultPlan};
pub use hash::fnv1a64;
pub use io::{InputDevice, IoBus, OutputDevice, DEVICE_STRIDE};
pub use json::{Json, JsonError};
pub use lockstep::{run_lockstep, Divergence, LockstepError, LockstepReport};
pub use machine::{Machine, RunPause, RunReport, Watch, Watched};
pub use prof::{PcCounters, ProfData, ProfInterval};
pub use race::{Overlap, RaceData, RaceWitness};
pub use snapshot::{Engine, MachineState, SnapError};
pub use stats::{CoreStalls, IntervalSample, StallKind, Stats};
pub use trace::{ChromeSink, Event, EventKind, JsonlSink, TextSink, Trace, TraceSink};
