//! # lbp-benchmark — the performance ledger
//!
//! Seven named workloads, each a closed loop over the public functions of
//! the crates under `crates/`, measured end to end by the plain binary and
//! layer by layer by the traced one. `BENCHMARK.json` at the repository
//! root names the command, the workloads and every metric; `README.md` in
//! this directory says what each number means and which layer should move
//! it. Nothing outside `benchmark/` is changed or instrumented.
//!
//! Where `lbp-bench` regenerates the paper's figures and keeps the
//! `BENCH_*` history, this package is what a later change is judged by:
//! fixed work, medians, bounds, and a check that every simulated count is
//! what it was.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod cli;
pub mod compare;
pub mod reference;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
