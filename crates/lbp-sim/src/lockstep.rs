//! Lockstep differential checking: the cycle-exact machine vs the
//! functional engine.
//!
//! The paper's determinism claim cuts both ways: because the machine is
//! deterministic, any architectural divergence from the referential
//! order is a hard bug (or an injected fault doing its job), never a
//! scheduling artifact. Fork/join rendezvous totally order cross-hart
//! communication, so every schedule that respects them retires the same
//! instruction stream *per hart* — which makes [`FastEngine`], with its
//! own arithmetic, its own schedule and its own rendezvous delivery, a
//! reference for forked programs as much as for sequential ones. The two
//! engines share what is not under test — the decoder, the code bank and
//! the bank store with its address map and fault checks (`bank.rs`) — so
//! that what they compare is the pipeline's work and nothing else.
//!
//! [`run_lockstep`] runs the image on the full [`Machine`] (with the
//! configuration's fault plan) and on a fault-free [`FastEngine`], then
//! reports the **first** architectural divergence: a hart whose
//! committed-pc streams split (localized to the exact commit), a final
//! register difference on the exiting hart, or a shared-memory
//! difference. `lbp-run --lockstep` exposes the
//! checker on the command line; fault-injection tests use it to prove a
//! flipped bit surfaces as a divergence rather than silent corruption.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use lbp_asm::Image;
use lbp_isa::{HartId, Reg};

use crate::bank::is_code_word;
use crate::config::LbpConfig;
use crate::dump::SimFailure;
use crate::error::SimError;
use crate::fast::{FastEngine, FastStop};
use crate::machine::{Machine, RunReport};
use crate::trace::{Event, EventKind, TraceSink};

/// A sink that collects each hart's committed pcs in program order.
struct CommitStreams(Rc<RefCell<Vec<Vec<u32>>>>);

impl TraceSink for CommitStreams {
    fn record(&mut self, event: &Event) {
        if let EventKind::Commit { pc } = event.kind {
            self.0.borrow_mut()[event.hart.global() as usize].push(pc);
        }
    }
}

/// The first architectural difference between the machine and the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A hart's committed-pc streams split. With a corrupted branch or a
    /// mis-modeled instruction, `last_agreed_pc` *is* the guilty
    /// instruction.
    Pc {
        /// The hart whose streams differ.
        hart: HartId,
        /// How many commits of that hart matched before the split.
        commit: u64,
        /// The pc the machine committed there (`None` when its stream
        /// ended first).
        machine_pc: Option<u32>,
        /// The pc the oracle retired there, likewise.
        oracle_pc: Option<u32>,
        /// The last pc both retired on that hart before parting ways.
        last_agreed_pc: Option<u32>,
    },
    /// A register of the exiting hart differs after both finished.
    Register {
        /// The architectural register.
        reg: Reg,
        /// The machine's final value.
        machine: u32,
        /// The oracle's final value.
        oracle: u32,
    },
    /// A shared-memory word differs after both finished.
    Memory {
        /// The word address.
        addr: u32,
        /// The machine's final value.
        machine: u32,
        /// The oracle's final value.
        oracle: u32,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Pc {
                hart,
                commit,
                machine_pc,
                oracle_pc,
                last_agreed_pc,
            } => {
                let side = |pc: &Option<u32>| match pc {
                    Some(pc) => format!("retires pc {pc:#010x}"),
                    None => "has already stopped".to_owned(),
                };
                writeln!(f, "engines diverge at hart {hart}, commit #{commit}")?;
                writeln!(f, "  functional:  {}", side(oracle_pc))?;
                write!(f, "  cycle-exact: {}", side(machine_pc))?;
                if let Some(pc) = last_agreed_pc {
                    write!(f, "\n  last agreed instruction: pc {pc:#010x}")?;
                }
                Ok(())
            }
            Divergence::Register {
                reg,
                machine,
                oracle,
            } => write!(
                f,
                "final value of {reg}: machine {machine:#x}, oracle {oracle:#x}"
            ),
            Divergence::Memory {
                addr,
                machine,
                oracle,
            } => write!(
                f,
                "final shared word at {addr:#x}: machine {machine:#x}, oracle {oracle:#x}"
            ),
        }
    }
}

/// Why a lockstep check did not complete cleanly.
#[derive(Debug)]
pub enum LockstepError {
    /// An engine could not even be built (bad image or fault plan).
    Setup(SimError),
    /// The machine run itself failed (dump attached) on a commit stream
    /// the oracle agrees with as far as it goes.
    Machine(Box<SimFailure>),
    /// The oracle failed on a program the machine ran fine.
    Oracle(SimError),
    /// The two models disagreed architecturally.
    Diverged(Divergence),
}

impl fmt::Display for LockstepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockstepError::Setup(e) => write!(f, "could not build the machine: {e}"),
            LockstepError::Machine(fail) => write!(f, "machine run failed: {fail}"),
            LockstepError::Oracle(e) => write!(f, "functional oracle failed: {e}"),
            LockstepError::Diverged(d) => write!(f, "lockstep divergence: {d}"),
        }
    }
}

impl std::error::Error for LockstepError {}

/// The result of a clean (non-diverging) lockstep run.
#[derive(Debug, Clone)]
pub struct LockstepReport {
    /// The machine's run report.
    pub report: RunReport,
    /// Commits compared in lockstep, summed over every hart.
    pub commits: u64,
}

/// Runs `image` on a machine configured by `cfg` and checks it in
/// lockstep against the functional engine.
///
/// `sabotage` XORs instruction words into the *oracle's copy only*
/// (`(pc, xor)` pairs) — the seeded-divergence workflow for validating
/// the localizer; pass `&[]` to check an image as-is. A pair whose `pc`
/// is not a code word of the image would sabotage nothing (or a
/// neighbour) and is refused like a `corrupt-instr` fault aimed there.
///
/// Both engines run to completion or failure before anything is
/// compared, so a run that faults or deadlocks is still localized by the
/// commits it did retire.
///
/// # Errors
///
/// In this order: [`LockstepError::Setup`] for a fault plan or a sabotage
/// that targets nothing, [`LockstepError::Diverged`] with the first hart
/// whose commit streams split, the machine's failure, the oracle's failure,
/// then [`LockstepError::Diverged`] with the first differing register of
/// the exiting hart or shared word.
pub fn run_lockstep(
    cfg: LbpConfig,
    image: &Image,
    max_cycles: u64,
    sabotage: &[(u32, u32)],
) -> Result<LockstepReport, LockstepError> {
    let harts = cfg.harts();
    // The functional engine never injects faults: the plan only reaches
    // the machine.
    let mut oracle = FastEngine::new(cfg.clone(), image).map_err(LockstepError::Setup)?;
    oracle.enable_commit_log();
    for &(pc, xor) in sabotage {
        if !is_code_word(image.text.len(), pc) {
            return Err(LockstepError::Setup(SimError::FaultPlan {
                spec: format!("sabotage:{pc:#x}:{xor:#x}").into(),
                why: "pc is not a code word of the image",
            }));
        }
        oracle.sabotage_code(pc, xor);
    }
    let mut machine = Machine::new(cfg, image).map_err(LockstepError::Setup)?;
    let streams = Rc::new(RefCell::new(vec![Vec::new(); harts]));
    machine.set_sink(Box::new(CommitStreams(Rc::clone(&streams))));
    let machine_run = machine.run_diagnosed(max_cycles);
    let streams = streams.borrow();
    let commits: u64 = streams.iter().map(|s| s.len() as u64).sum();
    // Every oracle step retires one instruction, at once or (a queued
    // fork, at most one per hart) later: past this budget some hart's
    // stream is already longer than the machine's, which is a divergence.
    let oracle_run = oracle.run(FastStop::Exit, commits + harts as u64).map(|_| {
        oracle
            .exit_hart()
            .expect("FastStop::Exit only returns Ok parked at the exit p_ret")
    });

    for (h, (m, o)) in streams.iter().zip(oracle.commit_log()).enumerate() {
        let hart = HartId::new(h as u32);
        let split = m
            .iter()
            .zip(o)
            .position(|(a, b)| a != b)
            .unwrap_or(m.len().min(o.len()));
        let (machine_pc, oracle_pc) = (m.get(split).copied(), o.get(split).copied());
        let diverged = match (machine_pc, oracle_pc) {
            (None, None) => false,
            (Some(_), Some(_)) => true,
            // A stream that merely stops short diverges only if its
            // engine ran to the end...
            (None, Some(_)) => machine_run.is_ok(),
            // ...and the exit `p_ret`, which the oracle parks before, is
            // the one commit the machine alone may carry.
            (Some(pc), None) => oracle_run
                .as_ref()
                .is_ok_and(|&exit| exit != (hart, pc) || m.len() != split + 1),
        };
        if diverged {
            return Err(LockstepError::Diverged(Divergence::Pc {
                hart,
                commit: split as u64,
                machine_pc,
                oracle_pc,
                last_agreed_pc: split.checked_sub(1).map(|p| m[p]),
            }));
        }
    }
    let report = machine_run.map_err(LockstepError::Machine)?;
    let (exit_hart, _) = oracle_run.map_err(LockstepError::Oracle)?;

    // Final architectural state: the exiting hart's registers (through
    // the machine's renaming) and the whole shared space.
    for reg in Reg::all().skip(1) {
        let machine_v = machine.reg(exit_hart, reg);
        let oracle_v = oracle.reg(exit_hart, reg);
        if machine_v != oracle_v {
            return Err(LockstepError::Diverged(Divergence::Register {
                reg,
                machine: machine_v,
                oracle: oracle_v,
            }));
        }
    }
    let (machine_mem, oracle_mem) = (&machine.mem.banks, oracle.banks());
    if let Some((addr, machine_v, oracle_v)) = machine_mem.first_shared_difference(oracle_mem) {
        return Err(LockstepError::Diverged(Divergence::Memory {
            addr,
            machine: machine_v,
            oracle: oracle_v,
        }));
    }
    Ok(LockstepReport { report, commits })
}
