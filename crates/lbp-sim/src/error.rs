//! Simulation errors.

use std::fmt;

use lbp_isa::HartId;

use crate::bank::MemFault;

/// One hart of a deadlocked machine and the event it is stuck on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedHart {
    /// The blocked hart.
    pub hart: HartId,
    /// Human-readable description of what the hart waits for.
    pub waiting_on: String,
}

impl fmt::Display for BlockedHart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hart {} waiting for {}", self.hart, self.waiting_on)
    }
}

/// A fatal simulation error. LBP has no traps or interrupts, so any of
/// these conditions would hang or corrupt the real hardware; the simulator
/// surfaces them as errors instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A memory access faulted.
    Mem(MemFault),
    /// An instruction word failed to decode.
    Decode {
        /// The fetch address.
        pc: u32,
        /// The undecodable word.
        word: u32,
        /// The fetching hart.
        hart: HartId,
    },
    /// The X_PAR fork/join protocol was violated (e.g. `p_fn` on the last
    /// core, a start pc delivered to a hart that was never allocated, a
    /// `p_swre` sent forward in the sequential order).
    Protocol {
        /// The offending hart.
        hart: HartId,
        /// Description of the violation.
        what: String,
    },
    /// The machine quiesced without exiting: every hart is blocked on an
    /// event that can no longer happen (no message in flight, no bank
    /// operation pending). On real LBP hardware this hangs forever; the
    /// detector reports it the moment it becomes certain instead of
    /// burning the remaining cycle budget.
    Deadlock {
        /// The cycle the deadlock was detected at.
        cycle: u64,
        /// Every blocked hart and what it waits on. Empty when all harts
        /// ended without any of them executing the exit `p_ret`.
        blocked: Vec<BlockedHart>,
    },
    /// The run did not exit within the cycle budget.
    Timeout {
        /// The budget that was exhausted.
        cycles: u64,
    },
    /// The configuration's fault plan, or a lockstep sabotage of the
    /// oracle's code, targets something outside the machine (a hart,
    /// register, bit, address or code word that does not exist): refused
    /// before the run, like a bad command line.
    FaultPlan {
        /// The refused fault, in the `--fault` spec syntax, or
        /// `sabotage:PC:XOR`.
        spec: Box<str>,
        /// Why it is refused.
        why: &'static str,
    },
}

// Both engines return `Result<_, SimError>` from every pipeline stage and
// every instruction step, so the error's size is stack traffic on the hot
// path: a variant that widens it slows the functional engine measurably.
const _: () = assert!(std::mem::size_of::<SimError>() <= 40);

impl SimError {
    /// A short machine-readable class name, stable across releases: used
    /// for the `error_class` field of `lbp-dump-v1` dumps and the `class`
    /// field of `lbp-batch-v1`/`lbp-fuzz-v1` lines. It is the name of
    /// [`SimError::exit_class`].
    pub fn class(&self) -> &'static str {
        self.exit_class().name()
    }

    /// The exit class a tool ends with when this error stops a run.
    pub fn exit_class(&self) -> ExitClass {
        match self {
            SimError::Mem(_) => ExitClass::Mem,
            SimError::Decode { .. } => ExitClass::Decode,
            SimError::Protocol { .. } => ExitClass::Protocol,
            SimError::Deadlock { .. } => ExitClass::Deadlock,
            SimError::Timeout { .. } => ExitClass::Timeout,
            SimError::FaultPlan { .. } => ExitClass::Usage,
        }
    }
}

/// Why a tool's process ended: the one exit-code vocabulary of `lbp-run`,
/// `lbp-cc`, `lbp-batch`, `lbp-fuzz` and `figures`. The discriminant is
/// the process exit code; scripts and CI match on the numbers, so they are
/// load-bearing API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ExitClass {
    /// The tool did what it was asked.
    Ok = 0,
    /// A front-end, I/O or self-check failure.
    Failure = 1,
    /// Bad command line, or a [`SimError::FaultPlan`].
    Usage = 2,
    /// `lbp-fuzz` found a failing case.
    Finding = 3,
    /// [`SimError::Timeout`].
    Timeout = 4,
    /// [`SimError::Deadlock`].
    Deadlock = 5,
    /// [`SimError::Protocol`].
    Protocol = 6,
    /// [`SimError::Decode`].
    Decode = 7,
    /// [`SimError::Mem`].
    Mem = 8,
    /// The lockstep check found the engines diverging.
    Divergence = 9,
    /// Static verification, the lint or the race witness said no.
    Rejected = 10,
    /// The wall-clock watchdog cancelled the run.
    Cancelled = 11,
    /// `lbp-cc --diff`: semantics and simulation disagree observably.
    SemanticsDivergence = 12,
}

impl ExitClass {
    /// The process exit code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ExitClass::Ok => "ok",
            ExitClass::Failure => "failure",
            ExitClass::Usage => "usage",
            ExitClass::Finding => "finding",
            ExitClass::Timeout => "timeout",
            ExitClass::Deadlock => "deadlock",
            ExitClass::Protocol => "protocol",
            ExitClass::Decode => "decode",
            ExitClass::Mem => "mem",
            ExitClass::Divergence => "divergence",
            ExitClass::Rejected => "rejected",
            ExitClass::Cancelled => "cancelled",
            ExitClass::SemanticsDivergence => "semantics-divergence",
        }
    }

    /// Ends the process with this class's code.
    pub fn exit(self) -> ! {
        std::process::exit(self.code() as i32)
    }
}

impl From<ExitClass> for std::process::ExitCode {
    fn from(class: ExitClass) -> std::process::ExitCode {
        std::process::ExitCode::from(class.code())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem(m) => write!(f, "{m}"),
            SimError::Decode { pc, word, hart } => write!(
                f,
                "hart {hart} fetched undecodable word {word:#010x} at pc {pc:#010x}"
            ),
            SimError::Protocol { hart, what } => {
                write!(f, "hart {hart} violated the fork/join protocol: {what}")
            }
            SimError::Deadlock { cycle, blocked } => {
                if blocked.is_empty() {
                    write!(
                        f,
                        "deadlock at cycle {cycle}: every hart ended but the program never \
                         executed its exit p_ret"
                    )
                } else {
                    write!(
                        f,
                        "deadlock at cycle {cycle}: {} hart(s) blocked: ",
                        blocked.len()
                    )?;
                    for (i, b) in blocked.iter().enumerate() {
                        if i > 0 {
                            write!(f, "; ")?;
                        }
                        write!(f, "{b}")?;
                    }
                    Ok(())
                }
            }
            SimError::Timeout { cycles } => {
                write!(f, "run did not exit within {cycles} cycles")
            }
            SimError::FaultPlan { spec, why } => {
                write!(f, "invalid fault plan: `{spec}`: {why}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemFault> for SimError {
    fn from(m: MemFault) -> SimError {
        SimError::Mem(m)
    }
}
