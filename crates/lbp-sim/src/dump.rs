//! Crash dumps: a machine-state snapshot attached to every fatal error.
//!
//! When a run dies — deadlock, timeout, protocol violation, decode or
//! memory fault — the interesting question is always *what was everyone
//! doing*. [`MachineDump`] answers it: the state, pc and wait reason of
//! every allocated hart, every in-flight fabric message, the network and
//! bank-port backlogs, and how many injected faults actually fired. It
//! serializes to JSON under the stable `lbp-dump-v1` schema (`lbp-run
//! --dump-on-error` writes it next to the failing run).

use std::fmt;

use crate::deadlock::{classify, HartProgress};
use crate::error::SimError;
use crate::hart::{HartCtx, HartState, RbWait};
use crate::json::Json;
use crate::machine::Machine;

/// Schema identifier of the dump JSON.
pub const DUMP_SCHEMA: &str = "lbp-dump-v1";

/// Snapshot of one allocated (non-`Free`) hart.
#[derive(Debug, Clone)]
pub struct HartDump {
    /// The hart, as its `cXhY` display name.
    pub hart: String,
    /// The hart's global (flat) index.
    pub global: u32,
    /// Lifecycle state: `reserved`, `running` or `waiting-join`.
    pub state: String,
    /// The next fetch address, if the hart has one.
    pub pc: Option<u32>,
    /// What the hart is waiting for, if it cannot make local progress.
    pub waiting_on: Option<String>,
    /// Occupied reorder-buffer entries.
    pub rob: usize,
    /// The pc of the oldest un-committed instruction.
    pub rob_head_pc: Option<u32>,
    /// Occupied instruction-table (waiting station) entries.
    pub it: usize,
    /// What the single-entry result buffer holds, if occupied.
    pub rb: Option<String>,
    /// Memory accesses issued and not yet completed/acknowledged.
    pub in_flight_mem: u32,
    /// Queued values per `p_swre` receive slot.
    pub recv: Vec<usize>,
    /// Whether the team predecessor's ending signal has arrived.
    pub end_signal: bool,
}

impl HartDump {
    fn capture(h: &HartCtx) -> HartDump {
        let state = match h.state {
            HartState::Free => "free",
            HartState::Reserved => "reserved",
            HartState::Running => "running",
            HartState::WaitingJoin => "waiting-join",
        };
        let rb = h.rb.as_ref().map(|rb| match rb.wait {
            RbWait::Until { at, .. } => format!("functional unit until cycle {at}"),
            RbWait::Mem => "waiting for a memory response".to_owned(),
            RbWait::Fork => "waiting for a fork allocation".to_owned(),
            RbWait::Done { .. } => "complete, awaiting write-back".to_owned(),
        });
        let waiting_on = match classify(h) {
            HartProgress::Blocked(waiting) => Some(waiting.to_string()),
            HartProgress::Inert | HartProgress::Ready => None,
        };
        HartDump {
            hart: h.id.to_string(),
            global: h.id.global(),
            state: state.to_owned(),
            pc: h.pc,
            waiting_on,
            rob: h.rob_len(),
            rob_head_pc: h.head().map(|e| e.pc),
            it: h.it_len(),
            rb,
            in_flight_mem: h.in_flight_mem,
            recv: h.recv.iter().map(|q| q.len()).collect(),
            end_signal: h.end_signal,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("hart", Json::Str(self.hart.clone())),
            ("global", Json::U64(self.global as u64)),
            ("state", Json::Str(self.state.clone())),
            ("pc", self.pc.map_or(Json::Null, |pc| Json::U64(pc as u64))),
            (
                "waiting_on",
                self.waiting_on.clone().map_or(Json::Null, Json::Str),
            ),
            ("rob", Json::U64(self.rob as u64)),
            (
                "rob_head_pc",
                self.rob_head_pc
                    .map_or(Json::Null, |pc| Json::U64(pc as u64)),
            ),
            ("it", Json::U64(self.it as u64)),
            ("rb", self.rb.clone().map_or(Json::Null, Json::Str)),
            ("in_flight_mem", Json::U64(self.in_flight_mem as u64)),
            (
                "recv",
                Json::Arr(self.recv.iter().map(|&n| Json::U64(n as u64)).collect()),
            ),
            ("end_signal", Json::Bool(self.end_signal)),
        ])
    }
}

/// A whole-machine snapshot taken at the moment of a fatal error.
#[derive(Debug, Clone)]
pub struct MachineDump {
    /// The cycle the error was raised at.
    pub cycle: u64,
    /// The error message.
    pub error: String,
    /// The error's stable class name (see [`SimError::class`]).
    pub error_class: &'static str,
    /// Every allocated (non-`Free`) hart.
    pub harts: Vec<HartDump>,
    /// Harts in the `Free` state (summarized by count only).
    pub free_harts: usize,
    /// Every in-flight fork/join fabric message, with its location.
    pub fabric_in_flight: Vec<String>,
    /// Messages travelling in the r1/r2/r3 memory network.
    pub network_in_flight: usize,
    /// Requests queued at each core's bank ports.
    pub bank_queues: Vec<usize>,
    /// Injected faults that actually fired before the error.
    pub faults_applied: u64,
}

impl MachineDump {
    /// Serializes under the `lbp-dump-v1` schema.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(DUMP_SCHEMA.to_owned())),
            ("cycle", Json::U64(self.cycle)),
            ("error", Json::Str(self.error.clone())),
            ("error_class", Json::Str(self.error_class.to_owned())),
            (
                "harts",
                Json::Arr(self.harts.iter().map(HartDump::to_json).collect()),
            ),
            ("free_harts", Json::U64(self.free_harts as u64)),
            (
                "fabric_in_flight",
                Json::Arr(
                    self.fabric_in_flight
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "network_in_flight",
                Json::U64(self.network_in_flight as u64),
            ),
            (
                "bank_queues",
                Json::Arr(
                    self.bank_queues
                        .iter()
                        .map(|&n| Json::U64(n as u64))
                        .collect(),
                ),
            ),
            ("faults_applied", Json::U64(self.faults_applied)),
        ])
    }
}

/// A fatal simulation error together with the crash dump taken when it
/// was raised. This is what [`Machine::run_diagnosed`] returns; callers
/// that only want the error use [`Machine::run`].
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// The error that ended the run.
    pub error: SimError,
    /// The machine snapshot at that moment.
    pub dump: MachineDump,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for SimFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl Machine {
    /// Takes a crash-dump snapshot of the current machine state for
    /// `error`.
    pub fn dump(&self, error: &SimError) -> MachineDump {
        self.dump_with(error.class(), error.to_string())
    }

    /// Takes a dump for a condition that is not a [`SimError`] — a
    /// watchdog cancellation, a daemon shutdown — so graceful stops can
    /// still emit a valid `lbp-dump-v1` partial report. `error_class`
    /// should be a stable lowercase token (e.g. `"cancelled"`) distinct
    /// from the simulator's own classes.
    pub fn dump_with(&self, error_class: &'static str, error: String) -> MachineDump {
        let mut harts = Vec::new();
        let mut free = 0;
        for core in &self.cores {
            for h in &core.harts {
                if h.state == HartState::Free {
                    free += 1;
                } else {
                    harts.push(HartDump::capture(h));
                }
            }
        }
        MachineDump {
            cycle: self.cycle,
            error,
            error_class,
            harts,
            free_harts: free,
            fabric_in_flight: self.fabric.pending(),
            network_in_flight: self.mem.net.in_flight(),
            bank_queues: (0..self.cfg.cores as u32)
                .map(|c| self.mem.queued_at(c))
                .collect(),
            faults_applied: self.faults_applied + self.fabric.faults_applied,
        }
    }

    /// Packages `error` with a dump taken right now.
    pub fn failure(&self, error: SimError) -> Box<SimFailure> {
        Box::new(SimFailure {
            dump: self.dump(&error),
            error,
        })
    }
}
