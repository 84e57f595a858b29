//! Divergence bisection over snapshots.
//!
//! Given two machines whose evolutions are *expected* to differ — e.g. a
//! clean run and one with an injected fault, or two checkpoints of runs
//! that later disagree — [`first_divergence`] finds the **first cycle**
//! where their dynamic states part ways, and the first traced event that
//! differs on it (typically the corrupted commit or the dropped message's
//! missing delivery).
//!
//! The machine is cycle-deterministic, so any interval replays from a
//! snapshot to the same states. The search uses that instead of stepping
//! every cycle. A *probe* restores both machines from the last pair of
//! states known to be equal, runs them to a target cycle and snapshots
//! each once. Probe targets first fall 1, 2, 4, … cycles past the last
//! equal probe, until one differs or both runs end in the same state;
//! then the interval between the last equal probe and the first differing
//! one is halved down to one cycle, and that cycle is replayed once more
//! with a [`Trace`] sink to name the differing events. A search replays
//! at most about three times the cycles up to the divergence (or up to
//! the runs' common end), whatever the cycle budget.
//!
//! Its one limit: only probes are compared, so a difference that heals
//! between two probes — a corrupted register overwritten before anything
//! reads it — is not seen. A run pair that parts at cycle N and stays
//! apart is always located at N.
//!
//! Snapshots compare by their *dynamic* section only
//! ([`MachineState::dynamic_bytes`]), so two machines that differ in
//! configuration-level fault plans — but not yet in behaviour — are
//! still "equal". The one static fact that does matter is checked first:
//! both starting states must descend from the same [`Engine`], for a
//! functional clock cannot be lined up against a pipeline's.

use crate::machine::Machine;
use crate::snapshot::{Engine, MachineState, SnapError};
use crate::trace::{Event, Trace};

/// Why [`first_divergence`] did not bisect: one of its three refusals of
/// a sound pair of states, or a failure inside the bisection.
#[derive(Debug)]
pub enum BisectError {
    /// Runs A and B descend from these two different engines.
    MixedEngines(Engine, Engine),
    /// Runs A and B start at these two different cycles.
    DifferentCycles(u64, u64),
    /// The starting states already differ.
    AlreadyDiffer,
    /// A state failed to restore, or the final replay did not reproduce
    /// the difference the search saw.
    Snap(SnapError),
}

impl std::fmt::Display for BisectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BisectError::MixedEngines(a, b) => write!(
                f,
                "cannot bisect a {a} snapshot against a {b} one: functional snapshots carry \
                 virtual cycles, not pipeline timing; take both snapshots from the same \
                 engine (e.g. re-run the warm phase cycle-exact)"
            ),
            BisectError::DifferentCycles(a, b) => write!(
                f,
                "cannot bisect: the checkpoints are at different cycles ({a} vs {b})"
            ),
            BisectError::AlreadyDiffer => f.write_str(
                "cannot bisect: the starting checkpoints already differ — bisect from an \
                 earlier one",
            ),
            BisectError::Snap(e) => write!(f, "bisection failed: {e}"),
        }
    }
}

impl std::error::Error for BisectError {}

impl From<SnapError> for BisectError {
    fn from(e: SnapError) -> BisectError {
        BisectError::Snap(e)
    }
}

/// Where two runs first part ways.
#[derive(Debug, Clone)]
pub struct DivergencePoint {
    /// The first cycle at whose end the two machines' states differ.
    pub cycle: u64,
    /// The first traced event of machine A on that cycle that machine B
    /// does not produce (`None` when A emits a strict prefix of B's
    /// events, or when the state difference is silent — e.g. a flipped
    /// register bit that no event reports).
    pub event_a: Option<String>,
    /// The first differing traced event of machine B, likewise.
    pub event_b: Option<String>,
    /// Machine A's run status at the divergent cycle (`running`,
    /// `exited`, or `error: …`).
    pub outcome_a: String,
    /// Machine B's run status at the divergent cycle.
    pub outcome_b: String,
}

impl std::fmt::Display for DivergencePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "first divergence at cycle {}", self.cycle)?;
        match (&self.event_a, &self.event_b) {
            (None, None) => writeln!(
                f,
                "  no traced event differs — the divergence is silent state \
                 (e.g. a corrupted value not yet observed)"
            )?,
            (a, b) => {
                if let Some(a) = a {
                    writeln!(f, "  run A: {a}")?;
                }
                if let Some(b) = b {
                    writeln!(f, "  run B: {b}")?;
                }
            }
        }
        write!(f, "  status: A {} | B {}", self.outcome_a, self.outcome_b)
    }
}

/// One run after a probe.
struct Probe {
    machine: Machine,
    state: MachineState,
    /// `running`, `exited`, or `error: …`.
    outcome: String,
}

impl Probe {
    /// Restores `from` and runs it to cycle `target` (or its exit or
    /// error, whichever comes first).
    fn run(from: &MachineState, target: u64, traced: bool) -> Result<Probe, SnapError> {
        let mut machine = Machine::restore(from)?;
        if traced {
            machine.set_sink(Box::new(Trace::new()));
        }
        let outcome = match machine.run_to(target) {
            Ok(true) => "exited".to_owned(),
            Ok(false) => "running".to_owned(),
            Err(failure) => format!("error: {}", failure.error),
        };
        Ok(Probe {
            state: machine.snapshot(),
            machine,
            outcome,
        })
    }

    /// What the run emitted, when the probe was traced.
    fn events(&self) -> &[Event] {
        self.machine.sink::<Trace>().map_or(&[], Trace::events)
    }

    fn same_as(&self, other: &Probe) -> bool {
        self.outcome == other.outcome && self.state.dynamic_bytes() == other.state.dynamic_bytes()
    }
}

/// Probes both runs from a pair of equal states to cycle `target`.
fn probe(
    from: &(MachineState, MachineState),
    target: u64,
    traced: bool,
) -> Result<(Probe, Probe), SnapError> {
    Ok((
        Probe::run(&from.0, target, traced)?,
        Probe::run(&from.1, target, traced)?,
    ))
}

/// Finds the first cycle at which two runs diverge, probing their
/// dynamic state at doubling, then halving, distances (see the module
/// docs).
///
/// `a0` and `b0` are starting checkpoints taken **at the same cycle** of
/// two runs believed identical up to that point (cycle-0 snapshots of two
/// freshly built machines are the common case). Both runs are advanced up
/// to `a0.cycle() + max_cycles`.
///
/// Returns `None` when no probe within the budget differs: the runs ended
/// in the same state with the same outcome, or were still equal at the
/// budget's end.
///
/// # Errors
///
/// A refusal when the two checkpoints descend from different engines,
/// are not at the same cycle or already differ; [`BisectError::Snap`] if
/// either fails to restore, or the replay does not reproduce the
/// divergence.
pub fn first_divergence(
    a0: &MachineState,
    b0: &MachineState,
    max_cycles: u64,
) -> Result<Option<DivergencePoint>, BisectError> {
    if a0.engine() != b0.engine() {
        return Err(BisectError::MixedEngines(a0.engine(), b0.engine()));
    }
    if a0.cycle() != b0.cycle() {
        return Err(BisectError::DifferentCycles(a0.cycle(), b0.cycle()));
    }
    if a0.dynamic_bytes() != b0.dynamic_bytes() {
        return Err(BisectError::AlreadyDiffer);
    }
    let end = a0.cycle().saturating_add(max_cycles);
    // The last pair of states known to be equal, and its cycle.
    let mut equal = (a0.clone(), b0.clone());
    let mut lo = a0.cycle();
    // Doubling: probe 1, 2, 4, … cycles past the last equal probe.
    let mut step = 1u64;
    let mut hi = loop {
        if lo >= end {
            return Ok(None); // budget exhausted, still in sync
        }
        let target = lo.saturating_add(step).min(end);
        let (a, b) = probe(&equal, target, false)?;
        if !a.same_as(&b) {
            break target;
        }
        if a.outcome != "running" {
            return Ok(None); // both finished identically
        }
        (equal, lo, step) = ((a.state, b.state), target, step.saturating_mul(2));
    };
    // Halving: the first difference lies in (lo, hi].
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (a, b) = probe(&equal, mid, false)?;
        if a.same_as(&b) {
            (equal, lo) = ((a.state, b.state), mid);
        } else {
            hi = mid;
        }
    }
    // Replay the divergent cycle traced, to name the differing events.
    let (a, b) = probe(&equal, hi, true)?;
    if a.same_as(&b) {
        return Err(SnapError::Corrupt(
            "replayed interval did not reproduce the divergence — \
             the machine is not deterministic"
                .to_owned(),
        )
        .into());
    }
    let (ea, eb) = (a.events(), b.events());
    let split = ea.iter().zip(eb).take_while(|(x, y)| x == y).count();
    Ok(Some(DivergencePoint {
        cycle: hi,
        event_a: ea.get(split).map(Event::describe),
        event_b: eb.get(split).map(Event::describe),
        outcome_a: a.outcome,
        outcome_b: b.outcome,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FastEngine, FastStop, Fault, FaultPlan, LbpConfig};

    fn machine(faults: &[&str]) -> Machine {
        let image = lbp_asm::assemble(
            "main:
                li   t0, -1
                li   a0, 0
                li   a1, 5
                la   a2, out
            loop:
                mul  a3, a1, a1
                sw   a3, 0(a2)
                addi a1, a1, -1
                bnez a1, loop
                p_ret a0, t0
            .data
            out: .word 0",
        )
        .unwrap();
        let plan: FaultPlan = faults.iter().map(|s| Fault::parse(s).unwrap()).collect();
        Machine::new(LbpConfig::cores(1).with_faults(plan), &image).unwrap()
    }

    #[test]
    fn identical_runs_never_diverge() {
        let a = machine(&[]).snapshot();
        let b = machine(&[]).snapshot();
        assert!(first_divergence(&a, &b, 100_000).unwrap().is_none());
    }

    #[test]
    fn fault_is_located_at_its_trigger_cycle() {
        let a = machine(&[]).snapshot();
        let b = machine(&["flip-mem:0x80000000:3:10"]).snapshot();
        let d = first_divergence(&a, &b, 100_000)
            .unwrap()
            .expect("a flipped bit must diverge");
        assert_eq!(d.cycle, 10, "{d}");
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let a = machine(&[]).snapshot();
        let mut m = machine(&[]);
        m.run_to(3).unwrap();
        assert!(matches!(
            first_divergence(&a, &m.snapshot(), 100),
            Err(BisectError::DifferentCycles(0, 3))
        ));
        let mut b = machine(&["flip-mem:0x80000000:3:1"]);
        b.run_to(3).unwrap();
        assert!(matches!(
            first_divergence(&m.snapshot(), &b.snapshot(), 100),
            Err(BisectError::AlreadyDiffer)
        ));
    }

    #[test]
    fn bisect_refuses_mixed_engines() {
        let image = lbp_asm::assemble(
            "main:
                li   t0, -1
                li   a0, 0
                p_ret a0, t0",
        )
        .unwrap();
        let mut fast = FastEngine::new(LbpConfig::cores(1), &image).unwrap();
        fast.run(FastStop::Retired(1), 100).unwrap();
        let warm = fast.materialize(&image).unwrap().snapshot();
        let mut cold = Machine::new(LbpConfig::cores(1), &image).unwrap();
        cold.run_to(warm.cycle()).unwrap();
        let cold = cold.snapshot();
        assert!(matches!(first_divergence(&warm, &warm, 10), Ok(None)));
        let Err(e) = first_divergence(&cold, &warm, 10) else {
            panic!("a cycle-exact and a functional snapshot are not bisected");
        };
        assert!(
            matches!(
                e,
                BisectError::MixedEngines(Engine::CycleExact, Engine::Functional)
            ),
            "{e}"
        );
        let msg = e.to_string();
        assert!(
            msg.contains("cycle-exact") && msg.contains("functional"),
            "{msg}"
        );
    }
}
