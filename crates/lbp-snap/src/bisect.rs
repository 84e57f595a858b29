//! Divergence bisection over checkpoints.
//!
//! Given two machines whose evolutions are *expected* to differ — e.g. a
//! clean run and one with an injected fault, or the two replicas of a
//! lockstep pair that reported a late divergence — the bisector finds the
//! **first cycle** where their dynamic states part ways without replaying
//! either run cycle-by-cycle from reset: a coarse scan advances both
//! machines `stride` cycles at a time comparing snapshots, then the last
//! interval that started equal is replayed one cycle at a time, and the
//! divergent cycle is replayed once more with tracing on to name the
//! first differing event (typically the corrupted commit or the dropped
//! message's missing delivery).
//!
//! Snapshots compare by their *dynamic* section only
//! ([`MachineState::dynamic_bytes`]), so two machines that differ in
//! configuration-level fault plans — but not yet in behaviour — are
//! still "equal". The one static fact that does matter is checked first:
//! both starting states must descend from the same [`Engine`], for a
//! functional clock cannot be lined up against a pipeline's.

use lbp_sim::{Engine, Machine, MachineState, SnapError, Trace};

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
    /// A state failed to restore, or the replay did not reproduce what
    /// the coarse scan saw.
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

/// One machine being stepped through the bisection, with its last
/// captured state and run status.
struct Stepper {
    machine: Machine,
    /// `running`, `exited`, or `error: …` — once a machine errors it is
    /// frozen and keeps reporting the same outcome.
    outcome: String,
}

impl Stepper {
    fn restore(state: &MachineState) -> Result<Stepper, SnapError> {
        Ok(Stepper {
            machine: Machine::restore(state)?,
            outcome: "running".to_owned(),
        })
    }

    /// Advances to `target` cycles (or exit/error, whichever first).
    fn advance(&mut self, target: u64) {
        if self.outcome.starts_with("error") {
            return;
        }
        match self.machine.run_to(target) {
            Ok(true) => self.outcome = "exited".to_owned(),
            Ok(false) => self.outcome = "running".to_owned(),
            Err(failure) => self.outcome = format!("error: {}", failure.error),
        }
    }
}

/// Advances both steppers to `target` and snapshots each once: the two
/// states while the runs still evolve identically, `None` once they part.
fn advance_both(
    a: &mut Stepper,
    b: &mut Stepper,
    target: u64,
) -> Option<(MachineState, MachineState)> {
    a.advance(target);
    b.advance(target);
    let (sa, sb) = (a.machine.snapshot(), b.machine.snapshot());
    (a.outcome == b.outcome && sa.dynamic_bytes() == sb.dynamic_bytes()).then_some((sa, sb))
}

/// Finds the first cycle at which two runs diverge, comparing their
/// dynamic state after every cycle.
///
/// `a0` and `b0` are starting checkpoints taken **at the same cycle** of
/// two runs believed identical up to that point (cycle-0 snapshots of two
/// freshly built machines are the common case). Both runs are advanced up
/// to `a0.cycle() + max_cycles`; `stride` controls the coarse scan's
/// checkpoint spacing (clamped to at least 1).
///
/// Returns `None` when the runs never diverge within the budget — they
/// stayed state-identical every `stride` cycles and ended with the same
/// outcome.
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
    stride: u64,
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
    let stride = stride.max(1);
    let start = a0.cycle();
    let end = start.saturating_add(max_cycles);
    let mut a = Stepper::restore(a0)?;
    let mut b = Stepper::restore(b0)?;
    // Coarse scan: advance both by `stride`, remembering the last cycle
    // where the states still matched.
    let mut last_equal = (a0.clone(), b0.clone());
    let mut cursor = start;
    loop {
        if cursor >= end {
            return Ok(None); // budget exhausted, still in sync
        }
        let target = (cursor + stride).min(end);
        let Some(states) = advance_both(&mut a, &mut b, target) else {
            break; // diverged somewhere in (cursor, target]
        };
        if a.outcome != "running" {
            return Ok(None); // both finished identically
        }
        last_equal = states;
        cursor = target;
    }
    // Fine scan: replay the guilty interval one cycle at a time from the
    // last equal checkpoint.
    let mut a = Stepper::restore(&last_equal.0)?;
    let mut b = Stepper::restore(&last_equal.1)?;
    let mut cycle = last_equal.0.cycle();
    let mut before = last_equal;
    loop {
        cycle += 1;
        let Some(states) = advance_both(&mut a, &mut b, cycle) else {
            let (event_a, event_b) = divergent_events(&before.0, &before.1, cycle)?;
            return Ok(Some(DivergencePoint {
                cycle,
                event_a,
                event_b,
                outcome_a: a.outcome,
                outcome_b: b.outcome,
            }));
        };
        if a.outcome != "running" {
            // The coarse scan saw a divergence but the replay reached the
            // same common end: impossible for a deterministic machine.
            return Err(SnapError::Corrupt(
                "replayed interval did not reproduce the divergence — \
                 the machine is not deterministic"
                    .to_owned(),
            )
            .into());
        }
        before = states;
    }
}

/// Replays the single divergent cycle with tracing on and returns the
/// first event each machine produces that the other does not.
fn divergent_events(
    a_before: &MachineState,
    b_before: &MachineState,
    cycle: u64,
) -> Result<(Option<String>, Option<String>), SnapError> {
    let trace_one = |state: &MachineState| -> Result<Vec<lbp_sim::Event>, SnapError> {
        let mut m = Machine::restore(state)?;
        m.set_sink(Box::new(Trace::new()));
        let _ = m.run_to(cycle); // errors still leave the partial trace
        let trace = m.sink::<Trace>().expect("the sink attached above");
        Ok(trace.events().to_vec())
    };
    let ea = trace_one(a_before)?;
    let eb = trace_one(b_before)?;
    let split = ea.iter().zip(eb.iter()).take_while(|(x, y)| x == y).count();
    Ok((
        ea.get(split).map(lbp_sim::Event::describe),
        eb.get(split).map(lbp_sim::Event::describe),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_sim::{Fault, FaultPlan, LbpConfig, Machine};

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
        assert!(first_divergence(&a, &b, 100_000, 16).unwrap().is_none());
    }

    #[test]
    fn fault_is_located_at_its_trigger_cycle() {
        let a = machine(&[]).snapshot();
        let b = machine(&["flip-mem:0x80000000:3:10"]).snapshot();
        let d = first_divergence(&a, &b, 100_000, 16)
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
            first_divergence(&a, &m.snapshot(), 100, 4),
            Err(BisectError::DifferentCycles(0, 3))
        ));
        let mut b = machine(&["flip-mem:0x80000000:3:1"]);
        b.run_to(3).unwrap();
        assert!(matches!(
            first_divergence(&m.snapshot(), &b.snapshot(), 100, 4),
            Err(BisectError::AlreadyDiffer)
        ));
    }
}
