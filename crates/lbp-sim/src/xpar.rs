//! The X_PAR rulebook (paper §4), written once for both engines: where a
//! fork, a start pc, a `p_swcv`, a `p_swre` or a join may go, which state
//! a hart must be in to receive one, and which ending a `p_ret` takes.
//! The pipeline and the functional engine time and deliver the messages
//! their own way; a program that breaks a rule gets the same [`SimError`]
//! from both, built out of line by one `#[cold]` constructor.

use std::collections::VecDeque;
use std::fmt;

use lbp_isa::{HartId, IdentityWord};

use crate::error::SimError;
use crate::hart::HartState;

/// Whether a hart-to-hart message from `from` reaches `to`: the core line
/// links a core to itself and to the next one only.
fn in_reach(from: HartId, to: HartId, cores: usize) -> bool {
    let here = from.core();
    to.core() == here || (to.core() == here + 1 && (to.core() as usize) < cores)
}

/// The core a `p_fn` of `from` asks for a hart: the next one.
pub(crate) fn fork_next(from: HartId, cores: usize) -> Result<u32, SimError> {
    let next = from.core() + 1;
    if next as usize >= cores {
        let what = format_args!("p_fn on the last core: the core line does not wrap");
        return Err(violation(from, what));
    }
    Ok(next)
}

/// The hart a `p_jal`/`p_jalr` with identity word `rs1` starts: the
/// allocated hart, which must be in reach.
pub(crate) fn start_target(from: HartId, rs1: u32, cores: usize) -> Result<HartId, SimError> {
    let to = IdentityWord::from_bits(rs1).allocated_hart();
    if !in_reach(from, to, cores) {
        let what = format_args!("start pc sent to hart {to}, which is neither local nor next-core");
        return Err(violation(from, what));
    }
    Ok(to)
}

/// The hart a `p_swcv` with identity word `rs1` writes to: the
/// allocated hart, on this core or the next.
pub(crate) fn cv_target(from: HartId, rs1: u32, cores: usize) -> Result<HartId, SimError> {
    let to = IdentityWord::from_bits(rs1).allocated_hart();
    if !in_reach(from, to, cores) {
        let what = format_args!("p_swcv to hart {to}, which is neither on this core nor the next");
        return Err(violation(from, what));
    }
    Ok(to)
}

/// The hart a `p_swre` with identity word `rs1` sends to: its join hart,
/// which the backward line reaches only if it does not follow `from`.
pub(crate) fn result_target(from: HartId, rs1: u32) -> Result<HartId, SimError> {
    let to = IdentityWord::from_bits(rs1).join_hart();
    if to.core() > from.core() {
        let what = format_args!(
            "p_swre to hart {to}, which follows this core: the backward line cannot send \
             data forward in the sequential order"
        );
        return Err(violation(from, what));
    }
    Ok(to)
}

/// Checks that a type-4 join address goes backward, like a result.
pub(crate) fn join_target(from: HartId, to: HartId) -> Result<(), SimError> {
    if to.core() > from.core() {
        let what = format_args!("join address sent forward to hart {to}");
        return Err(violation(from, what));
    }
    Ok(())
}

/// Sets hart `to` running at `pc`, which is a start pc if `want` is
/// `Reserved` (a fork reserved the hart) and a join address if it is
/// `WaitingJoin` (the hart waits in its `p_ret`): legal in that state only.
pub(crate) fn resume(
    to: HartId,
    state: &mut HartState,
    want: HartState,
    pc: u32,
) -> Result<(), SimError> {
    if *state != want {
        let message = if want == HartState::Reserved {
            "start pc"
        } else {
            "join address"
        };
        let what = format_args!("{message} {pc:#x} delivered to a hart in state {state:?}");
        return Err(violation(to, what));
    }
    *state = HartState::Running;
    Ok(())
}

/// The receive slot a `p_lwre`/`p_swre` offset names. One conversion, so
/// a slot of `-1` reads the same in a deadlock report and in an error.
pub(crate) fn slot(offset: i32) -> u32 {
    offset as u32
}

/// The receive queue `slot` of hart `to`, which must have one.
pub(crate) fn result_slot(
    recv: &mut [VecDeque<u32>],
    to: HartId,
    slot: u32,
) -> Result<&mut VecDeque<u32>, SimError> {
    recv.get_mut(slot as usize).ok_or_else(|| {
        violation(
            to,
            format_args!("p_swre to out-of-range result slot {slot}"),
        )
    })
}

/// The four endings of a committing `p_ret` (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ending {
    /// Type 3: `ra` = 0, `t0` = -1: the process exits.
    Exit,
    /// Type 2: `ra` = 0, the hart is its own join hart: it waits for a
    /// join address.
    AwaitJoin,
    /// Type 1: `ra` = 0 otherwise: the hart ends.
    End,
    /// Type 4: `ra` is a continuation sent backward to the join hart;
    /// the hart ends, or waits if `to` is itself.
    Join { to: HartId },
}

impl Ending {
    pub(crate) fn of(hart: HartId, ra: u32, t0: u32) -> Ending {
        let word = IdentityWord::from_bits(t0);
        if ra != 0 {
            Ending::Join {
                to: word.join_hart(),
            }
        } else if word.is_exit_sentinel() {
            Ending::Exit
        } else if word.joins_to(hart) {
            Ending::AwaitJoin
        } else {
            Ending::End
        }
    }
}

#[cold]
fn violation(hart: HartId, what: fmt::Arguments<'_>) -> SimError {
    SimError::Protocol {
        hart,
        what: what.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_four_endings() {
        let me = HartId::from_parts(1, 2);
        let other = HartId::from_parts(0, 3);
        let joins = |h: HartId| IdentityWord::from_bits(0).set(h).bits();
        assert_eq!(Ending::of(me, 0, u32::MAX), Ending::Exit);
        assert_eq!(Ending::of(me, 0, joins(me)), Ending::AwaitJoin);
        assert_eq!(Ending::of(me, 0, joins(other)), Ending::End);
        assert_eq!(
            Ending::of(me, 0x40, joins(other)),
            Ending::Join { to: other }
        );
        assert_eq!(Ending::of(me, 0x40, joins(me)), Ending::Join { to: me });
    }

    #[test]
    fn a_negative_slot_reads_the_same_everywhere() {
        let mut recv = vec![VecDeque::new(); 4];
        let err = result_slot(&mut recv, HartId::FIRST, slot(-1)).unwrap_err();
        assert!(err.to_string().ends_with("result slot 4294967295"), "{err}");
    }
}
