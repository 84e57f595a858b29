//! Ordered point-to-point channels — the paper's §8 perspective:
//! "a deterministic version of MPI could even be proposed, built around
//! ordered communicators where a sender always precedes its receiver(s)
//! (i.e. the sender rank is lower than all its receivers ranks)".
//!
//! A [`Channel`] carries one word from a team member to a *later* member
//! of the same region (rank order = member order = the sequential
//! referential order). The implementation needs no locks and no atomics:
//!
//! - the **sender** writes the value, drains its stores with `p_syncm`,
//!   and only then raises the flag word — so the value is globally
//!   visible strictly before the flag;
//! - the **receiver** polls the flag and reads the value through an
//!   address that *data-depends* on the flag it observed, so the
//!   out-of-order engine cannot hoist the value load above the
//!   successful poll.
//!
//! In a closed program even the polling durations replay exactly — the
//! channels preserve LBP's cycle determinism.
//!
//! (Values flowing *backward* in the order — receiver before sender —
//! are the job of the hardware `p_swre`/`p_lwre` path instead; the
//! paper's "a data cannot go back in time" rule is about joins, not
//! mailboxes, but this module keeps the MPI discipline: sender rank
//! below receiver rank.)

use lbp_asm::Asm;
use lbp_isa::{Instr, OpImmKind, OpKind, Reg};

/// Raises the flag word at `0(t5)` once the value stored before it has
/// landed, and lets the flag land before the hart goes on.
fn raise_flag(asm: &mut Asm) {
    asm.instr(Instr::PSyncm); // the value lands before the flag rises
    asm.li(Reg::T6, 1);
    asm.sw(Reg::T6, 0, Reg::T5);
    asm.instr(Instr::PSyncm); // the flag is visible before this hart ends
}

/// Polls the flag word at `0(t5)` into `dest` until it is set, then
/// loads the value word through an address that data-depends on it.
fn poll_then_load(asm: &mut Asm, poll: &str, dest: Reg) {
    asm.label(poll);
    asm.lw(dest, 0, Reg::T5);
    asm.beqz(dest, poll);
    // Address the value *through the observed flag* (flag == 1, so
    // t5 + 4*flag is the value word): the load data-depends on the
    // poll and cannot issue early.
    asm.op_imm(OpImmKind::Sll, Reg::T6, dest, 2);
    asm.op(OpKind::Add, Reg::T6, Reg::T6, Reg::T5);
    asm.lw(dest, 0, Reg::T6);
}

/// A single-shot one-word channel between two team members.
///
/// The channel owns an 8-byte shared mailbox: word 0 is the flag, word 1
/// the value. Each channel carries at most one message per parallel
/// region (re-arming would need a sequence-number protocol; the paper's
/// use cases — pipelines and reductions — are single-shot per region).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    symbol: String,
}

impl Channel {
    /// Declares a channel backed by the shared symbol `name` (the caller
    /// must reserve 8 bytes, e.g. `DetOmp::data_space(name, 8)`).
    pub fn new(name: impl Into<String>) -> Channel {
        Channel {
            symbol: name.into(),
        }
    }

    /// The backing symbol.
    pub fn symbol(&self) -> &str {
        &self.symbol
    }

    /// Emits the send of register `value_reg` (clobbers `t5`/`t6`).
    pub fn emit_send(&self, asm: &mut Asm, value_reg: Reg) {
        asm.comment(format!("send {value_reg} over channel {}", self.symbol));
        asm.la(Reg::T5, &self.symbol);
        asm.sw(value_reg, 4, Reg::T5);
        raise_flag(asm);
    }

    /// Emits the receive into `dest_reg` (clobbers `t5`/`t6` and
    /// `dest_reg`).
    pub fn emit_recv(&self, asm: &mut Asm, dest_reg: Reg) {
        // Channels are single-shot, so the symbol itself makes a unique
        // label even when stages are assembled by separate builders.
        let poll = format!("{}_poll", self.symbol);
        asm.comment(format!("receive {dest_reg} from channel {}", self.symbol));
        asm.la(Reg::T5, &self.symbol);
        poll_then_load(asm, &poll, dest_reg);
    }
}

/// A bounded streaming channel: `capacity` single-shot slots, addressed
/// by an index register — a producer loop sends item `i` into slot `i`,
/// a consumer loop receives them in order. The slot count bounds how far
/// the producer may run ahead (there is no backpressure; sizing the
/// channel to the message count, as pipelines do, is the intended use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamChannel {
    symbol: String,
    capacity: u32,
}

impl StreamChannel {
    /// Declares a stream of `capacity` slots backed by shared symbol
    /// `name` (reserve [`StreamChannel::data_bytes`] bytes for it).
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn new(name: impl Into<String>, capacity: u32) -> StreamChannel {
        assert!(capacity > 0, "a stream needs at least one slot");
        StreamChannel {
            symbol: name.into(),
            capacity,
        }
    }

    /// Bytes of shared memory the stream needs (8 per slot).
    pub fn data_bytes(&self) -> u32 {
        8 * self.capacity
    }

    /// The backing symbol.
    pub fn symbol(&self) -> &str {
        &self.symbol
    }

    /// Emits the send of `value_reg` into the slot selected by
    /// `index_reg` (clobbers `t5`/`t6`; `index_reg` is preserved).
    pub fn emit_send_indexed(&self, asm: &mut Asm, value_reg: Reg, index_reg: Reg) {
        asm.comment(format!(
            "send {value_reg} into {}[{index_reg}]",
            self.symbol
        ));
        self.slot_address(asm, index_reg);
        asm.sw(value_reg, 4, Reg::T5);
        raise_flag(asm);
    }

    /// `t5` = the address of slot `index_reg` (clobbers `t6`).
    fn slot_address(&self, asm: &mut Asm, index_reg: Reg) {
        asm.op_imm(OpImmKind::Sll, Reg::T5, index_reg, 3);
        asm.la(Reg::T6, &self.symbol);
        asm.op(OpKind::Add, Reg::T5, Reg::T5, Reg::T6);
    }

    /// Emits the receive of the slot selected by `index_reg` into
    /// `dest_reg` (clobbers `t5`/`t6`; `index_reg` is preserved). Emit at
    /// most once per program — put it inside the consuming loop.
    pub fn emit_recv_indexed(&self, asm: &mut Asm, dest_reg: Reg, index_reg: Reg) {
        let poll = format!("{}_rpoll", self.symbol);
        asm.comment(format!(
            "receive {dest_reg} from {}[{index_reg}]",
            self.symbol
        ));
        self.slot_address(asm, index_reg);
        poll_then_load(asm, &poll, dest_reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_emits_value_before_flag() {
        let mut a = Asm::new();
        Channel::new("ch").emit_send(&mut a, Reg::A2);
        let text = a.text();
        let value_pos = text.find("sw   a2, 4(t5)").expect("value store");
        let sync_pos = text.find("p_syncm").expect("fence");
        let flag_pos = text.find("sw   t6, 0(t5)").expect("flag store");
        assert!(value_pos < sync_pos && sync_pos < flag_pos);
    }

    #[test]
    fn recv_data_depends_on_the_flag() {
        let mut a = Asm::new();
        Channel::new("ch").emit_recv(&mut a, Reg::A3);
        let text = a.text();
        assert!(text.contains("slli t6, a3, 2"), "{text}");
        assert!(text.contains("lw   a3, 0(t6)"), "{text}");
    }
}
