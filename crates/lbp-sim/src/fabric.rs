//! The inter-core fork/join fabric: the forward links and the backward
//! line of the paper's Fig. 9.
//!
//! Every core is directly connected to its successor (forward link, blue
//! arrows): hart allocations, continuation-value writes, start addresses
//! and ending-hart signals ride it. A unidirectional backward line (magenta
//! arrows) relays messages hop by hop toward any predecessor core: join
//! addresses, fork replies, cv-write acks, and `p_swre` results/reductions.
//! Each segment moves one message per cycle, FIFO — deterministic.

use crate::msg::CoreMsg;
use crate::queues::Queues;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};

/// The forward links and backward line of a `cores`-core machine.
#[derive(Debug)]
pub struct Fabric {
    cores: u32,
    /// `fwd[i]`: queue of messages traversing the link core i → core i+1.
    fwd: Queues<CoreMsg>,
    /// `bwd[i]`: queue of messages traversing the segment core i+1 → core i.
    bwd: Queues<CoreMsg>,
    /// Messages delivered to each core this cycle, handed to its harts by
    /// `Machine::deliver`.
    pub(crate) inbox: Queues<CoreMsg>,
    /// The messages one direction moves in a `tick`, between the move and
    /// the routing; empty outside it, kept for its capacity.
    moved: Vec<(usize, CoreMsg)>,
    /// Total messages that crossed any segment (statistics).
    pub hops: u64,
    /// Message-cycles lost to segment contention: each cycle, every
    /// message left waiting behind the one a segment carried adds one.
    pub contended: u64,
    /// Messages accepted so far (the ordinal the fault plan indexes).
    sent: u64,
    /// Ordinals of messages the fault plan discards.
    drop_nth: Vec<u64>,
    /// `(ordinal, extra cycles)` of messages the fault plan holds back.
    delay_nth: Vec<(u64, u32)>,
    /// Held-back messages: `(cycles left, from_core, message)`.
    delayed: Vec<(u32, u32, CoreMsg)>,
    /// Drop/delay faults that actually fired.
    pub faults_applied: u64,
}

impl Fabric {
    /// Builds the fabric for `cores` cores.
    pub fn new(cores: usize) -> Fabric {
        let links = cores.saturating_sub(1);
        Fabric {
            cores: cores as u32,
            fwd: Queues::new(links),
            bwd: Queues::new(links),
            inbox: Queues::new(cores),
            // At most one message per link moves in a direction.
            moved: Vec::with_capacity(links),
            hops: 0,
            contended: 0,
            sent: 0,
            drop_nth: Vec::new(),
            delay_nth: Vec::new(),
            delayed: Vec::new(),
            faults_applied: 0,
        }
    }

    /// Installs the link-fault schedule (from the machine's fault plan):
    /// message ordinals to drop and ordinals to hold back.
    pub fn set_faults(&mut self, drop_nth: Vec<u64>, delay_nth: Vec<(u64, u32)>) {
        self.drop_nth = drop_nth;
        self.delay_nth = delay_nth;
    }

    /// Sends a message from `from_core`. Forward messages may only target
    /// the immediate successor; backward messages any predecessor.
    /// Same-core messages are delivered next cycle through the inbox
    /// (modelling the one-cycle intra-core signal path).
    ///
    /// # Panics
    ///
    /// Panics if a forward message skips past the immediate successor
    /// (LBP's forward links only connect neighbours).
    pub fn send(&mut self, from_core: u32, msg: CoreMsg) {
        let nth = self.sent;
        self.sent += 1;
        if self.drop_nth.contains(&nth) {
            self.faults_applied += 1;
            return;
        }
        if let Some(&(_, cycles)) = self.delay_nth.iter().find(|&&(n, _)| n == nth) {
            self.faults_applied += 1;
            self.delayed.push((cycles, from_core, msg));
            return;
        }
        self.enqueue(from_core, msg);
    }

    /// Places a message on its link (the fault-free path of `send`, also
    /// used to release delayed messages without re-counting them).
    fn enqueue(&mut self, from_core: u32, msg: CoreMsg) {
        let dest = msg.dest_core();
        assert!(
            dest < self.cores,
            "message to core {dest} beyond the last core ({})",
            self.cores
        );
        if dest == from_core {
            // One-cycle local loop: stage on the (empty) path below.
            self.inbox.push(dest as usize, msg);
        } else if dest > from_core {
            assert!(
                dest == from_core + 1,
                "forward link only reaches the next core (from {from_core} to {dest})"
            );
            self.fwd.push(from_core as usize, msg);
        } else {
            // Backward: enter the segment just below `from_core`.
            self.bwd.push((from_core - 1) as usize, msg);
        }
    }

    /// Advances every link segment that holds a message by one cycle.
    pub fn tick(&mut self) {
        let mut moved = std::mem::take(&mut self.moved);
        // Forward links: delivered to the successor core.
        self.contended += self.fwd.advance(&mut moved);
        self.hops += moved.len() as u64;
        for (i, msg) in moved.drain(..) {
            self.inbox.push(i + 1, msg);
        }
        // Backward line: a message not yet at its destination re-enters
        // the next segment down, which has moved its message this cycle,
        // so the relayed one waits there until the next.
        self.contended += self.bwd.advance(&mut moved);
        self.hops += moved.len() as u64;
        for (i, msg) in moved.drain(..) {
            if msg.dest_core() == i as u32 {
                self.inbox.push(i, msg);
            } else {
                self.bwd.push(i - 1, msg);
            }
        }
        self.moved = moved;
        // Release delayed messages whose hold expired onto their links.
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= 1 {
                let (_, from_core, msg) = self.delayed.remove(i);
                self.enqueue(from_core, msg);
            } else {
                self.delayed[i].0 -= 1;
                i += 1;
            }
        }
    }

    /// Serializes the fault schedule and its bookkeeping (snapshot
    /// *static* section: part of the plan, not of the execution state).
    pub(crate) fn snap_static(&self, w: &mut SnapWriter) {
        w.seq(self.drop_nth.len());
        for &n in &self.drop_nth {
            w.u64(n);
        }
        w.seq(self.delay_nth.len());
        for &(n, cycles) in &self.delay_nth {
            w.u64(n);
            w.u32(cycles);
        }
        w.u64(self.faults_applied);
    }

    /// Reads back what [`Fabric::snap_static`] wrote.
    #[allow(clippy::type_complexity)]
    pub(crate) fn unsnap_static(
        r: &mut SnapReader<'_>,
    ) -> Result<(Vec<u64>, Vec<(u64, u32)>, u64), SnapError> {
        let mut drop_nth = Vec::new();
        for _ in 0..r.seq()? {
            drop_nth.push(r.u64()?);
        }
        let mut delay_nth = Vec::new();
        for _ in 0..r.seq()? {
            delay_nth.push((r.u64()?, r.u32()?));
        }
        let faults_applied = r.u64()?;
        Ok((drop_nth, delay_nth, faults_applied))
    }

    /// Serializes the execution-determined state: every queued, delivered
    /// and delayed message plus the traffic counters (snapshot *dynamic*
    /// section).
    pub(crate) fn snap_dyn(&self, w: &mut SnapWriter) {
        w.u32(self.cores);
        for queues in [&self.fwd, &self.bwd, &self.inbox] {
            w.seq(queues.queues());
            queues.snap(w, CoreMsg::snap);
        }
        w.u64(self.hops);
        w.u64(self.contended);
        w.u64(self.sent);
        w.seq(self.delayed.len());
        for &(left, from, msg) in &self.delayed {
            w.u32(left);
            w.u32(from);
            msg.snap(w);
        }
    }

    /// Rebuilds the fabric of a `cores`-core machine from its dynamic
    /// section plus the fault schedule recovered by
    /// [`Fabric::unsnap_static`].
    pub(crate) fn unsnap_dyn(
        r: &mut SnapReader<'_>,
        cores: usize,
        drop_nth: Vec<u64>,
        delay_nth: Vec<(u64, u32)>,
        faults_applied: u64,
    ) -> Result<Fabric, SnapError> {
        let held = r.u32()?;
        if held as usize != cores {
            return Err(SnapError::Corrupt(format!(
                "fabric has {held} cores, configuration says {cores}"
            )));
        }
        let mut f = Fabric::new(cores);
        for (queues, what) in [
            (&mut f.fwd, "forward queues"),
            (&mut f.bwd, "backward queues"),
            (&mut f.inbox, "inboxes"),
        ] {
            let (n, expect) = (r.seq()?, queues.queues());
            if n != expect {
                return Err(SnapError::Corrupt(format!(
                    "fabric has {n} {what}, expected {expect}"
                )));
            }
            *queues = Queues::unsnap(r, n, CoreMsg::unsnap)?;
        }
        f.hops = r.u64()?;
        f.contended = r.u64()?;
        f.sent = r.u64()?;
        for _ in 0..r.seq()? {
            f.delayed.push((r.u32()?, r.u32()?, CoreMsg::unsnap(r)?));
        }
        f.set_faults(drop_nth, delay_nth);
        f.faults_applied = faults_applied;
        Ok(f)
    }

    /// Whether nothing is in flight: no message on any segment, in any
    /// inbox, or held back by a delay fault.
    pub fn is_quiet(&self) -> bool {
        self.fwd.is_empty()
            && self.bwd.is_empty()
            && self.inbox.is_empty()
            && self.delayed.is_empty()
    }

    /// Describes every in-flight message with its location (crash dumps).
    pub fn pending(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, q) in self.fwd.iter().enumerate() {
            for msg in q {
                out.push(format!("{} on forward link {i}->{}", msg.describe(), i + 1));
            }
        }
        for (i, q) in self.bwd.iter().enumerate() {
            for msg in q {
                out.push(format!(
                    "{} on backward segment {}->{i}",
                    msg.describe(),
                    i + 1
                ));
            }
        }
        for (core, inbox) in self.inbox.iter().enumerate() {
            for msg in inbox {
                out.push(format!("{} in core {core}'s inbox", msg.describe()));
            }
        }
        for (left, _, msg) in &self.delayed {
            out.push(format!(
                "{} held by a delay fault ({left} cycles left)",
                msg.describe()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_isa::HartId;

    /// The messages delivered to `core` this cycle, taken out of its inbox.
    fn take_inbox(f: &mut Fabric, core: u32) -> Vec<CoreMsg> {
        let mut out = Vec::new();
        f.inbox.drain_into(core as usize, &mut out);
        out
    }

    fn join_to(core: u32) -> CoreMsg {
        CoreMsg::Join {
            to: HartId::from_parts(core, 0),
            pc: 0x40,
        }
    }

    #[test]
    fn forward_delivery_takes_one_cycle() {
        let mut f = Fabric::new(4);
        f.send(
            0,
            CoreMsg::Start {
                to: HartId::from_parts(1, 0),
                pc: 0x10,
            },
        );
        assert!(take_inbox(&mut f, 1).is_empty());
        f.tick();
        assert_eq!(take_inbox(&mut f, 1).len(), 1);
    }

    #[test]
    fn backward_line_is_hop_by_hop() {
        let mut f = Fabric::new(8);
        f.send(5, join_to(1));
        for _ in 0..3 {
            f.tick();
            assert!(take_inbox(&mut f, 1).is_empty());
        }
        f.tick();
        assert_eq!(take_inbox(&mut f, 1).len(), 1);
    }

    #[test]
    fn backward_segments_carry_one_message_per_cycle() {
        let mut f = Fabric::new(4);
        f.send(2, join_to(0));
        f.send(2, join_to(0));
        f.tick(); // msg1 on segment 1->0, msg2 waits
        f.tick(); // msg1 delivered, msg2 crosses 2->1... (FIFO per segment)
        assert_eq!(take_inbox(&mut f, 0).len(), 1);
        f.tick();
        assert_eq!(take_inbox(&mut f, 0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "forward link only reaches the next core")]
    fn forward_skip_is_rejected() {
        let mut f = Fabric::new(4);
        f.send(
            0,
            CoreMsg::Start {
                to: HartId::from_parts(2, 0),
                pc: 0,
            },
        );
    }

    #[test]
    fn same_core_messages_loop_locally() {
        let mut f = Fabric::new(2);
        f.send(1, join_to(1));
        assert_eq!(take_inbox(&mut f, 1).len(), 1);
    }

    fn result_to(core: u32, value: u32) -> CoreMsg {
        CoreMsg::Result {
            to: HartId::from_parts(core, 0),
            slot: 0,
            value,
        }
    }

    /// Backward result-line backpressure, cycle by cycle: a burst of
    /// `p_swre` results from the last core of a 4-core machine drains
    /// through the final segment at exactly one message per cycle, in
    /// FIFO order.
    #[test]
    fn result_burst_drains_one_per_cycle_in_order() {
        let mut f = Fabric::new(4);
        for v in 0..5u32 {
            f.send(3, result_to(0, v));
        }
        // Two segments (3->2->1) of pipeline fill before the first
        // delivery off segment 1->0.
        f.tick();
        assert!(take_inbox(&mut f, 0).is_empty());
        f.tick();
        assert!(take_inbox(&mut f, 0).is_empty());
        for v in 0..5u32 {
            f.tick();
            let inbox = take_inbox(&mut f, 0);
            assert_eq!(inbox.len(), 1, "exactly one delivery per cycle");
            match inbox[0] {
                CoreMsg::Result { value, .. } => assert_eq!(value, v, "FIFO order preserved"),
                ref m => panic!("unexpected message {}", m.describe()),
            }
        }
        assert!(f.is_quiet());
    }

    /// A message relayed down the backward line queues *behind* traffic
    /// already waiting on the next segment — arbitration is
    /// deterministic when a through-message meets local senders.
    #[test]
    fn relayed_messages_queue_behind_local_senders() {
        let mut f = Fabric::new(3);
        // Core 2's result must cross segments 2->1 and 1->0; core 1
        // injects directly onto segment 1->0 in the same cycle.
        f.send(2, result_to(0, 22));
        f.send(1, result_to(0, 11));
        f.tick(); // local 11 crosses 1->0; 22 crosses 2->1, relays behind
        let first = take_inbox(&mut f, 0);
        assert_eq!(first.len(), 1);
        assert!(matches!(first[0], CoreMsg::Result { value: 11, .. }));
        f.tick();
        let second = take_inbox(&mut f, 0);
        assert_eq!(second.len(), 1);
        assert!(matches!(second[0], CoreMsg::Result { value: 22, .. }));
    }

    /// Forward links are also 1 message per cycle: a fork burst from
    /// core 0 reaches core 1 one message per tick.
    #[test]
    fn forward_link_serializes_a_fork_burst() {
        let mut f = Fabric::new(2);
        for _ in 0..3 {
            f.send(
                0,
                CoreMsg::ForkReq {
                    from: HartId::from_parts(0, 0),
                },
            );
        }
        for _ in 0..3 {
            f.tick();
            assert_eq!(take_inbox(&mut f, 1).len(), 1);
        }
        assert!(f.is_quiet());
    }

    /// The contention counter charges one message-cycle per message left
    /// waiting behind a busy segment — the backpressure statistic the
    /// stall attribution reports.
    #[test]
    fn contention_counter_charges_waiting_messages() {
        let mut f = Fabric::new(2);
        for v in 0..3u32 {
            f.send(1, result_to(0, v));
        }
        assert_eq!(f.contended, 0);
        f.tick(); // carries one; two left waiting
        assert_eq!(f.contended, 2);
        f.tick(); // carries one; one left waiting
        assert_eq!(f.contended, 3);
        f.tick(); // carries the last; nothing waits
        assert_eq!(f.contended, 3);
        assert_eq!(f.hops, 3);
    }

    /// Opposite directions never share bandwidth: a forward start and a
    /// backward join on the same core pair both deliver on cycle one.
    #[test]
    fn forward_and_backward_are_independent_lanes() {
        let mut f = Fabric::new(2);
        f.send(
            0,
            CoreMsg::Start {
                to: HartId::from_parts(1, 0),
                pc: 0x10,
            },
        );
        f.send(1, join_to(0));
        f.tick();
        assert_eq!(take_inbox(&mut f, 0).len(), 1);
        assert_eq!(take_inbox(&mut f, 1).len(), 1);
    }
}
