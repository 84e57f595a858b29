//! The inter-core fork/join fabric: the forward links and the backward
//! line of the paper's Fig. 9.
//!
//! Every core is directly connected to its successor (forward link, blue
//! arrows): hart allocations, continuation-value writes, start addresses
//! and ending-hart signals ride it. A unidirectional backward line (magenta
//! arrows) relays messages hop by hop toward any predecessor core: join
//! addresses, fork replies, cv-write acks, and `p_swre` results/reductions.
//! Each segment moves one message per cycle, FIFO — deterministic.

use std::collections::VecDeque;

use crate::index_set::{members, IndexSet};
use crate::msg::{CoreMsg, QUEUE_DEPTH};
use crate::snapshot::{SnapError, SnapReader, SnapWriter};

/// The forward links and backward line of a `cores`-core machine.
#[derive(Debug)]
pub struct Fabric {
    cores: u32,
    /// `fwd[i]`: queue of messages traversing the link core i → core i+1.
    fwd: Vec<VecDeque<CoreMsg>>,
    /// `bwd[i]`: queue of messages traversing the segment core i+1 → core i.
    bwd: Vec<VecDeque<CoreMsg>>,
    /// Messages delivered to each core this cycle.
    inbox: Vec<Vec<CoreMsg>>,
    /// The queues of `fwd`, `bwd` and `inbox` that hold a message.
    /// Derived from them (rebuilt on restore): what `tick` and the
    /// machine's delivery walk.
    fwd_busy: IndexSet,
    bwd_busy: IndexSet,
    inbox_busy: IndexSet,
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
        let cores = cores as u32;
        let links = cores.saturating_sub(1) as usize;
        Fabric {
            cores,
            fwd: (0..links)
                .map(|_| VecDeque::with_capacity(QUEUE_DEPTH))
                .collect(),
            bwd: (0..links)
                .map(|_| VecDeque::with_capacity(QUEUE_DEPTH))
                .collect(),
            inbox: (0..cores)
                .map(|_| Vec::with_capacity(QUEUE_DEPTH))
                .collect(),
            fwd_busy: IndexSet::new(links),
            bwd_busy: IndexSet::new(links),
            inbox_busy: IndexSet::new(cores as usize),
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
            self.put_in_inbox(dest as usize, msg);
        } else if dest > from_core {
            assert!(
                dest == from_core + 1,
                "forward link only reaches the next core (from {from_core} to {dest})"
            );
            self.fwd[from_core as usize].push_back(msg);
            self.fwd_busy.insert(from_core as usize);
        } else {
            // Backward: enter the segment just below `from_core`.
            self.bwd[(from_core - 1) as usize].push_back(msg);
            self.bwd_busy.insert((from_core - 1) as usize);
        }
    }

    fn put_in_inbox(&mut self, core: usize, msg: CoreMsg) {
        self.inbox[core].push(msg);
        self.inbox_busy.insert(core);
    }

    /// The `w`-th 64 cores with a message in their inbox, one bit each.
    pub fn inbox_word(&self, w: usize) -> u64 {
        self.inbox_busy.word(w)
    }

    /// Moves the messages delivered to a core this cycle to the end of
    /// `out`; the inbox keeps its capacity.
    pub fn drain_inbox(&mut self, core: u32, out: &mut Vec<CoreMsg>) {
        out.append(&mut self.inbox[core as usize]);
        self.inbox_busy.remove(core as usize);
    }

    /// Advances every link segment that holds a message by one cycle.
    pub fn tick(&mut self) {
        // Forward links: one message per segment per cycle, delivered to
        // the successor core.
        for w in 0..self.fwd_busy.words() {
            for i in members(w, self.fwd_busy.word(w)) {
                let msg = self.fwd[i]
                    .pop_front()
                    .expect("a busy link holds a message");
                self.hops += 1;
                self.contended += self.fwd[i].len() as u64;
                if self.fwd[i].is_empty() {
                    self.fwd_busy.remove(i);
                }
                self.put_in_inbox(i + 1, msg);
            }
        }
        // Backward line: one message per segment per cycle; a message not
        // yet at its destination re-enters the next segment down. That
        // segment has already moved its message this cycle (segments go in
        // ascending order), so the relayed one waits there until the next.
        for w in 0..self.bwd_busy.words() {
            for i in members(w, self.bwd_busy.word(w)) {
                let msg = self.bwd[i]
                    .pop_front()
                    .expect("a busy link holds a message");
                self.hops += 1;
                self.contended += self.bwd[i].len() as u64;
                if self.bwd[i].is_empty() {
                    self.bwd_busy.remove(i);
                }
                if msg.dest_core() == i as u32 {
                    self.put_in_inbox(i, msg);
                } else {
                    self.bwd[i - 1].push_back(msg);
                    self.bwd_busy.insert(i - 1);
                }
            }
        }
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
        w.seq(self.fwd.len());
        for q in &self.fwd {
            w.seq(q.len());
            for msg in q {
                msg.snap(w);
            }
        }
        w.seq(self.bwd.len());
        for q in &self.bwd {
            w.seq(q.len());
            for msg in q {
                msg.snap(w);
            }
        }
        w.seq(self.inbox.len());
        for inbox in &self.inbox {
            w.seq(inbox.len());
            for msg in inbox {
                msg.snap(w);
            }
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

    /// Rebuilds the fabric from its dynamic section plus the fault
    /// schedule recovered by [`Fabric::unsnap_static`].
    pub(crate) fn unsnap_dyn(
        r: &mut SnapReader<'_>,
        drop_nth: Vec<u64>,
        delay_nth: Vec<(u64, u32)>,
        faults_applied: u64,
    ) -> Result<Fabric, SnapError> {
        let cores = r.u32()?;
        let links = cores.saturating_sub(1) as usize;
        let read_queues = |r: &mut SnapReader<'_>, expect: usize, what: &str| {
            let n = r.seq()?;
            if n != expect {
                return Err(SnapError::Corrupt(format!(
                    "fabric has {n} {what} queues, expected {expect}"
                )));
            }
            let mut queues = Vec::with_capacity(n);
            for _ in 0..n {
                let mut q = VecDeque::new();
                for _ in 0..r.seq()? {
                    q.push_back(CoreMsg::unsnap(r)?);
                }
                queues.push(q);
            }
            Ok(queues)
        };
        let fwd = read_queues(r, links, "forward")?;
        let bwd = read_queues(r, links, "backward")?;
        let inboxes = r.seq()?;
        if inboxes != cores as usize {
            return Err(SnapError::Corrupt(format!(
                "fabric has {inboxes} inboxes, expected {cores}"
            )));
        }
        let mut inbox = Vec::with_capacity(inboxes);
        for _ in 0..inboxes {
            let mut msgs = Vec::new();
            for _ in 0..r.seq()? {
                msgs.push(CoreMsg::unsnap(r)?);
            }
            inbox.push(msgs);
        }
        let hops = r.u64()?;
        let contended = r.u64()?;
        let sent = r.u64()?;
        let mut delayed = Vec::new();
        for _ in 0..r.seq()? {
            delayed.push((r.u32()?, r.u32()?, CoreMsg::unsnap(r)?));
        }
        Ok(Fabric {
            cores,
            fwd_busy: IndexSet::from_fn(links, |i| !fwd[i].is_empty()),
            bwd_busy: IndexSet::from_fn(links, |i| !bwd[i].is_empty()),
            inbox_busy: IndexSet::from_fn(inboxes, |c| !inbox[c].is_empty()),
            fwd,
            bwd,
            inbox,
            hops,
            contended,
            sent,
            drop_nth,
            delay_nth,
            delayed,
            faults_applied,
        })
    }

    /// Whether nothing is in flight: no message on any segment, in any
    /// inbox, or held back by a delay fault.
    pub fn is_quiet(&self) -> bool {
        self.fwd_busy.is_empty()
            && self.bwd_busy.is_empty()
            && self.inbox_busy.is_empty()
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
        f.drain_inbox(core, &mut out);
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
