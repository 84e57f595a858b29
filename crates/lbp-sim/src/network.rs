//! The hierarchical router interconnect (paper Figs. 13-15).
//!
//! Four cores share a level-one router (r1), four r1s share a level-two
//! router (r2), four r2s a level-three router (r3) — and the pattern is
//! "extensible" (paper §5.3): with more than 64 cores the hierarchy
//! simply grows another level, which models the paper's Fig. 15
//! multi-chip line sharing a last-level interconnect.
//!
//! Every directed link moves **one message per cycle**; contention queues
//! at the link in deterministic FIFO order, so the whole network is
//! cycle-reproducible. (The hardware has finite link buffers; the model
//! uses unbounded queues with identical 1-message-per-cycle-per-link
//! bandwidth, which preserves the contention behaviour the paper
//! evaluates.)

use std::collections::VecDeque;

use crate::index_set::{members, IndexSet};
use crate::msg::{NetMsg, QUEUE_DEPTH};
use crate::snapshot::{SnapError, SnapReader, SnapWriter};

/// Children per router at every level (cores per r1, r1s per r2, ...).
const FANOUT: u32 = 4;

/// A position in the hierarchy: `level` 0 = cores/banks, `level` 1 = r1
/// routers, and so on; `index` counts within the level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    level: u32,
    index: u32,
}

/// The destination endpoints attached below level 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Core(u32),
    Bank(u32),
}

/// One directed link with its FIFO queue.
#[derive(Debug)]
struct Edge {
    queue: VecDeque<NetMsg>,
    /// Where a message landing off this edge is processed.
    dest: Dest,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Router(Node),
    Deliver(Endpoint),
}

/// The memory network connecting cores to the distributed shared banks.
#[derive(Debug)]
pub struct Network {
    cores: u32,
    shared_bank_bytes: u32,
    #[cfg_attr(not(test), allow(dead_code))] // reported by levels(), used in tests
    levels: u32,
    /// Index of the first inter-router edge of each level (entry 0 unused).
    inter_base: Vec<usize>,
    /// Cores below one router of each level: `FANOUT.pow(level)`.
    subtree: Vec<u32>,
    edges: Vec<Edge>,
    /// Requests that arrived at each bank's network port.
    bank_inbox: Vec<VecDeque<NetMsg>>,
    /// Responses/acks that arrived back at each core.
    core_inbox: Vec<Vec<NetMsg>>,
    /// Messages on all of `edges`, the edges that hold one, and the bank
    /// and core inboxes that hold one. Derived from the queues (rebuilt on
    /// restore): what lets `tick` return at once, and what it, bank
    /// service and delivery walk.
    on_edges: usize,
    edge_busy: IndexSet,
    bank_busy: IndexSet,
    core_busy: IndexSet,
    /// The messages one `tick` moves, between its two phases; empty
    /// outside it, kept for its capacity.
    moved: Vec<(Dest, NetMsg)>,
    /// Total link traversals (for utilization statistics).
    pub hops: u64,
    /// Message-cycles lost to link contention: each cycle, every message
    /// left waiting behind the one a link carried adds one.
    pub contended: u64,
}

impl Network {
    /// Builds the hierarchy for `cores` cores: as many levels as needed
    /// so the top level has a single router (or none for 1-4 cores,
    /// where the single r1 *is* the top).
    pub fn new(cores: usize, shared_bank_bytes: u32) -> Network {
        let cores = cores as u32;
        // Routers per level; level 0 is the cores themselves.
        let mut routers = vec![cores];
        loop {
            let prev = *routers.last().expect("nonempty");
            let next = prev.div_ceil(FANOUT);
            routers.push(next);
            if next <= 1 {
                break;
            }
        }
        let levels = routers.len() as u32 - 1;
        let mut inter_base = vec![0; routers.len()];
        let mut base = (cores * 4) as usize;
        for level in 1..routers.len() {
            inter_base[level] = base;
            base += routers[level] as usize * 2;
        }
        // Level-0 <-> level-1 edges: core up, core down, bank req, bank
        // resp — four per core, in core order.
        let edge = |dest| Edge {
            queue: VecDeque::with_capacity(QUEUE_DEPTH),
            dest,
        };
        let mut edges = Vec::new();
        for c in 0..cores {
            let r1 = Node {
                level: 1,
                index: c / FANOUT,
            };
            edges.push(edge(Dest::Router(r1))); // core up
            edges.push(edge(Dest::Deliver(Endpoint::Core(c)))); // core down
            edges.push(edge(Dest::Deliver(Endpoint::Bank(c)))); // bank req
            edges.push(edge(Dest::Router(r1))); // bank resp
        }
        // Inter-router edges: one up and one down per router per level
        // boundary.
        for level in 1..levels {
            for i in 0..routers[level as usize] {
                let parent = Node {
                    level: level + 1,
                    index: i / FANOUT,
                };
                let child = Node { level, index: i };
                edges.push(edge(Dest::Router(parent))); // up
                edges.push(edge(Dest::Router(child))); // down
            }
        }
        Network {
            cores,
            shared_bank_bytes,
            levels,
            subtree: (0..routers.len() as u32).map(|l| FANOUT.pow(l)).collect(),
            inter_base,
            bank_inbox: (0..cores)
                .map(|_| VecDeque::with_capacity(QUEUE_DEPTH))
                .collect(),
            core_inbox: (0..cores)
                .map(|_| Vec::with_capacity(QUEUE_DEPTH))
                .collect(),
            on_edges: 0,
            edge_busy: IndexSet::new(edges.len()),
            bank_busy: IndexSet::new(cores as usize),
            core_busy: IndexSet::new(cores as usize),
            // At most one message per edge moves in a tick.
            moved: Vec::with_capacity(edges.len()),
            edges,
            hops: 0,
            contended: 0,
        }
    }

    /// Number of router levels (1 = r1 only, 3 = the paper's 64-core
    /// r1/r2/r3, 4 = the multi-chip Fig. 15 arrangement).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    // Edge numbering helpers (must mirror the construction above).

    fn e_core_up(&self, c: u32) -> usize {
        (c * 4) as usize
    }

    fn e_core_down(&self, c: u32) -> usize {
        (c * 4 + 1) as usize
    }

    fn e_bank_req(&self, b: u32) -> usize {
        (b * 4 + 2) as usize
    }

    fn e_bank_resp(&self, b: u32) -> usize {
        (b * 4 + 3) as usize
    }

    fn e_up(&self, node: Node) -> usize {
        self.inter_base[node.level as usize] + node.index as usize * 2
    }

    fn e_down(&self, node: Node) -> usize {
        self.inter_base[node.level as usize] + node.index as usize * 2 + 1
    }

    fn push_edge(&mut self, e: usize, msg: NetMsg) {
        self.edges[e].queue.push_back(msg);
        self.edge_busy.insert(e);
        self.on_edges += 1;
    }

    /// Injects a request from a core into the network (the core's
    /// up-link).
    pub fn send_from_core(&mut self, core: u32, msg: NetMsg) {
        self.push_edge(self.e_core_up(core), msg);
    }

    /// Injects a response from a bank's network port.
    pub fn send_from_bank(&mut self, bank: u32, msg: NetMsg) {
        self.push_edge(self.e_bank_resp(bank), msg);
    }

    /// The requests waiting at a bank's network port.
    pub fn bank_queue(&self, bank: u32) -> &VecDeque<NetMsg> {
        &self.bank_inbox[bank as usize]
    }

    /// The `w`-th 64 banks with a request at their network port, one bit
    /// each.
    pub fn bank_word(&self, w: usize) -> u64 {
        self.bank_busy.word(w)
    }

    /// Takes the oldest request waiting at a bank's network port.
    pub fn pop_bank(&mut self, bank: u32) -> Option<NetMsg> {
        let inbox = &mut self.bank_inbox[bank as usize];
        let msg = inbox.pop_front()?;
        if inbox.is_empty() {
            self.bank_busy.remove(bank as usize);
        }
        Some(msg)
    }

    /// The `w`-th 64 cores with a response in their inbox, one bit each.
    pub fn core_word(&self, w: usize) -> u64 {
        self.core_busy.word(w)
    }

    /// The responses delivered to a core this cycle.
    pub fn core_inbox(&self, core: u32) -> &[NetMsg] {
        &self.core_inbox[core as usize]
    }

    /// Empties a core's inbox, which keeps its capacity.
    pub fn clear_core_inbox(&mut self, core: u32) {
        self.core_inbox[core as usize].clear();
        self.core_busy.remove(core as usize);
    }

    /// Whether nothing is in flight: every link queue, bank port and core
    /// inbox is empty. Feeds the machine's quiescence-based deadlock
    /// detector.
    pub fn is_quiet(&self) -> bool {
        self.on_edges == 0 && self.bank_busy.is_empty() && self.core_busy.is_empty()
    }

    /// Messages currently travelling or queued anywhere in the hierarchy
    /// (crash dumps).
    pub fn in_flight(&self) -> usize {
        let banks = self.bank_inbox.iter().map(VecDeque::len);
        let cores = self.core_inbox.iter().map(Vec::len);
        self.on_edges + banks.chain(cores).sum::<usize>()
    }

    /// Advances every link by one cycle: each edge delivers at most one
    /// message one hop onward.
    pub fn tick(&mut self) {
        if self.on_edges == 0 {
            return;
        }
        // Phase 1: pop one message per occupied edge (the link's
        // bandwidth), in edge order. Nothing is pushed until phase 2.
        let mut moved = std::mem::take(&mut self.moved);
        for w in 0..self.edge_busy.words() {
            for i in members(w, self.edge_busy.word(w)) {
                let e = &mut self.edges[i];
                let msg = e.queue.pop_front().expect("a busy edge holds a message");
                moved.push((e.dest, msg));
                self.contended += e.queue.len() as u64;
                if e.queue.is_empty() {
                    self.edge_busy.remove(i);
                }
            }
        }
        self.hops += moved.len() as u64;
        self.on_edges -= moved.len();
        // Phase 2: route each message at the node it just reached.
        for (dest, msg) in moved.drain(..) {
            match dest {
                Dest::Deliver(Endpoint::Core(c)) => {
                    self.core_inbox[c as usize].push(msg);
                    self.core_busy.insert(c as usize);
                }
                Dest::Deliver(Endpoint::Bank(b)) => {
                    self.bank_inbox[b as usize].push_back(msg);
                    self.bank_busy.insert(b as usize);
                }
                Dest::Router(node) => self.route(node, msg),
            }
        }
        self.moved = moved;
    }

    /// Serializes the routing parameters and every in-flight message.
    /// The topology itself is not serialized — it is a pure function of
    /// `(cores, shared_bank_bytes)` and is rebuilt on restore, with the
    /// per-edge queues refilled in edge-index order.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u32(self.cores);
        w.u32(self.shared_bank_bytes);
        w.seq(self.edges.len());
        for e in &self.edges {
            w.seq(e.queue.len());
            for msg in &e.queue {
                msg.snap(w);
            }
        }
        w.seq(self.bank_inbox.len());
        for q in &self.bank_inbox {
            w.seq(q.len());
            for msg in q {
                msg.snap(w);
            }
        }
        w.seq(self.core_inbox.len());
        for inbox in &self.core_inbox {
            w.seq(inbox.len());
            for msg in inbox {
                msg.snap(w);
            }
        }
        w.u64(self.hops);
        w.u64(self.contended);
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<Network, SnapError> {
        let cores = r.u32()?;
        let shared_bank_bytes = r.u32()?;
        if cores == 0 {
            return Err(SnapError::Corrupt("network has zero cores".to_owned()));
        }
        let mut net = Network::new(cores as usize, shared_bank_bytes);
        let edges = r.seq()?;
        if edges != net.edges.len() {
            return Err(SnapError::Corrupt(format!(
                "network has {edges} edges, topology for {cores} cores has {}",
                net.edges.len()
            )));
        }
        for (i, e) in net.edges.iter_mut().enumerate() {
            for _ in 0..r.seq()? {
                e.queue.push_back(NetMsg::unsnap(r)?);
                net.edge_busy.insert(i);
            }
            net.on_edges += e.queue.len();
        }
        let banks = r.seq()?;
        if banks != net.bank_inbox.len() {
            return Err(SnapError::Corrupt(format!(
                "{banks} bank inboxes for {cores} cores"
            )));
        }
        for (b, q) in net.bank_inbox.iter_mut().enumerate() {
            for _ in 0..r.seq()? {
                q.push_back(NetMsg::unsnap(r)?);
                net.bank_busy.insert(b);
            }
        }
        let inboxes = r.seq()?;
        if inboxes != net.core_inbox.len() {
            return Err(SnapError::Corrupt(format!(
                "{inboxes} core inboxes for {cores} cores"
            )));
        }
        for (c, inbox) in net.core_inbox.iter_mut().enumerate() {
            for _ in 0..r.seq()? {
                inbox.push(NetMsg::unsnap(r)?);
                net.core_busy.insert(c);
            }
        }
        net.hops = r.u64()?;
        net.contended = r.u64()?;
        Ok(net)
    }

    /// The level-0 endpoint index a message is heading to.
    fn target(&self, msg: &NetMsg) -> (u32, bool) {
        if let Some(bank) = msg.dest_bank(self.shared_bank_bytes) {
            (bank, true)
        } else {
            (msg.dest_core().expect("message has a destination"), false)
        }
    }

    /// Routes a message sitting at `node`: down toward the target if the
    /// target is in this router's subtree, else up.
    fn route(&mut self, node: Node, msg: NetMsg) {
        let (target, is_request) = self.target(&msg);
        let e = if target / self.subtree[node.level as usize] == node.index {
            // Descend one level.
            if node.level == 1 {
                if is_request {
                    self.e_bank_req(target)
                } else {
                    self.e_core_down(target)
                }
            } else {
                let child = Node {
                    level: node.level - 1,
                    index: target / self.subtree[node.level as usize - 1],
                };
                self.e_down(child)
            }
        } else {
            self.e_up(node)
        };
        self.push_edge(e, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use lbp_isa::{HartId, SHARED_BASE};

    /// The responses delivered to `core` this cycle, taken out of its inbox.
    fn take_core_inbox(net: &mut Network, core: u32) -> Vec<NetMsg> {
        let out = net.core_inbox(core).to_vec();
        net.clear_core_inbox(core);
        out
    }

    fn read_req(addr: u32, hart: u32) -> NetMsg {
        NetMsg::ReadReq {
            addr,
            hart: HartId::new(hart),
            size: 4,
            signed: false,
        }
    }

    /// Ticks until the request reaches the bank inbox; returns the cycle.
    /// A lost message surfaces as a structured `SimError` (the network
    /// going quiet before delivery is exactly a deadlock), not a panic.
    fn cycles_to_bank(cores: usize, from_core: u32, to_bank: u32) -> Result<u32, SimError> {
        let bank_bytes = 0x10000;
        let mut net = Network::new(cores, bank_bytes);
        let addr = SHARED_BASE + to_bank * bank_bytes;
        net.send_from_core(from_core, read_req(addr, from_core * 4));
        for cycle in 1..100 {
            net.tick();
            if !net.bank_queue(to_bank).is_empty() {
                return Ok(cycle);
            }
            if net.is_quiet() {
                return Err(SimError::Deadlock {
                    cycle: cycle as u64,
                    blocked: Vec::new(),
                });
            }
        }
        Err(SimError::Timeout { cycles: 100 })
    }

    #[test]
    fn level_counts() {
        assert_eq!(Network::new(1, 0x10000).levels(), 1);
        assert_eq!(Network::new(4, 0x10000).levels(), 1);
        assert_eq!(Network::new(16, 0x10000).levels(), 2);
        assert_eq!(Network::new(64, 0x10000).levels(), 3);
        assert_eq!(Network::new(256, 0x10000).levels(), 4); // Fig. 15
    }

    #[test]
    fn same_group_takes_two_hops() {
        assert_eq!(cycles_to_bank(16, 0, 1).unwrap(), 2);
    }

    #[test]
    fn cross_r1_takes_four_hops() {
        assert_eq!(cycles_to_bank(16, 0, 12).unwrap(), 4);
    }

    #[test]
    fn cross_r2_takes_six_hops() {
        assert_eq!(cycles_to_bank(64, 0, 63).unwrap(), 6);
    }

    #[test]
    fn multi_chip_cross_r3_takes_eight_hops() {
        // 256 cores = four 64-core chips (Fig. 15): core 0 to the last
        // bank crosses the whole four-level hierarchy.
        assert_eq!(cycles_to_bank(256, 0, 255).unwrap(), 8);
    }

    #[test]
    fn response_routes_back_to_core() {
        let mut net = Network::new(64, 0x10000);
        net.send_from_bank(
            63,
            NetMsg::ReadResp {
                addr: SHARED_BASE,
                value: 7,
                hart: HartId::new(0),
            },
        );
        let mut arrived = 0;
        for cycle in 1..100 {
            net.tick();
            let inbox = take_core_inbox(&mut net, 0);
            if !inbox.is_empty() {
                arrived = cycle;
                assert_eq!(inbox.len(), 1);
                break;
            }
        }
        assert_eq!(arrived, 6);
    }

    #[test]
    fn link_bandwidth_is_one_per_cycle() {
        let mut net = Network::new(4, 0x10000);
        net.send_from_core(0, read_req(SHARED_BASE + 0x10000, 0));
        net.send_from_core(0, read_req(SHARED_BASE + 0x10000, 1));
        net.tick();
        net.tick();
        assert_eq!(net.bank_queue(1).len(), 1);
        net.tick();
        assert_eq!(net.bank_queue(1).len(), 2);
    }

    #[test]
    fn contention_is_fifo_deterministic() {
        let mut net = Network::new(4, 0x10000);
        for c in 0..4 {
            net.send_from_core(c, read_req(SHARED_BASE, c * 4));
        }
        let mut order = Vec::new();
        for _ in 0..16 {
            net.tick();
            while let Some(m) = net.pop_bank(0) {
                if let NetMsg::ReadReq { hart, .. } = m {
                    order.push(hart.global());
                }
            }
        }
        assert_eq!(order, vec![0, 4, 8, 12]);
    }

    #[test]
    fn hop_counter_accumulates() {
        let mut net = Network::new(4, 0x10000);
        net.send_from_core(0, read_req(SHARED_BASE + 0x10000, 0));
        for _ in 0..4 {
            net.tick();
        }
        assert_eq!(net.hops, 2);
    }

    #[test]
    fn odd_core_counts_work() {
        // Non-power-of-four machines still route correctly.
        for cores in [3usize, 5, 7, 12, 20, 100] {
            let hops = cycles_to_bank(cores, 0, cores as u32 - 1).unwrap();
            assert!(hops >= 2, "{cores} cores: {hops} hops");
        }
    }

    /// An r1-boundary crossing to the *adjacent* group costs exactly the
    /// up-and-over path: core 3 (last of group 0) to bank 4 (first of
    /// group 1) is 4 hops, same as any other cross-group pair.
    #[test]
    fn adjacent_group_boundary_still_pays_the_full_climb() {
        assert_eq!(cycles_to_bank(16, 3, 4).unwrap(), 4);
        assert_eq!(cycles_to_bank(16, 4, 3).unwrap(), 4);
    }

    /// A core's request to its own bank still takes the network (two
    /// hops through r1) — the local fast path is the bank port, not a
    /// zero-hop network route.
    #[test]
    fn own_bank_via_network_takes_two_hops() {
        assert_eq!(cycles_to_bank(4, 2, 2).unwrap(), 2);
    }

    /// Converging traffic across an r1/r2 boundary, cycle by cycle: all
    /// four r1 groups of a 16-core machine target bank 0, so the single
    /// down-link from r1#0 into bank 0 is the bottleneck. Deliveries
    /// must serialize at one per cycle with deterministic order: the
    /// in-group request first (it skips r2), then the cross-group
    /// requests in core order (FIFO at every merge point).
    #[test]
    fn r2_convergence_serializes_on_the_last_link() {
        let bank_bytes = 0x10000;
        let mut net = Network::new(16, bank_bytes);
        for c in [0u32, 4, 8, 12] {
            net.send_from_core(c, read_req(SHARED_BASE, c * 4));
        }
        let mut deliveries: Vec<(u32, u32)> = Vec::new(); // (cycle, hart)
        for cycle in 1..=12 {
            net.tick();
            while let Some(m) = net.pop_bank(0) {
                if let NetMsg::ReadReq { hart, .. } = m {
                    deliveries.push((cycle, hart.global()));
                }
            }
        }
        assert_eq!(
            deliveries,
            vec![(2, 0), (4, 16), (5, 32), (6, 48)],
            "in-group first, then one cross-group arrival per cycle"
        );
        assert!(net.is_quiet());
    }

    /// The network's contention counter charges message-cycles at the
    /// shared link, and only there: two same-cycle requests from one
    /// core contend, requests from different cores on disjoint paths do
    /// not.
    #[test]
    fn contention_charges_only_shared_links() {
        let bank_bytes = 0x10000;
        // Same core, same up-link: the second request waits one cycle.
        let mut net = Network::new(4, bank_bytes);
        net.send_from_core(0, read_req(SHARED_BASE + bank_bytes, 0));
        net.send_from_core(0, read_req(SHARED_BASE + bank_bytes, 1));
        for _ in 0..4 {
            net.tick();
        }
        assert_eq!(net.contended, 1);

        // Different cores, disjoint paths to their own groups' banks:
        // no contention at all.
        let mut net = Network::new(8, bank_bytes);
        net.send_from_core(0, read_req(SHARED_BASE + bank_bytes, 0)); // bank 1, group 0
        net.send_from_core(4, read_req(SHARED_BASE + 5 * bank_bytes, 16)); // bank 5, group 1
        for _ in 0..4 {
            net.tick();
        }
        assert_eq!(net.contended, 0);
        assert_eq!(net.bank_queue(1).len(), 1);
        assert_eq!(net.bank_queue(5).len(), 1);
    }

    /// Requests and responses ride separate links: a read request into a
    /// bank and the response leaving it in the same cycles never queue
    /// behind each other (full duplex between a core/bank pair).
    #[test]
    fn request_and_response_links_are_full_duplex() {
        let bank_bytes = 0x10000;
        let mut net = Network::new(4, bank_bytes);
        net.send_from_core(0, read_req(SHARED_BASE + bank_bytes, 0));
        net.send_from_bank(
            1,
            NetMsg::ReadResp {
                addr: SHARED_BASE + bank_bytes,
                value: 9,
                hart: HartId::new(0),
            },
        );
        net.tick();
        net.tick();
        assert_eq!(net.bank_queue(1).len(), 1, "request arrived");
        assert_eq!(take_core_inbox(&mut net, 0).len(), 1, "response arrived");
        assert_eq!(net.contended, 0, "opposite directions never contend");
    }

    /// Two-core machines (the smallest with remote traffic) keep exact
    /// cycle accounting: request out on cycle 2, response back on
    /// cycle 4 after a same-cycle bank turnaround.
    #[test]
    fn two_core_round_trip_is_four_hops() {
        let bank_bytes = 0x10000;
        let mut net = Network::new(2, bank_bytes);
        net.send_from_core(0, read_req(SHARED_BASE + bank_bytes, 0));
        net.tick();
        net.tick();
        let req = net.pop_bank(1).expect("request after 2 cycles");
        let addr = match req {
            NetMsg::ReadReq { addr, .. } => addr,
            _ => panic!("expected a read request"),
        };
        net.send_from_bank(
            1,
            NetMsg::ReadResp {
                addr,
                value: 1,
                hart: HartId::new(0),
            },
        );
        net.tick();
        assert!(take_core_inbox(&mut net, 0).is_empty());
        net.tick();
        assert_eq!(
            take_core_inbox(&mut net, 0).len(),
            1,
            "response after 2 more cycles"
        );
        assert_eq!(net.hops, 4);
    }
}
