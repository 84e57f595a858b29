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

use crate::msg::NetMsg;
use crate::queues::Queues;
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

/// Where a message landing off an edge is processed.
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
    /// One FIFO per directed link, and where each link lands.
    edges: Queues<NetMsg>,
    dest: Vec<Dest>,
    /// Requests that arrived at each bank's network port, served by
    /// `MemSys::tick`.
    pub(crate) bank_inbox: Queues<NetMsg>,
    /// Responses/acks that arrived back at each core, delivered by
    /// `Machine::deliver`.
    pub(crate) core_inbox: Queues<NetMsg>,
    /// The messages one `tick` moves, between the move and the routing;
    /// empty outside it, kept for its capacity.
    moved: Vec<(usize, NetMsg)>,
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
        let mut dest = Vec::new();
        for c in 0..cores {
            let r1 = Node {
                level: 1,
                index: c / FANOUT,
            };
            dest.push(Dest::Router(r1)); // core up
            dest.push(Dest::Deliver(Endpoint::Core(c))); // core down
            dest.push(Dest::Deliver(Endpoint::Bank(c))); // bank req
            dest.push(Dest::Router(r1)); // bank resp
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
                dest.push(Dest::Router(parent)); // up
                dest.push(Dest::Router(child)); // down
            }
        }
        Network {
            cores,
            shared_bank_bytes,
            levels,
            subtree: (0..routers.len() as u32).map(|l| FANOUT.pow(l)).collect(),
            inter_base,
            edges: Queues::new(dest.len()),
            bank_inbox: Queues::new(cores as usize),
            core_inbox: Queues::new(cores as usize),
            // At most one message per edge moves in a tick.
            moved: Vec::with_capacity(dest.len()),
            dest,
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

    /// Injects a request from a core into the network (the core's
    /// up-link).
    pub fn send_from_core(&mut self, core: u32, msg: NetMsg) {
        self.edges.push(self.e_core_up(core), msg);
    }

    /// Injects a response from a bank's network port.
    pub fn send_from_bank(&mut self, bank: u32, msg: NetMsg) {
        self.edges.push(self.e_bank_resp(bank), msg);
    }

    /// Whether nothing is in flight: every link queue, bank port and core
    /// inbox is empty. Feeds the machine's quiescence-based deadlock
    /// detector.
    pub fn is_quiet(&self) -> bool {
        self.in_flight() == 0
    }

    /// Messages currently travelling or queued anywhere in the hierarchy
    /// (crash dumps).
    pub fn in_flight(&self) -> usize {
        self.edges.items() + self.bank_inbox.items() + self.core_inbox.items()
    }

    /// Advances every link by one cycle: each edge delivers at most one
    /// message one hop onward.
    pub fn tick(&mut self) {
        let mut moved = std::mem::take(&mut self.moved);
        self.contended += self.edges.advance(&mut moved);
        self.hops += moved.len() as u64;
        // Route each message at the node it just reached.
        for (e, msg) in moved.drain(..) {
            match self.dest[e] {
                Dest::Deliver(Endpoint::Core(c)) => self.core_inbox.push(c as usize, msg),
                Dest::Deliver(Endpoint::Bank(b)) => self.bank_inbox.push(b as usize, msg),
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
        for queues in [&self.edges, &self.bank_inbox, &self.core_inbox] {
            w.seq(queues.queues());
            queues.snap(w, NetMsg::snap);
        }
        w.u64(self.hops);
        w.u64(self.contended);
    }

    /// Reads back the network of a `cores`-core machine.
    pub(crate) fn unsnap(r: &mut SnapReader<'_>, cores: usize) -> Result<Network, SnapError> {
        let held = r.u32()?;
        if held as usize != cores {
            return Err(SnapError::Corrupt(format!(
                "network has {held} cores, configuration says {cores}"
            )));
        }
        let mut net = Network::new(cores, r.u32()?);
        let edges = r.seq()?;
        if edges != net.edges.queues() {
            return Err(SnapError::Corrupt(format!(
                "network has {edges} edges, topology for {cores} cores has {}",
                net.edges.queues()
            )));
        }
        net.edges = Queues::unsnap(r, edges, NetMsg::unsnap)?;
        let banks = r.seq()?;
        if banks != cores {
            return Err(SnapError::Corrupt(format!(
                "{banks} bank inboxes for {cores} cores"
            )));
        }
        net.bank_inbox = Queues::unsnap(r, banks, NetMsg::unsnap)?;
        let inboxes = r.seq()?;
        if inboxes != cores {
            return Err(SnapError::Corrupt(format!(
                "{inboxes} core inboxes for {cores} cores"
            )));
        }
        net.core_inbox = Queues::unsnap(r, inboxes, NetMsg::unsnap)?;
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
        self.edges.push(e, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use lbp_isa::{HartId, SHARED_BASE};

    /// The responses delivered to `core` this cycle, taken out of its inbox.
    fn take_core_inbox(net: &mut Network, core: u32) -> Vec<NetMsg> {
        let mut out = Vec::new();
        net.core_inbox.drain_into(core as usize, &mut out);
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
            if !net.bank_inbox[to_bank as usize].is_empty() {
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
        assert_eq!(net.bank_inbox[1].len(), 1);
        net.tick();
        assert_eq!(net.bank_inbox[1].len(), 2);
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
            while let Some(m) = net.bank_inbox.pop(0) {
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
            while let Some(m) = net.bank_inbox.pop(0) {
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
        assert_eq!(net.bank_inbox[1].len(), 1);
        assert_eq!(net.bank_inbox[5].len(), 1);
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
        assert_eq!(net.bank_inbox[1].len(), 1, "request arrived");
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
        let req = net.bank_inbox.pop(1).expect("request after 2 cycles");
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
