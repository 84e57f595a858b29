//! Run statistics: the quantities the paper's evaluation reports, plus
//! the cycle-accurate observability counters (stall attribution,
//! contention, interval samples).

use lbp_isa::HARTS_PER_CORE;

use crate::json::Json;
use crate::snapshot::{SnapError, SnapReader, SnapWriter};

/// Why a core cycle did not retire an instruction.
///
/// The commit stage selects at most one hart per cycle, so every core
/// cycle either retires exactly one instruction or is a *stall slot*;
/// classifying the slot gives an exact partition:
/// `sum(stalls) + retired == cycles` per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// The commit stage is starved of instructions: fetch is suspended
    /// waiting for the next pc (every fetch suspends until the next pc is
    /// known — there is no branch predictor) or the pipeline is filling.
    FetchStarved,
    /// A hart is suspended on an outstanding memory access (load response
    /// or store acknowledgement still in flight).
    MemWait,
    /// Instructions are waiting in the instruction table but none has all
    /// source operands (or `p_lwre` slot data) ready.
    OperandWait,
    /// The hart's single-entry result buffer is occupied, blocking issue
    /// (the throttle that makes 4-way multithreading necessary for 1 IPC).
    RbFull,
    /// Synchronization: a committing `p_ret` waits for the ending-hart
    /// signal, a `p_syncm` drains, a fork allocation is pending, or every
    /// allocated hart waits for a join/start message.
    SyncWait,
    /// No hart on the core is allocated.
    Idle,
}

/// Per-core stall-slot counters: one bucket per [`StallKind`].
///
/// The six buckets partition the core's non-retiring cycles, so
/// [`CoreStalls::total`] plus the core's retired-instruction count equals
/// the machine cycle count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStalls {
    /// Cycles lost to [`StallKind::FetchStarved`].
    pub fetch_starved: u64,
    /// Cycles lost to [`StallKind::MemWait`].
    pub mem_wait: u64,
    /// Cycles lost to [`StallKind::OperandWait`].
    pub operand_wait: u64,
    /// Cycles lost to [`StallKind::RbFull`].
    pub rb_full: u64,
    /// Cycles lost to [`StallKind::SyncWait`].
    pub sync_wait: u64,
    /// Cycles with no allocated hart.
    pub idle: u64,
}

impl CoreStalls {
    /// Adds one stall slot of the given kind.
    pub fn bump(&mut self, kind: StallKind) {
        self.charge(kind, 1);
    }

    /// Adds `n` stall slots of the given kind.
    pub(crate) fn charge(&mut self, kind: StallKind, n: u64) {
        match kind {
            StallKind::FetchStarved => self.fetch_starved += n,
            StallKind::MemWait => self.mem_wait += n,
            StallKind::OperandWait => self.operand_wait += n,
            StallKind::RbFull => self.rb_full += n,
            StallKind::SyncWait => self.sync_wait += n,
            StallKind::Idle => self.idle += n,
        }
    }

    /// Total stall slots across all buckets.
    pub fn total(&self) -> u64 {
        self.fetch_starved
            + self.mem_wait
            + self.operand_wait
            + self.rb_full
            + self.sync_wait
            + self.idle
    }

    /// Element-wise sum.
    pub fn add(&self, other: &CoreStalls) -> CoreStalls {
        CoreStalls {
            fetch_starved: self.fetch_starved + other.fetch_starved,
            mem_wait: self.mem_wait + other.mem_wait,
            operand_wait: self.operand_wait + other.operand_wait,
            rb_full: self.rb_full + other.rb_full,
            sync_wait: self.sync_wait + other.sync_wait,
            idle: self.idle + other.idle,
        }
    }

    /// Element-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &CoreStalls) -> CoreStalls {
        CoreStalls {
            fetch_starved: self.fetch_starved - earlier.fetch_starved,
            mem_wait: self.mem_wait - earlier.mem_wait,
            operand_wait: self.operand_wait - earlier.operand_wait,
            rb_full: self.rb_full - earlier.rb_full,
            sync_wait: self.sync_wait - earlier.sync_wait,
            idle: self.idle - earlier.idle,
        }
    }

    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.fetch_starved);
        w.u64(self.mem_wait);
        w.u64(self.operand_wait);
        w.u64(self.rb_full);
        w.u64(self.sync_wait);
        w.u64(self.idle);
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<CoreStalls, SnapError> {
        Ok(CoreStalls {
            fetch_starved: r.u64()?,
            mem_wait: r.u64()?,
            operand_wait: r.u64()?,
            rb_full: r.u64()?,
            sync_wait: r.u64()?,
            idle: r.u64()?,
        })
    }

    /// JSON object with one key per bucket (stable key order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("fetch_starved", Json::U64(self.fetch_starved)),
            ("mem_wait", Json::U64(self.mem_wait)),
            ("operand_wait", Json::U64(self.operand_wait)),
            ("rb_full", Json::U64(self.rb_full)),
            ("sync_wait", Json::U64(self.sync_wait)),
            ("idle", Json::U64(self.idle)),
        ])
    }
}

/// One entry of the interval time series: the activity of the machine
/// during the `interval` cycles ending at `cycle` (the last sample of a
/// run may cover a shorter, partial interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSample {
    /// The cycle the interval ends on.
    pub cycle: u64,
    /// The number of cycles the interval covers.
    pub interval: u64,
    /// Instructions retired during the interval (all harts).
    pub retired: u64,
    /// Router-link and fabric hops during the interval.
    pub link_hops: u64,
    /// Machine-wide stall mix during the interval (summed over cores).
    pub stalls: CoreStalls,
}

impl IntervalSample {
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.cycle);
        w.u64(self.interval);
        w.u64(self.retired);
        w.u64(self.link_hops);
        self.stalls.snap(w);
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<IntervalSample, SnapError> {
        Ok(IntervalSample {
            cycle: r.u64()?,
            interval: r.u64()?,
            retired: r.u64()?,
            link_hops: r.u64()?,
            stalls: CoreStalls::unsnap(r)?,
        })
    }

    /// Machine-wide IPC over the interval.
    pub fn ipc(&self) -> f64 {
        if self.interval == 0 {
            0.0
        } else {
            self.retired as f64 / self.interval as f64
        }
    }

    /// JSON object for the report's `samples` array.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycle", Json::U64(self.cycle)),
            ("interval", Json::U64(self.interval)),
            ("retired", Json::U64(self.retired)),
            ("ipc", Json::F64(self.ipc())),
            ("link_hops", Json::U64(self.link_hops)),
            ("stalls", self.stalls.to_json()),
        ])
    }
}

/// Counters for one run, with per-core breakdowns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Total cycles executed.
    pub cycles: u64,
    /// Instructions retired, per hart.
    pub retired_per_hart: Vec<u64>,
    /// Memory accesses served by the local port of the executing core's
    /// banks (local stack + own shared slice).
    pub local_accesses: u64,
    /// Memory accesses that traversed the router hierarchy.
    pub remote_accesses: u64,
    /// Messages that crossed a router link (one count per hop).
    pub link_hops: u64,
    /// Harts allocated by `p_fc`/`p_fn` over the run.
    pub forks: u64,
    /// Join messages delivered.
    pub joins: u64,
    /// Multiply/divide operations issued (they burn more energy and
    /// occupy the functional unit longer than ALU operations).
    pub muldiv_ops: u64,
    /// Per-core stall attribution: every non-retiring core cycle lands in
    /// exactly one bucket, so per core
    /// `stalls.total() + retired_by_core(core) == cycles`.
    pub stalls_per_core: Vec<CoreStalls>,
    /// Request-cycles spent queued at a busy bank port (a ready request
    /// that a dual-ported bank could not serve this cycle).
    pub bank_conflicts: u64,
    /// Message-cycles spent queued at a busy router or fabric link (a
    /// message delayed because the 1-message-per-cycle link was taken).
    pub link_contention: u64,
    /// The interval time series (empty unless the configuration sets
    /// `sample_interval`).
    pub samples: Vec<IntervalSample>,
}

impl Stats {
    /// Creates zeroed statistics for `harts` harts.
    pub fn new(harts: usize) -> Stats {
        Stats {
            retired_per_hart: vec![0; harts],
            stalls_per_core: vec![CoreStalls::default(); harts.div_ceil(HARTS_PER_CORE)],
            ..Stats::default()
        }
    }

    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.cycles);
        w.seq(self.retired_per_hart.len());
        for &n in &self.retired_per_hart {
            w.u64(n);
        }
        w.u64(self.local_accesses);
        w.u64(self.remote_accesses);
        w.u64(self.link_hops);
        w.u64(self.forks);
        w.u64(self.joins);
        w.u64(self.muldiv_ops);
        w.seq(self.stalls_per_core.len());
        for s in &self.stalls_per_core {
            s.snap(w);
        }
        w.u64(self.bank_conflicts);
        w.u64(self.link_contention);
        w.seq(self.samples.len());
        for s in &self.samples {
            s.snap(w);
        }
    }

    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<Stats, SnapError> {
        let cycles = r.u64()?;
        let mut retired_per_hart = Vec::new();
        for _ in 0..r.seq()? {
            retired_per_hart.push(r.u64()?);
        }
        let local_accesses = r.u64()?;
        let remote_accesses = r.u64()?;
        let link_hops = r.u64()?;
        let forks = r.u64()?;
        let joins = r.u64()?;
        let muldiv_ops = r.u64()?;
        let mut stalls_per_core = Vec::new();
        for _ in 0..r.seq()? {
            stalls_per_core.push(CoreStalls::unsnap(r)?);
        }
        let bank_conflicts = r.u64()?;
        let link_contention = r.u64()?;
        let mut samples = Vec::new();
        for _ in 0..r.seq()? {
            samples.push(IntervalSample::unsnap(r)?);
        }
        Ok(Stats {
            cycles,
            retired_per_hart,
            local_accesses,
            remote_accesses,
            link_hops,
            forks,
            joins,
            muldiv_ops,
            stalls_per_core,
            bank_conflicts,
            link_contention,
            samples,
        })
    }

    /// Total instructions retired across all harts.
    pub fn retired(&self) -> u64 {
        self.retired_per_hart.iter().sum()
    }

    /// Machine-wide IPC (`retired / cycles`); the paper's peak is one
    /// instruction per core per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired() as f64 / self.cycles as f64
        }
    }

    /// Instructions retired by one core (sum over its four harts).
    /// An out-of-range core index reads as zero.
    pub fn retired_by_core(&self, core: usize) -> u64 {
        self.retired_per_hart
            .iter()
            .skip(core.saturating_mul(HARTS_PER_CORE))
            .take(HARTS_PER_CORE)
            .sum()
    }

    /// The stall breakdown of one core; an out-of-range index reads as
    /// all-zero.
    pub fn stalls_of_core(&self, core: usize) -> CoreStalls {
        self.stalls_per_core.get(core).copied().unwrap_or_default()
    }

    /// Machine-wide stall totals (summed over cores).
    pub fn stalls_total(&self) -> CoreStalls {
        self.stalls_per_core
            .iter()
            .fold(CoreStalls::default(), |acc, s| acc.add(s))
    }

    /// Total memory accesses (local + remote).
    pub fn mem_ops(&self) -> u64 {
        self.local_accesses + self.remote_accesses
    }

    /// Fraction of memory accesses that stayed local.
    pub fn locality(&self) -> f64 {
        let total = self.mem_ops();
        if total == 0 {
            1.0
        } else {
            self.local_accesses as f64 / total as f64
        }
    }

    /// The machine-readable report (schema `lbp-stats-v1`): global
    /// counters, one `cores[i]` object per core with its retired count
    /// and stall partition, and the interval `samples` series.
    ///
    /// Emission is deterministic: key order is fixed and all values
    /// derive from the (deterministic) simulation, so two runs of the
    /// same program produce byte-identical reports.
    pub fn to_json(&self) -> Json {
        let cores: Vec<Json> = self
            .stalls_per_core
            .iter()
            .enumerate()
            .map(|(c, stalls)| {
                let retired = self.retired_by_core(c);
                Json::obj([
                    ("core", Json::U64(c as u64)),
                    ("retired", Json::U64(retired)),
                    ("stall_cycles", Json::U64(stalls.total())),
                    ("stalls", stalls.to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str("lbp-stats-v1".to_owned())),
            ("cycles", Json::U64(self.cycles)),
            ("retired", Json::U64(self.retired())),
            ("ipc", Json::F64(self.ipc())),
            ("local_accesses", Json::U64(self.local_accesses)),
            ("remote_accesses", Json::U64(self.remote_accesses)),
            ("locality", Json::F64(self.locality())),
            ("link_hops", Json::U64(self.link_hops)),
            ("bank_conflicts", Json::U64(self.bank_conflicts)),
            ("link_contention", Json::U64(self.link_contention)),
            ("forks", Json::U64(self.forks)),
            ("joins", Json::U64(self.joins)),
            ("muldiv_ops", Json::U64(self.muldiv_ops)),
            (
                "retired_per_hart",
                Json::Arr(
                    self.retired_per_hart
                        .iter()
                        .map(|&r| Json::U64(r))
                        .collect(),
                ),
            ),
            ("cores", Json::Arr(cores)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_locality() {
        let mut s = Stats::new(8);
        s.cycles = 100;
        s.retired_per_hart[0] = 30;
        s.retired_per_hart[5] = 20;
        assert_eq!(s.retired(), 50);
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert_eq!(s.retired_by_core(0), 30);
        assert_eq!(s.retired_by_core(1), 20);
        s.local_accesses = 3;
        s.remote_accesses = 1;
        assert!((s.locality() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_defined() {
        let s = Stats::new(4);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.locality(), 1.0);
    }

    #[test]
    fn out_of_range_core_reads_zero() {
        let mut s = Stats::new(8);
        s.retired_per_hart[0] = 5;
        assert_eq!(s.retired_by_core(2), 0);
        assert_eq!(s.retired_by_core(usize::MAX), 0);
        assert_eq!(s.stalls_of_core(99), CoreStalls::default());
    }

    #[test]
    fn stall_buckets_partition() {
        let mut c = CoreStalls::default();
        for kind in [
            StallKind::FetchStarved,
            StallKind::MemWait,
            StallKind::OperandWait,
            StallKind::RbFull,
            StallKind::SyncWait,
            StallKind::Idle,
            StallKind::MemWait,
        ] {
            c.bump(kind);
        }
        assert_eq!(c.total(), 7);
        assert_eq!(c.mem_wait, 2);
        let doubled = c.add(&c);
        assert_eq!(doubled.total(), 14);
        assert_eq!(doubled.since(&c), c);
    }

    #[test]
    fn stats_json_has_core_partition() {
        let mut s = Stats::new(8);
        s.cycles = 10;
        s.retired_per_hart[0] = 4;
        s.stalls_per_core[0].mem_wait = 6;
        s.stalls_per_core[1].idle = 10;
        let j = s.to_json();
        assert_eq!(
            j.get("schema").and_then(|v| v.as_str()),
            Some("lbp-stats-v1")
        );
        let cores = j.get("cores").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(cores.len(), 2);
        for core in cores {
            let retired = core.get("retired").and_then(|v| v.as_u64()).unwrap();
            let stalls = core.get("stall_cycles").and_then(|v| v.as_u64()).unwrap();
            assert_eq!(retired + stalls, s.cycles);
        }
        // The emitted text parses back to the same value.
        let text = j.to_string();
        assert_eq!(crate::json::Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn interval_sample_ipc() {
        let s = IntervalSample {
            cycle: 2000,
            interval: 1000,
            retired: 750,
            link_hops: 12,
            stalls: CoreStalls::default(),
        };
        assert!((s.ipc() - 0.75).abs() < 1e-12);
        assert_eq!(
            s.to_json().get("cycle").and_then(|v| v.as_u64()),
            Some(2000)
        );
    }
}
