//! The top-level LBP machine: cores + banks + interconnect + devices.

use std::any::Any;

use lbp_asm::Image;
use lbp_isa::HartId;

use crate::bank::{is_code_word, Banks, CodeBank, MemSys};
use crate::config::{cv_base, LbpConfig};
use crate::core::{Core, Env, StallSlot};
use crate::dump::SimFailure;
use crate::error::SimError;
use crate::fabric::Fabric;
use crate::fault::Fault;
use crate::hart::{HartCtx, HartState, RbWait};
use crate::hash;
use crate::index_set::{members, IndexSet};
use crate::io::IoBus;
use crate::json::Json;
use crate::msg::{CoreMsg, NetMsg};
use crate::observe::Observers;
use crate::prof::ProfData;
use crate::race::{RaceData, RaceWitness};
use crate::snapshot::{Engine, MachineState, SnapError, SnapReader, SnapWriter};
use crate::stats::{CoreStalls, IntervalSample, StallKind, Stats};
use crate::trace::{EventKind, TraceSink};
use crate::xpar;

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Cycle and instruction counters.
    pub stats: Stats,
    /// Whether the program exited (`p_ret` type 3) within the budget.
    pub exited: bool,
}

impl RunReport {
    /// The machine-readable report: the stats JSON (schema
    /// `lbp-stats-v1`) with the run's `exited` flag added.
    pub fn to_json(&self) -> Json {
        let mut v = self.stats.to_json();
        if let Json::Obj(pairs) = &mut v {
            // Keep `schema` first, then the exit state, then the counters.
            pairs.insert(1, ("exited".to_owned(), Json::Bool(self.exited)));
        }
        v
    }
}

/// Why a [`Machine::run_cooperative`] call returned without an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPause {
    /// The program exited (`p_ret` type 3).
    Exited,
    /// The machine reached the target cycle without exiting.
    Target,
    /// The poll callback asked to stop at a slice boundary.
    Cancelled,
}

/// What [`Machine::run_watched`] does between slices.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    /// Cycles between polls (cancellation latency; at least 1).
    pub slice: u64,
    /// Cycles between checkpoints; 0 takes none.
    pub checkpoint_every: u64,
    /// Host time past which the run is cancelled at the next poll.
    pub deadline: Option<std::time::Instant>,
}

/// How a [`Machine::run_watched`] call ended without an error.
#[derive(Debug, Clone)]
pub enum Watched {
    /// The program exited.
    Exited(RunReport),
    /// The deadline passed; the machine is paused, valid, at a cycle
    /// boundary.
    Cancelled,
}

/// Snapshot of the cumulative counters at the last interval boundary,
/// used to turn cumulative stats into per-interval deltas.
#[derive(Debug, Default, Clone, Copy)]
struct SampleCursor {
    cycle: u64,
    retired: u64,
    link_hops: u64,
    stalls: CoreStalls,
}

/// A full LBP machine instance executing one loaded program.
///
/// # Examples
///
/// ```
/// use lbp_sim::{LbpConfig, Machine};
///
/// let image = lbp_asm::assemble(
///     "main:
///         li   t0, -1
///         li   a0, 0
///         p_ret a0, t0   # ra-equivalent 0, t0 -1: exit",
/// )?;
/// let mut m = Machine::new(LbpConfig::cores(1), &image)?;
/// let report = m.run(10_000)?;
/// assert!(report.exited);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Machine {
    pub(crate) cfg: LbpConfig,
    pub(crate) cores: Vec<Core>,
    pub(crate) mem: MemSys,
    pub(crate) fabric: Fabric,
    stats: Stats,
    /// The sink, profiler and race witness: everything that watches the
    /// run. Never part of a snapshot.
    obs: Observers,
    cursor: SampleCursor,
    pub(crate) cycle: u64,
    /// The engine the clock descends from: functional once a warm phase
    /// that retired anything handed this machine over. Carried by every
    /// snapshot, so a restored machine keeps it.
    engine: Engine,
    pub(crate) exited: bool,
    /// Cycle-triggered faults from the plan, not yet applied.
    pending_faults: Vec<Fault>,
    /// Cycle-triggered faults that fired (the fabric counts its own).
    pub(crate) faults_applied: u64,
    /// Consecutive cycles without a retirement anywhere; once it reaches
    /// [`QUIET_CYCLES`] the deadlock detector starts checking.
    quiet_cycles: u64,
    /// The fabric messages [`Machine::deliver`] is handing to one core's
    /// harts; empty between calls, kept for its capacity.
    core_arrivals: Vec<CoreMsg>,
    /// The cores that tick. A core whose tick fired nothing and left no
    /// hart waiting on the clock ([`Core::tick`] returns its stall slot)
    /// leaves the set from the next cycle; any delivery to it, or a
    /// `flip-reg` fault on one of its harts, puts it back. While it
    /// sleeps, each of its cycles is that slot, which nobody has written
    /// down yet. An idle core is the case `(Idle, None)`. Derived state
    /// like `charged` and `slept_on`: never serialized, everyone awake
    /// after `new`, `restore` and the hybrid handoff.
    pub(crate) awake: IndexSet,
    /// Per sleeping core, the last cycle its stall slots are charged for.
    charged: Vec<u64>,
    /// Per sleeping core, the stall slot each of its cycles is charged as.
    slept_on: Vec<StallSlot>,
}

/// Cycles without any retirement before the deadlock detector runs. The
/// value only delays detection — the quiescence check itself is exact —
/// but skipping the busiest cycles keeps the common case free.
const QUIET_CYCLES: u64 = 8;

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cfg", &self.cfg)
            .field("cycle", &self.cycle)
            .field("exited", &self.exited)
            .field("stats", &self.stats)
            .field("streaming", &self.obs.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine and loads the program image: the text into every
    /// core's code bank, the data into the distributed shared banks, and
    /// boots hart 0 of core 0 at the entry point.
    ///
    /// # Errors
    ///
    /// Fails if the initialized data exceeds the configured shared space,
    /// or if the configuration's fault plan targets something outside the
    /// machine (a hart, register, address or code word that does not
    /// exist).
    pub fn new(cfg: LbpConfig, image: &Image) -> Result<Machine, SimError> {
        validate_fault_plan(&cfg, image)?;
        let banks = Banks::new(&cfg, &image.data)?;
        Ok(Machine::around(cfg, image, banks))
    }

    /// The machine at cycle 0 — idle ports and links, empty pipelines,
    /// hart 0 of core 0 booted at the entry point — around the given
    /// banks. The fault plan was validated by the caller.
    fn around(cfg: LbpConfig, image: &Image, banks: Banks) -> Machine {
        let mut drop_nth = Vec::new();
        let mut delay_nth = Vec::new();
        let mut pending_faults = Vec::new();
        for &fault in &cfg.faults.faults {
            match fault {
                Fault::DropMsg { nth } => drop_nth.push(nth),
                Fault::DelayMsg { nth, cycles } => delay_nth.push((nth, cycles)),
                _ => pending_faults.push(fault),
            }
        }
        let mut fabric = Fabric::new(cfg.cores);
        fabric.set_faults(drop_nth, delay_nth);
        let mem = MemSys::new(&cfg, CodeBank::new(&image.text), banks);
        let mut cores: Vec<Core> = (0..cfg.cores as u32).map(Core::new).collect();
        let boot_sp = cv_base(HartId::FIRST);
        cores[0].harts[0].boot(image.entry, boot_sp);
        cores[0].free_q.retain(|&l| l != 0); // the boot hart starts running, not free
        Machine {
            fabric,
            stats: Stats::new(cfg.harts()),
            obs: Observers::off(),
            cursor: SampleCursor::default(),
            cycle: 0,
            engine: Engine::CycleExact,
            exited: false,
            pending_faults,
            faults_applied: 0,
            quiet_cycles: 0,
            core_arrivals: Vec::new(),
            awake: IndexSet::from_fn(cfg.cores, |_| true),
            charged: vec![0; cfg.cores],
            slept_on: vec![(StallKind::Idle, None); cfg.cores],
            cores,
            mem,
            cfg,
        }
    }

    /// Whether the program has executed its exit `p_ret`.
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// The machine's configuration.
    pub fn config(&self) -> &LbpConfig {
        &self.cfg
    }

    /// The I/O bus, for attaching scripted devices before a run.
    pub fn io_mut(&mut self) -> &mut IoBus {
        &mut self.mem.io
    }

    /// Reads a word of shared memory (e.g. to check results after a run).
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    pub fn peek_shared(&self, addr: u32) -> Result<u32, SimError> {
        Ok(self.mem.banks.peek(addr)?)
    }

    /// Writes a word of shared memory directly, bypassing the pipeline —
    /// for harness-side data initialization before a run (the equivalent
    /// of the paper's statically initialized matrices, which cost no
    /// retired instructions).
    ///
    /// # Errors
    ///
    /// Faults on unmapped or misaligned addresses.
    pub fn poke_shared(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        Ok(self.mem.banks.poke(addr, value)?)
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Attaches an event sink in place of any earlier one. Every machine
    /// event is handed to it as it happens: a streaming sink writes a
    /// multi-million-cycle run in O(1) memory, a [`Trace`](crate::Trace)
    /// keeps the events for [`Machine::sink`] to read back. Like every
    /// observer it is no part of the machine's state: it never changes a
    /// snapshot byte, and a restored machine has none. Call
    /// [`Machine::finish_trace`] after the run to flush.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.obs.sink = Some(sink);
    }

    /// The attached sink, if one is attached and it is a `T`; with a
    /// [`Trace`](crate::Trace), the events recorded so far.
    pub fn sink<T: TraceSink>(&self) -> Option<&T> {
        let sink: &dyn Any = self.obs.sink.as_deref()?;
        sink.downcast_ref()
    }

    /// Enables guest-program profiling: from now on every core cycle is
    /// attributed to a program counter, shared traffic and bank conflicts
    /// are recorded per (core, bank), and fork/start/join/end events feed
    /// the fork-tree timeline (see [`ProfData`]).
    ///
    /// Profiling is observational only: the run's instruction sequence,
    /// trace, statistics and final state are bit-identical with profiling
    /// on or off. The collectors are not serialized into snapshots — a
    /// restored machine starts with profiling off.
    pub fn enable_profiling(&mut self) {
        if self.obs.prof.is_none() {
            let code_words = self.mem.code.words();
            self.obs.prof = Some(Box::new(ProfData::new(self.cfg.cores, code_words)));
        }
    }

    /// The profiling collectors, if [`Machine::enable_profiling`] was
    /// called.
    pub fn profile(&self) -> Option<&ProfData> {
        self.obs.prof.as_deref()
    }

    /// Turns on the dynamic race-witness collector (see [`RaceData`]):
    /// from here on, every team the hardware forks is checked at its join
    /// for two members that overlap on a shared word, one of them writing.
    ///
    /// Collection is observational only: the run's instruction sequence,
    /// trace, statistics and final state are bit-identical with the
    /// collector on or off, and it is not serialized into snapshots — a
    /// restored machine starts with collection off.
    pub fn enable_race_witness(&mut self) {
        if self.obs.race.is_none() {
            self.obs.race = Some(Box::new(RaceData::new(&self.cfg)));
        }
    }

    /// Whether the machine is inside a parallel region: a hart other than
    /// the first is live, or the first waits for a join. A race witness
    /// enabled here would miss what the open team did before this cycle.
    pub fn in_parallel_region(&self) -> bool {
        let mut harts = self.cores.iter().flat_map(|core| &core.harts);
        harts.any(|h| match h.id == HartId::FIRST {
            true => h.state == HartState::WaitingJoin,
            false => h.state != HartState::Free,
        })
    }

    /// The race witnesses collected so far; empty when
    /// [`Machine::enable_race_witness`] was never called (or when the
    /// program is race-free).
    pub fn race_witnesses(&self) -> &[RaceWitness] {
        self.obs.race.as_deref().map_or(&[], |r| &r.witnesses[..])
    }

    /// Finalizes and flushes the attached streaming sink, if any (closes
    /// the Chrome JSON array, reports buffered I/O errors).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink encountered during the run.
    pub fn finish_trace(&mut self) -> std::io::Result<()> {
        match &mut self.obs.sink {
            Some(sink) => sink.finish(),
            None => Ok(()),
        }
    }

    /// Runs until the program exits or the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the budget runs out,
    /// [`SimError::Deadlock`] the moment the machine quiesces without
    /// exiting, or any fatal fault raised by the program.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunReport, SimError> {
        self.run_diagnosed(max_cycles).map_err(|f| f.error)
    }

    /// Like [`Machine::run`], but every error arrives packaged with a
    /// [`MachineDump`](crate::MachineDump) snapshot taken at the moment
    /// it was raised (what `lbp-run --dump-on-error` writes out).
    ///
    /// Includes the deadlock detector: once a few quiet cycles pass with no
    /// retirement anywhere, each further quiet cycle checks whether the
    /// machine can ever make progress again, and reports
    /// [`SimError::Deadlock`] with every blocked hart the moment it
    /// cannot — typically orders of magnitude before the timeout budget
    /// would expire.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`], boxed with the crash dump.
    pub fn run_diagnosed(&mut self, max_cycles: u64) -> Result<RunReport, Box<SimFailure>> {
        if !self.run_to(max_cycles)? {
            return Err(self.failure(SimError::Timeout { cycles: max_cycles }));
        }
        Ok(self.report())
    }

    /// Runs until the program exits or the machine reaches cycle `target`,
    /// whichever comes first — the checkpointing primitive: stopping at a
    /// cycle boundary is not an error, so a run can be resumed (or a
    /// snapshot taken) and continued to the same final state a single
    /// uninterrupted run would reach.
    ///
    /// Returns whether the program has exited.
    ///
    /// # Errors
    ///
    /// Any fatal fault or deadlock, packaged with a crash dump. Unlike
    /// [`Machine::run`], reaching `target` is a normal return, not a
    /// timeout.
    pub fn run_to(&mut self, target: u64) -> Result<bool, Box<SimFailure>> {
        while !self.exited {
            if self.cycle >= target {
                self.settle();
                return Ok(false);
            }
            let retired = match self.step() {
                Ok(retired) => retired,
                Err(e) => return Err(self.failure(e)),
            };
            if retired {
                self.quiet_cycles = 0;
            } else {
                self.quiet_cycles += 1;
                if self.quiet_cycles >= QUIET_CYCLES && !self.exited {
                    if let Some(blocked) = crate::deadlock::check(self) {
                        let err = SimError::Deadlock {
                            cycle: self.cycle,
                            blocked,
                        };
                        self.settle();
                        return Err(self.failure(err));
                    }
                }
            }
        }
        self.settle();
        // Close the time series with the final partial interval so the
        // samples cover the whole run.
        if self.cfg.sample_interval > 0 && self.cycle > self.cursor.cycle {
            self.take_sample();
        }
        Ok(true)
    }

    /// Runs toward cycle `target` in slices of at most `slice` cycles,
    /// calling `poll` between slices — the cooperative-cancellation
    /// primitive behind watchdogs and graceful daemon shutdown.
    ///
    /// `poll` sees the paused machine (inspect the cycle, take a
    /// snapshot, write a checkpoint) and returns whether to continue;
    /// returning `false` stops the run at the current cycle boundary.
    /// Because every stop lands on a cycle boundary, a cancelled run can
    /// be snapshotted and resumed to the exact state an uninterrupted
    /// run would reach — cancellation is invisible to the simulation.
    ///
    /// # Errors
    ///
    /// Any fatal fault or deadlock, packaged with a crash dump, exactly
    /// as [`Machine::run_to`]. Reaching `target` or cancelling are
    /// normal returns, distinguished by [`RunPause`].
    pub fn run_cooperative<F>(
        &mut self,
        target: u64,
        slice: u64,
        mut poll: F,
    ) -> Result<RunPause, Box<SimFailure>>
    where
        F: FnMut(&Machine) -> bool,
    {
        let slice = slice.max(1);
        loop {
            let stop = self.cycle.saturating_add(slice).min(target);
            if self.run_to(stop)? {
                return Ok(RunPause::Exited);
            }
            if self.cycle >= target {
                return Ok(RunPause::Target);
            }
            if !poll(self) {
                return Ok(RunPause::Cancelled);
            }
        }
    }

    /// Runs to exit under a [`Watch`]: in slices, calling `checkpoint`
    /// at the first slice boundary on or past each multiple of
    /// `watch.checkpoint_every` and cancelling at the first boundary past
    /// `watch.deadline`. Every stop is a cycle boundary, so neither
    /// changes the run — the report equals an unwatched run's. This is
    /// the one sliced run under `lbp-run --checkpoint-every/--wall-ms`
    /// and the `lbp-batch` service.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_diagnosed`]: the cycle budget running out is the
    /// [`SimError::Timeout`] failure with its dump.
    pub fn run_watched(
        &mut self,
        max_cycles: u64,
        watch: &Watch,
        mut checkpoint: impl FnMut(&Machine),
    ) -> Result<Watched, Box<SimFailure>> {
        let every = watch.checkpoint_every;
        let mut next = match self.cycle.checked_div(every) {
            Some(n) => (n + 1) * every,
            None => u64::MAX,
        };
        let pause = self.run_cooperative(max_cycles, watch.slice, |m| {
            if m.cycle >= next {
                checkpoint(m);
                next = (m.cycle / every + 1) * every;
            }
            watch.deadline.is_none_or(|d| std::time::Instant::now() < d)
        })?;
        match pause {
            RunPause::Exited => Ok(Watched::Exited(self.report())),
            RunPause::Cancelled => Ok(Watched::Cancelled),
            RunPause::Target => Err(self.failure(SimError::Timeout { cycles: max_cycles })),
        }
    }

    /// The report a completed [`Machine::run`] would return right now.
    pub fn report(&self) -> RunReport {
        RunReport {
            stats: self.stats.clone(),
            exited: self.exited,
        }
    }

    /// Serializes the complete simulation state into a [`MachineState`].
    ///
    /// The snapshot captures everything the machine's evolution depends
    /// on: architectural and micro-architectural hart state, memory banks,
    /// every in-flight message, statistics, and the fault plan. It
    /// captures no observer — no sink, in-memory or streaming, and neither
    /// the profiler nor the race witness — so a watched machine snapshots
    /// to its unwatched twin's bytes.
    ///
    /// The payload has two sections: a *static* one (configuration, fault
    /// plan and the [`Engine`] the clock descends from — fixed at
    /// construction or handoff) and a *dynamic* one (everything
    /// execution-determined). [`MachineState::dynamic_bytes`] exposes the
    /// latter so two machines that differ only in their fault plan can be
    /// compared state-for-state.
    pub fn snapshot(&self) -> MachineState {
        let mut w = SnapWriter::new();
        w.u64(self.cycle);
        w.u64(self.cfg.cores as u64);
        let dyn_patch = w.position();
        w.u64(0); // dyn_offset, patched once the static section is written
                  // Static section.
        self.cfg.snap(&mut w, self.engine);
        w.seq(self.pending_faults.len());
        for fault in &self.pending_faults {
            w.str(&fault.to_string());
        }
        w.u64(self.faults_applied);
        self.fabric.snap_static(&mut w);
        let dyn_offset = w.position() as u64;
        w.patch_u64(dyn_patch, dyn_offset);
        // Dynamic section.
        w.bool(self.exited);
        w.u64(self.quiet_cycles);
        w.u64(self.cursor.cycle);
        w.u64(self.cursor.retired);
        w.u64(self.cursor.link_hops);
        self.cursor.stalls.snap(&mut w);
        self.stats.snap(&mut w);
        w.seq(self.cores.len());
        for core in &self.cores {
            core.snap(&mut w);
        }
        self.mem.snap(&mut w);
        self.fabric.snap_dyn(&mut w);
        MachineState::from_bytes(w.into_bytes()).expect("a freshly written snapshot parses")
    }

    /// Reconstructs a machine from a [`MachineState`], bit-identical to
    /// the one that produced it: `restore(m.snapshot())` then running `M`
    /// cycles yields the same stats, events and memory as running the
    /// original `M` more cycles. It starts unwatched: attach a sink or
    /// enable a collector to watch it from the restore on.
    ///
    /// # Errors
    ///
    /// Rejects truncated or internally inconsistent state with
    /// [`SnapError`]; a valid snapshot never fails.
    pub fn restore(state: &MachineState) -> Result<Machine, SnapError> {
        let mut r = SnapReader::new(state.as_bytes());
        let cycle = r.u64()?;
        let header_cores = r.u64()?;
        let _dyn_offset = r.u64()?;
        // Static section.
        let cfg = LbpConfig::unsnap(&mut r)?;
        if cfg.cores as u64 != header_cores {
            return Err(SnapError::Corrupt(format!(
                "header says {header_cores} cores, configuration says {}",
                cfg.cores
            )));
        }
        let mut pending_faults = Vec::new();
        for _ in 0..r.seq()? {
            let spec = r.str()?;
            pending_faults.push(Fault::parse(&spec).map_err(SnapError::Corrupt)?);
        }
        let faults_applied = r.u64()?;
        let (drop_nth, delay_nth, fabric_faults) = Fabric::unsnap_static(&mut r)?;
        // Dynamic section.
        let exited = r.bool()?;
        let quiet_cycles = r.u64()?;
        let cursor = SampleCursor {
            cycle: r.u64()?,
            retired: r.u64()?,
            link_hops: r.u64()?,
            stalls: CoreStalls::unsnap(&mut r)?,
        };
        let stats = Stats::unsnap(&mut r)?;
        let ncores = r.seq()?;
        if ncores != cfg.cores {
            return Err(SnapError::Corrupt(format!(
                "snapshot holds {ncores} cores, configuration says {}",
                cfg.cores
            )));
        }
        let cores = (0..ncores)
            .map(|_| Core::unsnap(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        let mem = MemSys::unsnap(&mut r, ncores)?;
        let fabric = Fabric::unsnap_dyn(&mut r, ncores, drop_nth, delay_nth, fabric_faults)?;
        r.finish()?;
        Ok(Machine {
            obs: Observers::off(),
            awake: IndexSet::from_fn(ncores, |_| true),
            charged: vec![0; ncores],
            slept_on: vec![(StallKind::Idle, None); ncores],
            cfg,
            cores,
            mem,
            fabric,
            stats,
            cursor,
            cycle,
            engine: state.engine(),
            exited,
            pending_faults,
            faults_applied,
            quiet_cycles,
            core_arrivals: Vec::new(),
        })
    }

    /// Advances the machine by one cycle.
    pub fn tick(&mut self) -> Result<(), SimError> {
        self.step()?;
        self.settle();
        Ok(())
    }

    /// One cycle; returns whether any core retired an instruction in it.
    /// Sleeping cores are left uncharged ([`Machine::settle`]) unless the
    /// cycle aborts, which settles them as far as it got.
    fn step(&mut self) -> Result<bool, SimError> {
        self.cycle += 1;
        let now = self.cycle;
        // 0. Cycle-triggered fault injection (validated at construction).
        if !self.pending_faults.is_empty() {
            self.apply_due_faults();
        }
        // 1. Links move one hop.
        self.fabric.tick();
        self.mem.net.tick();
        // 2. Deliver arrivals to harts.
        if let Err(e) = self.deliver() {
            self.settle_aborted(0);
            return Err(e);
        }
        // 3. Core pipelines.
        let mut env = Env {
            mem: &mut self.mem,
            fabric: &mut self.fabric,
            stats: &mut self.stats,
            obs: &mut self.obs,
            mul_latency: self.cfg.mul_latency,
            now,
            cores: self.cfg.cores,
            exited: &mut self.exited,
            retired: false,
        };
        for w in 0..self.awake.words() {
            for c in members(w, self.awake.word(w)) {
                match self.cores[c].tick(&mut env) {
                    Ok(None) => {}
                    Ok(Some(slot)) => {
                        // Asleep from the next cycle on; this one is charged.
                        self.awake.remove(c);
                        self.charged[c] = now;
                        self.slept_on[c] = slot;
                    }
                    Err(e) => {
                        self.settle_aborted(c);
                        return Err(e);
                    }
                }
            }
        }
        let retired = env.retired;
        // 4. Banks serve their ports.
        if let Err(e) = self.mem.tick(now, &mut self.obs) {
            self.settle();
            return Err(e);
        }
        self.stats.cycles = self.cycle;
        self.stats.link_hops = self.mem.net.hops + self.fabric.hops;
        self.stats.bank_conflicts = self.mem.conflicts;
        self.stats.link_contention = self.mem.net.contended + self.fabric.contended;
        // 5. Interval sampler.
        let interval = self.cfg.sample_interval;
        if interval > 0 && self.cycle.is_multiple_of(interval) {
            self.settle();
            self.take_sample();
        }
        Ok(retired)
    }

    /// Writes down the stall slots the sleeping cores are owed through
    /// the current cycle. Every return to a caller does, and the sampler
    /// before it reads the counters.
    fn settle(&mut self) {
        self.settle_aborted(self.cores.len());
    }

    /// [`Machine::settle`] for a cycle that aborted when the cores below
    /// `ticked` had had their turn in it and the others not: those are
    /// owed the current cycle, these only the ones before, which leaves
    /// the counters ticking every core would have left.
    fn settle_aborted(&mut self, ticked: usize) {
        for c in 0..self.cores.len() {
            if !self.awake.contains(c) {
                let through = self.cycle - u64::from(c >= ticked);
                self.charge(c, through - self.charged[c]);
                // The current cycle is over for this core either way.
                self.charged[c] = self.cycle;
            }
        }
    }

    /// Puts a core that something from outside is about to change (a
    /// delivery, a `flip-reg` fault) back among those that tick, charged
    /// for the cycles it slept through.
    fn wake(&mut self, c: usize) {
        if !self.awake.contains(c) {
            self.charge(c, self.cycle - 1 - self.charged[c]);
            self.awake.insert(c);
        }
    }

    /// `n` cycles of a sleeping core, all at once: `n` of the stall slot
    /// it sleeps on.
    fn charge(&mut self, c: usize, n: u64) {
        let (kind, blamed) = self.slept_on[c];
        self.stats.stalls_per_core[c].charge(kind, n);
        self.obs.stalled(c, kind, blamed, n);
    }

    /// Applies every pending fault whose trigger cycle has arrived.
    fn apply_due_faults(&mut self) {
        let now = self.cycle;
        let mut i = 0;
        while i < self.pending_faults.len() {
            if self.pending_faults[i].cycle().is_some_and(|c| c <= now) {
                let fault = self.pending_faults.remove(i);
                self.apply_fault(fault);
                self.faults_applied += 1;
            } else {
                i += 1;
            }
        }
    }

    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::FlipReg { hart, reg, bit, .. } => {
                // A change from outside the pipeline, like a delivery.
                self.wake(hart.core() as usize);
                let h = self.hart_mut(hart);
                let phys = h.rat[reg.index()] as usize;
                h.prf[phys] ^= 1 << bit;
            }
            Fault::FlipMem { addr, bit, .. } => self.mem.banks.flip(addr, bit),
            Fault::CorruptInstr { pc, xor, .. } => self.mem.code.corrupt(pc, xor),
            Fault::DropMsg { .. } | Fault::DelayMsg { .. } => {
                unreachable!("message faults are handled inside the fabric")
            }
        }
    }

    /// Appends one [`IntervalSample`] covering the cycles since the last
    /// sample (or the start of the run).
    fn take_sample(&mut self) {
        let retired = self.stats.retired();
        let stalls = self.stats.stalls_total();
        self.obs
            .interval(self.cycle, self.cycle - self.cursor.cycle);
        self.stats.samples.push(IntervalSample {
            cycle: self.cycle,
            interval: self.cycle - self.cursor.cycle,
            retired: retired - self.cursor.retired,
            link_hops: self.stats.link_hops - self.cursor.link_hops,
            stalls: stalls.since(&self.cursor.stalls),
        });
        self.cursor = SampleCursor {
            cycle: self.cycle,
            retired,
            link_hops: self.stats.link_hops,
            stalls,
        };
    }

    /// Delivers network responses and fabric messages that completed their
    /// last hop. After an error the rest of that core's batch is gone.
    fn deliver(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        for w in 0..self.awake.words() {
            for c in members(w, self.mem.arrival_word(w) | self.fabric.inbox.word(w)) {
                self.wake(c);
                let c = c as u32;
                // Memory responses: from the network and from the local
                // ports.
                let delivered = self.deliver_mem_arrivals(c);
                self.mem.clear_arrivals(c);
                delivered?;
                // Fork/join fabric messages. Handling one may send another,
                // so they leave the inbox first: a message sent to this core
                // now waits for the next cycle.
                let mut msgs = std::mem::take(&mut self.core_arrivals);
                self.fabric.inbox.drain_into(c as usize, &mut msgs);
                let delivered =
                    (msgs.drain(..)).try_for_each(|msg| self.deliver_core_msg(c, msg, now));
                self.core_arrivals = msgs;
                delivered?;
            }
        }
        Ok(())
    }

    /// Hands a core's memory responses to its harts. Handling one changes
    /// harts only, so they are read where they lie.
    fn deliver_mem_arrivals(&mut self, core: u32) -> Result<(), SimError> {
        let mut i = 0;
        while let Some(msg) = self.mem.arrival(core, i) {
            self.deliver_mem(msg)?;
            i += 1;
        }
        Ok(())
    }

    fn hart_mut(&mut self, id: HartId) -> &mut HartCtx {
        &mut self.cores[id.core() as usize].harts[id.local() as usize]
    }

    /// Decrements a hart's outstanding-memory counter, turning underflow
    /// (a response nobody waits for, e.g. after a fault scrambled the
    /// protocol) into a structured error instead of a panic.
    fn mem_completion(&mut self, hart: HartId, what: &str) -> Result<(), SimError> {
        let h = self.hart_mut(hart);
        h.in_flight_mem = h
            .in_flight_mem
            .checked_sub(1)
            .ok_or_else(|| SimError::Protocol {
                hart,
                what: format!("{what} arrived with no outstanding memory access"),
            })?;
        Ok(())
    }

    fn deliver_mem(&mut self, msg: NetMsg) -> Result<(), SimError> {
        match msg {
            NetMsg::ReadResp { addr, value, hart } => {
                self.mem_completion(hart, "a load response")?;
                let h = self.hart_mut(hart);
                let rb = h.rb.as_mut().ok_or_else(|| SimError::Protocol {
                    hart,
                    what: format!("load response for {addr:#010x} with no result buffer"),
                })?;
                debug_assert!(matches!(rb.wait, RbWait::Mem));
                rb.wait = RbWait::Done { value: Some(value) };
                self.obs
                    .event(self.cycle, hart, EventKind::MemResp { addr });
            }
            NetMsg::WriteAck { addr, hart } => {
                self.mem_completion(hart, "a store acknowledgement")?;
                self.obs
                    .event(self.cycle, hart, EventKind::MemResp { addr });
            }
            other => {
                return Err(SimError::Protocol {
                    hart: HartId::FIRST,
                    what: format!("request {other:?} delivered to a core"),
                })
            }
        }
        Ok(())
    }

    fn deliver_core_msg(&mut self, core: u32, msg: CoreMsg, now: u64) -> Result<(), SimError> {
        match msg {
            CoreMsg::ForkReq { from } => {
                self.cores[core as usize].alloc_q.push_back(from);
            }
            CoreMsg::ForkReply { to, child } => {
                let rb = self
                    .hart_mut(to)
                    .rb
                    .as_mut()
                    .ok_or_else(|| SimError::Protocol {
                        hart: to,
                        what: "fork reply with no pending p_fn".to_owned(),
                    })?;
                debug_assert!(matches!(rb.wait, RbWait::Fork));
                rb.wait = RbWait::Done {
                    value: Some(child.global()),
                };
            }
            CoreMsg::Start { to, pc } => {
                let h = self.hart_mut(to);
                xpar::resume(to, &mut h.state, HartState::Reserved, pc)?;
                h.pc = Some(pc);
                h.unsuspend_now();
                self.obs.event(now, to, EventKind::Start { pc });
            }
            CoreMsg::CvWrite {
                to,
                offset,
                value,
                from,
            } => {
                self.mem.cv_write(to, offset, value)?;
                // Acknowledge toward the writer (feeds its p_syncm).
                self.fabric.send(core, CoreMsg::CvAck { to: from });
            }
            CoreMsg::CvAck { to } => {
                self.mem_completion(to, "a cv-write acknowledgement")?;
            }
            CoreMsg::EndSignal { to } => {
                self.hart_mut(to).end_signal = true;
            }
            CoreMsg::Join { to, pc } => {
                self.obs.join(to);
                let h = self.hart_mut(to);
                xpar::resume(to, &mut h.state, HartState::WaitingJoin, pc)?;
                h.pc = Some(pc);
                h.unsuspend_now();
                h.end_signal = true; // everything sequentially prior committed
                self.stats.joins += 1;
                self.obs.event(now, to, EventKind::Join { pc });
            }
            CoreMsg::Result { to, slot, value } => {
                xpar::result_slot(&mut self.hart_mut(to).recv, to, slot)?.push_back(value);
                self.obs
                    .event(now, to, EventKind::ResultDelivered { slot, value });
            }
        }
        Ok(())
    }

    /// The architectural value of a register of a hart, read through its
    /// renaming table (test/debug helper; meaningful when the hart's
    /// pipeline is drained).
    pub fn reg(&self, hart: HartId, reg: lbp_isa::Reg) -> u32 {
        let h = &self.cores[hart.core() as usize].harts[hart.local() as usize];
        h.prf[h.rat[reg.index()] as usize]
    }

    /// An FNV-1a-64 hash of the machine's *architectural* state: hart
    /// states, program counters, architectural registers (read through the
    /// renaming tables), receive slots, end signals, team successors,
    /// per-hart retired counts, the architectural event counters
    /// (forks/joins/muldiv/local/remote accesses) and the full memory
    /// image — but **no** timing state (cycles, stalls, hops, conflicts,
    /// in-flight messages, pipeline contents).
    ///
    /// This is the hybrid-handoff equality oracle: a fast-forwarded
    /// warm-then-measure run of a race-free program must end with the
    /// same architectural hash as the pure cycle-exact run. Meaningful
    /// when the machine is quiescent (exited or at a cycle boundary with
    /// drained pipelines).
    pub fn arch_hash(&self) -> u64 {
        let mut h = hash::OFFSET_BASIS;
        let mut put = |bytes: &[u8]| h = hash::extend(h, bytes);
        put(&[self.exited as u8]);
        for core in &self.cores {
            for hart in &core.harts {
                let tag = match hart.state {
                    HartState::Free => 0u8,
                    HartState::Reserved => 1,
                    HartState::Running => 2,
                    HartState::WaitingJoin => 3,
                };
                put(&[tag]);
                if hart.state == HartState::Free {
                    continue; // dead registers carry stale values
                }
                match hart.pc {
                    Some(pc) => {
                        put(&[1]);
                        put(&pc.to_le_bytes());
                    }
                    None => put(&[0]),
                }
                for r in 0..32 {
                    put(&hart.prf[hart.rat[r] as usize].to_le_bytes());
                }
                for q in &hart.recv {
                    put(&(q.len() as u64).to_le_bytes());
                    for &v in q {
                        put(&v.to_le_bytes());
                    }
                }
                put(&[hart.end_signal as u8]);
                match hart.team_succ {
                    Some(succ) => {
                        put(&[1]);
                        put(&succ.global().to_le_bytes());
                    }
                    None => put(&[0]),
                }
            }
        }
        for &n in &self.stats.retired_per_hart {
            put(&n.to_le_bytes());
        }
        put(&self.stats.forks.to_le_bytes());
        put(&self.stats.joins.to_le_bytes());
        put(&self.stats.muldiv_ops.to_le_bytes());
        put(&self.stats.local_accesses.to_le_bytes());
        put(&self.stats.remote_accesses.to_le_bytes());
        self.mem.banks.extend_hash(h)
    }
}

/// Builds a cycle-exact [`Machine`] from a functional engine's
/// architectural state — the hybrid handoff behind
/// [`FastEngine::materialize`](crate::fast::FastEngine::materialize).
///
/// The produced machine is indistinguishable from one that ran the warm
/// phase cycle-exactly and then had every timing counter zeroed: all
/// pipelines empty, no message in flight, the clock at the engine's
/// virtual cycle, and the per-core accounting invariant
/// (`retired + stalls == cycles`) preserved by padding the synthetic
/// stall budget into the `idle` bucket. Once the warm phase has retired
/// anything, the machine is marked [`Engine::Functional`].
pub(crate) fn materialize_from_fast(
    fast: &crate::fast::FastEngine,
    image: &Image,
) -> Result<Machine, SimError> {
    let cfg = fast.cfg().clone();
    let vcycle = fast.virtual_cycle();
    // The hybrid timeline cannot honor every fault plan: message faults
    // count fabric messages the warm phase never sends, and a
    // cycle-triggered fault inside the warm window would have hit a state
    // the fast engine never modeled. Refuse both up front, as a plan
    // aimed outside the machine is: no hart has done anything wrong.
    let bad = |fault: &Fault, why| SimError::FaultPlan {
        spec: fault.to_string().into(),
        why,
    };
    for fault in &cfg.faults.faults {
        match fault {
            Fault::DropMsg { .. } | Fault::DelayMsg { .. } => {
                return Err(bad(
                    fault,
                    "message faults count fabric messages, which functional \
                     fast-forwarding does not model; run cycle-exact from cycle 0",
                ));
            }
            _ => {
                if vcycle > 0 && fault.cycle().is_some_and(|c| c <= vcycle) {
                    return Err(bad(
                        fault,
                        "it triggers inside the functional warm phase; schedule it \
                         after the handoff or shrink --warm",
                    ));
                }
            }
        }
    }
    validate_fault_plan(&cfg, image)?;
    let mut m = Machine::around(cfg, image, fast.banks().clone());
    if fast.retired() > 0 {
        m.engine = Engine::Functional;
    }
    m.cycle = vcycle;
    m.stats.cycles = vcycle;
    let (forks, joins, muldiv_ops, local_accesses, remote_accesses) = fast.counters();
    m.stats.forks = forks;
    m.stats.joins = joins;
    m.stats.muldiv_ops = muldiv_ops;
    m.stats.local_accesses = local_accesses;
    m.stats.remote_accesses = remote_accesses;
    m.stats
        .retired_per_hart
        .copy_from_slice(fast.retired_per_hart());
    for c in 0..m.cfg.cores {
        let retired = m.stats.retired_by_core(c);
        m.stats.stalls_per_core[c] = CoreStalls {
            idle: vcycle - retired,
            ..CoreStalls::default()
        };
    }
    m.mem.local_served = local_accesses;
    m.mem.remote_served = remote_accesses;
    let harts = m.cfg.harts();
    for hi in 0..harts {
        let view = fast.hart_view(hi);
        let id = HartId::new(hi as u32);
        let h = m.hart_mut(id);
        h.state = view.state;
        h.pc = view.pc;
        h.fetch_suspended = view.pc.is_none();
        h.resume_at = 0;
        h.end_signal = view.end_signal;
        h.team_succ = view.team_succ;
        if view.state != HartState::Free {
            // The renaming table of an untouched hart is the identity, so
            // architectural register r lives in physical register r.
            for r in 0..32 {
                h.write_phys(h.rat[r], view.regs[r]);
            }
        }
        for (q, src) in h.recv.iter_mut().zip(view.recv) {
            q.clone_from(src);
        }
    }
    for (core, q) in fast.free_queues().iter().enumerate() {
        m.cores[core].free_q.clone_from(q);
    }
    m.cursor = SampleCursor {
        cycle: vcycle,
        retired: m.stats.retired(),
        link_hops: 0,
        stalls: m.stats.stalls_total(),
    };
    Ok(m)
}

/// Rejects fault plans that target something outside the machine, so the
/// injectors themselves never need bounds checks.
fn validate_fault_plan(cfg: &LbpConfig, image: &Image) -> Result<(), SimError> {
    let bad = |fault: &Fault, why| SimError::FaultPlan {
        spec: fault.to_string().into(),
        why,
    };
    for fault in &cfg.faults.faults {
        match *fault {
            Fault::FlipReg { hart, reg, bit, .. } => {
                if hart.global() as usize >= cfg.harts() {
                    return Err(bad(fault, "no such hart in this configuration"));
                }
                if reg.is_zero() {
                    return Err(bad(fault, "x0 is hard-wired to zero"));
                }
                if bit >= 32 {
                    return Err(bad(fault, "registers have 32 bits"));
                }
            }
            Fault::FlipMem { addr, bit, .. } => {
                if bit >= 32 {
                    return Err(bad(fault, "memory words have 32 bits"));
                }
                if lbp_isa::Region::of(addr) != lbp_isa::Region::Shared
                    || ((addr - lbp_isa::SHARED_BASE) as u64) >= cfg.shared_bytes()
                {
                    return Err(bad(fault, "address is outside the shared space"));
                }
            }
            Fault::CorruptInstr { pc, .. } => {
                if !is_code_word(image.text.len(), pc) {
                    return Err(bad(fault, "pc is not a code word of the image"));
                }
            }
            Fault::DropMsg { .. } => {}
            Fault::DelayMsg { cycles, .. } => {
                if cycles == 0 {
                    return Err(bad(fault, "a delay of 0 cycles injects nothing"));
                }
            }
        }
    }
    Ok(())
}
