//! The cycle-exact workloads: three guests that load `Machine::tick`
//! differently, and the dense guest again with every observer attached.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use lbp_asm::Image;
use lbp_kernels::matmul::{Matmul, Version};
use lbp_prof::{BenchRow, SymTab};
use lbp_sim::{JsonlSink, LbpConfig, Machine, RunReport};

use super::{hash_words, Guest, Outcome, Workload, MAX_CYCLES};
use crate::reference::{self, Pin};
use crate::trace::Tracer;

/// An assembled guest program, the machine it runs on and the reference
/// row it must reproduce.
struct GuestProgram {
    image: Image,
    cfg: LbpConfig,
    /// Set for the matmul guests: fills the inputs and verifies `Z`.
    matmul: Option<Matmul>,
    /// Where the pin comes from, for failure messages.
    row: String,
    pin: Pin,
}

impl GuestProgram {
    /// One of the paper's matmul kernels on `harts` harts, pinned to its
    /// row of `section`.
    fn matmul(
        harts: usize,
        version: Version,
        reference: &str,
        section: &str,
        t: &Tracer,
    ) -> Result<GuestProgram, String> {
        let pin = reference::pin(reference, section, version.name())?;
        let mm = Matmul::new(harts, version);
        let image = build(t, || mm.program().source())?;
        Ok(GuestProgram {
            image,
            cfg: mm.config(),
            matmul: Some(mm),
            row: format!("{section} {}", version.name()),
            pin,
        })
    }

    /// The empty fork-join team of `threads` members (claim C2).
    fn fork_join(threads: usize, reference: &str, t: &Tracer) -> Result<GuestProgram, String> {
        let row = format!("fork-join x{threads}");
        let pin = reference::pin(reference, reference::C2, &row)?;
        let image = build(t, || {
            lbp_omp::DetOmp::new(threads)
                .function("empty", "p_ret")
                .parallel_for("empty")
                .source()
        })?;
        Ok(GuestProgram {
            image,
            cfg: LbpConfig::cores(threads.div_ceil(4)),
            matmul: None,
            row: format!("C2 {row}"),
            pin,
        })
    }

    /// A fresh machine with the paper's all-ones inputs loaded.
    fn machine(&self, cfg: LbpConfig) -> Result<Machine, String> {
        let mut m = Machine::new(cfg, &self.image).map_err(|e| e.to_string())?;
        if let Some(mm) = &self.matmul {
            let l = mm.layout();
            let ones = (0..l.n)
                .flat_map(|i| (0..l.m).map(move |k| (i, k)))
                .flat_map(|(i, k)| [l.x(i, k), l.y(k, i)]);
            for addr in ones {
                m.poke_shared(addr, 1).map_err(|e| e.to_string())?;
            }
        }
        Ok(m)
    }

    /// Checks a finished run against the pin and, for matmul, `Z`.
    fn check(&self, out: &mut Outcome, m: &mut Machine, report: &RunReport) {
        out.expect_eq(&format!("{}: exited", self.row), report.exited, true);
        let cycles = report.stats.cycles;
        out.expect_eq(&format!("{}: cycles", self.row), cycles, self.pin.cycles);
        out.expect_eq(
            &format!("{}: retired", self.row),
            report.stats.retired(),
            self.pin.retired,
        );
        if let Some(mm) = &self.matmul {
            let verified = mm.verify(m).map_err(|e| e.to_string());
            out.expect_eq(&format!("{}: Z == h/2", self.row), verified, Ok(true));
        }
        let pin = self.pin.cycles as f64;
        out.ref_cycle_err_pct = Some((cycles as f64 - pin).abs() / pin * 100.0);
    }
}

/// Generates a kernel's source and assembles it, as `Matmul::build` and
/// `DetOmp::build` do, with the assembler under its own span.
pub(super) fn build(t: &Tracer, source: impl FnOnce() -> String) -> Result<Image, String> {
    let _build = t.span("kernels.build");
    let source = source();
    assemble(t, &source)
}

/// `lbp_asm::assemble` under the `asm.assemble` span, with its counts.
pub(super) fn assemble(t: &Tracer, source: &str) -> Result<Image, String> {
    let span = t.span("asm.assemble");
    let image = lbp_asm::assemble(source).map_err(|e| e.to_string());
    span.count("source_bytes", source.len() as f64);
    if let Ok(image) = &image {
        span.count("code_words", image.text.len() as f64);
    }
    image
}

/// Runs `m` to exit under the `sim.run` span, with the counts the
/// per-cycle, per-instruction and per-event costs divide by.
pub(super) fn timed_run(t: &Tracer, m: &mut Machine) -> Result<RunReport, String> {
    let span = t.span("sim.run");
    let report = m.run(MAX_CYCLES).map_err(|e| e.to_string())?;
    let s = &report.stats;
    span.count("cycles", s.cycles as f64);
    span.count("core_cycles", (s.cycles * m.config().cores as u64) as f64);
    span.count("retired", s.retired() as f64);
    span.count("events", BenchRow::events_of(s) as f64);
    Ok(report)
}

/// `cx_dense`, `cx_remote` and `cx_idle`: build the machine, run it to
/// exit, check the pin.
pub struct Plain {
    guest: GuestProgram,
}

impl Plain {
    /// Tiled matmul, h=64: the core pipelines carry the run.
    pub fn dense(reference: &str, t: &Tracer) -> Result<Plain, String> {
        let guest = GuestProgram::matmul(64, Version::Tiled, reference, reference::FIG20, t)?;
        Ok(Plain { guest })
    }

    /// Base matmul, h=64: the memory network carries the run.
    pub fn remote(reference: &str, t: &Tracer) -> Result<Plain, String> {
        let guest = GuestProgram::matmul(64, Version::Base, reference, reference::FIG20, t)?;
        Ok(Plain { guest })
    }

    /// Empty fork-join x256 on 64 cores: almost every core-cycle is idle.
    pub fn idle(reference: &str, t: &Tracer) -> Result<Plain, String> {
        let guest = GuestProgram::fork_join(256, reference, t)?;
        Ok(Plain { guest })
    }

    fn run(&self, t: &Tracer) -> Result<(Outcome, Machine, RunReport), String> {
        let mut m = {
            let _new = t.span("sim.new");
            self.guest.machine(self.guest.cfg.clone())?
        };
        let report = timed_run(t, &mut m)?;
        let mut out = Outcome {
            ops: 1,
            ..Outcome::default()
        };
        self.guest.check(&mut out, &mut m, &report);
        let mut guest = Guest::default();
        guest.add(&report.stats, m.config().cores);
        out.guest = Some(guest);
        out.check_hash = m.arch_hash();
        Ok((out, m, report))
    }
}

impl Workload for Plain {
    fn iterate(&self, t: &Tracer) -> Outcome {
        match self.run(t) {
            Ok((out, ..)) => out,
            Err(e) => failed(e),
        }
    }

    fn probe(&self, t: &Tracer) {
        let Ok((_, m, report)) = self.run(t) else {
            return;
        };
        report_and_state(t, &m, &report);
    }

    fn code_words(&self) -> u64 {
        self.guest.image.text.len() as u64
    }
}

/// An iteration that could not even run.
pub(super) fn failed(why: String) -> Outcome {
    Outcome {
        failure: Some(why),
        ops: 1,
        ..Outcome::default()
    }
}

/// The two serializations a finished run offers: its `lbp-stats-v1`
/// report and its snapshot.
fn report_and_state(t: &Tracer, m: &Machine, report: &RunReport) {
    {
        let span = t.span("sim.report_json");
        let mut text = String::new();
        report.to_json().write(&mut text);
        span.count("bytes", text.len() as f64);
    }
    let span = t.span("sim.snapshot");
    span.count("state_bytes", m.snapshot().as_bytes().len() as f64);
}

/// Cycles between checkpoints of the observed run.
const CHECKPOINT_EVERY: u64 = 10_000;
/// Cycles between samples of the observed run.
const SAMPLE_EVERY: u64 = 1000;

/// `cx_observed`: the `cx_dense` guest with the profiler, the race
/// witness, the interval sampler and a checkpoint every 10,000 cycles,
/// then the last checkpoint decoded, restored and run to exit. The JSONL
/// event sink costs several times the run and would hide the collectors,
/// so it is a probe, not part of the iteration.
pub struct Observed {
    guest: GuestProgram,
    /// `arch_hash` of the plain guest at exit.
    plain_hash: u64,
}

impl Observed {
    /// Builds the guest and runs it plainly once for the reference hash.
    pub fn new(reference: &str, t: &Tracer) -> Result<Observed, String> {
        let guest = GuestProgram::matmul(64, Version::Tiled, reference, reference::FIG20, t)?;
        let mut m = guest.machine(guest.cfg.clone())?;
        timed_run(t, &mut m)?;
        Ok(Observed {
            guest,
            plain_hash: m.arch_hash(),
        })
    }

    fn run(&self, t: &Tracer) -> Result<Outcome, String> {
        let g = &self.guest;
        let mut m = {
            let _new = t.span("sim.new");
            let mut m = g.machine(g.cfg.clone().with_interval(SAMPLE_EVERY))?;
            m.enable_profiling();
            m.enable_race_witness();
            m
        };
        let mut last_checkpoint = Vec::new();
        let mut checkpoints = 0u64;
        {
            let span = t.span("sim.observed_run");
            m.run_cooperative(MAX_CYCLES, CHECKPOINT_EVERY, |paused| {
                let state = {
                    let snap = t.span("sim.snapshot");
                    let state = paused.snapshot();
                    snap.count("state_bytes", state.as_bytes().len() as f64);
                    state
                };
                let encode = t.span("snap.encode");
                last_checkpoint = lbp_snap::encode(&state);
                encode.count("bytes", last_checkpoint.len() as f64);
                checkpoints += 1;
                true
            })
            .map_err(|f| f.error.to_string())?;
            span.count("samples", m.stats().samples.len() as f64);
            span.count("race_witnesses", m.race_witnesses().len() as f64);
        }
        let report = m.report();
        let mut out = Outcome {
            ops: 1,
            ..Outcome::default()
        };
        g.check(&mut out, &mut m, &report);
        out.expect_eq("observed run: arch_hash", m.arch_hash(), self.plain_hash);
        out.expect_eq("observed run: race witnesses", m.race_witnesses().len(), 0);
        out.expect_eq(
            "observed run: checkpoints",
            checkpoints,
            (g.pin.cycles - 1) / CHECKPOINT_EVERY,
        );
        let stats = &report.stats;
        let partitioned = (0..m.config().cores)
            .all(|c| stats.retired_by_core(c) + stats.stalls_of_core(c).total() == stats.cycles);
        out.expect_eq(
            "observed run: retired + stalls == cycles per core",
            partitioned,
            true,
        );
        {
            let _report = t.span("prof.report");
            let prof = m.profile().ok_or("profiling was enabled")?;
            let sym = SymTab::from_image(&g.image);
            let json = lbp_prof::build_report("cx_observed", stats, prof, &sym);
            let folded = lbp_prof::folded_stacks(prof, &sym);
            std::hint::black_box((json, folded));
        }

        let state = {
            let _decode = t.span("snap.decode");
            lbp_snap::decode(&last_checkpoint).map_err(|e| e.to_string())?
        };
        let mut resumed = {
            let _restore = t.span("sim.restore");
            Machine::restore(&state).map_err(|e| e.to_string())?
        };
        let resumed_report = {
            let _run = t.span("sim.resumed_run");
            resumed.run(MAX_CYCLES).map_err(|e| e.to_string())?
        };
        g.check(&mut out, &mut resumed, &resumed_report);
        out.expect_eq(
            "resumed run: arch_hash",
            resumed.arch_hash(),
            self.plain_hash,
        );

        let mut guest = Guest::default();
        guest.add(stats, m.config().cores);
        out.guest = Some(guest);
        out.check_hash = hash_words(&[m.arch_hash(), resumed.arch_hash(), checkpoints]);
        Ok(out)
    }

    /// One tiled h=16 run with a JSONL sink into a writer that only
    /// counts: what an event costs to serialize.
    fn jsonl_probe(&self, t: &Tracer) -> Result<(), String> {
        let mm = Matmul::new(16, Version::Tiled);
        let mut m = mm.machine().map_err(|e| e.to_string())?;
        let lines = Rc::new(RefCell::new(0u64));
        m.set_sink(Box::new(JsonlSink::new(LineCounter(Rc::clone(&lines)))));
        let span = t.span("sim.trace_jsonl_run");
        m.run(MAX_CYCLES).map_err(|e| e.to_string())?;
        m.finish_trace().map_err(|e| e.to_string())?;
        span.count("events", *lines.borrow() as f64);
        Ok(())
    }
}

/// Counts the lines written to it and keeps nothing.
struct LineCounter(Rc<RefCell<u64>>);

impl Write for LineCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        *self.0.borrow_mut() += buf.iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Workload for Observed {
    fn iterate(&self, t: &Tracer) -> Outcome {
        self.run(t).unwrap_or_else(failed)
    }

    fn probe(&self, t: &Tracer) {
        // The same guest with nothing attached, for the observers' ratio.
        let plain = self.guest.machine(self.guest.cfg.clone());
        if let Ok(mut m) = plain {
            if let Ok(report) = timed_run(t, &mut m) {
                report_and_state(t, &m, &report);
            }
        }
        let _ = self.jsonl_probe(t);
    }

    fn code_words(&self) -> u64 {
        self.guest.image.text.len() as u64
    }
}
