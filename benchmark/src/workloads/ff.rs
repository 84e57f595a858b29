//! `ff_scale`: the functional engine does the work.

use lbp_asm::Image;
use lbp_kernels::matmul::{Matmul, Version};
use lbp_sim::{FastEngine, FastStop, Machine};

use super::cx::{build, failed, timed_run};
use super::{hash_words, Guest, Outcome, Workload, MAX_CYCLES};
use crate::reference::{self, Pin};
use crate::trace::Tracer;

/// Leg 1 runs the paper's full 64-core machine (Fig. 21, tiled, h=256) on
/// the functional engine to the exit boundary, materializes it and lets
/// the cycle-exact engine retire the last instruction. Leg 2 warms 90 % of
/// the h=64 tiled run functionally and finishes it cycle-exact, and must
/// land on the cycle-exact run's architectural hash.
pub struct Scale {
    big: (Matmul, Image),
    /// Fig. 21 tiled: the retired count leg 1 must hit, and the
    /// cycle-exact cycle count its virtual cycle is an estimate of.
    big_pin: Pin,
    small: (Matmul, Image),
    small_pin: Pin,
    /// `arch_hash` of the cycle-exact h=64 run.
    small_hash: u64,
}

impl Scale {
    /// Builds both images and runs the h=64 guest cycle-exact once for
    /// the reference hash.
    pub fn new(reference: &str, t: &Tracer) -> Result<Scale, String> {
        let big_pin = reference::pin(reference, reference::FIG21, "tiled")?;
        let small_pin = reference::pin(reference, reference::FIG20, "tiled")?;
        let big = Matmul::new(256, Version::Tiled);
        let big_image = build(t, || big.program().source())?;
        let small = Matmul::new(64, Version::Tiled);
        let small_image = build(t, || small.program().source())?;
        let mut exact = small.machine().map_err(|e| e.to_string())?;
        let report = timed_run(t, &mut exact)?;
        if report.stats.cycles != small_pin.cycles {
            return Err(format!(
                "Figure 20 tiled: cycle-exact reference run took {} cycles, the row says {}",
                report.stats.cycles, small_pin.cycles
            ));
        }
        Ok(Scale {
            big: (big, big_image),
            big_pin,
            small: (small, small_image),
            small_pin,
            small_hash: exact.arch_hash(),
        })
    }

    /// A functional engine with the all-ones inputs loaded.
    fn engine(t: &Tracer, mm: &Matmul, image: &Image) -> Result<FastEngine, String> {
        let _new = t.span("fast.new");
        let mut fast = FastEngine::new(mm.config(), image).map_err(|e| e.to_string())?;
        let l = mm.layout();
        for i in 0..l.n {
            for k in 0..l.m {
                fast.poke_shared(l.x(i, k), 1).map_err(|e| e.to_string())?;
                fast.poke_shared(l.y(k, i), 1).map_err(|e| e.to_string())?;
            }
        }
        Ok(fast)
    }

    /// Hands the engine's state to a cycle-exact machine and runs that to
    /// exit.
    fn finish(t: &Tracer, fast: &FastEngine, image: &Image) -> Result<Machine, String> {
        let mut tail = {
            let _materialize = t.span("fast.materialize");
            fast.materialize(image).map_err(|e| e.to_string())?
        };
        let _run = t.span("fast.tail_run");
        let report = tail.run(MAX_CYCLES).map_err(|e| e.to_string())?;
        if !report.exited {
            return Err("the cycle-exact tail did not exit".to_owned());
        }
        Ok(tail)
    }

    fn run(&self, t: &Tracer) -> Result<Outcome, String> {
        let mut out = Outcome {
            ops: 2,
            ..Outcome::default()
        };
        let mut guest = Guest::default();

        // Leg 1: whole program on the functional engine.
        let (mm, image) = &self.big;
        let mut fast = Scale::engine(t, mm, image)?;
        let summary = {
            let span = t.span("fast.run");
            let summary = fast
                .run(FastStop::Exit, u64::MAX)
                .map_err(|e| e.to_string())?;
            span.count("retired", summary.retired as f64);
            span.count("virtual_cycles", summary.virtual_cycle as f64);
            summary
        };
        let mut tail = Scale::finish(t, &fast, image)?;
        out.expect_eq("Figure 21 tiled: at exit", summary.at_exit, true);
        out.expect_eq(
            "Figure 21 tiled: retired",
            tail.stats().retired(),
            self.big_pin.retired,
        );
        let verified = mm.verify(&mut tail).map_err(|e| e.to_string());
        out.expect_eq("Figure 21 tiled: Z == h/2", verified, Ok(true));
        let exact = self.big_pin.cycles as f64;
        out.ref_cycle_err_pct = Some((summary.virtual_cycle as f64 - exact).abs() / exact * 100.0);
        guest.add(tail.stats(), mm.cores());
        let big_hash = tail.arch_hash();

        // Leg 2: hybrid90 on the h=64 guest.
        let (mm, image) = &self.small;
        let mut fast = Scale::engine(t, mm, image)?;
        let target = self.small_pin.retired * 9 / 10;
        {
            let span = t.span("fast.run");
            let warm = fast
                .run(FastStop::Retired(target), u64::MAX)
                .map_err(|e| e.to_string())?;
            span.count("retired", warm.retired as f64);
            span.count("warm_retired", warm.retired as f64);
            span.count("warm_of", self.small_pin.retired as f64);
        }
        let mut tail = Scale::finish(t, &fast, image)?;
        out.expect_eq("hybrid90: arch_hash", tail.arch_hash(), self.small_hash);
        out.expect_eq(
            "hybrid90: retired",
            tail.stats().retired(),
            self.small_pin.retired,
        );
        let verified = mm.verify(&mut tail).map_err(|e| e.to_string());
        out.expect_eq("hybrid90: Z == h/2", verified, Ok(true));
        guest.add(tail.stats(), mm.cores());

        out.guest = Some(guest);
        out.check_hash = hash_words(&[big_hash, tail.arch_hash(), summary.virtual_cycle]);
        Ok(out)
    }
}

impl Workload for Scale {
    fn iterate(&self, t: &Tracer) -> Outcome {
        self.run(t).unwrap_or_else(|e| Outcome {
            ops: 2,
            ..failed(e)
        })
    }

    fn code_words(&self) -> u64 {
        (self.big.1.text.len() + self.small.1.text.len()) as u64
    }
}
