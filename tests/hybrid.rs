//! The hybrid handoff property: `materialize(fast_forward(N))` then
//! running cycle-exactly to completion must reach the *bit-identical
//! architectural state* a pure cycle-exact run reaches — for every
//! example program, at every warm target (including 0, mid-rendezvous
//! values, and past-end), and with faults scheduled inside the
//! cycle-exact window.

use lbp::asm::Image;
use lbp::kernels::matmul::{Matmul, Version};
use lbp::omp::DetOmp;
use lbp::sim::{
    EventKind, FastEngine, FastStop, FastSummary, Fault, FaultPlan, LbpConfig, Machine, SimError,
};
use lbp::snap;

const MAX_CYCLES: u64 = 100_000_000;
const MAX_STEPS: u64 = 100_000_000;

fn repo(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Every example program the suite proves the handoff on: assembly
/// examples, compiled C samples, a kernels-built fork tree, and two
/// `DetOmp` teams — four members of pure ALU work on one core, and an
/// empty 16-member team, which is all spawn, barrier and join.
fn example_images() -> Vec<(String, Image, usize)> {
    let mut out = Vec::new();
    for (file, cores) in [("examples/asm/mul.s", 1), ("examples/asm/fork2.s", 2)] {
        let src = std::fs::read_to_string(repo(file)).unwrap();
        out.push((file.to_owned(), lbp::asm::assemble(&src).unwrap(), cores));
    }
    for (file, cores) in [
        ("examples/c/hello_team.c", 2),
        ("examples/c/matmul.c", 4),
        ("examples/c/set_get.c", 4),
        ("examples/c/reduce.c", 2),
    ] {
        let src = std::fs::read_to_string(repo(file)).unwrap();
        let compiled = lbp::cc::compile(&src).unwrap();
        out.push((file.to_owned(), compiled.image, cores));
    }
    let mm = Matmul::new(16, Version::Base);
    out.push(("kernels/matmul-base-16".to_owned(), mm.build(), mm.cores()));
    let spin = "li a2, 2000\nli a3, 0\nspin_loop:\naddi a3, a3, 1\nxori a3, a3, 5\n\
                addi a2, a2, -1\nbnez a2, spin_loop\np_ret";
    for (name, members, body) in [
        ("omp/spin-alu-4", 4, spin),
        ("omp/fork-join-16", 16, "p_ret"),
    ] {
        let p = DetOmp::new(members).function("f", body).parallel_for("f");
        out.push((name.to_owned(), p.build().unwrap(), members.div_ceil(4)));
    }
    out
}

fn pure_run(image: &Image, cores: usize) -> (u64, u64) {
    let mut m = Machine::new(LbpConfig::cores(cores), image).unwrap();
    let report = m.run(MAX_CYCLES).unwrap();
    assert!(report.exited);
    (report.stats.retired(), m.arch_hash())
}

/// Fast-forwards to `stop`, materializes, finishes cycle-exactly, and
/// returns the final architectural hash plus the finished machine.
fn hybrid_run(image: &Image, cores: usize, stop: FastStop) -> (u64, Machine) {
    let mut fast = FastEngine::new(LbpConfig::cores(cores), image).unwrap();
    fast.run(stop, MAX_STEPS).unwrap();
    let mut m = fast.materialize(image).unwrap();
    let report = m.run(MAX_CYCLES).unwrap();
    assert!(report.exited);
    (m.arch_hash(), m)
}

#[test]
fn hybrid_handoff_matches_pure_cycle_exact() {
    for (name, image, cores) in example_images() {
        let (retired, pure_hash) = pure_run(&image, cores);
        for warm in [0, retired / 2, retired.saturating_sub(1), u64::MAX] {
            let (hash, m) = hybrid_run(&image, cores, FastStop::Retired(warm));
            assert_eq!(
                hash, pure_hash,
                "{name}: hybrid warm={warm} diverged from pure cycle-exact"
            );
            assert_eq!(
                m.stats().retired(),
                retired,
                "{name}: hybrid warm={warm} retired a different instruction count"
            );
        }
        let (hash, _) = hybrid_run(&image, cores, FastStop::Exit);
        assert_eq!(hash, pure_hash, "{name}: exit-boundary handoff diverged");
    }
}

/// Every warm target in 0..=retired for a forking program — mid-rendezvous
/// targets included — must clamp cleanly, never panic, and still converge.
#[test]
fn every_warm_target_clamps_and_converges() {
    let src = std::fs::read_to_string(repo("examples/asm/fork2.s")).unwrap();
    let image = lbp::asm::assemble(&src).unwrap();
    let (retired, pure_hash) = pure_run(&image, 2);
    for warm in 0..=retired {
        let mut fast = FastEngine::new(LbpConfig::cores(2), &image).unwrap();
        let summary = fast.run(FastStop::Retired(warm), MAX_STEPS).unwrap();
        assert!(
            summary.rendezvous_clean,
            "warm={warm}: drain left a fork pending"
        );
        let mut m = fast.materialize(&image).unwrap();
        let report = m.run(MAX_CYCLES).unwrap();
        assert!(report.exited, "warm={warm}: hybrid run did not exit");
        assert_eq!(m.arch_hash(), pure_hash, "warm={warm}: diverged");
    }
}

/// `__roi_start();` compiles to a label the hybrid driver can target:
/// fast-forwarding to its pc parks before the marker, and finishing
/// cycle-exactly still converges to the pure run's state.
#[test]
fn roi_marker_compiles_to_a_targetable_label() {
    let src = "\
#define NUM_HART 8
#include <det_omp.h>

int data[NUM_HART];
int out[1];

void fill(int t) { data[t] = t * 3; }

void main(void) {
    int t; int s;
    omp_set_num_threads(NUM_HART);
#pragma omp parallel for
    for (t = 0; t < NUM_HART; t++) fill(t);
    __roi_start();
    s = 0;
    for (t = 0; t < NUM_HART; t++) s += data[t];
    out[0] = s;
    __roi_end();
}
";
    let compiled = lbp::cc::compile(src).unwrap();
    let start = compiled
        .image
        .symbol("__roi_start")
        .expect("__roi_start(); lowers to a label");
    assert!(
        compiled.image.symbol("__roi_end").is_some(),
        "__roi_end(); lowers to a label"
    );
    let (retired, pure_hash) = pure_run(&compiled.image, 2);
    let mut fast = FastEngine::new(LbpConfig::cores(2), &compiled.image).unwrap();
    let summary = fast.run(FastStop::Pc(start), MAX_STEPS).unwrap();
    assert!(
        summary.retired > 0,
        "the warm phase covered the fork region"
    );
    assert!(summary.retired < retired, "the ROI tail stayed cycle-exact");
    let mut m = fast.materialize(&compiled.image).unwrap();
    let report = m.run(MAX_CYCLES).unwrap();
    assert!(report.exited);
    assert_eq!(m.arch_hash(), pure_hash, "ROI handoff diverged");
}

/// One pinned handoff: the warm target, then what the functional engine
/// hands over there — `retired`, `virtual_cycle`, `clamped`, and the
/// `content_hash` of the machine it materializes.
type Handoff = (u64, [u64; 4]);

/// `examples/asm/fork2.s` on two cores, mid-fork targets included.
const FORK2_HANDOFFS: [Handoff; 6] = [
    (3, [3, 3, 0, 0xe478_cd8f_79d5_6b68]),
    (10, [10, 10, 0, 0xfc6f_daa3_a73c_21bd]),
    (17, [17, 16, 0, 0xb3a5_9a16_1226_4f54]),
    (20, [20, 16, 0, 0x93d9_b33b_336d_148a]),
    (28, [28, 17, 0, 0x5c0c_4854_d230_ee3a]),
    // Past the end: parked at the exit p_ret.
    (33, [32, 21, 0, 0x6afb_6ed2_e568_b952]),
];

/// The h=64 tiled matmul (16 cores, all-ones inputs): inside the team's
/// spawn, mid-run, and the 90 % target the `ff_scale` benchmark warms to.
const MATMUL64_HANDOFFS: [Handoff; 3] = [
    (1_000, [1_000, 726, 0, 0x7334_4734_6d93_38c5]),
    (500_000, [500_000, 34_586, 0, 0x8679_4121_8f36_a539]),
    (1_539_518, [1_539_518, 99_558, 0, 0x7bcf_cedc_486b_3172]),
];

/// What the engine hands over at `target`.
fn handoff(mut fast: FastEngine, image: &Image, target: u64) -> [u64; 4] {
    let s: FastSummary = fast.run(FastStop::Retired(target), MAX_STEPS).unwrap();
    let m = fast.materialize(image).unwrap();
    let hash = snap::content_hash(&m.snapshot());
    [s.retired, s.virtual_cycle, s.clamped, hash]
}

/// The warm handoff state is a function of the functional engine's
/// schedule: the order in which its harts retire decides which hart a fork
/// gets, where the virtual clock stands and how far a target clamps. Any
/// change to the engine that claims to keep that order must keep these.
#[test]
fn the_warm_handoff_state_is_pinned() {
    let src = std::fs::read_to_string(repo("examples/asm/fork2.s")).unwrap();
    let image = lbp::asm::assemble(&src).unwrap();
    for (target, pinned) in FORK2_HANDOFFS {
        let fast = FastEngine::new(LbpConfig::cores(2), &image).unwrap();
        let got = handoff(fast, &image, target);
        assert_eq!(got, pinned, "fork2.s at {target}: {got:#x?}");
    }
    let mm = Matmul::new(64, Version::Tiled);
    let image = mm.build();
    for (target, pinned) in MATMUL64_HANDOFFS {
        let got = handoff(ones_engine(&mm, &image), &image, target);
        assert_eq!(got, pinned, "tiled h=64 at {target}: {got:#x?}");
    }
}

/// A functional engine for `mm` with the all-ones inputs
/// [`Matmul::machine`] loads.
fn ones_engine(mm: &Matmul, image: &Image) -> FastEngine {
    let mut fast = FastEngine::new(mm.config(), image).unwrap();
    let l = mm.layout();
    for i in 0..l.n {
        for k in 0..l.m {
            fast.poke_shared(l.x(i, k), 1).unwrap();
            fast.poke_shared(l.y(k, i), 1).unwrap();
        }
    }
    fast
}

/// Tiled h=64 run to the exit: the virtual cycle, the clock of the tail
/// materialized there once it exits, and the tail's `arch_hash`.
const TILED64_EXIT: [u64; 3] = [106_920, 106_925, 0x2cf3_3cd3_2dfc_856e];

/// An Exit run keeps only its final state, so its schedule is free:
/// whatever turns the harts take, each retires exactly the instructions it
/// retires cycle-exactly (the exit `p_ret` aside, which the tail retires),
/// and the tail ends on the cycle-exact state.
#[test]
fn exit_runs_retire_what_the_cycle_exact_run_retires() {
    let mut guests: Vec<(String, Image, Machine, FastEngine)> = Vec::new();
    for (file, cores) in [
        ("examples/asm/fork2.s", 2),
        ("examples/c/hello_team.c", 2),
        ("examples/c/matmul.c", 4),
        ("examples/c/set_get.c", 4),
        ("examples/c/reduce.c", 2),
    ] {
        let src = std::fs::read_to_string(repo(file)).unwrap();
        let image = if file.ends_with(".s") {
            lbp::asm::assemble(&src).unwrap()
        } else {
            lbp::cc::compile(&src).unwrap().image
        };
        let cfg = LbpConfig::cores(cores);
        let exact = Machine::new(cfg.clone(), &image).unwrap();
        let fast = FastEngine::new(cfg, &image).unwrap();
        guests.push((file.to_owned(), image, exact, fast));
    }
    for version in [Version::Tiled, Version::Base] {
        for h in [16, 64] {
            let mm = Matmul::new(h, version);
            let image = mm.build();
            let fast = ones_engine(&mm, &image);
            let name = format!("{} h={h}", version.name());
            guests.push((name, image, mm.machine().unwrap(), fast));
        }
    }
    for (name, image, mut exact, mut fast) in guests {
        assert!(exact.run(MAX_CYCLES).unwrap().exited, "{name}");
        let s = fast.run(FastStop::Exit, MAX_STEPS).unwrap();
        assert!(s.at_exit && s.rendezvous_clean, "{name}: {s:?}");
        let mut per_hart = fast.retired_per_hart().to_vec();
        let (exit_hart, _) = fast.exit_hart().unwrap();
        per_hart[exit_hart.global() as usize] += 1;
        assert_eq!(per_hart, exact.stats().retired_per_hart, "{name}");
        let mut tail = fast.materialize(&image).unwrap();
        assert!(tail.run(MAX_CYCLES).unwrap().exited, "{name}");
        assert_eq!(tail.arch_hash(), exact.arch_hash(), "{name}");
        if name == "tiled h=64" {
            let got = [s.virtual_cycle, tail.stats().cycles, tail.arch_hash()];
            assert_eq!(got, TILED64_EXIT, "{name}: {got:#x?}");
        }
    }
}

/// The hybrid's cycle count for tiled h=64 warmed to 10, 50 and 90 % of
/// its 1,710,576 retired instructions and finished cycle-exact; the exact
/// run takes 112,262. The warm phase's schedule decides where each core's
/// clock stands at the handoff, so a schedule change that unbalances the
/// cores (long turns at a handoff stop) moves these.
const TILED64_HYBRID_CYCLES: [(u64, u64); 3] = [(1, 114_115), (5, 113_893), (9, 113_671)];

#[test]
fn the_hybrid_cycle_estimate_is_pinned() {
    let mm = Matmul::new(64, Version::Tiled);
    let image = mm.build();
    let mut exact = mm.machine().unwrap();
    let report = exact.run(MAX_CYCLES).unwrap();
    assert_eq!(report.stats.cycles, 112_262);
    let retired = report.stats.retired();
    assert_eq!(retired, 1_710_576);
    for (tenths, cycles) in TILED64_HYBRID_CYCLES {
        let mut fast = ones_engine(&mm, &image);
        let target = FastStop::Retired(retired * tenths / 10);
        fast.run(target, MAX_STEPS).unwrap();
        let mut tail = fast.materialize(&image).unwrap();
        assert!(tail.run(MAX_CYCLES).unwrap().exited);
        assert_eq!(tail.arch_hash(), exact.arch_hash(), "{tenths}0 % warm");
        assert_eq!(tail.stats().cycles, cycles, "{tenths}0 % warm");
    }
}

#[test]
fn warm_zero_materializes_bit_identical_to_fresh() {
    for (name, image, cores) in example_images() {
        let cfg = LbpConfig::cores(cores);
        let mut fast = FastEngine::new(cfg.clone(), &image).unwrap();
        let summary = fast.run(FastStop::Retired(0), MAX_STEPS).unwrap();
        assert_eq!(summary.retired, 0, "{name}: warm=0 executed instructions");
        let m = fast.materialize(&image).unwrap();
        let fresh = Machine::new(cfg, &image).unwrap();
        assert_eq!(
            m.snapshot().as_bytes(),
            fresh.snapshot().as_bytes(),
            "{name}: warm=0 materialization is not bit-identical to a fresh machine"
        );
    }
}

/// Per-hart committed pcs of a traced run (the cycle-exact half of the
/// commit-stream concatenation property).
fn commit_streams(m: &Machine, harts: usize) -> Vec<Vec<u32>> {
    let mut streams = vec![Vec::new(); harts];
    for event in m.trace().events() {
        if let EventKind::Commit { pc } = event.kind {
            streams[event.hart.global() as usize].push(pc);
        }
    }
    streams
}

/// Per hart: pure commit-pc stream == functional commit log ++ hybrid
/// window commit stream. This is the property the lockstep checker
/// relies on to localize a functional bug to one instruction.
#[test]
fn per_hart_commit_streams_concatenate() {
    let src = std::fs::read_to_string(repo("examples/asm/fork2.s")).unwrap();
    let image = lbp::asm::assemble(&src).unwrap();
    let cfg = LbpConfig::cores(2);
    let harts = cfg.harts();

    let mut pure = Machine::new(cfg.clone().with_trace(), &image).unwrap();
    pure.run(MAX_CYCLES).unwrap();
    let pure_streams = commit_streams(&pure, harts);

    let (retired, _) = pure_run(&image, 2);
    let mut fast = FastEngine::new(cfg.clone(), &image).unwrap();
    fast.enable_commit_log();
    fast.run(FastStop::Retired(retired / 2), MAX_STEPS).unwrap();
    let mut hybrid = fast.materialize(&image).unwrap();
    hybrid.set_trace(true);
    hybrid.run(MAX_CYCLES).unwrap();
    let window_streams = commit_streams(&hybrid, harts);

    for h in 0..harts {
        let mut expect: Vec<u32> = fast.commit_log()[h].clone();
        expect.extend(&window_streams[h]);
        assert_eq!(
            pure_streams[h], expect,
            "hart {h}: pure commit stream != functional log ++ window stream"
        );
    }
}

#[test]
fn faults_inside_the_window_ride_through() {
    // A long countdown whose `cookie` word the program never touches
    // after load time: flipping one of its bits at cycle 2000 — inside
    // the cycle-exact window for a warm target of 200 retired
    // instructions — must survive to the final state.
    let image = lbp::asm::assemble(
        "main:
            li   a0, 5000
            la   a1, counter
        loop:
            addi a0, a0, -1
            sw   a0, 0(a1)
            bne  a0, zero, loop
            li   t0, -1
            li   ra, 0
            p_ret
        .data
        counter: .word 0
        cookie:  .word 0",
    )
    .unwrap();
    let cookie = lbp::isa::SHARED_BASE + 4;
    let plan: FaultPlan = [Fault::parse(&format!("flip-mem:{cookie:#x}:0:2000")).unwrap()]
        .into_iter()
        .collect();
    let cfg = LbpConfig::cores(1).with_faults(plan);

    let run_faulted = || {
        let mut fast = FastEngine::new(cfg.clone(), &image).unwrap();
        fast.run(FastStop::Retired(200), MAX_STEPS).unwrap();
        let mut m = fast.materialize(&image).unwrap();
        m.run(MAX_CYCLES).unwrap();
        (m.arch_hash(), m.stats().clone())
    };
    let (h1, s1) = run_faulted();
    let (h2, s2) = run_faulted();
    assert_eq!(h1, h2, "faulted hybrid runs must be deterministic");
    assert_eq!(s1, s2);
    // Sanity: the fault is actually observable vs an unfaulted hybrid run.
    let (unfaulted, _) = hybrid_run(&image, 1, FastStop::Retired(200));
    assert_ne!(h1, unfaulted, "the in-window fault must change final state");
}

#[test]
fn warm_phase_faults_are_refused_with_a_clear_diagnostic() {
    let src = std::fs::read_to_string(repo("examples/asm/mul.s")).unwrap();
    let image = lbp::asm::assemble(&src).unwrap();
    // A register flip at cycle 1 lands inside any nonzero warm phase.
    let early: FaultPlan = [Fault::parse("flip-reg:0:a0:0:1").unwrap()]
        .into_iter()
        .collect();
    let cfg = LbpConfig::cores(1).with_faults(early);
    let mut fast = FastEngine::new(cfg, &image).unwrap();
    fast.run(FastStop::Retired(3), MAX_STEPS).unwrap();
    let err = fast.materialize(&image).unwrap_err();
    assert!(matches!(err, SimError::FaultPlan { .. }), "{err:?}");
    assert_eq!(err.class(), "usage");
    let err = err.to_string();
    assert!(
        err.starts_with("invalid fault plan: `flip-reg:0:a0:0:1`: ") && err.contains("warm"),
        "warm-phase fault refusal must say why: {err}"
    );

    // Message faults count fabric traffic the warm phase never sends.
    let drops: FaultPlan = [Fault::parse("drop-msg:0").unwrap()].into_iter().collect();
    let cfg = LbpConfig::cores(1).with_faults(drops);
    let fast = FastEngine::new(cfg, &image).unwrap();
    let err = fast.materialize(&image).unwrap_err();
    assert!(matches!(err, SimError::FaultPlan { .. }), "{err:?}");
    assert_eq!(err.class(), "usage");
    let err = err.to_string();
    assert!(
        err.starts_with("invalid fault plan: `drop-msg:0`: ") && err.contains("functional"),
        "message-fault refusal must say why: {err}"
    );
}
