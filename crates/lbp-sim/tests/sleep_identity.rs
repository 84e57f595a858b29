//! Sleeping is invisible.
//!
//! A core whose tick fired nothing, and in which nothing waits on the
//! clock, leaves the set of cores that tick, and the stall slots it is
//! owed — the slot its last tick recorded, once per cycle — are written
//! down later, in one piece. Nothing a caller can look at may show it:
//! wherever a run is stopped — by a target cycle, a slice boundary, a
//! snapshot, a sample, a fault — the machine is byte for byte the one
//! that ticking every core on every cycle produces. The twins here are
//! machines stopped after every single cycle, by `run_to` or by
//! `Machine::tick`, so that the sleepers' accounts are settled on every
//! cycle. The constants for cores with nothing allocated come from the
//! commit before cores slept at all (e15919a); those for cores asleep
//! with blocked harts from the commit before those slept (6ccfa35).

use lbp_kernels::matmul::{Matmul, Version};
use lbp_sim::{fnv1a64, Fault, FaultPlan, LbpConfig, Machine, RunPause};
use lbp_testutil::harness::assemble;

const MAX_CYCLES: u64 = 1_000_000;

/// The guest of `cx_idle`: an empty fork-join team. One hart forks the
/// next down the core line, so at any time one or two cores work, those
/// behind them have gone idle and those ahead were never used.
fn team(threads: usize) -> lbp_asm::Image {
    lbp_omp::DetOmp::new(threads)
        .function("empty", "p_ret")
        .parallel_for("empty")
        .build()
        .unwrap()
}

/// A team that fills the machine, four members a core.
fn machine(cfg: LbpConfig) -> Machine {
    Machine::new(cfg.clone(), &team(4 * cfg.cores)).unwrap()
}

/// Everything a caller can see of a paused machine is the same.
fn assert_same(a: &Machine, b: &Machine, what: &str) {
    assert_same_counters(a, b, what);
    let same = a.snapshot().as_bytes() == b.snapshot().as_bytes();
    assert!(same, "{what}: snapshot bytes");
}

/// What a machine driven by `Machine::tick` shares with one driven by
/// `run_to`: everything but the run loop's count of quiet cycles, which
/// `tick` does not keep and the snapshot holds.
fn assert_same_counters(a: &Machine, b: &Machine, what: &str) {
    let stats = |m: &Machine| m.stats().to_json().to_string();
    assert_eq!(stats(a), stats(b), "{what}: lbp-stats-v1");
    assert_eq!(a.arch_hash(), b.arch_hash(), "{what}: arch_hash");
}

fn assert_partition(m: &Machine, what: &str) {
    let stats = m.stats();
    for core in 0..m.config().cores {
        let sum = stats.retired_by_core(core) + stats.stalls_of_core(core).total();
        assert_eq!(sum, stats.cycles, "{what}: core {core}");
    }
}

fn spec(s: &str) -> FaultPlan {
    [Fault::parse(s).unwrap()].into_iter().collect()
}

/// (a) `run_to(N)` against N stops of one cycle each, on machines of less
/// than a word of cores, exactly one word, and one word and a bit.
#[test]
fn run_to_lands_where_ticking_every_cycle_does() {
    for cores in [8, 64, 68] {
        let cfg = LbpConfig::cores(cores);
        let mut whole = machine(cfg.clone());
        assert!(whole.run_to(MAX_CYCLES).unwrap());
        let end = whole.stats().cycles;
        // The last core wakes some 240 cycles before the end; every stop
        // but the first two has cores asleep behind the team's front and
        // ahead of it.
        let stops = [
            1,
            2,
            100,
            end / 3,
            end / 2,
            end - 300,
            end - 100,
            end - 1,
            end,
        ];
        let mut stepped = machine(cfg.clone());
        let mut ticked = machine(cfg.clone());
        for stop in stops {
            let what = format!("{cores} cores, cycle {stop}");
            let mut ran = machine(cfg.clone());
            assert_eq!(ran.run_to(stop).unwrap(), stop == end, "{what}");
            for cycle in stepped.stats().cycles + 1..=stop {
                stepped.run_to(cycle).unwrap();
                ticked.tick().unwrap();
            }
            assert_eq!(ran.stats().cycles, stop, "{what}");
            assert_same(&ran, &stepped, &what);
            assert_same_counters(&ran, &ticked, &what);
            assert_partition(&ran, &what);
            let asleep = (0..cores)
                .filter(|&c| ran.stats().stalls_of_core(c).idle > 0)
                .count();
            assert!(asleep >= cores - 2, "{what}: {asleep} cores have idled");
        }
        assert_same(&whole, &stepped, &format!("{cores} cores, whole run"));
    }
}

/// (b) A snapshot taken while cores sleep holds nothing of it: the
/// restored machine has everyone awake and reaches the same end.
#[test]
fn a_snapshot_taken_mid_sleep_resumes_to_the_same_end() {
    let cfg = LbpConfig::cores(16);
    let mut whole = machine(cfg.clone());
    whole.run(MAX_CYCLES).unwrap();
    for pause in [1, 500, 2_000, whole.stats().cycles - 1] {
        let mut first = machine(cfg.clone());
        assert!(!first.run_to(pause).unwrap());
        let mut resumed = Machine::restore(&first.snapshot()).unwrap();
        assert_same(&first, &resumed, &format!("restored at {pause}"));
        resumed.run(MAX_CYCLES).unwrap();
        assert_same(&whole, &resumed, &format!("resumed from {pause}"));
        first.run(MAX_CYCLES).unwrap();
        assert_same(&whole, &first, &format!("continued from {pause}"));
    }
}

/// (b) Slices of any length reach the same end, and every slice boundary
/// is a place a caller looks.
#[test]
fn cooperative_slices_reach_the_same_end() {
    let cfg = LbpConfig::cores(16);
    let mut whole = machine(cfg.clone());
    whole.run(MAX_CYCLES).unwrap();
    for slice in [1, 7, 1_000] {
        let mut sliced = machine(cfg.clone());
        let pause = sliced.run_cooperative(MAX_CYCLES, slice, |m| {
            assert_partition(m, &format!("slice {slice}, cycle {}", m.stats().cycles));
            true
        });
        assert_eq!(pause.unwrap(), RunPause::Exited);
        assert_same(&whole, &sliced, &format!("slices of {slice}"));
    }
}

/// `lbp-stats-v1` of the team of 64 on 16 cores sampled every 50 cycles.
const PINNED_SAMPLED: u64 = 0x81b2_f5d0_c10b_86e9;

/// (c) The sampler reads the stall counters in the middle of a run, so
/// sleepers are settled before every sample.
#[test]
fn interval_samples_match_the_stepped_twin() {
    let cfg = LbpConfig::cores(16).with_interval(50);
    let mut ran = machine(cfg.clone());
    ran.run(MAX_CYCLES).unwrap();
    let mut stepped = machine(cfg);
    while !stepped.exited() {
        stepped.tick().unwrap();
    }
    // Closes the series with the partial interval, as `run` did.
    assert!(stepped.run_to(MAX_CYCLES).unwrap());
    let samples = &ran.stats().samples;
    assert!(samples.len() > 50, "{} samples", samples.len());
    assert_eq!(samples, &stepped.stats().samples);
    let idle: u64 = samples.iter().map(|s| s.stalls.idle).sum();
    assert_eq!(idle, ran.stats().stalls_total().idle);
    assert_same_counters(&ran, &stepped, "sampled");
    let json = ran.stats().to_json().to_string();
    assert_eq!(fnv1a64(json.as_bytes()), PINNED_SAMPLED);
}

/// (e) Fault plans aimed at sleepers, on the team of 32 on 8 cores:
/// `(plan, cycle the run ends in, arch_hash, content hash, hash of the
/// error text)`, as the parent commit ends them. Message 94 is the fork
/// request from core 4 that gives core 5, asleep since cycle 1, its first
/// hart; hart 28 is on core 7, which sleeps until cycle 1,650 or so.
const PINNED_FAULTS: [(&str, u64, u64, u64, u64); 4] = [
    // Core 5 never wakes: deadlock at cycle 1180, c4h3 waiting for a fork
    // allocation.
    (
        "drop-msg:94",
        1180,
        0x8a4e_c298_e877_0791,
        0xc260_f4b7_6d63_8182,
        0xeb4a_d457_58cb_cb7e,
    ),
    (
        "delay-msg:94:40",
        1949,
        0x74c9_d2e2_1908_bc4f,
        0x2502_f2ce_e1eb_ac9a,
        0x6572_c7c6_6239_4ccf,
    ),
    (
        "delay-msg:94:1",
        1919,
        0x74c9_d2e2_1908_bc4f,
        0x9604_5be0_2b0c_fa0b,
        0x6572_c7c6_6239_4ccf,
    ),
    (
        "flip-reg:28:a0:3:100",
        1919,
        0x74c9_d2e2_1908_bc4f,
        0x763e_9d97_47ba_6a57,
        0x6572_c7c6_6239_4ccf,
    ),
];

#[test]
fn faults_aimed_at_sleepers_end_as_they_did_when_every_core_ticked() {
    check_faults(&team(32), LbpConfig::cores(8), &PINNED_FAULTS);
}

/// Runs `image` under each plan of `pins` and checks where and how it
/// ends: `(plan, cycle, arch_hash, content hash, hash of the outcome)`.
fn check_faults(image: &lbp_asm::Image, cfg: LbpConfig, pins: &[(&str, u64, u64, u64, u64)]) {
    for &(plan, cycle, arch, content, error) in pins {
        let mut m = Machine::new(cfg.clone().with_faults(spec(plan)), image).unwrap();
        let text = match m.run(MAX_CYCLES) {
            Ok(report) => format!("exited={}", report.exited),
            Err(e) => e.to_string(),
        };
        let got = (
            plan,
            m.stats().cycles,
            m.arch_hash(),
            fnv1a64(m.snapshot().as_bytes()),
            fnv1a64(text.as_bytes()),
        );
        assert_eq!(got, (plan, cycle, arch, content, error), "{text}");
        assert_partition(&m, plan);
    }
}

// ---------------------------------------------------------------------------
// Cores asleep with blocked harts
// ---------------------------------------------------------------------------

/// Core 0 forks a producer onto core 1 and then waits in `p_lwre` for the
/// result the producer sends only after a loop of 100 iterations: core 0
/// sleeps from cycle 46 to 543 with an `OperandWait` blamed on the
/// `p_lwre`, and core 1 sleeps waiting for its start pc before that.
const LATE_RESULT: &str = "main:
    li    t0, -1
    addi  sp, sp, -8
    sw    ra, 0(sp)
    sw    t0, 4(sp)
    p_set t0
    la    ra, rp
    p_fn   t6
    p_swcv ra, t6, 0
    p_swcv t0, t6, 4
    p_merge t0, t0, t6
    p_syncm
    la    a0, consumer
    p_jalr ra, t0, a0
    # --- core 1: the producer, late on purpose ---
    p_lwcv ra, 0
    p_lwcv t0, 4
    li    a1, 100
spin:
    addi  a1, a1, -1
    bnez  a1, spin
    li    a3, 40
    p_swre a3, t0, 3
    p_ret
rp:
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    li    t0, -1
    li    ra, 0
    p_ret
consumer:
    p_lwre a4, 3
    la    a5, out
    sw    a4, 0(a5)
    p_ret
.data
out: .word 0
";

/// One hart loads six times from the shared bank of core 63, at the far
/// corner of a 64-core machine: its core sleeps some five cycles in
/// `MemWait` while each load's request and response travel.
const FAR_LOADS: &str = "main:
    li    a1, 0x803f0000
    li    a2, 6
    li    a3, 0
loop:
    lw    a0, 0(a1)
    add   a3, a3, a0
    addi  a2, a2, -1
    bnez  a2, loop
    sw    a3, 0(a1)
    li    t0, -1
    li    ra, 0
    p_ret
";

/// Two harts on two cores, each waiting in `p_lwre` for a result nobody
/// sends. Core 0 sleeps from cycle 23 and core 1 from cycle 25; the
/// detector, which waits for eight cycles without a retirement, finds
/// the deadlock in cycle 28 with both asleep.
const TWO_DEADLOCKED: &str = "main:
    li    t0, -1
    p_set t0
    p_fn   t6
    p_merge t0, t0, t6
    la    a0, blocker
    p_jalr ra, t0, a0
    li    a1, 1
    p_lwre a2, 2
    p_ret
blocker:
    p_lwre a0, 3
    p_ret
";

/// One hart dividing three times in a row: in cycles 25-32 and 35-44 its
/// core fires nothing while a divide's result buffer counts down, and
/// nothing but the clock will end that wait. Such a core must not sleep.
const DIVIDES: &str = "main:
    li    a1, 1000000
    li    a2, 7
    div   a3, a1, a2
    div   a4, a3, a2
    div   a5, a4, a2
    la    a6, out
    sw    a5, 0(a6)
    li    t0, -1
    li    ra, 0
    p_ret
.data
out: .word 0
";

/// A guest whose harts wait, and where to stop it: cycles in which a core
/// waits (asleep on a blocked hart, or, for [`DIVIDES`], awake on the
/// clock), then the cycle the run ends in (its exit or its deadlock).
struct Guest {
    name: &'static str,
    config: fn() -> LbpConfig,
    machine: fn(LbpConfig) -> Machine,
    stops: &'static [u64],
}

impl Guest {
    fn build(&self) -> Machine {
        (self.machine)((self.config)())
    }
}

fn base16() -> Matmul {
    Matmul::new(16, Version::Base)
}

const GUESTS: [Guest; 7] = [
    // The guest of `cx_idle`. Core 0 waits for the join from cycle 257 to
    // 15,292, and the cores along the line sleep between the fork
    // messages that pass them.
    Guest {
        name: "cx_idle team",
        config: || LbpConfig::cores(64),
        machine: |cfg| Machine::new(cfg, &team(256)).unwrap(),
        stops: &[1_000, 9_000, 15_303],
    },
    // Core 1 sleeps in cycles 301-328 waiting on its team, core 0 in
    // cycles 4,632-5,639 waiting for the join.
    Guest {
        name: "base matmul h=16",
        config: || base16().config(),
        machine: |cfg| base16().machine_with(cfg).unwrap(),
        stops: &[310, 5_000, 5_650],
    },
    // Core 1 sleeps in cycles 23-32 waiting for its start pc, core 0 in
    // cycles 46-543 waiting for the result.
    Guest {
        name: "late p_swre",
        config: || LbpConfig::cores(2),
        machine: |cfg| Machine::new(cfg, &assemble(LATE_RESULT)).unwrap(),
        stops: &[30, 300, 566],
    },
    // Core 0 sleeps in cycles 18-22 and 103-107, waiting for loads.
    Guest {
        name: "far loads",
        config: || LbpConfig::cores(64),
        machine: |cfg| Machine::new(cfg, &assemble(FAR_LOADS)).unwrap(),
        stops: &[20, 105, 125],
    },
    Guest {
        name: "two deadlocked",
        config: || LbpConfig::cores(2),
        machine: |cfg| Machine::new(cfg, &assemble(TWO_DEADLOCKED)).unwrap(),
        stops: &[24, 28],
    },
    // `lbp-run examples/asm/hung.s`. Its one hart's last stage fires in
    // the cycle the detector finds the deadlock, so it never gets to
    // sleep: the deadlock of an awake core, beside the one above.
    Guest {
        name: "hung.s",
        config: || LbpConfig::cores(4),
        machine: |cfg| {
            let src = include_str!("../../../examples/asm/hung.s");
            Machine::new(cfg, &assemble(src)).unwrap()
        },
        stops: &[5, 10],
    },
    Guest {
        name: "divides",
        config: || LbpConfig::cores(1),
        machine: |cfg| Machine::new(cfg, &assemble(DIVIDES)).unwrap(),
        stops: &[30, 40, 52],
    },
];

/// Runs `m` to cycle `stop`, or to its exit or failure, and says which.
fn pause(m: &mut Machine, stop: u64) -> String {
    match m.run_to(stop) {
        Ok(exited) => format!("exited={exited}"),
        Err(failure) => failure.error.to_string(),
    }
}

/// The profiler's counters, per core: each pc's retired count and stall
/// slots by bucket, then the slots blamed on no pc.
fn blame(m: &Machine) -> u64 {
    let prof = m.profile().expect("profiling is on");
    let mut text = String::new();
    for core in 0..prof.cores() {
        for (pc, c) in prof.per_pc(core) {
            text += &format!("{core} {pc:#x} {} {:?}\n", c.retired, c.stalls);
        }
        text += &format!("{core} - {:?}\n", prof.unattributed(core));
    }
    fnv1a64(text.as_bytes())
}

/// `(guest, stop, hash of lbp-stats-v1, hash of the snapshot bytes,
/// arch_hash, hash of the per-pc blame)` at every stop of [`GUESTS`], as
/// the parent commit computes them.
const PINNED_GUESTS: [(&str, u64, u64, u64, u64, u64); 19] = [
    (
        "cx_idle team",
        1000,
        0xea4c_9000_345f_f5ef,
        0xd883_e1fa_a6d9_4c20,
        0xacab_96b9_6f96_40fc,
        0xe85a_b552_d90f_cb3b,
    ),
    (
        "cx_idle team",
        9000,
        0x58bc_713c_3edb_a7be,
        0x8eb0_49d3_6d7d_0966,
        0xc5db_1424_9aaf_28f5,
        0x4041_bf57_6e4d_692a,
    ),
    (
        "cx_idle team",
        15_303,
        0xf0cc_019b_5a1a_5407,
        0x017f_49bb_f325_d934,
        0x8cc4_ae33_f57d_ad88,
        0x3389_b44f_17f3_92c1,
    ),
    (
        "base matmul h=16",
        310,
        0xc3d2_4817_c2c1_8cfc,
        0x8891_5bcf_fd5b_7d70,
        0xe850_63ba_def0_8add,
        0x7e4d_54f9_4a41_f13f,
    ),
    (
        "base matmul h=16",
        5000,
        0x47a7_3cb4_ae1b_98df,
        0x8ccc_7335_7e06_d2ff,
        0xfed3_53cd_4eaa_321c,
        0xffc2_94dd_ef8a_cddf,
    ),
    (
        "base matmul h=16",
        5650,
        0x5657_1e9e_6923_a04a,
        0x4834_7000_f02e_5ea4,
        0x2401_eb37_5a68_5320,
        0x3dd8_bc81_e011_30b5,
    ),
    (
        "late p_swre",
        30,
        0x03bc_9665_682f_1ddf,
        0x4175_77c9_27f3_ad30,
        0xcb7c_8f0f_9c3c_ac76,
        0x7ebf_1b50_83eb_73df,
    ),
    (
        "late p_swre",
        300,
        0x7cb4_78e1_048f_e8db,
        0x12fd_e30c_e046_c8f9,
        0xc8db_3f94_bf1d_d85f,
        0x5305_433a_7b6c_2865,
    ),
    (
        "late p_swre",
        566,
        0x18bb_74b4_fbce_f292,
        0x54b7_2b01_d7e8_a4a2,
        0x2dbd_d81c_317d_d0e5,
        0xe9dc_08e2_862d_2d84,
    ),
    (
        "far loads",
        20,
        0x8f7e_958d_f310_487e,
        0x1f9d_9140_92e7_09b9,
        0x9f37_243d_767e_bb36,
        0x0224_1a23_0ecb_f662,
    ),
    (
        "far loads",
        105,
        0x5dda_26e6_4bef_d963,
        0xb30c_86a1_dc72_4c4f,
        0x53b0_5bae_851b_da0d,
        0xfa90_51f4_5f7a_4d94,
    ),
    (
        "far loads",
        125,
        0xb73d_9955_8164_1042,
        0x4ccf_24e3_a43f_6255,
        0xf7d8_136d_ad1a_3a5b,
        0x86f9_2ea9_130d_d02a,
    ),
    (
        "two deadlocked",
        24,
        0x6fb8_073f_502d_b8e6,
        0xf755_4a7f_21c3_9ec8,
        0x840b_7feb_6df1_6bb7,
        0x766a_2fba_b93e_ad14,
    ),
    (
        "two deadlocked",
        28,
        0x737b_4f42_3f6a_90ee,
        0x8a89_7c2f_2b6f_32e8,
        0x840b_7feb_6df1_6bb7,
        0x96f8_bf7c_4e3f_6ecd,
    ),
    (
        "hung.s",
        5,
        0x8063_1e25_509a_4f7b,
        0xd414_105b_d30e_4922,
        0x8197_171f_4762_befe,
        0x12d7_da51_4ea8_3dd8,
    ),
    (
        "hung.s",
        10,
        0xfb18_588f_cd60_ca14,
        0xb5d1_9049_2fd5_49b7,
        0xd31c_be5e_768f_d267,
        0x6fa0_3622_cd27_8cdf,
    ),
    (
        "divides",
        30,
        0xda62_11ea_0f40_a783,
        0xea99_8463_e8bd_0d76,
        0x4a16_9dc1_6e9d_9cb0,
        0x932e_0ca5_ed88_a53a,
    ),
    (
        "divides",
        40,
        0x4c1b_cddf_2780_1621,
        0x928b_9511_9c60_4dcb,
        0x4abc_101d_07af_3f67,
        0x68bd_1468_cf8e_abc7,
    ),
    (
        "divides",
        52,
        0x5163_43b0_b855_af33,
        0x9925_1ad9_8433_b21f,
        0x2130_2dfb_500d_86ed,
        0x2ae0_d599_a093_a53e,
    ),
];

/// (f) `run_to(N)` against N stops of one cycle each, at the stops each
/// guest names; the profiled run blames every slept cycle on the pc the
/// parent commit's ticking core blamed it on.
#[test]
fn blocked_sleepers_stop_where_ticking_every_cycle_does() {
    let mut got = Vec::new();
    for guest in &GUESTS {
        let mut stepped = guest.build();
        let mut ticked = guest.build();
        for &stop in guest.stops {
            let what = format!("{}, cycle {stop}", guest.name);
            let mut ran = guest.build();
            ran.enable_profiling();
            let outcome = pause(&mut ran, stop);
            let mut stepped_outcome = String::new();
            for cycle in stepped.stats().cycles + 1..=stop {
                stepped_outcome = pause(&mut stepped, cycle);
                ticked.tick().unwrap();
            }
            assert_eq!(ran.stats().cycles, stop, "{what}");
            assert_eq!(outcome, stepped_outcome, "{what}");
            assert_same(&ran, &stepped, &what);
            assert_same_counters(&ran, &ticked, &what);
            assert_partition(&ran, &what);
            let stats = ran.stats().to_json().to_string();
            got.push((
                guest.name,
                stop,
                fnv1a64(stats.as_bytes()),
                fnv1a64(ran.snapshot().as_bytes()),
                ran.arch_hash(),
                blame(&ran),
            ));
        }
    }
    assert_eq!(got, PINNED_GUESTS);
}

/// (g) A snapshot taken while a core sleeps on a blocked hart resumes to
/// the same end, exit or deadlock.
#[test]
fn a_snapshot_taken_while_blocked_cores_sleep_resumes_to_the_same_end() {
    for guest in &GUESTS {
        let mut whole = guest.build();
        let end = pause(&mut whole, MAX_CYCLES);
        let (&last, mid) = guest.stops.split_last().unwrap();
        assert_eq!(whole.stats().cycles, last, "{}", guest.name);
        for &stop in mid {
            let what = format!("{}, restored at {stop}", guest.name);
            let mut first = guest.build();
            pause(&mut first, stop);
            let mut resumed = Machine::restore(&first.snapshot()).unwrap();
            assert_same(&first, &resumed, &what);
            assert_eq!(pause(&mut resumed, MAX_CYCLES), end, "{what}");
            assert_same(&whole, &resumed, &what);
        }
    }
}

/// (h) Slices of 1, 7 and 1,000 cycles reach the same end.
#[test]
fn cooperative_slices_over_blocked_sleepers_reach_the_same_end() {
    for guest in &GUESTS {
        let mut whole = guest.build();
        let end = pause(&mut whole, MAX_CYCLES);
        for slice in [1, 7, 1_000] {
            let what = format!("{}, slices of {slice}", guest.name);
            let mut sliced = guest.build();
            let stopped = sliced.run_cooperative(MAX_CYCLES, slice, |m| {
                assert_partition(m, &format!("{what}, cycle {}", m.stats().cycles));
                true
            });
            let outcome = match stopped {
                Ok(why) => {
                    assert_eq!(why, RunPause::Exited, "{what}");
                    "exited=true".to_owned()
                }
                Err(failure) => failure.error.to_string(),
            };
            assert_eq!(outcome, end, "{what}");
            assert_same(&whole, &sliced, &what);
        }
    }
}

/// `(guest, hash of lbp-stats-v1)` of each guest of [`GUESTS`] sampled
/// every 50 cycles, as the parent commit computes them.
const PINNED_GUESTS_SAMPLED: [(&str, u64); 7] = [
    ("cx_idle team", 0xff73_6cba_cddd_f816),
    ("base matmul h=16", 0xd64e_17b1_4385_391c),
    ("late p_swre", 0x310a_a2e4_67c7_e543),
    ("far loads", 0x7bd5_3759_d35e_a5c3),
    ("two deadlocked", 0x737b_4f42_3f6a_90ee),
    ("hung.s", 0xfb18_588f_cd60_ca14),
    ("divides", 0x3890_ac2a_893a_efb7),
];

/// (i) The sampler settles cores asleep on blocked harts before it reads
/// the stall counters.
#[test]
fn interval_samples_over_blocked_sleepers_match_the_ticked_twin() {
    let mut got = Vec::new();
    for guest in &GUESTS {
        let cfg = (guest.config)().with_interval(50);
        let mut ran = (guest.machine)(cfg.clone());
        let end = pause(&mut ran, MAX_CYCLES);
        let mut ticked = (guest.machine)(cfg);
        while ticked.stats().cycles < ran.stats().cycles {
            ticked.tick().unwrap();
        }
        if ran.exited() {
            // Closes the series with the partial interval, as the run did.
            assert!(ticked.run_to(MAX_CYCLES).unwrap(), "{end}");
        }
        assert_eq!(
            ran.stats().samples,
            ticked.stats().samples,
            "{}",
            guest.name
        );
        assert_same_counters(&ran, &ticked, guest.name);
        let stats = ran.stats().to_json().to_string();
        got.push((guest.name, fnv1a64(stats.as_bytes())));
    }
    assert_eq!(got, PINNED_GUESTS_SAMPLED);
}

/// (j) Faults aimed at the late-result guest's sleeping core 0, as the
/// parent commit ends them. Message 7 is the `p_swre` result that wakes
/// it; hart 0 is the consumer asleep in `p_lwre` at cycle 300, whose `a5`
/// addresses the store the result goes to.
const PINNED_BLOCKED_FAULTS: [(&str, u64, u64, u64, u64); 3] = [
    (
        "delay-msg:7:40",
        606,
        0x2dbd_d81c_317d_d0e5,
        0x7fe4_9973_3067_143f,
        0x6572_c7c6_6239_4ccf,
    ),
    (
        "delay-msg:7:1",
        567,
        0x2dbd_d81c_317d_d0e5,
        0x0990_886f_6206_6364,
        0x6572_c7c6_6239_4ccf,
    ),
    (
        "flip-reg:0:a5:2:300",
        566,
        0xd49f_b568_dd8c_f431,
        0xfee0_ecf3_0728_e51b,
        0x6572_c7c6_6239_4ccf,
    ),
];

#[test]
fn faults_aimed_at_blocked_sleepers_end_as_they_did_when_every_core_ticked() {
    let image = assemble(LATE_RESULT);
    check_faults(&image, LbpConfig::cores(2), &PINNED_BLOCKED_FAULTS);
}

/// The deadlock report walks every core, asleep or not, in core order;
/// the text is the parent commit's.
#[test]
fn a_deadlock_of_two_sleeping_cores_reports_both_in_core_order() {
    let mut m = Machine::new(LbpConfig::cores(2), &assemble(TWO_DEADLOCKED)).unwrap();
    let err = m.run(MAX_CYCLES).unwrap_err();
    assert_eq!(
        err.to_string(),
        "deadlock at cycle 28: 2 hart(s) blocked: \
         hart c0h0 waiting for a p_swre result in slot 3 that was never sent; \
         hart c1h0 waiting for a p_swre result in slot 2 that was never sent"
    );
}
