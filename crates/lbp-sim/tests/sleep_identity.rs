//! Sleeping is invisible.
//!
//! A core with nothing allocated leaves the set of cores that tick, and
//! the `Idle` stall slots it is owed are written down later, in one
//! piece. Nothing a caller can look at may show it: wherever a run is
//! stopped — by a target cycle, a slice boundary, a snapshot, a sample,
//! a fault — the machine is byte for byte the one that ticking every core
//! on every cycle produces. The twins here are machines stopped after
//! every single cycle, by `run_to` or by `Machine::tick`, so that the
//! sleepers' accounts are settled on every cycle; the pinned constants
//! come from the commit before cores slept at all (e15919a).

use lbp_sim::{fnv1a64, Fault, FaultPlan, LbpConfig, Machine, RunPause};

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
    let image = team(32);
    for (plan, cycle, arch, content, error) in PINNED_FAULTS {
        let cfg = LbpConfig::cores(8).with_faults(spec(plan));
        let mut m = Machine::new(cfg, &image).unwrap();
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
