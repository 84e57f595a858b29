//! Snapshot round-trip smoke over every shipped example program:
//! for each `examples/asm/*.s` and `examples/c/*.c`, checkpoint the run
//! at two cycles through the `lbp-snap-v1` container, resume, and demand
//! the resumed run is bit-identical to the uninterrupted one — run
//! report, spliced trace events, and the machine's entire final state
//! (compared as snapshot bytes, which cover all memory and statistics).

use lbp::sim::{Event, Machine, RunReport, SimError};
use lbp::snap;
use lbp_testutil::harness;

/// How a run ended, in a form we can compare across the two executions.
#[derive(PartialEq, Debug)]
struct Outcome {
    /// Report JSON for clean exits, error text otherwise (hung.s deadlocks).
    result: String,
    /// Full machine state: every register, queue, bank and counter.
    state: Vec<u8>,
}

fn finish(m: &mut Machine, outcome: Result<RunReport, SimError>) -> Outcome {
    Outcome {
        result: match outcome {
            Ok(report) => report.to_json().to_string(),
            Err(e) => e.to_string(),
        },
        state: m.snapshot().as_bytes().to_vec(),
    }
}

const MAX_CYCLES: u64 = 2_000_000;

/// Runs `image` from reset and split at `at`, asserting both paths agree.
fn check_round_trip(name: &str, image: &lbp::asm::Image, cores: usize) {
    let mut full = harness::machine_from_image(image, cores);
    let outcome = full.run(MAX_CYCLES);
    let total = full.stats().cycles;
    assert!(total > 4, "{name}: too short to checkpoint meaningfully");
    let reference = finish(&mut full, outcome);
    let events: Vec<Event> = full.trace().events().to_vec();

    for at in [total / 3, (2 * total) / 3] {
        let at = at.max(1).min(total - 1);
        let mut prefix = harness::machine_from_image(image, cores);
        let exited = prefix
            .run_to(at)
            .unwrap_or_else(|e| panic!("{name}: prefix run failed: {e}"));
        assert!(!exited, "{name}: program exited before checkpoint {at}");

        // Through the file container: encode, verify content hash, decode.
        let state = prefix.snapshot();
        let bytes = snap::encode(&state);
        let decoded = snap::decode(&bytes).unwrap_or_else(|e| panic!("{name}@{at}: {e}"));
        assert_eq!(snap::content_hash(&decoded), snap::content_hash(&state));

        let mut resumed = Machine::restore(&decoded).unwrap();
        let outcome = resumed.run(MAX_CYCLES);
        let replay = finish(&mut resumed, outcome);
        assert_eq!(
            reference.result, replay.result,
            "{name}: outcome diverged across a checkpoint at cycle {at}"
        );
        assert_eq!(
            reference.state, replay.state,
            "{name}: final machine state diverged across a checkpoint at cycle {at}"
        );
        let mut spliced = prefix.trace().events().to_vec();
        spliced.extend_from_slice(resumed.trace().events());
        assert_eq!(
            events, spliced,
            "{name}: trace diverged across a checkpoint at cycle {at}"
        );
    }
}

fn examples(subdir: &str, ext: &str) -> Vec<(String, String)> {
    let dir = format!("{}/examples/{subdir}", env!("CARGO_MANIFEST_DIR"));
    let mut programs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            name.ends_with(ext)
                .then(|| (name, std::fs::read_to_string(&path).unwrap()))
        })
        .collect();
    programs.sort();
    assert!(!programs.is_empty(), "no {ext} programs under {dir}");
    programs
}

#[test]
fn every_asm_example_round_trips() {
    for (name, source) in examples("asm", ".s") {
        let image = lbp::asm::assemble(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_round_trip(&name, &image, 4);
    }
}

#[test]
fn every_c_example_round_trips() {
    for (name, source) in examples("c", ".c") {
        let compiled = lbp::cc::compile(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_round_trip(&name, &compiled.image, 4);
    }
}

/// `content_hash` of `examples/asm/fork2.s` on two cores, fresh and
/// paused at [`PINNED_PAUSE`], computed at the commit before the bank
/// store and the code bank became types of their own. Snapshots written
/// by one commit are read by the next, so a refactoring of the machine
/// must leave every payload byte where it was.
const PINNED_FRESH: u64 = 0xd664_74d2_6289_820f;
const PINNED_PAUSED: u64 = 0x55a5_5b36_988d_f72a;
/// Both harts are running and a load response is staged at core 1's
/// local port.
const PINNED_PAUSE: u64 = 36;

#[test]
fn snapshot_bytes_are_pinned_across_commits() {
    let source = std::fs::read_to_string(format!(
        "{}/examples/asm/fork2.s",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let image = lbp::asm::assemble(&source).unwrap();
    let mut m = Machine::new(lbp::sim::LbpConfig::cores(2), &image).unwrap();
    assert_eq!(snap::content_hash(&m.snapshot()), PINNED_FRESH, "fresh");
    assert!(!m.run_to(PINNED_PAUSE).unwrap());
    assert_eq!(snap::content_hash(&m.snapshot()), PINNED_PAUSED, "paused");
}

/// `content_hash` of the empty fork-join team of 64 on 16 cores, paused
/// at [`PINNED_ASLEEP`] and at exit, computed at the commit before idle
/// cores slept (e15919a), where every core ticked and counted its own
/// idle cycles. The stall counters are payload: a paused machine must
/// have written down what its sleepers are owed.
const PINNED_MID_SLEEP: u64 = 0x7b94_2ff0_0c27_249d;
const PINNED_TEAM_EXIT: u64 = 0x52f9_8d4f_eb87_f964;
/// Cores 1–7 have ended their members, core 8 runs, cores 9–15 are yet
/// to be used.
const PINNED_ASLEEP: u64 = 2_100;

#[test]
fn sleepers_are_settled_in_snapshots_pinned_across_commits() {
    let image = lbp::omp::DetOmp::new(64)
        .function("empty", "p_ret")
        .parallel_for("empty")
        .build()
        .unwrap();
    let mut m = Machine::new(lbp::sim::LbpConfig::cores(16), &image).unwrap();
    assert!(!m.run_to(PINNED_ASLEEP).unwrap());
    let idle = |c| m.stats().stalls_of_core(c).idle;
    assert!(idle(3) > 1_000 && idle(8) < idle(12), "not mid-sleep");
    assert_eq!(
        snap::content_hash(&m.snapshot()),
        PINNED_MID_SLEEP,
        "paused"
    );
    assert!(m.run_to(u64::MAX).unwrap());
    assert_eq!(snap::content_hash(&m.snapshot()), PINNED_TEAM_EXIT, "exit");
}

/// `content_hash` of the h=64 base matmul on 16 cores, paused where a
/// fabric message is on a backward segment, messages ride the router
/// edges and requests wait at the bank ports, computed at the commit
/// before the link, inbox and port queues became one type. Each pause
/// restores to the same bytes.
const PINNED_MATMUL_PAUSES: [(u64, u64); 3] = [
    (579, 0x71b4_4a0c_f968_f203),
    (2_033, 0xd2fb_3ca5_3022_a82c),
    (4_199, 0x5ed6_764c_9c0e_7a90),
];

/// `content_hash` of `examples/asm/fork2.s` on two cores with its first
/// fabric message held back five cycles, paused while it is held, from
/// the same commit. fork2 makes no shared access, so its network and
/// bank ports are empty then.
const PINNED_HELD: (u64, u64) = (19, 0xe818_dbac_2912_3468);

/// The snapshot of `m`, after checking that it restores to the same bytes.
fn restorable(m: &Machine) -> lbp::sim::MachineState {
    let state = m.snapshot();
    let again = Machine::restore(&state).unwrap().snapshot();
    assert_eq!(
        again.as_bytes(),
        state.as_bytes(),
        "cycle {}",
        state.cycle()
    );
    state
}

#[test]
fn in_flight_queues_are_pinned_across_commits() {
    use lbp::kernels::matmul::{Matmul, Version};
    let mut m = Matmul::new(64, Version::Base).machine().unwrap();
    for (at, pinned) in PINNED_MATMUL_PAUSES {
        assert!(!m.run_to(at).unwrap());
        let dump = m.dump_with("paused", String::new());
        let backward = dump.fabric_in_flight.iter().any(|s| s.contains("backward"));
        assert!(backward, "{at}: {:?}", dump.fabric_in_flight);
        assert!(dump.network_in_flight > 0, "{at}: network empty");
        assert!(dump.bank_queues.iter().any(|&n| n > 0), "{at}: ports empty");
        let hash = snap::content_hash(&restorable(&m));
        assert_eq!(hash, pinned, "matmul at {at}: {hash:#018x}");
    }

    let source = std::fs::read_to_string(format!(
        "{}/examples/asm/fork2.s",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let image = lbp::asm::assemble(&source).unwrap();
    let delay = lbp::sim::Fault::parse("delay-msg:0:5").unwrap();
    let cfg = lbp::sim::LbpConfig::cores(2).with_faults([delay].into_iter().collect());
    let mut m = Machine::new(cfg, &image).unwrap();
    let (at, pinned) = PINNED_HELD;
    assert!(!m.run_to(at).unwrap());
    let dump = m.dump_with("paused", String::new());
    assert_eq!(
        dump.fabric_in_flight,
        ["ForkReq from hart c0h0 held by a delay fault (3 cycles left)"]
    );
    let hash = snap::content_hash(&restorable(&m));
    assert_eq!(hash, pinned, "fork2 held at {at}: {hash:#018x}");
}
