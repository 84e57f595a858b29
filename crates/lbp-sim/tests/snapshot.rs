//! Snapshot/restore round-trip determinism: `restore(snapshot_at(N))`
//! then running `M` more cycles must be bit-identical — stats, trace
//! events, final memory — to running `N + M` cycles from reset.

use lbp_asm::assemble;
use lbp_isa::SHARED_BASE;
use lbp_sim::{Event, Fault, FaultPlan, LbpConfig, Machine, MachineState, RunReport, SnapError};
use lbp_testutil::harness::machine_traced as machine;

fn plan(specs: &[&str]) -> FaultPlan {
    specs.iter().map(|s| Fault::parse(s).unwrap()).collect()
}

/// The determinism suite's torture program: fork/join across cores,
/// out-of-order memory, remote bank traffic, mul latencies.
fn busy_program() -> String {
    "main:
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
    la    a0, worker
    p_jalr ra, t0, a0
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_set t0
    la    a0, worker
    jalr  a0
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
rp:
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
worker:
    p_set a1
    srli  a1, a1, 16
    andi  a1, a1, 0x7f
    la    a2, table
    slli  a3, a1, 2
    add   a2, a2, a3
    li    a4, 0
    li    a5, 25
wloop:
    mul   a6, a5, a5
    add   a4, a4, a6
    addi  a5, a5, -1
    bnez  a5, wloop
    sw    a4, 0(a2)
    p_ret
.data
table: .word 0, 0, 0, 0, 0, 0, 0, 0"
        .to_string()
}

/// Runs to completion from reset, returning the report, the full event
/// stream and a probe word of shared memory.
fn reference(cores: usize, src: &str) -> (RunReport, Vec<Event>, u32) {
    let mut m = machine(cores, src);
    let report = m.run(1_000_000).unwrap();
    let word = m.peek_shared(SHARED_BASE).unwrap();
    (report, m.trace().events().to_vec(), word)
}

/// Snapshot at cycle `at`, restore, run both halves, splice the traces.
fn split_run(cores: usize, src: &str, at: u64) -> (RunReport, Vec<Event>, u32) {
    let mut prefix = machine(cores, src);
    let exited = prefix.run_to(at).unwrap();
    assert!(!exited, "checkpoint cycle {at} must precede program exit");
    let state = prefix.snapshot();
    assert_eq!(state.cycle(), at);
    let mut resumed = Machine::restore(&state).unwrap();
    let report = resumed.run(1_000_000).unwrap();
    let word = resumed.peek_shared(SHARED_BASE).unwrap();
    let mut events = prefix.trace().events().to_vec();
    events.extend_from_slice(resumed.trace().events());
    (report, events, word)
}

#[test]
fn round_trip_is_bit_identical_at_many_checkpoints() {
    let src = busy_program();
    let (report, events, word) = reference(2, &src);
    for at in [1, 7, 50, 173, report.stats.cycles - 1] {
        let (r2, e2, w2) = split_run(2, &src, at);
        assert_eq!(
            report.to_json().to_string(),
            r2.to_json().to_string(),
            "run report diverged for a checkpoint at cycle {at}"
        );
        assert_eq!(events, e2, "trace diverged for a checkpoint at cycle {at}");
        assert_eq!(word, w2, "memory diverged for a checkpoint at cycle {at}");
    }
}

#[test]
fn snapshot_of_restored_machine_is_identical() {
    let src = busy_program();
    let mut m = machine(2, &src);
    m.run_to(100).unwrap();
    let a = m.snapshot();
    let b = Machine::restore(&a).unwrap().snapshot();
    assert_eq!(a.as_bytes(), b.as_bytes());
}

#[test]
fn faulted_machine_round_trips() {
    let src = busy_program();
    let cfg = LbpConfig::cores(2)
        .with_trace()
        .with_faults(plan(&["delay-msg:1:3", "flip-mem:0x80000000:4:30"]));
    let image = assemble(&src).unwrap();
    let full_report = {
        let mut m = Machine::new(cfg.clone(), &image).unwrap();
        m.run(1_000_000).unwrap()
    };
    let mut prefix = Machine::new(cfg, &image).unwrap();
    prefix.run_to(60).unwrap();
    let mut resumed = Machine::restore(&prefix.snapshot()).unwrap();
    let report = resumed.run(1_000_000).unwrap();
    assert_eq!(
        full_report.to_json().to_string(),
        report.to_json().to_string()
    );
}

#[test]
fn dynamic_sections_of_equal_machines_match_across_fault_plans() {
    // Two machines whose configs differ only by an (un-fired) fault plan
    // have different full payloads but identical dynamic sections.
    let src = busy_program();
    let image = assemble(&src).unwrap();
    let mut clean = Machine::new(LbpConfig::cores(2).with_trace(), &image).unwrap();
    let mut faulted = Machine::new(
        LbpConfig::cores(2)
            .with_trace()
            .with_faults(plan(&["flip-mem:0x80000000:4:90000"])),
        &image,
    )
    .unwrap();
    clean.run_to(40).unwrap();
    faulted.run_to(40).unwrap();
    let a = clean.snapshot();
    let b = faulted.snapshot();
    assert_ne!(a.as_bytes(), b.as_bytes());
    assert_eq!(a.dynamic_bytes(), b.dynamic_bytes());
}

#[test]
fn truncated_and_corrupt_snapshots_are_rejected() {
    let src = busy_program();
    let mut m = machine(2, &src);
    m.run_to(20).unwrap();
    let state = m.snapshot();
    let bytes = state.as_bytes();
    // Truncation anywhere past the header fails cleanly.
    for cut in [bytes.len() - 1, bytes.len() / 2, 24] {
        let Ok(short) = MachineState::from_bytes(bytes[..cut].to_vec()) else {
            continue; // header-level rejection is fine too
        };
        assert!(matches!(
            Machine::restore(&short),
            Err(SnapError::Truncated) | Err(SnapError::Corrupt(_))
        ));
    }
    // A flipped byte in the payload must not be silently accepted as the
    // same machine: either restore rejects it, or the state it produces
    // differs from the original.
    let mut bent = bytes.to_vec();
    let mid = 24 + (bytes.len() - 24) / 2;
    bent[mid] ^= 0x40;
    if let Ok(state) = MachineState::from_bytes(bent) {
        if let Ok(m2) = Machine::restore(&state) {
            assert_ne!(m2.snapshot().as_bytes(), bytes);
        }
    }
}

/// The two words after the `alu`/`mul`/`div` latencies held a `link_hop`
/// and a `bank` latency that nothing read; they are reserved now and
/// always 1, and a snapshot that says otherwise asks for a machine this
/// simulator cannot build.
#[test]
fn reserved_latency_words_other_than_one_are_rejected() {
    let mut m = machine(2, &busy_program());
    m.run_to(20).unwrap();
    let bytes = m.snapshot().as_bytes().to_vec();
    let words: Vec<u8> = [1u32, 3, 12, 1, 1]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let at = bytes
        .windows(words.len())
        .position(|w| w == words)
        .expect("the default latencies are in the static section");
    for (word, name) in [(3, "link_hop"), (4, "bank")] {
        let mut bent = bytes.clone();
        bent[at + 4 * word] = 2;
        let state = MachineState::from_bytes(bent).unwrap();
        match Machine::restore(&state) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(name), "{msg}"),
            other => panic!("`{name}` = 2 must be refused, got {:?}", other.map(|_| ())),
        }
    }
}

/// The fabric, the network and the memory system each carry their core
/// count; a payload in which one disagrees with the configuration is
/// refused before anything is sized from it. A consistent 1-core fabric
/// under a 2-core machine used to restore, and the first fork request
/// then panicked in the fabric.
#[test]
fn a_section_sized_for_other_cores_is_refused() {
    let image = assemble(include_str!("../../../examples/asm/fork2.s")).unwrap();
    let m = Machine::new(LbpConfig::cores(2), &image).unwrap();
    let state = lbp_testutil::harness::fabric_one_core_short(&m);
    match Machine::restore(&state) {
        Err(SnapError::Corrupt(msg)) => {
            assert_eq!(msg, "fabric has 1 cores, configuration says 2")
        }
        other => panic!("a 1-core fabric was not refused: {:?}", other.map(|_| ())),
    }
}
