//! Robustness tests: deadlock diagnosis, fault injection, crash dumps,
//! and lockstep differential checking.
//!
//! Protocol-violating programs hang real LBP hardware — the simulator
//! must instead diagnose them quickly ([`SimError::Deadlock`] with the
//! blocked harts and their wait reasons) or reject them outright
//! ([`SimError::Protocol`]). Injected faults must surface as structured
//! errors with a valid `lbp-dump-v1` crash dump, never as a panic.

use lbp_asm::assemble;
use lbp_isa::{HartId, IO_BASE, LOCAL_BASE, SHARED_BASE};
use lbp_sim::{
    run_lockstep, Divergence, ExitClass, FastEngine, FastStop, Fault, FaultPlan, Json, LbpConfig,
    LockstepError, Machine, MachineState, MemFault, SimError, SnapError, DUMP_SCHEMA,
};
use lbp_testutil::check_cases;
use lbp_testutil::harness::{machine, machine_with_faults};

/// The exit idiom: 0 in `ra`, the exit sentinel in `t0`.
const EXIT: &str = "li t0, -1\n    li ra, 0\n    p_ret\n";

/// The cycle budget a pre-deadlock-detector run would have burned before
/// reporting `Timeout`. The acceptance bar is diagnosis in < 1% of this.
const OLD_TIMEOUT_BUDGET: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// Deadlock detection
// ---------------------------------------------------------------------------

#[test]
fn never_sent_recv_slot_deadlocks_fast_and_blames_the_hart() {
    // p_lwre on slot 3, but no hart ever p_swre's into it.
    let src = "main:
    p_lwre a0, 3
    li t0, -1
    li ra, 0
    p_ret";
    let err = machine(1, src).run(OLD_TIMEOUT_BUDGET).unwrap_err();
    let SimError::Deadlock { cycle, blocked } = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(
        cycle < OLD_TIMEOUT_BUDGET / 100,
        "diagnosed at cycle {cycle}, want < 1% of the {OLD_TIMEOUT_BUDGET}-cycle budget"
    );
    assert_eq!(blocked.len(), 1);
    assert_eq!(blocked[0].hart, HartId::FIRST);
    assert!(
        blocked[0].waiting_on.contains("slot 3"),
        "wait reason should name the empty slot: {:?}",
        blocked[0].waiting_on
    );
}

#[test]
fn self_wait_join_deadlocks_with_join_reason() {
    // Type-2 ending on the only hart: waits for a join address that no
    // other hart will ever send.
    let src = "main:
    li t0, 0
    li ra, 0
    p_ret";
    let err = machine(1, src).run(OLD_TIMEOUT_BUDGET).unwrap_err();
    let SimError::Deadlock { cycle, blocked } = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(
        cycle < OLD_TIMEOUT_BUDGET / 100,
        "diagnosed at cycle {cycle}"
    );
    assert_eq!(blocked.len(), 1);
    assert_eq!(blocked[0].hart, HartId::FIRST);
    assert!(
        blocked[0].waiting_on.contains("join"),
        "wait reason should mention the missing join: {:?}",
        blocked[0].waiting_on
    );
}

#[test]
fn fork_exhaustion_deadlocks_with_fork_reason() {
    // A single core has 4 harts; the 4th p_fc can never be satisfied
    // because no allocated hart ever ends.
    let src = "main:
    p_fc t1
    p_fc t2
    p_fc t3
    p_fc t4
    li t0, -1
    li ra, 0
    p_ret";
    let err = machine(1, src).run(OLD_TIMEOUT_BUDGET).unwrap_err();
    let SimError::Deadlock { cycle, blocked } = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(
        cycle < OLD_TIMEOUT_BUDGET / 100,
        "diagnosed at cycle {cycle}"
    );
    assert!(
        blocked
            .iter()
            .any(|b| b.hart == HartId::FIRST && b.waiting_on.contains("fork")),
        "hart 0 should be blocked on its fork: {blocked:?}"
    );
}

#[test]
fn busy_wait_still_times_out() {
    // An infinite loop retires instructions forever: that is livelock,
    // not quiescence, and must stay a Timeout.
    let err = machine(1, "main:\n  j main").run(1_000).unwrap_err();
    assert_eq!(err, SimError::Timeout { cycles: 1_000 });
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A fork program whose start message crosses the core 0 → core 1 link;
/// dropping any fabric message deadlocks it.
const FORK_NEXT_CORE: &str = "main:
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
    la    a0, thread
    p_jalr ra, t0, a0
    p_lwcv ra, 0
    p_lwcv t0, 4
    p_set t0
    la    a0, thread
    jalr  a0
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    p_ret
rp:
    lw    ra, 0(sp)
    lw    t0, 4(sp)
    addi  sp, sp, 8
    li    t0, -1
    li    ra, 0
    p_ret
thread:
    p_ret";

#[test]
fn dropped_fabric_message_turns_success_into_deadlock() {
    // Baseline: the program exits.
    let report = machine_with_faults(2, FORK_NEXT_CORE, &[])
        .unwrap()
        .run(OLD_TIMEOUT_BUDGET)
        .unwrap();
    assert!(report.exited);

    // Drop the first fabric message (the fork request): the machine must
    // diagnose the hang as a deadlock, not spin to timeout.
    let err = machine_with_faults(2, FORK_NEXT_CORE, &[Fault::DropMsg { nth: 0 }])
        .unwrap()
        .run(OLD_TIMEOUT_BUDGET)
        .unwrap_err();
    let SimError::Deadlock { cycle, .. } = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert!(
        cycle < OLD_TIMEOUT_BUDGET / 100,
        "diagnosed at cycle {cycle}"
    );
}

#[test]
fn delayed_fabric_message_preserves_the_result() {
    // Delaying (not dropping) a message only shifts timing; the
    // deterministic protocol still completes.
    let report = machine_with_faults(2, FORK_NEXT_CORE, &[Fault::DelayMsg { nth: 0, cycles: 37 }])
        .unwrap()
        .run(OLD_TIMEOUT_BUDGET)
        .unwrap();
    assert!(report.exited, "delayed message must still arrive");
}

#[test]
fn corrupted_instruction_is_a_decode_error() {
    let src = format!("main:\n  li a0, 1\n  li a1, 2\n  add a2, a0, a1\n  {EXIT}");
    // XOR the third word (pc 0x8) into garbage at cycle 1.
    let fault = Fault::CorruptInstr {
        pc: 0x8,
        xor: 0xffff_ffff,
        cycle: 1,
    };
    let err = machine_with_faults(1, &src, &[fault])
        .unwrap()
        .run(10_000)
        .unwrap_err();
    assert!(
        matches!(err, SimError::Decode { pc: 0x8, .. }),
        "expected a decode error at pc 0x8, got {err:?}"
    );
}

#[test]
fn invalid_fault_plans_are_rejected_at_build_time() {
    let src = format!("main:\n  {EXIT}");
    for fault in [
        // Hart out of range for one core.
        Fault::FlipReg {
            hart: HartId::from_parts(99, 0),
            reg: lbp_isa::Reg::A0,
            bit: 0,
            cycle: 1,
        },
        // Bit out of range.
        Fault::FlipMem {
            addr: lbp_isa::SHARED_BASE,
            bit: 40,
            cycle: 1,
        },
        // Misaligned pc.
        Fault::CorruptInstr {
            pc: 2,
            xor: 1,
            cycle: 1,
        },
        // Zero-cycle delay.
        Fault::DelayMsg { nth: 0, cycles: 0 },
    ] {
        let err = machine_with_faults(1, &src, &[fault]).unwrap_err();
        assert!(
            matches!(&err, SimError::FaultPlan { spec, .. } if **spec == fault.to_string()),
            "fault {fault} should be rejected, got {err:?}"
        );
        assert_eq!(err.exit_class(), ExitClass::Usage, "{err}");
    }
}

// ---------------------------------------------------------------------------
// Crash dumps
// ---------------------------------------------------------------------------

#[test]
fn deadlock_dump_names_the_schema_and_blocked_hart() {
    let src = "main:
    p_lwre a0, 5
    li t0, -1
    li ra, 0
    p_ret";
    let failure = machine(1, src)
        .run_diagnosed(OLD_TIMEOUT_BUDGET)
        .unwrap_err();
    assert_eq!(failure.error.class(), "deadlock");

    let mut out = String::new();
    failure.dump.to_json().write_pretty(&mut out);
    let json = Json::parse(&out).expect("dump serializes to valid JSON");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some(DUMP_SCHEMA),
        "dump must carry the {DUMP_SCHEMA} schema tag"
    );
    assert_eq!(
        json.get("error_class").and_then(Json::as_str),
        Some("deadlock")
    );
    let harts = json
        .get("harts")
        .and_then(Json::as_arr)
        .expect("harts array");
    assert_eq!(harts.len(), 1, "only the blocked hart is dumped");
    assert_eq!(harts[0].get("hart").and_then(Json::as_str), Some("c0h0"));
    assert!(harts[0]
        .get("waiting_on")
        .and_then(Json::as_str)
        .is_some_and(|w| w.contains("slot 5")));
}

#[test]
fn fault_dump_counts_applied_faults() {
    let src = format!("main:\n  li a0, 1\n  {EXIT}");
    let fault = Fault::CorruptInstr {
        pc: 0x4,
        xor: 0xffff_ffff,
        cycle: 1,
    };
    let failure = machine_with_faults(1, &src, &[fault])
        .unwrap()
        .run_diagnosed(10_000)
        .unwrap_err();
    let mut out = String::new();
    failure.dump.to_json().write_pretty(&mut out);
    let json = Json::parse(&out).unwrap();
    assert_eq!(json.get("faults_applied").and_then(Json::as_u64), Some(1));
    assert_eq!(
        json.get("error_class").and_then(Json::as_str),
        Some("decode")
    );
}

#[test]
fn random_fault_plans_never_panic_and_dumps_stay_valid() {
    // Whatever a (valid) random fault plan does to this program — wrong
    // answer, deadlock, decode fault, protocol violation — the simulator
    // must return a structured result and a parseable dump, never panic.
    let src = format!(
        "main:
    li   a0, 0
    li   a1, 1
    li   a2, 30
loop:
    add  a0, a0, a1
    addi a1, a1, 1
    bne  a1, a2, loop
    {EXIT}"
    );
    let image = assemble(&src).unwrap();
    let text_words = image.text.len() as u32;
    check_cases(40, 0xfau64, |rng, _| {
        let fault = match rng.below(4) {
            0 => Fault::FlipReg {
                hart: HartId::FIRST,
                reg: rng.pick(&[lbp_isa::Reg::A0, lbp_isa::Reg::A1, lbp_isa::Reg::A2]),
                bit: rng.below(32) as u32,
                cycle: rng.below(400),
            },
            1 => Fault::FlipMem {
                addr: lbp_isa::SHARED_BASE + (rng.below(16) as u32) * 4,
                bit: rng.below(32) as u32,
                cycle: rng.below(400),
            },
            2 => Fault::CorruptInstr {
                pc: (rng.below(text_words as u64) as u32) * 4,
                xor: rng.next_u32(),
                cycle: rng.below(400),
            },
            _ => Fault::DelayMsg {
                nth: rng.below(4),
                cycles: 1 + rng.below(50) as u32,
            },
        };
        let cfg = LbpConfig::cores(1).with_faults([fault].into_iter().collect::<FaultPlan>());
        let mut m = Machine::new(cfg, &image).expect("validated plan builds");
        if let Err(failure) = m.run_diagnosed(50_000) {
            let mut out = String::new();
            failure.dump.to_json().write_pretty(&mut out);
            let json = Json::parse(&out).expect("dump parses");
            assert_eq!(json.get("schema").and_then(Json::as_str), Some(DUMP_SCHEMA));
            assert_eq!(
                json.get("error_class").and_then(Json::as_str),
                Some(failure.error.class())
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Undefined accesses: one verdict, whichever engine meets them
// ---------------------------------------------------------------------------

/// Runs `body` and the exit idiom on both engines and returns what
/// stopped the cycle-exact machine and what stopped the functional
/// engine.
fn stop_on_both_engines(cores: usize, body: &str) -> (SimError, SimError) {
    let image = assemble(&format!("main:\n    {body}\n    {EXIT}")).unwrap();
    let cfg = LbpConfig::cores(cores);
    let exact = Machine::new(cfg.clone(), &image).unwrap().run(10_000);
    let mut fast = FastEngine::new(cfg, &image).unwrap();
    let functional = fast.run(FastStop::Exit, 10_000);
    (exact.unwrap_err(), functional.unwrap_err())
}

/// A one-instruction faulting program on both engines.
fn fault_on_both_engines(op: &str, addr: u32) -> (SimError, SimError) {
    stop_on_both_engines(1, &format!("li t1, {addr:#x}\n    {op} a0, 0(t1)"))
}

#[test]
fn a_faulting_access_is_the_same_error_on_both_engines() {
    let hart = HartId::FIRST;
    let unmapped = |addr| SimError::Mem(MemFault::Unmapped { addr, hart });
    let unaligned = |addr, size| SimError::Mem(MemFault::Unaligned { addr, size, hart });
    let code_region = |addr: u32| SimError::Protocol {
        hart,
        what: format!("data access to the code region at {addr:#010x}"),
    };
    // The cycle-exact order is the contract: the region first (the code
    // bank has no data port), then the shared bank's existence, then the
    // alignment, then the bank's bounds. The I/O region has no device
    // here, so the bus finds nothing there, aligned or not.
    let table = [
        ("w", IO_BASE, unmapped(IO_BASE)),
        ("h", IO_BASE + 1, unmapped(IO_BASE + 1)),
        ("w", IO_BASE + 2, unmapped(IO_BASE + 2)),
        ("w", 0x2, code_region(0x2)),
        ("w", 0x4, code_region(0x4)),
        ("w", 0x8fff_0002, unmapped(0x8fff_0002)),
        ("w", LOCAL_BASE + 2, unaligned(LOCAL_BASE + 2, 4)),
        ("h", SHARED_BASE + 1, unaligned(SHARED_BASE + 1, 2)),
        ("w", LOCAL_BASE + 0x1_0000, unmapped(LOCAL_BASE + 0x1_0000)),
        (
            "w",
            SHARED_BASE + 0x1_0000,
            unmapped(SHARED_BASE + 0x1_0000),
        ),
    ];
    for (width, addr, expected) in table {
        for op in [format!("l{width}"), format!("s{width}")] {
            let (exact, functional) = fault_on_both_engines(&op, addr);
            assert_eq!(exact, expected, "{op} at {addr:#x}, cycle-exact");
            assert_eq!(functional, expected, "{op} at {addr:#x}, functional");
        }
    }
}

#[test]
fn a_protocol_violation_is_the_same_error_on_both_engines() {
    let protocol = |hart, what: &str| SimError::Protocol {
        hart,
        what: what.to_owned(),
    };
    let (c0h0, c0h1) = (HartId::FIRST, HartId::from_parts(0, 1));
    // One row per rule of the X_PAR rulebook: the cores, the program
    // before the exit idiom, and the verdict.
    let table = [
        (
            1,
            "p_fn t6",
            protocol(c0h0, "p_fn on the last core: the core line does not wrap"),
        ),
        (
            3,
            "li t1, 8\n    p_jal ra, t1, main",
            protocol(
                c0h0,
                "start pc sent to hart c2h0, which is neither local nor next-core",
            ),
        ),
        (
            3,
            "li t1, 8\n    p_swcv a0, t1, 0",
            protocol(
                c0h0,
                "p_swcv to hart c2h0, which is neither on this core nor the next",
            ),
        ),
        (
            2,
            "li t1, 0x40000\n    p_swre a0, t1, 0",
            protocol(
                c0h0,
                "p_swre to hart c1h0, which follows this core: the backward line cannot \
                 send data forward in the sequential order",
            ),
        ),
        (
            2,
            "li t0, 0x40000\n    li ra, 0x40\n    p_ret",
            protocol(c0h0, "join address sent forward to hart c1h0"),
        ),
        (
            1,
            "li t1, 1\n    p_jal ra, t1, main",
            protocol(c0h1, "start pc 0x8 delivered to a hart in state Free"),
        ),
        (
            1,
            "li t0, 0x10000\n    li ra, 0x40\n    p_ret",
            protocol(c0h1, "join address 0x40 delivered to a hart in state Free"),
        ),
        (
            1,
            "li t1, 0\n    p_swre a0, t1, -1",
            protocol(c0h0, "p_swre to out-of-range result slot 4294967295"),
        ),
    ];
    for (cores, body, expected) in table {
        let (exact, functional) = stop_on_both_engines(cores, body);
        assert_eq!(exact, expected, "{body:?}, cycle-exact");
        assert_eq!(functional, expected, "{body:?}, functional");
    }
}

// ---------------------------------------------------------------------------
// A snapshot of another hart shape is corrupt, not a different machine
// ---------------------------------------------------------------------------

/// Each `(value, width)` as `width` little-endian bytes, as the snapshot
/// format writes a word (zero-extended past eight bytes).
fn words(parts: &[(u64, usize)]) -> Vec<u8> {
    let word = |&(value, width): &(u64, usize)| {
        let bytes = value.to_le_bytes().into_iter().chain(std::iter::repeat(0));
        bytes.take(width)
    };
    parts.iter().flat_map(word).collect()
}

/// Every machine has one hart shape and one local-bank size. The format
/// keeps a word for each size that used to be a setting: the
/// configuration's seven, every hart's register-file length, result-slot
/// count and two capacities, and the memory system's local-bank size. A
/// snapshot holding any other value there is refused, naming the field.
/// A consistent snapshot whose first hart has 3 result slots used to
/// restore and run to exit with a different shape.
#[test]
fn a_snapshot_of_another_shape_is_corrupt() {
    let mut m = Machine::new(LbpConfig::cores(1), &assemble(MUL_PROGRAM).unwrap()).unwrap();
    m.run_to(5).unwrap();
    let bytes = m.snapshot().as_bytes().to_vec();
    let find = |pattern: &[u8], from: usize| {
        let at = bytes[from..]
            .windows(pattern.len())
            .position(|w| w == pattern);
        from + at.expect("the pattern is in the snapshot")
    };
    let bank = 64 * 1024;
    // Local and shared bank, phys_regs, rob_entries, it_entries,
    // result_slots, then the alu, mul and div latencies.
    let cfg = find(
        &words(&[(bank, 4), (bank, 4), (64, 8), (32, 8), (32, 8), (8, 8)]),
        0,
    );
    // Every hart ends in its result slots (eight empty ones on the boot
    // hart), its ending signal, no team successor and its two capacities.
    let recv = find(
        &words(&[(8, 8), (0, 64), (1, 1), (0, 1), (32, 8), (32, 8)]),
        cfg + 40,
    );
    let tail = recv + 8 + 64 + 2;
    // The first hart's register file is the first 64 after the
    // configuration; the memory system's two bank sizes are followed by
    // the first local bank's length.
    let prf = find(&words(&[(64, 8)]), cfg + 40);
    let mem = find(&words(&[(bank, 4), (bank, 4), (bank, 8)]), tail);
    let slots = words(&[(3, 8), (0, 24)]);
    for (at, len, value, field) in [
        (
            cfg,
            4,
            words(&[(32 * 1024, 4)]),
            "configuration: local_bank_bytes = 32768",
        ),
        (
            cfg + 8,
            8,
            words(&[(34, 8)]),
            "configuration: phys_regs = 34",
        ),
        (
            cfg + 16,
            8,
            words(&[(64, 8)]),
            "configuration: rob_entries = 64",
        ),
        (
            cfg + 24,
            8,
            words(&[(31, 8)]),
            "configuration: it_entries = 31",
        ),
        (
            cfg + 32,
            8,
            words(&[(3, 8)]),
            "configuration: result_slots = 3",
        ),
        (
            cfg + 40,
            4,
            words(&[(2, 4)]),
            "configuration: latencies.alu = 2",
        ),
        (
            cfg + 48,
            4,
            words(&[(34, 4)]),
            "configuration: latencies.div = 34",
        ),
        (prf, 8, words(&[(34, 8)]), "hart c0h0: phys_regs = 34"),
        (recv, 8 + 64, slots, "hart c0h0: result_slots = 3"),
        (tail, 8, words(&[(31, 8)]), "hart c0h0: it_entries = 31"),
        (
            tail + 8,
            8,
            words(&[(65, 8)]),
            "hart c0h0: rob_entries = 65",
        ),
        (
            mem,
            4,
            words(&[(32 * 1024, 4)]),
            "memory system: local_bank_bytes = 32768",
        ),
    ] {
        let mut bent = bytes.clone();
        bent.splice(at..at + len, value);
        let state = MachineState::from_bytes(bent).unwrap();
        match Machine::restore(&state) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.starts_with(field), "{field}: {msg}"),
            other => panic!("`{field}` must be refused, got {:?}", other.map(|_| ())),
        }
    }
}

// ---------------------------------------------------------------------------
// Lockstep differential checking
// ---------------------------------------------------------------------------

const MUL_PROGRAM: &str = "main:
    li   a0, 6
    li   a1, 7
    mul  a2, a0, a1
    li   t0, -1
    li   ra, 0
    p_ret";

#[test]
fn clean_program_passes_lockstep() {
    let image = assemble(MUL_PROGRAM).unwrap();
    let report = run_lockstep(LbpConfig::cores(1), &image, 100_000, &[]).expect("lockstep passes");
    assert_eq!(report.commits, 6);
    assert!(report.report.exited);
}

#[test]
fn late_register_flip_surfaces_as_divergence() {
    // Flip a2 bit 4 after `mul` wrote it back: the machine finishes with
    // a wrong a2 that only the differential check can see.
    let image = assemble(MUL_PROGRAM).unwrap();
    let cfg = LbpConfig::cores(1).with_faults(
        [Fault::FlipReg {
            hart: HartId::FIRST,
            reg: lbp_isa::Reg::A2,
            bit: 4,
            cycle: 14,
        }]
        .into_iter()
        .collect::<FaultPlan>(),
    );
    let err = run_lockstep(cfg, &image, 100_000, &[]).unwrap_err();
    let LockstepError::Diverged(Divergence::Register {
        reg,
        machine,
        oracle,
    }) = err
    else {
        panic!("expected a register divergence, got {err}");
    };
    assert_eq!(reg, lbp_isa::Reg::A2);
    assert_eq!(oracle, 42);
    assert_eq!(machine, 42 ^ (1 << 4));
}

#[test]
fn shared_memory_flip_surfaces_as_divergence() {
    let src = format!(
        "main:
    la   a0, cell
    li   a1, 77
    sw   a1, 0(a0)
    p_syncm
    li   a2, 40          # spin so the program is still live at cycle 60
delay:
    addi a2, a2, -1
    bnez a2, delay
    {EXIT}
.data
cell: .word 0"
    );
    let image = assemble(&src).unwrap();
    // Flip the stored word after the store retires (p_syncm guarantees it
    // is in the bank) but while the delay loop keeps the machine running.
    let cfg = LbpConfig::cores(1).with_faults(
        [Fault::FlipMem {
            addr: lbp_isa::SHARED_BASE,
            bit: 0,
            cycle: 60,
        }]
        .into_iter()
        .collect::<FaultPlan>(),
    );
    let err = run_lockstep(cfg, &image, 100_000, &[]).unwrap_err();
    let LockstepError::Diverged(Divergence::Memory {
        addr,
        machine,
        oracle,
    }) = err
    else {
        panic!("expected a memory divergence, got {err}");
    };
    assert_eq!(addr, lbp_isa::SHARED_BASE);
    assert_eq!(oracle, 77);
    assert_eq!(machine, 77 ^ 1);
}

#[test]
fn forked_program_passes_lockstep() {
    let image = assemble(FORK_NEXT_CORE).unwrap();
    let report = run_lockstep(LbpConfig::cores(2), &image, 100_000, &[]).expect("lockstep passes");
    assert!(report.report.exited);
    assert_eq!(report.commits, report.report.stats.retired());
    assert!(
        report.report.stats.retired_per_hart[4] > 0,
        "the forked hart's commits are checked too"
    );
}

#[test]
fn memory_flip_in_a_forked_program_surfaces_as_divergence() {
    // The program never touches shared memory, so nothing but the final
    // comparison can see the flipped word.
    let image = assemble(FORK_NEXT_CORE).unwrap();
    let cfg = LbpConfig::cores(2).with_faults(
        [Fault::FlipMem {
            addr: lbp_isa::SHARED_BASE + 8,
            bit: 5,
            cycle: 10,
        }]
        .into_iter()
        .collect::<FaultPlan>(),
    );
    let err = run_lockstep(cfg, &image, 100_000, &[]).unwrap_err();
    let LockstepError::Diverged(Divergence::Memory {
        addr,
        machine,
        oracle,
    }) = err
    else {
        panic!("expected a memory divergence, got {err}");
    };
    assert_eq!(addr, lbp_isa::SHARED_BASE + 8);
    assert_eq!(oracle, 0);
    assert_eq!(machine, 1 << 5);
}

/// A countdown loop storing squares: one backward branch to sabotage.
const LOOP_PROGRAM: &str = "main:
    li   t0, -1
    li   a0, 0
    li   a1, 5
    la   a2, out
loop:
    mul  a3, a1, a1
    sw   a3, 0(a2)
    addi a1, a1, -1
    bnez a1, loop
    p_ret a0, t0
.data
out: .word 0";

#[test]
fn sabotage_is_localized_to_the_exact_instruction() {
    let image = assemble(LOOP_PROGRAM).unwrap();
    let clean = run_lockstep(LbpConfig::cores(1), &image, 100_000, &[]);
    assert!(clean.is_ok(), "clean engines must agree: {clean:?}");
    // Corrupt the loop's closing branch in the oracle's copy: flipping
    // bit 10 of `bnez a1, loop` changes its offset, so the first commit
    // *after* the branch lands somewhere else.
    let branch_pc = image
        .symbol("loop")
        .map(|a| a + 12)
        .expect("the loop label resolves");
    let err = run_lockstep(
        LbpConfig::cores(1),
        &image,
        100_000,
        &[(branch_pc, 1 << 10)],
    )
    .unwrap_err();
    let LockstepError::Diverged(
        d @ Divergence::Pc {
            hart,
            machine_pc,
            oracle_pc,
            last_agreed_pc,
            ..
        },
    ) = &err
    else {
        panic!("a corrupted branch must diverge, got {err}");
    };
    assert_eq!(*hart, HartId::FIRST);
    assert_eq!(
        *last_agreed_pc,
        Some(branch_pc),
        "the last agreed instruction is the sabotaged branch: {d}"
    );
    assert_ne!(oracle_pc, machine_pc, "{d}");
}

#[test]
fn sabotage_that_names_no_code_word_is_refused() {
    // `mul.s` has six words: 4000 is past them, 6 is inside the second.
    // Neither may pass for a check that "found no divergence".
    let image = assemble(MUL_PROGRAM).unwrap();
    for pc in [4000, 6] {
        let err = run_lockstep(LbpConfig::cores(1), &image, 100_000, &[(pc, 1)]).unwrap_err();
        assert!(
            matches!(&err, LockstepError::Setup(SimError::Protocol { what, .. })
                if what.contains("pc is not a code word of the image")),
            "sabotage at {pc}: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Predecode coherence: the fetch stage reads a decoded copy of the code
// bank, so a `corrupt-instr` fault must reach that copy too.
// ---------------------------------------------------------------------------

/// A 12-step countdown storing squares. Flipping bit 20 of its `addi`
/// turns the step from -1 into -2: the program still ends, sooner.
const COUNTDOWN: &str = "main:
    li   t0, -1
    li   a0, 0
    li   a1, 12
    la   a2, out
loop:
    mul  a3, a1, a1
    sw   a3, 0(a2)
step:
    addi a1, a1, -1
    bnez a1, loop
    p_ret a0, t0
.data
out: .word 0";

/// The first and the last cycle at which corrupting the `addi` of
/// [`COUNTDOWN`] catches `a1` going 10 -> 8 -> ... -> 0. A cycle outside
/// them it steps over zero and the run never ends, so a corruption that
/// reached the fetch stage one cycle early or late would show at one end.
const STEP_FAULT_WINDOW: [u64; 2] = [61, 69];

/// How a cycle-exact run of [`COUNTDOWN`] corrupted inside that window
/// ends (cycles, `arch_hash`), computed before the fetch stage read
/// predecoded words. Uncorrupted it takes 123 cycles.
const FAULTED_END: (u64, u64) = (96, 0x0ce0_b0c5_bce5_d53b);

fn step_fault(cycle: u64) -> Fault {
    let image = assemble(COUNTDOWN).unwrap();
    Fault::CorruptInstr {
        pc: image.symbol("step").expect("the step label resolves"),
        xor: 1 << 20,
        cycle,
    }
}

#[test]
fn mid_run_corruption_changes_execution_from_its_cycle_on() {
    for at in STEP_FAULT_WINDOW {
        let mut clean = machine(1, COUNTDOWN);
        let mut faulted = machine_with_faults(1, COUNTDOWN, &[step_fault(at)]).unwrap();
        // Not before: up to the cycle before the fault the two are the
        // same machine, whatever their plans say.
        clean.run_to(at - 1).unwrap();
        faulted.run_to(at - 1).unwrap();
        assert_eq!(
            clean.snapshot().dynamic_bytes(),
            faulted.snapshot().dynamic_bytes()
        );
        // From then on: the corrupted step is what gets fetched.
        let cycles = faulted.run(10_000).unwrap().stats.cycles;
        assert_eq!((cycles, faulted.arch_hash()), FAULTED_END, "fault at {at}");
    }
}

#[test]
fn snapshot_after_a_corruption_restores_the_corrupted_code() {
    let [at, _] = STEP_FAULT_WINDOW;
    let mut m = machine_with_faults(1, COUNTDOWN, &[step_fault(at)]).unwrap();
    m.run_to(at + 3).unwrap();
    // The fault has fired and left the plan: only the code words carry it.
    let mut restored = Machine::restore(&m.snapshot()).unwrap();
    let cycles = restored.run(10_000).unwrap().stats.cycles;
    assert_eq!((cycles, restored.arch_hash()), FAULTED_END);
}

#[test]
fn undecodable_corruption_is_raised_at_the_fetch_with_the_corrupted_word() {
    let image = assemble(COUNTDOWN).unwrap();
    // The exit `p_ret` is fetched once, at cycle 119, long after the fault.
    let pc = image.symbol("step").unwrap() + 8;
    let fault = Fault::CorruptInstr {
        pc,
        xor: 0xffff_ffff,
        cycle: 61,
    };
    let failure = machine_with_faults(1, COUNTDOWN, &[fault])
        .unwrap()
        .run_diagnosed(10_000)
        .unwrap_err();
    let corrupted = image.text[(pc / 4) as usize] ^ 0xffff_ffff;
    assert!(
        matches!(failure.error, SimError::Decode { pc: at, word, .. } if at == pc && word == corrupted),
        "expected a decode error for {corrupted:#010x} at {pc:#x}, got {:?}",
        failure.error
    );
    assert_eq!(failure.dump.cycle, 119, "raised when the word is fetched");
}

#[test]
fn undecodable_sabotage_is_the_decode_error_the_machine_raises() {
    let image = assemble(COUNTDOWN).unwrap();
    let pc = image.symbol("step").unwrap() + 8;
    let fault = Fault::CorruptInstr {
        pc,
        xor: 0xffff_ffff,
        cycle: 61,
    };
    let exact = machine_with_faults(1, COUNTDOWN, &[fault])
        .unwrap()
        .run(10_000)
        .unwrap_err();
    let mut fast = FastEngine::new(LbpConfig::cores(1), &image).unwrap();
    fast.sabotage_code(pc, 0xffff_ffff);
    let functional = fast.run(FastStop::Exit, 10_000).unwrap_err();
    let corrupted = SimError::Decode {
        pc,
        word: image.text[(pc / 4) as usize] ^ 0xffff_ffff,
        hart: HartId::FIRST,
    };
    assert_eq!(functional, corrupted);
    assert_eq!(functional, exact);
}

#[test]
fn lockstep_localizes_a_mid_run_corruption() {
    let image = assemble(COUNTDOWN).unwrap();
    let [at, _] = STEP_FAULT_WINDOW;
    let cfg = LbpConfig::cores(1).with_faults([step_fault(at)].into_iter().collect::<FaultPlan>());
    let err = run_lockstep(cfg, &image, 100_000, &[]).unwrap_err();
    let LockstepError::Diverged(divergence) = err else {
        panic!("a corrupted countdown must diverge, got {err}");
    };
    // The corrupted machine's 41st commit leaves the loop for the exit
    // `p_ret` where the oracle goes round again; the `bnez` before it is
    // the last they agree on.
    let step = image.symbol("step").unwrap();
    assert_eq!(
        divergence,
        Divergence::Pc {
            hart: HartId::FIRST,
            commit: 41,
            machine_pc: Some(step + 8),
            oracle_pc: image.symbol("loop"),
            last_agreed_pc: Some(step + 4),
        }
    );
}
