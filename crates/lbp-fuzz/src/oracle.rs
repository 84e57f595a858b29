//! The oracle battery.
//!
//! Every generated program runs through the same ordered gauntlet;
//! the first oracle that trips ends the case with a classified
//! [`Failure`]:
//!
//! 1. **build** — the source must assemble (`lbp-asm`) or compile
//!    (`lbp-cc`, lint first). The generators aim for well-formed
//!    programs, so a front-end rejection is a finding against one side
//!    or the other.
//! 2. **verify** — the static fork-protocol verifier must accept the
//!    image (diagnostic codes `LBP-B*`) and, for C sources, the
//!    determinism lint must accept the program (`LBP-C*`/`LBP-S*`).
//! 3. **run** — the machine must exit cleanly (`p_ret` type 3) within
//!    the cycle budget. Combined with oracle 2 this checks the paper's
//!    central static claim: *verifier-accepted implies deadlock-free*.
//! 4. **determinism** — a second run from reset must produce a
//!    bit-identical machine-readable report and an identical
//!    content-hashed final state. (The machine is deterministic by
//!    construction; this is the metamorphic check that the
//!    implementation actually is.)
//! 5. **race** — re-run with the dynamic race-witness collector armed
//!    (`Machine::enable_race_witness`): a statically accepted program
//!    must produce **zero** concrete shared-memory overlap witnesses —
//!    the cross-validation of `lbp-verify`'s M-pass — and the collector,
//!    being observational, must leave the report and the final state
//!    hash bit-identical to the reference run.
//! 6. **snapshot** — snapshot at the mid-cycle of the reference run,
//!    round-trip the state through the `lbp-snap` codec, resume, and
//!    demand the spliced run end bit-identical to the straight run.
//! 7. **resume** — snapshot at a fuzzer-chosen cycle and finish the run
//!    in a *fresh process* (the hidden `lbp-fuzz --resume-worker`
//!    mode), comparing final-state content hashes across the process
//!    boundary. This is the crash-recovery story end to end: nothing in
//!    the parent's address space may be load-bearing for a resumed run.
//!    Falls back to an in-process restore when no worker executable is
//!    configured (library callers, the shrinker).
//! 8. **lockstep** — run the image on the functional engine too and
//!    demand architectural agreement: identical per-hart commit streams,
//!    then equal registers on the exiting hart and equal shared memory.
//!    Every kind is checked, forked programs included — rendezvous order
//!    all cross-hart communication, so the streams are
//!    schedule-independent.
//! 9. **hybrid** — fast-forward the same image on the functional
//!    engine to warm targets of 0, mid-run (often mid-rendezvous), and
//!    past-end retired instructions, materialize through the snapshot
//!    boundary, finish cycle-exactly, and demand the final
//!    architectural hash equal the pure cycle-exact run's. Clamping a
//!    mid-rendezvous target must never panic.
//! 10. **semantics** — C sources only: interpret the *source* under
//!     lbp-sema's executable semantics and demand the simulated binary
//!     land on the interpreter's outcome, global word for global word.
//!     Oracles 3–9 only ever compare the machine against itself (or the
//!     functional engine running the same binary), so a miscompilation
//!     that is deterministic, race-free and snapshot-stable sails through
//!     all of them — this is the only oracle holding the binary to what
//!     the program *means*. `--sabotage codegen:<kind>` plants exactly such
//!     bugs to prove it.
//!
//! Every step runs under `catch_unwind`: a panic anywhere in the stack
//! is itself a verdict (`class = "panic"`) — the simulator must never
//! panic on generated input.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use lbp_asm::Image;
use lbp_cc::sema::Checked;
use lbp_cc::SourceKind;
use lbp_sema::diff::DiffError;
use lbp_sim::{
    run_lockstep, FastEngine, FastStop, LbpConfig, LockstepError, Machine, MachineState, RunReport,
    SimFailure,
};
use lbp_verify::{Diag, Severity};

use crate::gen::GenProgram;

/// Names of the oracles, in battery order (stable strings: they appear
/// in the JSONL verdicts and corpus metadata).
pub const ORACLES: [&str; 10] = [
    "build",
    "verify",
    "run",
    "determinism",
    "race",
    "snapshot",
    "resume",
    "lockstep",
    "hybrid",
    "semantics",
];

/// Battery knobs that vary by caller rather than by case.
#[derive(Debug, Clone, Default)]
pub struct CheckOpts {
    /// Executable to re-exec as `--resume-worker` for the cross-process
    /// resume oracle (normally `lbp-fuzz` itself, via
    /// `std::env::current_exe`). `None` degrades the oracle to an
    /// in-process restore — still a real check, minus the process
    /// boundary.
    pub resume_exec: Option<std::path::PathBuf>,
}

/// A classified oracle failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which oracle tripped (one of [`ORACLES`]).
    pub oracle: &'static str,
    /// Machine-matchable class: a simulator error class (`mem`,
    /// `decode`, `protocol`, `deadlock`, `timeout`), a diagnostic code
    /// (`LBP-B003`, …), `divergence`, or `panic`.
    pub class: String,
    /// Human-readable detail.
    pub detail: String,
    /// The `lbp-dump-v1` crash dump, when the failing oracle produced
    /// one.
    pub dump: Option<String>,
}

impl Failure {
    fn new(oracle: &'static str, class: impl Into<String>, detail: impl Into<String>) -> Failure {
        Failure {
            oracle,
            class: class.into(),
            detail: detail.into(),
            dump: None,
        }
    }

    fn from_sim(oracle: &'static str, fail: &SimFailure) -> Failure {
        Failure {
            oracle,
            class: fail.error.class().to_owned(),
            detail: fail.error.to_string(),
            dump: Some(fail.dump.to_json().to_string()),
        }
    }

    /// Whether `other` reproduces this failure (same oracle, same
    /// class) — the shrinker's preservation predicate. Matching on
    /// detail would over-constrain: a shrunk program faults at a
    /// different pc but through the same mechanism.
    pub fn same_bug(&self, other: &Failure) -> bool {
        self.oracle == other.oracle && self.class == other.class
    }
}

/// The result of a clean pass through the whole battery.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Cycles of the reference run.
    pub cycles: u64,
    /// Instructions retired by the reference run.
    pub retired: u64,
    /// Commits compared in lockstep, over every hart.
    pub lockstep_commits: u64,
}

/// Runs `f` trapping panics into a classified [`Failure`].
fn guarded<T>(oracle: &'static str, f: impl FnOnce() -> Result<T, Failure>) -> Result<T, Failure> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            Err(Failure::new(oracle, "panic", msg))
        }
    }
}

/// Oracle 1+2: front end and static verification, one
/// [`lbp_cc::judge`]: for C the determinism lint first (it sees the
/// source-level parallel structure the binary verifier cannot
/// reconstruct), then the binary verifier over the image compiled from
/// the unit the lint checked. Returns the image and, for C, that unit.
pub fn build_and_verify(program: &GenProgram) -> Result<(Image, Option<Checked>), Failure> {
    let src = program.render();
    let kind = if program.is_c() {
        SourceKind::C
    } else {
        SourceKind::Asm
    };
    // `codegen_sabotage` rides only the compiled side: the unit the
    // semantics oracle interprets is the clean source's.
    let cc = lbp_cc::CcOptions {
        sabotage: program.codegen_sabotage,
    };
    let judged = guarded("build", || {
        lbp_cc::judge(kind, &src, &cc).map_err(|e| Failure::new("build", "frontend", e.to_string()))
    })?;
    let error = |d: &&Diag| d.severity == Severity::Error;
    if let Some(d) = judged.lint.iter().find(error) {
        return Err(Failure::new(
            "verify",
            d.code.as_str(),
            format!("line {}: {}", d.line, d.message),
        ));
    }
    if let Some(d) = judged.binary.iter().find(error) {
        return Err(Failure::new(
            "verify",
            d.code.as_str(),
            format!("{} (pc line {})", d.message, d.line),
        ));
    }
    // Only a source rejection leaves `judge` without an image.
    let compiled = judged
        .compiled
        .expect("a source-accepted program is compiled");
    Ok((compiled.image, judged.checked))
}

fn cfg_for(program: &GenProgram) -> LbpConfig {
    LbpConfig::cores(program.cores)
}

/// A machine at reset on `image`; refusing the image trips `oracle`.
fn machine(oracle: &'static str, program: &GenProgram, image: &Image) -> Result<Machine, Failure> {
    Machine::new(cfg_for(program), image)
        .map_err(|e| Failure::new(oracle, e.class(), e.to_string()))
}

/// One full run from reset; `Err` carries the dump. Returns the
/// report, the snapshot content hash, and the architectural hash (the
/// hybrid oracle's comparator: it excludes cycle counts, which the
/// functional engine only approximates).
fn reference_run(program: &GenProgram, image: &Image) -> Result<(RunReport, u64, u64), Failure> {
    guarded("run", || {
        let mut m = machine("run", program, image)?;
        let report = m
            .run_diagnosed(program.max_cycles)
            .map_err(|f| Failure::from_sim("run", &f))?;
        let hash = lbp_snap::content_hash(&m.snapshot());
        let arch = m.arch_hash();
        Ok((report, hash, arch))
    })
}

/// The full battery with default options (in-process resume oracle).
pub fn check(program: &GenProgram) -> Result<PassReport, Failure> {
    check_with(program, &CheckOpts::default())
}

/// The full battery. The first failing oracle wins.
pub fn check_with(program: &GenProgram, opts: &CheckOpts) -> Result<PassReport, Failure> {
    let (image, checked) = build_and_verify(program)?;

    // Oracle 3: the reference run.
    let (report, final_hash, pure_arch) = reference_run(program, &image)?;

    // Oracle 4: bit-identical repetition.
    let (report2, final_hash2, _) = reference_run(program, &image).map_err(|mut f| {
        // A *second* run failing after the first passed is itself a
        // determinism bug, whatever the underlying error said.
        f.oracle = "determinism";
        f
    })?;
    let (a, b) = (report.to_json().to_string(), report2.to_json().to_string());
    if a != b {
        return Err(Failure::new(
            "determinism",
            "divergence",
            format!("reports differ between identical runs:\n  first:  {a}\n  second: {b}"),
        ));
    }
    if final_hash != final_hash2 {
        return Err(Failure::new(
            "determinism",
            "divergence",
            format!(
                "final state content hash differs between identical runs: \
                 {final_hash:#018x} vs {final_hash2:#018x}"
            ),
        ));
    }

    // Oracle 5: dynamic race-witness cross-validation. The program
    // passed static verification (oracle 2), so the collector must
    // observe zero concrete shared-memory overlaps — and, being
    // observational, must not perturb the run.
    guarded("race", || {
        let mut m = machine("race", program, &image)?;
        m.enable_race_witness();
        let witnessed = m
            .run_diagnosed(program.max_cycles)
            .map_err(|f| Failure::from_sim("race", &f))?;
        let witnessed_json = witnessed.to_json().to_string();
        let witnessed_hash = lbp_snap::content_hash(&m.snapshot());
        if witnessed_json != a || witnessed_hash != final_hash {
            return Err(Failure::new(
                "race",
                "divergence",
                format!(
                    "witness collection perturbed the run: report or final state \
                     differs (hash {witnessed_hash:#018x} vs {final_hash:#018x})"
                ),
            ));
        }
        let witnesses = m.race_witnesses();
        if let Some(w) = witnesses.first() {
            return Err(Failure::new(
                "race",
                "race-witness",
                format!(
                    "statically accepted program produced {} dynamic race witness(es): {w}",
                    witnesses.len()
                ),
            ));
        }
        Ok(())
    })?;

    if report.stats.cycles >= 2 {
        // Oracle 6: snapshot at the reference run's mid-cycle, resume in
        // process, and demand the straight run's report and final state.
        let cut = report.stats.cycles / 2;
        guarded("snapshot", || {
            let state = pause_at("snapshot", program, &image, cut)?;
            let (resumed_report, resumed) = resume_in_process("snapshot", program, &state)?;
            let resumed_json = resumed_report.to_json().to_string();
            if resumed_json != a {
                return Err(Failure::new(
                    "snapshot",
                    "divergence",
                    format!(
                        "snapshot-at-{cut} run report differs from the straight run:\n  \
                         straight: {a}\n  resumed:  {resumed_json}"
                    ),
                ));
            }
            let resumed_hash = lbp_snap::content_hash(&resumed.snapshot());
            if resumed_hash != final_hash {
                return Err(Failure::new(
                    "snapshot",
                    "divergence",
                    format!(
                        "final state content hash differs after a snapshot-at-{cut} resume: \
                         {final_hash:#018x} vs {resumed_hash:#018x}"
                    ),
                ));
            }
            Ok(())
        })?;

        // Oracle 7: resume at a fuzzer-chosen cycle in a fresh process
        // (in process when `opts.resume_exec` is `None`), and demand the
        // straight run's final content hash and cycle count. The cut is a
        // pure function of the program text, so the verdict stream stays
        // bit-reproducible while different cases cut at different
        // fractions of their runs.
        let straight_cycles = report.stats.cycles;
        let cut = 1 + lbp_snap::fnv1a64(program.render().as_bytes()) % (straight_cycles - 1);
        guarded("resume", || {
            let state = pause_at("resume", program, &image, cut)?;
            let (hash, cycles) = match &opts.resume_exec {
                Some(exe) => resume_in_worker(exe, program, &state)?,
                None => {
                    let (_, resumed) = resume_in_process("resume", program, &state)?;
                    let cycles = resumed.stats().cycles;
                    (lbp_snap::content_hash(&resumed.snapshot()), cycles)
                }
            };
            if hash != final_hash || cycles != straight_cycles {
                return Err(Failure::new(
                    "resume",
                    "divergence",
                    format!(
                        "resume-at-{cut} disagrees with the straight run: \
                         hash {hash:#018x} vs {final_hash:#018x}, \
                         cycles {cycles} vs {straight_cycles}"
                    ),
                ));
            }
            Ok(())
        })?;
    }

    // Oracle 8: differential lockstep against the functional engine.
    let lockstep_commits = guarded("lockstep", || {
        match run_lockstep(cfg_for(program), &image, program.max_cycles, &[]) {
            Ok(r) => Ok(r.commits),
            Err(LockstepError::Diverged(d)) => {
                Err(Failure::new("lockstep", "divergence", d.to_string()))
            }
            Err(LockstepError::Machine(f)) => Err(Failure::from_sim("lockstep", &f)),
            Err(e) => Err(Failure::new("lockstep", "oracle", e.to_string())),
        }
    })?;

    // Oracle 9: hybrid fast-forward handoff. The functional engine
    // runs the same image to several warm targets, materializes
    // through the snapshot boundary, and the cycle-exact engine
    // finishes; every variant must land on the pure run's
    // architectural hash. `retired / 2` routinely falls mid-rendezvous
    // on forking programs — the clamp path — and `u64::MAX` exercises
    // the past-end exit boundary.
    guarded("hybrid", || {
        let budget = program.max_cycles.saturating_mul(4);
        for warm in [0, report.stats.retired() / 2, u64::MAX] {
            let (mut m, _) =
                FastEngine::warm(cfg_for(program), &image, FastStop::Retired(warm), budget)
                    .map_err(|e| {
                        Failure::new(
                            "hybrid",
                            e.sim().class(),
                            format!("warm={warm}: {}", e.sim()),
                        )
                    })?;
            m.run_diagnosed(program.max_cycles).map_err(|f| {
                let mut f = Failure::from_sim("hybrid", &f);
                f.detail = format!("warm={warm}: {}", f.detail);
                f
            })?;
            let arch = m.arch_hash();
            if arch != pure_arch {
                return Err(Failure::new(
                    "hybrid",
                    "divergence",
                    format!(
                        "warm={warm}: hybrid final architectural hash {arch:#018x} \
                         != pure cycle-exact {pure_arch:#018x}"
                    ),
                ));
            }
        }
        Ok(())
    })?;

    // Oracle 10: executable semantics. Interpret the C source under
    // lbp-sema and demand the simulated binary reproduce the
    // interpreter's observable outcome — the one oracle that compares
    // the machine against the program's *meaning* rather than against
    // another run of the same binary.
    if let Some(checked) = &checked {
        guarded("semantics", || {
            match lbp_sema::diff::diff(
                checked,
                &image,
                program.cores,
                program.max_cycles,
                &lbp_sema::InterpOptions::default(),
            ) {
                Ok(_) => Ok(()),
                Err(DiffError::Divergence(d)) => Err(Failure::new("semantics", "divergence", d)),
                Err(DiffError::Trap(t)) => Err(Failure::new("semantics", t.class, t.to_string())),
                Err(e) => Err(Failure::new("semantics", "oracle", e.to_string())),
            }
        })?;
    }

    Ok(PassReport {
        cycles: report.stats.cycles,
        retired: report.stats.retired(),
        lockstep_commits,
    })
}

/// Runs `image` from reset to `cut`, which falls before the straight
/// run's end, and returns the state there (oracles 6 and 7).
fn pause_at(
    oracle: &'static str,
    program: &GenProgram,
    image: &Image,
    cut: u64,
) -> Result<MachineState, Failure> {
    let mut prefix = machine(oracle, program, image)?;
    let exited = prefix
        .run_to(cut)
        .map_err(|f| Failure::from_sim(oracle, &f))?;
    if exited {
        // The cut is below the straight run's cycle count, so the
        // program cannot have exited yet on a deterministic machine.
        return Err(Failure::new(
            oracle,
            "divergence",
            format!("program exited before cycle {cut}, earlier than the straight run"),
        ));
    }
    Ok(prefix.snapshot())
}

/// Round-trips `state` through the `lbp-snap` codec, restores a machine
/// from what comes back and runs it to the end (oracles 6 and 7).
fn resume_in_process(
    oracle: &'static str,
    program: &GenProgram,
    state: &MachineState,
) -> Result<(RunReport, Machine), Failure> {
    let decoded = lbp_snap::decode(&lbp_snap::encode(state))
        .map_err(|e| Failure::new(oracle, "codec", format!("round-trip decode failed: {e}")))?;
    if decoded.as_bytes() != state.as_bytes() {
        return Err(Failure::new(
            oracle,
            "codec",
            "state bytes changed across an encode/decode round trip".to_owned(),
        ));
    }
    let mut resumed = Machine::restore(&decoded)
        .map_err(|e| Failure::new(oracle, "codec", format!("restore failed: {e}")))?;
    let report = resumed
        .run_diagnosed(program.max_cycles)
        .map_err(|f| Failure::from_sim(oracle, &f))?;
    Ok((report, resumed))
}

/// Oracle 7 across the process boundary: `exe --resume-worker` finishes
/// the run from `state` and replies with its final content hash and
/// cycle count.
fn resume_in_worker(
    exe: &std::path::Path,
    program: &GenProgram,
    state: &MachineState,
) -> Result<(u64, u64), Failure> {
    // The ordinal keeps concurrent checks of the same case (same
    // pid, same content hash) off each other's file: one's
    // `remove_file` would delete the snapshot the other reads.
    static SNAP_ORDINAL: AtomicU64 = AtomicU64::new(0);
    let snap = std::env::temp_dir().join(format!(
        "lbp-fuzz-resume-{}-{}-{:016x}.lbpsnap",
        std::process::id(),
        SNAP_ORDINAL.fetch_add(1, Ordering::Relaxed),
        lbp_snap::content_hash(state)
    ));
    lbp_snap::save(state, &snap)
        .map_err(|e| Failure::new("resume", "worker", format!("cannot write snapshot: {e}")))?;
    let out = std::process::Command::new(exe)
        .arg("--resume-worker")
        .arg(&snap)
        .arg(program.max_cycles.to_string())
        .output();
    let _ = std::fs::remove_file(&snap);
    let out = out.map_err(|e| {
        Failure::new(
            "resume",
            "worker",
            format!("cannot spawn resume worker: {e}"),
        )
    })?;
    if !out.status.success() {
        return Err(Failure::new(
            "resume",
            "worker",
            format!(
                "resume worker exited {:?}: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr).trim()
            ),
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace();
    let parsed = (
        fields.next().and_then(|h| u64::from_str_radix(h, 16).ok()),
        fields.next().and_then(|c| c.parse().ok()),
    );
    match parsed {
        (Some(h), Some(c)) => Ok((h, c)),
        _ => Err(Failure::new(
            "resume",
            "worker",
            format!("malformed resume worker reply: {text:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig, Kind};
    use lbp_testutil::Rng;

    #[test]
    fn battery_passes_a_known_good_program() {
        let mut rng = Rng::new(7);
        let p = generate(&mut rng, &GenConfig::default(), 0); // kind 0 = seq
        let report = check(&p).unwrap_or_else(|f| {
            panic!(
                "oracle {} tripped ({}): {}\n---\n{}",
                f.oracle,
                f.class,
                f.detail,
                p.render()
            )
        });
        assert!(report.cycles > 0);
        assert!(report.retired > 0);
        assert_eq!(
            report.lockstep_commits, report.retired,
            "every retired instruction is lockstep-checked"
        );
    }

    #[test]
    fn hybrid_oracle_passes_fork_trees() {
        // Kind index 2 = fork: the generated tree forks across cores,
        // so the mid-run warm target lands inside (or between) X_PAR
        // rendezvous windows — the clamp path the hybrid oracle must
        // survive without divergence.
        for seed in [3, 11] {
            let mut rng = Rng::new(seed);
            let p = generate(&mut rng, &GenConfig::default(), 2);
            let report = check(&p).unwrap_or_else(|f| {
                panic!(
                    "seed {seed}: oracle {} tripped ({}): {}\n---\n{}",
                    f.oracle,
                    f.class,
                    f.detail,
                    p.render()
                )
            });
            assert!(report.retired > 0);
        }
    }

    #[test]
    fn race_oracle_catches_a_dynamic_only_race() {
        // The precision-boundary fixture: statically accepted (the store
        // goes through an address of unknown provenance — LBP-M004, a
        // warning), yet both members write the same shared word at
        // runtime. The race oracle must catch what the M-pass cannot.
        let src = include_str!("../../lbp-verify/tests/fixtures/race_dynamic_only.s");
        let p = GenProgram {
            kind: Kind::Fork,
            cores: 1,
            max_cycles: 100_000,
            codegen_sabotage: None,
            segments: vec![crate::gen::Segment::Fixed(src.to_owned())],
        };
        let f = check(&p).unwrap_err();
        assert_eq!(f.oracle, "race");
        assert_eq!(f.class, "race-witness");
        assert!(f.detail.contains("write-write"), "detail: {}", f.detail);
    }

    #[test]
    fn failures_classify_a_wild_store() {
        // A minimal hand-written wild store: the run oracle must trip
        // with a mem class and attach a dump.
        let p = GenProgram {
            kind: Kind::Seq,
            cores: 1,
            max_cycles: 10_000,
            codegen_sabotage: None,
            segments: vec![crate::gen::Segment::Fixed(
                "main:\n    li t6, 0x8f000000\n    sw t6, 0(t6)\n    li t0, -1\n    li ra, 0\n    p_ret\n"
                    .to_owned(),
            )],
        };
        let f = check(&p).unwrap_err();
        assert_eq!(f.oracle, "run");
        assert_eq!(f.class, "mem");
        assert!(f.dump.is_some(), "run failures carry a dump");
    }

    /// The headline red check for the semantics oracle: every
    /// `codegen:*` miscompilation survives oracles 1–9 untouched — the
    /// sabotaged binary builds, verifies, runs deterministically,
    /// produces no race witness, snapshots, resumes and fast-forwards
    /// cleanly — and is caught *only* by the semantics oracle. (The
    /// battery is ordered, so `f.oracle == "semantics"` proves all
    /// nine preceding oracles passed.) The same program compiled
    /// honestly passes the whole battery including semantics.
    #[test]
    fn codegen_sabotage_is_caught_only_by_the_semantics_oracle() {
        for kind in lbp_cc::CodegenSabotage::ALL {
            let cfg = GenConfig {
                kinds: vec![Kind::C],
                sabotage: Some(crate::gen::Sabotage::Codegen(kind)),
                ..GenConfig::default()
            };
            let mut rng = Rng::new(5);
            let p = generate(&mut rng, &cfg, 0);
            let f = match check(&p) {
                Err(f) => f,
                Ok(_) => panic!(
                    "{}: sabotaged program passed the battery\n---\n{}",
                    kind.name(),
                    p.render()
                ),
            };
            assert_eq!(
                f.oracle,
                "semantics",
                "{}: tripped {} ({}) instead of semantics: {}",
                kind.name(),
                f.oracle,
                f.class,
                f.detail
            );
            assert_eq!(f.class, "divergence", "{}: {}", kind.name(), f.detail);

            let clean = GenProgram {
                codegen_sabotage: None,
                ..p.clone()
            };
            check(&clean).unwrap_or_else(|f| {
                panic!(
                    "{}: honest compile failed {} ({}): {}",
                    kind.name(),
                    f.oracle,
                    f.class,
                    f.detail
                )
            });
        }
    }
}
