//! `lbp-run` — compile/assemble a program and execute it on the LBP
//! simulator.
//!
//! ```text
//! lbp-run program.c  --cores 4 --dump v:8
//! lbp-run program.s  --cores 16 --trace trace.jsonl --trace-format jsonl
//! lbp-run program.c  --stats-json - --interval 1000
//! lbp-run program.c  --verify --diag-json -
//! lbp-run --help
//! ```
//!
//! `.c` inputs go through the Deterministic OpenMP translator
//! (`lbp-cc`); everything else goes straight to the assembler. One
//! invocation is one *mode* — run (from reset, after a functional warm
//! phase, or from a checkpoint), verify, emit-asm, disasm, bisect,
//! lockstep, snap-info, bisect-snaps — and the flag table below says, per
//! flag, which modes read it: a flag the selected mode would ignore is a
//! usage error. `lbp-run --help` prints the table; the exit code is the
//! [`ExitClass`] of how the run ended.

use std::process::ExitCode;

use lbp::asm::Image;
use lbp::cc::{Compiled, SourceKind};
use lbp::sim::cli::{self, Args, Flag, Grammar, Positional};
use lbp::sim::{
    ChromeSink, ExitClass, FastEngine, FastStop, Fault, FaultPlan, JsonlSink, LbpConfig,
    LockstepError, Machine, MachineDump, SimFailure, TextSink, TraceSink, WarmError, Watch,
    Watched,
};

const RUN: u32 = 1 << 0;
const WARM: u32 = 1 << 1;
const RESUME: u32 = 1 << 2;
const VERIFY: u32 = 1 << 3;
const EMIT_ASM: u32 = 1 << 4;
const DISASM: u32 = 1 << 5;
const BISECT: u32 = 1 << 6;
const LOCKSTEP: u32 = 1 << 7;
const SNAP_INFO: u32 = 1 << 8;
const BISECT_SNAPS: u32 = 1 << 9;
/// The modes that run a machine to exit and report on it.
const RUNS: u32 = RUN | WARM | RESUME;
/// The modes that build a machine from `--cores`/`--interval`/`--fault`
/// (a resumed run takes the snapshot's configuration).
const BUILDS: u32 = RUN | WARM | BISECT | LOCKSTEP;

lbp::sim::flags! { FLAGS:
    CORES = Flag::new("--cores", &["N"], BUILDS, "machine size in cores (default 4)");
    MAX_CYCLES = Flag::new("--max-cycles", &["N"], RUNS | BISECT | LOCKSTEP | BISECT_SNAPS,
        "cycle budget (default 100000000)");
    TRACE = Flag::new("--trace", &["FILE"], RUNS,
        "stream the cycle trace to FILE ('-' = stdout)");
    TRACE_FORMAT = Flag::new("--trace-format", &["F"], RUNS,
        "trace format: text, jsonl or chrome (default text)").requires(&[TRACE]);
    STATS_JSON = Flag::new("--stats-json", &["FILE"], RUNS,
        "write the run report as JSON to FILE ('-' = stdout)");
    INTERVAL = Flag::new("--interval", &["N"], BUILDS,
        "record an interval sample every N cycles");
    DUMP = Flag::new("--dump", &["SYM[:N]"], RUNS,
        "print N words of memory at symbol SYM after the run").repeatable();
    EMIT_ASM_F = Flag::new("--emit-asm", &[], EMIT_ASM,
        "print the generated assembly and exit").selects(EMIT_ASM);
    DISASM_F = Flag::new("--disasm", &[], DISASM,
        "print the assembled image's disassembly and exit").selects(DISASM);
    PROFILE = Flag::new("--profile", &["DIR"], RUNS,
        "profile the run: per-pc cycle attribution, traffic\n\
         matrices and the fork-tree timeline. Writes\n\
         DIR/profile.json (lbp-prof-v1), DIR/folded.txt\n\
         (flamegraph folded stacks) and DIR/timeline.json\n\
         (chrome://tracing), and prints the per-function\n\
         hot-spot table");
    FAULT = Flag::new("--fault", &["SPEC"], BUILDS,
        "inject a deterministic fault (repeatable); specs:\n\
         flip-reg:HART:REG:BIT:CYCLE  flip-mem:ADDR:BIT:CYCLE\n\
         corrupt-instr:PC:XOR:CYCLE   drop-msg:NTH\n\
         delay-msg:NTH:CYCLES").repeatable();
    DUMP_ON_ERROR = Flag::new("--dump-on-error", &["F"], RUNS | LOCKSTEP,
        "write an lbp-dump-v1 crash dump to F if the run fails");
    LOCKSTEP_F = Flag::new("--lockstep", &[], LOCKSTEP,
        "check the run against the functional engine: per-hart\n\
         commit streams, then final registers and shared\n\
         memory; the first divergence is localized to the\n\
         exact hart and commit and exits 9").selects(LOCKSTEP);
    VERIFY_F = Flag::new("--verify", &[], VERIFY,
        "statically verify the program instead of running it:\n\
         the source lint (.c) and the binary verifier; a\n\
         rejection exits 10").selects(VERIFY);
    DIAG_JSON = Flag::new("--diag-json", &["FILE"], VERIFY,
        "write the lbp-diag-v1 report ('-' = stdout)");
    RACE_WITNESS = Flag::new("--race-witness", &[], RUN | RESUME,
        "collect per-epoch shared-write footprints during the\n\
         run and report concrete cross-hart overlaps; any\n\
         witness exits 10");
    CHECKPOINT_EVERY = Flag::new("--checkpoint-every", &["N"], RUNS,
        "write an lbp-snap-v1 snapshot every N cycles");
    CHECKPOINT_PREFIX = Flag::new("--checkpoint-prefix", &["P"], RUNS,
        "checkpoint files are P<cycle>.lbpsnap (default ckpt-)").requires(&[CHECKPOINT_EVERY]);
    RESUME_FROM = Flag::new("--resume-from", &["FILE"], RESUME,
        "continue a run from a checkpoint (the snapshot's\n\
         configuration wins; the program may be omitted)").selects(RESUME);
    BISECT_F = Flag::new("--bisect", &[], BISECT,
        "binary-search the clean and the --fault runs for the\n\
         first divergent cycle and event").selects(BISECT).requires(&[FAULT]);
    WALL_MS = Flag::new("--wall-ms", &["MS"], RUNS,
        "cancel the run cooperatively after MS milliseconds\n\
         of host time; exits 11 (0 cancels at first poll)");
    WARM_F = Flag::new("--warm", &["N"], WARM,
        "fast-forward the first N retired instructions on the\n\
         functional engine (clamped to the next rendezvous\n\
         boundary), then hand off to the cycle-exact engine").selects(WARM);
    ROI = Flag::new("--roi", &[], WARM,
        "like --warm, but fast-forward until the program's\n\
         `__roi_start` marker (a label; `.c` inputs write it\n\
         with `__roi_start();`)").selects(WARM).excludes(&[WARM_F]);
    WARM_SNAP = Flag::new("--warm-snap", &["FILE"], WARM,
        "save the handoff snapshot to FILE (container records\n\
         the functional engine)");
    SNAP_INFO_F = Flag::new("--snap-info", &["FILE"], SNAP_INFO,
        "print a snapshot container's metadata (format\n\
         version, producing engine, cycle, cores) and exit").selects(SNAP_INFO);
    BISECT_SNAPS_F = Flag::new("--bisect-snaps", &["A", "B"], BISECT_SNAPS,
        "bisect two same-cycle snapshots of diverging runs;\n\
         refuses mixed container versions or engines").selects(BISECT_SNAPS);
    SABOTAGE = Flag::new("--sabotage", &["PC:XOR"], LOCKSTEP,
        "XOR a code word in the functional copy only\n\
         (repeatable; seeded-divergence validation of the\n\
         localizer)").repeatable();
}

static GRAMMAR: Grammar = Grammar {
    tool: "lbp-run",
    synopsis: &["lbp-run <program.c|program.s> [options]"],
    about: "",
    modes: &[
        ("run", "run the program from reset to its exit"),
        ("warm", "fast-forward functionally, then run cycle-exact"),
        ("resume", "run on from a checkpoint"),
        ("verify", "static verdict, nothing runs"),
        ("emit-asm", "print the translator's assembly"),
        ("disasm", "print the image's disassembly"),
        ("bisect", "first divergence of a faulted run"),
        ("lockstep", "the run against the functional engine"),
        ("snap-info", "describe a snapshot container"),
        ("bisect-snaps", "first divergence of two snapshots"),
    ],
    positional: Positional::one(
        "<program.c|program.s>",
        !(RESUME | SNAP_INFO | BISECT_SNAPS),
        !(SNAP_INFO | BISECT_SNAPS),
    ),
    flags: FLAGS,
    footer: "exit codes: 0 ok, 2 usage, 1 front-end/I/O, 4 timeout, 5 deadlock,\n\
             6 protocol, 7 decode, 8 memory fault, 9 lockstep divergence,\n\
             10 verification rejection, 11 wall-clock cancellation",
};

/// Where a run to exit starts.
enum Start {
    /// From reset.
    Cold(LbpConfig),
    /// After a functional warm phase: to `target` retired instructions,
    /// or to the `__roi_start` marker; `snap` saves the handoff.
    Warm {
        cfg: LbpConfig,
        target: Option<u64>,
        snap: Option<String>,
    },
    /// From the checkpoint at this path.
    Resume(String),
}

/// What a run to exit writes and watches besides running.
struct RunOptions {
    max_cycles: u64,
    trace: Option<(String, String)>,
    stats_json: Option<String>,
    dumps: Vec<(String, u32)>,
    profile: Option<String>,
    dump_on_error: Option<String>,
    race_witness: bool,
    /// `--checkpoint-every` with its `--checkpoint-prefix`.
    checkpoint: Option<(u64, String)>,
    wall_ms: Option<u64>,
}

/// One invocation, with only what its mode reads.
enum Mode {
    SnapInfo(String),
    BisectSnaps {
        a: String,
        b: String,
        max_cycles: u64,
    },
    Verify {
        diag_json: Option<String>,
    },
    EmitAsm,
    Disasm,
    Bisect {
        clean: LbpConfig,
        faulted: LbpConfig,
        max_cycles: u64,
    },
    Lockstep {
        cfg: LbpConfig,
        max_cycles: u64,
        sabotage: Vec<(u32, u32)>,
        dump_on_error: Option<String>,
    },
    Run(Start, RunOptions),
}

/// The machine configuration `--cores`/`--interval` (and, when asked,
/// `--fault`) describe.
fn config(args: &Args, faulted: bool) -> Result<LbpConfig, String> {
    let cores = args.get::<usize>(CORES)?.unwrap_or(4);
    if cores == 0 || cores > 4096 {
        return Err(format!("`{}` must be between 1 and 4096", CORES.name));
    }
    let mut cfg = LbpConfig::cores(cores);
    if let Some(interval) = args.get::<u64>(INTERVAL)?.filter(|&n| n > 0) {
        cfg = cfg.with_interval(interval);
    }
    let faults = args.all_with(FAULT, |s| Fault::parse(s).map_err(|e| e.to_string()))?;
    if faulted && !faults.is_empty() {
        cfg = cfg.with_faults(faults.into_iter().collect::<FaultPlan>());
    }
    Ok(cfg)
}

impl Mode {
    /// Reads the mode the grammar selected and the values it needs.
    fn decide(args: &Args) -> Result<Mode, String> {
        let owned = |flag: &Flag| args.str(flag).map(str::to_owned);
        let max_cycles = args.get::<u64>(MAX_CYCLES)?.unwrap_or(100_000_000);
        if let Some(path) = owned(SNAP_INFO_F) {
            return Ok(Mode::SnapInfo(path));
        }
        if let Some([a, b]) = args.values(BISECT_SNAPS_F) {
            let (a, b) = (a.clone(), b.clone());
            return Ok(Mode::BisectSnaps { a, b, max_cycles });
        }
        let start = match args.mode() {
            VERIFY => {
                return Ok(Mode::Verify {
                    diag_json: owned(DIAG_JSON),
                })
            }
            EMIT_ASM => return Ok(Mode::EmitAsm),
            DISASM => return Ok(Mode::Disasm),
            BISECT => {
                return Ok(Mode::Bisect {
                    clean: config(args, false)?,
                    faulted: config(args, true)?,
                    max_cycles,
                })
            }
            LOCKSTEP => {
                let word = |s: &str| match s.strip_prefix("0x") {
                    Some(hex) => u32::from_str_radix(hex, 16).ok(),
                    None => s.parse().ok(),
                };
                let sabotage = args.all_with(SABOTAGE, |spec| {
                    spec.split_once(':')
                        .and_then(|(pc, xor)| Some((word(pc)?, word(xor)?)))
                        .ok_or("want PC:XOR".to_owned())
                })?;
                return Ok(Mode::Lockstep {
                    cfg: config(args, true)?,
                    max_cycles,
                    sabotage,
                    dump_on_error: owned(DUMP_ON_ERROR),
                });
            }
            WARM => Start::Warm {
                cfg: config(args, true)?,
                target: args.get::<u64>(WARM_F)?,
                snap: owned(WARM_SNAP),
            },
            _ => match owned(RESUME_FROM) {
                Some(path) => Start::Resume(path),
                None => Start::Cold(config(args, true)?),
            },
        };
        let format = args.str(TRACE_FORMAT).unwrap_or("text");
        if !["text", "jsonl", "chrome"].contains(&format) {
            let name = TRACE_FORMAT.name;
            return Err(format!(
                "bad `{name}` value `{format}`: want text, jsonl or chrome"
            ));
        }
        let every = args.get::<u64>(CHECKPOINT_EVERY)?;
        if every == Some(0) {
            return Err(format!("`{}` must be at least 1", CHECKPOINT_EVERY.name));
        }
        let prefix = args.str(CHECKPOINT_PREFIX).unwrap_or("ckpt-");
        let dumps = args.all_with(DUMP, |spec| match spec.split_once(':') {
            Some((sym, n)) => Ok((sym.to_owned(), n.parse().map_err(|_| "want SYM[:N]")?)),
            None => Ok((spec.to_owned(), 1)),
        })?;
        Ok(Mode::Run(
            start,
            RunOptions {
                max_cycles,
                trace: owned(TRACE).map(|path| (path, format.to_owned())),
                stats_json: owned(STATS_JSON),
                dumps,
                profile: owned(PROFILE),
                dump_on_error: owned(DUMP_ON_ERROR),
                race_witness: args.has(RACE_WITNESS),
                checkpoint: every.map(|n| (n, prefix.to_owned())),
                wall_ms: args.get(WALL_MS)?,
            },
        ))
    }
}

/// Writes the `lbp-dump-v1` crash dump as pretty JSON (`-` = stdout).
fn write_dump(path: &str, dump: &MachineDump) {
    let mut text = String::new();
    dump.to_json().write_pretty(&mut text);
    text.push('\n');
    match cli::write_out(path, &text) {
        Ok(()) => {
            if path != "-" {
                eprintln!("lbp-run: crash dump written to {path}");
            }
        }
        Err(e) => eprintln!("lbp-run: cannot write crash dump to `{path}`: {e}"),
    }
}

/// Prints a stopped run's error, dumps it when asked, and classifies it.
fn report_failure(fail: &SimFailure, dump_on_error: Option<&str>) -> ExitCode {
    eprintln!("lbp-run: {}", fail.error);
    if let Some(path) = dump_on_error {
        write_dump(path, &fail.dump);
    }
    fail.error.exit_class().into()
}

/// `--lockstep`: run the machine and verify it
/// against the functional engine, hart by hart and commit by commit.
fn run_lockstep_mode(
    cfg: LbpConfig,
    image: &Image,
    max_cycles: u64,
    sabotage: &[(u32, u32)],
    dump_on_error: Option<&str>,
) -> ExitCode {
    match lbp::sim::run_lockstep(cfg, image, max_cycles, sabotage) {
        Ok(ls) => {
            println!("lockstep: OK ({} commits verified)", ls.commits);
            println!("exited:   {}", ls.report.exited);
            println!("cycles:   {}", ls.report.stats.cycles);
            println!("retired:  {}", ls.report.stats.retired());
            ExitCode::SUCCESS
        }
        Err(LockstepError::Setup(e)) => {
            eprintln!("lbp-run: {e}");
            e.exit_class().into()
        }
        Err(LockstepError::Machine(fail)) => report_failure(&fail, dump_on_error),
        Err(e) => {
            // An oracle fault or an architectural divergence.
            eprintln!("lbp-run: {e}");
            ExitClass::Divergence.into()
        }
    }
}

/// Writes the paused machine's state to `<prefix><cycle>.lbpsnap`.
fn save_checkpoint(machine: &Machine, prefix: &str) {
    let state = machine.snapshot();
    let path = format!("{prefix}{}.lbpsnap", state.cycle());
    match lbp::snap::save(&state, &path) {
        Ok(()) => eprintln!("lbp-run: checkpoint written to {path}"),
        Err(e) => eprintln!("lbp-run: cannot write checkpoint `{path}`: {e}"),
    }
}

/// `--checkpoint-every N` and `--wall-ms MS`, alone or together: a
/// [`Machine::run_watched`] whose slice is N (or 10 000 cycles between
/// clock polls), so a snapshot is written at every boundary the run
/// reaches without exiting — the cycle budget's included, which is what
/// lets a timed-out run be resumed under a larger budget.
fn run_in_slices(machine: &mut Machine, opts: &RunOptions) -> Result<Watched, Box<SimFailure>> {
    let (every, prefix) = match &opts.checkpoint {
        Some((n, prefix)) => (*n, prefix.as_str()),
        None => (0, ""),
    };
    let watch = Watch {
        slice: if every > 0 { every } else { 10_000 },
        checkpoint_every: every,
        deadline: opts
            .wall_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms)),
    };
    let start = machine.stats().cycles;
    let result = machine.run_watched(opts.max_cycles, &watch, |m| save_checkpoint(m, prefix));
    let timed_out = matches!(&result, Err(f) if f.error.exit_class() == ExitClass::Timeout);
    if timed_out && every > 0 && machine.stats().cycles > start {
        save_checkpoint(machine, prefix);
    }
    result
}

/// `--snap-info FILE`: print a container's metadata without restoring
/// the machine.
fn run_snap_info(path: &str) -> ExitCode {
    match lbp::snap::peek_file(path) {
        Ok(meta) => {
            println!("snapshot: {path}");
            println!("format:   lbp-snap v{}", meta.version);
            println!("engine:   {}", meta.engine);
            println!("cycle:    {}", meta.cycle);
            println!("cores:    {}", meta.cores);
            println!("payload:  {} bytes", meta.payload_len);
            println!("hash:     {:#018x}", meta.content_hash);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbp-run: cannot inspect `{path}`: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints what a bisection found.
fn report_divergence(
    found: Result<Option<lbp::snap::DivergencePoint>, lbp::sim::SnapError>,
    clean: &str,
) -> ExitCode {
    match found {
        Ok(Some(d)) => println!("{d}"),
        Ok(None) => println!("no divergence: {clean}"),
        Err(e) => {
            eprintln!("lbp-run: bisection failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--bisect-snaps A B`: bisect two same-cycle snapshots of diverging
/// runs, refusing incompatible container versions or engines first.
fn run_bisect_snaps(a: &str, b: &str, max_cycles: u64) -> ExitCode {
    let (meta_a, meta_b) = match (lbp::snap::peek_file(a), lbp::snap::peek_file(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) => {
            eprintln!("lbp-run: cannot inspect `{a}`: {e}");
            return ExitCode::FAILURE;
        }
        (_, Err(e)) => {
            eprintln!("lbp-run: cannot inspect `{b}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = lbp::snap::ensure_bisect_compatible(&meta_a, &meta_b) {
        eprintln!("lbp-run: {e}");
        return ExitClass::Usage.into();
    }
    let (sa, sb) = match (lbp::snap::load(a), lbp::snap::load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lbp-run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stride = (max_cycles / 100).clamp(16, 65_536);
    report_divergence(
        lbp::snap::first_divergence(&sa, &sb, max_cycles, stride),
        &format!("the two runs stayed state-identical for {max_cycles} cycles"),
    )
}

/// `--warm N` / `--roi`: [`FastEngine::warm`] to the target, print the
/// warm summary, and save the handoff snapshot when asked.
fn warm_forward(
    cfg: LbpConfig,
    image: &Image,
    target: Option<u64>,
    snap: Option<&str>,
    max_cycles: u64,
) -> Result<Machine, ExitCode> {
    let stop = match (target, image.symbol("__roi_start")) {
        (Some(retired), _) => FastStop::Retired(retired),
        (None, Some(pc)) => FastStop::Pc(pc),
        (None, None) => {
            eprintln!(
                "lbp-run: {} needs a `__roi_start` marker; add `__roi_start();` to \
                 the C source (or a `__roi_start:` label in assembly)",
                ROI.name
            );
            return Err(ExitClass::Usage.into());
        }
    };
    let started = std::time::Instant::now();
    let (machine, summary) = match FastEngine::warm(cfg, image, stop, max_cycles) {
        Ok(warmed) => warmed,
        Err(e) => {
            let phase = if matches!(e, WarmError::Run(_)) {
                "warm phase failed: "
            } else {
                ""
            };
            eprintln!("lbp-run: {phase}{}", e.sim());
            return Err(e.sim().exit_class().into());
        }
    };
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "lbp-run: warm phase retired {} instructions (virtual cycle {}) in {:.1}ms \
         ({:.1} Minstr/s)",
        summary.retired,
        summary.virtual_cycle,
        secs * 1e3,
        summary.retired as f64 / secs.max(1e-9) / 1e6
    );
    if summary.clamped > 0 {
        eprintln!(
            "lbp-run: warm target fell mid-rendezvous; clamped {} instructions forward \
             to the next rendezvous boundary",
            summary.clamped
        );
    }
    if summary.at_exit {
        eprintln!(
            "lbp-run: warm phase reached the exit boundary; the cycle-exact window only \
             retires the exit p_ret"
        );
    }
    if let Some(path) = snap {
        let state = machine.snapshot();
        match lbp::snap::save_with_engine(&state, lbp::snap::Engine::Functional, path) {
            Ok(()) => eprintln!(
                "lbp-run: handoff snapshot written to {path} (functional, cycle {})",
                state.cycle()
            ),
            Err(e) => eprintln!("lbp-run: cannot write handoff snapshot `{path}`: {e}"),
        }
    }
    Ok(machine)
}

/// `--bisect`: build a clean machine and one with the `--fault` plan,
/// then binary-search their runs (over snapshots) for the first cycle —
/// and the first traced event — where they diverge.
fn run_bisect_mode(
    clean: LbpConfig,
    faulted: LbpConfig,
    image: &Image,
    max_cycles: u64,
) -> ExitCode {
    let (clean, faulted) = match (Machine::new(clean, image), Machine::new(faulted, image)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lbp-run: {e}");
            return e.exit_class().into();
        }
    };
    let stride = (max_cycles / 100).clamp(16, 65_536);
    report_divergence(
        lbp::snap::first_divergence(&clean.snapshot(), &faulted.snapshot(), max_cycles, stride),
        &format!("the faulted run stayed state-identical to the clean run for {max_cycles} cycles"),
    )
}

/// `--resume-from FILE`: the machine the checkpoint holds.
fn resume(path: &str) -> Result<Machine, ExitCode> {
    let state = lbp::snap::load(path).map_err(|e| {
        eprintln!("lbp-run: cannot load checkpoint `{path}`: {e}");
        ExitCode::FAILURE
    })?;
    let machine = Machine::restore(&state).map_err(|e| {
        eprintln!("lbp-run: cannot restore `{path}`: {e}");
        ExitCode::FAILURE
    })?;
    eprintln!("lbp-run: resumed from {path} at cycle {}", state.cycle());
    Ok(machine)
}

/// The run modes: run `machine` to its exit and print the report.
fn run_to_exit(
    mut machine: Machine,
    input: &str,
    program: Option<&Compiled>,
    opts: &RunOptions,
) -> ExitCode {
    if opts.profile.is_some() {
        machine.enable_profiling();
    }
    if opts.race_witness {
        machine.enable_race_witness();
    }
    if let Some((path, format)) = &opts.trace {
        let out: Box<dyn std::io::Write> = match cli::open_out(path) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("lbp-run: cannot open trace `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let sink: Box<dyn TraceSink> = match format.as_str() {
            "jsonl" => Box::new(JsonlSink::new(out)),
            "chrome" => Box::new(ChromeSink::new(out)),
            _ => Box::new(TextSink::new(out)),
        };
        machine.set_sink(sink);
    }
    let run_result = if opts.wall_ms.is_some() || opts.checkpoint.is_some() {
        run_in_slices(&mut machine, opts)
    } else {
        machine.run_diagnosed(opts.max_cycles).map(Watched::Exited)
    };
    let report = match run_result {
        Ok(Watched::Exited(r)) => r,
        Ok(Watched::Cancelled) => {
            // The wall-clock watchdog cancelled the run at a cycle
            // boundary; the machine is still valid, so the partial run
            // can be dumped like any other diagnosed stop.
            let cycle = machine.stats().cycles;
            let msg = format!(
                "run cancelled: wall-clock budget of {}ms exceeded at cycle {cycle}",
                opts.wall_ms.unwrap_or(0)
            );
            eprintln!("lbp-run: {msg}");
            if let Some(path) = &opts.dump_on_error {
                write_dump(path, &machine.dump_with("cancelled", msg));
            }
            let _ = machine.finish_trace();
            return ExitClass::Cancelled.into();
        }
        Err(fail) => {
            let code = report_failure(&fail, opts.dump_on_error.as_deref());
            let _ = machine.finish_trace();
            return code;
        }
    };
    if let Err(e) = machine.finish_trace() {
        eprintln!("lbp-run: cannot write trace: {e}");
        return ExitCode::FAILURE;
    }
    if let Some((path, _)) = &opts.trace {
        if path != "-" {
            println!("trace:    streamed to {path}");
        }
    }

    println!("exited:   {}", report.exited);
    println!("cycles:   {}", report.stats.cycles);
    println!("retired:  {}", report.stats.retired());
    println!(
        "IPC:      {:.3} (peak {}.0)",
        report.stats.ipc(),
        machine.config().cores
    );
    println!("forks:    {}", report.stats.forks);
    println!("locality: {:.2}", report.stats.locality());
    let mut raced = false;
    if opts.race_witness {
        let witnesses = machine.race_witnesses();
        if witnesses.is_empty() {
            println!("races:    none observed");
        } else {
            for w in witnesses {
                println!("race:     {w}");
            }
            println!(
                "races:    {} concrete overlap{} observed",
                witnesses.len(),
                if witnesses.len() == 1 { "" } else { "s" }
            );
            raced = true;
        }
    }

    if let Some(path) = &opts.stats_json {
        let mut text = String::new();
        report.to_json().write_pretty(&mut text);
        text.push('\n');
        if let Err(e) = cli::write_out(path, &text) {
            eprintln!("lbp-run: cannot write stats JSON to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        if path != "-" {
            println!("stats:    {path}");
        }
    }

    if !opts.dumps.is_empty() && program.is_none() {
        eprintln!(
            "lbp-run: {} needs the program for its symbols; none was given",
            DUMP.name
        );
    }
    for (sym, n) in &opts.dumps {
        let Some(Compiled { image, .. }) = program else {
            break;
        };
        match image.symbol(sym) {
            None => eprintln!("lbp-run: no symbol `{sym}`"),
            Some(addr) => {
                print!("{sym}:");
                for i in 0..*n {
                    match machine.peek_shared(addr + 4 * i) {
                        Ok(v) => print!(" {}", v as i32),
                        Err(e) => {
                            print!(" <{e}>");
                            break;
                        }
                    }
                }
                println!();
            }
        }
    }

    if let Some(dir) = &opts.profile {
        let prof = machine.profile().expect("profiling was enabled");
        // Symbolize through the program when we have one; a resumed run
        // without a program falls back to raw pc names.
        let sym = match program {
            Some(Compiled { image, .. }) => lbp::prof::SymTab::from_image(image),
            None => lbp::prof::SymTab::empty(),
        };
        let report_json = lbp::prof::build_report(input, &report.stats, prof, &sym);
        let mut profile_text = String::new();
        report_json.write_pretty(&mut profile_text);
        profile_text.push('\n');
        let folded = lbp::prof::folded_stacks(prof, &sym);
        let timeline = lbp::prof::timeline_json(prof, report.stats.cycles);
        let write_all = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            let at = |name: &str| format!("{dir}/{name}");
            std::fs::write(at("profile.json"), &profile_text)?;
            std::fs::write(at("folded.txt"), &folded)?;
            std::fs::write(at("timeline.json"), &timeline)?;
            Ok(())
        };
        if let Err(e) = write_all() {
            eprintln!("lbp-run: cannot write profile to `{dir}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nhot spots by function:");
        print!("{}", lbp::prof::hotspot_table(&report_json, 15));
        println!("profile:  {dir}/profile.json (+ folded.txt, timeline.json)");
    }

    if raced {
        // Determinism violated at runtime: same class as a static
        // verification rejection.
        return ExitClass::Rejected.into();
    }
    ExitCode::SUCCESS
}

/// Reads the program at `input`.
fn read(input: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(input).map_err(|e| {
        eprintln!("lbp-run: cannot read `{input}`: {e}");
        ExitClass::Usage.into()
    })
}

/// Reads and builds the program at `input`.
fn load(input: &str) -> Result<Compiled, ExitCode> {
    lbp::cc::build(SourceKind::of(input), &read(input)?, &Default::default()).map_err(|e| {
        eprintln!("lbp-run: {e}");
        ExitCode::FAILURE
    })
}

fn run(mode: Mode, input: &str) -> Result<ExitCode, ExitCode> {
    Ok(match mode {
        Mode::SnapInfo(path) => run_snap_info(&path),
        Mode::BisectSnaps { a, b, max_cycles } => run_bisect_snaps(&a, &b, max_cycles),
        Mode::Verify { diag_json } => {
            lbp::verdict("lbp-run", input, &read(input)?, diag_json.as_deref()).into()
        }
        Mode::EmitAsm => {
            print!("{}", load(input)?.asm);
            ExitCode::SUCCESS
        }
        Mode::Disasm => {
            print!("{}", load(input)?.image.disassemble());
            ExitCode::SUCCESS
        }
        Mode::Bisect {
            clean,
            faulted,
            max_cycles,
        } => run_bisect_mode(clean, faulted, &load(input)?.image, max_cycles),
        Mode::Lockstep {
            cfg,
            max_cycles,
            sabotage,
            dump_on_error,
        } => run_lockstep_mode(
            cfg,
            &load(input)?.image,
            max_cycles,
            &sabotage,
            dump_on_error.as_deref(),
        ),
        Mode::Run(start, opts) => {
            let (machine, program) = match start {
                // The snapshot carries the whole machine; the program,
                // when given, feeds `--dump` and `--profile` symbols.
                Start::Resume(path) => {
                    let program = match input {
                        "" => None,
                        _ => Some(load(input)?),
                    };
                    (resume(&path)?, program)
                }
                Start::Cold(cfg) => {
                    let program = load(input)?;
                    let machine = Machine::new(cfg, &program.image).map_err(|e| {
                        eprintln!("lbp-run: {e}");
                        ExitCode::from(e.exit_class())
                    })?;
                    (machine, Some(program))
                }
                Start::Warm { cfg, target, snap } => {
                    let program = load(input)?;
                    let snap = snap.as_deref();
                    let machine = warm_forward(cfg, &program.image, target, snap, opts.max_cycles)?;
                    (machine, Some(program))
                }
            };
            run_to_exit(machine, input, program.as_ref(), &opts)
        }
    })
}

fn main() -> ExitCode {
    let args = GRAMMAR.parse_env();
    let mode = Mode::decide(&args).unwrap_or_else(|what| GRAMMAR.refuse(&what));
    let input = args.positional().first().map_or("", String::as_str);
    run(mode, input).unwrap_or_else(|code| code)
}
