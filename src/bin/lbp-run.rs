//! `lbp-run` — compile/assemble a program and execute it on the LBP
//! simulator.
//!
//! ```text
//! lbp-run program.c  --cores 4 --dump v:8
//! lbp-run program.s  --cores 16 --trace trace.jsonl --trace-format jsonl
//! lbp-run program.c  --stats-json - --interval 1000
//! lbp-run program.c  --emit-asm
//! ```
//!
//! `.c` inputs go through the Deterministic OpenMP translator
//! (`lbp-cc`); `.s`/`.asm` inputs go straight to the assembler. After
//! the run the tool prints the machine statistics and any requested
//! memory dumps. `--stats-json` additionally emits the full
//! machine-readable report (schema `lbp-stats-v1`), and `--trace`
//! streams the cycle trace to disk as it is produced, so tracing
//! multi-million-cycle runs needs O(1) memory.
//!
//! Robustness tooling:
//!
//! - `--fault SPEC` (repeatable) injects a deterministic fault
//!   (`flip-reg:HART:REG:BIT:CYCLE`, `flip-mem:ADDR:BIT:CYCLE`,
//!   `corrupt-instr:PC:XOR:CYCLE`, `drop-msg:NTH`, `delay-msg:NTH:CYCLES`);
//! - `--dump-on-error FILE` writes an `lbp-dump-v1` crash dump when the
//!   run fails;
//! - `--lockstep` checks the run against the functional engine: per-hart
//!   commit streams, then the exiting hart's registers and all of shared
//!   memory, forked programs included; `--sabotage PC:XOR` seeds a
//!   divergence in the reference;
//! - `--verify` statically checks the program instead of running it:
//!   `.c` inputs go through the source-level determinism lint and the
//!   binary fork-protocol verifier, `.s` inputs through the binary
//!   verifier alone. Diagnostics print to stdout; `--diag-json FILE`
//!   additionally writes the machine-readable `lbp-diag-v1` report.
//! - `--race-witness` arms the dynamic race-witness collector: every
//!   shared access is checked against other harts' footprints under the
//!   machine's delivery ordering, and any concrete overlap is reported
//!   (exit 10) — the dynamic cross-validation of `--verify`'s `M` codes;
//! - `--wall-ms MS` arms a wall-clock watchdog: a run still going after
//!   MS milliseconds of host time is cancelled *cooperatively* at a
//!   cycle boundary — the machine stays valid, `--dump-on-error` still
//!   writes a well-formed `lbp-dump-v1` report of the partial run — and
//!   the process exits 11;
//! - the exit code encodes the error class: 0 ok, 2 usage, 1 front-end or
//!   I/O failure, 4 timeout, 5 deadlock, 6 protocol violation, 7 decode
//!   fault, 8 memory fault, 9 lockstep divergence, 10 verification
//!   rejection, 11 wall-clock cancellation.

use std::io::Write as _;
use std::process::ExitCode;

use lbp::sim::{
    ChromeSink, ExitClass, Fault, FaultPlan, JsonlSink, LbpConfig, LockstepError, Machine,
    MachineDump, RunPause, RunReport, SimFailure, TextSink, TraceSink,
};

#[derive(Clone, Copy, PartialEq)]
enum TraceFormat {
    Text,
    Jsonl,
    Chrome,
}

struct Options {
    input: String,
    cores: usize,
    max_cycles: u64,
    trace: Option<String>,
    trace_format: TraceFormat,
    stats_json: Option<String>,
    interval: u64,
    dumps: Vec<(String, u32)>,
    emit_asm: bool,
    disasm: bool,
    profile: Option<String>,
    dump_on_error: Option<String>,
    faults: Vec<Fault>,
    lockstep: bool,
    verify: bool,
    race_witness: bool,
    diag_json: Option<String>,
    checkpoint_every: u64,
    checkpoint_prefix: String,
    resume_from: Option<String>,
    bisect: bool,
    wall_ms: Option<u64>,
    warm: Option<u64>,
    roi: bool,
    warm_snap: Option<String>,
    snap_info: Option<String>,
    bisect_snaps: Option<(String, String)>,
    sabotage: Vec<(u32, u32)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: lbp-run <program.c|program.s> [options]\n\
         \n\
         options:\n\
           --cores N          machine size in cores (default 4)\n\
           --max-cycles N     cycle budget (default 100000000)\n\
           --trace FILE       stream the cycle trace to FILE ('-' = stdout)\n\
           --trace-format F   trace format: text, jsonl or chrome (default text)\n\
           --stats-json FILE  write the run report as JSON to FILE ('-' = stdout)\n\
           --interval N       record an interval sample every N cycles\n\
           --dump SYM[:N]     print N words of memory at symbol SYM after the run\n\
           --emit-asm         print the generated assembly and exit\n\
           --disasm           print the assembled image's disassembly and exit\n\
           --profile DIR      profile the run: per-pc cycle attribution, traffic\n\
                              matrices and the fork-tree timeline. Writes\n\
                              DIR/profile.json (lbp-prof-v1), DIR/folded.txt\n\
                              (flamegraph folded stacks) and DIR/timeline.json\n\
                              (chrome://tracing), and prints the per-function\n\
                              hot-spot table\n\
           --fault SPEC       inject a deterministic fault (repeatable); specs:\n\
                              flip-reg:HART:REG:BIT:CYCLE  flip-mem:ADDR:BIT:CYCLE\n\
                              corrupt-instr:PC:XOR:CYCLE   drop-msg:NTH\n\
                              delay-msg:NTH:CYCLES\n\
           --dump-on-error F  write an lbp-dump-v1 crash dump to F if the run fails\n\
           --lockstep         check the run against the functional engine: per-hart\n\
                              commit streams, then final registers and shared\n\
                              memory; the first divergence is localized to the\n\
                              exact hart and commit and exits 9\n\
           --verify           statically verify the program instead of running it\n\
           --diag-json FILE   with --verify, write the lbp-diag-v1 report ('-' = stdout)\n\
           --race-witness     collect per-epoch shared-write footprints during the\n\
                              run and report concrete cross-hart overlaps; any\n\
                              witness exits 10\n\
           --checkpoint-every N  write an lbp-snap-v1 snapshot every N cycles\n\
           --checkpoint-prefix P checkpoint files are P<cycle>.lbpsnap (default ckpt-)\n\
           --resume-from FILE continue a run from a checkpoint (the snapshot's\n\
                              configuration wins; the program may be omitted)\n\
           --bisect           with --fault: binary-search the clean and faulted\n\
                              runs for the first divergent cycle and event\n\
           --wall-ms MS       cancel the run cooperatively after MS milliseconds\n\
                              of host time; exits 11 (0 cancels at first poll)\n\
           --warm N           fast-forward the first N retired instructions on the\n\
                              functional engine (clamped to the next rendezvous\n\
                              boundary), then hand off to the cycle-exact engine\n\
           --roi              like --warm, but fast-forward until the program's\n\
                              `__roi_start` marker (a label; `.c` inputs write it\n\
                              with `__roi_start();`)\n\
           --warm-snap FILE   with --warm/--roi, save the handoff snapshot to FILE\n\
                              (container records the functional engine)\n\
           --snap-info FILE   print a snapshot container's metadata (format\n\
                              version, producing engine, cycle, cores) and exit\n\
           --bisect-snaps A B bisect two same-cycle snapshots of diverging runs;\n\
                              refuses mixed container versions or engines\n\
           --sabotage PC:XOR  with --lockstep: XOR a code word in the functional\n\
                              copy only (repeatable; seeded-divergence validation\n\
                              of the localizer)\n\
         \n\
         exit codes: 0 ok, 2 usage, 1 front-end/I/O, 4 timeout, 5 deadlock,\n\
         6 protocol, 7 decode, 8 memory fault, 9 lockstep divergence,\n\
         10 verification rejection, 11 wall-clock cancellation"
    );
    ExitClass::Usage.exit()
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        input: String::new(),
        cores: 4,
        max_cycles: 100_000_000,
        trace: None,
        trace_format: TraceFormat::Text,
        stats_json: None,
        interval: 0,
        dumps: Vec::new(),
        emit_asm: false,
        disasm: false,
        profile: None,
        dump_on_error: None,
        faults: Vec::new(),
        lockstep: false,
        verify: false,
        race_witness: false,
        diag_json: None,
        checkpoint_every: 0,
        checkpoint_prefix: "ckpt-".to_owned(),
        resume_from: None,
        bisect: false,
        wall_ms: None,
        warm: None,
        roi: false,
        warm_snap: None,
        snap_info: None,
        bisect_snaps: None,
        sabotage: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cores" => {
                opts.cores = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-cycles" => {
                opts.max_cycles = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-format" => {
                opts.trace_format = match args.next().as_deref() {
                    Some("text") => TraceFormat::Text,
                    Some("jsonl") => TraceFormat::Jsonl,
                    Some("chrome") => TraceFormat::Chrome,
                    _ => usage(),
                };
            }
            "--stats-json" => opts.stats_json = Some(args.next().unwrap_or_else(|| usage())),
            "--interval" => {
                opts.interval = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--dump" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let (sym, n) = match spec.split_once(':') {
                    Some((s, n)) => (s.to_owned(), n.parse().unwrap_or_else(|_| usage())),
                    None => (spec, 1),
                };
                opts.dumps.push((sym, n));
            }
            "--emit-asm" => opts.emit_asm = true,
            "--disasm" => opts.disasm = true,
            "--profile" => opts.profile = Some(args.next().unwrap_or_else(|| usage())),
            "--fault" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match Fault::parse(&spec) {
                    Ok(fault) => opts.faults.push(fault),
                    Err(e) => {
                        eprintln!("lbp-run: bad fault spec `{spec}`: {e}");
                        ExitClass::Usage.exit();
                    }
                }
            }
            "--dump-on-error" => {
                opts.dump_on_error = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--lockstep" => opts.lockstep = true,
            "--verify" => opts.verify = true,
            "--race-witness" => opts.race_witness = true,
            "--diag-json" => opts.diag_json = Some(args.next().unwrap_or_else(|| usage())),
            "--checkpoint-every" => {
                opts.checkpoint_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--checkpoint-prefix" => {
                opts.checkpoint_prefix = args.next().unwrap_or_else(|| usage());
            }
            "--resume-from" => opts.resume_from = Some(args.next().unwrap_or_else(|| usage())),
            "--bisect" => opts.bisect = true,
            "--wall-ms" => {
                opts.wall_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--warm" => {
                opts.warm = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--roi" => opts.roi = true,
            "--warm-snap" => opts.warm_snap = Some(args.next().unwrap_or_else(|| usage())),
            "--snap-info" => opts.snap_info = Some(args.next().unwrap_or_else(|| usage())),
            "--bisect-snaps" => {
                let a = args.next().unwrap_or_else(|| usage());
                let b = args.next().unwrap_or_else(|| usage());
                opts.bisect_snaps = Some((a, b));
            }
            "--sabotage" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let parse_u32 = |s: &str| -> Option<u32> {
                    s.strip_prefix("0x")
                        .map(|h| u32::from_str_radix(h, 16).ok())
                        .unwrap_or_else(|| s.parse().ok())
                };
                match spec
                    .split_once(':')
                    .and_then(|(pc, xor)| Some((parse_u32(pc)?, parse_u32(xor)?)))
                {
                    Some(pair) => opts.sabotage.push(pair),
                    None => {
                        eprintln!("lbp-run: bad --sabotage spec `{spec}` (want PC:XOR)");
                        ExitClass::Usage.exit();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other if opts.input.is_empty() && !other.starts_with('-') => {
                opts.input = other.to_owned();
            }
            _ => usage(),
        }
    }
    // --snap-info and --bisect-snaps operate on containers alone.
    if opts.snap_info.is_some() || opts.bisect_snaps.is_some() {
        return opts;
    }
    if opts.input.is_empty() && opts.resume_from.is_none() {
        usage();
    }
    // Every mode that compiles or statically inspects the program needs
    // one; only a plain resumed run can do without.
    if opts.input.is_empty()
        && (opts.verify
            || opts.lockstep
            || opts.bisect
            || opts.emit_asm
            || opts.disasm
            || opts.warm.is_some()
            || opts.roi)
    {
        usage();
    }
    if opts.bisect && opts.faults.is_empty() {
        eprintln!("lbp-run: --bisect needs at least one --fault to diverge from the clean run");
        ExitClass::Usage.exit();
    }
    if opts.warm.is_some() && opts.roi {
        eprintln!("lbp-run: --warm and --roi both set the fast-forward target; pick one");
        ExitClass::Usage.exit();
    }
    if opts.warm.is_some() || opts.roi {
        // These modes are defined against cycle-exact execution from
        // reset; a functional warm phase has no timing (or, for
        // --resume-from, no warm phase at all).
        let flag = if opts.roi { "--roi" } else { "--warm" };
        let conflicts: [(&str, bool); 5] = [
            ("--lockstep", opts.lockstep),
            ("--verify", opts.verify),
            ("--race-witness", opts.race_witness),
            ("--bisect", opts.bisect),
            ("--resume-from", opts.resume_from.is_some()),
        ];
        for (name, on) in conflicts {
            if on {
                eprintln!(
                    "lbp-run: {flag} cannot combine with {name}: the warm phase runs \
                     functionally, outside what {name} checks; run the whole program \
                     cycle-exact instead"
                );
                ExitClass::Usage.exit();
            }
        }
    }
    if opts.warm_snap.is_some() && opts.warm.is_none() && !opts.roi {
        eprintln!("lbp-run: --warm-snap needs --warm or --roi to produce the handoff snapshot");
        ExitClass::Usage.exit();
    }
    if !opts.sabotage.is_empty() && !opts.lockstep {
        eprintln!("lbp-run: --sabotage only makes sense with --lockstep");
        ExitClass::Usage.exit();
    }
    if opts.diag_json.is_some() && !opts.verify {
        eprintln!("lbp-run: --diag-json writes the report of --verify; a run has none");
        ExitClass::Usage.exit();
    }
    if opts.cores == 0 || opts.cores > 4096 {
        eprintln!("lbp-run: --cores must be between 1 and 4096");
        ExitClass::Usage.exit();
    }
    opts
}

/// Opens `path` for streaming output; `-` means stdout.
fn open_out(path: &str) -> std::io::Result<Box<dyn std::io::Write>> {
    if path == "-" {
        Ok(Box::new(std::io::stdout()))
    } else {
        let file = std::fs::File::create(path)?;
        Ok(Box::new(std::io::BufWriter::new(file)))
    }
}

/// Writes the `lbp-dump-v1` crash dump as pretty JSON (`-` = stdout).
fn write_dump(path: &str, dump: &MachineDump) {
    let mut text = String::new();
    dump.to_json().write_pretty(&mut text);
    text.push('\n');
    let result = open_out(path).and_then(|mut out| {
        out.write_all(text.as_bytes())?;
        out.flush()
    });
    match result {
        Ok(()) => {
            if path != "-" {
                eprintln!("lbp-run: crash dump written to {path}");
            }
        }
        Err(e) => eprintln!("lbp-run: cannot write crash dump to `{path}`: {e}"),
    }
}

/// `--lockstep`: run the machine and verify it
/// against the functional engine, hart by hart and commit by commit.
fn run_lockstep_mode(cfg: LbpConfig, image: &lbp::asm::Image, opts: &Options) -> ExitCode {
    match lbp::sim::run_lockstep(cfg, image, opts.max_cycles, &opts.sabotage) {
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
        Err(LockstepError::Machine(fail)) => {
            eprintln!("lbp-run: {}", fail.error);
            if let Some(path) = &opts.dump_on_error {
                write_dump(path, &fail.dump);
            }
            fail.error.exit_class().into()
        }
        Err(e) => {
            // An oracle fault or an architectural divergence.
            eprintln!("lbp-run: {e}");
            ExitClass::Divergence.into()
        }
    }
}

/// `--verify`: statically verify the program and report the verdict
/// instead of running it. Exit code 10 on rejection.
fn run_verify_mode(opts: &Options, source: &str) -> ExitCode {
    let mut diags = Vec::new();
    if opts.input.ends_with(".c") {
        match lbp::cc::lint(source) {
            Ok(d) => diags.extend(d),
            Err(e) => {
                eprintln!("lbp-run: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Only a source-accepted program compiles to an image worth
        // checking at the binary layer.
        if lbp::verify::accepted(&diags) {
            match lbp::cc::compile(source) {
                Ok(c) => diags.extend(lbp::verify::verify_image(&c.image)),
                Err(e) => {
                    eprintln!("lbp-run: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        match lbp::asm::assemble(source) {
            Ok(image) => diags.extend(lbp::verify::verify_image(&image)),
            Err(e) => {
                eprintln!("lbp-run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // `--diag-json -` owns stdout: the JSON must stay parseable, so the
    // human-readable rendering is suppressed.
    let json_to_stdout = opts.diag_json.as_deref() == Some("-");
    let ok = lbp::verify::accepted(&diags);
    if !json_to_stdout {
        for d in &diags {
            println!("{d}");
        }
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for d in &diags {
            *counts.entry(d.code.as_str()).or_insert(0) += 1;
        }
        let breakdown = if counts.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = counts.iter().map(|(c, n)| format!("{c} x{n}")).collect();
            format!(": {}", parts.join(", "))
        };
        println!(
            "verify:   {} ({} diagnostic{}{breakdown})",
            if ok { "accepted" } else { "rejected" },
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
    }
    if let Some(path) = &opts.diag_json {
        let text = lbp::verify::report_json(&opts.input, &diags);
        let result = open_out(path).and_then(|mut out| {
            out.write_all(text.as_bytes())?;
            out.flush()
        });
        if let Err(e) = result {
            eprintln!("lbp-run: cannot write diag JSON to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        if path != "-" {
            println!("diags:    {path}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitClass::Rejected.into()
    }
}

/// Writes the paused machine's state to `<prefix><cycle>.lbpsnap`.
fn save_checkpoint(machine: &Machine, opts: &Options) {
    let state = machine.snapshot();
    let path = format!("{}{}.lbpsnap", opts.checkpoint_prefix, state.cycle());
    match lbp::snap::save(&state, &path) {
        Ok(()) => eprintln!("lbp-run: checkpoint written to {path}"),
        Err(e) => eprintln!("lbp-run: cannot write checkpoint `{path}`: {e}"),
    }
}

/// `--checkpoint-every N` and `--wall-ms MS`, alone or together: run in
/// slices, stopping on exact cycle boundaries, so neither changes the run
/// — the final report equals an unsliced run's.
///
/// With `--checkpoint-every` a slice is N cycles and an `lbp-snap-v1`
/// snapshot is written at every boundary the run reaches without
/// exiting, the cycle budget's included. With `--wall-ms` the host clock
/// is polled at each boundary and a run past its budget is cancelled
/// *gracefully* (`None`): the machine stays valid, so a partial
/// `lbp-dump-v1` report can still be taken, and the caller exits 11.
fn run_in_slices(
    machine: &mut Machine,
    opts: &Options,
) -> Result<Option<RunReport>, Box<SimFailure>> {
    let deadline = opts
        .wall_ms
        .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
    let checkpointing = opts.checkpoint_every > 0;
    let slice = if checkpointing {
        opts.checkpoint_every
    } else {
        10_000
    };
    let start = machine.stats().cycles;
    let pause = machine.run_cooperative(opts.max_cycles, slice, |m| {
        if checkpointing {
            save_checkpoint(m, opts);
        }
        deadline.is_none_or(|d| std::time::Instant::now() < d)
    })?;
    match pause {
        RunPause::Exited => Ok(Some(machine.report())),
        RunPause::Target => {
            if checkpointing && machine.stats().cycles > start {
                save_checkpoint(machine, opts);
            }
            // Out of cycle budget: let run_diagnosed raise the timeout
            // with its crash dump attached, as the plain run path would.
            machine.run_diagnosed(opts.max_cycles).map(Some)
        }
        RunPause::Cancelled => Ok(None),
    }
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
    match lbp::snap::first_divergence(&sa, &sb, max_cycles, stride) {
        Ok(Some(d)) => {
            println!("{d}");
            ExitCode::SUCCESS
        }
        Ok(None) => {
            println!("no divergence: the two runs stayed state-identical for {max_cycles} cycles");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbp-run: bisection failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--warm N` / `--roi`: fast-forward on the functional engine, print
/// the warm summary, and materialize the cycle-exact machine at the
/// handoff boundary.
fn warm_forward(
    cfg: LbpConfig,
    image: &lbp::asm::Image,
    opts: &Options,
) -> Result<Machine, ExitCode> {
    use lbp::sim::{FastEngine, FastStop};
    let stop = if opts.roi {
        match image.symbol("__roi_start") {
            Some(pc) => FastStop::Pc(pc),
            None => {
                eprintln!(
                    "lbp-run: --roi needs a `__roi_start` marker; add `__roi_start();` to \
                     the C source (or a `__roi_start:` label in assembly)"
                );
                return Err(ExitClass::Usage.into());
            }
        }
    } else {
        FastStop::Retired(opts.warm.unwrap_or(0))
    };
    let mut fast = match FastEngine::new(cfg, image) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lbp-run: {e}");
            return Err(e.exit_class().into());
        }
    };
    let started = std::time::Instant::now();
    let summary = match fast.run(stop, opts.max_cycles) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lbp-run: warm phase failed: {e}");
            return Err(e.exit_class().into());
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
    let machine = match fast.materialize(image) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("lbp-run: {e}");
            return Err(e.exit_class().into());
        }
    };
    if let Some(path) = &opts.warm_snap {
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
fn run_bisect_mode(opts: &Options, image: &lbp::asm::Image) -> ExitCode {
    let mut base = LbpConfig::cores(opts.cores);
    if opts.interval > 0 {
        base = base.with_interval(opts.interval);
    }
    let faulted_cfg = base
        .clone()
        .with_faults(opts.faults.iter().copied().collect::<FaultPlan>());
    let (clean, faulted) = match (Machine::new(base, image), Machine::new(faulted_cfg, image)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lbp-run: {e}");
            return e.exit_class().into();
        }
    };
    let stride = (opts.max_cycles / 100).clamp(16, 65_536);
    match lbp::snap::first_divergence(
        &clean.snapshot(),
        &faulted.snapshot(),
        opts.max_cycles,
        stride,
    ) {
        Ok(Some(d)) => {
            println!("{d}");
            ExitCode::SUCCESS
        }
        Ok(None) => {
            println!(
                "no divergence: the faulted run stayed state-identical to the clean run \
                 for {} cycles",
                opts.max_cycles
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbp-run: bisection failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    if let Some(path) = &opts.snap_info {
        return run_snap_info(path);
    }
    if let Some((a, b)) = &opts.bisect_snaps {
        return run_bisect_snaps(a, b, opts.max_cycles);
    }
    // With --resume-from the program is optional — the snapshot carries
    // the whole machine. When given anyway, it still feeds --dump and
    // --profile symbol lookups.
    let front = if opts.input.is_empty() {
        None
    } else {
        let source = match std::fs::read_to_string(&opts.input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lbp-run: cannot read `{}`: {e}", opts.input);
                return ExitClass::Usage.into();
            }
        };
        if opts.verify {
            return run_verify_mode(&opts, &source);
        }
        // Front end by extension.
        if opts.input.ends_with(".c") {
            match lbp::cc::compile(&source) {
                Ok(c) => Some((c.asm, c.image)),
                Err(e) => {
                    eprintln!("lbp-run: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            match lbp::asm::assemble(&source) {
                Ok(img) => Some((source, img)),
                Err(e) => {
                    eprintln!("lbp-run: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    if opts.emit_asm {
        print!("{}", front.expect("checked by parse_args").0);
        return ExitCode::SUCCESS;
    }
    if opts.disasm {
        print!("{}", front.expect("checked by parse_args").1.disassemble());
        return ExitCode::SUCCESS;
    }

    let mut cfg = LbpConfig::cores(opts.cores);
    if opts.interval > 0 {
        cfg = cfg.with_interval(opts.interval);
    }
    if !opts.faults.is_empty() {
        cfg = cfg.with_faults(opts.faults.iter().copied().collect::<FaultPlan>());
    }
    if opts.bisect {
        let image = &front.as_ref().expect("checked by parse_args").1;
        return run_bisect_mode(&opts, image);
    }
    if opts.lockstep {
        let image = &front.as_ref().expect("checked by parse_args").1;
        return run_lockstep_mode(cfg, image, &opts);
    }
    let mut machine = if opts.warm.is_some() || opts.roi {
        let image = &front.as_ref().expect("checked by parse_args").1;
        match warm_forward(cfg, image, &opts) {
            Ok(m) => m,
            Err(code) => return code,
        }
    } else {
        match &opts.resume_from {
            Some(path) => {
                let state = match lbp::snap::load(path) {
                    Ok(state) => state,
                    Err(e) => {
                        eprintln!("lbp-run: cannot load checkpoint `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match Machine::restore(&state) {
                    Ok(m) => {
                        eprintln!("lbp-run: resumed from {path} at cycle {}", state.cycle());
                        m
                    }
                    Err(e) => {
                        eprintln!("lbp-run: cannot restore `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => {
                let image = &front
                    .as_ref()
                    .expect("a program or --resume-from is required")
                    .1;
                match Machine::new(cfg, image) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("lbp-run: {e}");
                        return e.exit_class().into();
                    }
                }
            }
        }
    };
    if opts.profile.is_some() {
        machine.enable_profiling();
    }
    if opts.race_witness {
        machine.enable_race_witness();
    }
    if let Some(path) = &opts.trace {
        let out = match open_out(path) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("lbp-run: cannot open trace `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let sink: Box<dyn TraceSink> = match opts.trace_format {
            TraceFormat::Text => Box::new(TextSink::new(out)),
            TraceFormat::Jsonl => Box::new(JsonlSink::new(out)),
            TraceFormat::Chrome => Box::new(ChromeSink::new(out)),
        };
        machine.set_sink(sink);
    }
    let run_result = if opts.wall_ms.is_some() || opts.checkpoint_every > 0 {
        run_in_slices(&mut machine, &opts)
    } else {
        machine.run_diagnosed(opts.max_cycles).map(Some)
    };
    let report = match run_result {
        Ok(Some(r)) => r,
        Ok(None) => {
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
            eprintln!("lbp-run: {}", fail.error);
            if let Some(path) = &opts.dump_on_error {
                write_dump(path, &fail.dump);
            }
            let _ = machine.finish_trace();
            return fail.error.exit_class().into();
        }
    };
    if let Err(e) = machine.finish_trace() {
        eprintln!("lbp-run: cannot write trace: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &opts.trace {
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
        let write_result = open_out(path).and_then(|mut out| {
            out.write_all(text.as_bytes())?;
            out.flush()
        });
        if let Err(e) = write_result {
            eprintln!("lbp-run: cannot write stats JSON to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        if path != "-" {
            println!("stats:    {path}");
        }
    }

    if !opts.dumps.is_empty() && front.is_none() {
        eprintln!("lbp-run: --dump needs the program for its symbols; none was given");
    }
    for (sym, n) in &opts.dumps {
        let Some((_, image)) = &front else { break };
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
        let sym = match &front {
            Some((_, image)) => lbp::prof::SymTab::from_image(image),
            None => lbp::prof::SymTab::empty(),
        };
        let report_json = lbp::prof::build_report(&opts.input, &report.stats, prof, &sym);
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
