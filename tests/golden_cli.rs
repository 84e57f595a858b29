//! One table pins every byte `lbp-run` and `lbp-cc` write.
//!
//! LBP is cycle-deterministic, so what either tool writes is a function
//! of its argv and its inputs alone. A row of [`ROWS`] runs one tool once
//! per input, the input path first and then the row's argv, with the
//! repository root as its working directory. Per input it folds the exit
//! code, stdout, stderr and every file the run wrote into FNV-1a
//! (`lbp_sim::fnv1a64`). A row pins how many inputs it ran and that hash,
//! or names another row it must equal on some of those parts: that is how
//! "observers change nothing", "resumed equals uninterrupted" and
//! "`lbp-run --verify` equals `lbp-cc --lint`" are written.
//!
//! In an argv, `{out}` is the row's output directory, whose files are
//! hashed by name, and `{tmp}` a directory whose files are not. Those two
//! paths and the scratch root the identity corpus is written under are
//! replaced by fixed tokens in everything hashed. On a mismatch the test
//! prints every differing row with the value it now produces. There is no
//! bless mode: a change that moves a row edits the row and declares it.

// The table folds runs, not sources: the corpus's own `hash` is unused.
#[allow(dead_code)]
mod identity_corpus;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use identity_corpus::Programs;
use lbp::sim::fnv1a64;
use lbp_fuzz::gen::Kind;
use lbp_testutil::harness;

#[derive(Clone, Copy)]
enum Tool {
    Run,
    Cc,
}

impl Tool {
    fn command(self) -> Command {
        let mut cmd = Command::new(match self {
            Tool::Run => env!("CARGO_BIN_EXE_lbp-run"),
            Tool::Cc => env!("CARGO_BIN_EXE_lbp-cc"),
        });
        cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
        cmd
    }
}

/// What a row runs its tool over, one run per input.
#[derive(Clone, Copy)]
enum Inputs {
    /// One run with no program: the argv names what it reads.
    None,
    /// Repository paths; `dir/*.ext` is every `.ext` file of `dir`.
    Paths(&'static str),
    /// Programs of `tests/identity_corpus`, written to scratch.
    Corpus(fn() -> Programs),
}

/// The parts of a run a same-as comparison folds. A pinned row folds all.
#[derive(Clone, Copy, Debug)]
enum Parts {
    /// The input's name, exit code, stdout, stderr and files.
    All,
    /// Exit code, stdout and files: stderr also says what else the run
    /// did (`checkpoint written to …`, `resumed from …`).
    NoStderr,
    /// The files alone: an observer prints its own report, and the race
    /// witness exits 10 on what it finds.
    Files,
}

#[derive(Clone, Copy)]
enum Want {
    /// How many inputs ran, and the hash of all their parts.
    Pinned(usize, u64),
    /// The named row's count, and its hash of these parts.
    Same(&'static str, Parts),
}

use Parts::*;
use Want::*;

#[derive(Clone, Copy)]
struct Row {
    name: &'static str,
    tool: Tool,
    inputs: Inputs,
    /// The argv after the input, in whitespace-separated pieces.
    args: &'static [&'static str],
    /// `lbp-run` command lines run before each input, in the same
    /// directories. Only a failure of theirs shows: it panics.
    setup: &'static [&'static str],
    want: Want,
}

const fn run(name: &'static str, inputs: Inputs, args: &'static [&'static str], want: Want) -> Row {
    Row {
        name,
        tool: Tool::Run,
        inputs,
        args,
        setup: &[],
        want,
    }
}

const fn cc(name: &'static str, inputs: Inputs, args: &'static [&'static str], want: Want) -> Row {
    Row {
        tool: Tool::Cc,
        ..run(name, inputs, args, want)
    }
}

impl Row {
    const fn after(self, setup: &'static [&'static str]) -> Row {
        Row { setup, ..self }
    }
}

const EXAMPLES: Inputs = Inputs::Paths("examples/asm/*.s examples/c/*.c");
const ASM_EXAMPLES: Inputs = Inputs::Paths("examples/asm/*.s");
const C_EXAMPLES: Inputs = Inputs::Paths("examples/c/*.c");
const ASM_FIXTURES: Inputs = Inputs::Paths("crates/lbp-verify/tests/fixtures/*.s");
const C_FIXTURES: Inputs = Inputs::Paths("crates/lbp-verify/tests/fixtures/*.c");
const MUL: Inputs = Inputs::Paths("examples/asm/mul.s");
const FORK2: Inputs = Inputs::Paths("examples/asm/fork2.s");
const HUNG: Inputs = Inputs::Paths("examples/asm/hung.s");
const MATMUL: Inputs = Inputs::Paths("examples/c/matmul.c");
const TRACED: Inputs = Inputs::Paths("examples/c/matmul.c examples/asm/fork2.s");
const ASM_1_CORE: Inputs =
    Inputs::Paths("examples/asm/fork2.s examples/asm/hung.s examples/asm/mul.s");
/// A protocol violation, a deadlock and the race only the witness sees.
const ONE_CORE: Inputs = Inputs::Paths(
    "examples/asm/fork2.s examples/asm/hung.s crates/lbp-verify/tests/fixtures/race_dynamic_only.s",
);
const DYNAMIC_ONLY: Inputs = Inputs::Paths("crates/lbp-verify/tests/fixtures/race_dynamic_only.s");
const BANK_ALIAS: Inputs = Inputs::Paths("crates/lbp-verify/tests/fixtures/m_bank_alias.s");
const LOCKSTEPPED: Inputs = Inputs::Paths(
    "examples/asm/mul.s examples/asm/fork2.s examples/c/matmul.c examples/c/reduce.c",
);
const WITNESS: Inputs = Inputs::Paths("tests/fixtures/sabotage_witness.c");
const MATMUL_KERNELS: Inputs = Inputs::Corpus(identity_corpus::matmul_kernels);
const GEN_C: Inputs = Inputs::Corpus(|| identity_corpus::generated(Kind::C));
const GEN_C_200: Inputs = Inputs::Corpus(|| identity_corpus::generated_n(Kind::C, 200));
const GEN_SEQ: Inputs = Inputs::Corpus(|| identity_corpus::generated(Kind::Seq));
const GEN_MEM: Inputs = Inputs::Corpus(|| identity_corpus::generated(Kind::Mem));
const GEN_FORK: Inputs = Inputs::Corpus(|| identity_corpus::generated(Kind::Fork));
const ROI: Inputs = Inputs::Paths("tests/identity_corpus/roi.c");

const STATS: &str = "--stats-json {out}/stats.json";
const DUMP: &str = "--dump-on-error {out}/dump.json";
const VERIFY: &str = "--verify --diag-json {out}/diag.json";
const LINT: &str = "--lint --diag-json {out}/diag.json";
const SAMPLED: &str = "--interval 500 --checkpoint-every 4000 --checkpoint-prefix {out}/ck-";
const SAMPLED_1_CORE: &str = "--cores 1 --checkpoint-every 20 --checkpoint-prefix {out}/ck-";
const OBSERVED: &str = "--profile {tmp}/prof --race-witness";
/// The runs `--resume-from`, `--snap-info` and `--bisect-snaps` read.
const CHECKPOINT_MUL: &str =
    "examples/asm/mul.s --cores 1 --checkpoint-every 10 --checkpoint-prefix {tmp}/ck-";
/// Checkpoints before race_dynamic_only.s forks its team (10) and inside
/// the team (80).
const CHECKPOINT_DYNAMIC_ONLY: &str = "crates/lbp-verify/tests/fixtures/race_dynamic_only.s \
     --cores 1 --checkpoint-every 10 --checkpoint-prefix {tmp}/ck-";
const BAD_CHECKPOINT_MUL: &str = "examples/asm/mul.s --cores 1 --fault flip-reg:0:a2:4:14 \
     --checkpoint-every 10 --checkpoint-prefix {tmp}/bad-";

/// Every mode of both tools over `examples/`, the verifier fixtures,
/// `tests/fixtures` and the identity corpus.
#[rustfmt::skip]
const ROWS: [Row; 82] = [
    // lbp-run: run, on the default four cores and on fewer and more.
    run("run", EXAMPLES, &[STATS], Pinned(7, 0xc3ea_fbf9_9c31_bde7)),
    run("run-1-core", ASM_1_CORE, &["--cores 1", STATS], Pinned(3, 0xd6fd_fea0_b22a_599c)),
    run("run-32-cores", TRACED, &["--cores 32 --interval 500", STATS],
        Pinned(2, 0x6f40_91be_fc8e_ca7c)),
    run("run-stats-stdout", MUL, &["--stats-json -"], Pinned(1, 0x60d6_9d9a_1719_6b3a)),
    run("run-dump", MATMUL, &["--dump Z:16"], Pinned(1, 0xbb23_0043_5410_2075)),
    // Observers change nothing: with the sampler on, the stats report,
    // every checkpoint and any crash dump are the same bytes when the
    // profiler, the race witness and a trace sink watch too.
    run("sampled", EXAMPLES, &[SAMPLED, STATS, DUMP], Pinned(7, 0x1acb_f436_1f38_68b6)),
    run("sampled-observed", EXAMPLES,
        &[SAMPLED, STATS, DUMP, OBSERVED, "--trace {tmp}/trace --trace-format jsonl"],
        Same("sampled", Files)),
    run("sampled-1-core", ONE_CORE, &[SAMPLED_1_CORE, STATS, DUMP],
        Pinned(3, 0xe841_c022_b559_cd67)),
    run("sampled-1-core-observed", ONE_CORE, &[SAMPLED_1_CORE, STATS, DUMP, OBSERVED],
        Same("sampled-1-core", Files)),
    // What the observers write.
    run("profile", EXAMPLES, &["--profile {out}/prof"], Pinned(7, 0xfa60_01c3_3205_f713)),
    run("profile-16-cores", FORK2, &["--cores 16 --profile {out}/prof"],
        Pinned(1, 0xd9a9_a01b_50f5_fe92)),
    run("trace-text", TRACED, &["--trace {out}/trace --trace-format text"],
        Pinned(2, 0x27fd_4850_d6f1_50df)),
    run("trace-jsonl", TRACED, &["--trace {out}/trace --trace-format jsonl"],
        Pinned(2, 0x4472_5cc0_1ddd_e024)),
    run("trace-chrome", TRACED, &["--trace {out}/trace --trace-format chrome"],
        Pinned(2, 0xdb0a_f35e_6a60_733b)),
    run("trace-stdout", MUL, &["--cores 1 --trace - --trace-format jsonl"],
        Pinned(1, 0x2af7_fac2_7900_d398)),
    run("race-witness", EXAMPLES, &["--race-witness"], Pinned(7, 0x4d8e_13b1_c32e_55a2)),
    run("race-witness-dynamic-only", DYNAMIC_ONLY, &["--cores 1 --race-witness"],
        Pinned(1, 0xa5d1_d735_a2a5_8dcc)),
    // lbp-run --verify, and lbp-cc --lint as the same function.
    run("verify-asm-examples", ASM_EXAMPLES, &[VERIFY], Pinned(3, 0xeef2_3433_16cf_5e39)),
    run("verify-c-examples", C_EXAMPLES, &[VERIFY], Pinned(4, 0xbffb_0adb_0feb_913a)),
    run("verify-asm-fixtures", ASM_FIXTURES, &[VERIFY], Pinned(14, 0xc511_35e8_72b3_0931)),
    run("verify-c-fixtures", C_FIXTURES, &[VERIFY], Pinned(6, 0x490f_73ef_0f5f_4876)),
    run("verify-matmul-kernels", MATMUL_KERNELS, &[VERIFY], Pinned(10, 0x009b_e40a_c8b2_ec55)),
    run("verify-generated-c", GEN_C, &[VERIFY], Pinned(100, 0x4a35_ac54_98dd_f0cc)),
    run("verify-generated-seq", GEN_SEQ, &[VERIFY], Pinned(100, 0x33d1_9e7d_f9ea_09f9)),
    run("verify-generated-mem", GEN_MEM, &[VERIFY], Pinned(100, 0xae10_34ef_87d8_8494)),
    run("verify-generated-fork", GEN_FORK, &[VERIFY], Pinned(100, 0xb557_86e1_f49e_83a1)),
    run("verify-diag-stdout", BANK_ALIAS, &["--verify --diag-json -"],
        Pinned(1, 0x4b35_6946_a914_82eb)),
    cc("lint-c-examples", C_EXAMPLES, &[LINT], Same("verify-c-examples", All)),
    cc("lint-c-fixtures", C_FIXTURES, &[LINT], Same("verify-c-fixtures", All)),
    cc("lint-generated-c", GEN_C, &[LINT], Same("verify-generated-c", All)),
    cc("lint-plain", MATMUL, &["--lint"], Pinned(1, 0xe556_ae1a_b25a_0fcc)),
    // Listings: lbp-run --emit-asm prints what lbp-cc -o writes.
    run("emit-asm", C_EXAMPLES, &["--emit-asm"], Pinned(4, 0x798c_f779_42d1_1b1e)),
    cc("compile-stdout", C_EXAMPLES, &["-o -"], Same("emit-asm", All)),
    cc("compile", C_EXAMPLES, &["-o {out}/prog.s"], Pinned(4, 0xf7cd_acc7_10cd_c9dd)),
    cc("compile-c-fixtures", C_FIXTURES, &["-o {out}/prog.s"], Pinned(6, 0x6a28_c16f_661f_5c14)),
    cc("compile-generated-c", GEN_C_200, &["-o {out}/prog.s"],
        Pinned(200, 0x75ec_2d9e_1634_b8fd)),
    cc("compile-witness", WITNESS, &["-o -"], Pinned(1, 0xfec8_ea06_f82e_1b39)),
    cc("no-such-file", Inputs::None, &["examples/c/missing.c"], Pinned(1, 0xfcf9_75aa_939f_1384)),
    run("disasm", EXAMPLES, &["--disasm"], Pinned(7, 0xd80a_3c70_6a73_3526)),
    // Lockstep, clean and sabotaged.
    run("lockstep", LOCKSTEPPED, &["--lockstep"], Pinned(4, 0x03d2_ea02_4a9c_2a04)),
    run("lockstep-sabotage", MATMUL, &["--lockstep --sabotage 68:1024"],
        Pinned(1, 0x5b47_1d43_0e3c_bb38)),
    run("lockstep-sabotage-not-a-code-word", MUL, &["--lockstep --sabotage 4000:1"],
        Pinned(1, 0x1d1e_3dc7_fa6f_3017)),
    // The fault matrix, each case with a crash dump on error.
    run("fault-none-hung", HUNG, &[DUMP], Pinned(1, 0x8384_1887_55a1_f22e)),
    run("fault-lockstep-flip-reg", MUL, &["--lockstep --fault flip-reg:0:a2:4:14", DUMP],
        Pinned(1, 0xb1e4_e1b1_3ffa_65fe)),
    run("fault-corrupt-instr", MUL, &["--fault corrupt-instr:0x8:0xffffffff:1", DUMP],
        Pinned(1, 0xbb8c_c699_80b7_c06d)),
    run("fault-drop-msg", FORK2, &["--cores 2 --fault drop-msg:0", DUMP],
        Pinned(1, 0x82fb_add1_465a_7b3c)),
    run("fault-delay-msg", FORK2, &["--cores 2 --fault delay-msg:0:37", DUMP],
        Pinned(1, 0x0f24_1317_2e56_cab8)),
    run("fault-none-lockstep-mul", MUL, &["--lockstep", DUMP], Pinned(1, 0x5fa1_f4e7_5d78_04df)),
    run("fault-none-lockstep-fork2", FORK2, &["--lockstep", DUMP],
        Pinned(1, 0xc7b3_cdb3_3ec1_1e0b)),
    run("fault-none-lockstep-matmul", MATMUL, &["--lockstep", DUMP],
        Pinned(1, 0xcd17_d6a8_9195_1280)),
    run("fault-lockstep-flip-mem", FORK2,
        &["--cores 2 --lockstep --fault flip-mem:0x80000000:0:5", DUMP],
        Pinned(1, 0x082a_f4ef_7977_5653)),
    run("fault-not-a-fault", MUL, &["--fault not-a-fault:1", DUMP],
        Pinned(1, 0x91e0_fbfd_f3a8_936e)),
    // Checkpoint, resume and bisect: checkpointing and resuming print
    // what the uninterrupted run prints.
    run("mul-1-core", MUL, &["--cores 1", STATS], Pinned(1, 0xe212_7e75_5388_f9f2)),
    run("mul-checkpointed", MUL,
        &["--cores 1", STATS, "--checkpoint-every 10 --checkpoint-prefix {tmp}/ck-"],
        Same("mul-1-core", NoStderr)),
    run("mul-resumed", Inputs::None, &["--resume-from {tmp}/ck-10.lbpsnap", STATS],
        Same("mul-1-core", NoStderr)).after(&[CHECKPOINT_MUL]),
    // The race witness judges a team over its whole fork-join interval: a
    // resume inside one is refused, a resume before it sees the race.
    run("race-witness-resumed-before-the-fork", Inputs::None,
        &["--resume-from {tmp}/ck-10.lbpsnap --race-witness"],
        Same("race-witness-dynamic-only", NoStderr)).after(&[CHECKPOINT_DYNAMIC_ONLY]),
    run("race-witness-resumed-inside-a-region", Inputs::None,
        &["--resume-from {tmp}/ck-80.lbpsnap --race-witness"],
        Pinned(1, 0x97e2_0539_bbf5_16bb)).after(&[CHECKPOINT_DYNAMIC_ONLY]),
    run("checkpoints", MATMUL, &["--checkpoint-every 5000 --checkpoint-prefix {out}/ck-"],
        Pinned(1, 0x3626_71cd_92ec_1dcc)),
    run("snap-info", Inputs::None, &["--snap-info {tmp}/ck-10.lbpsnap"],
        Pinned(1, 0xfff5_3819_dfd4_ea06)).after(&[CHECKPOINT_MUL]),
    run("bisect", MUL, &["--cores 1 --fault flip-reg:0:a2:4:14 --bisect"],
        Pinned(1, 0x1907_9fc6_0d09_602d)),
    run("bisect-snaps", Inputs::None,
        &["--bisect-snaps {tmp}/ck-10.lbpsnap {tmp}/bad-10.lbpsnap"],
        Pinned(1, 0xc33a_fbc2_6f60_9bc9)).after(&[CHECKPOINT_MUL, BAD_CHECKPOINT_MUL]),
    // The hybrid engine: --warm and --roi, and the fault plans its
    // handoff refuses as usage errors.
    run("warm", MATMUL, &["--warm 1000", STATS, "--warm-snap {out}/warm.lbpsnap"],
        Pinned(1, 0xf55e_4bf2_515b_9eb2)),
    run("warm-past-the-exit", EXAMPLES, &["--warm 100000000", STATS],
        Pinned(7, 0xf17b_3ec6_5ddf_5b09)),
    run("roi", ROI, &["--cores 2 --roi", STATS], Pinned(1, 0x99dc_d4c0_418b_ee34)),
    run("roi-without-a-marker", MATMUL, &["--roi"], Pinned(1, 0x3c13_b4e9_159f_2842)),
    run("warm-drop-msg", MATMUL, &["--cores 4 --warm 1000 --fault drop-msg:0"],
        Pinned(1, 0x360c_9668_7bfd_d0e1)),
    run("warm-flip-reg-inside-the-warm-phase", MATMUL,
        &["--cores 4 --warm 5000 --fault flip-reg:0:a0:1:5"],
        Pinned(1, 0xb879_71d4_dde1_06a4)),
    // lbp-cc --interp: each program's meaning under lbp-sema.
    cc("interp-c-examples", C_EXAMPLES, &["--interp"], Pinned(4, 0x0ae2_91ad_f93d_4cd8)),
    cc("interp-c-fixtures", C_FIXTURES, &["--interp"], Pinned(6, 0x60f5_69f1_a56f_2599)),
    cc("interp-generated-c", GEN_C, &["--interp"], Pinned(100, 0x06ab_769d_736a_6bcb)),
    cc("interp-witness", WITNESS, &["--interp"], Pinned(1, 0x53a1_347c_2b12_9913)),
    // lbp-cc --diff: clean, failed simulations, and each sabotage.
    cc("diff-c-examples", C_EXAMPLES, &["--diff"], Pinned(4, 0xb8fe_aa08_65b8_81b0)),
    cc("diff-c-fixtures", C_FIXTURES, &["--diff"], Pinned(6, 0x5b03_c37b_afe3_b9cb)),
    cc("diff-witness", WITNESS, &["--diff"], Pinned(1, 0xd5f2_5b5a_faf2_f9ba)),
    cc("diff-timeout", MATMUL, &["--diff --max-cycles 1000"], Pinned(1, 0xb94e_d185_7822_52ef)),
    cc("diff-hang", Inputs::None, &["examples/asm/hung.s --diff"],
        Pinned(1, 0xbc32_14f8_77ae_38a3)),
    cc("diff-sabotage-chunk-bounds", WITNESS, &["--diff --sabotage codegen:chunk-bounds"],
        Pinned(1, 0x5f35_019e_b8e9_a6c8)),
    cc("diff-sabotage-index-shift", WITNESS, &["--diff --sabotage codegen:index-shift"],
        Pinned(1, 0xe36e_cd67_dddf_ca51)),
    cc("diff-sabotage-const-fold", WITNESS, &["--diff --sabotage codegen:const-fold"],
        Pinned(1, 0xb4c1_6240_2eda_9469)),
    cc("compile-sabotage-chunk-bounds", WITNESS, &["-o - --sabotage codegen:chunk-bounds"],
        Pinned(1, 0xe949_fca6_4b11_d0cd)),
    cc("compile-sabotage-index-shift", WITNESS, &["-o - --sabotage codegen:index-shift"],
        Pinned(1, 0x1c11_7f99_3d26_efca)),
    cc("compile-sabotage-const-fold", WITNESS, &["-o - --sabotage codegen:const-fold"],
        Pinned(1, 0x42be_95fe_8d10_f92f)),
];

/// What a row produced: how many inputs ran, and its hash of each
/// [`Parts`], in their order.
#[derive(Clone, Copy, Default)]
struct Got {
    count: usize,
    hashes: [u64; 3],
}

impl Got {
    fn of(&self, parts: Parts) -> (usize, u64) {
        (self.count, self.hashes[parts as usize])
    }
}

/// `(count, hash)` as a row pins it.
fn shown((count, hash): (usize, u64)) -> String {
    let d = format!("{hash:016x}");
    format!(
        "({count}, 0x{}_{}_{}_{})",
        &d[..4],
        &d[4..8],
        &d[8..12],
        &d[12..]
    )
}

/// Every row whose output differs from what the table says, one line
/// each, naming the row and the value it now produces.
fn mismatches(rows: &[Row], got: &[Got]) -> Vec<String> {
    let index = |name: &str| {
        let found = rows.iter().position(|r| r.name == name);
        found.unwrap_or_else(|| panic!("no row is named `{name}`"))
    };
    let mut bad = Vec::new();
    for (row, mine) in rows.iter().zip(got) {
        let line = match row.want {
            Pinned(count, hash) if (count, hash) != mine.of(All) => format!(
                "row `{}`: pinned Pinned{}, now Pinned{}",
                row.name,
                shown((count, hash)),
                shown(mine.of(All))
            ),
            Same(other, parts) if got[index(other)].of(parts) != mine.of(parts) => format!(
                "row `{}` must equal row `{other}` on {parts:?}: it gives {}, `{other}` gives {}",
                row.name,
                shown(mine.of(parts)),
                shown(got[index(other)].of(parts))
            ),
            _ => continue,
        };
        bad.push(line);
    }
    bad
}

/// `bytes` with every `from` replaced by `to`. Binary files (snapshots)
/// hold no path and are left as they are.
fn replace(bytes: Vec<u8>, from: &str, to: &str) -> Vec<u8> {
    match String::from_utf8(bytes) {
        Ok(text) => text.replace(from, to).into_bytes(),
        Err(e) => e.into_bytes(),
    }
}

/// `stderr` with the one host-time figure either tool prints, the warm
/// phase's speed, replaced by a token.
fn mask_host_time(stderr: Vec<u8>) -> Vec<u8> {
    let text = String::from_utf8_lossy(&stderr);
    let mut out = String::new();
    for line in text.split_inclusive('\n') {
        match line.rfind(" in ") {
            Some(at) if line.starts_with("lbp-run: warm phase retired") => {
                out.push_str(&line[..at]);
                out.push_str(" in <host time>\n");
            }
            _ => out.push_str(line),
        }
    }
    out.into_bytes()
}

/// Every file under `dir`, by path relative to it, in name order.
fn files_under(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        for entry in std::fs::read_dir(&at).unwrap_or_else(|e| panic!("{}: {e}", at.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                files.push((name, std::fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// The directories of one row's runs and the tokens their paths become.
struct Dirs {
    out: PathBuf,
    tmp: PathBuf,
    tokens: [(String, &'static str); 3],
}

impl Dirs {
    fn new(root: &Path, row: &Row) -> Dirs {
        let out = root.join("out").join(row.name);
        let tmp = root.join("tmp").join(row.name);
        let path = |p: &Path| p.to_string_lossy().into_owned();
        let tokens = [
            (path(&out), "$OUT"),
            (path(&tmp), "$TMP"),
            (path(root), "$SCRATCH"),
        ];
        Dirs { out, tmp, tokens }
    }

    /// Empties both directories for the next input.
    fn reset(&self) {
        for dir in [&self.out, &self.tmp] {
            harness::scratch_cleanup(dir);
            std::fs::create_dir_all(dir).expect("scratch dir creates");
        }
    }

    /// The words of `pieces`, with `{out}` and `{tmp}` filled in.
    fn argv(&self, pieces: &[&str]) -> Vec<String> {
        let (out, tmp) = (&self.tokens[0].0, &self.tokens[1].0);
        let words = pieces.iter().flat_map(|piece| piece.split_whitespace());
        words
            .map(|w| w.replace("{out}", out).replace("{tmp}", tmp))
            .collect()
    }

    fn clean(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        for (path, token) in &self.tokens {
            bytes = replace(bytes, path, token);
        }
        bytes
    }
}

/// Runs `row` over `inputs` and folds what each run wrote.
fn run_row(row: &Row, inputs: &[Option<String>], root: &Path) -> Got {
    let dirs = Dirs::new(root, row);
    let (mut all, mut no_stderr, mut files) = (Vec::new(), Vec::new(), Vec::new());
    for input in inputs {
        dirs.reset();
        for step in row.setup {
            let output = Tool::Run
                .command()
                .args(dirs.argv(&[step]))
                .output()
                .expect("lbp-run spawns");
            assert!(
                output.status.success(),
                "row `{}`: setup {step:?} failed: {}",
                row.name,
                String::from_utf8_lossy(&output.stderr)
            );
        }
        let mut cmd = row.tool.command();
        cmd.args(input);
        cmd.args(dirs.argv(row.args));
        let output = cmd.output().expect("the tool spawns");
        let name = fnv1a64(&dirs.clean(input.clone().unwrap_or_default().into_bytes()));
        let exit = fnv1a64(format!("{:?}", output.status.code()).as_bytes());
        let stdout = fnv1a64(&dirs.clean(output.stdout));
        let stderr = fnv1a64(&dirs.clean(mask_host_time(output.stderr)));
        let mut written = Vec::new();
        for (name, bytes) in files_under(&dirs.out) {
            written.extend(fnv1a64(name.as_bytes()).to_le_bytes());
            written.extend(fnv1a64(&dirs.clean(bytes)).to_le_bytes());
        }
        let written = fnv1a64(&written);
        for (fold, parts) in [
            (&mut all, &[name, exit, stdout, stderr, written][..]),
            (&mut no_stderr, &[exit, stdout, written]),
            (&mut files, &[written]),
        ] {
            fold.extend(parts.iter().flat_map(|h| h.to_le_bytes()));
        }
    }
    Got {
        count: inputs.len(),
        hashes: [fnv1a64(&all), fnv1a64(&no_stderr), fnv1a64(&files)],
    }
}

/// The argument each run of `row` is given first, if any: a repository
/// path, or a corpus program written under `root/in`.
fn inputs_of(row: &Row, root: &Path) -> Vec<Option<String>> {
    match row.inputs {
        Inputs::None => vec![None],
        Inputs::Paths(paths) => paths
            .split_whitespace()
            .flat_map(|path| match path.split_once("/*") {
                Some((dir, ext)) => (identity_corpus::dir(dir, ext).into_iter())
                    .map(|(name, _)| Some(format!("{dir}/{name}")))
                    .collect(),
                None => vec![Some(path.to_owned())],
            })
            .collect(),
        Inputs::Corpus(programs) => programs()
            .into_iter()
            .map(|(name, source)| {
                let path = root.join("in").join(name);
                std::fs::create_dir_all(path.parent().unwrap()).expect("scratch dir creates");
                std::fs::write(&path, source).expect("scratch file writes");
                Some(path.to_string_lossy().into_owned())
            })
            .collect(),
    }
}

/// Runs every row, a few at a time, in a scratch tree of its own.
fn run_rows(label: &str, rows: &[Row]) -> Vec<Got> {
    let root = harness::scratch_dir(&format!("golden-{label}"));
    let inputs: Vec<_> = rows.iter().map(|row| inputs_of(row, &root)).collect();
    let next = AtomicUsize::new(0);
    let got = Mutex::new(vec![Got::default(); rows.len()]);
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(row) = rows.get(i) else { break };
                let result = run_row(row, &inputs[i], &root);
                got.lock().unwrap()[i] = result;
            });
        }
    });
    harness::scratch_cleanup(&root);
    got.into_inner().unwrap()
}

#[test]
fn every_row_writes_its_pinned_bytes() {
    let got = run_rows("table", &ROWS);
    let bad = mismatches(&ROWS, &got);
    assert!(
        bad.is_empty(),
        "{} of {} rows differ:\n{}",
        bad.len(),
        ROWS.len(),
        bad.join("\n")
    );
}

/// The comparer's red cases, on real rows: a wrong pin is reported with
/// the row and the value it now produces, and a same-as pair whose runs
/// differ is reported naming both rows.
#[test]
fn a_differing_row_is_named_with_the_value_it_now_produces() {
    let row = |name| *ROWS.iter().find(|r| r.name == name).expect("a row");
    let rows = [
        Row {
            want: Pinned(1, 0x0123_4567_89ab_cdef),
            ..row("mul-1-core")
        },
        // Checkpointing says so on stderr, so the two differ on every part.
        Row {
            want: Same("mul-1-core", All),
            ..row("mul-checkpointed")
        },
    ];
    let got = run_rows("red", &rows);
    let bad = mismatches(&rows, &got);
    assert_eq!(bad.len(), 2, "{bad:?}");
    let now = format!("now Pinned{}", shown(got[0].of(All)));
    assert!(
        bad[0].starts_with("row `mul-1-core`: ") && bad[0].ends_with(&now),
        "{}",
        bad[0]
    );
    let same = "row `mul-checkpointed` must equal row `mul-1-core` on All";
    assert!(bad[1].starts_with(same), "{}", bad[1]);
}
