//! Seeded program generation.
//!
//! Every generator draws all of its choices from a [`Rng`]
//! (`lbp-testutil`'s SplitMix64) — no `std` randomness anywhere — so a
//! `(seed, case)` pair names a program forever. Programs are built as a
//! list of [`Segment`]s: fixed scaffolding (prologue, fork protocol,
//! exit idiom) interleaved with *removable units*, the granularity the
//! shrinker works at. Every unit is self-contained (its labels are
//! fresh, its registers come from a scratch pool the scaffolding never
//! reads), so **any** subset of units still assembles and terminates —
//! the property that makes delta-debugging sound.
//!
//! Four program families, mirroring the paper's workload axes:
//!
//! - [`Kind::Seq`]: single-hart RV32IM soup — weighted ALU/branch/loop
//!   mixes, in-bounds loads and stores.
//! - [`Kind::Mem`]: single-hart, multi-core memory-sync patterns —
//!   absolute-addressed traffic across remote shared banks plus
//!   `p_syncm` fences, driving the r1/r2 interconnect.
//! - [`Kind::Fork`]: structured fork/join trees over the Fig. 8
//!   protocol (`p_fc`/`p_fn`, `p_swcv`/`p_lwcv`, `p_set`/`p_merge`,
//!   ordered `p_ret`), with optional `p_swre`/`p_lwre` reduction chains
//!   over the backward result line, up to the 256-hart budget.
//! - [`Kind::C`]: Deterministic-OpenMP mini-C sources (disjoint
//!   affine-subscript parallel loops) fed through `lbp-cc`.

use lbp_isa::{
    BranchKind, LoadKind, OpImmKind, OpKind, StoreKind, DEFAULT_SHARED_BANK_BYTES, HARTS_PER_CORE,
    SHARED_BASE,
};
use lbp_omp::{emit_parallel_region, TeamBody};
use lbp_testutil::Rng;

/// The program family a case belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sequential RV32IM instruction soup.
    Seq,
    /// Sequential cross-bank memory traffic with `p_syncm` fences.
    Mem,
    /// Parallel fork/join trees with result-line reductions.
    Fork,
    /// Deterministic-OpenMP mini-C through `lbp-cc`.
    C,
}

impl Kind {
    /// Every kind, for CLI parsing and round-robin scheduling.
    pub const ALL: [Kind; 4] = [Kind::Seq, Kind::Mem, Kind::Fork, Kind::C];

    /// Stable lower-case name (CLI argument and JSONL field).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Seq => "seq",
            Kind::Mem => "mem",
            Kind::Fork => "fork",
            Kind::C => "c",
        }
    }

    /// Parses a kind name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A deliberately planted bug, for testing the tester: the oracles must
/// find it and the shrinker must reduce the program to (essentially)
/// just the planted unit. Exposed on the CLI as `--sabotage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Insert a store to an address outside every shared bank: the run
    /// oracle must report a `mem` fault.
    WildStore,
    /// Replace the exit idiom with a self-join that can never be
    /// satisfied: the run oracle must report a `deadlock`.
    Hang,
    /// Compile the (C-kind) program with a deliberate miscompilation
    /// injected into `lbp-cc`'s code generator. Every kind is designed
    /// to produce an internally consistent binary — deterministic,
    /// race-free, snapshot/lockstep/hybrid clean — that computes the
    /// *wrong answer*, so only the `semantics` oracle (the lbp-sema
    /// executable semantics) can catch it.
    Codegen(lbp_cc::CodegenSabotage),
}

impl Sabotage {
    /// Stable name (CLI argument and JSONL field).
    pub fn name(self) -> &'static str {
        match self {
            Sabotage::WildStore => "wild-store",
            Sabotage::Hang => "hang",
            Sabotage::Codegen(lbp_cc::CodegenSabotage::ChunkBounds) => "codegen:chunk-bounds",
            Sabotage::Codegen(lbp_cc::CodegenSabotage::IndexShift) => "codegen:index-shift",
            Sabotage::Codegen(lbp_cc::CodegenSabotage::ConstFold) => "codegen:const-fold",
            Sabotage::Codegen(lbp_cc::CodegenSabotage::EndPointer) => "codegen:end-pointer",
        }
    }

    /// Parses a sabotage name.
    pub fn parse(s: &str) -> Option<Sabotage> {
        if let Some(kind) = s.strip_prefix("codegen:") {
            return lbp_cc::CodegenSabotage::parse(kind).map(Sabotage::Codegen);
        }
        [Sabotage::WildStore, Sabotage::Hang]
            .into_iter()
            .find(|v| v.name() == s)
    }
}

/// Generator limits (all enforced, all reported in corpus metadata).
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Program families to draw from (round-robin by case index).
    pub kinds: Vec<Kind>,
    /// Largest fork-tree team (the hardware budget is 256 harts).
    pub max_team: usize,
    /// Largest machine, in cores.
    pub max_cores: usize,
    /// Plant a known bug in every generated program.
    pub sabotage: Option<Sabotage>,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            kinds: Kind::ALL.to_vec(),
            max_team: 32,
            max_cores: 8,
            sabotage: None,
        }
    }
}

/// One piece of a generated program.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Scaffolding the shrinker must not touch.
    Fixed(String),
    /// A removable unit.
    Unit(String),
}

/// A generated program: renderable source plus the shrink skeleton.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// The program family.
    pub kind: Kind,
    /// Cores the program is meant to run on.
    pub cores: usize,
    /// Cycle budget for one run (families differ by orders of
    /// magnitude).
    pub max_cycles: u64,
    /// Miscompilation to inject when compiling (C kind only): the
    /// binary-side half of [`Sabotage::Codegen`]. The rendered *source*
    /// stays clean — the interpreter reads the source, the simulator
    /// runs the sabotaged binary, and the `semantics` oracle sees them
    /// disagree.
    pub codegen_sabotage: Option<lbp_cc::CodegenSabotage>,
    /// Source pieces in order.
    pub segments: Vec<Segment>,
}

impl GenProgram {
    /// Whether the source is mini-C (else PISC assembly).
    pub fn is_c(&self) -> bool {
        self.kind == Kind::C
    }

    /// The corpus file name for this source language.
    pub fn file_name(&self) -> &'static str {
        if self.is_c() {
            "program.c"
        } else {
            "program.s"
        }
    }

    /// Renders the complete source.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for seg in &self.segments {
            match seg {
                Segment::Fixed(s) | Segment::Unit(s) => out.push_str(s),
            }
        }
        out
    }

    /// Number of removable units.
    pub fn unit_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Unit(_)))
            .count()
    }

    /// A copy keeping only the units whose index is `true` in `keep`
    /// (`keep.len()` must equal [`GenProgram::unit_count`]).
    pub fn with_units(&self, keep: &[bool]) -> GenProgram {
        assert_eq!(keep.len(), self.unit_count(), "mask length");
        let mut i = 0;
        let segments = self
            .segments
            .iter()
            .filter(|seg| match seg {
                Segment::Fixed(_) => true,
                Segment::Unit(_) => {
                    i += 1;
                    keep[i - 1]
                }
            })
            .cloned()
            .collect();
        GenProgram {
            segments,
            ..self.clone()
        }
    }
}

/// Generates the program for one case.
pub fn generate(rng: &mut Rng, cfg: &GenConfig, case: u64) -> GenProgram {
    let kind = cfg.kinds[(case as usize) % cfg.kinds.len()];
    match kind {
        Kind::Seq => gen_asm(rng, cfg, Kind::Seq),
        Kind::Mem => gen_asm(rng, cfg, Kind::Mem),
        Kind::Fork => gen_fork(rng, cfg),
        Kind::C => gen_c(rng, cfg),
    }
}

// ---------------------------------------------------------------------------
// Sequential assembly (Seq + Mem)
// ---------------------------------------------------------------------------

/// Scratch registers the units may read and write freely. The
/// scaffolding only ever touches `ra`/`sp`/`t0` (exit protocol),
/// `s8`/`s9` (loop counters), `s10`/`s11` (address bases) and `t6`
/// (sabotage), so removing any unit never invalidates another.
const DATA_REGS: [&str; 18] = [
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t1", "t2",
];

/// Bytes of the `.data` scratch buffer (`s10`-relative traffic).
const BUF_BYTES: u32 = 256;
/// Bytes reserved below `sp` for stack traffic.
const STACK_BYTES: u32 = 64;

/// Weight profile for the instruction mix, picked per program.
struct Profile {
    alu: u32,
    alu_imm: u32,
    li: u32,
    muldiv: u32,
    load: u32,
    store: u32,
    syncm: u32,
    branch: u32,
    bounded_loop: u32,
}

impl Profile {
    fn sample(rng: &mut Rng, kind: Kind) -> Profile {
        match (kind, rng.index(3)) {
            // Memory-heavy: exercise banks, the network and fences.
            (Kind::Mem, _) => Profile {
                alu: 4,
                alu_imm: 4,
                li: 2,
                muldiv: 1,
                load: 10,
                store: 10,
                syncm: 4,
                branch: 1,
                bounded_loop: 1,
            },
            (_, 0) => Profile {
                // ALU-heavy straight line.
                alu: 12,
                alu_imm: 8,
                li: 3,
                muldiv: 2,
                load: 2,
                store: 2,
                syncm: 1,
                branch: 2,
                bounded_loop: 1,
            },
            (_, 1) => Profile {
                // Control-heavy: branches and loops dominate.
                alu: 4,
                alu_imm: 3,
                li: 2,
                muldiv: 1,
                load: 2,
                store: 2,
                syncm: 1,
                branch: 6,
                bounded_loop: 4,
            },
            _ => Profile {
                // Multi-cycle units: mul/div latencies vs the scoreboard.
                alu: 4,
                alu_imm: 3,
                li: 2,
                muldiv: 10,
                load: 3,
                store: 3,
                syncm: 2,
                branch: 2,
                bounded_loop: 1,
            },
        }
    }

    fn weights(&self) -> [u32; 9] {
        [
            self.alu,
            self.alu_imm,
            self.li,
            self.muldiv,
            self.load,
            self.store,
            self.syncm,
            self.branch,
            self.bounded_loop,
        ]
    }
}

/// Shared state while emitting one assembly program.
struct AsmGen {
    profile: Profile,
    /// Fresh-label counter (`fz_<n>` prefix avoids every scaffolding
    /// label).
    labels: u32,
    /// Remote-bank base registers are live (Mem kind, cores >= 2).
    remote_banks: Vec<u32>,
}

impl AsmGen {
    fn fresh(&mut self, what: &str) -> String {
        self.labels += 1;
        format!("fz_{what}_{}", self.labels)
    }

    fn reg(&self, rng: &mut Rng) -> &'static str {
        rng.pick(&DATA_REGS)
    }

    /// One simple (label-free, single-line) unit body.
    fn simple_line(&mut self, rng: &mut Rng) -> String {
        // Re-sample until a label-free class comes up; bounded because
        // the simple classes all have non-zero weight in every profile.
        loop {
            match rng.weighted(&self.profile.weights()) {
                0 => {
                    let ops: Vec<OpKind> =
                        OpKind::ALL.into_iter().filter(|k| !k.is_muldiv()).collect();
                    let k = ops[rng.index(ops.len())];
                    return format!(
                        "{} {}, {}, {}",
                        k.mnemonic(),
                        self.reg(rng),
                        self.reg(rng),
                        self.reg(rng)
                    );
                }
                1 => {
                    let k = rng.pick(&OpImmKind::ALL);
                    let imm = if k.is_shift() {
                        rng.range_i32(0, 31)
                    } else {
                        rng.range_i32(-2048, 2047)
                    };
                    return format!(
                        "{} {}, {}, {imm}",
                        k.mnemonic(),
                        self.reg(rng),
                        self.reg(rng)
                    );
                }
                2 => {
                    return format!(
                        "li {}, {}",
                        self.reg(rng),
                        rng.range_i64(i32::MIN as i64, i32::MAX as i64)
                    )
                }
                3 => {
                    let ops: Vec<OpKind> =
                        OpKind::ALL.into_iter().filter(|k| k.is_muldiv()).collect();
                    let k = ops[rng.index(ops.len())];
                    return format!(
                        "{} {}, {}, {}",
                        k.mnemonic(),
                        self.reg(rng),
                        self.reg(rng),
                        self.reg(rng)
                    );
                }
                4 => {
                    let k = rng.pick(&LoadKind::ALL);
                    let (base, limit) = self.base(rng);
                    let off = self.offset(rng, k.size(), limit);
                    return format!("{} {}, {off}({base})", k.mnemonic(), self.reg(rng));
                }
                5 => {
                    let k = rng.pick(&StoreKind::ALL);
                    let (base, limit) = self.base(rng);
                    let off = self.offset(rng, k.size(), limit);
                    return format!("{} {}, {off}({base})", k.mnemonic(), self.reg(rng));
                }
                6 => return "p_syncm".to_owned(),
                _ => continue, // branch/loop: not simple, re-sample
            }
        }
    }

    /// Picks a memory base register and the byte size of its window.
    fn base(&self, rng: &mut Rng) -> (&'static str, u32) {
        // s10 = .data buffer, sp = reserved stack window, s11 = remote
        // shared bank (Mem kind only).
        if !self.remote_banks.is_empty() && rng.index(2) == 0 {
            ("s11", BUF_BYTES)
        } else if rng.index(3) == 0 {
            ("sp", STACK_BYTES)
        } else {
            ("s10", BUF_BYTES)
        }
    }

    /// A naturally-aligned offset for an access of `size` bytes inside
    /// a `limit`-byte window.
    fn offset(&self, rng: &mut Rng, size: u32, limit: u32) -> u32 {
        let slots = limit / size;
        (rng.below(slots as u64) as u32) * size
    }

    /// One full unit: either a simple line or a self-contained block.
    fn unit(&mut self, rng: &mut Rng) -> String {
        match rng.weighted(&self.profile.weights()) {
            7 => {
                // Forward branch over a short body: taken or not, the
                // unit falls through to its own end label.
                let k = rng.pick(&BranchKind::ALL);
                let skip = self.fresh("skip");
                let mut s = format!(
                    "    {} {}, {}, {skip}\n",
                    k.mnemonic(),
                    self.reg(rng),
                    self.reg(rng)
                );
                for _ in 0..=rng.index(3) {
                    s.push_str(&format!("    {}\n", self.simple_line(rng)));
                }
                s.push_str(&format!("{skip}:\n"));
                s
            }
            8 => {
                // Counted loop on the reserved counter register s8.
                let head = self.fresh("loop");
                let iters = rng.range_u32(1, 8);
                let mut s = format!("    li s8, {iters}\n{head}:\n");
                for _ in 0..=rng.index(3) {
                    s.push_str(&format!("    {}\n", self.simple_line(rng)));
                }
                s.push_str(&format!("    addi s8, s8, -1\n    bne s8, zero, {head}\n"));
                s
            }
            _ => format!("    {}\n", self.simple_line(rng)),
        }
    }
}

fn gen_asm(rng: &mut Rng, cfg: &GenConfig, kind: Kind) -> GenProgram {
    let cores = match kind {
        Kind::Mem => 2 + rng.index(cfg.max_cores.clamp(2, 4) - 1),
        _ => 1 + rng.index(cfg.max_cores.min(2)),
    };
    let remote_banks: Vec<u32> = if kind == Kind::Mem {
        // One remote bank per program keeps the window arithmetic
        // simple; bank 0 is excluded so absolute traffic never aliases
        // the .data buffer.
        vec![1 + rng.below(cores as u64 - 1) as u32]
    } else {
        Vec::new()
    };

    let mut g = AsmGen {
        profile: Profile::sample(rng, kind),
        labels: 0,
        remote_banks,
    };

    let mut segments = Vec::new();
    let mut prologue = format!(
        "# lbp-fuzz generated program (kind={}, cores={cores})\n\
         main:\n    addi sp, sp, -{STACK_BYTES}\n    la s10, fz_buf\n",
        kind.name()
    );
    for bank in &g.remote_banks {
        prologue.push_str(&format!(
            "    li s11, {:#x}\n",
            SHARED_BASE + bank * DEFAULT_SHARED_BANK_BYTES
        ));
    }
    // Give every scratch register a seeded value so loads/ALU soup are
    // data-dependent on the seed, not on the zeroed reset state.
    for reg in DATA_REGS {
        prologue.push_str(&format!(
            "    li {reg}, {}\n",
            rng.range_i64(i32::MIN as i64, i32::MAX as i64)
        ));
    }
    segments.push(Segment::Fixed(prologue));

    let units = 10 + rng.index(41);
    for _ in 0..units {
        let text = g.unit(rng);
        segments.push(Segment::Unit(text));
    }
    apply_sabotage(rng, cfg.sabotage, &mut segments);

    let exit = if cfg.sabotage == Some(Sabotage::Hang) {
        // Self-join on the only hart: t0 = own identity, so the p_ret
        // waits for a join message nobody will ever send.
        "    p_set t0\n    li ra, 0\n    p_ret\n"
    } else {
        "    li t0, -1\n    li ra, 0\n    p_ret\n"
    };
    segments.push(Segment::Fixed(format!(
        "    addi sp, sp, {STACK_BYTES}\n{exit}\n.data\n.align 4\nfz_buf: .space {BUF_BYTES}\n"
    )));

    GenProgram {
        kind,
        cores,
        max_cycles: 400_000,
        codegen_sabotage: None,
        segments,
    }
}

/// Inserts the planted bug (if any) at a seeded position among the
/// units. The wild store is itself a removable unit: the shrinker
/// proves itself by deleting everything *except* it.
fn apply_sabotage(rng: &mut Rng, sabotage: Option<Sabotage>, segments: &mut Vec<Segment>) {
    if sabotage == Some(Sabotage::WildStore) {
        let unit_positions: Vec<usize> = segments
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Segment::Unit(_)).then_some(i))
            .collect();
        let at = unit_positions[rng.index(unit_positions.len())];
        let bad = SHARED_BASE.wrapping_add(0x0f00_0000); // beyond any bank
        segments.insert(
            at,
            Segment::Unit(format!("    li t6, {bad:#x}\n    sw t6, 0(t6)\n")),
        );
    }
}

// ---------------------------------------------------------------------------
// Fork/join trees
// ---------------------------------------------------------------------------

/// Registers thread functions may clobber for scratch work. Everything
/// except `t0` (identity: read by the member's final `p_ret`) and `t1`
/// (join-hart identity: the `p_swre` target) is legal inside a member;
/// `sp` is excluded because forked harts start with `sp = 0`.
const MEMBER_REGS: [&str; 8] = ["a3", "a4", "a5", "a6", "a7", "t2", "t3", "t4"];

fn gen_fork(rng: &mut Rng, cfg: &GenConfig) -> GenProgram {
    let hart_budget = (cfg.max_cores * HARTS_PER_CORE).min(cfg.max_team).min(256);
    let regions = 1 + rng.index(3);
    let mut specs = Vec::new();
    for r in 0..regions {
        let team = 2 + rng.index(hart_budget.max(3) - 1);
        let width = 1 + rng.index(3); // words written per member
        let reduce = rng.index(3) == 0;
        specs.push((r, team, width, reduce));
    }
    let cores = specs
        .iter()
        .map(|&(_, team, _, _)| team.div_ceil(HARTS_PER_CORE))
        .max()
        .unwrap()
        .max(1);

    let mut segments = Vec::new();
    segments.push(Segment::Fixed(format!(
        "# lbp-fuzz generated fork/join tree ({regions} region(s), cores={cores})\n\
         main:\n    li t0, -1\n    addi sp, sp, -8\n    sw ra, 0(sp)\n    sw t0, 4(sp)\n    p_set t0\n"
    )));

    // The fork protocol comes from lbp-omp's emitter — one shared Asm so
    // its fresh labels never collide across regions — sliced into fixed
    // segments between the removable pieces.
    let mut proto = lbp_asm::Asm::new();
    let mut emitted = 0usize;
    let take = |proto: &lbp_asm::Asm, emitted: &mut usize| -> String {
        let text = proto.text()[*emitted..].to_owned();
        *emitted = proto.text().len();
        text
    };

    for &(r, team, _width, reduce) in &specs {
        // Optional sequential scratch work between regions (removable).
        for _ in 0..rng.index(3) {
            let a = rng.pick(&MEMBER_REGS);
            let b = rng.pick(&MEMBER_REGS);
            segments.push(Segment::Unit(format!(
                "    li {a}, {}\n    add {b}, {a}, {b}\n",
                rng.range_i32(-4096, 4096)
            )));
        }
        emit_parallel_region(
            &mut proto,
            team,
            &TeamBody::Uniform {
                function: format!("fz_work_{r}"),
            },
            None,
        );
        segments.push(Segment::Fixed(take(&proto, &mut emitted)));
        if reduce {
            // Fold `team` partial values from result-buffer slot `r`.
            let head = format!("fz_fold_{r}");
            segments.push(Segment::Fixed(format!(
                "    li a4, 0\n    li a5, {team}\n{head}:\n    p_lwre a6, {r}\n    add a4, a4, a6\n    addi a5, a5, -1\n    bne a5, zero, {head}\n    la a6, fz_sum_{r}\n    sw a4, 0(a6)\n",
            )));
        }
    }

    segments.push(Segment::Fixed(
        "    lw ra, 0(sp)\n    lw t0, 4(sp)\n    addi sp, sp, 8\n    p_ret\n".to_owned(),
    ));

    // Thread functions: fixed skeleton (slot address, final stores, the
    // reduction send, p_ret) around removable scratch units.
    for &(r, _team, width, reduce) in &specs {
        let stride = width * 4;
        segments.push(Segment::Fixed(format!(
            "\nfz_work_{r}:\n    la a2, fz_out_{r}\n    li t2, {stride}\n    mul t2, a0, t2\n    add a2, a2, t2\n"
        )));
        for _ in 0..1 + rng.index(4) {
            let op = {
                let ops: Vec<OpKind> = OpKind::ALL
                    .into_iter()
                    .filter(|k| {
                        !matches!(k, OpKind::Div | OpKind::Divu | OpKind::Rem | OpKind::Remu)
                    })
                    .collect();
                ops[rng.index(ops.len())]
            };
            let d = rng.pick(&MEMBER_REGS);
            let s = rng.pick(&MEMBER_REGS);
            segments.push(Segment::Unit(format!(
                "    li {d}, {}\n    {} {d}, {s}, {d}\n    add {d}, {d}, a0\n",
                rng.range_i32(-2048, 2047),
                op.mnemonic(),
            )));
        }
        let mut tail = String::new();
        for w in 0..width {
            let v = rng.pick(&MEMBER_REGS);
            tail.push_str(&format!(
                "    addi {v}, a0, {}\n    sw {v}, {}(a2)\n",
                w as i32 + 1,
                w * 4
            ));
        }
        if reduce {
            tail.push_str(&format!("    addi a3, a0, 1\n    p_swre a3, t1, {r}\n"));
        }
        tail.push_str("    p_ret\n");
        segments.push(Segment::Fixed(tail));
    }

    // Data: one output array per region (+ reduction cells).
    let mut data = String::from("\n.data\n");
    for &(r, team, width, reduce) in &specs {
        data.push_str(&format!(
            ".align 4\nfz_out_{r}: .space {}\n",
            team * width * 4
        ));
        if reduce {
            data.push_str(&format!(".align 4\nfz_sum_{r}: .space 4\n"));
        }
    }
    segments.push(Segment::Fixed(data));

    GenProgram {
        kind: Kind::Fork,
        cores,
        max_cycles: 4_000_000,
        codegen_sabotage: None,
        segments,
    }
}

// ---------------------------------------------------------------------------
// Deterministic-OpenMP mini-C
// ---------------------------------------------------------------------------

fn gen_c(rng: &mut Rng, cfg: &GenConfig) -> GenProgram {
    let codegen_sabotage = match cfg.sabotage {
        Some(Sabotage::Codegen(kind)) => Some(kind),
        _ => None,
    };
    // Team sizes the runtime supports on small machines; 1 keeps the
    // region fork-free.
    // Under codegen sabotage, single-member teams are excluded: the
    // chunk-bounds miscompilation only manifests when count > 1.
    let teams: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|t| t.div_ceil(HARTS_PER_CORE) <= cfg.max_cores)
        .filter(|&t| codegen_sabotage.is_none() || t > 1)
        .collect();
    let team = teams[rng.index(teams.len())];
    let width = 2 + rng.index(3); // elements per member slice
    let cores = team.div_ceil(HARTS_PER_CORE).max(1);
    let n = team * width;

    let mut segments = Vec::new();
    segments.push(Segment::Fixed(format!(
        "/* lbp-fuzz generated Deterministic-OpenMP program (team={team}) */\n\
         #define NUM_HART {team}\n\
         #define W {width}\n\
         #include <det_omp.h>\n\n\
         int data[{n}];\nint out[{n}];\nint acc[2];\n\n\
         void work(int t) {{\n    int i; int x;\n    x = t + 1;\n"
    )));
    // Removable statements inside the member: writes stay inside the
    // member's affine slice [t*W, t*W+W), so any subset remains
    // race-free under the determinism lint.
    for _ in 0..1 + rng.index(4) {
        segments.push(Segment::Unit(match rng.index(4) {
            0 => format!("    x = x * {} + t;\n", rng.range_i32(2, 9)),
            1 => format!(
                "    data[t * W + {}] = x + {};\n",
                rng.index(width),
                rng.range_i32(-50, 49)
            ),
            2 => format!(
                "    for (i = t * W; i < t * W + W; i++) data[i] = data[i] + {};\n",
                rng.range_i32(1, 9)
            ),
            _ => format!("    x = x - data[t * W + {}];\n", rng.index(width)),
        }));
    }
    segments.push(Segment::Fixed(
        "    for (i = t * W; i < t * W + W; i++) out[i] = x + i;\n}\n\n\
         void main(void) {\n    int t; int s; int i;\n    omp_set_num_threads(NUM_HART);\n"
            .to_owned(),
    ));
    // Removable sequential statements before the region.
    for _ in 0..rng.index(3) {
        segments.push(Segment::Unit(match rng.index(2) {
            0 => format!("    acc[1] = {};\n", rng.range_i32(-100, 100)),
            _ => format!(
                "    for (i = 0; i < {n}; i++) data[i] = i % {};\n",
                rng.range_i32(2, 10)
            ),
        }));
    }
    segments.push(Segment::Fixed(
        "#pragma omp parallel for\n    for (t = 0; t < NUM_HART; t++) work(t);\n".to_owned(),
    ));
    // Removable sequential fold after the barrier.
    if rng.flip() {
        segments.push(Segment::Unit(format!(
            "    s = 0;\n    for (i = 0; i < {n}; i++) s += out[i];\n    acc[0] = s;\n"
        )));
    }
    if codegen_sabotage.is_some() {
        // Guaranteed trigger for every codegen sabotage kind: `W - 1`
        // is an Imm-Imm fold site (const-fold flips it), and the region
        // above always runs, so chunk-bounds / index-shift corrupt
        // `out` regardless of which removable units survive shrinking.
        segments.push(Segment::Fixed(
            "    acc[1] = acc[1] + (W - 1);\n".to_owned(),
        ));
    }
    if codegen_sabotage == Some(lbp_cc::CodegenSabotage::EndPointer) {
        // A loop of decided trip count that tests an end pointer: the
        // sabotaged end leaves `out[W - 1]` one short.
        segments.push(Segment::Fixed(
            "    for (i = 0; i < W; i++) out[i] = out[i] + 1;\n".to_owned(),
        ));
    }
    segments.push(Segment::Fixed("}\n".to_owned()));

    GenProgram {
        kind: Kind::C,
        cores,
        max_cycles: 2_000_000,
        codegen_sabotage,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_testutil::Rng;

    #[test]
    fn masks_preserve_fixed_segments() {
        let mut rng = Rng::new(1);
        let p = generate(&mut rng, &GenConfig::default(), 0);
        let n = p.unit_count();
        assert!(n > 0);
        let none = p.with_units(&vec![false; n]);
        assert_eq!(none.unit_count(), 0);
        assert!(none.render().contains("main:"));
        let all = p.with_units(&vec![true; n]);
        assert_eq!(all.render(), p.render());
    }

    #[test]
    fn generation_is_seed_deterministic() {
        for case in 0..8 {
            let mut a = Rng::new(42 ^ case);
            let mut b = Rng::new(42 ^ case);
            let cfg = GenConfig::default();
            assert_eq!(
                generate(&mut a, &cfg, case).render(),
                generate(&mut b, &cfg, case).render()
            );
        }
    }
}
