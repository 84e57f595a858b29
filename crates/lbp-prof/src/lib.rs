//! # lbp-prof — guest-program profiler reports and simulator self-metrics
//!
//! The machine side of profiling lives in `lbp-sim`
//! ([`ProfData`] collects per-pc cycle attribution,
//! traffic matrices and the fork-tree timeline while the machine runs).
//! This crate is the reporting side:
//!
//! * [`SymTab`] maps program counters back to functions and source lines
//!   through the assembled [`Image`]'s symbol table, hiding the
//!   compiler-internal labels `lbp-cc` and the `lbp-asm` builder invent.
//! * [`build_report`] turns the collectors into a versioned
//!   **`lbp-prof-v1`** JSON report ([`PROF_SCHEMA`]); [`validate`]
//!   rejects unknown versions and malformed rows with stable
//!   `LBP-P*` diagnostics in the `lbp-diag-v1` style.
//! * [`folded_stacks`] emits `core;function count` lines consumable by
//!   standard flamegraph tooling, and [`timeline_json`] renders the
//!   fork tree as a `chrome://tracing` file of hart-lifetime spans.
//! * [`hotspot_table`] prints the per-function hot-spot table.
//! * [`BenchRow`] is the simulator *self*-metrics record (sim-cycles/sec,
//!   host-ns/sim-cycle, events/sec, peak-RSS proxy) that `lbp-batch`
//!   writes to `bench.jsonl`; the ledger in `benchmark/` counts its
//!   events with [`BenchRow::events_of`] and reads [`peak_rss_kb`].
//!
//! Everything serializes through the dependency-free
//! [`lbp_sim::json::Json`] writer, so reports are bit-identical across
//! runs of the same program — profiling inherits the determinism claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use lbp_asm::Image;
use lbp_sim::{CoreStalls, EventKind, Json, ProfData, Stats};

/// The profiler report schema version tag.
pub const PROF_SCHEMA: &str = "lbp-prof-v1";

/// The function-name fallback for a pc with no covering symbol.
fn anon_name(pc: u32) -> String {
    format!("pc_{pc:#x}")
}

/// A pc → (function, source line) mapping extracted from an assembled
/// image.
///
/// A *function* is the nearest preceding user-visible text label: labels
/// the toolchain invents for control flow — `_cc_*` from `lbp-cc`,
/// `_L_*` from the `lbp-asm` builder (used by `lbp-omp`) — are folded
/// into the enclosing function so hot-spot tables speak the programmer's
/// vocabulary.
#[derive(Debug, Clone, Default)]
pub struct SymTab {
    /// (address, name) of user-visible text labels, sorted by address.
    funcs: Vec<(u32, String)>,
    /// Source line of each text word, indexed from `text_base`.
    lines: Vec<usize>,
    text_base: u32,
}

impl SymTab {
    /// Builds the mapping from an assembled image.
    pub fn from_image(image: &Image) -> SymTab {
        let text_end = image.text_end();
        let mut funcs: Vec<(u32, String)> = image
            .symbols
            .iter()
            .filter(|&(name, &addr)| {
                addr < text_end && !name.starts_with("_cc_") && !name.starts_with("_L_")
            })
            .map(|(name, &addr)| (addr, name.clone()))
            .collect();
        // Address order; ties (aliased labels) resolve to the
        // lexicographically first name so the choice is deterministic.
        funcs.sort();
        funcs.dedup_by_key(|&mut (addr, _)| addr);
        SymTab {
            funcs,
            lines: image.lines.clone(),
            text_base: lbp_isa::CODE_BASE,
        }
    }

    /// An empty table: every pc symbolizes to its `pc_0x…` fallback.
    /// Used when profiling a restored snapshot with no program at hand.
    pub fn empty() -> SymTab {
        SymTab::default()
    }

    /// The function containing `pc`: the nearest preceding user-visible
    /// label, or `None` when no label covers the pc.
    pub fn function_of(&self, pc: u32) -> Option<&str> {
        let idx = self.funcs.partition_point(|&(addr, _)| addr <= pc);
        idx.checked_sub(1).map(|i| self.funcs[i].1.as_str())
    }

    /// [`SymTab::function_of`] with the `pc_0x…` fallback applied.
    pub fn function_name(&self, pc: u32) -> String {
        self.function_of(pc)
            .map(str::to_owned)
            .unwrap_or_else(|| anon_name(pc))
    }

    /// The source line of the instruction at `pc` (0 for generated code,
    /// `None` when out of range).
    pub fn line_of(&self, pc: u32) -> Option<usize> {
        let off = pc.checked_sub(self.text_base)?;
        if !pc.is_multiple_of(4) {
            return None;
        }
        self.lines.get((off / 4) as usize).copied()
    }
}

/// One row of the per-function hot-spot aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncRow {
    /// Function name (a text label, or the `pc_0x…` fallback).
    pub name: String,
    /// Cycles retiring instructions of this function, summed over cores.
    pub retired: u64,
    /// Stall slots blamed on the function's instructions, by bucket.
    pub stalls: CoreStalls,
}

impl FuncRow {
    /// Total cycles attributed to the function.
    pub fn cycles(&self) -> u64 {
        self.retired + self.stalls.total()
    }
}

/// Aggregates the per-pc attribution into per-function rows, sorted
/// hottest first (ties broken by name for determinism).
pub fn function_rows(prof: &ProfData, sym: &SymTab) -> Vec<FuncRow> {
    let mut rows: Vec<FuncRow> = Vec::new();
    for core in 0..prof.cores() {
        for (pc, counters) in prof.per_pc(core) {
            let name = sym.function_name(pc);
            let row = match rows.iter_mut().find(|r| r.name == name) {
                Some(row) => row,
                None => {
                    rows.push(FuncRow {
                        name,
                        retired: 0,
                        stalls: CoreStalls::default(),
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.retired += counters.retired;
            row.stalls = row.stalls.add(&counters.stalls);
        }
    }
    rows.sort_by(|a, b| b.cycles().cmp(&a.cycles()).then(a.name.cmp(&b.name)));
    rows
}

/// Renders a row-major square matrix as an array of row arrays.
fn matrix_json(flat: &[u64], cores: usize) -> Json {
    Json::Arr(
        (0..cores)
            .map(|r| {
                Json::Arr(
                    flat[r * cores..(r + 1) * cores]
                        .iter()
                        .map(|&v| Json::U64(v))
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Builds the `lbp-prof-v1` profile report for one finished run.
///
/// Layout (`kind` distinguishes the two record shapes of the schema
/// family — `"profile"` here, `"bench"` for the self-metrics):
///
/// ```json
/// { "schema": "lbp-prof-v1", "kind": "profile", "program": ...,
///   "cores": N, "cycles": C, "retired": R,
///   "functions": [ {"name", "retired", "cycles", "share", "stalls"} ],
///   "per_core":  [ {"core", "retired", "attributed", "unattributed",
///                   "pcs": [ {"pc", "function", "line", "retired",
///                             "stalls"} ]} ],
///   "noc":            {"cores": N, "rows": [[u64; N]; N]},
///   "bank_conflicts": {"cores": N, "rows": [[u64; N]; N]},
///   "fork_tree": [ {"cycle", "event", "hart", ...} ],
///   "intervals": [ {"cycle", "interval", "noc", "bank_conflicts"} ] }
/// ```
pub fn build_report(program: &str, stats: &Stats, prof: &ProfData, sym: &SymTab) -> Json {
    let cores = prof.cores();
    let cycles = stats.cycles;
    let total = cycles.max(1) as f64 * cores as f64;
    let functions: Vec<Json> = function_rows(prof, sym)
        .into_iter()
        .map(|row| {
            Json::obj([
                ("name", Json::Str(row.name.clone())),
                ("retired", Json::U64(row.retired)),
                ("cycles", Json::U64(row.cycles())),
                ("share", Json::F64(row.cycles() as f64 / total)),
                ("stalls", row.stalls.to_json()),
            ])
        })
        .collect();
    let per_core: Vec<Json> = (0..cores)
        .map(|core| {
            let pcs: Vec<Json> = prof
                .per_pc(core)
                .map(|(pc, c)| {
                    Json::obj([
                        ("pc", Json::U64(pc as u64)),
                        ("function", Json::Str(sym.function_name(pc))),
                        (
                            "line",
                            match sym.line_of(pc) {
                                Some(l) => Json::U64(l as u64),
                                None => Json::Null,
                            },
                        ),
                        ("retired", Json::U64(c.retired)),
                        ("stalls", c.stalls.to_json()),
                    ])
                })
                .collect();
            Json::obj([
                ("core", Json::U64(core as u64)),
                ("retired", Json::U64(stats.retired_by_core(core))),
                ("attributed", Json::U64(prof.attributed_cycles(core))),
                ("unattributed", prof.unattributed(core).to_json()),
                ("pcs", Json::Arr(pcs)),
            ])
        })
        .collect();
    let fork_tree: Vec<Json> = prof
        .timeline()
        .iter()
        .map(|ev| {
            // `lbp-prof-v1` files a fork under the allocated child, with
            // the requesting hart as `parent`, and spells a hart's end
            // `"end"`.
            let (name, hart) = match ev.kind {
                EventKind::Fork { child } => ("fork", child),
                EventKind::HartEnd => ("end", ev.hart),
                ref kind => (kind.name(), ev.hart),
            };
            let mut pairs = vec![
                ("cycle".to_owned(), Json::U64(ev.cycle)),
                ("event".to_owned(), Json::Str(name.to_owned())),
                ("hart".to_owned(), Json::U64(hart.global() as u64)),
            ];
            match ev.kind {
                EventKind::Fork { .. } => {
                    pairs.push(("parent".to_owned(), Json::U64(ev.hart.global() as u64)));
                }
                EventKind::Start { pc } | EventKind::Join { pc } => {
                    pairs.push(("pc".to_owned(), Json::U64(pc as u64)));
                }
                _ => {}
            }
            Json::Obj(pairs)
        })
        .collect();
    let intervals: Vec<Json> = prof
        .intervals()
        .iter()
        .map(|iv| {
            Json::obj([
                ("cycle", Json::U64(iv.cycle)),
                ("interval", Json::U64(iv.interval)),
                ("noc", matrix_json(&iv.noc_requests, cores)),
                ("bank_conflicts", matrix_json(&iv.bank_conflicts, cores)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str(PROF_SCHEMA.to_owned())),
        ("kind", Json::Str("profile".to_owned())),
        ("program", Json::Str(program.to_owned())),
        ("cores", Json::U64(cores as u64)),
        ("cycles", Json::U64(cycles)),
        ("retired", Json::U64(stats.retired())),
        ("functions", Json::Arr(functions)),
        ("per_core", Json::Arr(per_core)),
        (
            "noc",
            Json::obj([
                ("cores", Json::U64(cores as u64)),
                ("rows", matrix_json(prof.noc_matrix(), cores)),
            ]),
        ),
        (
            "bank_conflicts",
            Json::obj([
                ("cores", Json::U64(cores as u64)),
                ("rows", matrix_json(prof.conflict_matrix(), cores)),
            ]),
        ),
        ("fork_tree", Json::Arr(fork_tree)),
        ("intervals", Json::Arr(intervals)),
    ])
}

/// Folded-stack lines for flamegraph tooling: one
/// `core<i>;<function> <cycles>` line per (core, function) pair with a
/// nonzero cycle count, plus a `core<i>;[unattributed] <n>` frame for
/// stall slots no instruction could be blamed for. Feed the output to
/// `flamegraph.pl` (or any folded-stack consumer) unchanged.
pub fn folded_stacks(prof: &ProfData, sym: &SymTab) -> String {
    let mut out = String::new();
    for core in 0..prof.cores() {
        // Aggregate per function, deterministically (BTreeMap iteration
        // is pc-ordered; fold into name order for output).
        let mut by_func: Vec<(String, u64)> = Vec::new();
        for (pc, counters) in prof.per_pc(core) {
            let name = sym.function_name(pc);
            match by_func.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += counters.cycles(),
                None => by_func.push((name, counters.cycles())),
            }
        }
        by_func.sort();
        for (name, cycles) in by_func {
            if cycles > 0 {
                out.push_str(&format!("core{core};{name} {cycles}\n"));
            }
        }
        let un = prof.unattributed(core).total();
        if un > 0 {
            out.push_str(&format!("core{core};[unattributed] {un}\n"));
        }
    }
    out
}

/// Renders the fork-tree timeline as a `chrome://tracing` JSON file:
/// one `"X"` (complete) event per hart lifetime — hart 0.0 opens at
/// cycle 0; a `start` opens a span, `end`/`exit` closes it, spans still
/// open at `final_cycle` close there — plus one `"i"` (instant) event
/// per fork and join. `pid` is the core, `tid` the hart slot.
pub fn timeline_json(prof: &ProfData, final_cycle: u64) -> String {
    let mut events: Vec<Json> = Vec::new();
    // (hart, open-cycle) spans awaiting their close.
    let mut open: Vec<(lbp_isa::HartId, u64)> = vec![(lbp_isa::HartId::FIRST, 0)];
    let span = |hart: lbp_isa::HartId, from: u64, to: u64| {
        Json::obj([
            (
                "name",
                Json::Str(format!("hart {}.{}", hart.core(), hart.local())),
            ),
            ("ph", Json::Str("X".to_owned())),
            ("ts", Json::U64(from)),
            ("dur", Json::U64(to.saturating_sub(from))),
            ("pid", Json::U64(hart.core() as u64)),
            ("tid", Json::U64(hart.local() as u64)),
        ])
    };
    let instant = |name: &str, at: u64, hart: lbp_isa::HartId, (key, value): (&str, u64)| {
        Json::obj([
            ("name", Json::Str(name.to_owned())),
            ("ph", Json::Str("i".to_owned())),
            ("s", Json::Str("t".to_owned())),
            ("ts", Json::U64(at)),
            ("pid", Json::U64(hart.core() as u64)),
            ("tid", Json::U64(hart.local() as u64)),
            ("args", Json::obj([(key, Json::U64(value))])),
        ])
    };
    for ev in prof.timeline() {
        let hart = ev.hart;
        match ev.kind {
            EventKind::Start { .. } => open.push((hart, ev.cycle)),
            EventKind::HartEnd | EventKind::Exit => {
                if let Some(i) = open.iter().position(|&(h, _)| h == hart) {
                    let (_, from) = open.remove(i);
                    events.push(span(hart, from, ev.cycle));
                }
            }
            EventKind::Fork { child } => {
                let child = ("child", child.global() as u64);
                events.push(instant("fork", ev.cycle, hart, child));
            }
            EventKind::Join { pc } => {
                events.push(instant("join", ev.cycle, hart, ("pc", pc as u64)));
            }
            _ => {}
        }
    }
    for (hart, from) in open {
        events.push(span(hart, from, final_cycle));
    }
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".to_owned())),
    ]);
    let mut out = String::new();
    doc.write(&mut out);
    out.push('\n');
    out
}

/// Formats the per-function hot-spot table of a `"profile"` report:
/// the `top` hottest functions with their cycle totals, shares and
/// dominant stall buckets.
pub fn hotspot_table(report: &Json, top: usize) -> String {
    let mut out = String::new();
    let funcs = report
        .get("functions")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    out.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>7}  dominant stall\n",
        "function", "cycles", "retired", "share"
    ));
    for f in funcs.iter().take(top) {
        let name = f.get("name").and_then(Json::as_str).unwrap_or("?");
        let cycles = f.get("cycles").and_then(Json::as_u64).unwrap_or(0);
        let retired = f.get("retired").and_then(Json::as_u64).unwrap_or(0);
        let share = f.get("share").and_then(Json::as_f64).unwrap_or(0.0);
        let dominant = f
            .get("stalls")
            .and_then(|s| match s {
                Json::Obj(pairs) => pairs
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().map(|n| (k.as_str(), n)))
                    .filter(|&(_, n)| n > 0)
                    .max_by_key(|&(_, n)| n),
                _ => None,
            })
            .map(|(k, n)| format!("{k} ({n})"))
            .unwrap_or_else(|| "-".to_owned());
        out.push_str(&format!(
            "{name:<24} {cycles:>12} {retired:>12} {:>6.1}%  {dominant}\n",
            share * 100.0
        ));
    }
    out
}

/// A stable validation diagnostic, in the `lbp-diag-v1` spirit: a
/// machine-checkable `LBP-P*` code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfError {
    /// Stable diagnostic code (`LBP-P001` unknown schema, `LBP-P002`
    /// unknown kind, `LBP-P003` missing field, `LBP-P004` malformed row,
    /// `LBP-P005` matrix shape mismatch).
    pub code: &'static str,
    /// What exactly is wrong.
    pub message: String,
}

impl ProfError {
    fn new(code: &'static str, message: impl Into<String>) -> ProfError {
        ProfError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error [{}]: {}", self.code, self.message)
    }
}

impl std::error::Error for ProfError {}

fn require_u64(v: &Json, key: &str, ctx: &str) -> Result<u64, ProfError> {
    v.get(key)
        .ok_or_else(|| ProfError::new("LBP-P003", format!("{ctx} is missing field `{key}`")))?
        .as_u64()
        .ok_or_else(|| {
            ProfError::new(
                "LBP-P004",
                format!("{ctx} field `{key}` is not a non-negative integer"),
            )
        })
}

fn require_str<'j>(v: &'j Json, key: &str, ctx: &str) -> Result<&'j str, ProfError> {
    v.get(key)
        .ok_or_else(|| ProfError::new("LBP-P003", format!("{ctx} is missing field `{key}`")))?
        .as_str()
        .ok_or_else(|| ProfError::new("LBP-P004", format!("{ctx} field `{key}` is not a string")))
}

fn check_matrix(v: &Json, key: &str, cores: u64) -> Result<(), ProfError> {
    let m = v
        .get(key)
        .ok_or_else(|| ProfError::new("LBP-P003", format!("report is missing matrix `{key}`")))?;
    let rows = m
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProfError::new("LBP-P004", format!("matrix `{key}` has no `rows` array")))?;
    if rows.len() as u64 != cores {
        return Err(ProfError::new(
            "LBP-P005",
            format!("matrix `{key}` has {} rows for {cores} cores", rows.len()),
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_arr().ok_or_else(|| {
            ProfError::new(
                "LBP-P004",
                format!("matrix `{key}` row {i} is not an array"),
            )
        })?;
        if cells.len() as u64 != cores {
            return Err(ProfError::new(
                "LBP-P005",
                format!(
                    "matrix `{key}` row {i} has {} cells for {cores} cores",
                    cells.len()
                ),
            ));
        }
        if let Some(j) = cells.iter().position(|c| c.as_u64().is_none()) {
            return Err(ProfError::new(
                "LBP-P004",
                format!("matrix `{key}` cell [{i}][{j}] is not a non-negative integer"),
            ));
        }
    }
    Ok(())
}

/// Validates the shared envelope of one `lbp-prof-v1` record and
/// returns its `kind`. Rejects unknown schema versions (`LBP-P001`) and
/// unknown kinds (`LBP-P002`).
pub fn validate_envelope(record: &Json) -> Result<&str, ProfError> {
    let schema = record
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| ProfError::new("LBP-P003", "record has no `schema` string"))?;
    if schema != PROF_SCHEMA {
        return Err(ProfError::new(
            "LBP-P001",
            format!("unknown schema `{schema}` (this tool reads `{PROF_SCHEMA}`)"),
        ));
    }
    let kind = require_str(record, "kind", "record")?;
    if !matches!(kind, "profile" | "bench") {
        return Err(ProfError::new(
            "LBP-P002",
            format!("unknown record kind `{kind}`"),
        ));
    }
    Ok(kind)
}

/// Validates one `lbp-prof-v1` record of any kind: envelope, required
/// fields, row shapes, matrix dimensions. Returns the record's kind.
pub fn validate(record: &Json) -> Result<&str, ProfError> {
    let kind = validate_envelope(record)?;
    match kind {
        "profile" => {
            require_str(record, "program", "profile record")?;
            let cores = require_u64(record, "cores", "profile record")?;
            require_u64(record, "cycles", "profile record")?;
            require_u64(record, "retired", "profile record")?;
            let funcs = record
                .get("functions")
                .and_then(Json::as_arr)
                .ok_or_else(|| {
                    ProfError::new("LBP-P003", "profile record has no `functions` array")
                })?;
            for (i, f) in funcs.iter().enumerate() {
                let ctx = format!("functions[{i}]");
                require_str(f, "name", &ctx)?;
                require_u64(f, "retired", &ctx)?;
                require_u64(f, "cycles", &ctx)?;
            }
            let per_core = record
                .get("per_core")
                .and_then(Json::as_arr)
                .ok_or_else(|| {
                    ProfError::new("LBP-P003", "profile record has no `per_core` array")
                })?;
            if per_core.len() as u64 != cores {
                return Err(ProfError::new(
                    "LBP-P005",
                    format!(
                        "`per_core` has {} entries for {cores} cores",
                        per_core.len()
                    ),
                ));
            }
            for (i, c) in per_core.iter().enumerate() {
                let ctx = format!("per_core[{i}]");
                require_u64(c, "attributed", &ctx)?;
                let pcs = c.get("pcs").and_then(Json::as_arr).ok_or_else(|| {
                    ProfError::new("LBP-P003", format!("{ctx} has no `pcs` array"))
                })?;
                for (j, p) in pcs.iter().enumerate() {
                    let pctx = format!("{ctx}.pcs[{j}]");
                    require_u64(p, "pc", &pctx)?;
                    require_u64(p, "retired", &pctx)?;
                }
            }
            check_matrix(record, "noc", cores)?;
            check_matrix(record, "bank_conflicts", cores)?;
        }
        "bench" => {
            validate_bench_row(record)?;
        }
        _ => unreachable!("validate_envelope admits only known kinds"),
    }
    Ok(kind)
}

fn validate_bench_row(row: &Json) -> Result<(), ProfError> {
    require_str(row, "name", "bench row")?;
    require_u64(row, "sim_cycles", "bench row")?;
    require_u64(row, "retired", "bench row")?;
    require_u64(row, "events", "bench row")?;
    require_u64(row, "host_ns", "bench row")?;
    for key in ["sim_cycles_per_sec", "host_ns_per_cycle", "events_per_sec"] {
        row.get(key)
            .ok_or_else(|| {
                ProfError::new("LBP-P003", format!("bench row is missing field `{key}`"))
            })?
            .as_f64()
            .ok_or_else(|| {
                ProfError::new(
                    "LBP-P004",
                    format!("bench row field `{key}` is not a number"),
                )
            })?;
    }
    Ok(())
}

/// One simulator self-metrics measurement: how fast the *host* simulated
/// one workload (schema kind `"bench"`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Workload name, e.g. `matmul/tiled/h16`.
    pub name: String,
    /// Harts the guest program ran with.
    pub harts: u32,
    /// Cores of the simulated machine.
    pub cores: u32,
    /// Guest cycles simulated.
    pub sim_cycles: u64,
    /// Guest instructions retired.
    pub retired: u64,
    /// Simulation events processed: retired instructions + memory
    /// operations + link hops + forks + joins (the unit of the
    /// events/sec throughput figure).
    pub events: u64,
    /// Host wall-clock nanoseconds for the measured run.
    pub host_ns: u64,
    /// Serialized machine-state size in bytes — the deterministic
    /// memory-footprint proxy (identical across hosts, unlike RSS).
    pub state_bytes: u64,
    /// Host peak RSS in KiB (`VmHWM` of `/proc/self/status`), when the
    /// platform exposes it. Host-dependent; reported but never compared.
    pub peak_rss_kb: Option<u64>,
}

impl BenchRow {
    /// Counts the events of a finished run from its statistics.
    pub fn events_of(stats: &Stats) -> u64 {
        stats.retired() + stats.mem_ops() + stats.link_hops + stats.forks + stats.joins
    }

    /// Simulated guest cycles per host second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / (self.host_ns.max(1) as f64 / 1e9)
    }

    /// Host nanoseconds spent per simulated guest cycle.
    pub fn host_ns_per_cycle(&self) -> f64 {
        self.host_ns as f64 / self.sim_cycles.max(1) as f64
    }

    /// Simulation events processed per host second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.host_ns.max(1) as f64 / 1e9)
    }

    /// Serializes the row as an `lbp-prof-v1` record of kind `"bench"`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(PROF_SCHEMA.to_owned())),
            ("kind", Json::Str("bench".to_owned())),
            ("name", Json::Str(self.name.clone())),
            ("harts", Json::U64(self.harts as u64)),
            ("cores", Json::U64(self.cores as u64)),
            ("sim_cycles", Json::U64(self.sim_cycles)),
            ("retired", Json::U64(self.retired)),
            ("events", Json::U64(self.events)),
            ("host_ns", Json::U64(self.host_ns)),
            ("sim_cycles_per_sec", Json::F64(self.sim_cycles_per_sec())),
            ("host_ns_per_cycle", Json::F64(self.host_ns_per_cycle())),
            ("events_per_sec", Json::F64(self.events_per_sec())),
            ("state_bytes", Json::U64(self.state_bytes)),
            (
                "peak_rss_kb",
                match self.peak_rss_kb {
                    Some(kb) => Json::U64(kb),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// The host process's peak resident set size in KiB, read from
/// `/proc/self/status` (`VmHWM`). `None` on platforms without procfs —
/// the bench reports it as `null` rather than guessing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Image {
        lbp_asm::assemble(
            "main:
                li   t0, 5
                addi t0, t0, 1
            helper:
                li   t1, 7
            _L_gen_0:
                li   t2, 9
                li   t0, -1
                p_set t0
                p_ret
            ",
        )
        .unwrap()
    }

    #[test]
    fn symtab_filters_internal_labels() {
        let sym = SymTab::from_image(&image());
        let main = sym.funcs.iter().find(|(_, n)| n == "main");
        assert!(main.is_some());
        assert!(!sym.funcs.iter().any(|(_, n)| n.starts_with("_L_")));
        // pcs inside `_L_gen_0` fold into `helper`.
        let helper_addr = sym.funcs.iter().find(|(_, n)| n == "helper").unwrap().0;
        assert_eq!(sym.function_of(helper_addr + 8), Some("helper"));
        assert_eq!(sym.function_of(helper_addr), Some("helper"));
    }

    #[test]
    fn empty_symtab_falls_back_to_pc_names() {
        let sym = SymTab::empty();
        assert_eq!(sym.function_of(0x40), None);
        assert_eq!(sym.function_name(0x40), "pc_0x40");
    }

    #[test]
    fn bench_row_round_trips_and_validates() {
        let row = BenchRow {
            name: "spin/h4".to_owned(),
            harts: 4,
            cores: 1,
            sim_cycles: 1000,
            retired: 800,
            events: 900,
            host_ns: 2000,
            state_bytes: 4096,
            peak_rss_kb: Some(1234),
        };
        let j = row.to_json();
        assert_eq!(validate(&j).unwrap(), "bench");
        assert!((j.get("host_ns_per_cycle").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-9);
        let mut s = String::new();
        j.write(&mut s);
        let back = Json::parse(&s).unwrap();
        assert_eq!(validate(&back).unwrap(), "bench");
    }

    #[test]
    fn unknown_schema_rejected_with_p001() {
        let j = Json::obj([
            ("schema", Json::Str("lbp-prof-v9".to_owned())),
            ("kind", Json::Str("profile".to_owned())),
        ]);
        let err = validate(&j).unwrap_err();
        assert_eq!(err.code, "LBP-P001");
        assert!(err.to_string().contains("lbp-prof-v9"));
    }

    #[test]
    fn unknown_kind_rejected_with_p002() {
        let j = Json::obj([
            ("schema", Json::Str(PROF_SCHEMA.to_owned())),
            ("kind", Json::Str("trace".to_owned())),
        ]);
        assert_eq!(validate(&j).unwrap_err().code, "LBP-P002");
    }

    #[test]
    fn malformed_bench_row_rejected() {
        let j = Json::obj([
            ("schema", Json::Str(PROF_SCHEMA.to_owned())),
            ("kind", Json::Str("bench".to_owned())),
            ("name", Json::Str("x".to_owned())),
            ("sim_cycles", Json::Str("many".to_owned())),
        ]);
        let err = validate(&j).unwrap_err();
        assert_eq!(err.code, "LBP-P004");
        assert!(err.message.contains("sim_cycles"));
    }
}
