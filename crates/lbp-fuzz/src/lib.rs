//! # lbp-fuzz — the deterministic conformance fuzzer
//!
//! Seeded generation of well-formed PISC assembly and
//! Deterministic-OpenMP mini-C programs ([`gen`]), checked by a battery
//! of differential and metamorphic oracles ([`oracle`]): lockstep
//! against the functional engine, bit-identical repetition, snapshot
//! round-trips through the `lbp-snap` codec, static verification, and
//! crash classification. Failing cases are minimized by delta
//! debugging ([`shrink`]) and persisted to a replayable corpus
//! ([`corpus`]).
//!
//! Everything is a pure function of the seed: the generator draws from
//! `lbp-testutil`'s SplitMix64, the verdict stream carries no
//! timestamps, and the corpus names no host state — `lbp-fuzz --seed S
//! --count N` writes byte-identical output on every machine, every
//! run. `tests/it/sweeps.rs` leans on that: it asserts reproducibility by
//! comparing two sweeps byte for byte.
//!
//! Case `i` of a run seeds its generator with
//! `seed ^ (i * 0x9e37_79b9_7f4a_7c15)` — the same derivation as
//! `lbp_testutil::check_cases` — so one failing case replays in
//! isolation via `--skip i --count 1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

use std::io::{self, Write};
use std::path::PathBuf;

use lbp_sim::Json;
use lbp_testutil::Rng;

use corpus::CorpusEntry;
use gen::{GenConfig, Kind};
use oracle::Failure;

/// Schema tag of the verdict JSONL stream.
pub const VERDICT_SCHEMA: &str = "lbp-fuzz-v1";

/// One fuzz run's parameters.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed.
    pub seed: u64,
    /// Cases to run.
    pub count: u64,
    /// Case indices to skip past first (replay aid: `--skip i --count
    /// 1` re-runs exactly case `i` of a bigger sweep).
    pub skip: u64,
    /// Generator limits.
    pub config: GenConfig,
    /// Corpus root for failing cases (none = don't persist).
    pub corpus: Option<PathBuf>,
    /// Oracle-battery evaluation budget per shrink (0 = no shrinking).
    pub shrink_attempts: usize,
    /// Executable for the cross-process resume oracle (the CLI passes
    /// its own path; `None` keeps the oracle in-process).
    pub resume_exec: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 0,
            count: 20,
            skip: 0,
            config: GenConfig::default(),
            corpus: None,
            shrink_attempts: 200,
            resume_exec: None,
        }
    }
}

/// Aggregate result of a run.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Cases executed.
    pub cases: u64,
    /// Cases that passed every oracle.
    pub passed: u64,
    /// Failing case indices with their classification.
    pub failures: Vec<(u64, String)>,
}

impl FuzzSummary {
    /// True when every case passed.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The per-case generator seed (mirrors `lbp_testutil::check_cases`).
pub fn case_seed(seed: u64, case: u64) -> u64 {
    seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Effective generator configuration: each sabotage family only makes
/// sense for the kinds it can be planted in — the assembly-level bugs
/// (`wild-store`, `hang`) restrict to the assembly families (defaulting
/// to `seq` if none remain), while the `codegen:*` miscompilations only
/// exist on the `lbp-cc` path and restrict to `c`.
fn effective_config(config: &GenConfig) -> GenConfig {
    let mut cfg = config.clone();
    match cfg.sabotage {
        Some(gen::Sabotage::Codegen(_)) => cfg.kinds = vec![Kind::C],
        Some(_) => {
            cfg.kinds.retain(|k| matches!(k, Kind::Seq | Kind::Mem));
            if cfg.kinds.is_empty() {
                cfg.kinds = vec![Kind::Seq];
            }
        }
        None => {}
    }
    cfg
}

fn header_json(opts: &FuzzOptions, cfg: &GenConfig) -> Json {
    Json::obj([
        ("schema", Json::Str(VERDICT_SCHEMA.to_owned())),
        ("seed", Json::U64(opts.seed)),
        ("count", Json::U64(opts.count)),
        ("skip", Json::U64(opts.skip)),
        (
            "kinds",
            Json::Arr(
                cfg.kinds
                    .iter()
                    .map(|k| Json::Str(k.name().to_owned()))
                    .collect(),
            ),
        ),
        ("max_team", Json::U64(cfg.max_team as u64)),
        ("max_cores", Json::U64(cfg.max_cores as u64)),
        (
            "sabotage",
            match cfg.sabotage {
                Some(s) => Json::Str(s.name().to_owned()),
                None => Json::Null,
            },
        ),
        ("shrink_attempts", Json::U64(opts.shrink_attempts as u64)),
    ])
}

fn fail_json(case: u64, kind: Kind, f: &Failure, shrunk: Option<&shrink::Shrunk>) -> Json {
    let mut pairs = vec![
        ("case".to_owned(), Json::U64(case)),
        ("kind".to_owned(), Json::Str(kind.name().to_owned())),
        ("verdict".to_owned(), Json::Str("fail".to_owned())),
        ("oracle".to_owned(), Json::Str(f.oracle.to_owned())),
        ("class".to_owned(), Json::Str(f.class.clone())),
        ("detail".to_owned(), Json::Str(f.detail.clone())),
    ];
    if let Some(s) = shrunk {
        pairs.push((
            "shrunk_units".to_owned(),
            Json::Arr(vec![
                Json::U64(s.units_before as u64),
                Json::U64(s.units_after as u64),
            ]),
        ));
    }
    Json::Obj(pairs)
}

/// Runs the fuzzer, streaming one `lbp-fuzz-v1` JSONL line per case to
/// `out` (after a header line, before a trailing summary line).
///
/// # Errors
///
/// Only I/O errors (verdict stream or corpus writes) abort the run;
/// oracle failures are verdicts, not errors.
pub fn run_fuzz(opts: &FuzzOptions, mut out: impl Write) -> io::Result<FuzzSummary> {
    let cfg = effective_config(&opts.config);
    let check_opts = oracle::CheckOpts {
        resume_exec: opts.resume_exec.clone(),
    };
    writeln!(out, "{}", header_json(opts, &cfg))?;

    let mut summary = FuzzSummary {
        cases: 0,
        passed: 0,
        failures: Vec::new(),
    };
    for case in opts.skip..opts.skip + opts.count {
        let mut rng = Rng::new(case_seed(opts.seed, case));
        let program = gen::generate(&mut rng, &cfg, case);
        summary.cases += 1;
        match oracle::check_with(&program, &check_opts) {
            Ok(report) => {
                summary.passed += 1;
                let verdict = Json::obj([
                    ("case", Json::U64(case)),
                    ("kind", Json::Str(program.kind.name().to_owned())),
                    ("verdict", Json::Str("pass".to_owned())),
                    ("cores", Json::U64(program.cores as u64)),
                    ("cycles", Json::U64(report.cycles)),
                    ("retired", Json::U64(report.retired)),
                    ("lockstep_commits", Json::U64(report.lockstep_commits)),
                ]);
                writeln!(out, "{verdict}")?;
            }
            Err(failure) => {
                let shrunk = (opts.shrink_attempts > 0)
                    .then(|| shrink::shrink(&program, &failure, opts.shrink_attempts));
                writeln!(
                    out,
                    "{}",
                    fail_json(case, program.kind, &failure, shrunk.as_ref())
                )?;
                if let Some(root) = &opts.corpus {
                    CorpusEntry {
                        seed: opts.seed,
                        case,
                        config: &cfg,
                        program: &program,
                        failure: &failure,
                        shrunk: shrunk.as_ref(),
                    }
                    .write(root)?;
                }
                summary
                    .failures
                    .push((case, format!("{}/{}", failure.oracle, failure.class)));
            }
        }
    }
    let tail = Json::obj([
        ("cases", Json::U64(summary.cases)),
        ("passed", Json::U64(summary.passed)),
        ("failed", Json::U64(summary.failures.len() as u64)),
    ]);
    writeln!(out, "{tail}")?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline acceptance property: the verdict stream is a pure
    /// function of (seed, options).
    #[test]
    fn verdict_stream_is_bit_reproducible() {
        let opts = FuzzOptions {
            seed: 99,
            count: 8,
            shrink_attempts: 0,
            ..FuzzOptions::default()
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        run_fuzz(&opts, &mut a).unwrap();
        run_fuzz(&opts, &mut b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed, same bytes");
    }

    /// Different seeds explore different programs.
    #[test]
    fn seeds_change_the_stream() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        run_fuzz(
            &FuzzOptions {
                seed: 1,
                count: 2,
                shrink_attempts: 0,
                ..FuzzOptions::default()
            },
            &mut a,
        )
        .unwrap();
        run_fuzz(
            &FuzzOptions {
                seed: 2,
                count: 2,
                shrink_attempts: 0,
                ..FuzzOptions::default()
            },
            &mut b,
        )
        .unwrap();
        assert_ne!(a, b);
    }
}
