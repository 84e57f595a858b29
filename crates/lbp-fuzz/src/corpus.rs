//! Failure corpus persistence.
//!
//! Every failing case becomes one directory under the corpus root:
//!
//! ```text
//! corpus/
//!   case-0017-seq/
//!     program.s     # the full generated program
//!     shrunk.s      # the ddmin-minimized reproducer
//!     meta.json     # schema lbp-fuzz-corpus-v1: seed, config, verdict
//!     dump.json     # lbp-dump-v1 crash dump (when the oracle had one)
//! ```
//!
//! `meta.json` carries everything needed to regenerate or replay the
//! case without the corpus: the fuzzer seed, the case index, the full
//! generator configuration, and the failure classification. Nothing in
//! the corpus depends on wall-clock time or the host, so two runs with
//! the same seed write byte-identical corpora.

use std::io;
use std::path::{Path, PathBuf};

use lbp_sim::Json;

use crate::gen::{GenConfig, GenProgram};
use crate::oracle::Failure;
use crate::shrink::Shrunk;

/// Schema tag of `meta.json`.
pub const CORPUS_SCHEMA: &str = "lbp-fuzz-corpus-v1";

/// Everything persisted for one failing case.
pub struct CorpusEntry<'a> {
    /// Fuzzer seed (the run's, not the case's derived seed).
    pub seed: u64,
    /// Case index within the run.
    pub case: u64,
    /// Generator configuration in force.
    pub config: &'a GenConfig,
    /// The offending program.
    pub program: &'a GenProgram,
    /// The classified failure.
    pub failure: &'a Failure,
    /// The shrink result (None when shrinking is disabled).
    pub shrunk: Option<&'a Shrunk>,
}

impl CorpusEntry<'_> {
    /// The case's directory name: `case-0017-seq`.
    pub fn dir_name(&self) -> String {
        format!("case-{:04}-{}", self.case, self.program.kind.name())
    }

    fn meta_json(&self) -> Json {
        let cfg = Json::obj([
            (
                "kinds",
                Json::Arr(
                    self.config
                        .kinds
                        .iter()
                        .map(|k| Json::Str(k.name().to_owned()))
                        .collect(),
                ),
            ),
            ("max_team", Json::U64(self.config.max_team as u64)),
            ("max_cores", Json::U64(self.config.max_cores as u64)),
            (
                "sabotage",
                match self.config.sabotage {
                    Some(s) => Json::Str(s.name().to_owned()),
                    None => Json::Null,
                },
            ),
        ]);
        let failure = Json::obj([
            ("oracle", Json::Str(self.failure.oracle.to_owned())),
            ("class", Json::Str(self.failure.class.clone())),
            ("detail", Json::Str(self.failure.detail.clone())),
        ]);
        let shrink = match self.shrunk {
            Some(s) => Json::obj([
                ("units_before", Json::U64(s.units_before as u64)),
                ("units_after", Json::U64(s.units_after as u64)),
                ("attempts", Json::U64(s.attempts as u64)),
            ]),
            None => Json::Null,
        };
        Json::obj([
            ("schema", Json::Str(CORPUS_SCHEMA.to_owned())),
            ("seed", Json::U64(self.seed)),
            ("case", Json::U64(self.case)),
            ("kind", Json::Str(self.program.kind.name().to_owned())),
            ("cores", Json::U64(self.program.cores as u64)),
            ("max_cycles", Json::U64(self.program.max_cycles)),
            ("config", cfg),
            ("failure", failure),
            ("shrink", shrink),
        ])
    }

    /// Writes the entry under `root`, returning the case directory.
    pub fn write(&self, root: &Path) -> io::Result<PathBuf> {
        let dir = root.join(self.dir_name());
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join(self.program.file_name()), self.program.render())?;
        if let Some(s) = self.shrunk {
            let name = format!("shrunk.{}", if self.program.is_c() { "c" } else { "s" });
            std::fs::write(dir.join(name), s.program.render())?;
        }
        let mut meta = String::new();
        self.meta_json().write_pretty(&mut meta);
        meta.push('\n');
        std::fs::write(dir.join("meta.json"), meta)?;
        if let Some(dump) = &self.failure.dump {
            std::fs::write(dir.join("dump.json"), format!("{dump}\n"))?;
        }
        Ok(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Kind, Segment};
    use lbp_testutil::harness;

    #[test]
    fn corpus_layout_round_trips() {
        let program = GenProgram {
            kind: Kind::Seq,
            cores: 1,
            max_cycles: 1000,
            codegen_sabotage: None,
            segments: vec![Segment::Fixed("main:\n    p_ret\n".to_owned())],
        };
        let failure = Failure {
            oracle: "run",
            class: "mem".to_owned(),
            detail: "store fault".to_owned(),
            dump: Some("{\"schema\":\"lbp-dump-v1\"}".to_owned()),
        };
        let cfg = GenConfig::default();
        let entry = CorpusEntry {
            seed: 1,
            case: 17,
            config: &cfg,
            program: &program,
            failure: &failure,
            shrunk: None,
        };
        let root = harness::scratch_dir("fuzz-corpus-test");
        let dir = entry.write(&root).unwrap();
        assert_eq!(dir.file_name().unwrap(), "case-0017-seq");
        assert!(dir.join("program.s").exists());
        assert!(dir.join("dump.json").exists());
        let meta = std::fs::read_to_string(dir.join("meta.json")).unwrap();
        let parsed = Json::parse(&meta).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(CORPUS_SCHEMA));
        assert_eq!(parsed.get("case").unwrap().as_u64(), Some(17));
        assert_eq!(
            parsed
                .get("failure")
                .unwrap()
                .get("class")
                .unwrap()
                .as_str(),
            Some("mem")
        );
        harness::scratch_cleanup(&root);
    }
}
