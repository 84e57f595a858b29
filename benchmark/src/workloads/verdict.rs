//! `src_to_verdict`: the toolchain alone, from source text to a verdict.
//!
//! On short programs the simulator still takes most of source-to-report,
//! so a change to a tool stage is invisible unless the tools run without
//! it. No `Machine` is built here.

use lbp_fuzz::gen::{self, GenConfig, Kind};
use lbp_kernels::matmul::{Matmul, Version};
use lbp_sema::{InterpOptions, Layout};
use lbp_testutil::Rng;
use lbp_verify::{Diag, Severity};

use super::cx::assemble;
use super::{Outcome, Workload};
use crate::reference::repo_root;
use crate::trace::Tracer;

/// Generated programs of each language.
const SEEDED_PER_LANGUAGE: u64 = 48;

#[derive(Clone, Copy, PartialEq)]
enum Lang {
    /// Mini-C: lint, compile, verify the image, interpret.
    C,
    /// PISC assembly: assemble, verify the image.
    Asm,
}

/// The known answer of a program. For mini-C, `Reject` and `Flagged`
/// speak of the source lint, as `source_lint.rs` does.
#[derive(Clone, Copy)]
enum Expect {
    /// Rejected, and the error codes are exactly these.
    Reject(&'static [&'static str]),
    /// Accepted, and its warnings (its notes, if it has no warning) all
    /// carry this one code.
    Flagged(&'static str),
    /// Accepted by every analysis that runs on it.
    Accept,
    /// A generated program: the verdict of the warm-up iteration.
    Repeat,
}

/// The shipped red and amber inputs with the codes their own tests pin
/// (`binary_reject.rs`, `m_codes.rs` and `source_lint.rs` of lbp-verify).
const FIXTURES: [(&str, Expect); 21] = [
    ("examples/asm/hung.s", Expect::Reject(&["LBP-B001"])),
    ("lwcv_never_sent.s", Expect::Reject(&["LBP-B002"])),
    ("swcv_no_fork.s", Expect::Reject(&["LBP-B003"])),
    ("start_unmerged.s", Expect::Reject(&["LBP-B004"])),
    ("missing_syncm.s", Expect::Reject(&["LBP-B005"])),
    ("cont_slot_missing.s", Expect::Reject(&["LBP-B006"])),
    ("bad_ret.s", Expect::Reject(&["LBP-B007"])),
    ("falls_off.s", Expect::Reject(&["LBP-B008"])),
    ("m_overlap_write.s", Expect::Reject(&["LBP-M001"])),
    ("m_racing_read.s", Expect::Reject(&["LBP-M002"])),
    ("m_unprovable_subscript.s", Expect::Flagged("LBP-M003")),
    ("m_unknown_store.s", Expect::Flagged("LBP-M004")),
    ("m_escaping_pointer.s", Expect::Flagged("LBP-M005")),
    ("m_bank_alias.s", Expect::Flagged("LBP-M006")),
    ("race_dynamic_only.s", Expect::Flagged("LBP-M004")),
    ("bad_sema.c", Expect::Reject(&["LBP-C001"])),
    ("race_scalar.c", Expect::Reject(&["LBP-S001"])),
    ("race_const_index.c", Expect::Reject(&["LBP-S002"])),
    ("race_carried.c", Expect::Reject(&["LBP-S003"])),
    ("race_opaque.c", Expect::Flagged("LBP-S004")),
    ("race_pointer.c", Expect::Flagged("LBP-S005")),
];

/// The shipped green inputs.
const GREEN: [&str; 6] = [
    "examples/c/hello_team.c",
    "examples/c/matmul.c",
    "examples/c/reduce.c",
    "examples/c/set_get.c",
    "examples/asm/fork2.s",
    "examples/asm/mul.s",
];

struct Program {
    name: String,
    lang: Lang,
    source: String,
    expect: Expect,
}

/// What a set of diagnostics amounts to: the verdict and the codes of
/// each severity, sorted and without repeats.
#[derive(Debug, PartialEq)]
struct Verdict {
    accepted: bool,
    errors: Vec<&'static str>,
    warnings: Vec<&'static str>,
    notes: Vec<&'static str>,
}

impl Verdict {
    fn of(diags: &[Diag]) -> Verdict {
        let codes = |severity: Severity| {
            let mut v: Vec<&'static str> = diags
                .iter()
                .filter(|d| d.severity == severity)
                .map(|d| d.code.as_str())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        Verdict {
            accepted: lbp_verify::accepted(diags),
            errors: codes(Severity::Error),
            warnings: codes(Severity::Warning),
            notes: codes(Severity::Info),
        }
    }

    /// `None` when the verdict is the known answer.
    fn disagrees_with(&self, expect: Expect) -> Option<String> {
        let ok = match expect {
            Expect::Reject(codes) => !self.accepted && self.errors == codes,
            Expect::Flagged(code) => {
                let loudest = if self.warnings.is_empty() {
                    &self.notes
                } else {
                    &self.warnings
                };
                self.accepted && *loudest == [code]
            }
            Expect::Accept => self.accepted,
            Expect::Repeat => true,
        };
        (!ok).then(|| format!("verdict {self}"))
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let word = if self.accepted { "accept" } else { "reject" };
        write!(
            f,
            "{word} {:?} {:?} {:?}",
            self.errors, self.warnings, self.notes
        )
    }
}

/// The corpus: 37 shipped sources and 96 generated from the seed.
pub struct Corpus {
    programs: Vec<Program>,
    /// Code words of the shipped sources' images; the generated ones
    /// change with the seed and are left out so the count repeats.
    shipped_code_words: u64,
}

impl Corpus {
    /// Reads the shipped sources, renders the kernels and generates the
    /// seeded programs.
    pub fn new(seed: u64, t: &Tracer) -> Result<Corpus, String> {
        let root = repo_root();
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
        };
        let lang_of = |name: &str| {
            if name.ends_with(".c") {
                Lang::C
            } else {
                Lang::Asm
            }
        };
        let mut programs = Vec::new();
        for (name, expect) in FIXTURES {
            let rel = if name.contains('/') {
                name.to_owned()
            } else {
                format!("crates/lbp-verify/tests/fixtures/{name}")
            };
            programs.push(Program {
                name: name.to_owned(),
                lang: lang_of(name),
                source: read(&rel)?,
                expect,
            });
        }
        for name in GREEN {
            programs.push(Program {
                name: name.to_owned(),
                lang: lang_of(name),
                source: read(name)?,
                expect: Expect::Accept,
            });
        }
        for harts in [16, 64] {
            for version in Version::ALL {
                let _build = t.span("kernels.build");
                programs.push(Program {
                    name: format!("matmul/{}/h{harts}.s", version.name()),
                    lang: Lang::Asm,
                    source: Matmul::new(harts, version).program().source(),
                    expect: Expect::Accept,
                });
            }
        }
        let shipped = programs.len();

        let families = [vec![Kind::C], vec![Kind::Seq, Kind::Mem, Kind::Fork]];
        for (kinds, first) in families.into_iter().zip([0, SEEDED_PER_LANGUAGE]) {
            let cfg = GenConfig {
                kinds,
                ..GenConfig::default()
            };
            for case in first..first + SEEDED_PER_LANGUAGE {
                let mut rng = Rng::new(lbp_fuzz::case_seed(seed, case));
                let program = gen::generate(&mut rng, &cfg, case);
                programs.push(Program {
                    name: format!("seeded/{case}/{}", program.file_name()),
                    lang: if program.is_c() { Lang::C } else { Lang::Asm },
                    source: program.render(),
                    expect: Expect::Repeat,
                });
            }
        }

        let shipped_code_words = programs[..shipped]
            .iter()
            .map(|p| match p.lang {
                Lang::C => lbp_cc::compile(&p.source).map_or(0, |c| c.image.text.len()),
                Lang::Asm => assemble(t, &p.source).map_or(0, |image| image.text.len()),
            })
            .sum::<usize>() as u64;
        Ok(Corpus {
            programs,
            shipped_code_words,
        })
    }

    /// Source text to verdict for one mini-C program.
    fn judge_c(t: &Tracer, source: &str, expect: Expect) -> (String, Option<String>) {
        let lint = {
            let _lint = t.span("cc.lint");
            lbp_cc::lint(source)
        };
        let compiled = {
            let span = t.span("cc.compile");
            let compiled = lbp_cc::compile(source);
            span.count("source_bytes", source.len() as f64);
            if let Ok(c) = &compiled {
                span.count("asm_lines", c.asm.lines().count() as f64);
            }
            compiled
        };
        let image_verdict = compiled.as_ref().ok().map(|c| verify(t, &c.image));

        // The staged front end, as `lbp_cc::front_end` chains it.
        let tokens = {
            let _lex = t.span("cc.lex");
            lbp_cc::lex::lex(source)
        };
        let unit = tokens.and_then(|tokens| {
            let _parse = t.span("cc.parse");
            lbp_cc::parse::parse(tokens)
        });
        let checked = unit.and_then(|unit| {
            let _sema = t.span("cc.sema");
            lbp_cc::sema::check(unit)
        });
        let meaning = match &checked {
            Ok(cx) => {
                let layout = match &compiled {
                    Ok(c) => Layout::from_image(cx, &c.image),
                    Err(_) => Layout::synthetic(cx),
                };
                let span = t.span("sema.interp");
                match lbp_sema::interp::run(cx, &layout, &InterpOptions::default()) {
                    Ok(outcome) => format!("{:016x}", outcome.content_hash()),
                    Err(trap) => {
                        span.count("traps", 1.0);
                        format!("trap:{}", trap.class)
                    }
                }
            }
            Err(_) => "none".to_owned(),
        };

        let lint_verdict = lint.as_ref().ok().map(|d| Verdict::of(d));
        let show =
            |v: &Option<Verdict>| v.as_ref().map_or("unbuilt".to_owned(), Verdict::to_string);
        let text = format!(
            "lint: {} image: {} meaning: {meaning}",
            show(&lint_verdict),
            show(&image_verdict)
        );
        let wrong = match (&lint_verdict, expect) {
            (None, _) => Some("source does not parse".to_owned()),
            (Some(v), Expect::Accept) => {
                v.disagrees_with(expect).or_else(|| match &image_verdict {
                    Some(image) => image.disagrees_with(expect),
                    None => Some("does not compile".to_owned()),
                })
            }
            (Some(v), _) => v.disagrees_with(expect),
        };
        (text, wrong)
    }

    /// Source text to verdict for one assembly program.
    fn judge_asm(t: &Tracer, source: &str, expect: Expect) -> (String, Option<String>) {
        match assemble(t, source) {
            Ok(image) => {
                let verdict = verify(t, &image);
                (format!("image: {verdict}"), verdict.disagrees_with(expect))
            }
            Err(e) => {
                let wrong = (!matches!(expect, Expect::Repeat)).then(|| e.clone());
                (format!("unassembled: {e}"), wrong)
            }
        }
    }
}

/// `lbp_verify::verify_image` under its span, with its counts.
fn verify(t: &Tracer, image: &lbp_asm::Image) -> Verdict {
    let span = t.span("verify.image");
    let diags = lbp_verify::verify_image(image);
    span.count("diags", diags.len() as f64);
    let verdict = Verdict::of(&diags);
    span.count("rejected", f64::from(u8::from(!verdict.accepted)));
    verdict
}

impl Workload for Corpus {
    fn iterate(&self, t: &Tracer) -> Outcome {
        let mut out = Outcome {
            ops: self.programs.len() as u64,
            ..Outcome::default()
        };
        let mut verdicts = String::new();
        for p in &self.programs {
            let (text, wrong) = match p.lang {
                Lang::C => Corpus::judge_c(t, &p.source, p.expect),
                Lang::Asm => Corpus::judge_asm(t, &p.source, p.expect),
            };
            if let Some(why) = wrong {
                out.fail(|| format!("{}: {why}", p.name));
            }
            verdicts.push_str(&format!("{} {text}\n", p.name));
        }
        out.check_hash = lbp_snap::fnv1a64(verdicts.as_bytes());
        out
    }

    /// What the assembler costs on the compiler's own output, which
    /// `cc.compile` contains but does not show.
    fn probe(&self, t: &Tracer) {
        for p in self.programs.iter().filter(|p| p.lang == Lang::C) {
            if let Ok(compiled) = lbp_cc::compile(&p.source) {
                let _assemble = t.span("cc.assemble_output");
                let _ = std::hint::black_box(lbp_asm::assemble(&compiled.asm));
            }
        }
    }

    fn code_words(&self) -> u64 {
        self.shipped_code_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corpus_is_what_the_workload_says() {
        let corpus = Corpus::new(42, &Tracer::disabled()).unwrap();
        let count = |lang, seeded| {
            corpus
                .programs
                .iter()
                .filter(|p| p.lang == lang && matches!(p.expect, Expect::Repeat) == seeded)
                .count()
        };
        assert_eq!(count(Lang::C, false), 4 + 6);
        assert_eq!(count(Lang::Asm, false), 3 + 14 + 10);
        assert_eq!(count(Lang::C, true), 48);
        assert_eq!(count(Lang::Asm, true), 48);
        let other = Corpus::new(7, &Tracer::disabled()).unwrap();
        assert_eq!(other.code_words(), corpus.code_words());
        assert!(other
            .programs
            .iter()
            .zip(&corpus.programs)
            .any(|(a, b)| a.source != b.source));
    }

    #[test]
    fn a_wrong_known_answer_is_a_failed_operation() {
        let t = Tracer::disabled();
        let hung = std::fs::read_to_string(repo_root().join("examples/asm/hung.s")).unwrap();
        assert_eq!(
            Corpus::judge_asm(&t, &hung, Expect::Reject(&["LBP-B001"])).1,
            None
        );
        assert!(Corpus::judge_asm(&t, &hung, Expect::Accept).1.is_some());
        assert!(Corpus::judge_asm(&t, &hung, Expect::Reject(&["LBP-B002"]))
            .1
            .is_some());
    }
}
