//! The Deterministic OpenMP program builder — the `det_omp.h` of this
//! reproduction.
//!
//! A [`DetOmp`] program is a sequence of *steps* executed by hart 0 of
//! core 0: sequential assembly blocks and parallel regions. Parallel
//! regions distribute an ordered team over consecutive harts (filling
//! each core's four harts before expanding to the next core, paper
//! Fig. 3) and are separated from the following step by the hardware
//! barrier of ordered `p_ret` commits — no locks, no OS.

use lbp_asm::{Asm, AsmError, Image, Section};
use lbp_isa::{BranchKind, Instr, OpImmKind, OpKind, Reg};

use crate::codegen::{emit_parallel_region, p_set_t0, TeamBody};

/// A reduction operator for [`DetOmp::collect_reduction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Integer sum.
    Add,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

/// One step of the program.
#[derive(Debug, Clone)]
enum Step {
    Seq(String),
    /// A `parallel for` or `parallel sections` region.
    Region {
        body: TeamBody,
        threads: usize,
        arg: Option<String>,
    },
    CollectReduction {
        slot: u32,
        count: usize,
        op: ReduceOp,
        dest: String,
    },
}

/// A global data definition.
#[derive(Debug, Clone)]
enum DataDef {
    Words {
        name: String,
        values: Vec<i64>,
    },
    Space {
        name: String,
        bytes: u32,
    },
    /// A `parallel sections` table: the address of each member function.
    Table {
        name: String,
        functions: Vec<String>,
    },
}

/// Builder for a Deterministic OpenMP program.
///
/// # Examples
///
/// A `parallel for` over 8 harts where each member writes its index:
///
/// ```
/// use lbp_omp::DetOmp;
///
/// let image = DetOmp::new(8)
///     .data_space("v", 8 * 4)
///     .function(
///         "thread",
///         "la   a2, v
///          slli a3, a0, 2
///          add  a2, a2, a3
///          sw   a0, 0(a2)
///          p_ret",
///     )
///     .parallel_for("thread")
///     .build()?;
/// assert!(image.symbol("v").is_some());
/// # Ok::<(), lbp_asm::AsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DetOmp {
    num_threads: usize,
    data: Vec<DataDef>,
    functions: Vec<(String, String)>,
    steps: Vec<Step>,
    section_tables: usize,
}

impl DetOmp {
    /// Creates a program whose parallel regions default to `num_threads`
    /// team members (the `omp_set_num_threads` of the paper's Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize) -> DetOmp {
        assert!(num_threads >= 1, "need at least one thread");
        DetOmp {
            num_threads,
            data: Vec::new(),
            functions: Vec::new(),
            steps: Vec::new(),
            section_tables: 0,
        }
    }

    /// Declares an initialized global array in shared memory.
    pub fn data_words(mut self, name: impl Into<String>, values: &[i64]) -> DetOmp {
        self.data.push(DataDef::Words {
            name: name.into(),
            values: values.to_vec(),
        });
        self
    }

    /// Declares a zeroed global region in shared memory.
    pub fn data_space(mut self, name: impl Into<String>, bytes: u32) -> DetOmp {
        self.data.push(DataDef::Space {
            name: name.into(),
            bytes,
        });
        self
    }

    /// Defines a function. Team thread functions receive their member
    /// index in `a0` and the region's data pointer in `a1`, must preserve
    /// `t0`, and must end with `p_ret`; ordinary helpers end with `ret`.
    pub fn function(mut self, name: impl Into<String>, body: impl Into<String>) -> DetOmp {
        self.functions.push((name.into(), body.into()));
        self
    }

    /// Appends a sequential assembly step (runs on hart 0; must preserve
    /// `t0` and `sp`).
    pub fn seq(mut self, asm: impl Into<String>) -> DetOmp {
        self.steps.push(Step::Seq(asm.into()));
        self
    }

    /// Appends a `parallel for` region over the default team size.
    pub fn parallel_for(self, function: impl Into<String>) -> DetOmp {
        let n = self.num_threads;
        self.parallel_for_n(function, n)
    }

    /// Appends a `parallel for` region with an explicit team size.
    pub fn parallel_for_n(mut self, function: impl Into<String>, threads: usize) -> DetOmp {
        let body = TeamBody::Uniform {
            function: function.into(),
        };
        self.steps.push(Step::Region {
            body,
            threads,
            arg: None,
        });
        self
    }

    /// Appends a `parallel for` whose members also receive a data symbol
    /// in `a1`.
    pub fn parallel_for_arg(
        mut self,
        function: impl Into<String>,
        arg: impl Into<String>,
    ) -> DetOmp {
        let body = TeamBody::Uniform {
            function: function.into(),
        };
        self.steps.push(Step::Region {
            body,
            threads: self.num_threads,
            arg: Some(arg.into()),
        });
        self
    }

    /// Appends a `parallel sections` region: one team member per listed
    /// function (the paper's Fig. 16 sensor pattern).
    pub fn parallel_sections(mut self, functions: &[&str]) -> DetOmp {
        assert!(!functions.is_empty(), "sections need at least one function");
        let table = format!("_omp_sections_{}", self.section_tables);
        self.section_tables += 1;
        self.steps.push(Step::Region {
            body: TeamBody::Sections {
                table: table.clone(),
            },
            threads: functions.len(),
            arg: None,
        });
        self.data.push(DataDef::Table {
            name: table,
            functions: functions.iter().map(|f| (*f).to_owned()).collect(),
        });
        self
    }

    /// Appends a sequential step that receives `count` partial values in
    /// result-buffer slot `slot` (sent by team members with `p_swre`),
    /// folds them with `op`, and stores the result at symbol `dest`.
    pub fn collect_reduction(
        mut self,
        slot: u32,
        count: usize,
        op: ReduceOp,
        dest: impl Into<String>,
    ) -> DetOmp {
        self.steps.push(Step::CollectReduction {
            slot,
            count,
            op,
            dest: dest.into(),
        });
        self
    }

    /// The default team size.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Generates the complete assembly source: the runtime's own lines,
    /// written through [`Asm`], with each user body pasted between them.
    pub fn source(&self) -> String {
        let mut a = Asm::new();
        // The listing so far: `a`'s text up to byte `taken`, and bodies.
        let mut out = String::new();
        let mut taken = 0;
        let mut paste = |a: &Asm, body: &str| {
            out.push_str(&a.text()[taken..]);
            taken = a.text().len();
            for line in body.lines() {
                out.push_str("    ");
                out.push_str(line.trim());
                out.push('\n');
            }
        };
        a.comment("Generated by Deterministic OpenMP (lbp-omp)");
        a.label("main");
        a.li(Reg::T0, -1);
        a.op_imm(OpImmKind::Add, Reg::SP, Reg::SP, -8);
        a.sw(Reg::RA, 0, Reg::SP).sw(Reg::T0, 4, Reg::SP);
        p_set_t0(&mut a);
        for step in &self.steps {
            match step {
                Step::Seq(body) => {
                    a.blank();
                    a.comment("--- sequential step ---");
                    paste(&a, body);
                }
                Step::Region { body, threads, arg } => {
                    emit_parallel_region(&mut a, *threads, body, arg.as_deref());
                }
                // With no values to fold, `dest` keeps its initial value.
                Step::CollectReduction { count: 0, .. } => {}
                Step::CollectReduction {
                    slot,
                    count,
                    op,
                    dest,
                } => {
                    a.blank();
                    a.comment(format!(
                        "--- collect {count} partial value(s) from slot {slot} ---"
                    ));
                    let offset = i32::try_from(*slot).unwrap_or(i32::MAX);
                    // The first value seeds the accumulator; the rest fold.
                    a.instr(Instr::PLwre {
                        rd: Reg::A2,
                        offset,
                    });
                    for i in 1..*count {
                        a.instr(Instr::PLwre {
                            rd: Reg::A3,
                            offset,
                        });
                        match op {
                            ReduceOp::Add => {
                                a.op(OpKind::Add, Reg::A2, Reg::A2, Reg::A3);
                            }
                            ReduceOp::Min | ReduceOp::Max => {
                                let keep = a.fresh_label(&format!("rkeep{i}"));
                                let (x, y) = match op {
                                    ReduceOp::Min => (Reg::A3, Reg::A2),
                                    _ => (Reg::A2, Reg::A3),
                                };
                                a.branch(BranchKind::Ge, x, y, &keep);
                                a.mv(Reg::A2, Reg::A3).label(&keep);
                            }
                        }
                    }
                    a.la(Reg::A4, dest).sw(Reg::A2, 0, Reg::A4);
                }
            }
        }
        a.blank();
        a.comment("--- exit ---");
        a.lw(Reg::RA, 0, Reg::SP).lw(Reg::T0, 4, Reg::SP);
        a.op_imm(OpImmKind::Add, Reg::SP, Reg::SP, 8);
        a.p_ret();
        // Functions.
        for (name, body) in &self.functions {
            a.blank();
            a.label(name);
            paste(&a, body);
        }
        // Data.
        a.blank();
        a.section(Section::Data);
        for d in &self.data {
            match d {
                DataDef::Words { name, values } => {
                    a.label(name);
                    for &v in values {
                        a.word(v);
                    }
                }
                DataDef::Table { name, functions } => {
                    a.label(name);
                    for f in functions {
                        a.word_label(f);
                    }
                }
                DataDef::Space { name, bytes } => {
                    a.align(4);
                    a.label(name);
                    a.space((*bytes).into());
                }
            }
        }
        out.push_str(&a.text()[taken..]);
        out
    }

    /// Generates and assembles the program.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors (line numbers refer to
    /// [`DetOmp::source`]).
    pub fn build(&self) -> Result<Image, AsmError> {
        lbp_asm::assemble(&self.source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_contains_protocol() {
        let p = DetOmp::new(8)
            .function("thread", "p_ret")
            .parallel_for("thread");
        let src = p.source();
        assert!(src.contains("p_fc"));
        assert!(src.contains("p_fn"));
        assert!(src.contains("p_syncm"));
        assert!(src.contains("p_merge"));
        assert!(p.build().is_ok(), "{src}");
    }

    #[test]
    fn sections_emit_table() {
        let p = DetOmp::new(4)
            .function("s0f", "p_ret")
            .function("s1f", "p_ret")
            .parallel_sections(&["s0f", "s1f"]);
        let src = p.source();
        assert!(src.contains("_omp_sections_0"));
        assert!(src.contains(".word s0f"));
        let image = p.build().unwrap();
        let table = image.symbol("_omp_sections_0").unwrap();
        let w0 = image.data
            [(table - lbp_isa::SHARED_BASE) as usize..(table - lbp_isa::SHARED_BASE + 4) as usize]
            .try_into()
            .map(u32::from_le_bytes)
            .unwrap();
        assert_eq!(Some(w0), image.symbol("s0f"));
    }

    #[test]
    fn reduction_step_assembles() {
        let p = DetOmp::new(4)
            .data_words("out", &[0])
            .function("thread", "p_swre a0, t1, 0\n p_ret")
            .parallel_for("thread")
            .collect_reduction(0, 4, ReduceOp::Add, "out");
        assert!(p.build().is_ok(), "{}", p.source());
    }

    /// A wrong body fails at its own line of the listing `source` prints.
    #[test]
    fn a_wrong_body_fails_at_its_line_of_the_source() {
        let p = DetOmp::new(6)
            .data_words("out", &[0])
            .function("s0f", "p_swre a0, t1, 1\n p_ret")
            .function("s1f", "p_swre a0, t1, 1\n p_ret")
            .function("thread", "p_swre a0, t1, 0\n p_ret")
            .parallel_for("thread")
            .collect_reduction(0, 6, ReduceOp::Max, "out")
            .parallel_sections(&["s0f", "s1f"])
            .collect_reduction(1, 2, ReduceOp::Min, "out");
        assert!(p.build().is_ok(), "{}", p.source());
        let bad = p.seq("nop\n  addi a0, a0, $");
        let e = bad.build().unwrap_err();
        let source = bad.source();
        assert_eq!(source.lines().nth(e.line - 1), Some("    addi a0, a0, $"));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = DetOmp::new(0);
    }
}
