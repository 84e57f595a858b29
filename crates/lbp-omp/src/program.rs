//! The Deterministic OpenMP program builder — the `det_omp.h` of this
//! reproduction.
//!
//! A [`DetOmp`] program is a sequence of *steps* executed by hart 0 of
//! core 0: sequential assembly blocks and parallel regions. Parallel
//! regions distribute an ordered team over consecutive harts (filling
//! each core's four harts before expanding to the next core, paper
//! Fig. 3) and are separated from the following step by the hardware
//! barrier of ordered `p_ret` commits — no locks, no OS.

use lbp_asm::{Asm, AsmError, Image};

use crate::codegen::{emit_parallel_region, TeamBody};

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
    ParallelFor {
        function: String,
        threads: usize,
        arg: Option<String>,
    },
    ParallelSections {
        table: String,
        count: usize,
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
        self.steps.push(Step::ParallelFor {
            function: function.into(),
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
        let threads = self.num_threads;
        self.steps.push(Step::ParallelFor {
            function: function.into(),
            threads,
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
        self.steps.push(Step::ParallelSections {
            table: table.clone(),
            count: functions.len(),
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

    /// Generates the complete assembly source.
    pub fn source(&self) -> String {
        self.asm().into_text()
    }

    /// The program's listing and items.
    fn asm(&self) -> Asm {
        let mut a = Asm::new();
        a.comment("Generated by Deterministic OpenMP (lbp-omp)");
        a.label("main");
        a.line("li   t0, -1");
        a.line("addi sp, sp, -8");
        a.line("sw   ra, 0(sp)");
        a.line("sw   t0, 4(sp)");
        a.line("p_set t0");
        for step in &self.steps {
            match step {
                Step::Seq(body) => {
                    a.blank();
                    a.comment("--- sequential step ---");
                    a.raw(indent(body));
                }
                Step::ParallelFor {
                    function,
                    threads,
                    arg,
                } => {
                    emit_parallel_region(
                        &mut a,
                        *threads,
                        &TeamBody::Uniform {
                            function: function.clone(),
                        },
                        arg.as_deref(),
                    );
                }
                Step::ParallelSections { table, count } => {
                    emit_parallel_region(
                        &mut a,
                        *count,
                        &TeamBody::Sections {
                            table: table.clone(),
                        },
                        None,
                    );
                }
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
                    // The first value seeds the accumulator; the rest fold.
                    a.line(format!("p_lwre a2, {slot}"));
                    for i in 1..*count {
                        a.line(format!("p_lwre a3, {slot}"));
                        match op {
                            ReduceOp::Add => {
                                a.line("add  a2, a2, a3");
                            }
                            ReduceOp::Min | ReduceOp::Max => {
                                let keep = a.fresh_label(&format!("rkeep{i}"));
                                if matches!(op, ReduceOp::Min) {
                                    a.line(format!("bge  a3, a2, {keep}"));
                                } else {
                                    a.line(format!("bge  a2, a3, {keep}"));
                                }
                                a.line("mv   a2, a3");
                                a.label(&keep);
                            }
                        }
                    }
                    a.line(format!("la   a4, {dest}"));
                    a.line("sw   a2, 0(a4)");
                }
            }
        }
        a.blank();
        a.comment("--- exit ---");
        a.line("lw   ra, 0(sp)");
        a.line("lw   t0, 4(sp)");
        a.line("addi sp, sp, 8");
        a.line("p_ret");
        // Functions.
        for (name, body) in &self.functions {
            a.blank();
            a.label(name);
            a.raw(indent(body));
        }
        // Data.
        a.blank();
        a.line(".data");
        for d in &self.data {
            match d {
                DataDef::Words { name, values } => {
                    a.label(name);
                    for v in values {
                        a.line(format!(".word {v}"));
                    }
                }
                DataDef::Table { name, functions } => {
                    a.label(name);
                    for f in functions {
                        a.word_label(f);
                    }
                }
                DataDef::Space { name, bytes } => {
                    a.line(".align 4");
                    a.label(name);
                    a.line(format!(".space {bytes}"));
                }
            }
        }
        a
    }

    /// Generates and assembles the program.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors (line numbers refer to
    /// [`DetOmp::source`]).
    pub fn build(&self) -> Result<Image, AsmError> {
        self.asm().assemble()
    }
}

/// Indents a raw body so it cannot shadow labels, keeping `name:` lines
/// at the margin readable in dumps.
fn indent(body: &str) -> String {
    body.lines()
        .map(|l| format!("    {}\n", l.trim()))
        .collect()
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

    /// `build` assembles the builder's items; its source assembles to the
    /// same image, and a wrong body fails at the same line either way.
    #[test]
    fn build_equals_assembling_the_source() {
        let p = DetOmp::new(6)
            .data_words("out", &[0])
            .function("s0f", "p_swre a0, t1, 1\n p_ret")
            .function("s1f", "p_swre a0, t1, 1\n p_ret")
            .function("thread", "p_swre a0, t1, 0\n p_ret")
            .parallel_for("thread")
            .collect_reduction(0, 6, ReduceOp::Max, "out")
            .parallel_sections(&["s0f", "s1f"])
            .collect_reduction(1, 2, ReduceOp::Min, "out");
        assert_eq!(p.build(), lbp_asm::assemble(&p.source()));
        let bad = p.seq("addi a0, a0, $");
        assert_eq!(bad.build(), lbp_asm::assemble(&bad.source()));
        assert!(bad.build().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = DetOmp::new(0);
    }
}
