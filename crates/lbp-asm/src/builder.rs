//! A code-generation builder that holds a program twice: as the listing
//! a reader sees and as the [`SourceItem`]s the assembler consumes.
//!
//! The Deterministic OpenMP runtime (`lbp-omp`) and the mini-C compiler
//! (`lbp-cc`) both generate programs through [`Asm`]. Every generated
//! program stays inspectable — the exact listing can be dumped, diffed
//! against the paper's figures, and assembled by the same two-pass
//! assembler users run on hand-written code.
//!
//! There are two ways to add a line:
//!
//! - A **typed call** ([`Asm::instr`], [`Asm::branch`], [`Asm::li`],
//!   [`Asm::la`], [`Asm::mv`], [`Asm::label`], [`Asm::word`], ...) writes
//!   the line's text and, beside it, the items the parser would read from
//!   that text. The parser and the typed calls expand instructions and
//!   pseudo-instructions through one function, so the two cannot drift:
//!   `parse_program(asm.text())` equals [`Asm::items`], line numbers
//!   included. A typed call is never parsed.
//! - A **text call** ([`Asm::line`], [`Asm::raw`]) writes text
//!   only. It is parsed when items are first asked for, by [`Asm::items`],
//!   [`Asm::assemble`] or [`Asm::mark`]; a builder that is only rendered
//!   ([`Asm::text`], [`Asm::into_text`]) parses nothing.
//!
//! An error a typed call cannot avoid (a `li` value wider than a word) is
//! kept and reported by [`Asm::items`] at its line, as the parser would
//! report it. A typed line naming a symbol the parser would not read as
//! one identifier is kept as text, so it parses as it always did.
//!
//! # Examples
//!
//! ```
//! use lbp_asm::{parse_program, Asm};
//! use lbp_isa::Reg;
//!
//! let mut a = Asm::new();
//! a.label("main");
//! a.li(Reg::A0, 41);
//! a.line("addi a0, a0, 1");
//! a.p_ret();
//! assert_eq!(a.text(), "main:\n    li   a0, 41\n    addi a0, a0, 1\n    p_ret\n");
//! assert_eq!(parse_program(a.text())?, a.items()?);
//! let image = a.assemble()?;
//! assert_eq!(image.text.len(), 3);
//! # Ok::<(), lbp_asm::AsmError>(())
//! ```

use std::fmt::Write as _;

use lbp_isa::{BranchKind, Instr, OpImmKind, OpKind, Reg};

use crate::assemble::assemble_items;
use crate::error::AsmError;
use crate::expr::Expr;
use crate::image::Image;
use crate::item::{Item, Section, SourceItem};
use crate::parser::{self, expand, is_ident, parse_expr, parse_program, Mnemonic, Operands};

/// An assembly listing with the items it stands for, and label
/// management.
#[derive(Debug, Clone, Default)]
pub struct Asm {
    text: String,
    /// The items of every typed call, and of the text calls parsed so far.
    items: Vec<SourceItem>,
    /// Text calls not parsed yet, in order.
    unparsed: Vec<Unparsed>,
    /// Lines of `text`.
    lines: usize,
    /// `Item::Instr`s among `items`.
    words: usize,
    /// The error with the lowest line, if any line is wrong.
    error: Option<AsmError>,
    fresh: u32,
}

/// A run of text-call lines whose items are not in `items` yet.
#[derive(Debug, Clone)]
struct Unparsed {
    /// Where in `items` the run's items go.
    at: usize,
    /// Its bytes of `text`.
    start: usize,
    end: usize,
    /// The line number of its first line.
    first_line: usize,
}

/// A position in a builder: where the line after it starts. See
/// [`Asm::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    text: usize,
    items: usize,
    lines: usize,
    words: usize,
}

/// One operand of a typed line.
#[derive(Debug, Clone, Copy)]
enum Op<'a> {
    Reg(Reg),
    Imm(i64),
    Sym(&'a str),
    /// `offset(base)`.
    Mem(i64, Reg),
}

/// The operands of a typed line, handed to the parser's expansion.
struct Typed<'a, 'b> {
    ops: &'b [Op<'a>],
    line: usize,
}

impl Operands for Typed<'_, '_> {
    fn count(&self) -> usize {
        self.ops.len()
    }

    fn reg(&self, i: usize) -> Result<Reg, AsmError> {
        match self.ops[i] {
            Op::Reg(r) => Ok(r),
            op => Err(AsmError::new(
                self.line,
                format!("{op:?} is not a register"),
            )),
        }
    }

    fn expr(&self, i: usize) -> Result<Expr, AsmError> {
        match self.ops[i] {
            Op::Imm(v) => konst(v, self.line),
            // `typed` keeps a line naming anything else as text.
            Op::Sym(s) => Ok(Expr::sym(s)),
            op => Err(AsmError::new(
                self.line,
                format!("{op:?} is not an expression"),
            )),
        }
    }

    fn mem(&self, i: usize) -> Result<(Expr, Reg), AsmError> {
        match self.ops[i] {
            Op::Mem(offset, base) => Ok((konst(offset, self.line)?, base)),
            op => Err(AsmError::new(
                self.line,
                format!("{op:?} is not `offset(base)`"),
            )),
        }
    }
}

/// What the parser reads a printed integer as: a literal of up to 18
/// digits directly, a longer one the long way (which refuses `i64::MIN`).
fn konst(v: i64, line: usize) -> Result<Expr, AsmError> {
    if v.unsigned_abs() < 1_000_000_000_000_000_000 {
        Ok(Expr::Const(v))
    } else {
        parse_expr(&v.to_string(), line)
    }
}

/// Appends the decimal digits of `v`.
fn push_int(text: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        text.push('-');
    }
    text.extend(digits[at..].iter().map(|&d| char::from(d)));
}

impl Asm {
    /// Creates an empty builder.
    pub fn new() -> Asm {
        Asm::default()
    }

    // ----- text calls -----

    /// Appends one instruction or directive line (indented).
    pub fn line(&mut self, line: impl AsRef<str>) -> &mut Asm {
        let start = self.text.len();
        let _ = writeln!(self.text, "    {}", line.as_ref());
        self.unparsed_from(start)
    }

    /// Appends raw multi-line assembly verbatim.
    pub fn raw(&mut self, block: impl AsRef<str>) -> &mut Asm {
        let start = self.text.len();
        self.text.push_str(block.as_ref());
        if !self.text.ends_with('\n') {
            self.text.push('\n');
        }
        self.unparsed_from(start)
    }

    /// Records the text written since byte `start` as lines to parse when
    /// items are asked for.
    fn unparsed_from(&mut self, start: usize) -> &mut Asm {
        let end = self.text.len();
        if start == end {
            return self;
        }
        let first_line = self.lines + 1;
        self.lines += self.text[start..].bytes().filter(|&b| b == b'\n').count();
        match self.unparsed.last_mut() {
            Some(run) if run.at == self.items.len() && run.end == start => run.end = end,
            _ => self.unparsed.push(Unparsed {
                at: self.items.len(),
                start,
                end,
                first_line,
            }),
        }
        self
    }

    // ----- lines without instructions -----

    /// Appends a label definition at column zero.
    pub fn label(&mut self, name: impl AsRef<str>) -> &mut Asm {
        let name = name.as_ref();
        let start = self.text.len();
        self.text.push_str(name);
        self.text.push_str(":\n");
        if !is_ident(name) {
            return self.unparsed_from(start);
        }
        self.lines += 1;
        self.push(Item::Label(name.to_owned()))
    }

    /// Appends a `# comment` line.
    pub fn comment(&mut self, text: impl AsRef<str>) -> &mut Asm {
        let text = text.as_ref();
        let start = self.text.len();
        self.text.push_str("    # ");
        self.text.push_str(text);
        self.text.push('\n');
        if text.contains('\n') {
            return self.unparsed_from(start);
        }
        self.lines += 1;
        self
    }

    /// Appends a blank separator line.
    pub fn blank(&mut self) -> &mut Asm {
        self.text.push('\n');
        self.lines += 1;
        self
    }

    // ----- typed directives -----

    /// `.text` or `.data`.
    pub fn section(&mut self, section: Section) -> &mut Asm {
        self.text.push_str(match section {
            Section::Text => "    .text\n",
            Section::Data => "    .data\n",
        });
        self.lines += 1;
        self.push(Item::Section(section))
    }

    /// `.align bytes`.
    pub fn align(&mut self, bytes: u32) -> &mut Asm {
        self.directive(".align", Op::Imm(bytes.into()));
        if bytes.is_power_of_two() {
            self.push(Item::Align(bytes))
        } else {
            let e = AsmError::new(
                self.lines,
                ".align needs a positive power-of-two byte count",
            );
            self.fail(e);
            self
        }
    }

    /// `.space bytes`.
    pub fn space(&mut self, bytes: i64) -> &mut Asm {
        self.directive(".space", Op::Imm(bytes));
        match konst(bytes, self.lines) {
            Ok(n) => self.push(Item::Space(n)),
            Err(e) => {
                self.fail(e);
                self
            }
        }
    }

    /// `.word value`.
    pub fn word(&mut self, value: i64) -> &mut Asm {
        self.directive(".word", Op::Imm(value));
        match konst(value, self.lines) {
            Ok(v) => self.push(Item::Word(v)),
            Err(e) => {
                self.fail(e);
                self
            }
        }
    }

    /// `.word symbol`: the address of a label.
    pub fn word_label(&mut self, symbol: &str) -> &mut Asm {
        if !is_ident(symbol) {
            return self.line(format!(".word {symbol}"));
        }
        self.directive(".word", Op::Sym(symbol));
        self.push(Item::Word(Expr::sym(symbol)))
    }

    /// Writes a one-operand directive line and counts it.
    fn directive(&mut self, name: &str, operand: Op<'_>) {
        self.text.push_str("    ");
        self.text.push_str(name);
        self.text.push(' ');
        self.render(operand);
        self.text.push('\n');
        self.lines += 1;
    }

    // ----- typed instructions -----

    /// Appends one machine instruction, spelled as its disassembly is
    /// (`p_set t0` for `p_set t0, t0`, `p_ret a2, a3` for a `p_jalr` with
    /// `rd = zero`).
    ///
    /// # Panics
    ///
    /// On a branch, `jal` or `p_jal`: their text operand is a target
    /// address, not a pc-relative offset. Use [`Asm::branch`], [`Asm::j`]
    /// or [`Asm::jal`] with a label.
    pub fn instr(&mut self, instr: Instr) -> &mut Asm {
        use Op::{Imm, Mem, Reg as R};
        let imm = i64::from;
        match instr {
            Instr::Lui { rd, imm: v } => self.typed("lui", &[R(rd), Imm(i64::from(v >> 12))]),
            Instr::Auipc { rd, imm: v } => self.typed("auipc", &[R(rd), Imm(i64::from(v >> 12))]),
            Instr::Jalr { rd, rs1, offset } => self.typed("jalr", &[R(rd), Mem(imm(offset), rs1)]),
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => self.typed(kind.mnemonic(), &[R(rd), Mem(imm(offset), rs1)]),
            Instr::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => self.typed(kind.mnemonic(), &[R(rs2), Mem(imm(offset), rs1)]),
            Instr::OpImm {
                kind,
                rd,
                rs1,
                imm: v,
            } => self.typed(kind.mnemonic(), &[R(rd), R(rs1), Imm(imm(v))]),
            Instr::Op { kind, rd, rs1, rs2 } => {
                self.typed(kind.mnemonic(), &[R(rd), R(rs1), R(rs2)])
            }
            Instr::PFc { rd } => self.typed("p_fc", &[R(rd)]),
            Instr::PFn { rd } => self.typed("p_fn", &[R(rd)]),
            Instr::PSet { rd, rs1 } if rd == rs1 => self.typed("p_set", &[R(rd)]),
            Instr::PSet { rd, rs1 } => self.typed("p_set", &[R(rd), R(rs1)]),
            Instr::PMerge { rd, rs1, rs2 } => self.typed("p_merge", &[R(rd), R(rs1), R(rs2)]),
            Instr::PSyncm => self.typed("p_syncm", &[]),
            Instr::PJalr { rd, rs1, rs2 } if rd.is_zero() => self.typed("p_ret", &[R(rs1), R(rs2)]),
            Instr::PJalr { rd, rs1, rs2 } => self.typed("p_jalr", &[R(rd), R(rs1), R(rs2)]),
            Instr::PLwcv { rd, offset } => self.typed("p_lwcv", &[R(rd), Imm(imm(offset))]),
            Instr::PSwcv { rs1, rs2, offset } => {
                self.typed("p_swcv", &[R(rs2), R(rs1), Imm(imm(offset))])
            }
            Instr::PLwre { rd, offset } => self.typed("p_lwre", &[R(rd), Imm(imm(offset))]),
            Instr::PSwre { rs1, rs2, offset } => {
                self.typed("p_swre", &[R(rs2), R(rs1), Imm(imm(offset))])
            }
            Instr::Branch { .. } | Instr::Jal { .. } | Instr::PJal { .. } => {
                panic!("`{instr}` jumps by an offset; write its target as a label")
            }
        }
    }

    /// `<kind> rd, rs1, rs2`.
    pub fn op(&mut self, kind: OpKind, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.instr(Instr::Op { kind, rd, rs1, rs2 })
    }

    /// `<kind> rd, rs1, imm`.
    pub fn op_imm(&mut self, kind: OpImmKind, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
        self.instr(Instr::OpImm { kind, rd, rs1, imm })
    }

    /// `lw rd, offset(base)`.
    pub fn lw(&mut self, rd: Reg, offset: i32, base: Reg) -> &mut Asm {
        self.typed("lw", &[Op::Reg(rd), Op::Mem(offset.into(), base)])
    }

    /// `sw value, offset(base)`.
    pub fn sw(&mut self, value: Reg, offset: i32, base: Reg) -> &mut Asm {
        self.typed("sw", &[Op::Reg(value), Op::Mem(offset.into(), base)])
    }

    /// `b<kind> rs1, rs2, target`.
    pub fn branch(&mut self, kind: BranchKind, rs1: Reg, rs2: Reg, target: &str) -> &mut Asm {
        self.typed(
            kind.mnemonic(),
            &[Op::Reg(rs1), Op::Reg(rs2), Op::Sym(target)],
        )
    }

    /// `beqz rs, target`.
    pub fn beqz(&mut self, rs: Reg, target: &str) -> &mut Asm {
        self.typed("beqz", &[Op::Reg(rs), Op::Sym(target)])
    }

    /// `bnez rs, target`.
    pub fn bnez(&mut self, rs: Reg, target: &str) -> &mut Asm {
        self.typed("bnez", &[Op::Reg(rs), Op::Sym(target)])
    }

    /// `j target`.
    pub fn j(&mut self, target: &str) -> &mut Asm {
        self.typed("j", &[Op::Sym(target)])
    }

    /// `jal target`: a call that links in `ra`.
    pub fn jal(&mut self, target: &str) -> &mut Asm {
        self.typed("jal", &[Op::Sym(target)])
    }

    /// `jalr rs`: a call through `rs` that links in `ra`.
    pub fn jalr(&mut self, rs: Reg) -> &mut Asm {
        self.typed("jalr", &[Op::Reg(rs)])
    }

    /// `ret`.
    pub fn ret(&mut self) -> &mut Asm {
        self.typed("ret", &[])
    }

    /// `p_ret`: `p_jalr zero, ra, t0`.
    pub fn p_ret(&mut self) -> &mut Asm {
        self.typed("p_ret", &[])
    }

    /// `nop`.
    pub fn nop(&mut self) -> &mut Asm {
        self.typed("nop", &[])
    }

    /// `li rd, value`: one `addi` for a 12-bit value, `lui` and `addi`
    /// for any other 32-bit one. A wider value is an error at this line.
    pub fn li(&mut self, rd: Reg, value: i64) -> &mut Asm {
        self.typed("li", &[Op::Reg(rd), Op::Imm(value)])
    }

    /// `la rd, symbol`: `lui` and `addi` of the symbol's address.
    pub fn la(&mut self, rd: Reg, symbol: &str) -> &mut Asm {
        self.typed("la", &[Op::Reg(rd), Op::Sym(symbol)])
    }

    /// `mv rd, rs`.
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.typed("mv", &[Op::Reg(rd), Op::Reg(rs)])
    }

    /// `not rd, rs`.
    pub fn not(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.typed("not", &[Op::Reg(rd), Op::Reg(rs)])
    }

    /// `neg rd, rs`.
    pub fn neg(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.typed("neg", &[Op::Reg(rd), Op::Reg(rs)])
    }

    /// `seqz rd, rs`.
    pub fn seqz(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.typed("seqz", &[Op::Reg(rd), Op::Reg(rs)])
    }

    /// `snez rd, rs`.
    pub fn snez(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.typed("snez", &[Op::Reg(rd), Op::Reg(rs)])
    }

    /// Writes `mnemonic operands` and pushes the items the parser reads
    /// from that line. The mnemonic is padded to four columns, except a
    /// register-immediate ALU one (`ori t2, t2, 1`), which the generators
    /// have always printed as it is.
    fn typed(&mut self, mnemonic: &str, ops: &[Op<'_>]) -> &mut Asm {
        let meaning = parser::meaning(mnemonic).expect("typed calls spell table mnemonics");
        let start = self.text.len();
        self.text.push_str("    ");
        self.text.push_str(mnemonic);
        if !ops.is_empty() {
            let width = if matches!(meaning, Mnemonic::OpImm(_)) {
                0
            } else {
                4
            };
            for _ in mnemonic.len()..width {
                self.text.push(' ');
            }
            for (i, &op) in ops.iter().enumerate() {
                self.text.push_str(if i == 0 { " " } else { ", " });
                self.render(op);
            }
        }
        self.text.push('\n');
        if ops
            .iter()
            .any(|op| matches!(op, Op::Sym(s) if !is_ident(s)))
        {
            return self.unparsed_from(start);
        }
        self.lines += 1;
        let line = self.lines;
        let before = self.items.len();
        let items = &mut self.items;
        let expanded = expand(meaning, mnemonic, &Typed { ops, line }, line, |item| {
            items.push(SourceItem { item, line })
        });
        self.words += self.items.len() - before;
        if let Err(e) = expanded {
            self.fail(e);
        }
        self
    }

    fn render(&mut self, op: Op<'_>) {
        match op {
            Op::Reg(r) => self.text.push_str(r.abi_name()),
            Op::Imm(v) => push_int(&mut self.text, v),
            Op::Sym(s) => self.text.push_str(s),
            Op::Mem(offset, base) => {
                push_int(&mut self.text, offset);
                self.text.push('(');
                self.text.push_str(base.abi_name());
                self.text.push(')');
            }
        }
    }

    /// Pushes the one item of a label or directive line just written.
    fn push(&mut self, item: Item) -> &mut Asm {
        let line = self.lines;
        self.items.push(SourceItem { item, line });
        self
    }

    /// Keeps `e` if no earlier line is wrong: the parser reports the
    /// first wrong line of a text.
    fn fail(&mut self, e: AsmError) {
        if self.error.as_ref().is_none_or(|kept| e.line < kept.line) {
            self.error = Some(e);
        }
    }

    // ----- reading the program -----

    /// Returns a label name unique within this builder, prefixed for
    /// readability (e.g. `"\_L_loop_0"`).
    pub fn fresh_label(&mut self, prefix: &str) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("_L_{prefix}_{n}")
    }

    /// The listing.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Consumes the builder, returning the listing.
    pub fn into_text(self) -> String {
        self.text
    }

    /// The program's items: what [`parse_program`] reads from
    /// [`Asm::text`], line numbers included. Text calls are parsed here,
    /// once.
    ///
    /// # Errors
    ///
    /// The error of the first wrong line, as the parser reports it.
    pub fn items(&mut self) -> Result<&[SourceItem], AsmError> {
        self.parse_text_calls();
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(&self.items),
        }
    }

    /// Instruction words in the program (text calls are parsed to count
    /// theirs; a wrong line counts none).
    fn words(&mut self) -> usize {
        self.parse_text_calls();
        self.words
    }

    /// Assembles the program's items.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors; line numbers refer to the listing,
    /// available from [`Asm::text`].
    pub fn assemble(&mut self) -> Result<Image, AsmError> {
        assemble_items(self.items()?)
    }

    /// The position the next line goes to, for [`Asm::words_since`] and
    /// [`Asm::replace_line`]: a branch written there can be measured
    /// against the code generated after it, and widened if it falls
    /// short. Text calls written so far are parsed.
    pub fn mark(&mut self) -> Mark {
        self.parse_text_calls();
        Mark {
            text: self.text.len(),
            items: self.items.len(),
            lines: self.lines,
            words: self.words,
        }
    }

    /// Instruction words written since `mark`.
    pub fn words_since(&mut self, mark: Mark) -> usize {
        self.words() - mark.words
    }

    /// Replaces the first line written after `mark` with everything
    /// `with` holds, renumbering the lines after it.
    ///
    /// # Panics
    ///
    /// If nothing was written after `mark`.
    pub fn replace_line(&mut self, mark: Mark, mut with: Asm) -> &mut Asm {
        assert!(mark.lines < self.lines, "no line after the mark");
        self.parse_text_calls();
        with.parse_text_calls();
        let line = mark.lines + 1;
        let end = self.text[mark.text..]
            .find('\n')
            .map_or(self.text.len(), |at| mark.text + at + 1);
        self.text.replace_range(mark.text..end, &with.text);
        let old = self.items[mark.items..]
            .iter()
            .take_while(|si| si.line == line)
            .count();
        let range = mark.items..mark.items + old;
        self.words -= self.items[range.clone()]
            .iter()
            .filter(|si| matches!(si.item, Item::Instr(_)))
            .count();
        for si in &mut self.items[range.end..] {
            si.line = si.line + with.lines - 1;
        }
        if let Some(e) = self.error.as_mut().filter(|e| e.line > line) {
            e.line = e.line + with.lines - 1;
        }
        let items = with.items.into_iter().map(|mut si| {
            si.line += mark.lines;
            si
        });
        self.items.splice(range, items);
        if let Some(mut e) = with.error {
            e.line += mark.lines;
            self.fail(e);
        }
        self.words += with.words;
        self.lines = self.lines + with.lines - 1;
        self
    }

    /// Parses every pending text call and puts its items in place.
    fn parse_text_calls(&mut self) {
        if self.unparsed.is_empty() {
            return;
        }
        let runs = std::mem::take(&mut self.unparsed);
        let mut parsed = Vec::with_capacity(runs.len());
        for run in &runs {
            let offset = run.first_line - 1;
            match parse_program(&self.text[run.start..run.end]) {
                Ok(mut items) => {
                    for si in &mut items {
                        si.line += offset;
                    }
                    self.words += items
                        .iter()
                        .filter(|si| matches!(si.item, Item::Instr(_)))
                        .count();
                    parsed.push(items);
                }
                Err(mut e) => {
                    e.line += offset;
                    self.fail(e);
                    parsed.push(Vec::new());
                }
            }
        }
        let total = self.items.len() + parsed.iter().map(Vec::len).sum::<usize>();
        let mut typed = std::mem::replace(&mut self.items, Vec::with_capacity(total)).into_iter();
        let mut taken = 0;
        for (run, items) in runs.iter().zip(parsed) {
            self.items.extend(typed.by_ref().take(run.at - taken));
            taken = run.at;
            self.items.extend(items);
        }
        self.items.extend(typed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_isa::{LoadKind, StoreKind};

    #[test]
    fn builds_and_assembles() {
        let mut a = Asm::new();
        a.label("main");
        a.comment("the answer");
        a.line("li a0, 42");
        a.line("p_ret");
        let img = a.assemble().unwrap();
        assert_eq!(img.text.len(), 2);
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut a = Asm::new();
        let l1 = a.fresh_label("loop");
        let l2 = a.fresh_label("loop");
        assert_ne!(l1, l2);
    }

    #[test]
    fn raw_blocks_keep_newlines() {
        let mut a = Asm::new();
        a.raw("main: nop");
        a.raw("nop\n");
        assert_eq!(a.assemble().unwrap().text.len(), 2);
    }

    #[test]
    fn text_is_inspectable() {
        let mut a = Asm::new();
        a.label("f").line("ret");
        assert_eq!(a.text(), "f:\n    ret\n");
    }

    /// Every kind of call, interleaved: the items the builder holds are
    /// the ones its listing parses to, line numbers included.
    fn mixed() -> Asm {
        let mut a = Asm::new();
        a.comment("mixed");
        a.label("main");
        a.instr(Instr::OpImm {
            kind: OpImmKind::Add,
            rd: Reg::SP,
            rs1: Reg::SP,
            imm: -96,
        });
        a.instr(Instr::OpImm {
            kind: OpImmKind::Or,
            rd: Reg::T2,
            rs1: Reg::T2,
            imm: 5,
        });
        a.instr(Instr::Store {
            kind: StoreKind::W,
            rs1: Reg::SP,
            rs2: Reg::RA,
            offset: 0,
        });
        a.line("li t0, -1");
        a.instr(Instr::PSet {
            rd: Reg::T0,
            rs1: Reg::T0,
        });
        a.blank();
        a.li(Reg::T2, 7).li(Reg::T3, 0x1234_5678).li(Reg::T4, -2049);
        a.la(Reg::T5, "data");
        a.raw("loop:\n    addi t2, t2, -1\n    bnez t2, loop");
        a.branch(BranchKind::Ge, Reg::T2, Reg::T3, "out");
        a.beqz(Reg::T2, "out").bnez(Reg::T3, "loop");
        a.mv(Reg::S4, Reg::A0)
            .not(Reg::T2, Reg::T2)
            .neg(Reg::T3, Reg::T3);
        a.seqz(Reg::T2, Reg::T2).snez(Reg::T3, Reg::T3);
        a.instr(Instr::Op {
            kind: OpKind::Sub,
            rd: Reg::T2,
            rs1: Reg::T2,
            rs2: Reg::T3,
        });
        a.instr(Instr::Load {
            kind: LoadKind::W,
            rd: Reg::RA,
            rs1: Reg::SP,
            offset: 4,
        });
        a.line("p_swcv ra, t6, 8");
        a.instr(Instr::PSwcv {
            rs1: Reg::T6,
            rs2: Reg::T0,
            offset: 4,
        });
        a.instr(Instr::PLwcv {
            rd: Reg::RA,
            offset: 0,
        });
        a.instr(Instr::PJalr {
            rd: Reg::RA,
            rs1: Reg::T0,
            rs2: Reg::S3,
        });
        a.instr(Instr::PSyncm).jal("f").jalr(Reg::S3).j("out").nop();
        a.label("out");
        a.p_ret();
        a.label("f").ret();
        a.blank().section(Section::Data).align(4);
        a.label("data").word(3).word(-4).word_label("f").space(12);
        a
    }

    #[test]
    fn typed_and_text_calls_hold_the_items_their_listing_parses_to() {
        let mut a = mixed();
        let listing = a.text().to_owned();
        assert_eq!(parse_program(&listing).unwrap(), a.items().unwrap());
        assert_eq!(a.words(), 35);
        assert!(listing.contains("\n    ori t2, t2, 5\n"), "{listing}");
        assert!(listing.contains("\n    sw   ra, 0(sp)\n"), "{listing}");
        assert!(listing.contains("\n    p_set t0\n"), "{listing}");
        assert_eq!(a.assemble(), crate::assemble(&listing), "{listing}");
    }

    /// A branch written at a mark, measured against what follows and
    /// widened in place: the builder ends up holding what its listing
    /// parses to, as if the wide form had been written in the first place.
    #[test]
    fn a_line_replaced_at_a_mark_renumbers_what_follows() {
        let mut a = Asm::new();
        a.label("main");
        a.line("li t2, 1");
        let at = a.mark();
        a.beqz(Reg::T2, "out");
        a.raw("    nop\n    li t3, 0x12345678");
        a.nop().label("out").p_ret();
        assert_eq!(a.words_since(at), 6);
        let mut wide = Asm::new();
        wide.bnez(Reg::T2, "over").j("out").label("over");
        a.replace_line(at, wide);
        assert_eq!(
            a.text(),
            "main:\n    li t2, 1\n    bnez t2, over\n    j    out\nover:\n    nop\n    \
             li t3, 0x12345678\n    nop\nout:\n    p_ret\n"
        );
        let listing = a.text().to_owned();
        assert_eq!(parse_program(&listing).unwrap(), a.items().unwrap());
        assert_eq!(a.words(), 8);
        a.li(Reg::T4, 1 << 40).label("end");
        assert_eq!(a.items().unwrap_err(), parse_program(a.text()).unwrap_err());
    }

    #[test]
    fn a_wrong_line_is_reported_as_the_parser_reports_it() {
        let mut a = Asm::new();
        a.label("main");
        a.line("addi a0, a0, $");
        a.li(Reg::A0, 1 << 40);
        let e = a.items().unwrap_err();
        assert_eq!(e, parse_program(a.text()).unwrap_err());
        assert_eq!(e.line, 2);
        let mut b = Asm::new();
        b.li(Reg::A0, 1 << 40).line("bogus");
        assert_eq!(b.items().unwrap_err(), parse_program(b.text()).unwrap_err());
        let mut c = Asm::new();
        c.li(Reg::A0, i64::MIN).align(3);
        assert_eq!(c.items().unwrap_err(), parse_program(c.text()).unwrap_err());
    }

    #[test]
    fn a_symbol_that_is_not_one_word_stays_text() {
        let mut a = Asm::new();
        a.label("1a").la(Reg::A0, "x+4").word_label("a b").j("q");
        let listing = a.text().to_owned();
        assert_eq!(
            listing,
            "1a:\n    la   a0, x+4\n    .word a b\n    j    q\n"
        );
        assert_eq!(a.items().map(<[_]>::to_vec), parse_program(&listing));
    }

    #[test]
    fn only_a_rendered_builder_parses_nothing() {
        let mut a = Asm::new();
        a.line("bogus");
        assert_eq!(a.text(), "    bogus\n");
        assert!(a.items().is_err());
    }

    #[test]
    fn integers_print_as_format_prints_them() {
        for v in [0, 7, -1, 10, -2048, i64::MAX, i64::MIN, 1 << 40] {
            let mut s = String::new();
            push_int(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }
}
