//! The two-pass assembler: symbolic items → [`Image`].

use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeInclusive;

use lbp_isa::{Instr, CODE_BASE, IO_BASE, LOCAL_BASE, SHARED_BASE};

use crate::error::AsmError;
use crate::expr::Expr;
use crate::image::Image;
use crate::item::{Item, Section, SourceItem, SymInstr};
use crate::parser::parse_program;

/// Assembles source text into an executable image.
///
/// # Errors
///
/// Returns the first syntax, symbol-resolution or encoding-range error with
/// its source line.
///
/// # Examples
///
/// ```
/// let image = lbp_asm::assemble("main: li a0, 1\n ret\n")?;
/// assert_eq!(image.text.len(), 2);
/// assert_eq!(image.entry, image.symbol("main").unwrap());
/// # Ok::<(), lbp_asm::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Image, AsmError> {
    assemble_items(&parse_program(source)?)
}

/// Assembles pre-parsed (or builder-generated) items into an image.
///
/// # Errors
///
/// Returns the first symbol-resolution or encoding-range error.
pub fn assemble_items(items: &[SourceItem]) -> Result<Image, AsmError> {
    let symbols = layout(items)?;
    emit(items, symbols)
}

/// Pass 1: walk the items, maintain the two location counters, record label
/// addresses and `.equ` definitions.
fn layout(items: &[SourceItem]) -> Result<BTreeMap<String, u32>, AsmError> {
    let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
    let mut lc = LocationCounters::new();
    for si in items {
        match &si.item {
            Item::Label(name) => {
                let addr = lc.here();
                if symbols.insert(name.clone(), addr).is_some() {
                    return Err(AsmError::new(si.line, format!("duplicate label `{name}`")));
                }
            }
            Item::Section(s) => lc.section = *s,
            Item::Instr(_) => lc.advance(si, 4)?,
            Item::Word(_) => {
                lc.check_word_aligned(si)?;
                lc.advance(si, 4)?;
            }
            Item::Space(n) => {
                let bytes = eval_space(n, &symbols, si.line)?;
                lc.advance(si, bytes)?;
            }
            Item::Align(n) => lc.align(si, *n)?,
            Item::Equ(name, expr) => {
                // `.equ` must be evaluable from symbols defined above it, so
                // that pass-1 layout stays single-pass and deterministic.
                let v = expr
                    .eval(&symbols)
                    .map_err(|e| AsmError::new(si.line, format!("in .equ {name}: {e}")))?;
                let v = word(v, si.line, format_args!("in .equ {name}:"))?;
                if symbols.insert(name.clone(), v).is_some() {
                    return Err(AsmError::new(si.line, format!("duplicate symbol `{name}`")));
                }
            }
        }
    }
    Ok(symbols)
}

/// Pass 2: evaluate expressions and encode instructions and data.
fn emit(items: &[SourceItem], symbols: BTreeMap<String, u32>) -> Result<Image, AsmError> {
    let mut image = Image {
        symbols,
        ..Image::default()
    };
    let mut lc = LocationCounters::new();
    for si in items {
        match &si.item {
            Item::Label(_) | Item::Equ(..) => {}
            Item::Section(s) => lc.section = *s,
            Item::Instr(sym) => {
                let pc = lc.here();
                let instr = resolve(sym, pc, &image.symbols, si.line)?;
                let word = instr
                    .encode()
                    .map_err(|e| AsmError::new(si.line, e.to_string()))?;
                debug_assert_eq!(lc.section, Section::Text, "instr outside .text");
                image.text.push(word);
                image.lines.push(si.line);
                lc.advance(si, 4)?;
            }
            Item::Word(e) => {
                lc.check_word_aligned(si)?;
                let v = e
                    .eval(&image.symbols)
                    .map_err(|err| AsmError::new(si.line, err.to_string()))?;
                let v = word(v, si.line, "`.word`")?;
                match lc.section {
                    Section::Text => {
                        image.text.push(v);
                        image.lines.push(si.line);
                    }
                    Section::Data => image.data.extend_from_slice(&v.to_le_bytes()),
                }
                lc.advance(si, 4)?;
            }
            Item::Space(n) => {
                let bytes = eval_space(n, &image.symbols, si.line)?;
                pad(&mut image, lc.section, bytes, si.line)?;
                lc.advance(si, bytes)?;
            }
            Item::Align(n) => {
                lc.align_emit(si, *n, &mut image)?;
            }
        }
    }
    image.entry = image
        .symbols
        .get("main")
        .or_else(|| image.symbols.get("_start"))
        .copied()
        .unwrap_or(CODE_BASE);
    Ok(image)
}

fn pad(image: &mut Image, section: Section, bytes: u32, line: usize) -> Result<(), AsmError> {
    match section {
        Section::Text => {
            if !bytes.is_multiple_of(4) {
                return Err(AsmError::new(
                    line,
                    format!("text padding of {bytes} bytes is not word-aligned"),
                ));
            }
            for _ in 0..bytes / 4 {
                image.text.push(0);
                image.lines.push(line);
            }
        }
        Section::Data => image.data.extend(std::iter::repeat_n(0u8, bytes as usize)),
    }
    Ok(())
}

/// Resolves a symbolic instruction at its final address.
fn resolve(
    sym: &SymInstr,
    pc: u32,
    symbols: &BTreeMap<String, u32>,
    line: usize,
) -> Result<Instr, AsmError> {
    let (instr, expr) = match sym {
        SymInstr::Ready(i) => return Ok(*i),
        SymInstr::Patch { instr, expr } => (instr, expr),
    };
    let value = expr
        .eval(symbols)
        .map_err(|e| AsmError::new(line, e.to_string()))?;
    let value = word(value, line, "operand")?;
    // Branch/jump targets that reference symbols are absolute addresses and
    // become pc-relative here; pure constants are raw offsets.
    let imm = match instr.is_pc_relative() && expr.references_symbol() {
        true => value.wrapping_sub(pc),
        false => value,
    };
    instr
        .with_imm(imm as i32)
        .map_err(|e| AsmError::new(line, e.to_string()))
}

/// The largest image — text and data bytes together — the assembler lays
/// out: 64 MiB, sixteen times the largest shared space a shipped
/// configuration has (64 cores of 64 KiB). A `.space` or `.align` past it
/// is an error of pass 1 instead of an allocation of pass 2.
pub const MAX_IMAGE_BYTES: u32 = 64 << 20;

fn overflow(si: &SourceItem) -> AsmError {
    AsmError::new(si.line, "section overflow")
}

/// The text/data location counters of one pass.
struct LocationCounters {
    section: Section,
    text: u32,
    data: u32,
}

impl LocationCounters {
    fn new() -> LocationCounters {
        LocationCounters {
            section: Section::Text,
            text: CODE_BASE,
            data: SHARED_BASE,
        }
    }

    fn here(&self) -> u32 {
        match self.section {
            Section::Text => self.text,
            Section::Data => self.data,
        }
    }

    /// Moves the current counter, refusing one that leaves its region of
    /// the memory map (text ends at or below `LOCAL_BASE`, data at or
    /// below `IO_BASE`) or an image past [`MAX_IMAGE_BYTES`]. Pass 1 walks
    /// every item through here before pass 2 allocates anything.
    fn advance(&mut self, si: &SourceItem, bytes: u32) -> Result<(), AsmError> {
        let (lc, end) = match self.section {
            Section::Text => (&mut self.text, LOCAL_BASE),
            Section::Data => (&mut self.data, IO_BASE),
        };
        let moved = lc.checked_add(bytes).filter(|&at| at <= end);
        *lc = moved.ok_or_else(|| overflow(si))?;
        if (self.text - CODE_BASE) + (self.data - SHARED_BASE) > MAX_IMAGE_BYTES {
            return Err(overflow(si));
        }
        Ok(())
    }

    /// The bytes from here to the next multiple of `to`.
    fn pad_to(&self, si: &SourceItem, to: u32) -> Result<u32, AsmError> {
        let here = self.here();
        let aligned = here.checked_next_multiple_of(to);
        Ok(aligned.ok_or_else(|| overflow(si))? - here)
    }

    /// Pass-1 alignment (no emission).
    fn align(&mut self, si: &SourceItem, to: u32) -> Result<(), AsmError> {
        let bytes = self.pad_to(si, to)?;
        self.advance(si, bytes)
    }

    /// Pass-2 alignment, emitting the pad bytes.
    fn align_emit(&mut self, si: &SourceItem, to: u32, image: &mut Image) -> Result<(), AsmError> {
        let bytes = self.pad_to(si, to)?;
        if bytes > 0 {
            pad(image, self.section, bytes, si.line)?;
            self.advance(si, bytes)?;
        }
        Ok(())
    }

    /// `.word` requires an already-aligned location counter so that a label
    /// written just before it names the word itself.
    fn check_word_aligned(&self, si: &SourceItem) -> Result<(), AsmError> {
        if !self.here().is_multiple_of(4) {
            return Err(AsmError::new(
                si.line,
                "`.word` at unaligned address; insert `.align 4` first",
            ));
        }
        Ok(())
    }
}

/// The values a 32-bit word holds, read signed or unsigned: what `li`
/// materializes and what every other operand is narrowed from.
pub(crate) const WORD: RangeInclusive<i64> = i32::MIN as i64..=u32::MAX as i64;

/// Narrows an expression value to a word. Anything wider is an error at
/// `line`, not a silently dropped high half.
fn word(v: i64, line: usize, what: impl fmt::Display) -> Result<u32, AsmError> {
    if WORD.contains(&v) {
        return Ok(v as u32);
    }
    Err(AsmError::new(
        line,
        format!("{what} value {v} exceeds 32 bits"),
    ))
}

/// Evaluates a `.space` byte count from the symbols defined so far.
fn eval_space(expr: &Expr, symbols: &BTreeMap<String, u32>, line: usize) -> Result<u32, AsmError> {
    let v = expr
        .eval(symbols)
        .map_err(|e| AsmError::new(line, format!("in .space: {e}")))?;
    u32::try_from(v).map_err(|_| AsmError::new(line, format!("bad .space count {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_isa::{BranchKind, OpImmKind, Reg};

    #[test]
    fn forward_and_backward_branches() {
        let img = assemble(
            "top:\n  addi a0, a0, 1\n  bne a0, a1, top\n  beq a0, a1, done\n  nop\ndone:\n  ret\n",
        )
        .unwrap();
        // bne at pc=4 targets 0 → offset -4.
        let bne = Instr::decode(img.text[1]).unwrap();
        assert_eq!(
            bne,
            Instr::Branch {
                kind: BranchKind::Ne,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: -4
            }
        );
        // beq at pc=8 targets 16 → offset 8.
        let beq = Instr::decode(img.text[2]).unwrap();
        assert!(matches!(beq, Instr::Branch { offset: 8, .. }));
    }

    #[test]
    fn la_resolves_data_address() {
        let img = assemble(".data\nv: .word 7\n.text\nmain: la a0, v\n lw a1, 0(a0)\n").unwrap();
        assert_eq!(img.symbol("v"), Some(SHARED_BASE));
        // lui a0, %hi(0x80000000) == lui a0, 0x80000.
        let lui = Instr::decode(img.text[0]).unwrap();
        assert_eq!(
            lui,
            Instr::Lui {
                rd: Reg::A0,
                imm: 0x8000_0000
            }
        );
        let addi = Instr::decode(img.text[1]).unwrap();
        assert_eq!(
            addi,
            Instr::OpImm {
                kind: OpImmKind::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 0
            }
        );
        assert_eq!(img.data, vec![7, 0, 0, 0]);
    }

    #[test]
    fn entry_prefers_main() {
        let img = assemble("boot: nop\nmain: nop\n").unwrap();
        assert_eq!(img.entry, 4);
        let img = assemble("_start: nop\n").unwrap();
        assert_eq!(img.entry, 0);
        let img = assemble("nop\n").unwrap();
        assert_eq!(img.entry, CODE_BASE);
    }

    #[test]
    fn equ_and_expressions() {
        let img = assemble(".equ N, 16\n.data\nv: .space N\nw: .word N+1\n").unwrap();
        assert_eq!(img.symbol("w"), Some(SHARED_BASE + 16));
        assert_eq!(&img.data[16..20], &[17, 0, 0, 0]);
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = assemble("a: nop\na: nop\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn undefined_symbol_rejected() {
        let err = assemble("j nowhere\n").unwrap_err();
        assert!(err.to_string().contains("undefined symbol"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let mut src = String::from("start:\n");
        for _ in 0..2000 {
            src.push_str("  nop\n");
        }
        src.push_str("  beq a0, a1, start\n");
        let err = assemble(&src).unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn space_in_text_must_be_word_aligned() {
        assert!(assemble(".space 3\n").is_err());
        assert!(assemble(".space 8\n").is_ok());
    }

    #[test]
    fn oversized_sections_are_refused_before_anything_is_allocated() {
        let overflow = |src: &str, line: usize| {
            let e = assemble(src).unwrap_err();
            assert_eq!(
                (e.line, e.message.as_str()),
                (line, "section overflow"),
                "{src}"
            );
        };
        // Past the end of the region: 2 GB of text, 2 GB of data.
        overflow("main: p_ret\n.space 0x7ffffff0\n", 2);
        overflow(".data\n.space 0x7ffffff0\n", 2);
        // Inside the region and past the image bound, alone or together.
        overflow(".space 0x4000004\n", 1);
        overflow(".data\nv: .space 0x4000001\n", 2);
        overflow(".space 0x2000000\n.data\n.space 0x2000004\n", 3);
        // An alignment is a `.space` by another name, wrapping or not.
        overflow("nop\n.align 0x80000000\n", 2);
        overflow(".data\n.word 1\n.align 0x80000000\n", 3);
        // An item built directly, where no parser refused the zero.
        let zero = [SourceItem::generated(Item::Align(0))];
        assert_eq!(
            assemble_items(&zero).unwrap_err().message,
            "section overflow"
        );
    }

    #[test]
    fn unaligned_word_rejected() {
        let err = assemble(".data\n.space 2\nv: .word 5\n").unwrap_err();
        assert!(err.to_string().contains("unaligned"));
        // With explicit alignment the label names the word.
        let img = assemble(".data\n.space 2\n.align 4\nv: .word 5\n").unwrap();
        assert_eq!(img.symbol("v"), Some(SHARED_BASE + 4));
        assert_eq!(img.data.len(), 8);
    }

    #[test]
    fn lines_track_source() {
        let img = assemble("nop\nnop\nli a0, 0x12345678\n").unwrap();
        assert_eq!(img.lines, vec![1, 2, 3, 3]);
    }

    #[test]
    fn paper_main_listing_assembles() {
        // Fig. 6 of the paper (labels added for data/functions).
        let src = "\
main:
    li   t0, -1
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   t0, 4(sp)
    p_set t0
    la   a0, thread
    la   a1, data
    jal  LBP_parallel_start
rp:
    lw   ra, 0(sp)
    lw   t0, 4(sp)
    addi sp, sp, 8
    p_ret
thread:
    ret
LBP_parallel_start:
    ret
.data
data: .word 0
";
        let img = assemble(src).unwrap();
        assert!(img.text.len() >= 12);
        assert_eq!(img.entry, 0);
    }

    #[test]
    fn raw_numeric_branch_offsets() {
        // A constant operand is a raw pc-relative offset, as in disassembly.
        let img = assemble("jal zero, 8\n").unwrap();
        assert_eq!(
            Instr::decode(img.text[0]).unwrap(),
            Instr::Jal {
                rd: Reg::ZERO,
                offset: 8
            }
        );
    }
}
