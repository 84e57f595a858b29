//! Line-oriented parser for PISC assembly text.
//!
//! The accepted syntax is the GNU-as subset used throughout the paper's
//! listings (Figs. 6-8): one instruction, label or directive per line,
//! `#` comments, `.text`/`.data`/`.word`/`.space`/`.align`/`.equ`
//! directives, and the usual RV32 pseudo-instructions (`li`, `la`, `mv`,
//! `j`, `call`, `ret`, `beqz`, ..., plus the paper's `p_ret`).

use lbp_isa::{BranchKind, Instr, LoadKind, OpImmKind, OpKind, Reg, StoreKind};

use crate::error::AsmError;
use crate::expr::Expr;
use crate::item::{Item, PatchKind, Section, SourceItem, SymInstr};

/// Parses a whole assembly source into symbolic items.
///
/// # Errors
///
/// Returns the first syntax error with its line number.
///
/// # Examples
///
/// ```
/// let items = lbp_asm::parse_program("start:\n  addi a0, a0, 1\n  ret\n")?;
/// assert_eq!(items.len(), 3);
/// # Ok::<(), lbp_asm::AsmError>(())
/// ```
pub fn parse_program(source: &str) -> Result<Vec<SourceItem>, AsmError> {
    let mut items = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        parse_line(line, line_no, &mut items)?;
    }
    Ok(items)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn parse_line(line: &str, line_no: usize, items: &mut Vec<SourceItem>) -> Result<(), AsmError> {
    // Leading labels: `name:` possibly followed by more content.
    if let Some(colon) = line.find(':') {
        let (head, rest) = line.split_at(colon);
        let head = head.trim();
        if is_ident(head) {
            items.push(SourceItem {
                item: Item::Label(head.to_owned()),
                line: line_no,
            });
            let rest = rest[1..].trim();
            if rest.is_empty() {
                return Ok(());
            }
            return parse_line(rest, line_no, items);
        }
    }
    if let Some(rest) = line.strip_prefix('.') {
        return parse_directive(rest, line_no, items);
    }
    parse_instruction(line, line_no, items)
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_directive(
    rest: &str,
    line_no: usize,
    items: &mut Vec<SourceItem>,
) -> Result<(), AsmError> {
    let (name, args) = split_mnemonic(rest);
    let push = |items: &mut Vec<SourceItem>, item| {
        items.push(SourceItem {
            item,
            line: line_no,
        });
    };
    match name {
        "text" => push(items, Item::Section(Section::Text)),
        "data" => push(items, Item::Section(Section::Data)),
        "word" => {
            if args.is_empty() {
                return Err(AsmError::new(line_no, ".word needs at least one value"));
            }
            for a in split_operands(args) {
                let e = parse_expr(a.trim(), line_no)?;
                push(items, Item::Word(e));
            }
        }
        "space" | "skip" => {
            let n = parse_expr(args.trim(), line_no)?;
            push(items, Item::Space(n));
        }
        "align" | "balign" => {
            let n = parse_expr(args.trim(), line_no)?;
            match n {
                Expr::Const(v) if v > 0 && (v as u64).is_power_of_two() => {
                    push(items, Item::Align(v as u32));
                }
                _ => {
                    return Err(AsmError::new(
                        line_no,
                        ".align needs a positive power-of-two byte count",
                    ))
                }
            }
        }
        "equ" | "set" => {
            let mut parts = split_operands(args);
            if parts.len() != 2 {
                return Err(AsmError::new(line_no, ".equ needs `name, value`"));
            }
            let value = parse_expr(parts.pop().expect("len 2").trim(), line_no)?;
            let name = parts.pop().expect("len 1").trim().to_owned();
            if !is_ident(&name) {
                return Err(AsmError::new(line_no, format!("bad symbol name `{name}`")));
            }
            push(items, Item::Equ(name, value));
        }
        // Accepted and ignored: visibility/metadata directives that have no
        // meaning in a flat memory image.
        "global" | "globl" | "local" | "type" | "size" | "file" | "option" | "section" => {}
        _ => {
            return Err(AsmError::new(
                line_no,
                format!("unknown directive `.{name}`"),
            ))
        }
    }
    Ok(())
}

fn split_mnemonic(line: &str) -> (&str, &str) {
    match line.find(|c: char| c.is_whitespace()) {
        Some(pos) => (&line[..pos], line[pos..].trim()),
        None => (line, ""),
    }
}

/// Splits an operand list on top-level commas (commas inside parentheses,
/// as in `%hi(a, b)` — which we do not generate but guard against — stay).
fn split_operands(args: &str) -> Vec<&str> {
    if args.trim().is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in args.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&args[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&args[start..]);
    out
}

fn parse_reg(s: &str, line_no: usize) -> Result<Reg, AsmError> {
    s.trim()
        .parse::<Reg>()
        .map_err(|e| AsmError::new(line_no, e.to_string()))
}

/// Parses `expr` or `expr(reg)` or `(reg)`.
fn parse_mem_operand(s: &str, line_no: usize) -> Result<(Expr, Reg), AsmError> {
    let s = s.trim();
    let open = s
        .rfind('(')
        .ok_or_else(|| AsmError::new(line_no, format!("expected `offset(base)`, got `{s}`")))?;
    if !s.ends_with(')') {
        return Err(AsmError::new(line_no, format!("unclosed `(` in `{s}`")));
    }
    let base = parse_reg(&s[open + 1..s.len() - 1], line_no)?;
    let off_text = s[..open].trim();
    let off = if off_text.is_empty() {
        Expr::konst(0)
    } else {
        parse_expr(off_text, line_no)?
    };
    Ok((off, base))
}

/// Parses a constant expression: `term (('+'|'-') term)*`.
pub(crate) fn parse_expr(s: &str, line_no: usize) -> Result<Expr, AsmError> {
    let mut p = ExprParser {
        text: s,
        pos: 0,
        line_no,
        depth: 0,
        height: 0,
    };
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(AsmError::new(
            line_no,
            format!("trailing text in expression `{s}`"),
        ));
    }
    Ok(e.fold())
}

/// Deepest nesting of parentheses and unary minus an operand accepts,
/// and the tallest expression tree it builds. The parser, `fold`,
/// `eval` and `Drop` all recurse on the tree, so this one bound keeps
/// every one of them off the end of the stack; generated and shipped
/// operands nest two or three levels.
pub(crate) const MAX_NEST: usize = 64;

struct ExprParser<'a> {
    text: &'a str,
    pos: usize,
    line_no: usize,
    /// `term`s open around `pos`.
    depth: usize,
    /// Height of the expression tree most recently returned.
    height: usize,
}

impl<'a> ExprParser<'a> {
    fn err(&self, msg: String) -> AsmError {
        AsmError::new(self.line_no, msg)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Records a node built over subtrees of height `below`.
    fn grow(&mut self, below: usize) -> Result<(), AsmError> {
        if below >= MAX_NEST {
            return Err(self.err(format!(
                "expression too deep at column {} (limit {MAX_NEST})",
                self.pos + 1
            )));
        }
        self.height = below + 1;
        Ok(())
    }

    fn expr(&mut self) -> Result<Expr, AsmError> {
        let mut acc = self.term()?;
        loop {
            self.skip_ws();
            let op = match self.peek() {
                Some('+') => Expr::add,
                Some('-') => Expr::sub,
                _ => return Ok(acc),
            };
            self.bump();
            let below = self.height;
            let rhs = self.term()?;
            self.grow(below.max(self.height))?;
            acc = op(acc, rhs);
        }
    }

    fn term(&mut self) -> Result<Expr, AsmError> {
        self.skip_ws();
        if self.depth == MAX_NEST {
            return Err(self.err(format!(
                "expression nested too deep at column {} (limit {MAX_NEST})",
                self.pos + 1
            )));
        }
        self.depth += 1;
        let e = self.term_body();
        self.depth -= 1;
        e
    }

    fn term_body(&mut self) -> Result<Expr, AsmError> {
        self.height = 1;
        match self.peek() {
            Some('-') => {
                self.bump();
                let e = self.term()?;
                self.grow(self.height)?;
                Ok(Expr::konst(0).sub(e))
            }
            Some('%') => {
                self.bump();
                let name = self.ident()?;
                self.skip_ws();
                if self.bump() != Some('(') {
                    return Err(self.err(format!("expected `(` after %{name}")));
                }
                let inner = self.expr()?;
                self.skip_ws();
                if self.bump() != Some(')') {
                    return Err(self.err(format!("expected `)` closing %{name}")));
                }
                self.grow(self.height)?;
                match name.as_str() {
                    "hi" => Ok(inner.hi()),
                    "lo" => Ok(inner.lo()),
                    other => Err(self.err(format!("unknown operator %{other}"))),
                }
            }
            Some('(') => {
                self.bump();
                let inner = self.expr()?;
                self.skip_ws();
                if self.bump() != Some(')') {
                    return Err(self.err("expected `)`".to_owned()));
                }
                Ok(inner)
            }
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {
                Ok(Expr::sym(self.ident()?))
            }
            other => Err(self.err(format!("unexpected {other:?} in expression"))),
        }
    }

    fn number(&mut self) -> Result<Expr, AsmError> {
        let start = self.pos;
        let rest = &self.text[self.pos..];
        let (radix, skip) = if rest.starts_with("0x") || rest.starts_with("0X") {
            (16, 2)
        } else if rest.starts_with("0b") || rest.starts_with("0B") {
            (2, 2)
        } else {
            (10, 0)
        };
        self.pos += skip;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.pos += 1;
        }
        let digits = self.text[start + skip..self.pos].replace('_', "");
        i64::from_str_radix(&digits, radix)
            .map(Expr::konst)
            .map_err(|_| self.err(format!("bad number `{}`", &self.text[start..self.pos])))
    }

    fn ident(&mut self) -> Result<String, AsmError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected identifier".to_owned()));
        }
        Ok(self.text[start..self.pos].to_owned())
    }
}

fn parse_instruction(line: &str, ln: usize, items: &mut Vec<SourceItem>) -> Result<(), AsmError> {
    let (mnemonic, args_text) = split_mnemonic(line);
    let args = split_operands(args_text);
    let argc = args.len();
    let need = |n: usize| -> Result<(), AsmError> {
        if argc == n {
            Ok(())
        } else {
            Err(AsmError::new(
                ln,
                format!("`{mnemonic}` expects {n} operands, got {argc}"),
            ))
        }
    };
    let reg = |i: usize| parse_reg(args[i], ln);
    let expr = |i: usize| parse_expr(args[i].trim(), ln);
    let push = |items: &mut Vec<SourceItem>, si: SymInstr| {
        items.push(SourceItem {
            item: Item::Instr(si),
            line: ln,
        });
    };
    // Helper to emit a patchable or folded instruction.
    let patch = |kind: PatchKind, e: Expr| SymInstr::Patch { kind, expr: e };

    // A base comparison, or a pseudo-branch that swaps its operands.
    let branch = by_mnemonic(&BranchKind::ALL, BranchKind::mnemonic, mnemonic)
        .map(|kind| (kind, (0, 1)))
        .or_else(|| swapped_branch(mnemonic).map(|kind| (kind, (1, 0))));
    if let Some((kind, (a, b))) = branch {
        need(3)?;
        let e = expr(2)?;
        push(
            items,
            patch(
                PatchKind::Branch {
                    kind,
                    rs1: reg(a)?,
                    rs2: reg(b)?,
                },
                e,
            ),
        );
        return Ok(());
    }
    if let Some((kind, zero_side)) = zero_branch(mnemonic) {
        need(2)?;
        let r = reg(0)?;
        let (rs1, rs2) = match zero_side {
            ZeroSide::Rs2 => (r, Reg::ZERO),
            ZeroSide::Rs1 => (Reg::ZERO, r),
        };
        let e = expr(1)?;
        push(items, patch(PatchKind::Branch { kind, rs1, rs2 }, e));
        return Ok(());
    }
    if let Some(kind) = by_mnemonic(&LoadKind::ALL, LoadKind::mnemonic, mnemonic) {
        need(2)?;
        let (off, base) = parse_mem_operand(args[1], ln)?;
        push(
            items,
            patch(
                PatchKind::Load {
                    kind,
                    rd: reg(0)?,
                    rs1: base,
                },
                off,
            ),
        );
        return Ok(());
    }
    if let Some(kind) = by_mnemonic(&StoreKind::ALL, StoreKind::mnemonic, mnemonic) {
        need(2)?;
        let (off, base) = parse_mem_operand(args[1], ln)?;
        push(
            items,
            patch(
                PatchKind::Store {
                    kind,
                    rs1: base,
                    rs2: reg(0)?,
                },
                off,
            ),
        );
        return Ok(());
    }
    if let Some(kind) = by_mnemonic(&OpImmKind::ALL, OpImmKind::mnemonic, mnemonic) {
        need(3)?;
        push(
            items,
            patch(
                PatchKind::OpImm {
                    kind,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                },
                expr(2)?,
            ),
        );
        return Ok(());
    }
    if let Some(kind) = by_mnemonic(&OpKind::ALL, OpKind::mnemonic, mnemonic) {
        need(3)?;
        push(
            items,
            SymInstr::Ready(Instr::Op {
                kind,
                rd: reg(0)?,
                rs1: reg(1)?,
                rs2: reg(2)?,
            }),
        );
        return Ok(());
    }

    match mnemonic {
        "lui" => {
            need(2)?;
            push(items, patch(PatchKind::Lui { rd: reg(0)? }, expr(1)?));
        }
        "auipc" => {
            need(2)?;
            push(items, patch(PatchKind::Auipc { rd: reg(0)? }, expr(1)?));
        }
        "jal" => match argc {
            1 => push(items, patch(PatchKind::Jal { rd: Reg::RA }, expr(0)?)),
            2 => push(items, patch(PatchKind::Jal { rd: reg(0)? }, expr(1)?)),
            _ => return Err(AsmError::new(ln, "`jal` expects 1 or 2 operands")),
        },
        "jalr" => match argc {
            1 => {
                // `jalr rs` == jalr ra, 0(rs)
                let rs = reg(0)?;
                push(
                    items,
                    SymInstr::Ready(Instr::Jalr {
                        rd: Reg::RA,
                        rs1: rs,
                        offset: 0,
                    }),
                );
            }
            2 => {
                let (off, base) = parse_mem_operand(args[1], ln)?;
                push(
                    items,
                    patch(
                        PatchKind::Jalr {
                            rd: reg(0)?,
                            rs1: base,
                        },
                        off,
                    ),
                );
            }
            _ => return Err(AsmError::new(ln, "`jalr` expects 1 or 2 operands")),
        },
        "j" => {
            need(1)?;
            push(items, patch(PatchKind::Jal { rd: Reg::ZERO }, expr(0)?));
        }
        "jr" => {
            need(1)?;
            push(
                items,
                SymInstr::Ready(Instr::Jalr {
                    rd: Reg::ZERO,
                    rs1: reg(0)?,
                    offset: 0,
                }),
            );
        }
        "call" => {
            need(1)?;
            push(items, patch(PatchKind::Jal { rd: Reg::RA }, expr(0)?));
        }
        "ret" => {
            need(0)?;
            push(
                items,
                SymInstr::Ready(Instr::Jalr {
                    rd: Reg::ZERO,
                    rs1: Reg::RA,
                    offset: 0,
                }),
            );
        }
        "nop" => {
            need(0)?;
            push(items, SymInstr::Ready(Instr::NOP));
        }
        "li" => {
            need(2)?;
            expand_li(reg(0)?, expr(1)?, ln, items)?;
        }
        "la" => {
            need(2)?;
            let rd = reg(0)?;
            let e = expr(1)?;
            items.push(SourceItem {
                item: Item::Instr(patch(PatchKind::Lui { rd }, e.clone().hi())),
                line: ln,
            });
            items.push(SourceItem {
                item: Item::Instr(patch(
                    PatchKind::OpImm {
                        kind: OpImmKind::Add,
                        rd,
                        rs1: rd,
                    },
                    e.lo(),
                )),
                line: ln,
            });
        }
        "mv" => {
            need(2)?;
            push(
                items,
                SymInstr::Ready(Instr::OpImm {
                    kind: OpImmKind::Add,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm: 0,
                }),
            );
        }
        "not" => {
            need(2)?;
            push(
                items,
                SymInstr::Ready(Instr::OpImm {
                    kind: OpImmKind::Xor,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm: -1,
                }),
            );
        }
        "neg" => {
            need(2)?;
            push(
                items,
                SymInstr::Ready(Instr::Op {
                    kind: OpKind::Sub,
                    rd: reg(0)?,
                    rs1: Reg::ZERO,
                    rs2: reg(1)?,
                }),
            );
        }
        "seqz" => {
            need(2)?;
            push(
                items,
                SymInstr::Ready(Instr::OpImm {
                    kind: OpImmKind::Sltu,
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    imm: 1,
                }),
            );
        }
        "snez" => {
            need(2)?;
            push(
                items,
                SymInstr::Ready(Instr::Op {
                    kind: OpKind::Sltu,
                    rd: reg(0)?,
                    rs1: Reg::ZERO,
                    rs2: reg(1)?,
                }),
            );
        }
        // --- X_PAR ---
        "p_fc" => {
            need(1)?;
            push(items, SymInstr::Ready(Instr::PFc { rd: reg(0)? }));
        }
        "p_fn" => {
            need(1)?;
            push(items, SymInstr::Ready(Instr::PFn { rd: reg(0)? }));
        }
        "p_set" => match argc {
            1 => {
                let r = reg(0)?;
                push(items, SymInstr::Ready(Instr::PSet { rd: r, rs1: r }));
            }
            2 => push(
                items,
                SymInstr::Ready(Instr::PSet {
                    rd: reg(0)?,
                    rs1: reg(1)?,
                }),
            ),
            _ => return Err(AsmError::new(ln, "`p_set` expects 1 or 2 operands")),
        },
        "p_merge" => {
            need(3)?;
            push(
                items,
                SymInstr::Ready(Instr::PMerge {
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    rs2: reg(2)?,
                }),
            );
        }
        "p_syncm" => {
            need(0)?;
            push(items, SymInstr::Ready(Instr::PSyncm));
        }
        "p_jalr" => {
            need(3)?;
            push(
                items,
                SymInstr::Ready(Instr::PJalr {
                    rd: reg(0)?,
                    rs1: reg(1)?,
                    rs2: reg(2)?,
                }),
            );
        }
        "p_jal" => {
            need(3)?;
            push(
                items,
                patch(
                    PatchKind::PJal {
                        rd: reg(0)?,
                        rs1: reg(1)?,
                    },
                    expr(2)?,
                ),
            );
        }
        "p_ret" => match argc {
            0 => push(
                items,
                SymInstr::Ready(Instr::PJalr {
                    rd: Reg::ZERO,
                    rs1: Reg::RA,
                    rs2: Reg::T0,
                }),
            ),
            2 => push(
                items,
                SymInstr::Ready(Instr::PJalr {
                    rd: Reg::ZERO,
                    rs1: reg(0)?,
                    rs2: reg(1)?,
                }),
            ),
            _ => return Err(AsmError::new(ln, "`p_ret` expects 0 or 2 operands")),
        },
        // Paper operand order: value register first, then target hart.
        "p_swcv" => {
            need(3)?;
            push(
                items,
                patch(
                    PatchKind::PSwcv {
                        rs1: reg(1)?,
                        rs2: reg(0)?,
                    },
                    expr(2)?,
                ),
            );
        }
        "p_lwcv" => {
            need(2)?;
            push(items, patch(PatchKind::PLwcv { rd: reg(0)? }, expr(1)?));
        }
        "p_swre" => {
            need(3)?;
            push(
                items,
                patch(
                    PatchKind::PSwre {
                        rs1: reg(1)?,
                        rs2: reg(0)?,
                    },
                    expr(2)?,
                ),
            );
        }
        "p_lwre" => {
            need(2)?;
            push(items, patch(PatchKind::PLwre { rd: reg(0)? }, expr(1)?));
        }
        other => {
            return Err(AsmError::new(ln, format!("unknown mnemonic `{other}`")));
        }
    }
    Ok(())
}

/// Expands `li rd, expr`. Constant values that fit 12 bits become a single
/// `addi`; everything else becomes `lui %hi` + `addi %lo`.
fn expand_li(rd: Reg, e: Expr, ln: usize, items: &mut Vec<SourceItem>) -> Result<(), AsmError> {
    if let Expr::Const(v) = e {
        if !(i32::MIN as i64..=u32::MAX as i64).contains(&v) {
            return Err(AsmError::new(ln, format!("`li` value {v} exceeds 32 bits")));
        }
        if (-2048..=2047).contains(&v) {
            items.push(SourceItem {
                item: Item::Instr(SymInstr::Ready(Instr::OpImm {
                    kind: OpImmKind::Add,
                    rd,
                    rs1: Reg::ZERO,
                    imm: v as i32,
                })),
                line: ln,
            });
            return Ok(());
        }
    }
    items.push(SourceItem {
        item: Item::Instr(SymInstr::Patch {
            kind: PatchKind::Lui { rd },
            expr: e.clone().hi(),
        }),
        line: ln,
    });
    items.push(SourceItem {
        item: Item::Instr(SymInstr::Patch {
            kind: PatchKind::OpImm {
                kind: OpImmKind::Add,
                rd,
                rs1: rd,
            },
            expr: e.lo(),
        }),
        line: ln,
    });
    Ok(())
}

/// Reverse lookup over one of lbp-isa's forward mnemonic tables
/// (`K::ALL` and `K::mnemonic`), so a new instruction kind is one edit
/// there and none here.
fn by_mnemonic<K: Copy>(all: &[K], name: fn(K) -> &'static str, m: &str) -> Option<K> {
    all.iter().copied().find(|&k| name(k) == m)
}

fn swapped_branch(m: &str) -> Option<BranchKind> {
    Some(match m {
        "bgt" => BranchKind::Lt,
        "ble" => BranchKind::Ge,
        "bgtu" => BranchKind::Ltu,
        "bleu" => BranchKind::Geu,
        _ => return None,
    })
}

enum ZeroSide {
    Rs1,
    Rs2,
}

fn zero_branch(m: &str) -> Option<(BranchKind, ZeroSide)> {
    Some(match m {
        "beqz" => (BranchKind::Eq, ZeroSide::Rs2),
        "bnez" => (BranchKind::Ne, ZeroSide::Rs2),
        "bltz" => (BranchKind::Lt, ZeroSide::Rs2),
        "bgez" => (BranchKind::Ge, ZeroSide::Rs2),
        "blez" => (BranchKind::Ge, ZeroSide::Rs1),
        "bgtz" => (BranchKind::Lt, ZeroSide::Rs1),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_nesting_is_bounded_with_a_positioned_error() {
        let li = |operand: String| parse_program(&format!("main:\n  li a0, {operand}"));
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        // The innermost operand is itself a term: MAX_NEST - 1 pairs fit.
        assert!(li(parens(MAX_NEST - 1)).is_ok());
        let e = li(parens(MAX_NEST)).unwrap_err();
        assert_eq!(e.line, 2);
        let at = format!("nested too deep at column {}", MAX_NEST + 1);
        assert!(e.message.contains(&at), "{e}");
        // A chain nests the tree without nesting the parser.
        let chain = |n: usize| vec!["x"; n].join("+");
        assert!(li(chain(MAX_NEST)).is_ok());
        assert!(li(chain(MAX_NEST + 1))
            .unwrap_err()
            .message
            .contains("too deep"));
        for hostile in [parens(100_000), chain(100_000), "-".repeat(100_000) + "1"] {
            assert!(li(hostile).is_err());
        }
    }

    fn one_instr(src: &str) -> SymInstr {
        let items = parse_program(src).unwrap();
        assert_eq!(items.len(), 1, "{src} should parse to one item");
        match &items[0].item {
            Item::Instr(si) => si.clone(),
            other => panic!("expected instruction, got {other:?}"),
        }
    }

    #[test]
    fn parses_basic_ops() {
        assert_eq!(
            one_instr("add a0, a1, a2"),
            SymInstr::Ready(Instr::Op {
                kind: OpKind::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            })
        );
    }

    #[test]
    fn parses_memory_operands() {
        let si = one_instr("lw ra, 0(sp)");
        assert_eq!(
            si,
            SymInstr::Patch {
                kind: PatchKind::Load {
                    kind: LoadKind::W,
                    rd: Reg::RA,
                    rs1: Reg::SP
                },
                expr: Expr::konst(0),
            }
        );
        let si = one_instr("sw t0, 4(sp)");
        assert!(matches!(
            si,
            SymInstr::Patch {
                kind: PatchKind::Store {
                    rs2: Reg::T0,
                    rs1: Reg::SP,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn li_small_is_one_addi() {
        assert_eq!(
            one_instr("li t0, -1"),
            SymInstr::Ready(Instr::OpImm {
                kind: OpImmKind::Add,
                rd: Reg::T0,
                rs1: Reg::ZERO,
                imm: -1
            })
        );
    }

    #[test]
    fn li_large_expands_to_two() {
        let items = parse_program("li a0, 0x12345678").unwrap();
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn la_expands_to_lui_addi() {
        let items = parse_program("la a0, table").unwrap();
        assert_eq!(items.len(), 2);
        assert!(matches!(
            &items[0].item,
            Item::Instr(SymInstr::Patch {
                kind: PatchKind::Lui { .. },
                expr: Expr::Hi(_)
            })
        ));
    }

    #[test]
    fn labels_and_comments() {
        let items = parse_program("loop: # head\n  bnez a0, loop # back\n").unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].item, Item::Label("loop".into()));
        assert_eq!(items[1].line, 2);
    }

    #[test]
    fn label_with_code_on_same_line() {
        let items = parse_program("start: addi a0, a0, 1").unwrap();
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn paper_fork_protocol_parses() {
        // The exact instruction sequence of the paper's Fig. 8.
        let src = "\
p_fc   t6
p_swcv ra, t6, 0
p_swcv t0, t6, 4
p_swcv a1, t6, 8
p_merge t0, t0, t6
p_syncm
p_jalr ra, t0, a0
p_lwcv ra, 0
p_lwcv t0, 4
p_lwcv a1, 8
";
        let items = parse_program(src).unwrap();
        assert_eq!(items.len(), 10);
        // p_swcv's first text operand is the value (rs2), second the hart (rs1).
        match &items[1].item {
            Item::Instr(SymInstr::Patch {
                kind: PatchKind::PSwcv { rs1, rs2 },
                ..
            }) => {
                assert_eq!(*rs1, Reg::T6);
                assert_eq!(*rs2, Reg::RA);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn p_ret_forms() {
        assert_eq!(
            one_instr("p_ret"),
            SymInstr::Ready(Instr::PJalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                rs2: Reg::T0
            })
        );
        assert_eq!(
            one_instr("p_ret a2, a3"),
            SymInstr::Ready(Instr::PJalr {
                rd: Reg::ZERO,
                rs1: Reg::A2,
                rs2: Reg::A3
            })
        );
    }

    #[test]
    fn directives() {
        let items =
            parse_program(".data\nv: .word 1, 2, 3\n.space 8\n.align 4\n.text\n.equ N, 16\n")
                .unwrap();
        assert_eq!(items.len(), 9);
        assert_eq!(items[0].item, Item::Section(Section::Data));
        assert_eq!(items[5].item, Item::Space(Expr::konst(8)));
        assert_eq!(items[6].item, Item::Align(4));
        assert_eq!(items[7].item, Item::Section(Section::Text));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_program("nop\nbogus a0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(parse_program("add a0, a1").is_err());
        assert!(parse_program("p_syncm a0").is_err());
    }

    #[test]
    fn expression_operators() {
        let items = parse_program(".word end-start, %hi(x)+1, -4").unwrap();
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn hex_and_binary_literals() {
        assert_eq!(
            one_instr("li a0, 0xff"),
            SymInstr::Ready(Instr::OpImm {
                kind: OpImmKind::Add,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 255
            })
        );
        assert_eq!(
            one_instr("li a0, 0b101"),
            SymInstr::Ready(Instr::OpImm {
                kind: OpImmKind::Add,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 5
            })
        );
    }
}
