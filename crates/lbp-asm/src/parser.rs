//! Line-oriented parser for PISC assembly text.
//!
//! The accepted syntax is the GNU-as subset used throughout the paper's
//! listings (Figs. 6-8): one instruction, label or directive per line,
//! `#` comments, `.text`/`.data`/`.word`/`.space`/`.align`/`.equ`
//! directives, and the usual RV32 pseudo-instructions (`li`, `la`, `mv`,
//! `j`, `call`, `ret`, `beqz`, ..., plus the paper's `p_ret`).
//!
//! A line is scanned once, by bytes: the comment and the leading labels
//! come off, the first word is packed into a `u64` as it is read and
//! looked up in the one table of [`Mnemonics`], and the operands are split
//! in place. Whitespace keeps `char` semantics (U+00A0 separates operands
//! as a blank does); only the decoding is skipped while bytes are ASCII.

use std::sync::OnceLock;

use lbp_isa::{BranchKind, Instr, LoadKind, OpImmKind, OpKind, Reg, StoreKind};

use crate::assemble::WORD;
use crate::error::AsmError;
use crate::expr::Expr;
use crate::item::{Item, Section, SourceItem, SymInstr};

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
    let mut scanner = Scanner {
        mnemonics: Mnemonics::get(),
        items: Vec::new(),
        line_no: 0,
    };
    // One pass finds where each line ends and where its code does: `\n`
    // ends the line (a `\r` before it is trimmed with the other
    // whitespace, so lines number as `str::lines` numbers them) and the
    // first `#` ends the code.
    let mut rest = source;
    while !rest.is_empty() {
        let (mut code, mut line) = (usize::MAX, rest.len());
        for (i, b) in rest.bytes().enumerate() {
            match b {
                b'\n' => {
                    line = i;
                    break;
                }
                b'#' => code = code.min(i),
                _ => {}
            }
        }
        scanner.line_no += 1;
        scanner.line(&rest[..line.min(code)])?;
        rest = rest.get(line + 1..).unwrap_or("");
    }
    Ok(scanner.items)
}

/// `char::is_whitespace` of an ASCII byte.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// `str::trim_start`, decoding `char`s only from the first non-ASCII byte.
fn trim_start(s: &str) -> &str {
    let ascii = s.bytes().take_while(|&b| is_space(b)).count();
    match s.as_bytes().get(ascii) {
        Some(b) if !b.is_ascii() => s[ascii..].trim_start(),
        _ => &s[ascii..],
    }
}

/// `str::trim_end`, likewise.
fn trim_end(s: &str) -> &str {
    let kept = s.len() - s.bytes().rev().take_while(|&b| is_space(b)).count();
    match s.as_bytes()[..kept].last() {
        Some(b) if !b.is_ascii() => s[..kept].trim_end(),
        _ => &s[..kept],
    }
}

fn trim(s: &str) -> &str {
    trim_end(trim_start(s))
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

pub(crate) fn is_ident(s: &str) -> bool {
    s.bytes().next().is_some_and(|b| !b.is_ascii_digit()) && s.bytes().all(is_ident_byte)
}

/// The identifier bytes at the front of `s`: how many there are, and the
/// run packed little-endian into the key [`Mnemonics`] is indexed by. A
/// run longer than eight bytes packs to 0, which is no mnemonic's key.
fn ident_run(s: &str) -> (usize, u64) {
    let mut key = 0;
    let mut len = 0;
    for b in s.bytes().take_while(|&b| is_ident_byte(b)) {
        if len < 8 {
            key |= u64::from(b) << (8 * len);
        }
        len += 1;
    }
    (len, if len <= 8 { key } else { 0 })
}

/// The pieces of an operand list between its top-level commas (commas
/// inside parentheses, as in `%hi(a, b)` — which we do not generate but
/// guard against — stay). A blank list has no pieces.
fn pieces(list: &str) -> impl Iterator<Item = &str> {
    let mut rest = (!list.is_empty()).then_some(list);
    std::iter::from_fn(move || {
        let list = rest.take()?;
        let mut depth = 0usize;
        for (i, b) in list.bytes().enumerate() {
            match b {
                b'(' => depth += 1,
                b')' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    rest = Some(&list[i + 1..]);
                    return Some(&list[..i]);
                }
                _ => {}
            }
        }
        Some(list)
    })
}

/// The operands of one instruction: the first four, trimmed, and how many
/// were written — the count the arity messages print.
fn operands(args: &str) -> ([&str; 4], usize) {
    let mut at = [""; 4];
    let mut count = 0;
    for piece in pieces(args) {
        if let Some(slot) = at.get_mut(count) {
            *slot = trim(piece);
        }
        count += 1;
    }
    (at, count)
}

fn parse_reg(name: &str, line_no: usize) -> Result<Reg, AsmError> {
    name.parse::<Reg>()
        .map_err(|e| AsmError::new(line_no, e.to_string()))
}

/// Parses `expr(reg)` or `(reg)`.
fn parse_mem_operand(s: &str, line_no: usize) -> Result<(Expr, Reg), AsmError> {
    let open = s
        .rfind('(')
        .ok_or_else(|| AsmError::new(line_no, format!("expected `offset(base)`, got `{s}`")))?;
    if !s.ends_with(')') {
        return Err(AsmError::new(line_no, format!("unclosed `(` in `{s}`")));
    }
    let base = parse_reg(trim(&s[open + 1..s.len() - 1]), line_no)?;
    let off_text = trim_end(&s[..open]);
    let off = if off_text.is_empty() {
        Expr::konst(0)
    } else {
        parse_expr(off_text, line_no)?
    };
    Ok((off, base))
}

/// Parses a constant expression: `term (('+'|'-') term)*`.
pub(crate) fn parse_expr(s: &str, line_no: usize) -> Result<Expr, AsmError> {
    if let Some(leaf) = parse_leaf(s) {
        return Ok(leaf);
    }
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

/// What nearly every operand is — a decimal literal, negated or not, or a
/// bare symbol — read without a parser. Anything else, a literal that
/// could overflow included, is `None` and goes the long way.
fn parse_leaf(s: &str) -> Option<Expr> {
    let digits = s.strip_prefix('-').unwrap_or(s);
    if !digits.bytes().next()?.is_ascii_digit() {
        return is_ident(s).then(|| Expr::sym(s));
    }
    if digits.len() > 18 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let value = digits.bytes().fold(0, |v, b| v * 10 + i64::from(b - b'0'));
    Some(Expr::Const(if digits.len() < s.len() {
        -value
    } else {
        value
    }))
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
            self.bump();
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
            Some(c) => Err(self.err(format!("unexpected `{c}` at column {}", self.pos + 1))),
            None => Err(self.err(format!("expression ends early at column {}", self.pos + 1))),
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
        let digits = &self.text[start + skip..self.pos];
        let value = if digits.contains('_') {
            i64::from_str_radix(&digits.replace('_', ""), radix)
        } else {
            i64::from_str_radix(digits, radix)
        };
        value
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

/// What the first word of an instruction line stands for: a base kind
/// of one of lbp-isa's tables, or a pseudo-instruction with the operands
/// it fixes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Mnemonic {
    /// `beq a, b, L`, or with the flag `bgt a, b, L`: `blt b, a, L`.
    Branch(BranchKind, bool),
    /// `beqz a, L` compares `a` with `zero`; with the flag, as in
    /// `blez a, L`, `zero` with `a`.
    BranchZero(BranchKind, bool),
    Load(LoadKind),
    Store(StoreKind),
    OpImm(OpImmKind),
    Op(OpKind),
    Lui,
    Auipc,
    Jal,
    Jalr,
    /// `j L` and `call L`: `jal` with the link register fixed.
    Jump(Reg),
    Jr,
    Ret,
    Nop,
    Li,
    La,
    /// `mv`, `not`, `seqz`: `rd, rs` over an `OpImm` with a fixed immediate.
    UnaryImm(OpImmKind, i32),
    /// `neg`, `snez`: `rd, rs` over an `Op` whose first source is `zero`.
    UnaryOp(OpKind),
    PFc,
    PFn,
    PSet,
    PMerge,
    PSyncm,
    PJalr,
    PJal,
    PRet,
    PSwcv,
    PLwcv,
    PSwre,
    PLwre,
}

/// Every mnemonic with its meaning: lbp-isa's forward tables (`K::ALL` and
/// `K::mnemonic`, so a new instruction kind is one edit there and none
/// here), then the pseudo-instructions and X_PAR.
fn mnemonic_list() -> impl Iterator<Item = (&'static str, Mnemonic)> {
    use Mnemonic as M;
    let base = BranchKind::ALL.map(|k| (k.mnemonic(), M::Branch(k, false)));
    base.into_iter()
        .chain(LoadKind::ALL.map(|k| (k.mnemonic(), M::Load(k))))
        .chain(StoreKind::ALL.map(|k| (k.mnemonic(), M::Store(k))))
        .chain(OpImmKind::ALL.map(|k| (k.mnemonic(), M::OpImm(k))))
        .chain(OpKind::ALL.map(|k| (k.mnemonic(), M::Op(k))))
        .chain([
            ("bgt", M::Branch(BranchKind::Lt, true)),
            ("ble", M::Branch(BranchKind::Ge, true)),
            ("bgtu", M::Branch(BranchKind::Ltu, true)),
            ("bleu", M::Branch(BranchKind::Geu, true)),
            ("beqz", M::BranchZero(BranchKind::Eq, false)),
            ("bnez", M::BranchZero(BranchKind::Ne, false)),
            ("bltz", M::BranchZero(BranchKind::Lt, false)),
            ("bgez", M::BranchZero(BranchKind::Ge, false)),
            ("blez", M::BranchZero(BranchKind::Ge, true)),
            ("bgtz", M::BranchZero(BranchKind::Lt, true)),
            ("lui", M::Lui),
            ("auipc", M::Auipc),
            ("jal", M::Jal),
            ("jalr", M::Jalr),
            ("j", M::Jump(Reg::ZERO)),
            ("call", M::Jump(Reg::RA)),
            ("jr", M::Jr),
            ("ret", M::Ret),
            ("nop", M::Nop),
            ("li", M::Li),
            ("la", M::La),
            ("mv", M::UnaryImm(OpImmKind::Add, 0)),
            ("not", M::UnaryImm(OpImmKind::Xor, -1)),
            ("seqz", M::UnaryImm(OpImmKind::Sltu, 1)),
            ("neg", M::UnaryOp(OpKind::Sub)),
            ("snez", M::UnaryOp(OpKind::Sltu)),
            ("p_fc", M::PFc),
            ("p_fn", M::PFn),
            ("p_set", M::PSet),
            ("p_merge", M::PMerge),
            ("p_syncm", M::PSyncm),
            ("p_jalr", M::PJalr),
            ("p_jal", M::PJal),
            ("p_ret", M::PRet),
            ("p_swcv", M::PSwcv),
            ("p_lwcv", M::PLwcv),
            ("p_swre", M::PSwre),
            ("p_lwre", M::PLwre),
        ])
}

/// The one mnemonic table: an open-addressed hash of the packed names of
/// [`mnemonic_list`], built on first use. Eight bytes hold every name, so
/// a lookup compares integers and never a string.
struct Mnemonics {
    /// `(key, meaning)`; key 0 marks a free slot.
    slots: [(u64, Mnemonic); Mnemonics::SLOTS],
}

impl Mnemonics {
    const SLOTS: usize = 256;

    fn get() -> &'static Mnemonics {
        static TABLE: OnceLock<Mnemonics> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut table = Mnemonics {
                slots: [(0, Mnemonic::Nop); Mnemonics::SLOTS],
            };
            for (name, meaning) in mnemonic_list() {
                table.insert(name, meaning);
            }
            table
        })
    }

    fn home(key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize
    }

    fn insert(&mut self, name: &str, meaning: Mnemonic) {
        let (len, key) = ident_run(name);
        assert!(
            len == name.len() && key != 0,
            "mnemonic `{name}` does not pack into eight identifier bytes"
        );
        let mut at = Mnemonics::home(key);
        while self.slots[at].0 != 0 {
            assert_ne!(self.slots[at].0, key, "mnemonic `{name}` is listed twice");
            at = (at + 1) % Mnemonics::SLOTS;
        }
        self.slots[at] = (key, meaning);
    }

    fn lookup(&self, key: u64) -> Option<Mnemonic> {
        let mut at = Mnemonics::home(key);
        loop {
            match self.slots[at] {
                (0, _) => return None,
                (found, meaning) if found == key => return Some(meaning),
                _ => at = (at + 1) % Mnemonics::SLOTS,
            }
        }
    }
}

/// The state of one [`parse_program`] call.
struct Scanner {
    mnemonics: &'static Mnemonics,
    items: Vec<SourceItem>,
    line_no: usize,
}

impl Scanner {
    fn push(&mut self, item: Item) {
        self.items.push(SourceItem {
            item,
            line: self.line_no,
        });
    }

    fn err(&self, message: impl Into<String>) -> AsmError {
        AsmError::new(self.line_no, message)
    }

    /// One line, its comment already off.
    fn line(&mut self, code: &str) -> Result<(), AsmError> {
        let mut rest = trim(code);
        // `name:` comes off before dispatch, any number of times: a label
        // may be spelled like a mnemonic.
        let (len, key, after) = loop {
            let (len, key) = ident_run(rest);
            let after = trim_start(&rest[len..]);
            match after.strip_prefix(':') {
                Some(tail) if len > 0 && !rest.as_bytes()[0].is_ascii_digit() => {
                    self.push(Item::Label(rest[..len].to_owned()));
                    rest = trim_start(tail);
                }
                _ => break (len, key, after),
            }
        };
        // The first word ends at whitespace: one that runs past its
        // identifier bytes is searched the slow way and has no key.
        let (word, key, args) = if len + after.len() < rest.len() || after.is_empty() {
            (&rest[..len], key, after)
        } else {
            let end = rest[len..].find(char::is_whitespace);
            let end = end.map_or(rest.len(), |at| len + at);
            (&rest[..end], 0, trim_start(&rest[end..]))
        };
        match word.strip_prefix('.') {
            _ if word.is_empty() => Ok(()),
            Some(name) => self.directive(name, args),
            None => self.instruction(word, key, args),
        }
    }

    fn directive(&mut self, name: &str, args: &str) -> Result<(), AsmError> {
        let ln = self.line_no;
        match name {
            "text" => self.push(Item::Section(Section::Text)),
            "data" => self.push(Item::Section(Section::Data)),
            "word" => {
                if args.is_empty() {
                    return Err(self.err(".word needs at least one value"));
                }
                for value in pieces(args) {
                    let e = parse_expr(trim(value), ln)?;
                    self.push(Item::Word(e));
                }
            }
            "space" | "skip" => {
                let n = parse_expr(args, ln)?;
                self.push(Item::Space(n));
            }
            "align" | "balign" => {
                // The location counters are `u32`: a count past them is
                // refused here, not truncated to zero.
                let bytes = match parse_expr(args, ln)? {
                    Expr::Const(v) => u32::try_from(v).ok().filter(|b| b.is_power_of_two()),
                    _ => None,
                };
                let bytes = bytes
                    .ok_or_else(|| self.err(".align needs a positive power-of-two byte count"))?;
                self.push(Item::Align(bytes));
            }
            "equ" | "set" => {
                let ([name, value, ..], 2) = operands(args) else {
                    return Err(self.err(".equ needs `name, value`"));
                };
                let value = parse_expr(value, ln)?;
                if !is_ident(name) {
                    return Err(self.err(format!("bad symbol name `{name}`")));
                }
                self.push(Item::Equ(name.to_owned(), value));
            }
            // Accepted and ignored: visibility/metadata directives that have no
            // meaning in a flat memory image.
            "global" | "globl" | "local" | "type" | "size" | "file" | "option" | "section" => {}
            _ => return Err(self.err(format!("unknown directive `.{name}`"))),
        }
        Ok(())
    }

    fn instruction(&mut self, mnemonic: &str, key: u64, args: &str) -> Result<(), AsmError> {
        let Some(meaning) = self.mnemonics.lookup(key) else {
            return Err(self.err(format!("unknown mnemonic `{mnemonic}`")));
        };
        let (at, count) = operands(args);
        let ops = TextOperands {
            at,
            count,
            line: self.line_no,
        };
        let (items, line) = (&mut self.items, self.line_no);
        expand(meaning, mnemonic, &ops, line, |item| {
            items.push(SourceItem { item, line })
        })
    }
}

/// The meaning of a mnemonic, from the one table the parser reads.
pub(crate) fn meaning(mnemonic: &str) -> Option<Mnemonic> {
    let (len, key) = ident_run(mnemonic);
    (len == mnemonic.len())
        .then(|| Mnemonics::get().lookup(key))
        .flatten()
}

/// Where the operands of one instruction come from: the text of a line,
/// read in the order an arm of [`expand`] asks for them, or the typed
/// values of a [`builder`](crate::builder) call.
pub(crate) trait Operands {
    /// How many operands were written.
    fn count(&self) -> usize;
    /// Operand `i` as a register.
    fn reg(&self, i: usize) -> Result<Reg, AsmError>;
    /// Operand `i` as an expression.
    fn expr(&self, i: usize) -> Result<Expr, AsmError>;
    /// Operand `i` as `offset(base)`.
    fn mem(&self, i: usize) -> Result<(Expr, Reg), AsmError>;
}

/// The trimmed operand texts of one line.
struct TextOperands<'a> {
    at: [&'a str; 4],
    count: usize,
    line: usize,
}

impl Operands for TextOperands<'_> {
    fn count(&self) -> usize {
        self.count
    }

    fn reg(&self, i: usize) -> Result<Reg, AsmError> {
        parse_reg(self.at[i], self.line)
    }

    fn expr(&self, i: usize) -> Result<Expr, AsmError> {
        parse_expr(self.at[i], self.line)
    }

    fn mem(&self, i: usize) -> Result<(Expr, Reg), AsmError> {
        parse_mem_operand(self.at[i], self.line)
    }
}

/// The items one instruction line stands for: the base instruction, or
/// the expansion of a pseudo-instruction. The parser and the builder's
/// typed calls both come through here, so a typed call yields exactly
/// the items its printed line parses to.
pub(crate) fn expand(
    meaning: Mnemonic,
    mnemonic: &str,
    ops: &impl Operands,
    line: usize,
    mut push: impl FnMut(Item),
) -> Result<(), AsmError> {
    use Mnemonic as M;
    let count = ops.count();
    let arity = |wanted: &str| AsmError::new(line, format!("`{mnemonic}` expects {wanted}"));
    let need = |n: usize| match count == n {
        true => Ok(()),
        false => Err(arity(&format!("{n} operands, got {count}"))),
    };
    let reg = |i: usize| ops.reg(i);
    let expr = |i: usize| ops.expr(i);
    let mem = |i: usize| ops.mem(i);
    let patch = |instr: Instr, expr: Expr| SymInstr::Patch { instr, expr };
    let jalr = |rd: Reg, rs1: Reg| SymInstr::Ready(Instr::Jalr { rd, rs1, offset: 0 });
    // `lui rd, %hi(e)` then `addi rd, rd, %lo(e)`: how `la` and a wide
    // `li` build a 32-bit value.
    let mut hi_lo = |rd: Reg, e: Expr| {
        let (kind, rs1, imm) = (OpImmKind::Add, rd, 0);
        let hi = patch(Instr::Lui { rd, imm: 0 }, e.clone().hi());
        let lo = patch(Instr::OpImm { kind, rd, rs1, imm }, e.lo());
        push(Item::Instr(hi));
        push(Item::Instr(lo));
        Ok(())
    };
    // Within an arm the operands are read in the order the errors of
    // a line with several bad ones have always come out.
    let instr = match meaning {
        M::Branch(kind, swap) => {
            need(3)?;
            let target = expr(2)?;
            let (a, b) = if swap { (1, 0) } else { (0, 1) };
            let (rs1, rs2) = (reg(a)?, reg(b)?);
            patch(
                Instr::Branch {
                    kind,
                    rs1,
                    rs2,
                    offset: 0,
                },
                target,
            )
        }
        M::BranchZero(kind, zero_first) => {
            need(2)?;
            let r = reg(0)?;
            let (rs1, rs2) = if zero_first {
                (Reg::ZERO, r)
            } else {
                (r, Reg::ZERO)
            };
            patch(
                Instr::Branch {
                    kind,
                    rs1,
                    rs2,
                    offset: 0,
                },
                expr(1)?,
            )
        }
        M::Load(kind) => {
            need(2)?;
            let (off, rs1) = mem(1)?;
            let rd = reg(0)?;
            patch(
                Instr::Load {
                    kind,
                    rd,
                    rs1,
                    offset: 0,
                },
                off,
            )
        }
        M::Store(kind) => {
            need(2)?;
            let (off, rs1) = mem(1)?;
            let rs2 = reg(0)?;
            patch(
                Instr::Store {
                    kind,
                    rs1,
                    rs2,
                    offset: 0,
                },
                off,
            )
        }
        M::OpImm(kind) => {
            need(3)?;
            let (rd, rs1) = (reg(0)?, reg(1)?);
            patch(
                Instr::OpImm {
                    kind,
                    rd,
                    rs1,
                    imm: 0,
                },
                expr(2)?,
            )
        }
        M::Op(kind) => {
            need(3)?;
            let (rd, rs1, rs2) = (reg(0)?, reg(1)?, reg(2)?);
            SymInstr::Ready(Instr::Op { kind, rd, rs1, rs2 })
        }
        M::Lui => {
            need(2)?;
            let rd = reg(0)?;
            patch(Instr::Lui { rd, imm: 0 }, expr(1)?)
        }
        M::Auipc => {
            need(2)?;
            let rd = reg(0)?;
            patch(Instr::Auipc { rd, imm: 0 }, expr(1)?)
        }
        M::Jal => {
            let (rd, target) = match count {
                1 => (Reg::RA, expr(0)?),
                2 => (reg(0)?, expr(1)?),
                _ => return Err(arity("1 or 2 operands")),
            };
            patch(Instr::Jal { rd, offset: 0 }, target)
        }
        M::Jalr => match count {
            // `jalr rs` == jalr ra, 0(rs)
            1 => jalr(Reg::RA, reg(0)?),
            2 => {
                let (off, rs1) = mem(1)?;
                let rd = reg(0)?;
                patch(Instr::Jalr { rd, rs1, offset: 0 }, off)
            }
            _ => return Err(arity("1 or 2 operands")),
        },
        M::Jump(rd) => {
            need(1)?;
            patch(Instr::Jal { rd, offset: 0 }, expr(0)?)
        }
        M::Jr => {
            need(1)?;
            jalr(Reg::ZERO, reg(0)?)
        }
        M::Ret => {
            need(0)?;
            jalr(Reg::ZERO, Reg::RA)
        }
        M::Nop => {
            need(0)?;
            SymInstr::Ready(Instr::NOP)
        }
        // A constant that fits 12 bits is a single `addi`; everything
        // else goes the way of `la`.
        M::Li => {
            need(2)?;
            let rd = reg(0)?;
            match expr(1)? {
                Expr::Const(v) if !WORD.contains(&v) => {
                    return Err(AsmError::new(
                        line,
                        format!("`li` value {v} exceeds 32 bits"),
                    ));
                }
                Expr::Const(v) if (-2048..=2047).contains(&v) => {
                    let (kind, rs1, imm) = (OpImmKind::Add, Reg::ZERO, v as i32);
                    SymInstr::Ready(Instr::OpImm { kind, rd, rs1, imm })
                }
                wide => return hi_lo(rd, wide),
            }
        }
        M::La => {
            need(2)?;
            let rd = reg(0)?;
            return hi_lo(rd, expr(1)?);
        }
        M::UnaryImm(kind, imm) => {
            need(2)?;
            let (rd, rs1) = (reg(0)?, reg(1)?);
            SymInstr::Ready(Instr::OpImm { kind, rd, rs1, imm })
        }
        M::UnaryOp(kind) => {
            need(2)?;
            let (rd, rs1, rs2) = (reg(0)?, Reg::ZERO, reg(1)?);
            SymInstr::Ready(Instr::Op { kind, rd, rs1, rs2 })
        }
        M::PFc => {
            need(1)?;
            SymInstr::Ready(Instr::PFc { rd: reg(0)? })
        }
        M::PFn => {
            need(1)?;
            SymInstr::Ready(Instr::PFn { rd: reg(0)? })
        }
        M::PSet => {
            let (rd, rs1) = match count {
                1 => reg(0).map(|r| (r, r))?,
                2 => (reg(0)?, reg(1)?),
                _ => return Err(arity("1 or 2 operands")),
            };
            SymInstr::Ready(Instr::PSet { rd, rs1 })
        }
        M::PMerge => {
            need(3)?;
            let (rd, rs1, rs2) = (reg(0)?, reg(1)?, reg(2)?);
            SymInstr::Ready(Instr::PMerge { rd, rs1, rs2 })
        }
        M::PSyncm => {
            need(0)?;
            SymInstr::Ready(Instr::PSyncm)
        }
        M::PJalr => {
            need(3)?;
            let (rd, rs1, rs2) = (reg(0)?, reg(1)?, reg(2)?);
            SymInstr::Ready(Instr::PJalr { rd, rs1, rs2 })
        }
        M::PJal => {
            need(3)?;
            let (rd, rs1) = (reg(0)?, reg(1)?);
            patch(Instr::PJal { rd, rs1, offset: 0 }, expr(2)?)
        }
        M::PRet => {
            let (rs1, rs2) = match count {
                0 => (Reg::RA, Reg::T0),
                2 => (reg(0)?, reg(1)?),
                _ => return Err(arity("0 or 2 operands")),
            };
            let rd = Reg::ZERO;
            SymInstr::Ready(Instr::PJalr { rd, rs1, rs2 })
        }
        // Paper operand order: value register first, then target hart.
        M::PSwcv => {
            need(3)?;
            let (rs1, rs2, offset) = (reg(1)?, reg(0)?, 0);
            patch(Instr::PSwcv { rs1, rs2, offset }, expr(2)?)
        }
        M::PLwcv => {
            need(2)?;
            let rd = reg(0)?;
            patch(Instr::PLwcv { rd, offset: 0 }, expr(1)?)
        }
        M::PSwre => {
            need(3)?;
            let (rs1, rs2, offset) = (reg(1)?, reg(0)?, 0);
            patch(Instr::PSwre { rs1, rs2, offset }, expr(2)?)
        }
        M::PLwre => {
            need(2)?;
            let rd = reg(0)?;
            patch(Instr::PLwre { rd, offset: 0 }, expr(1)?)
        }
    };
    push(Item::Instr(instr));
    Ok(())
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

    #[test]
    fn a_line_of_200_000_labels_is_a_loop_not_a_recursion() {
        let mut line: String = (0..200_000).map(|i| format!("l{i}: ")).collect();
        line.push_str("nop");
        let items = parse_program(&line).unwrap();
        assert_eq!(items.len(), 200_001);
        assert_eq!(items[199_999].item, Item::Label("l199999".into()));
        assert_eq!(
            items[200_000].item,
            Item::Instr(SymInstr::Ready(Instr::NOP))
        );
    }

    #[test]
    fn an_alignment_past_u32_is_refused_not_truncated_to_zero() {
        for count in ["0x100000000", "0x4000000000000000", "-0x100000000"] {
            let e = parse_program(&format!("nop\n.align {count}")).unwrap_err();
            assert_eq!(e.line, 2);
            assert_eq!(
                e.message, ".align needs a positive power-of-two byte count",
                "{count}"
            );
        }
        let items = parse_program(".align 0x80000000").unwrap();
        assert_eq!(items[0].item, Item::Align(1 << 31));
    }

    #[test]
    fn wide_whitespace_inside_an_expression_is_skipped_whole() {
        // U+00A0 and U+3000 are two and three bytes: stepping over one a
        // byte at a time landed inside it.
        assert_eq!(one_instr("li a0, 1\u{a0}+\u{3000}2"), one_instr("li a0, 3"));
        assert_eq!(
            one_instr("lui a0, %hi\u{3000}(\u{a0}x\u{a0})"),
            one_instr("lui a0, %hi(x)")
        );
    }

    /// The table is data: every name of lbp-isa's forward tables and every
    /// pseudo-instruction resolves to its own entry, and a name that does
    /// not pack (`Mnemonics::insert` asserts) fails here, not as an
    /// `unknown mnemonic` in somebody's program.
    #[test]
    fn every_mnemonic_resolves_to_its_own_entry() {
        use Mnemonic as M;
        let table = Mnemonics::get();
        let lookup = |name: &str| {
            let (len, key) = ident_run(name);
            assert_eq!(len, name.len(), "`{name}`");
            table.lookup(key)
        };
        let mut keys = std::collections::HashSet::new();
        for (name, meaning) in mnemonic_list() {
            assert!(name.len() <= 8, "`{name}` is longer than a key");
            assert_eq!(lookup(name), Some(meaning), "`{name}`");
            assert!(keys.insert(ident_run(name).1), "`{name}` shares a key");
        }
        let filled = table.slots.iter().filter(|(key, _)| *key != 0).count();
        assert_eq!((keys.len(), filled), (79, 79));
        // Against the forward tables themselves, not the list built from them.
        for k in BranchKind::ALL {
            assert_eq!(lookup(k.mnemonic()), Some(M::Branch(k, false)));
        }
        for k in LoadKind::ALL {
            assert_eq!(lookup(k.mnemonic()), Some(M::Load(k)));
        }
        for k in StoreKind::ALL {
            assert_eq!(lookup(k.mnemonic()), Some(M::Store(k)));
        }
        for k in OpImmKind::ALL {
            assert_eq!(lookup(k.mnemonic()), Some(M::OpImm(k)));
        }
        for k in OpKind::ALL {
            assert_eq!(lookup(k.mnemonic()), Some(M::Op(k)));
        }
        // The twelve X_PAR names of the crate documentation.
        let x_par = [
            "p_fc", "p_fn", "p_swcv", "p_lwcv", "p_swre", "p_lwre", "p_jal", "p_jalr", "p_ret",
            "p_set", "p_merge", "p_syncm",
        ];
        assert!(x_par.iter().all(|name| lookup(name).is_some()));
        // Near misses: a prefix, an extension, another case, a long run.
        for name in [
            "",
            "ad",
            "addx",
            "ADD",
            "p_syncmx",
            "p_syncmxx",
            "add.",
            "_",
        ] {
            assert_eq!(lookup(name), None, "`{name}`");
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
                instr: Instr::Load {
                    kind: LoadKind::W,
                    rd: Reg::RA,
                    rs1: Reg::SP,
                    offset: 0
                },
                expr: Expr::konst(0),
            }
        );
        let si = one_instr("sw t0, 4(sp)");
        assert!(matches!(
            si,
            SymInstr::Patch {
                instr: Instr::Store {
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
                instr: Instr::Lui { .. },
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
                instr: Instr::PSwcv { rs1, rs2, .. },
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
