//! The assembled program image loaded into the LBP banks at boot.

use std::collections::BTreeMap;

use lbp_isa::CODE_BASE;

/// A fully assembled, position-resolved program.
///
/// The text section is a flat array of instruction words based at
/// [`CODE_BASE`] (every LBP core receives a copy in its code bank); the
/// data section is a byte array based at
/// [`SHARED_BASE`](lbp_isa::SHARED_BASE) (block-distributed over the
/// cores' shared banks by the simulator).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Image {
    /// Encoded instruction words, based at [`CODE_BASE`].
    pub text: Vec<u32>,
    /// Initialized shared data, based at [`SHARED_BASE`](lbp_isa::SHARED_BASE).
    pub data: Vec<u8>,
    /// Resolved symbol table (labels and `.equ` constants). Ordered, so
    /// that walking or dropping it takes the same steps in every process:
    /// a hashed table's random order reached the heap's layout and made
    /// peak memory differ from one run to the next.
    pub symbols: BTreeMap<String, u32>,
    /// Entry point: the `main` (or `_start`) symbol, else [`CODE_BASE`].
    pub entry: u32,
    /// Source line of each text word (same length as `text`; 0 for
    /// generated code). Used by simulator traces.
    pub lines: Vec<usize>,
}

impl Image {
    /// The address one past the last text word.
    pub fn text_end(&self) -> u32 {
        CODE_BASE + (self.text.len() as u32) * 4
    }

    /// Looks up a resolved symbol address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// The source line of the text word at `addr` (None when out of
    /// range or unaligned, Some(0) for generated code). This is how the
    /// static verifier maps findings back to assembly source.
    pub fn line_of(&self, addr: u32) -> Option<usize> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        let off = addr.checked_sub(CODE_BASE)?;
        self.lines.get((off / 4) as usize).copied()
    }

    /// The instruction word at a text address, if in range and aligned.
    pub fn text_word(&self, addr: u32) -> Option<u32> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        let off = addr.checked_sub(CODE_BASE)?;
        self.text.get((off / 4) as usize).copied()
    }

    /// Disassembles the text section, annotating known symbol addresses
    /// with labels. Undecodable words (e.g. embedded data) print as
    /// `.word`.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        // Invert the symbol table for label printing.
        let mut labels: Vec<(u32, &str)> = self
            .symbols
            .iter()
            .filter(|&(_, &a)| a < self.text_end())
            .map(|(n, &a)| (a, n.as_str()))
            .collect();
        labels.sort();
        let mut out = String::new();
        for (i, &word) in self.text.iter().enumerate() {
            let addr = CODE_BASE + 4 * i as u32;
            for &(a, name) in &labels {
                if a == addr {
                    let _ = writeln!(out, "{name}:");
                }
            }
            match lbp_isa::Instr::decode(word) {
                Ok(instr) => {
                    let _ = writeln!(out, "    {addr:#010x}:  {instr}");
                }
                Err(_) => {
                    let _ = writeln!(out, "    {addr:#010x}:  .word {word:#010x}");
                }
            }
        }
        out
    }
}
