//! Architectural register names for the RV32 integer register file.

use core::fmt;
use core::str::FromStr;

/// One of the 32 RV32 integer registers, `x0` ..= `x31`.
///
/// `Reg` is a validated newtype: it can only hold values in `0..32`, so the
/// rest of the stack (encoder, simulator renaming tables, ...) can index
/// register files without bounds checks.
///
/// # Examples
///
/// ```
/// use lbp_isa::Reg;
/// assert_eq!(Reg::RA.number(), 1);
/// assert_eq!("t0".parse::<Reg>().unwrap(), Reg::T0);
/// assert_eq!(Reg::new(5).unwrap().abi_name(), "t0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Hard-wired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Return address.
    pub const RA: Reg = Reg(1);
    /// Stack pointer.
    pub const SP: Reg = Reg(2);
    /// Global pointer.
    pub const GP: Reg = Reg(3);
    /// Thread pointer.
    pub const TP: Reg = Reg(4);
    /// Temporary 0. In the Deterministic OpenMP ABI, `t0` carries the merged
    /// join-hart identity (see the paper's Fig. 6).
    pub const T0: Reg = Reg(5);
    /// Temporary 1.
    pub const T1: Reg = Reg(6);
    /// Temporary 2.
    pub const T2: Reg = Reg(7);
    /// Saved register 0 / frame pointer.
    pub const S0: Reg = Reg(8);
    /// Saved register 1.
    pub const S1: Reg = Reg(9);
    /// Argument 0 / return value.
    pub const A0: Reg = Reg(10);
    /// Argument 1.
    pub const A1: Reg = Reg(11);
    /// Argument 2.
    pub const A2: Reg = Reg(12);
    /// Argument 3.
    pub const A3: Reg = Reg(13);
    /// Argument 4.
    pub const A4: Reg = Reg(14);
    /// Argument 5.
    pub const A5: Reg = Reg(15);
    /// Argument 6.
    pub const A6: Reg = Reg(16);
    /// Argument 7.
    pub const A7: Reg = Reg(17);
    /// Saved register 2.
    pub const S2: Reg = Reg(18);
    /// Saved register 3.
    pub const S3: Reg = Reg(19);
    /// Saved register 4.
    pub const S4: Reg = Reg(20);
    /// Saved register 5.
    pub const S5: Reg = Reg(21);
    /// Saved register 6.
    pub const S6: Reg = Reg(22);
    /// Saved register 7.
    pub const S7: Reg = Reg(23);
    /// Saved register 8.
    pub const S8: Reg = Reg(24);
    /// Saved register 9.
    pub const S9: Reg = Reg(25);
    /// Saved register 10.
    pub const S10: Reg = Reg(26);
    /// Saved register 11.
    pub const S11: Reg = Reg(27);
    /// Temporary 3.
    pub const T3: Reg = Reg(28);
    /// Temporary 4.
    pub const T4: Reg = Reg(29);
    /// Temporary 5.
    pub const T5: Reg = Reg(30);
    /// Temporary 6. Used by the fork protocol to hold the allocated hart id
    /// (see the paper's Fig. 8).
    pub const T6: Reg = Reg(31);

    /// Creates a register from its number, if it is in `0..32`.
    pub fn new(number: u8) -> Option<Reg> {
        (number < 32).then_some(Reg(number))
    }

    /// The register number, in `0..32`.
    pub fn number(self) -> u8 {
        self.0
    }

    /// The register number as a `usize`, for register-file indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hard-wired zero register `x0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The standard RISC-V ABI mnemonic (`zero`, `ra`, `sp`, ..., `t6`).
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 registers in numeric order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32).map(Reg)
    }
}

const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// Error returned when parsing an unknown register name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    name: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.name)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for Reg {
    type Err = ParseRegError;

    /// Parses either an ABI name (`a0`, `t6`, `fp`, ...) or a numeric name
    /// (`x0` ..= `x31`).
    fn from_str(s: &str) -> Result<Reg, ParseRegError> {
        decode(s.as_bytes()).ok_or_else(|| ParseRegError { name: s.to_owned() })
    }
}

/// A register name read by its bytes: one of the six words, or a letter
/// and a canonical decimal index (no `x07`) within the letter's range.
fn decode(name: &[u8]) -> Option<Reg> {
    let (letter, index) = match name {
        b"zero" => return Some(Reg::ZERO),
        b"ra" => return Some(Reg::RA),
        b"sp" => return Some(Reg::SP),
        b"gp" => return Some(Reg::GP),
        b"tp" => return Some(Reg::TP),
        b"fp" => return Some(Reg::S0),
        &[letter, ones @ b'0'..=b'9'] => (letter, ones - b'0'),
        &[letter, tens @ b'1'..=b'9', ones @ b'0'..=b'9'] => {
            (letter, (tens - b'0') * 10 + (ones - b'0'))
        }
        _ => return None,
    };
    Some(Reg(match (letter, index) {
        (b'x', 0..=31) => index,
        (b't', 0..=2) => 5 + index,
        (b's', 0..=1) => 8 + index,
        (b'a', 0..=7) => 10 + index,
        (b's', 2..=11) => 16 + index,
        (b't', 3..=6) => 25 + index,
        _ => return None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_round_trip() {
        for r in Reg::all() {
            assert_eq!(r.abi_name().parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn numeric_names_round_trip() {
        for r in Reg::all() {
            assert_eq!(format!("x{}", r.number()).parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn fp_is_s0_alias() {
        assert_eq!("fp".parse::<Reg>().unwrap(), Reg::S0);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Reg::new(32).is_none());
        assert!("x32".parse::<Reg>().is_err());
        assert!("x07".parse::<Reg>().is_err());
        assert!("q0".parse::<Reg>().is_err());
    }

    /// The byte decoder against the definitional rule, over every string
    /// of up to three bytes of `[a-z0-9]` and every canonical name.
    #[test]
    fn every_short_string_parses_as_the_rule_says() {
        let rule = |s: &str| {
            let abi = ABI_NAMES.iter().position(|&n| n == s);
            let numeric = (0..32).find(|n| s == format!("x{n}"));
            let fp = (s == "fp").then_some(8);
            abi.or(numeric).or(fp).map(|n| Reg(n as u8))
        };
        let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789";
        let mut strings = vec![String::new()];
        for from in [0, 1, 37] {
            for i in from..strings.len() {
                for c in alphabet.chars() {
                    strings.push(format!("{}{c}", strings[i]));
                }
            }
        }
        assert_eq!(strings.len(), 1 + 36 + 36 * 36 + 36 * 36 * 36);
        strings.extend(["zero", "zer", "zeroo", "x031", "s011", "X1", "a0 "].map(String::from));
        for s in &strings {
            assert_eq!(s.parse::<Reg>().ok(), rule(s), "`{s}`");
        }
        let err = "t7".parse::<Reg>().unwrap_err();
        assert_eq!(err.to_string(), "unknown register name `t7`");
    }

    #[test]
    fn display_matches_abi_name() {
        assert_eq!(Reg::A0.to_string(), "a0");
        assert_eq!(Reg::ZERO.to_string(), "zero");
    }

    #[test]
    fn ordering_follows_numbers() {
        assert!(Reg::ZERO < Reg::RA);
        assert!(Reg::T5 < Reg::T6);
    }
}
