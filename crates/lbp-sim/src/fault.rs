//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is part of the machine configuration: every fault is
//! pinned to an exact cycle or an exact message ordinal, so an injected
//! run is as reproducible as a clean one. The plan models the classic
//! hardware fault universe — a flipped register or memory bit, a corrupted
//! instruction word, a dropped or delayed fabric message — and exists to
//! prove the robustness layer works: every injected fault must surface as
//! a structured [`SimError`](crate::SimError) (usually `Deadlock`,
//! `Decode` or a lockstep divergence), never as a panic.
//!
//! Faults can be written as compact spec strings (the `--fault` flag of
//! `lbp-run` and a batch manifest's `faults` use them):
//!
//! ```text
//! flip-reg:HART:REG:BIT:CYCLE    flip-reg:0:a0:3:500
//! flip-mem:ADDR:BIT:CYCLE        flip-mem:0x30000000:7:1000
//! corrupt-instr:PC:XOR:CYCLE     corrupt-instr:0x8:0xffffffff:1
//! drop-msg:NTH                   drop-msg:0
//! delay-msg:NTH:CYCLES           delay-msg:2:40
//! ```

use std::fmt;

use lbp_isa::{HartId, Reg};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XOR bit `bit` of architectural register `reg` of `hart` (through
    /// its current renaming) at the start of `cycle`.
    FlipReg {
        /// The target hart.
        hart: HartId,
        /// The architectural register (not `x0`).
        reg: Reg,
        /// Bit index, 0-31.
        bit: u32,
        /// The cycle the flip is applied at.
        cycle: u64,
    },
    /// XOR bit `bit` of the shared-memory word containing `addr` at the
    /// start of `cycle`.
    FlipMem {
        /// Any address within the target word (rounded down to 4 bytes).
        addr: u32,
        /// Bit index, 0-31.
        bit: u32,
        /// The cycle the flip is applied at.
        cycle: u64,
    },
    /// XOR the code word at `pc` with `xor` at the start of `cycle`
    /// (every core's code bank is the same copy, so all cores see it).
    CorruptInstr {
        /// The word-aligned code address.
        pc: u32,
        /// The XOR mask (e.g. `0xffff_ffff` inverts the word).
        xor: u32,
        /// The cycle the corruption is applied at.
        cycle: u64,
    },
    /// Silently discard the `nth` message (0-based, in global send order)
    /// entering the fork/join fabric.
    DropMsg {
        /// The 0-based ordinal of the doomed message.
        nth: u64,
    },
    /// Hold the `nth` fabric message back for `cycles` cycles before it
    /// enters its link.
    DelayMsg {
        /// The 0-based ordinal of the delayed message.
        nth: u64,
        /// Extra cycles the message is held (at least 1).
        cycles: u32,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::FlipReg {
                hart,
                reg,
                bit,
                cycle,
            } => write!(f, "flip-reg:{}:{reg}:{bit}:{cycle}", hart.global()),
            Fault::FlipMem { addr, bit, cycle } => {
                write!(f, "flip-mem:{addr:#x}:{bit}:{cycle}")
            }
            Fault::CorruptInstr { pc, xor, cycle } => {
                write!(f, "corrupt-instr:{pc:#x}:{xor:#x}:{cycle}")
            }
            Fault::DropMsg { nth } => write!(f, "drop-msg:{nth}"),
            Fault::DelayMsg { nth, cycles } => write!(f, "delay-msg:{nth}:{cycles}"),
        }
    }
}

/// Parses a decimal or `0x`-prefixed hexadecimal number.
fn parse_num(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("`{s}` is not a number"))
}

fn parse_u32(s: &str) -> Result<u32, String> {
    u32::try_from(parse_num(s)?).map_err(|_| format!("`{s}` does not fit in 32 bits"))
}

impl Fault {
    /// Parses a fault spec string (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn parse(spec: &str) -> Result<Fault, String> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let fields: Vec<&str> = parts.collect();
        let arity = |n: usize| -> Result<(), String> {
            if fields.len() == n {
                Ok(())
            } else {
                Err(format!("`{kind}` takes {n} field(s), got {}", fields.len()))
            }
        };
        match kind {
            "flip-reg" => {
                arity(4)?;
                let reg: Reg = fields[1]
                    .parse()
                    .map_err(|_| format!("`{}` is not a register", fields[1]))?;
                Ok(Fault::FlipReg {
                    hart: HartId::new(parse_u32(fields[0])?),
                    reg,
                    bit: parse_u32(fields[2])?,
                    cycle: parse_num(fields[3])?,
                })
            }
            "flip-mem" => {
                arity(3)?;
                Ok(Fault::FlipMem {
                    addr: parse_u32(fields[0])?,
                    bit: parse_u32(fields[1])?,
                    cycle: parse_num(fields[2])?,
                })
            }
            "corrupt-instr" => {
                arity(3)?;
                Ok(Fault::CorruptInstr {
                    pc: parse_u32(fields[0])?,
                    xor: parse_u32(fields[1])?,
                    cycle: parse_num(fields[2])?,
                })
            }
            "drop-msg" => {
                arity(1)?;
                Ok(Fault::DropMsg {
                    nth: parse_num(fields[0])?,
                })
            }
            "delay-msg" => {
                arity(2)?;
                Ok(Fault::DelayMsg {
                    nth: parse_num(fields[0])?,
                    cycles: parse_u32(fields[1])?,
                })
            }
            other => Err(format!(
                "unknown fault kind `{other}` (expected flip-reg, flip-mem, corrupt-instr, \
                 drop-msg or delay-msg)"
            )),
        }
    }

    /// The cycle a time-triggered fault fires at (`None` for the
    /// message-ordinal faults, which fire on send).
    pub fn cycle(&self) -> Option<u64> {
        match self {
            Fault::FlipReg { cycle, .. }
            | Fault::FlipMem { cycle, .. }
            | Fault::CorruptInstr { cycle, .. } => Some(*cycle),
            Fault::DropMsg { .. } | Fault::DelayMsg { .. } => None,
        }
    }
}

/// A deterministic schedule of faults to inject into one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, in no particular order (each carries its own trigger).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan injecting nothing (the default configuration).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a fault to the plan.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }
}

impl FromIterator<Fault> for FaultPlan {
    fn from_iter<T: IntoIterator<Item = Fault>>(iter: T) -> FaultPlan {
        FaultPlan {
            faults: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_display() {
        for spec in [
            "flip-reg:0:a0:3:500",
            "flip-mem:0x30000000:7:1000",
            "corrupt-instr:0x8:0xffffffff:1",
            "drop-msg:0",
            "delay-msg:2:40",
        ] {
            let fault = Fault::parse(spec).unwrap();
            assert_eq!(Fault::parse(&fault.to_string()).unwrap(), fault);
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        assert!(Fault::parse("flip-reg:0:a0:3").unwrap_err().contains("4"));
        assert!(Fault::parse("drop-msg:x").unwrap_err().contains("x"));
        assert!(Fault::parse("melt-cpu:1").unwrap_err().contains("melt-cpu"));
        assert!(Fault::parse("flip-reg:0:q9:3:1")
            .unwrap_err()
            .contains("register"));
    }

    #[test]
    fn hex_and_decimal_numbers_parse() {
        assert_eq!(parse_num("0x10").unwrap(), 16);
        assert_eq!(parse_num("16").unwrap(), 16);
        assert!(parse_num("").is_err());
    }
}
