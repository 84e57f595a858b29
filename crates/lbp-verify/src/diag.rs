//! Structured diagnostics and the `lbp-diag-v1` report format.
//!
//! Every finding of the static analyses — source-level race detection in
//! `lbp-cc` and binary-level protocol verification in this crate — is a
//! [`Diag`]: a stable machine-readable code, a severity, a source span,
//! and optional evidence (a hart-pair witness for races, a wait-reason
//! for protocol hangs, a fix hint). A set of diagnostics serializes to
//! the `lbp-diag-v1` JSON schema consumed by CI and by the `--verify` /
//! `--lint` command-line surfaces.

use std::fmt;

/// Stable diagnostic codes. `S*` codes come from the source-level race
/// analysis, `B*` codes from the binary-level protocol verifier, `M*`
/// codes from the binary-level shared-memory determinism pass, `C*`
/// codes are semantic (front-end) errors re-reported through the lint
/// surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// A semantic (sema) error surfaced through the lint pipeline.
    CSema,
    /// Two harts of a team conflict on a shared scalar.
    SSharedScalar,
    /// Two harts of a team write the same shared array element.
    SOverlappingWrite,
    /// A hart reads a shared array element another hart writes
    /// (a loop-carried dependence across team members).
    SLoopCarried,
    /// A shared-array subscript the affine analysis cannot prove
    /// hart-disjoint.
    SUnprovable,
    /// A store through a pointer inside a parallel region (defeats the
    /// independence analysis).
    SPointerStore,
    /// A `p_lwre` receive with no `p_swre` sender anywhere in the image.
    BRecvNoSender,
    /// A `p_lwcv` continuation-value load from a slot no `p_swcv` in the
    /// image ever writes.
    BCvNeverSent,
    /// A `p_swcv` whose hart operand does not hold a fork result.
    BSwcvNoFork,
    /// A `p_jalr`/`p_jal` start whose identity operand is not a merged
    /// identity word.
    BStartNoIdentity,
    /// A fork transmission not drained by `p_syncm` before the start.
    BMissingSyncm,
    /// A continuation loads a cv slot its forker never transmitted.
    BContinuationSlot,
    /// A `p_ret` whose `t0` is a constant that is neither the exit
    /// sentinel nor an identity word, or an exit with a return address.
    BMalformedRet,
    /// Control flow reaches the end of the text section or an
    /// undecodable word.
    BFallsOffText,
    /// Two team members' shared-store footprints provably overlap
    /// within one sync epoch.
    MOverlappingWrite,
    /// A team member reads a shared address another member provably
    /// writes within the same sync epoch.
    MRacingRead,
    /// A shared access whose address the affine analysis cannot prove
    /// member-disjoint (interval-valued subscript or analysis budget
    /// exceeded).
    MUnprovableSubscript,
    /// A store through an address of unknown provenance inside a
    /// parallel epoch.
    MUnknownStore,
    /// A shared-region pointer value is itself stored to shared memory
    /// inside a parallel epoch (escapes the epoch's footprint
    /// reasoning).
    MEscapingPointer,
    /// The whole team's shared-write footprint lands in a single
    /// memory bank while the team spans several cores (serializes at
    /// the bank, a determinism-preserving performance hazard).
    MBankAliasing,
}

impl DiagCode {
    /// The stable string form used in reports and asserted by CI
    /// (e.g. `LBP-S001`).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::CSema => "LBP-C001",
            DiagCode::SSharedScalar => "LBP-S001",
            DiagCode::SOverlappingWrite => "LBP-S002",
            DiagCode::SLoopCarried => "LBP-S003",
            DiagCode::SUnprovable => "LBP-S004",
            DiagCode::SPointerStore => "LBP-S005",
            DiagCode::BRecvNoSender => "LBP-B001",
            DiagCode::BCvNeverSent => "LBP-B002",
            DiagCode::BSwcvNoFork => "LBP-B003",
            DiagCode::BStartNoIdentity => "LBP-B004",
            DiagCode::BMissingSyncm => "LBP-B005",
            DiagCode::BContinuationSlot => "LBP-B006",
            DiagCode::BMalformedRet => "LBP-B007",
            DiagCode::BFallsOffText => "LBP-B008",
            DiagCode::MOverlappingWrite => "LBP-M001",
            DiagCode::MRacingRead => "LBP-M002",
            DiagCode::MUnprovableSubscript => "LBP-M003",
            DiagCode::MUnknownStore => "LBP-M004",
            DiagCode::MEscapingPointer => "LBP-M005",
            DiagCode::MBankAliasing => "LBP-M006",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How severe a finding is. Only `Error` rejects a program; `Warning`
/// marks constructs the analysis cannot prove safe, `Info` carries
/// classification notes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Classification or context, never affects the verdict.
    Info,
    /// Not provably safe; surfaced but accepted.
    Warning,
    /// A definite violation; the program is rejected.
    Error,
}

impl Severity {
    /// The lowercase string used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding of a static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Stable diagnostic code.
    pub code: DiagCode,
    /// Severity; `Error` rejects the program.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// 1-based source line (0 when unknown / generated code).
    pub line: usize,
    /// The faulting program counter for binary-level findings. Carries
    /// the location even when `line` is 0 (generated code, fuzz
    /// corpora).
    pub pc: Option<u32>,
    /// For races: the concrete hart pair (and element) that conflicts.
    pub witness: Option<String>,
    /// For protocol hangs: what the blocked hart would wait for, phrased
    /// like the dynamic deadlock detector's reasons.
    pub wait_reason: Option<String>,
    /// A suggested fix.
    pub hint: Option<String>,
}

impl Diag {
    /// Creates a diagnostic with no evidence attached.
    pub fn new(
        code: DiagCode,
        severity: Severity,
        line: usize,
        message: impl Into<String>,
    ) -> Diag {
        Diag {
            code,
            severity,
            message: message.into(),
            line,
            pc: None,
            witness: None,
            wait_reason: None,
            hint: None,
        }
    }

    /// Attaches the faulting program counter.
    pub fn with_pc(mut self, pc: u32) -> Diag {
        self.pc = Some(pc);
        self
    }

    /// Attaches a hart-pair witness.
    pub fn with_witness(mut self, witness: impl Into<String>) -> Diag {
        self.witness = Some(witness.into());
        self
    }

    /// Attaches a wait-reason (what the hang would block on).
    pub fn with_wait_reason(mut self, reason: impl Into<String>) -> Diag {
        self.wait_reason = Some(reason.into());
        self
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Diag {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity.as_str(), self.code)?;
        if self.line > 0 {
            write!(f, " line {}", self.line)?;
        }
        if let Some(pc) = self.pc {
            write!(f, " pc {pc:#x}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(w) = &self.witness {
            write!(f, "\n    witness: {w}")?;
        }
        if let Some(r) = &self.wait_reason {
            write!(f, "\n    waits on: {r}")?;
        }
        if let Some(h) = &self.hint {
            write!(f, "\n    hint: {h}")?;
        }
        Ok(())
    }
}

/// The verdict over a set of diagnostics: a program is accepted unless
/// some diagnostic is an [`Severity::Error`].
pub fn accepted(diags: &[Diag]) -> bool {
    diags.iter().all(|d| d.severity != Severity::Error)
}

/// The human-readable verdict: one line per diagnostic, then the
/// summary line with the per-code breakdown.
pub fn report_text(diags: &[Diag]) -> String {
    let mut out = String::new();
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for d in diags {
        out.push_str(&format!("{d}\n"));
        *counts.entry(d.code.as_str()).or_insert(0) += 1;
    }
    let breakdown = if counts.is_empty() {
        String::new()
    } else {
        let parts: Vec<String> = counts.iter().map(|(c, n)| format!("{c} x{n}")).collect();
        format!(": {}", parts.join(", "))
    };
    out.push_str(&format!(
        "verify:   {} ({} diagnostic{}{breakdown})\n",
        if accepted(diags) {
            "accepted"
        } else {
            "rejected"
        },
        diags.len(),
        if diags.len() == 1 { "" } else { "s" }
    ));
    out
}

/// Serializes diagnostics as an `lbp-diag-v1` JSON report.
///
/// Layout:
///
/// ```json
/// {
///   "schema": "lbp-diag-v1",
///   "program": "examples/asm/hung.s",
///   "verdict": "reject",
///   "diags": [ { "code": "...", "severity": "...", "line": N,
///                "pc": N, "message": "...", "witness": ...,
///                "wait_reason": ..., "hint": ... } ]
/// }
/// ```
pub fn report_json(program: &str, diags: &[Diag]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"lbp-diag-v1\",\n  \"program\": ");
    json_string(&mut out, program);
    out.push_str(",\n  \"verdict\": ");
    json_string(&mut out, if accepted(diags) { "accept" } else { "reject" });
    out.push_str(",\n  \"diags\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"code\": ");
        json_string(&mut out, d.code.as_str());
        out.push_str(", \"severity\": ");
        json_string(&mut out, d.severity.as_str());
        out.push_str(&format!(", \"line\": {}", d.line));
        if let Some(pc) = d.pc {
            out.push_str(&format!(", \"pc\": {pc}"));
        }
        out.push_str(", \"message\": ");
        json_string(&mut out, &d.message);
        for (key, value) in [
            ("witness", &d.witness),
            ("wait_reason", &d.wait_reason),
            ("hint", &d.hint),
        ] {
            if let Some(v) = value {
                out.push_str(&format!(", \"{key}\": "));
                json_string(&mut out, v);
            }
        }
        out.push('}');
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Appends a JSON string literal (with escaping) to `out`.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let codes = [
            DiagCode::CSema,
            DiagCode::SSharedScalar,
            DiagCode::SOverlappingWrite,
            DiagCode::SLoopCarried,
            DiagCode::SUnprovable,
            DiagCode::SPointerStore,
            DiagCode::BRecvNoSender,
            DiagCode::BCvNeverSent,
            DiagCode::BSwcvNoFork,
            DiagCode::BStartNoIdentity,
            DiagCode::BMissingSyncm,
            DiagCode::BContinuationSlot,
            DiagCode::BMalformedRet,
            DiagCode::BFallsOffText,
            DiagCode::MOverlappingWrite,
            DiagCode::MRacingRead,
            DiagCode::MUnprovableSubscript,
            DiagCode::MUnknownStore,
            DiagCode::MEscapingPointer,
            DiagCode::MBankAliasing,
        ];
        let strings: std::collections::HashSet<&str> = codes.iter().map(|c| c.as_str()).collect();
        assert_eq!(strings.len(), codes.len());
    }

    #[test]
    fn verdict_follows_severity() {
        let warn = Diag::new(DiagCode::SUnprovable, Severity::Warning, 1, "w");
        let err = Diag::new(DiagCode::SSharedScalar, Severity::Error, 2, "e");
        assert!(accepted(std::slice::from_ref(&warn)));
        assert!(!accepted(&[warn, err]));
    }

    #[test]
    fn json_report_shape() {
        let d = Diag::new(
            DiagCode::BRecvNoSender,
            Severity::Error,
            5,
            "receive \"never\" sent",
        )
        .with_wait_reason("a p_swre result in slot 3 that is never sent");
        let json = report_json("hung.s", &[d]);
        assert!(json.contains("\"schema\": \"lbp-diag-v1\""));
        assert!(json.contains("\"verdict\": \"reject\""));
        assert!(json.contains("\"code\": \"LBP-B001\""));
        assert!(json.contains("\\\"never\\\""));
        assert!(json.contains("\"wait_reason\""));
    }

    #[test]
    fn pc_rendered_when_line_unknown() {
        let d =
            Diag::new(DiagCode::MUnknownStore, Severity::Warning, 0, "wild store").with_pc(0x44);
        let text = d.to_string();
        assert!(!text.contains("line"));
        assert!(text.contains("pc 0x44"));
        let json = report_json("gen.s", std::slice::from_ref(&d));
        assert!(json.contains("\"pc\": 68"));
        let without = Diag::new(DiagCode::CSema, Severity::Error, 3, "x");
        assert!(!report_json("a.c", &[without]).contains("\"pc\""));
    }

    #[test]
    fn display_carries_evidence() {
        let d = Diag::new(DiagCode::SSharedScalar, Severity::Error, 9, "race on `g`")
            .with_witness("harts t=0 and t=1 both write `g`")
            .with_hint("privatize `g` or make it a reduction");
        let text = d.to_string();
        assert!(text.contains("LBP-S001"));
        assert!(text.contains("witness"));
        assert!(text.contains("hint"));
    }
}
