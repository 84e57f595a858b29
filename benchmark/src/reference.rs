//! The pins, read from `results_reference.txt` at set-up.
//!
//! `crates/lbp-bench/tests/golden_reference.rs` holds the simulator to the
//! same file, so the benchmark and the golden test cannot drift apart: a
//! re-blessed reference moves both. A row that is missing or does not
//! parse is a set-up failure naming the row.

use std::path::{Path, PathBuf};

/// Cycles and retired instructions of one reference row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
}

/// The root of the repository this package was built in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_owned()
}

/// Reads the reference file of the repository.
///
/// # Errors
///
/// Names the path when the file cannot be read.
pub fn read_reference() -> Result<String, String> {
    let path = repo_root().join("results_reference.txt");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The row `row` of the table whose heading line starts with `section`.
///
/// Figure rows read `name cycles IPC retired locality` and the C2 rows
/// `name cycles retired retired/member`, so cycles is the first number
/// after the name in both and retired the third or second.
///
/// # Errors
///
/// Names the section and row when either is missing or malformed.
pub fn pin(reference: &str, section: &str, row: &str) -> Result<Pin, String> {
    let missing =
        |what: &str| format!("results_reference.txt: {what} (row `{row}` of `{section}`)");
    let mut lines = reference
        .lines()
        .skip_while(|l| !l.starts_with(section))
        .skip(1)
        .take_while(|l| !l.trim().is_empty());
    let line = lines
        .find(|l| {
            l.strip_prefix(row)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .ok_or_else(|| missing("row not found"))?;
    let fields: Vec<&str> = line[row.len()..].split_whitespace().collect();
    let retired_at = if section.starts_with("Figure") { 2 } else { 1 };
    let number = |at: usize, what: &str| {
        fields
            .get(at)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| missing(&format!("no {what} count")))
    };
    Ok(Pin {
        cycles: number(0, "cycle")?,
        retired: number(retired_at, "retired")?,
    })
}

/// Heading prefix of the 64-hart matmul table.
pub const FIG20: &str = "Figure 20";
/// Heading prefix of the 256-hart matmul table.
pub const FIG21: &str = "Figure 21";
/// Heading prefix of the fork-join overhead table.
pub const C2: &str = "C2 ";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_four_pins_parse_from_the_checked_in_file() {
        let text = read_reference().unwrap();
        let p = |s, r| pin(&text, s, r).unwrap();
        assert_eq!(p(FIG20, "tiled").retired, 1_710_576);
        assert!(p(FIG20, "base").cycles > p(FIG20, "tiled").cycles);
        assert_eq!(p(FIG21, "tiled").retired, 82_256_064);
        assert_eq!(p(C2, "fork-join x256").retired, 7360);
    }

    #[test]
    fn a_missing_or_malformed_row_is_named() {
        let text = read_reference().unwrap();
        let e = pin(&text, FIG20, "no-such-version").unwrap_err();
        assert!(
            e.contains("no-such-version") && e.contains("Figure 20"),
            "{e}"
        );
        // `d+c` must not match the `distributed` row, nor `fork-join x2`
        // the `x256` one.
        assert_eq!(
            pin(&text, FIG20, "d").unwrap_err(),
            e.replace("no-such-version", "d")
        );
        assert!(pin(&text, C2, "fork-join x2").is_err());
        let broken = text.replace("tiled                          112262", "tiled  lots");
        let e = pin(&broken, FIG20, "tiled").unwrap_err();
        assert!(e.contains("no cycle count") && e.contains("tiled"), "{e}");
        assert!(pin("", FIG21, "tiled").is_err());
    }
}
