//! Shared by the five `cli_grammar.rs` suites (this package's and, by
//! `#[path]`, each tool crate's): the contract every tool's command line
//! holds, checked on the built binary: `--help` is an answer (stdout, exit 0) listing exactly the
//! pinned spellings, a bad command line is a usage error (the same text
//! on stderr, exit 2), and no document spells a flag the tool's table
//! does not have.

#![allow(dead_code)] // each suite uses its share

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The five tools, for telling where one tool's flags end in a document.
const TOOLS: [&str; 5] = ["lbp-run", "lbp-cc", "lbp-batch", "lbp-fuzz", "figures"];

/// The documents whose command lines must exist, relative to the
/// workspace root.
const DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// One row of the flag table a generated `--help` text prints.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HelpFlag {
    /// How many values the flag takes.
    pub arity: usize,
    /// The modes of its `[modes: ..]` line (empty for a mode selector
    /// or a tool without modes).
    pub modes: Vec<String>,
}

/// The flag table a generated `--help` text prints, by spelling. A row
/// is two spaces, the spelling, its value names, two spaces, the help.
pub fn help_table(help: &str) -> BTreeMap<String, HelpFlag> {
    let mut table: BTreeMap<String, HelpFlag> = BTreeMap::new();
    let mut last = None;
    for line in help.lines() {
        if line.starts_with("  -") {
            let head = line[2..].split("  ").next().unwrap_or("");
            let mut words = head.split(' ').map(str::to_owned);
            let name = words.next().expect("a spelling");
            table.entry(name.clone()).or_default().arity = words.count();
            last = Some(name);
        } else if let Some(modes) = line.trim().strip_prefix("[modes: ") {
            let modes = modes.trim_end_matches(']').split(' ').map(str::to_owned);
            let flag = last.as_ref().expect("a [modes: ..] line follows its flag");
            table.entry(flag.clone()).or_default().modes = modes.collect();
        }
    }
    table
}

/// The mode names a generated `--help` text lists, default first.
pub fn help_modes(help: &str) -> Vec<String> {
    let section = help.split("\nmodes (").nth(1).unwrap_or("");
    let rows = section.lines().skip(1).take_while(|l| !l.is_empty());
    rows.map(|l| l.split_whitespace().next().unwrap_or("").to_owned())
        .collect()
}

/// Every `--flag` a document spells beside `tool`'s name: on the same
/// line (backslash continuations joined), up to the next tool's name.
/// `-p tool` and `--bin tool` name a cargo package or target, whose own
/// arguments only start after ` -- `.
fn documented_flags(text: &str, tool: &str) -> Vec<String> {
    let text = text.replace("\\\n", " ");
    let mut found = Vec::new();
    for line in text.lines() {
        let mut rest = line;
        while let Some(at) = rest.find(tool) {
            let before = &rest[..at];
            let mut after = &rest[at + tool.len()..];
            rest = after;
            let word_start = !before.ends_with(|c: char| c.is_alphanumeric() || c == '-');
            let word_end = !after.starts_with(|c: char| c.is_alphanumeric() || c == '-');
            if !word_start || !word_end {
                continue;
            }
            if before.ends_with("-p ") || before.ends_with("--bin ") {
                match after.split_once(" -- ") {
                    Some((_, args)) => after = args,
                    None => continue,
                }
            }
            let end = TOOLS.iter().filter_map(|t| after.find(t)).min();
            for word in after[..end.unwrap_or(after.len())]
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            {
                if word.starts_with("--") && word.len() > 2 {
                    found.push(word.to_owned());
                }
            }
        }
    }
    found
}

/// Checks `tool`'s built binary `exe` against the contract; `pinned` is
/// the sorted list of its flag spellings.
///
/// # Panics
///
/// On any breach, naming it.
pub fn check_contract(exe: &Path, tool: &str, pinned: &[&str]) {
    let help = Command::new(exe)
        .arg("--help")
        .output()
        .expect("tool spawns");
    assert_eq!(help.status.code(), Some(0), "{tool} --help is an answer");
    assert!(help.stderr.is_empty(), "{tool} --help owns stdout only");
    let text = String::from_utf8(help.stdout).expect("utf-8 help");
    assert!(text.starts_with(&format!("usage: {tool} ")), "{text}");
    let table = help_table(&text);
    let listed: Vec<&str> = table.keys().map(String::as_str).collect();
    assert_eq!(listed, pinned, "{tool}: flags added, removed or renamed");

    let bad = Command::new(exe)
        .arg("--no-such-flag")
        .output()
        .expect("tool spawns");
    assert_eq!(
        bad.status.code(),
        Some(2),
        "{tool}: a bad flag is a usage error"
    );
    assert!(bad.stdout.is_empty(), "{tool}: usage errors go to stderr");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.starts_with(&text) && stderr.contains("unknown flag `--no-such-flag`"),
        "{stderr}"
    );

    // Compiled into this package and into three tool crates below it.
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !root.join("ROADMAP.md").exists() {
        assert!(root.pop(), "no workspace root above the manifest");
    }
    for doc in DOCS {
        let body = std::fs::read_to_string(root.join(doc)).expect("document reads");
        for flag in documented_flags(&body, tool) {
            assert!(
                flag == "--help" || table.contains_key(&flag),
                "{doc} spells `{tool} {flag}`, which `{tool} --help` does not list"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documented_flags_stop_at_the_next_tool_and_skip_cargo_arguments() {
        let doc = "run `lbp-run a.c --verify` or `lbp-cc a.c --lint --diag-json -`\n\
                   cargo build --release --bin lbp-run --bin lbp-cc\n\
                   cargo run -p lbp-bench --release --bin figures -- fig19 --csv\n\
                   ./lbp-run x.s --trace - \\\n     --trace-format jsonl\n\
                   my-lbp-run --nope and lbp-runner --nope\n";
        assert_eq!(
            documented_flags(doc, "lbp-run"),
            ["--verify", "--trace", "--trace-format"]
        );
        assert_eq!(documented_flags(doc, "lbp-cc"), ["--lint", "--diag-json"]);
        assert_eq!(documented_flags(doc, "figures"), ["--csv"]);
    }

    #[test]
    fn help_tables_parse() {
        let help = "usage: t <p>\n\nmodes (at most one selector; default run):\n  \
                    run            run it\n  check          check it (--check)\n\noptions:\n  \
                    --cores N          size\n                     (default 4)\n                     \
                    [modes: run]\n  --check            check\n  -o FILE            out\n                     \
                    [modes: run check]\n\nexit codes: 0\n";
        let table = help_table(help);
        assert_eq!(
            (table["--cores"].arity, &table["--cores"].modes[..]),
            (1, &["run".to_owned()][..])
        );
        assert_eq!(table["--check"], HelpFlag::default());
        assert_eq!(table["-o"].modes, ["run", "check"]);
        assert_eq!(help_modes(help), ["run", "check"]);
    }
}
