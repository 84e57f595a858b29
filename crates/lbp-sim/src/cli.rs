//! The one command-line grammar under `lbp-run`, `lbp-cc`, `lbp-batch`,
//! `lbp-fuzz` and `figures`: a tool declares its flags once, as a table
//! ([`Grammar`]) of spelling, value names, the *modes* the flag is legal
//! in and help text, and gets from it the `--help` text
//! ([`Grammar::help`]), the parse ([`Grammar::parse`] → [`Args`] with
//! typed getters) and the legality check — a flag the selected mode
//! would never read is a usage error naming the flag and the mode.
//! What an invocation says is one [`Outcome`], which
//! [`Outcome::finish`], the only writer of the process's streams, writes.

#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

use crate::ExitClass;

/// A mask that makes a flag or positional legal in every mode.
pub const ALL_MODES: u32 = u32::MAX;

/// One flag of a tool's command line.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The spelling (`--cores`, `-o`).
    pub name: &'static str,
    /// Names of the values the flag consumes (none for a switch).
    pub values: &'static [&'static str],
    /// Mask of the modes the flag is legal in: bit `i` is mode `i` of
    /// [`Grammar::modes`].
    pub modes: u32,
    /// Help text; lines after the first are continuation lines.
    pub help: &'static str,
    /// The mode (a one-bit mask) this flag selects, or 0.
    pub selects: u32,
    /// Whether the flag may be given more than once.
    pub repeatable: bool,
    /// The flag only means something beside at least one of these.
    pub requires: &'static [&'static Flag],
    /// The flag contradicts each of these.
    pub excludes: &'static [&'static Flag],
}

impl Flag {
    /// A flag taking `values`, legal in `modes`.
    pub const fn new(
        name: &'static str,
        values: &'static [&'static str],
        modes: u32,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            values,
            modes,
            help,
            selects: 0,
            repeatable: false,
            requires: &[],
            excludes: &[],
        }
    }

    /// The flag selects `mode` (a one-bit mask).
    pub const fn selects(self, mode: u32) -> Flag {
        Flag {
            selects: mode,
            ..self
        }
    }

    /// The flag may be repeated.
    pub const fn repeatable(self) -> Flag {
        Flag {
            repeatable: true,
            ..self
        }
    }

    /// The flag needs at least one of `flags` beside it.
    pub const fn requires(self, flags: &'static [&'static Flag]) -> Flag {
        Flag {
            requires: flags,
            ..self
        }
    }

    /// The flag cannot combine with any of `flags`.
    pub const fn excludes(self, flags: &'static [&'static Flag]) -> Flag {
        Flag {
            excludes: flags,
            ..self
        }
    }
}

/// Declares a tool's flags: one `const NAME: &Flag` per row, so the rest
/// of the tool names a flag without spelling it again, and the table of
/// all of them in declaration order.
#[macro_export]
macro_rules! flags {
    ($table:ident: $($id:ident = $flag:expr;)*) => {
        $(const $id: &$crate::cli::Flag = &$flag;)*
        const $table: &[&$crate::cli::Flag] = &[$($id),*];
    };
}

/// The arguments that are not flags.
#[derive(Debug, Clone, Copy)]
pub struct Positional {
    /// How usage errors name it (`<program.c|program.s>`).
    pub name: &'static str,
    /// Modes that need at least one.
    pub required: u32,
    /// Modes that accept any.
    pub allowed: u32,
    /// Whether more than one may be given.
    pub many: bool,
}

impl Positional {
    /// A single positional argument.
    pub const fn one(name: &'static str, required: u32, allowed: u32) -> Positional {
        Positional {
            name,
            required,
            allowed,
            many: false,
        }
    }
}

/// A tool's whole command line.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// The tool's name, prefixed to every diagnostic.
    pub tool: &'static str,
    /// The `usage:` lines.
    pub synopsis: &'static [&'static str],
    /// A paragraph under the synopsis (may be empty).
    pub about: &'static str,
    /// What an invocation can *do*, as (name, one line of help). The
    /// first is the default when no selector flag is given.
    pub modes: &'static [(&'static str, &'static str)],
    /// The non-flag arguments.
    pub positional: Positional,
    /// The flag table.
    pub flags: &'static [&'static Flag],
    /// Text after the flag list (exit codes; may be empty).
    pub footer: &'static str,
}

/// Why [`Grammar::parse`] produced no [`Args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `--help` / `-h`: the usage text is the answer.
    Help,
    /// A bad command line, described.
    Usage(String),
}

/// A parsed, legality-checked command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The selected mode, as its one-bit mask.
    mode: u32,
    /// Flag occurrences in command-line order, each with its values.
    given: Vec<(&'static Flag, Vec<String>)>,
    positional: Vec<String>,
}

impl Grammar {
    /// The generated `--help` text.
    pub fn help(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.synopsis.iter().enumerate() {
            let head = if i == 0 { "usage:" } else { "      " };
            let _ = writeln!(out, "{head} {line}");
        }
        if !self.about.is_empty() {
            let _ = writeln!(out, "\n{}", self.about);
        }
        let moded = self.modes.len() > 1;
        if moded {
            let default = self.modes[0].0;
            let _ = writeln!(out, "\nmodes (at most one selector; default {default}):");
            for (i, (name, about)) in self.modes.iter().enumerate() {
                let selectors = self.flags.iter().filter(|f| f.selects == 1 << i);
                let by: Vec<&str> = selectors.map(|f| f.name).collect();
                let by = if by.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", by.join(" | "))
                };
                let _ = writeln!(out, "  {name:<14} {about}{by}");
            }
        }
        let _ = writeln!(out, "\noptions:");
        for flag in self.flags {
            let head = [&[flag.name], flag.values].concat().join(" ");
            let mut lines = flag.help.lines();
            // Two spaces end the head, however long it is.
            let _ = writeln!(out, "  {head:<17}  {}", lines.next().unwrap_or(""));
            for line in lines {
                let _ = writeln!(out, "  {:<18} {line}", "");
            }
            if moded && flag.selects == 0 {
                let legal = self.modes.iter().enumerate();
                let legal: Vec<&str> = legal
                    .filter(|(i, _)| flag.modes & (1 << i) != 0)
                    .map(|(_, mode)| mode.0)
                    .collect();
                let _ = writeln!(out, "  {:<18} [modes: {}]", "", legal.join(" "));
            }
        }
        if !self.footer.is_empty() {
            let _ = writeln!(out, "\n{}", self.footer);
        }
        out
    }

    /// Parses and checks a command line (without the program name).
    ///
    /// # Errors
    ///
    /// [`Stop::Help`] when help was asked for; [`Stop::Usage`] for an
    /// unknown or repeated flag, a missing value, a stray argument, two
    /// mode selectors, a flag that does not apply to the selected mode,
    /// or a broken `requires`/`excludes` rule.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
        let bad = |what: String| Err(Stop::Usage(what));
        let mut argv = argv.into_iter();
        let mut given: Vec<(&'static Flag, Vec<String>)> = Vec::new();
        let mut positional = Vec::new();
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help);
            }
            if !arg.starts_with('-') || arg == "-" {
                if !positional.is_empty() && !self.positional.many {
                    return bad(format!("unexpected argument `{arg}`"));
                }
                positional.push(arg);
                continue;
            }
            let Some(flag) = self.flags.iter().copied().find(|f| f.name == arg) else {
                return bad(format!("unknown flag `{arg}`"));
            };
            if !flag.repeatable && given.iter().any(|(f, _)| f.name == flag.name) {
                return bad(format!("`{arg}` given twice"));
            }
            // A value is taken verbatim: `-` (stdout) and negative
            // numbers are values, not flags.
            let values: Vec<String> = argv.by_ref().take(flag.values.len()).collect();
            if values.len() < flag.values.len() {
                return bad(format!("`{arg}` needs {}", flag.values.join(" ")));
            }
            given.push((flag, values));
        }
        let has = |f: &Flag| given.iter().any(|(g, _)| g.name == f.name);

        let mut selector: Option<&Flag> = None;
        for (flag, _) in given.iter().filter(|(f, _)| f.selects != 0) {
            match selector {
                Some(first) if first.selects != flag.selects => {
                    let (a, b) = (first.name, flag.name);
                    return bad(format!("`{a}` and `{b}` each select a mode; pick one"));
                }
                _ => selector = Some(flag),
            }
        }
        let mask = selector.map_or(1, |f| f.selects);
        let name = self.modes[mask.trailing_zeros() as usize].0;
        let mode = match (self.modes.len(), selector) {
            (1, _) => self.tool.to_owned(),
            (_, None) => format!("mode `{name}`"),
            (_, Some(f)) => format!("mode `{name}` (selected by `{}`)", f.name),
        };
        for (flag, _) in &given {
            if flag.modes & mask == 0 {
                return bad(format!("`{}` does not apply to {mode}", flag.name));
            }
            if !flag.requires.is_empty() && !flag.requires.iter().any(|r| has(r)) {
                let names: Vec<String> = flag
                    .requires
                    .iter()
                    .map(|r| format!("`{}`", r.name))
                    .collect();
                return bad(format!("`{}` needs {}", flag.name, names.join(" or ")));
            }
            if let Some(other) = flag.excludes.iter().find(|x| has(x)) {
                return bad(format!(
                    "`{}` cannot combine with `{}`",
                    flag.name, other.name
                ));
            }
        }
        if positional.is_empty() && self.positional.required & mask != 0 {
            return bad(format!("{mode} needs {}", self.positional.name));
        }
        if !positional.is_empty() && self.positional.allowed & mask == 0 {
            return bad(format!("`{}` does not apply to {mode}", positional[0]));
        }
        Ok(Args {
            mode: mask,
            given,
            positional,
        })
    }

    /// One invocation of the tool: the process's command line, parsed
    /// and handed to `body` with the outcome it says its piece on. `body`
    /// ends with `Err` for any class but [`ExitClass::Ok`]. A command line
    /// that runs nothing is the whole outcome: `--help` is the usage on
    /// stdout, a bad one [`Outcome::refuse`]d.
    pub fn outcome(
        &'static self,
        body: impl FnOnce(&Args, &mut Outcome) -> Result<(), ExitClass>,
    ) -> Outcome {
        Outcome::of(self, |o| match self.parse(std::env::args().skip(1)) {
            Ok(args) => body(&args, o),
            Err(Stop::Help) => {
                o.stdout = self.help();
                Ok(())
            }
            Err(Stop::Usage(what)) => Err(o.refuse(&what)),
        })
    }
}

impl Args {
    /// The selected mode as its one-bit mask.
    pub fn mode(&self) -> u32 {
        self.mode
    }

    /// The arguments that are not flags.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &Flag) -> bool {
        self.values(flag).is_some()
    }

    /// The values of `flag`'s (last) occurrence.
    pub fn values(&self, flag: &Flag) -> Option<&[String]> {
        let hit = self.given.iter().rev().find(|(f, _)| f.name == flag.name);
        hit.map(|(_, v)| v.as_slice())
    }

    /// The single value of a one-value flag.
    pub fn str(&self, flag: &Flag) -> Option<&str> {
        self.values(flag).map(|v| v[0].as_str())
    }

    /// The value of a one-value flag, parsed.
    ///
    /// # Errors
    ///
    /// A malformed value, naming the flag.
    pub fn get<T: FromStr>(&self, flag: &Flag) -> Result<Option<T>, String> {
        self.get_with(flag, |s| {
            s.parse().map_err(|_| format!("want {}", flag.values[0]))
        })
    }

    /// [`Args::get`] through the tool's own value parser.
    ///
    /// # Errors
    ///
    /// As [`Args::all_with`].
    pub fn get_with<'a, T>(
        &'a self,
        flag: &Flag,
        parse: impl Fn(&'a str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        Ok(self.all_with(flag, parse)?.pop())
    }

    /// Every occurrence of a one-value flag, through the tool's own
    /// value parser.
    ///
    /// # Errors
    ///
    /// What `parse` answered for the first malformed occurrence,
    /// prefixed with the flag and the value.
    pub fn all_with<'a, T>(
        &'a self,
        flag: &Flag,
        parse: impl Fn(&'a str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let hits = self.given.iter().filter(|(f, _)| f.name == flag.name);
        hits.map(|(_, v)| {
            parse(&v[0]).map_err(|e| format!("bad `{}` value `{}`: {e}", flag.name, v[0]))
        })
        .collect()
    }
}

/// Opens `path` for output; `-` means stdout. Only a stream that must
/// not wait for the end of the run (a trace, a JSONL result stream) goes
/// to stdout this way; everything else is [`Outcome`] text.
///
/// # Errors
///
/// The file cannot be created.
pub fn open_out(path: &str) -> io::Result<Box<dyn Write + Send>> {
    if path == "-" {
        Ok(Box::new(io::stdout()))
    } else {
        let file = std::fs::File::create(path)?;
        Ok(Box::new(io::BufWriter::new(file)))
    }
}

/// Whether `e` says the reader of a pipe went away: no one is left to tell.
pub fn closed(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::BrokenPipe
}

/// What one invocation of a tool says and how it ends. A tool builds
/// exactly one, in order, and [`Outcome::finish`] writes it.
#[derive(Debug)]
pub struct Outcome {
    /// The tool's command line.
    pub grammar: &'static Grammar,
    /// The text for stdout.
    pub stdout: String,
    /// The text for stderr.
    pub stderr: String,
    /// How the invocation ended; the process exit code.
    pub class: ExitClass,
}

impl Outcome {
    /// What `body` says on a fresh outcome of `grammar`'s tool, ending
    /// with the class of its `Err`, or [`ExitClass::Ok`].
    pub fn of(
        grammar: &'static Grammar,
        body: impl FnOnce(&mut Outcome) -> Result<(), ExitClass>,
    ) -> Outcome {
        let mut o = Outcome {
            grammar,
            stdout: String::new(),
            stderr: String::new(),
            class: ExitClass::Ok,
        };
        if let Err(class) = body(&mut o) {
            o.class = class;
        }
        o
    }

    /// Appends `line` as a line of stdout.
    pub fn say(&mut self, line: impl fmt::Display) {
        let _ = writeln!(self.stdout, "{line}");
    }

    /// Appends `tool: what` as a line of stderr.
    pub fn note(&mut self, what: impl fmt::Display) {
        let _ = writeln!(self.stderr, "{}: {what}", self.grammar.tool);
    }

    /// The usage and then `what` — last, where it is read — on stderr:
    /// a bad command line, [`ExitClass::Usage`].
    pub fn refuse(&mut self, what: &str) -> ExitClass {
        let _ = writeln!(self.stderr, "{}", self.grammar.help());
        self.fail(ExitClass::Usage, what)
    }

    /// [`Outcome::note`]s `what` and hands back `class`, for the caller
    /// to end with.
    pub fn fail(&mut self, class: ExitClass, what: impl fmt::Display) -> ExitClass {
        self.note(what);
        class
    }

    /// A stream the tool was writing failed: [`ExitClass::Failure`], noted
    /// as `what: e` unless the reader [`closed`] the pipe.
    pub fn stream_failed(&mut self, what: &str, e: &io::Error) -> ExitClass {
        if !closed(e) {
            self.note(format_args!("{what}: {e}"));
        }
        ExitClass::Failure
    }

    /// Writes `text` to the file at `path`, or appends it to stdout when
    /// `path` is `-`.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn write_out(&mut self, path: &str, text: &str) -> io::Result<()> {
        if path == "-" {
            self.stdout.push_str(text);
            Ok(())
        } else {
            std::fs::write(path, text)
        }
    }

    /// Writes stderr, then stdout, and ends with the class. A stdout whose
    /// reader [`closed`] the pipe ends quietly with the same class, which
    /// was decided before the first byte went out.
    pub fn finish(self) -> ExitCode {
        self.write_to(&mut io::stdout().lock(), &mut io::stderr().lock())
            .into()
    }

    /// [`Outcome::finish`] over any two writers.
    fn write_to(self, out: &mut impl Write, err: &mut impl Write) -> ExitClass {
        // A stderr that cannot be written has no one to tell either.
        let _ = err.write_all(self.stderr.as_bytes());
        let written = out.write_all(self.stdout.as_bytes());
        match written.and_then(|()| out.flush()) {
            Err(e) if !closed(&e) => {
                let _ = writeln!(err, "{}: cannot write stdout: {e}", self.grammar.tool);
                ExitClass::Failure
            }
            _ => self.class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: u32 = 1 << 0;
    const CHECK: u32 = 1 << 1;
    const INFO: u32 = 1 << 2;
    crate::flags! { FLAGS:
        CORES = Flag::new("--cores", &["N"], RUN, "machine size\n(default 4)");
        OUT = Flag::new("--out", &["FILE"], RUN | CHECK, "where to write");
        FAULT = Flag::new("--fault", &["SPEC"], RUN, "inject").repeatable();
        BISECT = Flag::new("--bisect", &[], RUN, "bisect").requires(&[FAULT]);
        QUIET = Flag::new("--quiet", &[], RUN, "say less").excludes(&[OUT]);
        CHECK_F = Flag::new("--check", &[], CHECK, "check").selects(CHECK);
        INFO_F = Flag::new("--info", &["A", "B"], INFO, "compare").selects(INFO);
    }
    static TOOL: Grammar = Grammar {
        tool: "demo",
        synopsis: &["demo <program> [options]", "demo --info A B"],
        about: "A demo.",
        modes: &[
            ("run", "run it"),
            ("check", "check it"),
            ("info", "compare two"),
        ],
        positional: Positional::one("<program>", RUN | CHECK, RUN | CHECK),
        flags: FLAGS,
        footer: "exit codes: 0 ok",
    };

    fn parse(line: &str) -> Result<Args, Stop> {
        TOOL.parse(line.split_whitespace().map(str::to_owned))
    }

    fn refusal(line: &str) -> String {
        match parse(line) {
            Err(Stop::Usage(what)) => what,
            other => panic!("`{line}` was not refused: {other:?}"),
        }
    }

    #[test]
    fn a_dash_is_a_value_and_a_positional_never_a_flag() {
        let args = parse("p.s --out -").unwrap();
        assert_eq!(args.str(OUT), Some("-"));
        assert_eq!(args.positional(), ["p.s"]);
        assert_eq!(parse("-").unwrap().positional(), ["-"]);
        // A value is taken verbatim even when it looks like a flag.
        assert_eq!(
            parse("p.s --out --check").unwrap().str(OUT),
            Some("--check")
        );
    }

    #[test]
    fn a_flag_short_of_a_value_is_refused_by_name() {
        assert_eq!(refusal("--info a"), "`--info` needs A B");
        assert_eq!(refusal("p.s --cores"), "`--cores` needs N");
        let args = parse("--info a b").unwrap();
        assert_eq!(args.values(INFO_F).unwrap(), ["a", "b"]);
        assert_eq!(args.mode(), INFO);
    }

    #[test]
    fn only_repeatable_flags_repeat() {
        assert_eq!(refusal("p.s --cores 1 --cores 2"), "`--cores` given twice");
        let args = parse("p.s --fault a --fault b").unwrap();
        assert_eq!(
            args.all_with(FAULT, |s| Ok(s.to_owned())).unwrap(),
            ["a", "b"]
        );
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_refused() {
        assert_eq!(refusal("p.s --nope"), "unknown flag `--nope`");
        assert_eq!(refusal("p.s q.s"), "unexpected argument `q.s`");
        assert_eq!(refusal("--cores 2"), "mode `run` needs <program>");
        assert_eq!(
            refusal("p.s --info a b"),
            "`p.s` does not apply to mode `info` (selected by `--info`)"
        );
    }

    #[test]
    fn a_flag_outside_its_modes_names_flag_and_mode() {
        assert_eq!(
            refusal("p.s --check --cores 2"),
            "`--cores` does not apply to mode `check` (selected by `--check`)"
        );
        assert_eq!(
            refusal("p.s --check --info a b"),
            "`--check` and `--info` each select a mode; pick one"
        );
        assert_eq!(parse("p.s --check --out f").unwrap().mode(), CHECK);
    }

    #[test]
    fn requires_and_excludes_are_rows_of_the_table() {
        assert_eq!(refusal("p.s --bisect"), "`--bisect` needs `--fault`");
        assert!(parse("p.s --bisect --fault x").is_ok());
        assert_eq!(
            refusal("p.s --quiet --out f"),
            "`--quiet` cannot combine with `--out`"
        );
    }

    #[test]
    fn typed_getters_name_the_flag() {
        let args = parse("p.s --cores four").unwrap();
        assert_eq!(
            args.get::<usize>(CORES).unwrap_err(),
            "bad `--cores` value `four`: want N"
        );
        assert_eq!(
            parse("p.s --cores 4").unwrap().get::<usize>(CORES),
            Ok(Some(4))
        );
        assert_eq!(parse("p.s").unwrap().get::<usize>(CORES), Ok(None));
    }

    /// A stdout whose reader went away, or a disk that is full.
    struct Refusing(io::ErrorKind);

    impl Write for Refusing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_ends_quietly_with_the_decided_class() {
        let outcome = Outcome::of(&TOOL, |o| {
            o.say("cycles: 7");
            Err(o.fail(ExitClass::Rejected, "raced"))
        });
        let mut err = Vec::new();
        let closed = Refusing(io::ErrorKind::BrokenPipe);
        assert_eq!(
            outcome.write_to(&mut { closed }, &mut err),
            ExitClass::Rejected
        );
        assert_eq!(err, b"demo: raced\n");

        let mut err = Vec::new();
        let full = Refusing(io::ErrorKind::StorageFull);
        let ok = Outcome::of(&TOOL, |o| {
            o.say("x");
            Ok(())
        });
        assert_eq!(ok.write_to(&mut { full }, &mut err), ExitClass::Failure);
        assert!(String::from_utf8(err)
            .unwrap()
            .starts_with("demo: cannot write stdout: "));
    }

    #[test]
    fn a_refusal_is_the_usage_then_the_reason() {
        let refused = Outcome::of(&TOOL, |o| Err(o.refuse("`--nope`")));
        assert_eq!(refused.class, ExitClass::Usage);
        assert!(refused.stdout.is_empty());
        let usage = format!("{}\ndemo: `--nope`\n", TOOL.help());
        assert_eq!(refused.stderr, usage);
    }

    #[test]
    fn help_is_generated_from_the_table() {
        assert!(matches!(parse("p.s --help"), Err(Stop::Help)));
        let usage = TOOL.help();
        for flag in FLAGS {
            assert!(usage.contains(&format!("\n  {}", flag.name)), "{usage}");
        }
        assert!(usage.starts_with("usage: demo <program> [options]\n       demo --info A B\n"));
        assert!(usage.contains("  --cores N          machine size\n"));
        assert!(usage.contains("                     (default 4)\n"));
        assert!(usage.contains("[modes: run check]"));
        assert!(usage.contains("  info           compare two (--info)\n"));
        assert!(usage.ends_with("exit codes: 0 ok\n"));
    }
}
