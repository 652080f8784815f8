//! One front door for every binary: a flag table, one walk over argv,
//! and one exit contract.
//!
//! A binary declares its flags as a [`Cli`] table: switches, value
//! flags (each row carries its value's placeholder, `--jobs <n>`),
//! required value flags, and repeatable ones. [`Cli::parse`] walks the
//! arguments once and yields [`Args`], from which the binary reads its
//! switches and typed values. Everything the table does not allow is a
//! [`WcmsError::Usage`] naming the token, before the binary does
//! anything else:
//!
//! - a token that is not a row of the table;
//! - a value flag with nothing after it, or whose next token starts
//!   with `--` (so a value flag never swallows the next flag);
//! - a flag given twice, unless its row is repeatable;
//! - a missing required flag;
//! - an argument that is not UTF-8 (in [`main`]);
//! - a value that does not parse ([`Args::get`]): the error names the
//!   flag and the value, and a bad value never falls back to the
//!   default;
//! - a flag that the mode another flag selects does not read
//!   ([`Args::only`], e.g. `summary --beta --jobs 2`).
//!
//! [`main`] maps the outcome to the exit contract: 0 on success, 1 on a
//! run failure or a finding, and 2 on a usage error, with the error and
//! the usage line — rendered from the same table, so the two cannot
//! drift apart — on stderr.

use std::ffi::OsString;
use std::fmt::Display;
use std::process::{ExitCode, Termination};
use std::str::FromStr;

use crate::WcmsError;

/// One row of a flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    /// The value's placeholder; `None` for a switch.
    value: Option<&'static str>,
    required: bool,
    repeated: bool,
}

impl Flag {
    /// A switch: present or absent, no value.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Self { name, value: None, required: false, repeated: false }
    }

    /// A flag that takes exactly one value, shown as `<placeholder>`.
    #[must_use]
    pub const fn value(name: &'static str, placeholder: &'static str) -> Self {
        Self { name, value: Some(placeholder), required: false, repeated: false }
    }

    /// This flag must be given.
    #[must_use]
    pub const fn required(self) -> Self {
        Self { required: true, ..self }
    }

    /// This flag may be given more than once ([`Args::values`]).
    #[must_use]
    pub const fn repeated(self) -> Self {
        Self { repeated: true, ..self }
    }

    fn render(&self) -> String {
        let flag = match self.value {
            Some(placeholder) => format!("{} <{placeholder}>", self.name),
            None => self.name.to_string(),
        };
        match (self.required, self.repeated) {
            (true, _) => flag,
            (false, true) => format!("[{flag}]..."),
            (false, false) => format!("[{flag}]"),
        }
    }
}

/// A binary's flag table: its name, as errors and the usage line print
/// it, and its rows in usage order. Rows come in groups so that
/// binaries can share them; the groups are one flat table.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The program name (`"fig4"`, `"wcms sort"`).
    pub name: &'static str,
    /// The rows, in groups.
    pub flags: &'static [&'static [Flag]],
}

impl Cli {
    fn rows(&self) -> impl Iterator<Item = &Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The usage line, rendered from the rows.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {}", self.name);
        for row in self.rows() {
            line.push(' ');
            line.push_str(&row.render());
        }
        line
    }

    /// Walk `args` (without the program name) once.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Usage`] naming the first token the table refuses
    /// (see the module docs), or the first missing required flag.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, WcmsError> {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut tokens = args.into_iter();
        while let Some(token) = tokens.next() {
            let Some(row) = self.rows().find(|row| row.name == token) else {
                return Err(usage(format!("{token}: unknown argument")));
            };
            if !row.repeated && given.iter().any(|(name, _)| *name == row.name) {
                return Err(usage(format!("{token}: given more than once")));
            }
            let value = match row.value {
                None => String::new(),
                Some(placeholder) => match tokens.next() {
                    Some(value) if !value.starts_with("--") => value,
                    _ => return Err(usage(format!("{token}: missing value <{placeholder}>"))),
                },
            };
            given.push((row.name, value));
        }
        let args = Args { given };
        match self.rows().find(|row| row.required && !args.has(row.name)) {
            Some(row) => Err(usage(format!("{} is required", row.render()))),
            None => Ok(args),
        }
    }
}

fn usage(reason: String) -> WcmsError {
    WcmsError::Usage { reason }
}

/// The walked arguments: which rows were given, with their values.
#[derive(Debug, Clone)]
pub struct Args {
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Was the flag `name` given?
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The raw value of the value flag `name`, if it was given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Every value of the repeatable flag `name`, in argv order.
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.given.iter().filter(move |(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The value of `name` parsed as a `T`, if it was given.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Usage`] naming the flag and the value when it does
    /// not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, WcmsError>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| usage(format!("{name} {v}: {e}"))))
            .transpose()
    }

    /// Refuse every given flag but `mode` and `reads`: a binary that
    /// gives `mode` precedence over its other rows reads only those
    /// under it, so any other flag would be ignored.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Usage`] naming the first other flag given, with its
    /// value.
    pub fn only(&self, mode: &str, reads: &[&str]) -> Result<(), WcmsError> {
        let Some((name, value)) =
            self.given.iter().find(|(name, _)| *name != mode && !reads.contains(name))
        else {
            return Ok(());
        };
        let flag = if value.is_empty() { (*name).to_string() } else { format!("{name} {value}") };
        Err(usage(format!("{flag}: {mode} reads only {}", reads.join(", "))))
    }

    /// [`Args::get`], with `default` when the flag was not given.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Args::get`].
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, WcmsError>
    where
        T::Err: Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }
}

/// The whole `main` of a binary: walk the process arguments through
/// `cli`, run `body` on them, and map the outcome to the exit contract.
/// `body` returns `()` for success, or an [`ExitCode`] of its own to
/// report a finding.
pub fn main<R: Termination>(
    cli: &Cli,
    body: impl FnOnce(&Args) -> Result<R, WcmsError>,
) -> ExitCode {
    run(cli, std::env::args_os().skip(1), body)
}

/// [`main`] over `args` (without the program name).
pub fn run<R: Termination>(
    cli: &Cli,
    args: impl IntoIterator<Item = OsString>,
    body: impl FnOnce(&Args) -> Result<R, WcmsError>,
) -> ExitCode {
    let utf8 = args.into_iter().map(|arg| {
        arg.into_string().map_err(|arg| usage(format!("{}: not UTF-8", arg.to_string_lossy())))
    });
    match utf8
        .collect::<Result<Vec<_>, _>>()
        .and_then(|args| cli.parse(args))
        .and_then(|args| body(&args))
    {
        Ok(outcome) => outcome.report(),
        Err(e @ WcmsError::Usage { .. }) => {
            eprintln!("{}: {e}", cli.name);
            eprintln!("{}", cli.usage());
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("{}: {e}", cli.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: Cli = Cli {
        name: "demo",
        flags: &[
            &[Flag::value("--figure", "fig").required(), Flag::value("--from", "dir").repeated()],
            &[Flag::switch("--quick"), Flag::value("--jobs", "n")],
        ],
    };

    fn walk(xs: &[&str]) -> Result<Args, WcmsError> {
        TABLE.parse(xs.iter().map(|s| (*s).to_string()))
    }

    fn refusal(xs: &[&str]) -> String {
        match walk(xs) {
            Err(WcmsError::Usage { reason }) => reason,
            other => panic!("{xs:?} must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn one_walk_yields_switches_values_and_repeats() {
        let args =
            walk(&["--from", "a", "--quick", "--figure", "fig4", "--from", "b", "--jobs", "3"])
                .unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.value("--figure"), Some("fig4"));
        assert_eq!(args.values("--from").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(args.get_or("--jobs", 1usize).unwrap(), 3);

        let args = walk(&["--figure", "fig5"]).unwrap();
        assert!(!args.has("--quick") && !args.has("--jobs"));
        assert_eq!(args.get_or("--jobs", 1usize).unwrap(), 1, "absent: the default");
        assert_eq!(args.values("--from").count(), 0);
    }

    #[test]
    fn every_refusal_names_the_token() {
        let base = ["--figure", "fig4"];
        let with = |extra: &[&'static str]| [&base[..], extra].concat();
        assert!(refusal(&with(&["--bogus"])).contains("--bogus"));
        assert!(refusal(&with(&["quick"])).contains("quick"), "a bare word is a token too");
        assert!(refusal(&with(&["--jobs"])).contains("--jobs"), "value at the end");
        // A value flag never swallows the next flag.
        let reason = refusal(&with(&["--jobs", "--quick"]));
        assert!(reason.contains("--jobs") && reason.contains("missing value"), "{reason}");
        let reason = refusal(&with(&["--quick", "--quick"]));
        assert!(reason.contains("--quick") && reason.contains("more than once"), "{reason}");
        assert!(refusal(&with(&["--jobs", "1", "--jobs", "2"])).contains("--jobs"));
        assert!(refusal(&["--quick"]).contains("--figure <fig> is required"));
    }

    #[test]
    fn a_bad_value_is_refused_never_defaulted() {
        let args = walk(&["--figure", "fig4", "--jobs", "x"]).unwrap();
        match args.get_or("--jobs", 1usize) {
            Err(WcmsError::Usage { reason }) => {
                assert!(reason.starts_with("--jobs x: "), "names flag and value: {reason}");
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn a_mode_refuses_the_flags_it_does_not_read() {
        let args = walk(&["--figure", "fig4", "--quick"]).unwrap();
        assert!(args.only("--quick", &["--figure"]).is_ok());
        let args = walk(&["--figure", "fig4", "--quick", "--jobs", "3"]).unwrap();
        match args.only("--quick", &["--figure"]) {
            Err(WcmsError::Usage { reason }) => {
                assert_eq!(reason, "--jobs 3: --quick reads only --figure");
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
        match args.only("--jobs", &["--figure"]) {
            Err(WcmsError::Usage { reason }) => {
                assert!(reason.starts_with("--quick: "), "{reason}")
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn the_usage_line_is_rendered_from_the_table() {
        assert_eq!(
            TABLE.usage(),
            "usage: demo --figure <fig> [--from <dir>]... [--quick] [--jobs <n>]"
        );
    }

    #[test]
    fn exit_contract_is_zero_one_two() {
        let ok = |_: &Args| Ok(());
        let argv = |xs: &[&str]| xs.iter().map(OsString::from).collect::<Vec<_>>();
        assert_eq!(run(&TABLE, argv(&["--figure", "f"]), ok), ExitCode::SUCCESS);
        assert_eq!(run(&TABLE, argv(&["--bogus"]), ok), ExitCode::from(2));
        let failed =
            |_: &Args| -> Result<(), WcmsError> { Err(WcmsError::ZeroParam { name: "w" }) };
        assert_eq!(run(&TABLE, argv(&["--figure", "f"]), failed), ExitCode::FAILURE);
        let finding = |_: &Args| Ok(ExitCode::FAILURE);
        assert_eq!(run(&TABLE, argv(&["--figure", "f"]), finding), ExitCode::FAILURE);
    }

    #[cfg(unix)]
    #[test]
    fn an_argument_that_is_not_utf8_is_a_usage_error() {
        use std::os::unix::ffi::OsStringExt as _;
        let args = vec![OsString::from("--figure"), OsString::from_vec(vec![b'f', 0xff])];
        assert_eq!(run(&TABLE, args, |_: &Args| Ok(())), ExitCode::from(2));
    }
}
