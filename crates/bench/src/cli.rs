//! Strict flag parsing for the `ewb-bench` binaries.
//!
//! A binary declares its flags as [`Flag`] pairs. An undeclared
//! argument, a missing or unparsable value, or a flag that does not
//! repeat given twice prints the error and a usage line to stderr and
//! exits with status 2. Each binary reads its values, and refuses an
//! out-of-range one through [`Args::fail`], before it starts work, so a
//! mistyped flag never runs a default (possibly full-scale)
//! configuration.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

/// A flag's name and value placeholder: empty for a switch (`--quick`),
/// otherwise the flag takes the next argument as its value (`--depth N`);
/// a placeholder ending in `...` lets the flag repeat.
pub type Flag = (&'static str, &'static str);

/// A command line checked against a binary's [`Flag`]s.
#[derive(Debug)]
pub struct Args {
    usage: String,
    given: Vec<(String, String)>,
}

impl Args {
    /// Parses the process's command line, exiting with status 2 on an
    /// error.
    pub fn parse(flags: &[Flag]) -> Args {
        Args::parse_from(flags, std::env::args()).unwrap_or_else(|e| exit_usage(&e))
    }

    /// Parses `argv`, program name first.
    ///
    /// # Errors
    ///
    /// The error and usage line, for an undeclared argument, a valued
    /// flag with no value (an argument starting with `--` is not a
    /// value), or a flag that does not repeat given twice.
    pub fn parse_from(
        flags: &[Flag],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut argv = argv.into_iter();
        let program = argv.next().unwrap_or_default();
        let bin = Path::new(&program).file_name().unwrap_or_default();
        let mut usage = format!("usage: {}", bin.to_string_lossy());
        for (name, placeholder) in flags {
            usage += &format!(" [{}]", format!("{name} {placeholder}").trim_end());
        }
        let error = |message: String| format!("error: {message}\n{usage}");
        let mut given: Vec<(String, String)> = Vec::new();
        while let Some(arg) = argv.next() {
            let Some((_, placeholder)) = flags.iter().find(|(name, _)| *name == arg) else {
                return Err(error(format!("unknown argument `{arg}`")));
            };
            if !placeholder.ends_with("...") && given.iter().any(|(flag, _)| *flag == arg) {
                return Err(error(format!("{arg} given twice")));
            }
            let value = if placeholder.is_empty() {
                String::new()
            } else {
                match argv.next() {
                    Some(v) if !v.starts_with("--") => v,
                    _ => return Err(error(format!("{arg} needs a value"))),
                }
            };
            given.push((arg, value));
        }
        Ok(Args { usage, given })
    }

    /// Whether the flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// The value of the flag `name` parsed as `T`, if it was given.
    /// Exits with status 2 when the value does not parse.
    pub fn get<T: FromStr<Err: Display>>(&self, name: &str) -> Option<T> {
        self.get_all(name).pop()
    }

    /// Every value of the flag `name` in command-line order, parsed as
    /// `T`. Exits with status 2 when one does not parse.
    pub fn get_all<T: FromStr<Err: Display>>(&self, name: &str) -> Vec<T> {
        let values = self.given.iter().filter(|(flag, _)| flag == name);
        let parse = |v: &String| {
            v.parse()
                .unwrap_or_else(|e| self.fail(&format!("invalid {name} value `{v}`: {e}")))
        };
        values.map(|(_, v)| parse(v)).collect()
    }

    /// Prints `message` and the usage line to stderr and exits with
    /// status 2.
    pub fn fail(&self, message: &str) -> ! {
        exit_usage(&format!("error: {message}\n{}", self.usage))
    }
}

fn exit_usage(error: &str) -> ! {
    eprintln!("{error}");
    std::process::exit(2)
}
