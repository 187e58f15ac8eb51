//! Minimal dependency-free argument parsing for the `iarank` binary.
//!
//! Flags are `--name value` pairs (or `--name=value`); the first
//! positional token is the subcommand. The boolean [`SWITCHES`] may
//! also stand alone, and `--help` or `-h` anywhere a flag may stand
//! asks for the usage text. Unknown flags are errors so typos fail
//! loudly.

use std::collections::BTreeMap;
use std::fmt;

/// Boolean switches: a bare `--flag` means `true`, and the next token
/// is the switch's value only when it is `true`, `false`, `1` or `0`
/// (stored as `true` or `false`). An inline `--flag=value` must be one
/// of those four.
pub const SWITCHES: [&str; 4] = ["parallel", "fleet", "csv", "detail"];

/// A switch value as stored: `true`/`1` → `true`, `false`/`0` →
/// `false`, anything else `None`.
fn switch_value(raw: &str) -> Option<&'static str> {
    match raw {
        "true" | "1" => Some("true"),
        "false" | "0" => Some("false"),
        _ => None,
    }
}

/// Parsed command line: a command, an optional sub-action, plus
/// `--flag value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The command (first positional argument).
    pub command: Option<String>,
    /// `--help` or `-h` was given: print the usage text instead of
    /// running the command.
    pub help: bool,
    /// The sub-action (second positional argument, e.g. `dse run`).
    /// Commands that take one read it via [`ParsedArgs::subcommand`];
    /// for every other command `reject_unknown` reports it as a stray
    /// positional.
    subcommand: Option<String>,
    /// Flag values keyed by flag name (without the `--`).
    options: BTreeMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
    consumed_subcommand: std::cell::Cell<bool>,
}

/// Error raised by argument parsing or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A token that is neither a subcommand nor a flag.
    UnexpectedPositional(String),
    /// A `--flag` with no value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
        /// Why it failed.
        message: String,
    },
    /// Flags that no subcommand recognises.
    UnknownFlags(Vec<String>),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::UnexpectedPositional(tok) => {
                write!(f, "unexpected argument `{tok}` (flags are `--name value`)")
            }
            ArgsError::MissingValue(flag) => write!(f, "flag `--{flag}` needs a value"),
            ArgsError::BadValue {
                flag,
                value,
                message,
            } => {
                write!(f, "bad value `{value}` for `--{flag}`: {message}")
            }
            ArgsError::UnknownFlags(flags) => {
                write!(f, "unknown flags: ")?;
                for (i, flag) in flags.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "--{flag}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl ParsedArgs {
    /// Parses a raw token stream (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] for stray positionals, valueless flags or
    /// an inline switch value other than `true`, `false`, `1` or `0`.
    pub fn parse<I, S>(tokens: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut command = None;
        let mut subcommand = None;
        let mut help = false;
        let mut options = BTreeMap::new();
        let mut iter = tokens.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if tok == "--help" || tok == "-h" {
                help = true;
            } else if let Some(flag) = tok.strip_prefix("--") {
                if let Some((name, value)) = flag.split_once('=') {
                    let value = if SWITCHES.contains(&name) {
                        switch_value(value)
                            .ok_or_else(|| ArgsError::BadValue {
                                flag: name.to_owned(),
                                value: value.to_owned(),
                                message: "expected true, false, 1 or 0".to_owned(),
                            })?
                            .to_owned()
                    } else {
                        value.to_owned()
                    };
                    options.insert(name.to_owned(), value);
                } else if SWITCHES.contains(&flag) {
                    let value = iter
                        .next_if(|v| switch_value(v).is_some())
                        .and_then(|v| switch_value(&v))
                        .unwrap_or("true");
                    options.insert(flag.to_owned(), value.to_owned());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgsError::MissingValue(flag.to_owned()))?;
                    if value.starts_with("--") {
                        return Err(ArgsError::MissingValue(flag.to_owned()));
                    }
                    options.insert(flag.to_owned(), value);
                }
            } else if command.is_none() {
                command = Some(tok);
            } else if subcommand.is_none() {
                subcommand = Some(tok);
            } else {
                return Err(ArgsError::UnexpectedPositional(tok));
            }
        }
        Ok(Self {
            command,
            help,
            subcommand,
            options,
            consumed: std::cell::RefCell::new(Vec::new()),
            consumed_subcommand: std::cell::Cell::new(false),
        })
    }

    /// Fetches the sub-action (second positional), marking it
    /// consumed so `reject_unknown` accepts it.
    #[must_use]
    pub fn subcommand(&self) -> Option<&str> {
        self.consumed_subcommand.set(true);
        self.subcommand.as_deref()
    }

    /// Fetches and parses a flag, or returns `default` if absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] if present but unparsable.
    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgsError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.get_opt(flag)?.unwrap_or(default))
    }

    /// Fetches and parses an optional flag: `None` if absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] if present but unparsable.
    pub fn get_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ArgsError>
    where
        T::Err: fmt::Display,
    {
        let Some(raw) = self.get_str(flag) else {
            return Ok(None);
        };
        raw.parse()
            .map(Some)
            .map_err(|e: T::Err| ArgsError::BadValue {
                flag: flag.to_owned(),
                message: e.to_string(),
                value: raw,
            })
    }

    /// Fetches an optional string flag.
    #[must_use]
    pub fn get_str(&self, flag: &str) -> Option<String> {
        self.consumed.borrow_mut().push(flag.to_owned());
        self.options.get(flag).cloned()
    }

    /// Errors if any provided flag was never consumed by `get`/`get_str`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::UnknownFlags`] listing the strays.
    pub fn reject_unknown(&self) -> Result<(), ArgsError> {
        if let Some(sub) = &self.subcommand {
            if !self.consumed_subcommand.get() {
                return Err(ArgsError::UnexpectedPositional(sub.clone()));
            }
        }
        let consumed = self.consumed.borrow();
        let unknown: Vec<String> = self
            .options
            .keys()
            .filter(|k| !consumed.contains(k))
            .cloned()
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ArgsError::UnknownFlags(unknown))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let a = ParsedArgs::parse(["rank", "--gates", "1000", "--node=90"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("rank"));
        assert_eq!(a.get("gates", 0u64).unwrap(), 1000);
        assert_eq!(a.get_str("node").as_deref(), Some("90"));
        a.reject_unknown().unwrap();
    }

    #[test]
    fn switches_stand_alone_or_take_a_boolean() {
        let a = ParsedArgs::parse([
            "sweep",
            "--parallel",
            "true",
            "--csv",
            "0",
            "--fleet",
            "--axis",
            "r",
        ])
        .unwrap();
        assert!(a.get("parallel", false).unwrap());
        assert!(!a.get("csv", true).unwrap());
        assert!(a.get("fleet", false).unwrap());
        assert_eq!(a.get_str("axis").as_deref(), Some("r"));
        let d = ParsedArgs::parse(["rank", "--detail"]).unwrap();
        assert!(d.get("detail", false).unwrap());
        // `yes` is not a switch value, so it stays a positional.
        let e = ParsedArgs::parse(["rank", "--detail", "yes"]).unwrap();
        assert!(e.get("detail", false).unwrap());
        assert!(matches!(
            e.reject_unknown().unwrap_err(),
            ArgsError::UnexpectedPositional(tok) if tok == "yes"
        ));
        // Any other next token stays a positional.
        let b = ParsedArgs::parse(["dse", "--csv", "report"]).unwrap();
        assert_eq!(b.subcommand(), Some("report"));
        assert!(b.get("csv", false).unwrap());
        // Inline values follow the same rule.
        let c = ParsedArgs::parse([
            "corpus",
            "--csv=1",
            "--fleet=0",
            "--detail=true",
            "--parallel=false",
        ])
        .unwrap();
        assert!(c.get("csv", false).unwrap());
        assert!(!c.get("fleet", true).unwrap());
        assert!(c.get("detail", false).unwrap());
        assert!(!c.get("parallel", true).unwrap());
        assert_eq!(c.get_str("parallel").as_deref(), Some("false"));
        for bad in ["--csv=yes", "--csv="] {
            match ParsedArgs::parse(["corpus", bad]).unwrap_err() {
                ArgsError::BadValue { flag, value, .. } => {
                    assert_eq!(flag, "csv");
                    assert_eq!(format!("--{flag}={value}"), bad);
                }
                other => panic!("unexpected: {other}"),
            }
        }
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let a = ParsedArgs::parse(["rank"]).unwrap();
        assert_eq!(a.get("gates", 42u64).unwrap(), 42);
        assert_eq!(a.get_opt::<f64>("k").unwrap(), None);
    }

    #[test]
    fn optional_flags_parse_or_name_the_bad_value() {
        let a = ParsedArgs::parse(["rank", "--k", "2.7", "--workers", "x"]).unwrap();
        assert_eq!(a.get_opt::<f64>("k").unwrap(), Some(2.7));
        assert_eq!(
            a.get_opt::<usize>("workers").unwrap_err().to_string(),
            "bad value `x` for `--workers`: invalid digit found in string"
        );
        a.reject_unknown().unwrap();
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            ParsedArgs::parse(["rank", "--gates"]).unwrap_err(),
            ArgsError::MissingValue("gates".to_owned())
        );
        assert_eq!(
            ParsedArgs::parse(["rank", "--gates", "--node", "90"]).unwrap_err(),
            ArgsError::MissingValue("gates".to_owned())
        );
    }

    #[test]
    fn bad_values_report_flag_and_value() {
        let a = ParsedArgs::parse(["rank", "--gates", "lots"]).unwrap();
        match a.get("gates", 0u64).unwrap_err() {
            ArgsError::BadValue { flag, value, .. } => {
                assert_eq!(flag, "gates");
                assert_eq!(value, "lots");
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn stray_positionals_are_rejected() {
        // A third positional fails at parse time.
        assert!(matches!(
            ParsedArgs::parse(["dse", "run", "oops"]).unwrap_err(),
            ArgsError::UnexpectedPositional(_)
        ));
        // A second positional parses (it may be a sub-action) but is
        // rejected by commands that never read it.
        let a = ParsedArgs::parse(["rank", "oops"]).unwrap();
        assert!(matches!(
            a.reject_unknown().unwrap_err(),
            ArgsError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn subcommand_is_accepted_once_consumed() {
        let a = ParsedArgs::parse(["dse", "run", "--spec", "x.toml"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("dse"));
        assert_eq!(a.subcommand(), Some("run"));
        let _ = a.get_str("spec");
        a.reject_unknown().unwrap();
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let a = ParsedArgs::parse(["rank", "--bogus", "1"]).unwrap();
        let _ = a.get("gates", 0u64);
        assert_eq!(
            a.reject_unknown().unwrap_err(),
            ArgsError::UnknownFlags(vec!["bogus".to_owned()])
        );
    }
}
