//! A tiny `--key value` argument parser for the figure binaries.
//!
//! The binaries take a handful of numeric knobs (`--trials 30`,
//! `--packets 100000`, `--shared 0.05`); pulling in a full CLI crate for
//! that would violate the workspace's dependency policy, so this small
//! parser does the job. All fallible operations return [`Result`] — nothing
//! here panics on user input. The binaries funnel errors through
//! [`Args::for_binary`]/[`or_exit`], which print a `--help`-style message
//! listing the known knobs and exit with status 2; `--help` itself prints
//! the same message and exits 0.

use std::collections::BTreeMap;
use std::fmt;

/// A malformed command line, with the message shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// One knob a binary accepts: flag name, default, one-line description.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The flag, without the `--` prefix.
    pub key: &'static str,
    /// Rendered default value.
    pub default: &'static str,
    /// What the knob controls.
    pub help: &'static str,
}

/// Declare a binary's knob table (for its `--help` and error messages).
pub const fn knob(key: &'static str, default: &'static str, help: &'static str) -> Knob {
    Knob { key, default, help }
}

/// Render a usage message for a binary and its knobs.
pub fn usage(binary: &str, about: &str, knobs: &[Knob]) -> String {
    let mut out = format!("{about}\n\nusage: {binary} [--key value]...\n");
    if !knobs.is_empty() {
        out.push_str("\noptions:\n");
        for k in knobs {
            out.push_str(&format!(
                "  --{:<16} {} (default {})\n",
                k.key, k.help, k.default
            ));
        }
    }
    out.push_str("  --help             print this message\n");
    out
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    known: Vec<&'static str>,
}

impl Args {
    /// Parse `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Result<Self, CliError> {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse an explicit token stream (used by tests).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, CliError> {
        let mut values = BTreeMap::new();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            let key = tok.strip_prefix("--").ok_or_else(|| {
                CliError(format!(
                    "expected --key, got {tok:?} (positional arguments are not accepted)"
                ))
            })?;
            if key == "help" {
                return Err(CliError("help".to_string()));
            }
            let val = it
                .next()
                .ok_or_else(|| CliError(format!("missing value for --{key}")))?;
            if values.insert(key.to_string(), val).is_some() {
                // A repeated flag is almost always a copy-paste mistake;
                // silently letting the last value win hides it.
                return Err(CliError(format!("duplicate option --{key}")));
            }
        }
        Ok(Args {
            values,
            known: Vec::new(),
        })
    }

    /// Parse the environment against a binary's knob table: rejects unknown
    /// flags up front, handles `--help`, and on any error prints the usage
    /// message and exits (2 on errors, 0 for `--help`). The one-stop entry
    /// point for `fn main`.
    pub fn for_binary(binary: &'static str, about: &'static str, knobs: &'static [Knob]) -> Self {
        let parsed = Self::from_env().and_then(|mut args| {
            args.known = knobs.iter().map(|k| k.key).collect();
            args.check_unknown()?;
            Ok(args)
        });
        match parsed {
            Ok(args) => args,
            Err(CliError(msg)) if msg == "help" => {
                println!("{}", usage(binary, about, knobs));
                std::process::exit(0);
            }
            Err(CliError(msg)) => {
                eprintln!("error: {msg}\n");
                eprintln!("{}", usage(binary, about, knobs));
                std::process::exit(2);
            }
        }
    }

    /// Read a typed value with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: fmt::Debug,
    {
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .map_err(|e| CliError(format!("bad value for --{key}: {v:?} ({e:?})"))),
            None => Ok(default),
        }
    }

    /// Reject flags that are not in the declared knob table.
    fn check_unknown(&self) -> Result<(), CliError> {
        for key in self.values.keys() {
            if !self.known.contains(&key.as_str()) {
                return Err(CliError(format!("unknown option --{key}")));
            }
        }
        Ok(())
    }
}

/// Unwrap a result or print the error and exit with status 2 — the
/// binaries' error funnel for post-parse failures, such as a value the
/// knob's domain refuses.
pub fn or_exit<T, E: fmt::Display>(result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, CliError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_typed_values_with_defaults() {
        let args = parse(&["--trials", "7", "--shared", "0.05"]).unwrap();
        assert_eq!(args.get("trials", 30usize).unwrap(), 7);
        assert_eq!(args.get("shared", 0.0001f64).unwrap(), 0.05);
        assert_eq!(args.get("packets", 100_000u64).unwrap(), 100_000);
    }

    #[test]
    fn missing_value_is_an_error_not_a_panic() {
        let err = parse(&["--trials"]).unwrap_err();
        assert!(err.to_string().contains("missing value for --trials"));
    }

    #[test]
    fn positional_tokens_are_an_error() {
        let err = parse(&["trials", "7"]).unwrap_err();
        assert!(err.to_string().contains("expected --key"));
    }

    #[test]
    fn unparseable_value_is_an_error() {
        let args = parse(&["--trials", "many"]).unwrap();
        let err = args.get("trials", 1usize).unwrap_err();
        assert!(err.to_string().contains("bad value for --trials"));
    }

    #[test]
    fn unknown_keys_are_rejected_against_the_knob_table() {
        let mut args = parse(&["--tirals", "7"]).unwrap();
        args.known = vec!["trials", "packets"];
        let err = args.check_unknown().unwrap_err();
        assert!(err.to_string().contains("unknown option --tirals"));
    }

    #[test]
    fn negative_value_for_a_positive_knob_is_an_error() {
        // usize knobs reject negatives at parse time, with the exact
        // message the binaries print before exiting 2.
        let args = parse(&["--trials", "-3"]).unwrap();
        let err = args.get("trials", 30usize).unwrap_err();
        // The prefix is ours and exact; the parenthesized suffix is std's
        // ParseIntError Debug output, which is not a stable format.
        assert!(
            err.to_string()
                .starts_with("bad value for --trials: \"-3\" ("),
            "{err}"
        );
        // Negative floats parse fine where the knob's domain allows them.
        assert_eq!(args.get("trials", 0.0f64).unwrap(), -3.0);
    }

    #[test]
    fn repeated_flags_are_an_error() {
        let err = parse(&["--trials", "7", "--trials", "9"]).unwrap_err();
        assert_eq!(err.to_string(), "duplicate option --trials");
    }

    #[test]
    fn missing_value_message_is_exact() {
        let err = parse(&["--packets", "5", "--trials"]).unwrap_err();
        assert_eq!(err.to_string(), "missing value for --trials");
    }

    #[test]
    fn unknown_flag_message_is_exact() {
        let mut args = parse(&["--nope", "1"]).unwrap();
        args.known = vec!["trials"];
        let err = args.check_unknown().unwrap_err();
        assert_eq!(err.to_string(), "unknown option --nope");
    }

    #[test]
    fn help_is_signalled() {
        let err = parse(&["--help"]).unwrap_err();
        assert_eq!(err, CliError("help".to_string()));
    }

    #[test]
    fn usage_lists_every_knob() {
        const KNOBS: &[Knob] = &[
            knob("trials", "30", "number of trials"),
            knob("packets", "100000", "packets per trial"),
        ];
        let text = usage("fig8_protocols", "Figure 8 regenerator", KNOBS);
        assert!(text.contains("--trials"));
        assert!(text.contains("number of trials"));
        assert!(text.contains("--help"));
        assert!(text.contains("fig8_protocols"));
    }
}
