//! A small, dependency-free argument parser.
//!
//! Flags are `--name value` or `--name` (boolean); everything else is a
//! positional argument. Unknown flags are an error, so typos fail loudly
//! rather than silently using defaults.

use std::collections::HashMap;
use std::fmt;

/// Parsed command line: positionals plus flag map.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    positionals: Vec<String>,
    flags: HashMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Argument error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Flags that take a value (everything else is boolean).
const VALUE_FLAGS: &[&str] = &[
    "--chip",
    "--threads",
    "--workers",
    "--kind",
    "--out",
    "--iterations",
    "--workload",
    "--stressmark",
    "--volts",
    "--throttle",
    "--cycles",
    "--seed",
    "--period",
    "--file",
    "--save",
    "--checkpoint",
    "--resume",
    "--builtin",
    "--allow",
    "--deny",
    "--faults",
    "--repeat",
    "--retries",
    "--cycle-budget",
    "--listen",
    "--connect",
    "--min-workers",
    "--window",
    "--heartbeat",
    "--dead-after",
    "--net-faults",
    "--verify-fraction",
    "--connect-for",
    "--connect-retry",
    "--fast-tier-budget",
    "--objective",
    "--grid-volts",
    "--grid-clocks",
    "--retain",
    "--input",
    "--weight",
    "--campaigns",
];

/// Value flags that may be given more than once; repeats accumulate
/// into one comma-joined value (`--objective droop --objective power`
/// ≡ `--objective droop,power`).
const REPEATABLE_FLAGS: &[&str] = &["--objective"];

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for a value flag with no value.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let key = format!("--{name}");
                if VALUE_FLAGS.contains(&key.as_str()) {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError(format!("flag {key} needs a value")))?;
                    match args.flags.get_mut(&key) {
                        Some(prev) if REPEATABLE_FLAGS.contains(&key.as_str()) => {
                            prev.push(',');
                            prev.push_str(&value);
                        }
                        _ => {
                            args.flags.insert(key, value);
                        }
                    }
                } else {
                    args.flags.insert(key, String::from("true"));
                }
            } else {
                args.positionals.push(a);
            }
        }
        Ok(args)
    }

    /// Positional arguments.
    pub(crate) fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// String flag with default.
    pub(crate) fn str_flag(&self, name: &str, default: &str) -> String {
        self.consumed.borrow_mut().push(name.to_string());
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Optional string flag.
    pub(crate) fn opt_flag(&self, name: &str) -> Option<String> {
        self.consumed.borrow_mut().push(name.to_string());
        self.flags.get(name).cloned()
    }

    /// Boolean flag.
    pub(crate) fn bool_flag(&self, name: &str) -> bool {
        self.consumed.borrow_mut().push(name.to_string());
        self.flags.contains_key(name)
    }

    /// Numeric flag with default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub(crate) fn num_flag<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ArgError> {
        self.consumed.borrow_mut().push(name.to_string());
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| ArgError(format!("flag {name}: cannot parse `{v}`"))),
        }
    }

    /// After a command has read its flags, rejects any flag it never
    /// looked at (typo protection).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the first unknown flag.
    pub(crate) fn reject_unknown(&self) -> Result<(), ArgError> {
        let seen = self.consumed.borrow();
        for key in self.flags.keys() {
            if !seen.contains(key) {
                return Err(ArgError(format!("unknown flag {key} for this command")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_flags_separate() {
        let a = parse(&["generate", "--threads", "4", "--fast"]);
        assert_eq!(a.positionals(), ["generate"]);
        assert_eq!(a.num_flag("--threads", 1u32).unwrap(), 4);
        assert!(a.bool_flag("--fast"));
        assert!(!a.bool_flag("--quiet"));
    }

    #[test]
    fn repeated_objective_flags_accumulate() {
        let a = parse(&["--objective", "droop", "--objective", "power"]);
        assert_eq!(a.opt_flag("--objective").as_deref(), Some("droop,power"));
        // Non-repeatable value flags keep last-wins semantics.
        let b = parse(&["--chip", "phenom", "--chip", "bulldozer"]);
        assert_eq!(b.opt_flag("--chip").as_deref(), Some("bulldozer"));
    }

    #[test]
    fn value_flag_without_value_errors() {
        let err = Args::parse(["--out".to_string()]).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn bad_number_is_reported() {
        let a = parse(&["--threads", "four"]);
        let err = a.num_flag("--threads", 1u32).unwrap_err();
        assert!(err.to_string().contains("four"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let a = parse(&["--chip", "phenom", "--bogus"]);
        let _ = a.str_flag("--chip", "bulldozer");
        let err = a.reject_unknown().unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.str_flag("--chip", "bulldozer"), "bulldozer");
        assert_eq!(a.num_flag("--threads", 4u32).unwrap(), 4);
        assert!(a.reject_unknown().is_ok());
    }
}
