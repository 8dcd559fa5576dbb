//! The workspace-wide error type.
//!
//! Every fallible public constructor and validator in the AUDIT crates
//! returns [`AuditError`], so callers handle one error type whether the
//! failure came from a PDN parameter, a chip configuration, a GA
//! hyper-parameter, or the run journal on disk. The enum is hand-rolled
//! (`Display` + `Error`, no derive-macro dependency) and carries enough
//! structure for callers to branch on the failure class while keeping
//! human-readable messages.
//!
//! Panicking escape hatches remain available where construction cannot
//! fail (`paper()` / `fast_demo()` / `bulldozer()` presets) or where the
//! caller has already validated (`*_unchecked` constructors).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

/// Convenience alias used across the workspace.
pub type AuditResult<T> = Result<T, AuditError>;

/// The single error type of the AUDIT workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A configuration value failed validation.
    InvalidConfig {
        /// The type or subsystem being configured (e.g. `"GaConfig"`).
        context: &'static str,
        /// The offending field (e.g. `"population"`).
        field: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// An input combination is not supported by the target
    /// (e.g. an FMA program on a non-FMA chip).
    Unsupported {
        /// The subsystem rejecting the input.
        context: &'static str,
        /// What was unsupported.
        message: String,
    },
    /// A filesystem operation on a journal or artifact failed.
    Io {
        /// Path involved (already rendered to a string for display).
        path: String,
        /// The underlying OS error message.
        message: String,
    },
    /// A run-journal record failed to parse or was semantically invalid.
    Journal {
        /// 1-based record (line) number in the journal, 0 if unknown.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The journal was written by an incompatible schema version.
    Schema {
        /// Version found in the journal's `run_start` record.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A resume request is inconsistent with the journal contents
    /// (e.g. resuming a study journal as a plain GA run).
    Resume {
        /// What was inconsistent.
        message: String,
    },
    /// A text artifact (e.g. a `.prog` program file) failed to parse.
    Parse {
        /// 1-based line number of the first malformed line, 0 if unknown.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// An evaluation exceeded its cycle budget and was aborted by the
    /// watchdog (a real runaway co-simulation, or an injected hang).
    Timeout {
        /// The subsystem whose watchdog fired (e.g. `"harness"`).
        context: &'static str,
        /// The cycle budget that was exhausted; 0 if no explicit budget
        /// was configured (the hang was detected another way).
        budget: u64,
    },
    /// A deterministic injected fault aborted the operation. Only ever
    /// produced when a fault plan is active; real hardware failures use
    /// the other variants.
    InjectedFault {
        /// The fault class (e.g. `"machine-crash"`).
        kind: &'static str,
        /// Human-readable detail (which evaluation, which attempt).
        message: String,
    },
}

impl AuditError {
    /// Shorthand for [`AuditError::InvalidConfig`].
    pub fn invalid(context: &'static str, field: &'static str, message: impl Into<String>) -> Self {
        AuditError::InvalidConfig {
            context,
            field,
            message: message.into(),
        }
    }

    /// Shorthand for [`AuditError::Io`] from a path and `std::io::Error`.
    pub fn io(path: impl fmt::Display, err: &std::io::Error) -> Self {
        AuditError::Io {
            path: path.to_string(),
            message: err.to_string(),
        }
    }

    /// Shorthand for [`AuditError::Journal`].
    pub fn journal(line: usize, message: impl Into<String>) -> Self {
        AuditError::Journal {
            line,
            message: message.into(),
        }
    }

    /// Places a line-less [`AuditError::Journal`] on its 1-based record
    /// line; other errors pass through unchanged.
    pub fn on_line(self, line: usize) -> Self {
        match self {
            AuditError::Journal { line: 0, message } => AuditError::journal(line, message),
            other => other,
        }
    }

    /// Shorthand for [`AuditError::Resume`].
    pub fn resume(message: impl Into<String>) -> Self {
        AuditError::Resume {
            message: message.into(),
        }
    }

    /// Shorthand for [`AuditError::Parse`].
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        AuditError::Parse {
            line,
            message: message.into(),
        }
    }

    /// Shorthand for [`AuditError::Timeout`].
    pub fn timeout(context: &'static str, budget: u64) -> Self {
        AuditError::Timeout { context, budget }
    }

    /// Shorthand for [`AuditError::InjectedFault`].
    pub fn injected(kind: &'static str, message: impl Into<String>) -> Self {
        AuditError::InjectedFault {
            kind,
            message: message.into(),
        }
    }

    /// True for the error classes a resilient measurement policy may
    /// retry (hangs and injected machine crashes); configuration,
    /// parse, and journal errors are never retried.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            AuditError::Timeout { .. } | AuditError::InjectedFault { .. }
        )
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::InvalidConfig {
                context,
                field,
                message,
            } => write!(f, "invalid {context}.{field}: {message}"),
            AuditError::Unsupported { context, message } => {
                write!(f, "unsupported by {context}: {message}")
            }
            AuditError::Io { path, message } => write!(f, "i/o error on {path}: {message}"),
            AuditError::Journal { line, message } => {
                if *line == 0 {
                    write!(f, "journal error: {message}")
                } else {
                    write!(f, "journal record {line}: {message}")
                }
            }
            AuditError::Schema { found, supported } => write!(
                f,
                "journal schema v{found} is not supported (this build reads v{supported})"
            ),
            AuditError::Resume { message } => write!(f, "cannot resume: {message}"),
            AuditError::Parse { line, message } => {
                if *line == 0 {
                    write!(f, "parse error: {message}")
                } else {
                    write!(f, "parse error at line {line}: {message}")
                }
            }
            AuditError::Timeout { context, budget } => {
                if *budget == 0 {
                    write!(f, "{context} watchdog: evaluation hung")
                } else {
                    write!(f, "{context} watchdog: cycle budget of {budget} exhausted")
                }
            }
            AuditError::InjectedFault { kind, message } => {
                write!(f, "injected fault ({kind}): {message}")
            }
        }
    }
}

impl Error for AuditError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_context_and_field() {
        let e = AuditError::invalid("GaConfig", "population", "must be at least 2 (got 1)");
        assert_eq!(
            e.to_string(),
            "invalid GaConfig.population: must be at least 2 (got 1)"
        );
    }

    #[test]
    fn io_shorthand_carries_path() {
        let os = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = AuditError::io("/tmp/run.ndjson", &os);
        assert!(e.to_string().contains("/tmp/run.ndjson"));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn journal_line_zero_is_generic() {
        assert_eq!(
            AuditError::journal(0, "empty file").to_string(),
            "journal error: empty file"
        );
        assert_eq!(
            AuditError::journal(7, "bad kind").to_string(),
            "journal record 7: bad kind"
        );
    }

    #[test]
    fn schema_mismatch_names_both_versions() {
        let e = AuditError::Schema {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("v9"));
        assert!(e.to_string().contains("v1"));
    }

    #[test]
    fn parse_line_zero_is_generic() {
        assert_eq!(
            AuditError::parse(0, "empty file").to_string(),
            "parse error: empty file"
        );
        assert_eq!(
            AuditError::parse(3, "unknown opcode `warp`").to_string(),
            "parse error at line 3: unknown opcode `warp`"
        );
    }

    #[test]
    fn timeout_display_distinguishes_budgeted_and_not() {
        assert_eq!(
            AuditError::timeout("harness", 150_000).to_string(),
            "harness watchdog: cycle budget of 150000 exhausted"
        );
        assert_eq!(
            AuditError::timeout("harness", 0).to_string(),
            "harness watchdog: evaluation hung"
        );
    }

    #[test]
    fn injected_fault_names_its_kind() {
        let e = AuditError::injected("machine-crash", "step 3 attempt 1");
        assert_eq!(
            e.to_string(),
            "injected fault (machine-crash): step 3 attempt 1"
        );
    }

    #[test]
    fn only_timeout_and_injected_are_transient() {
        assert!(AuditError::timeout("harness", 1).is_transient());
        assert!(AuditError::injected("machine-crash", "x").is_transient());
        assert!(!AuditError::resume("x").is_transient());
        assert!(!AuditError::invalid("a", "b", "c").is_transient());
        assert!(!AuditError::journal(1, "x").is_transient());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            AuditError::resume("no generations"),
            AuditError::resume("no generations")
        );
        assert_ne!(AuditError::resume("a"), AuditError::journal(1, "a"),);
    }
}
