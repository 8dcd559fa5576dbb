//! Typed diagnostics shared by the verifier and the lint passes.
//!
//! Every finding carries a stable `AUD###` code so tooling (CLI output,
//! CI gates, fixture tests) can match on it without parsing prose.
//! Codes below 100 are *verifier* errors — structural invariants a
//! program must satisfy to mean anything at all. Codes in the 100s are
//! *lints* — legal-but-suspicious shapes that usually indicate a
//! degenerate stressmark, individually configurable via [`LintConfig`].

use std::fmt;

/// Stable diagnostic code. The numeric form (`AUD001`…) is the public
/// contract; the variant names are for readable Rust call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// AUD001: a source register is read before anything defines it
    /// (given the emission preamble's initial def set).
    UseBeforeDef,
    /// AUD002: a register index is outside the 16-entry int/media file.
    RegisterOutOfRange,
    /// AUD003: an FMA-class op on a target without FMA support.
    FmaUnsupported,
    /// AUD004: a memory-behaviour flag on a non-load/store op.
    MemFlagOnNonMemOp,
    /// AUD005: a branch-behaviour flag on a non-branch op.
    BranchFlagOnNonBranch,
    /// AUD006: operand shape violates the opcode's signature (missing
    /// or forbidden destination, too few sources, wrong register file).
    OperandShape,
    /// AUD007: loop attributes are malformed (toggle outside `[0, 1]`,
    /// zero miss/mispredict period, zero stride or footprint).
    MalformedLoop,
    /// AUD101: a destination value is overwritten (or the loop ends)
    /// without ever being read.
    DeadValue,
    /// AUD102: a redundant NOP run — the body is all NOPs, or a single
    /// run exceeds the configured threshold.
    NopRun,
    /// AUD103: both sources are the same register while the toggle
    /// activity says the operands alternate — that pattern is
    /// unreachable with equal operands.
    UnreachableToggle,
    /// AUD104: an unpipelined divide with a dependent consumer — the
    /// loop serializes behind it.
    SerializingDivide,
    /// AUD105: every non-NOP instruction is the same opcode; a
    /// monoculture exercises one issue path only.
    UnitMonoculture,
}

/// All codes, in numeric order. Useful for catalog generation and for
/// exhaustiveness checks in tests.
pub const ALL_CODES: [Code; 12] = [
    Code::UseBeforeDef,
    Code::RegisterOutOfRange,
    Code::FmaUnsupported,
    Code::MemFlagOnNonMemOp,
    Code::BranchFlagOnNonBranch,
    Code::OperandShape,
    Code::MalformedLoop,
    Code::DeadValue,
    Code::NopRun,
    Code::UnreachableToggle,
    Code::SerializingDivide,
    Code::UnitMonoculture,
];

impl Code {
    /// The stable `AUD###` form.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UseBeforeDef => "AUD001",
            Code::RegisterOutOfRange => "AUD002",
            Code::FmaUnsupported => "AUD003",
            Code::MemFlagOnNonMemOp => "AUD004",
            Code::BranchFlagOnNonBranch => "AUD005",
            Code::OperandShape => "AUD006",
            Code::MalformedLoop => "AUD007",
            Code::DeadValue => "AUD101",
            Code::NopRun => "AUD102",
            Code::UnreachableToggle => "AUD103",
            Code::SerializingDivide => "AUD104",
            Code::UnitMonoculture => "AUD105",
        }
    }

    /// Parse the `AUD###` form back into a code (`None` for unknown codes).
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }

    /// One-line catalog summary (used by `docs/ANALYSIS.md` and the CLI).
    pub fn summary(self) -> &'static str {
        match self {
            Code::UseBeforeDef => "source register read before definition",
            Code::RegisterOutOfRange => "register index outside the 16-entry file",
            Code::FmaUnsupported => "FMA-class op on a target without FMA",
            Code::MemFlagOnNonMemOp => "memory behaviour on a non-load/store op",
            Code::BranchFlagOnNonBranch => "branch behaviour on a non-branch op",
            Code::OperandShape => "operand shape violates the opcode signature",
            Code::MalformedLoop => "malformed loop attribute",
            Code::DeadValue => "value written but never read",
            Code::NopRun => "redundant NOP run",
            Code::UnreachableToggle => "toggle pattern unreachable with equal operands",
            Code::SerializingDivide => "unpipelined divide serializes the loop",
            Code::UnitMonoculture => "all non-NOP instructions share one opcode",
        }
    }

    /// Whether this code is a configurable lint (`AUD1xx`) rather than
    /// a hard verifier invariant (`AUD0xx`).
    pub fn is_lint(self) -> bool {
        matches!(
            self,
            Code::DeadValue
                | Code::NopRun
                | Code::UnreachableToggle
                | Code::SerializingDivide
                | Code::UnitMonoculture
        )
    }

    /// Default reporting level. Verifier codes are always `Deny`;
    /// dead-value defaults to `Allow` because the engineered
    /// stressmarks intentionally compute values nothing consumes.
    pub(crate) fn default_level(self) -> LintLevel {
        match self {
            Code::DeadValue => LintLevel::Allow,
            c if c.is_lint() => LintLevel::Warn,
            _ => LintLevel::Deny,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How severely a finding is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but legal; does not fail verification.
    Warning,
    /// Structural violation (or a lint configured as `deny`).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Per-code reporting level for lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintLevel {
    /// Suppress the finding entirely.
    Allow,
    /// Report as [`Severity::Warning`].
    Warn,
    /// Report as [`Severity::Error`].
    Deny,
}

/// One finding from the verifier or a lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Reporting severity (after [`LintConfig`] mapping).
    pub severity: Severity,
    /// Index of the offending instruction in the program body, if the
    /// finding is tied to one (`None` for whole-program findings).
    pub inst_index: Option<usize>,
    /// Human-readable description of the concrete finding.
    pub message: String,
    /// Optional suggestion for fixing it.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Shorthand constructor, with no `help`.
    pub fn new(
        code: Code,
        severity: Severity,
        inst_index: Option<usize>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            inst_index,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a fix suggestion.
    pub(crate) fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if let Some(i) = self.inst_index {
            write!(f, " [inst {i}]")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(help) = &self.help {
            write!(f, " (help: {help})")?;
        }
        Ok(())
    }
}

/// Allow/deny configuration for the lint pass, plus the tunable
/// thresholds individual lints consult.
///
/// The defaults are chosen so every built-in workload and manual
/// stressmark in this repository lints clean (enforced by the
/// `scripts/check.sh` self-lint gate).
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    /// AUD102 fires on a circular NOP run of at least this length.
    /// The default sits above the longest intentional low-power phase
    /// in the built-ins (`barrier_burst`'s 2 400 LP NOPs).
    pub nop_run_threshold: usize,
    /// AUD105 fires only on bodies with at least this many non-NOP
    /// instructions (tiny loops are monocultures by construction).
    pub monoculture_min_insts: usize,
    overrides: Vec<(Code, LintLevel)>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            nop_run_threshold: 4096,
            monoculture_min_insts: 8,
            overrides: Vec::new(),
        }
    }
}

impl LintConfig {
    /// The default configuration (same as [`Default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Override a single code's level (last write wins).
    pub(crate) fn set_level(mut self, code: Code, level: LintLevel) -> Self {
        self.overrides.push((code, level));
        self
    }

    /// Shorthand for `Self::set_level` with [`LintLevel::Allow`].
    pub fn allow(self, code: Code) -> Self {
        self.set_level(code, LintLevel::Allow)
    }

    /// Shorthand for `Self::set_level` with [`LintLevel::Warn`].
    pub fn warn(self, code: Code) -> Self {
        self.set_level(code, LintLevel::Warn)
    }

    /// Shorthand for `Self::set_level` with [`LintLevel::Deny`].
    pub fn deny(self, code: Code) -> Self {
        self.set_level(code, LintLevel::Deny)
    }

    /// Effective level for a code: the last override if any, else the
    /// code's default.
    pub fn level(&self, code: Code) -> LintLevel {
        self.overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map(|&(_, l)| l)
            .unwrap_or_else(|| code.default_level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_through_text() {
        for code in ALL_CODES {
            assert_eq!(Code::parse(code.as_str()), Some(code));
        }
        assert_eq!(Code::parse("AUD999"), None);
    }

    #[test]
    fn codes_are_unique_and_sorted() {
        for pair in ALL_CODES.windows(2) {
            assert!(pair[0].as_str() < pair[1].as_str());
        }
    }

    #[test]
    fn verifier_codes_are_not_lints() {
        for code in ALL_CODES {
            let numeric: u32 = code.as_str()[3..].parse().unwrap();
            assert_eq!(code.is_lint(), numeric >= 100, "{code}");
        }
    }

    #[test]
    fn lint_config_overrides_stack() {
        let cfg = LintConfig::new()
            .deny(Code::NopRun)
            .allow(Code::NopRun)
            .warn(Code::DeadValue);
        assert_eq!(cfg.level(Code::NopRun), LintLevel::Allow);
        assert_eq!(cfg.level(Code::DeadValue), LintLevel::Warn);
        assert_eq!(cfg.level(Code::UnitMonoculture), LintLevel::Warn);
        assert_eq!(cfg.level(Code::UseBeforeDef), LintLevel::Deny);
    }

    #[test]
    fn diagnostic_display_is_greppable() {
        let d = Diagnostic::new(
            Code::UseBeforeDef,
            Severity::Error,
            Some(3),
            "r4 read before definition",
        )
        .with_help("initialize r4 in the preamble");
        let s = d.to_string();
        assert!(s.starts_with("AUD001 error [inst 3]: "), "{s}");
        assert!(s.contains("help: "), "{s}");
    }
}
