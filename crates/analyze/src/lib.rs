//! Static analysis for AUDIT stressmark programs.
//!
//! AUDIT's GA treats candidate loops as opaque blobs and pays a full
//! cycle-level simulation to learn anything about them — yet many
//! structural properties that determine droop potential are statically
//! derivable from the instruction list. This crate derives them, in
//! three passes over the shared `Program` IR:
//!
//! 1. **Verifier** ([`verify()`]) — proves structural invariants
//!    (def-before-use, register ranges, chip capability, behaviour
//!    flags, loop well-formedness) and reports violations as typed
//!    [`Diagnostic`]s with stable `AUD0##` codes.
//! 2. **Lints** ([`lint`]) — flags legal-but-degenerate shapes
//!    (dead values, NOP deserts, unreachable toggle patterns,
//!    serializing divides, opcode monocultures) under `AUD1##` codes
//!    with per-code allow/warn/deny configuration ([`LintConfig`]).
//! 3. **Pressure model** ([`pressure()`]) — critical path, per-unit
//!    occupancy, a bottleneck IPC bound, and a static current-swing
//!    score ([`swing_score`]) the GA records for every generation in
//!    its journal (analysis only: it never orders or replaces real
//!    evaluations).
//!
//! Two further modules make the analysis *active* rather than merely
//! advisory: [`dataflow`] exposes the fixpoint liveness/reaching-defs
//! engine the verifier and lints are built on (also consumed by the
//! GA's lint-driven mutation repair), and [`minimize`] provides the
//! delta-debugging (`ddmin`) core of the witness minimizer behind the
//! `audit minimize` CLI verb.
//!
//! See `docs/ANALYSIS.md` for the pass pipeline, the full lint catalog,
//! and how the GA journal uses the swing score.
//!
//! # Example
//!
//! ```
//! use audit_analyze::{verify, Code, DefSet, VerifyTarget};
//! use audit_cpu::{Inst, Opcode, Program};
//!
//! // r0 is read before anything defines it.
//! let p = Program::new("bad", vec![
//!     Inst::new(Opcode::IAdd).int_dst(1).int_srcs(0, 0),
//! ]);
//! let target = VerifyTarget { init: DefSet::empty(), supports_fma: true };
//! let diags = verify(&p, &target);
//! assert_eq!(diags[0].code, Code::UseBeforeDef);
//! assert_eq!(diags[0].code.as_str(), "AUD001");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
mod diag;
mod lints;
pub mod minimize;
mod pressure;
mod verify;

pub use diag::{Code, Diagnostic, LintConfig, LintLevel, Severity, ALL_CODES};
pub use lints::lint;
pub use pressure::{pressure, swing_score, MachineModel, Occupancy, PressureReport};
pub use verify::{verify, DefSet, VerifyTarget};

use audit_cpu::Program;

/// Run the verifier and the lint pass together, returning all findings
/// sorted by instruction index (whole-program findings first), then by
/// code.
pub fn check(program: &Program, target: &VerifyTarget, lints: &LintConfig) -> Vec<Diagnostic> {
    let mut out = verify(program, target);
    out.extend(lint(program, lints));
    out.sort_by_key(|d| (d.inst_index.map_or(0, |i| i + 1), d.code));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_cpu::{Inst, Opcode};

    #[test]
    fn check_merges_and_orders_both_passes() {
        // inst 0 lints (equal sources, hot toggle); inst 1 fails
        // verification (use before def).
        let p = Program::new(
            "t",
            vec![
                Inst::new(Opcode::IAdd)
                    .int_dst(0)
                    .int_srcs(12, 12)
                    .toggle(1.0),
                Inst::new(Opcode::ISub).int_dst(1).int_srcs(3, 0),
            ],
        );
        let target = VerifyTarget {
            init: DefSet::empty().with_int(12),
            supports_fma: true,
        };
        let diags = check(&p, &target, &LintConfig::new());
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::UnreachableToggle, Code::UseBeforeDef]);
        assert!(diags.iter().any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn warnings_alone_pass_check() {
        let p = Program::new(
            "t",
            vec![Inst::new(Opcode::IAdd)
                .int_dst(0)
                .int_srcs(12, 12)
                .toggle(1.0)],
        );
        let errors = |lints: &LintConfig| {
            check(&p, &VerifyTarget::permissive(), lints)
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count()
        };
        assert_eq!(errors(&LintConfig::new()), 0);
        assert_eq!(errors(&LintConfig::new().deny(Code::UnreachableToggle)), 1);
    }
}
