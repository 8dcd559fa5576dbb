//! The minimized-witness regression corpus: every `.min.prog` under
//! `tests/fixtures/minimized/` was produced by `audit minimize` from
//! the `.witness.prog` next to it. The corpus pins two contracts:
//!
//! 1. minimized kernels are publishable — they parse, lint clean under
//!    the default configuration (`lint --deny-warnings` would accept
//!    them), and are never larger than their witness;
//! 2. minimization preserves *meaning*, not just droop — a kernel is a
//!    subsequence of its witness's instructions, in original order.
//!
//! `scripts/check.sh` re-lints the same directory through the CLI, so
//! a lint-catalog change that poisons the corpus fails both gates.

use audit_analyze::{check, LintConfig, VerifyTarget};
use audit_stressmark::progfile;

/// `(stem, witness text, minimized kernel text)`.
fn corpus() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "fma_padded",
            include_str!("fixtures/minimized/fma_padded.witness.prog"),
            include_str!("fixtures/minimized/fma_padded.min.prog"),
        ),
        (
            "mixed_units",
            include_str!("fixtures/minimized/mixed_units.witness.prog"),
            include_str!("fixtures/minimized/mixed_units.min.prog"),
        ),
        (
            "toggle_gradient",
            include_str!("fixtures/minimized/toggle_gradient.witness.prog"),
            include_str!("fixtures/minimized/toggle_gradient.min.prog"),
        ),
        (
            "resonant_phase",
            include_str!("fixtures/minimized/resonant_phase.witness.prog"),
            include_str!("fixtures/minimized/resonant_phase.min.prog"),
        ),
    ]
}

#[test]
fn corpus_parses_and_lints_clean() {
    for (stem, witness, kernel) in corpus() {
        for (role, text) in [("witness", witness), ("kernel", kernel)] {
            let program = progfile::parse(text).unwrap_or_else(|e| panic!("{stem} {role}: {e:?}"));
            let diags = check(&program, &VerifyTarget::permissive(), &LintConfig::new());
            assert!(
                diags.is_empty(),
                "{stem} {role} is not lint-clean: {diags:?}"
            );
        }
    }
}

#[test]
fn kernels_are_ordered_subsequences_of_their_witnesses() {
    for (stem, witness, kernel) in corpus() {
        let witness = progfile::parse(witness).unwrap();
        let kernel = progfile::parse(kernel).unwrap();
        assert!(
            kernel.len() <= witness.len(),
            "{stem}: kernel grew ({} > {})",
            kernel.len(),
            witness.len()
        );
        // Greedy match: each kernel instruction must appear in the
        // witness at or after the previous match.
        let body = witness.body();
        let mut from = 0;
        for (k, inst) in kernel.body().iter().enumerate() {
            match body[from..].iter().position(|w| w == inst) {
                Some(off) => from += off + 1,
                None => panic!("{stem}: kernel inst {k} is not in witness order"),
            }
        }
    }
}

#[test]
fn the_padded_witnesses_actually_shrank() {
    // The corpus documents both regimes: padded witnesses collapse to
    // a tiny kernel, while the resonant-phase witness keeps most of
    // its body because the loop period itself is load-bearing.
    for (stem, witness, kernel) in corpus() {
        let witness = progfile::parse(witness).unwrap();
        let kernel = progfile::parse(kernel).unwrap();
        if stem == "resonant_phase" {
            assert!(
                kernel.len() > witness.len() / 2,
                "resonant witness unexpectedly collapsed to {} insts",
                kernel.len()
            );
        } else {
            assert!(
                kernel.len() < witness.len(),
                "{stem}: nothing was minimized away"
            );
        }
    }
}
