//! Pass 2: lints — legal-but-suspicious program shapes.
//!
//! Lints never fail verification on their own; each has a stable
//! `AUD1##` code and an [`crate::LintLevel`] configurable through
//! [`LintConfig`]. The loop body is analyzed *circularly*: it runs for
//! millions of iterations, so a value written at the bottom and read at
//! the top is live, and a NOP run can wrap across the loop edge.

use audit_cpu::{Inst, Opcode, Program};

use crate::dataflow::Liveness;
use crate::diag::{Code, Diagnostic, LintConfig, LintLevel, Severity};

fn severity(level: LintLevel) -> Option<Severity> {
    match level {
        LintLevel::Allow => None,
        LintLevel::Warn => Some(Severity::Warning),
        LintLevel::Deny => Some(Severity::Error),
    }
}

fn lint_dead_value(body: &[Inst], live: &Liveness, sev: Severity, out: &mut Vec<Diagnostic>) {
    for (i, inst) in body.iter().enumerate() {
        let Some(d) = inst.dst else { continue };
        if !live.dst_is_live(body, i) {
            out.push(
                Diagnostic::new(
                    Code::DeadValue,
                    sev,
                    Some(i),
                    format!(
                        "{} writes {} but nothing reads it before the next write",
                        inst.opcode.name(),
                        d.name()
                    ),
                )
                .with_help("drop the instruction or feed the value into a consumer"),
            );
        }
    }
}

fn lint_nop_run(body: &[Inst], threshold: usize, sev: Severity, out: &mut Vec<Diagnostic>) {
    let is_nop: Vec<bool> = body.iter().map(|i| i.opcode == Opcode::Nop).collect();
    if is_nop.iter().all(|&n| n) {
        out.push(
            Diagnostic::new(Code::NopRun, sev, None, "program body is entirely NOPs")
                .with_help("a pure-NOP loop draws no switching current at all"),
        );
        return;
    }
    // Longest circular run: rotate so index 0 is a non-NOP, then scan.
    let start = is_nop.iter().position(|&n| !n).unwrap_or(0);
    let (mut run, mut run_start, mut best, mut best_start) = (0usize, 0usize, 0usize, 0usize);
    for j in 0..body.len() {
        let k = (start + j) % body.len();
        if is_nop[k] {
            if run == 0 {
                run_start = k;
            }
            run += 1;
            if run > best {
                best = run;
                best_start = run_start;
            }
        } else {
            run = 0;
        }
    }
    if best >= threshold {
        out.push(
            Diagnostic::new(
                Code::NopRun,
                sev,
                Some(best_start),
                format!("{best} consecutive NOPs (threshold {threshold})"),
            )
            .with_help("low-power phases this long overwhelm any resonance; shorten the run"),
        );
    }
}

fn lint_unreachable_toggle(body: &[Inst], sev: Severity, out: &mut Vec<Diagnostic>) {
    for (i, inst) in body.iter().enumerate() {
        if let [Some(a), Some(b)] = inst.srcs {
            if a == b && inst.toggle > 0.5 {
                out.push(
                    Diagnostic::new(
                        Code::UnreachableToggle,
                        sev,
                        Some(i),
                        format!(
                            "{} reads {} twice with toggle {}, but equal operands cannot alternate",
                            inst.opcode.name(),
                            a.name(),
                            inst.toggle
                        ),
                    )
                    .with_help("use two registers holding complementary toggle patterns"),
                );
            }
        }
    }
}

fn lint_serializing_divide(
    body: &[Inst],
    live: &Liveness,
    sev: Severity,
    out: &mut Vec<Diagnostic>,
) {
    for (i, inst) in body.iter().enumerate() {
        if !inst.opcode.props().unpipelined || inst.dst.is_none() {
            continue;
        }
        if live.dst_is_live(body, i) {
            out.push(
                Diagnostic::new(
                    Code::SerializingDivide,
                    sev,
                    Some(i),
                    format!(
                        "unpipelined {} feeds a dependent consumer; the window drains behind it",
                        inst.opcode.name()
                    ),
                )
                .with_help("break the dependence unless the stall is the point of the stressmark"),
            );
        }
    }
}

fn lint_monoculture(body: &[Inst], min_insts: usize, sev: Severity, out: &mut Vec<Diagnostic>) {
    let mut non_nops = body
        .iter()
        .enumerate()
        .filter(|(_, i)| i.opcode != Opcode::Nop);
    let Some((first_idx, first)) = non_nops.next() else {
        return; // all-NOP bodies are AUD102's business
    };
    let rest: Vec<_> = non_nops.collect();
    if 1 + rest.len() >= min_insts && rest.iter().all(|(_, i)| i.opcode == first.opcode) {
        out.push(
            Diagnostic::new(
                Code::UnitMonoculture,
                sev,
                Some(first_idx),
                format!(
                    "all {} non-NOP instructions are {}",
                    1 + rest.len(),
                    first.opcode.name()
                ),
            )
            .with_help("mix opcodes so more than one issue path switches"),
        );
    }
}

/// Run every lint over a program under `cfg`. Findings come back in
/// lint-catalog order; codes configured [`LintLevel::Allow`] are
/// suppressed entirely.
pub fn lint(program: &Program, cfg: &LintConfig) -> Vec<Diagnostic> {
    let body = program.body();
    let mut out = Vec::new();
    if body.is_empty() {
        return out;
    }
    // One shared liveness fixpoint feeds both dataflow lints; skipped
    // entirely when neither is enabled.
    let dead = severity(cfg.level(Code::DeadValue));
    let serializing = severity(cfg.level(Code::SerializingDivide));
    let live = (dead.is_some() || serializing.is_some()).then(|| Liveness::of_loop(body));
    if let (Some(sev), Some(live)) = (dead, live.as_ref()) {
        lint_dead_value(body, live, sev, &mut out);
    }
    if let Some(sev) = severity(cfg.level(Code::NopRun)) {
        lint_nop_run(body, cfg.nop_run_threshold, sev, &mut out);
    }
    if let Some(sev) = severity(cfg.level(Code::UnreachableToggle)) {
        lint_unreachable_toggle(body, sev, &mut out);
    }
    if let (Some(sev), Some(live)) = (serializing, live.as_ref()) {
        lint_serializing_divide(body, live, sev, &mut out);
    }
    if let Some(sev) = severity(cfg.level(Code::UnitMonoculture)) {
        lint_monoculture(body, cfg.monoculture_min_insts, sev, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(body: Vec<Inst>) -> Program {
        Program::new("t", body)
    }

    fn codes(program: &Program, cfg: &LintConfig) -> Vec<Code> {
        lint(program, cfg).iter().map(|d| d.code).collect()
    }

    #[test]
    fn dead_value_is_allow_by_default_and_fires_when_denied() {
        // r0 is overwritten every iteration without a read.
        let p = prog(vec![
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(12, 13),
            Inst::new(Opcode::ISub).int_dst(0).int_srcs(12, 13),
        ]);
        assert!(codes(&p, &LintConfig::new()).is_empty());
        let deny = LintConfig::new().deny(Code::DeadValue);
        let diags = lint(&p, &deny);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == Code::DeadValue));
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn dead_value_respects_loop_wraparound() {
        // r0 written at the bottom, read at the top of the next
        // iteration — live, not dead.
        let p = prog(vec![
            Inst::new(Opcode::Store).int_srcs(0, 13),
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(12, 13),
        ]);
        let deny = LintConfig::new().deny(Code::DeadValue);
        assert!(codes(&p, &deny).is_empty());
    }

    #[test]
    fn all_nop_body_fires_nop_run() {
        let p = Program::nops(16);
        let diags = lint(&p, &LintConfig::new());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::NopRun);
        assert_eq!(diags[0].inst_index, None);
    }

    #[test]
    fn nop_run_threshold_counts_across_the_loop_edge() {
        // 3 NOPs at the end + 3 at the start wrap into a run of 6.
        let mut body = vec![Inst::new(Opcode::Nop); 3];
        body.push(Inst::new(Opcode::IAdd).int_dst(0).int_srcs(12, 13));
        body.extend(vec![Inst::new(Opcode::Nop); 3]);
        let p = prog(body);
        let mut cfg = LintConfig::new();
        cfg.nop_run_threshold = 6;
        assert_eq!(codes(&p, &cfg), vec![Code::NopRun]);
        cfg.nop_run_threshold = 7;
        assert!(codes(&p, &cfg).is_empty());
    }

    #[test]
    fn equal_sources_with_high_toggle_fire_aud103() {
        let hot = prog(vec![Inst::new(Opcode::IAdd)
            .int_dst(0)
            .int_srcs(12, 12)
            .toggle(1.0)]);
        assert_eq!(
            codes(&hot, &LintConfig::new()),
            vec![Code::UnreachableToggle]
        );
        // Neutral toggle (0.5) or distinct sources are fine.
        let neutral = prog(vec![Inst::new(Opcode::IAdd)
            .int_dst(0)
            .int_srcs(12, 12)
            .toggle(0.5)]);
        assert!(codes(&neutral, &LintConfig::new()).is_empty());
        let distinct = prog(vec![Inst::new(Opcode::IAdd)
            .int_dst(0)
            .int_srcs(12, 13)
            .toggle(1.0)]);
        assert!(codes(&distinct, &LintConfig::new()).is_empty());
    }

    #[test]
    fn dependent_divide_fires_aud104() {
        let p = prog(vec![
            Inst::new(Opcode::IDiv).int_dst(0).int_srcs(14, 15),
            Inst::new(Opcode::IAdd).int_dst(1).int_srcs(0, 15),
        ]);
        assert_eq!(codes(&p, &LintConfig::new()), vec![Code::SerializingDivide]);
        // An independent divide does not serialize.
        let free = prog(vec![
            Inst::new(Opcode::IDiv).int_dst(0).int_srcs(14, 15),
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(14, 15),
        ]);
        assert!(codes(&free, &LintConfig::new()).is_empty());
    }

    #[test]
    fn monoculture_requires_min_size_and_single_opcode() {
        let mono: Vec<Inst> = (0..8)
            .map(|i| Inst::new(Opcode::IMul).int_dst(i % 6).int_srcs(14, 15))
            .collect();
        assert_eq!(
            codes(&prog(mono.clone()), &LintConfig::new()),
            vec![Code::UnitMonoculture]
        );
        // Too small: seven identical ops stay quiet.
        assert!(codes(&prog(mono[..7].to_vec()), &LintConfig::new()).is_empty());
        // Two opcodes on the same unit are not a monoculture.
        let mut mixed = mono;
        mixed.push(Inst::new(Opcode::IAdd).int_dst(0).int_srcs(14, 15));
        assert!(codes(&prog(mixed), &LintConfig::new()).is_empty());
    }

    #[test]
    fn nops_do_not_break_a_monoculture() {
        let mut body = Vec::new();
        for i in 0..8 {
            body.push(Inst::new(Opcode::SimdFMul).fp_dst(i % 8).fp_srcs(12, 13));
            body.push(Inst::new(Opcode::Nop));
        }
        assert_eq!(
            codes(&prog(body), &LintConfig::new()),
            vec![Code::UnitMonoculture]
        );
    }
}
