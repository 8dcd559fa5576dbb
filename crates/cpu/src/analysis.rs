//! Static program analysis and pretty-printing.
//!
//! Stressmark engineers read generated loops (paper §5.A.5 analyzes the
//! A-Res loop instruction by instruction); this module provides the
//! tooling for that: a compact disassembly-style `Display` for
//! instructions and programs, and a static profile of a loop body — unit
//! pressure, register dependence, power density — used by reports and by
//! tests that assert structural properties of generated code.

use std::collections::HashMap;
use std::fmt;

use crate::energy::EnergyModel;
use crate::inst::{Inst, Program, Reg};
use crate::isa::ExecUnit;
#[cfg(test)]
use crate::isa::Opcode;

impl fmt::Display for Inst {
    /// Compact one-line rendering: `simdfma x0, x12, x13 [t=1.0]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode.mnemonic())?;
        if let Some(d) = self.dst {
            write!(f, " {}", d.name())?;
        }
        for s in self.srcs.iter().flatten() {
            write!(f, ", {}", s.name())?;
        }
        if self.toggle != 1.0 {
            write!(f, " [t={:.2}]", self.toggle)?;
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    /// Disassembly-style listing with the loop header.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: ; {} instructions", self.name(), self.len())?;
        for (i, inst) in self.body().iter().enumerate() {
            writeln!(f, "  {i:4}: {inst}")?;
        }
        Ok(())
    }
}

/// Static profile of a loop body.
///
/// # Example
///
/// ```
/// use audit_cpu::{analysis::ProgramProfile, EnergyModel, Inst, Opcode, Program};
///
/// let p = Program::new("mix", vec![Inst::new(Opcode::SimdFma), Inst::new(Opcode::Nop)]);
/// let profile = ProgramProfile::of(&p, &EnergyModel::bulldozer());
/// assert_eq!(profile.nop_fraction, 0.5);
/// assert_eq!(profile.fp_fraction, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramProfile {
    /// Instruction count per execution-unit class.
    pub unit_counts: HashMap<String, usize>,
    /// Fraction of instructions that are NOPs.
    pub nop_fraction: f64,
    /// Fraction that are FP/SIMD.
    pub fp_fraction: f64,
    /// Fraction whose sources read a register written earlier in the
    /// body (static dependence density; high ⇒ serialized).
    pub dependence_fraction: f64,
    /// Sum of per-issue switching current over the body, in
    /// ampere-cycles — the body's total charge demand per iteration.
    pub total_issue_amps: f64,
    /// Maximum critical-path sensitivity present in the body.
    pub max_path_sensitivity: f64,
}

impl ProgramProfile {
    /// Profiles a program under a current model.
    pub fn of(program: &Program, energy: &EnergyModel) -> Self {
        let mut unit_counts: HashMap<String, usize> = HashMap::new();
        let mut nops = 0usize;
        let mut fps = 0usize;
        let mut dependent = 0usize;
        let mut total_issue_amps = 0.0;
        let mut max_path: f64 = 0.0;
        let mut written: std::collections::HashSet<Reg> = std::collections::HashSet::new();

        for inst in program.body() {
            let props = inst.opcode.props();
            *unit_counts
                .entry(unit_name(props.unit).to_string())
                .or_insert(0) += 1;
            if inst.opcode.is_nop() {
                nops += 1;
            }
            if inst.opcode.is_fp() {
                fps += 1;
            }
            if inst.srcs.iter().flatten().any(|s| written.contains(s)) {
                dependent += 1;
            }
            if let Some(d) = inst.dst {
                written.insert(d);
            }
            total_issue_amps += energy.issue_amps(inst.opcode, inst.toggle);
            max_path = max_path.max(props.path_sensitivity);
        }

        let n = program.len() as f64;
        ProgramProfile {
            unit_counts,
            nop_fraction: nops as f64 / n,
            fp_fraction: fps as f64 / n,
            dependence_fraction: dependent as f64 / n,
            total_issue_amps,
            max_path_sensitivity: max_path,
        }
    }
}

fn unit_name(unit: ExecUnit) -> &'static str {
    match unit {
        ExecUnit::IntAlu => "int-alu",
        ExecUnit::Agu => "agu",
        ExecUnit::IntMulDiv => "int-muldiv",
        ExecUnit::FpPipe => "fp-pipe",
        ExecUnit::None => "frontend-only",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_program() -> Program {
        Program::new(
            "mix",
            vec![
                Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(12, 13),
                Inst::new(Opcode::IAdd).int_dst(1).int_srcs(8, 9),
                Inst::new(Opcode::IAdd).int_dst(2).int_srcs(1, 9), // reads r1 → dependent
                Inst::new(Opcode::Nop),
            ],
        )
    }

    #[test]
    fn inst_display_is_disassembly_like() {
        let i = Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(12, 13);
        assert_eq!(i.to_string(), "vfmaddpd xmm0, xmm12, xmm13");
        let i = Inst::new(Opcode::IAdd)
            .int_dst(0)
            .int_srcs(1, 2)
            .toggle(0.5);
        assert_eq!(i.to_string(), "add rax, rbx, rcx [t=0.50]");
        assert_eq!(Inst::new(Opcode::Nop).to_string(), "nop");
    }

    #[test]
    fn program_display_lists_every_instruction() {
        let p = mixed_program();
        let text = p.to_string();
        assert!(text.starts_with("mix: ; 4 instructions"));
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("   2: add"));
    }

    #[test]
    fn profile_counts_units_and_fractions() {
        let prof = ProgramProfile::of(&mixed_program(), &EnergyModel::bulldozer());
        assert_eq!(prof.unit_counts["fp-pipe"], 1);
        assert_eq!(prof.unit_counts["int-alu"], 2);
        assert_eq!(prof.unit_counts["frontend-only"], 1);
        assert_eq!(prof.nop_fraction, 0.25);
        assert_eq!(prof.fp_fraction, 0.25);
        assert_eq!(prof.dependence_fraction, 0.25);
        assert!(prof.max_path_sensitivity >= 0.7);
    }

    #[test]
    fn profile_power_tracks_content() {
        let energy = EnergyModel::bulldozer();
        let hot = Program::new(
            "hot",
            vec![Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(12, 13); 8],
        );
        let cold = Program::nops(8);
        let hot_p = ProgramProfile::of(&hot, &energy);
        let cold_p = ProgramProfile::of(&cold, &energy);
        assert!(hot_p.total_issue_amps > 20.0 * cold_p.total_issue_amps);
    }

    #[test]
    fn dependence_detects_serial_chains() {
        let chain = Program::new(
            "chain",
            vec![Inst::new(Opcode::IAdd).int_dst(0).int_srcs(0, 1); 8],
        );
        let prof = ProgramProfile::of(&chain, &EnergyModel::bulldozer());
        // Every instruction after the first reads r0 which was written.
        assert!(prof.dependence_fraction >= 7.0 / 8.0);
    }
}
