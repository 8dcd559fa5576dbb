//! Pass 1: the structural verifier.
//!
//! [`verify()`] proves the invariants a program must satisfy before the
//! simulator or the NASM emitter can give it meaning: every source
//! register defined before use (seeded from the emission preamble's
//! actual def set), register indices inside the 16-entry files,
//! exec-unit bindings legal for the target chip, memory/branch
//! behaviour flags only on ops that have those behaviours, and loop
//! attributes well-formed. Violations come back as typed
//! [`Diagnostic`]s — never panics, never silent garbage.

use audit_cpu::{ChipConfig, Inst, MemBehavior, Opcode, Program, Reg};

use crate::dataflow;
use crate::diag::{Code, Diagnostic, Severity};

/// A set of defined registers, one bit per entry of the int and media
/// files. Used both as the verifier's running state and to describe
/// what the emission preamble initializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSet {
    int: u16,
    fp: u16,
}

impl DefSet {
    /// No registers defined.
    pub fn empty() -> Self {
        DefSet { int: 0, fp: 0 }
    }

    /// Every register in both files defined. This is what the fixed
    /// NASM preamble guarantees (see `audit_stressmark::nasm`).
    pub fn full() -> Self {
        DefSet {
            int: u16::MAX,
            fp: u16::MAX,
        }
    }

    /// The def set of the *pre-fix* NASM preamble, kept as a regression
    /// witness: only `rsi`/`rdi` (buffer bases), `r8..r15`, and
    /// `xmm8..xmm15` were initialized, so programs touching low int or
    /// media registers read uninitialized state — exactly the bug the
    /// verifier's AUD001 pass exists to catch.
    pub fn legacy_preamble() -> Self {
        let mut s = DefSet::empty();
        for i in [4u8, 5] {
            s = s.with_int(i); // rsi, rdi
        }
        for i in 8..16u8 {
            s = s.with_int(i).with_fp(i);
        }
        s
    }

    /// Add one integer register.
    pub fn with_int(mut self, idx: u8) -> Self {
        self.int |= 1 << (idx as u16 % 16);
        self
    }

    /// Add one media register.
    pub fn with_fp(mut self, idx: u8) -> Self {
        self.fp |= 1 << (idx as u16 % 16);
        self
    }

    /// Whether `reg` is defined. Out-of-file indices are reported
    /// separately (AUD002) and treated as defined here to avoid
    /// cascading diagnostics.
    pub fn contains(&self, reg: Reg) -> bool {
        if reg.index() >= Reg::PER_FILE {
            return true;
        }
        let bit = 1u16 << reg.index();
        match reg {
            Reg::Int(_) => self.int & bit != 0,
            Reg::Fp(_) => self.fp & bit != 0,
        }
    }

    /// Mark `reg` defined (out-of-file indices are ignored).
    pub fn define(&mut self, reg: Reg) {
        if reg.index() >= Reg::PER_FILE {
            return;
        }
        let bit = 1u16 << reg.index();
        match reg {
            Reg::Int(_) => self.int |= bit,
            Reg::Fp(_) => self.fp |= bit,
        }
    }
}

/// What the verifier assumes about the execution environment: which
/// registers start defined, and whether FMA-class ops exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyTarget {
    /// Registers defined before the loop body runs.
    pub init: DefSet,
    /// Whether the target executes FMA-class ops (`needs_fma`).
    pub supports_fma: bool,
}

impl VerifyTarget {
    /// The most permissive target: everything initialized, FMA
    /// available. This is the right target for GA-internal checks,
    /// where the opcode menu already excludes unsupported ops and the
    /// emitter initializes every register.
    pub fn permissive() -> Self {
        VerifyTarget {
            init: DefSet::full(),
            supports_fma: true,
        }
    }

    /// Target derived from a chip model: the (fixed) NASM preamble
    /// initializes every register, so only the FMA capability varies.
    pub fn for_chip(chip: &ChipConfig) -> Self {
        VerifyTarget {
            init: DefSet::full(),
            supports_fma: chip.supports_fma,
        }
    }
}

/// How many `Some` sources an opcode requires. Extra sources are always
/// legal — the GA's genome carries two source fields for every gene and
/// lowers both regardless of arity.
fn required_srcs(op: Opcode) -> usize {
    match op {
        // No register inputs: NOP, immediate move, branch (flag-driven),
        // and loads (the emitter addresses a fixed buffer).
        Opcode::Nop | Opcode::MovImm | Opcode::Branch | Opcode::Load => 0,
        Opcode::Store => 1,
        Opcode::Lea | Opcode::Fma | Opcode::SimdFma => 2,
        _ => 1,
    }
}

fn reg_name(reg: Reg) -> String {
    if reg.index() < Reg::PER_FILE {
        reg.name()
    } else if reg.is_fp() {
        format!("xmm{}", reg.index())
    } else {
        format!("r{}", reg.index())
    }
}

fn check_operand_shape(i: usize, inst: &Inst, out: &mut Vec<Diagnostic>) {
    let props = inst.opcode.props();
    let no_dst = matches!(inst.opcode, Opcode::Nop | Opcode::Store | Opcode::Branch);
    match (no_dst, inst.dst) {
        (true, Some(d)) => out.push(
            Diagnostic::new(
                Code::OperandShape,
                Severity::Error,
                Some(i),
                format!(
                    "{} does not write a register but has destination {}",
                    inst.opcode.name(),
                    reg_name(d)
                ),
            )
            .with_help("drop the destination operand"),
        ),
        (false, None) => out.push(
            Diagnostic::new(
                Code::OperandShape,
                Severity::Error,
                Some(i),
                format!("{} requires a destination register", inst.opcode.name()),
            )
            .with_help("add a destination operand"),
        ),
        _ => {}
    }

    let have = inst.srcs.iter().flatten().count();
    let need = required_srcs(inst.opcode);
    if have < need {
        out.push(
            Diagnostic::new(
                Code::OperandShape,
                Severity::Error,
                Some(i),
                format!(
                    "{} requires {need} source register(s), found {have}",
                    inst.opcode.name()
                ),
            )
            .with_help("supply the missing source operand(s)"),
        );
    }

    // Operands must live in the register file the opcode operates on.
    for reg in inst.dst.iter().chain(inst.srcs.iter().flatten()) {
        if reg.is_fp() != props.fp_dst {
            let (want, got) = if props.fp_dst {
                ("media (xmm)", "integer")
            } else {
                ("integer", "media (xmm)")
            };
            out.push(
                Diagnostic::new(
                    Code::OperandShape,
                    Severity::Error,
                    Some(i),
                    format!(
                        "{} operates on the {want} file but {} is a {got} register",
                        inst.opcode.name(),
                        reg_name(*reg)
                    ),
                )
                .with_help(format!("use a {want} register")),
            );
        }
    }
}

fn check_attributes(i: usize, inst: &Inst, out: &mut Vec<Diagnostic>) {
    let is_mem = matches!(inst.opcode, Opcode::Load | Opcode::Store);
    if !is_mem && inst.mem != MemBehavior::L1Hit {
        out.push(
            Diagnostic::new(
                Code::MemFlagOnNonMemOp,
                Severity::Error,
                Some(i),
                format!(
                    "memory behaviour {:?} on non-memory op {}",
                    inst.mem,
                    inst.opcode.name()
                ),
            )
            .with_help("move the behaviour onto a load or store"),
        );
    }
    if inst.opcode != Opcode::Branch && inst.branch != audit_cpu::BranchBehavior::Predicted {
        out.push(
            Diagnostic::new(
                Code::BranchFlagOnNonBranch,
                Severity::Error,
                Some(i),
                format!(
                    "branch behaviour {:?} on non-branch op {}",
                    inst.branch,
                    inst.opcode.name()
                ),
            )
            .with_help("move the behaviour onto a branch"),
        );
    }

    if !inst.toggle.is_finite() || !(0.0..=1.0).contains(&inst.toggle) {
        out.push(
            Diagnostic::new(
                Code::MalformedLoop,
                Severity::Error,
                Some(i),
                format!("toggle activity {} outside [0, 1]", inst.toggle),
            )
            .with_help("clamp toggle to the unit interval"),
        );
    }
    let bad_period = match inst.mem {
        MemBehavior::L2MissEvery { period } | MemBehavior::MemMissEvery { period } => period == 0,
        // A zero footprint is documented as "treated as one stride",
        // so only a zero stride is malformed.
        MemBehavior::Strided { stride_bytes, .. } => stride_bytes == 0,
        MemBehavior::L1Hit => false,
    };
    if bad_period {
        out.push(
            Diagnostic::new(
                Code::MalformedLoop,
                Severity::Error,
                Some(i),
                format!("memory behaviour {:?} has a zero period/stride", inst.mem),
            )
            .with_help("periods and strides must be non-zero"),
        );
    }
    if let audit_cpu::BranchBehavior::MispredictEvery { period } = inst.branch {
        if period == 0 {
            out.push(
                Diagnostic::new(
                    Code::MalformedLoop,
                    Severity::Error,
                    Some(i),
                    "mispredict period is zero".to_string(),
                )
                .with_help("mispredict periods must be non-zero"),
            );
        }
    }
}

/// Run the verifier over a program. Returns all violations in body
/// order; an empty vector means the program is structurally sound for
/// `target`.
pub fn verify(program: &Program, target: &VerifyTarget) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let body = program.body();
    if body.is_empty() {
        out.push(
            Diagnostic::new(
                Code::MalformedLoop,
                Severity::Error,
                None,
                "program body is empty",
            )
            .with_help("a loop must contain at least one instruction"),
        );
        return out;
    }

    // AUD001 sites come from the shared forward dataflow pass
    // (first-iteration reaching definitions seeded from the preamble's
    // def set); they are interleaved below so each instruction's
    // diagnostics keep their historical order.
    let mut undefined = dataflow::undefined_uses(body, target.init)
        .into_iter()
        .peekable();
    for (i, inst) in body.iter().enumerate() {
        // AUD002: indices outside the file. Checked first so the rest
        // of the passes can ignore out-of-range registers.
        for reg in inst.dst.iter().chain(inst.srcs.iter().flatten()) {
            if reg.index() >= Reg::PER_FILE {
                out.push(
                    Diagnostic::new(
                        Code::RegisterOutOfRange,
                        Severity::Error,
                        Some(i),
                        format!(
                            "register {} outside the {}-entry file",
                            reg_name(*reg),
                            Reg::PER_FILE
                        ),
                    )
                    .with_help("register indices must be < 16"),
                );
            }
        }

        // AUD003: capability check against the target chip.
        if inst.opcode.props().needs_fma && !target.supports_fma {
            out.push(
                Diagnostic::new(
                    Code::FmaUnsupported,
                    Severity::Error,
                    Some(i),
                    format!(
                        "{} requires FMA, which the target lacks",
                        inst.opcode.name()
                    ),
                )
                .with_help("restrict the opcode menu to non-FMA ops for this chip"),
            );
        }

        check_operand_shape(i, inst, &mut out);
        check_attributes(i, inst, &mut out);

        // AUD001: def-before-use, seeded from the preamble's def set.
        while let Some((_, reg)) = undefined.next_if(|(at, _)| *at == i) {
            out.push(
                Diagnostic::new(
                    Code::UseBeforeDef,
                    Severity::Error,
                    Some(i),
                    format!("{} read before definition", reg_name(reg)),
                )
                .with_help("initialize it in the preamble or define it earlier"),
            );
        }
    }
    out
}

/// Convenience: true when [`verify()`] finds nothing.
pub fn verify_ok(program: &Program, target: &VerifyTarget) -> bool {
    verify(program, target).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_cpu::BranchBehavior;

    fn prog(body: Vec<Inst>) -> Program {
        Program::new("t", body)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_verifies() {
        let p = prog(vec![
            Inst::new(Opcode::MovImm).int_dst(0),
            Inst::new(Opcode::IAdd).int_dst(1).int_srcs(0, 0),
            Inst::new(Opcode::Store).int_srcs(1, 0),
            Inst::new(Opcode::Nop),
        ]);
        let target = VerifyTarget {
            init: DefSet::empty(),
            supports_fma: true,
        };
        assert!(verify_ok(&p, &target));
    }

    #[test]
    fn use_before_def_is_caught_and_reported_once() {
        let p = prog(vec![
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(3, 3),
            Inst::new(Opcode::ISub).int_dst(1).int_srcs(3, 0),
        ]);
        let target = VerifyTarget {
            init: DefSet::empty(),
            supports_fma: true,
        };
        let diags = verify(&p, &target);
        assert_eq!(codes(&diags), vec![Code::UseBeforeDef]);
        assert_eq!(diags[0].inst_index, Some(0));
    }

    #[test]
    fn legacy_preamble_def_set_exposes_the_old_emitter_bug() {
        // Low int and media registers were never initialized by the
        // pre-fix preamble; the verifier sees straight through it.
        let p = prog(vec![Inst::new(Opcode::IAdd).int_dst(0).int_srcs(1, 8)]);
        let legacy = VerifyTarget {
            init: DefSet::legacy_preamble(),
            supports_fma: true,
        };
        let diags = verify(&p, &legacy);
        assert_eq!(codes(&diags), vec![Code::UseBeforeDef]);
        assert!(diags[0].message.contains("rbx"), "{}", diags[0].message);
        // The fixed preamble initializes everything.
        assert!(verify_ok(&p, &VerifyTarget::permissive()));
    }

    #[test]
    fn fma_reads_its_destination() {
        let p = prog(vec![Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(8, 9)]);
        let target = VerifyTarget {
            init: DefSet::empty().with_fp(8).with_fp(9),
            supports_fma: true,
        };
        let diags = verify(&p, &target);
        assert_eq!(codes(&diags), vec![Code::UseBeforeDef]);
        assert!(diags[0].message.contains("xmm0"), "{}", diags[0].message);
    }

    #[test]
    fn out_of_range_register_is_aud002_without_cascade() {
        let mut inst = Inst::new(Opcode::IAdd).int_dst(0).int_srcs(1, 2);
        inst.srcs[0] = Some(Reg::Int(20));
        let p = prog(vec![inst]);
        let diags = verify(&p, &VerifyTarget::permissive());
        assert_eq!(codes(&diags), vec![Code::RegisterOutOfRange]);
    }

    #[test]
    fn fma_on_non_fma_target_is_aud003() {
        let p = prog(vec![Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(12, 13)]);
        let no_fma = VerifyTarget {
            init: DefSet::full(),
            supports_fma: false,
        };
        assert_eq!(codes(&verify(&p, &no_fma)), vec![Code::FmaUnsupported]);
        let phenom = VerifyTarget::for_chip(&ChipConfig::phenom());
        assert_eq!(codes(&verify(&p, &phenom)), vec![Code::FmaUnsupported]);
        assert!(verify_ok(
            &p,
            &VerifyTarget::for_chip(&ChipConfig::bulldozer())
        ));
    }

    #[test]
    fn mem_flag_on_alu_op_is_aud004() {
        let p = prog(vec![Inst::new(Opcode::IAdd)
            .int_dst(0)
            .int_srcs(12, 13)
            .mem(MemBehavior::L2MissEvery { period: 4 })]);
        assert_eq!(
            codes(&verify(&p, &VerifyTarget::permissive())),
            vec![Code::MemFlagOnNonMemOp]
        );
    }

    #[test]
    fn branch_flag_on_alu_op_is_aud005() {
        let p = prog(vec![Inst::new(Opcode::IAdd)
            .int_dst(0)
            .int_srcs(12, 13)
            .branch(BranchBehavior::MispredictEvery { period: 8 })]);
        assert_eq!(
            codes(&verify(&p, &VerifyTarget::permissive())),
            vec![Code::BranchFlagOnNonBranch]
        );
    }

    #[test]
    fn operand_shape_violations_are_aud006() {
        let mut store = Inst::new(Opcode::Store).int_srcs(12, 13);
        store.dst = Some(Reg::Int(0));
        let mut missing_dst = Inst::new(Opcode::IAdd).int_srcs(12, 13);
        missing_dst.dst = None;
        let no_srcs = Inst::new(Opcode::Fma).fp_dst(0);
        let mut wrong_file = Inst::new(Opcode::FAdd).fp_dst(0);
        wrong_file.srcs = [Some(Reg::Int(12)), Some(Reg::Fp(13))];
        for inst in [store, missing_dst, no_srcs, wrong_file] {
            let diags = verify(&prog(vec![inst]), &VerifyTarget::permissive());
            assert_eq!(codes(&diags), vec![Code::OperandShape]);
        }
    }

    #[test]
    fn malformed_attributes_are_aud007() {
        let mut bad_toggle = Inst::new(Opcode::IAdd).int_dst(0).int_srcs(12, 13);
        bad_toggle.toggle = 1.5;
        let zero_period = Inst::new(Opcode::Load)
            .int_dst(0)
            .int_srcs(12, 13)
            .mem(MemBehavior::MemMissEvery { period: 0 });
        let zero_stride =
            Inst::new(Opcode::Load)
                .int_dst(0)
                .int_srcs(12, 13)
                .mem(MemBehavior::Strided {
                    stride_bytes: 0,
                    footprint_bytes: 4096,
                });
        // A zero footprint is legal (documented as "one stride").
        let zero_footprint =
            Inst::new(Opcode::Load)
                .int_dst(0)
                .int_srcs(12, 13)
                .mem(MemBehavior::Strided {
                    stride_bytes: 64,
                    footprint_bytes: 0,
                });
        assert!(verify_ok(
            &prog(vec![zero_footprint]),
            &VerifyTarget::permissive()
        ));
        let zero_mispredict =
            Inst::new(Opcode::Branch).branch(BranchBehavior::MispredictEvery { period: 0 });
        for inst in [bad_toggle, zero_period, zero_stride, zero_mispredict] {
            let diags = verify(&prog(vec![inst]), &VerifyTarget::permissive());
            assert_eq!(codes(&diags), vec![Code::MalformedLoop]);
        }
    }

    #[test]
    fn nan_toggle_is_rejected() {
        let mut inst = Inst::new(Opcode::IAdd).int_dst(0).int_srcs(12, 13);
        inst.toggle = f64::NAN;
        let diags = verify(&prog(vec![inst]), &VerifyTarget::permissive());
        assert_eq!(codes(&diags), vec![Code::MalformedLoop]);
    }
}
