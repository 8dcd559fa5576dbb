//! The abstract x86-64-like instruction set used for stressmark
//! generation.
//!
//! AUDIT's code generator works from an *opcode list* (paper Fig. 5): a
//! menu of instruction types spanning integer, floating-point, and SIMD
//! classes, each with a latency, an execution-unit binding, a per-issue
//! switching current, and a *critical-path sensitivity* used by the
//! failure model (paper §5.A.4: stressmarks like SM2 fail at high voltage
//! because they exercise sensitive paths, not because they droop most).

/// Execution resource classes inside a core/module.
///
/// Integer ALUs, AGUs, and the integer multiply/divide unit are private
/// per core. The FP/SIMD pipes (`FpPipe`) belong to the *module* and are
/// shared between its cores on Bulldozer-class parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecUnit {
    /// Integer ALU (add/sub/logic/branch resolution).
    IntAlu,
    /// Address-generation / load-store unit.
    Agu,
    /// Integer multiply/divide unit (divide is unpipelined).
    IntMulDiv,
    /// Floating-point / SIMD pipe, shared at module level.
    FpPipe,
    /// No unit: the op is absorbed by the front end (NOP).
    None,
}

/// All instruction types AUDIT may schedule.
///
/// This is the "instructions used to generate the stressmark" input of
/// the framework. The set covers the classes the paper calls out:
/// integer, floating-point, and SIMD, using 64-bit general-purpose and
/// 128-bit media registers.
///
/// # Example
///
/// ```
/// use audit_cpu::Opcode;
///
/// let fma = Opcode::SimdFma;
/// assert!(fma.is_fp());
/// assert!(fma.props().issue_amps > Opcode::IAdd.props().issue_amps);
/// assert_eq!(fma.mnemonic(), "vfmaddpd");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// No-operation. Consumes fetch/decode slots and a ROB entry but no
    /// scheduler entry, physical register, or result bus — the property
    /// the paper's §5.A.5 NOP analysis hinges on.
    Nop,
    /// Integer register move / immediate load.
    MovImm,
    /// 64-bit integer add.
    IAdd,
    /// 64-bit integer subtract.
    ISub,
    /// 64-bit integer xor.
    IXor,
    /// Address computation (LEA).
    Lea,
    /// 64-bit integer multiply.
    IMul,
    /// 64-bit integer divide (long latency, unpipelined).
    IDiv,
    /// 64-bit load (L1 hit unless the instruction's memory behaviour
    /// says otherwise).
    Load,
    /// 64-bit store.
    Store,
    /// Conditional branch (predicted; may be flagged to mispredict).
    Branch,
    /// Scalar double-precision FP add.
    FAdd,
    /// Scalar double-precision FP multiply.
    FMul,
    /// Scalar fused multiply-add (Bulldozer FMA4-class; not available on
    /// the older Phenom-class preset).
    Fma,
    /// Scalar FP divide (long latency, unpipelined on its pipe).
    FDiv,
    /// 128-bit SIMD integer add.
    SimdIAdd,
    /// 128-bit SIMD FP multiply.
    SimdFMul,
    /// 128-bit SIMD fused multiply-add (not available on Phenom-class).
    SimdFma,
    /// 128-bit SIMD shuffle/permute.
    SimdShuffle,
}

/// Static properties of an [`Opcode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpProps {
    /// Execution unit class the op issues to.
    pub unit: ExecUnit,
    /// Result latency in cycles (issue → result available).
    pub latency: u32,
    /// True if the op blocks its unit for `latency` cycles (divides).
    pub unpipelined: bool,
    /// Whether the destination register (if any) is a media register.
    pub fp_dst: bool,
    /// Switching current drawn in the issue cycle, in amps, before the
    /// data-toggle scaling of the energy model.
    pub issue_amps: f64,
    /// Extra amps drawn during each additional busy cycle of an
    /// unpipelined op.
    pub busy_amps: f64,
    /// Critical-path sensitivity in `[0, 1]`: how close the paths this
    /// op exercises sit to the timing wall. Feeds the failure model.
    pub path_sensitivity: f64,
    /// True if the op requires FMA support (paper §5.C: SM1 could not
    /// run on the older processor due to incompatible instructions).
    pub needs_fma: bool,
}

impl Opcode {
    /// Every opcode, in a stable order (useful for building opcode lists
    /// and property tables).
    pub const ALL: [Opcode; 19] = [
        Opcode::Nop,
        Opcode::MovImm,
        Opcode::IAdd,
        Opcode::ISub,
        Opcode::IXor,
        Opcode::Lea,
        Opcode::IMul,
        Opcode::IDiv,
        Opcode::Load,
        Opcode::Store,
        Opcode::Branch,
        Opcode::FAdd,
        Opcode::FMul,
        Opcode::Fma,
        Opcode::FDiv,
        Opcode::SimdIAdd,
        Opcode::SimdFMul,
        Opcode::SimdFma,
        Opcode::SimdShuffle,
    ];

    /// Static properties of this opcode.
    pub const fn props(self) -> &'static OpProps {
        match self {
            Opcode::Nop => &OpProps {
                unit: ExecUnit::None,
                latency: 1,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 0.02,
                busy_amps: 0.0,
                path_sensitivity: 0.0,
                needs_fma: false,
            },
            Opcode::MovImm => &OpProps {
                unit: ExecUnit::IntAlu,
                latency: 1,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 0.35,
                busy_amps: 0.0,
                path_sensitivity: 0.05,
                needs_fma: false,
            },
            Opcode::IAdd => &OpProps {
                unit: ExecUnit::IntAlu,
                latency: 1,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 0.80,
                busy_amps: 0.0,
                path_sensitivity: 0.30,
                needs_fma: false,
            },
            Opcode::ISub => &OpProps {
                unit: ExecUnit::IntAlu,
                latency: 1,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 0.80,
                busy_amps: 0.0,
                path_sensitivity: 0.30,
                needs_fma: false,
            },
            Opcode::IXor => &OpProps {
                unit: ExecUnit::IntAlu,
                latency: 1,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 0.70,
                busy_amps: 0.0,
                path_sensitivity: 0.15,
                needs_fma: false,
            },
            Opcode::Lea => &OpProps {
                unit: ExecUnit::IntAlu,
                latency: 1,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 0.75,
                busy_amps: 0.0,
                path_sensitivity: 0.25,
                needs_fma: false,
            },
            Opcode::IMul => &OpProps {
                unit: ExecUnit::IntMulDiv,
                latency: 4,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 1.80,
                busy_amps: 0.0,
                path_sensitivity: 0.88,
                needs_fma: false,
            },
            Opcode::IDiv => &OpProps {
                unit: ExecUnit::IntMulDiv,
                latency: 22,
                unpipelined: true,
                fp_dst: false,
                issue_amps: 1.10,
                busy_amps: 0.45,
                path_sensitivity: 0.70,
                needs_fma: false,
            },
            Opcode::Load => &OpProps {
                unit: ExecUnit::Agu,
                latency: 4,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 1.30,
                busy_amps: 0.0,
                path_sensitivity: 0.50,
                needs_fma: false,
            },
            Opcode::Store => &OpProps {
                unit: ExecUnit::Agu,
                latency: 1,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 1.10,
                busy_amps: 0.0,
                path_sensitivity: 0.55,
                needs_fma: false,
            },
            Opcode::Branch => &OpProps {
                unit: ExecUnit::IntAlu,
                latency: 1,
                unpipelined: false,
                fp_dst: false,
                issue_amps: 0.50,
                busy_amps: 0.0,
                path_sensitivity: 0.35,
                needs_fma: false,
            },
            Opcode::FAdd => &OpProps {
                unit: ExecUnit::FpPipe,
                latency: 5,
                unpipelined: false,
                fp_dst: true,
                issue_amps: 2.00,
                busy_amps: 0.0,
                path_sensitivity: 0.55,
                needs_fma: false,
            },
            Opcode::FMul => &OpProps {
                unit: ExecUnit::FpPipe,
                latency: 5,
                unpipelined: false,
                fp_dst: true,
                issue_amps: 2.30,
                busy_amps: 0.0,
                path_sensitivity: 0.60,
                needs_fma: false,
            },
            Opcode::Fma => &OpProps {
                unit: ExecUnit::FpPipe,
                latency: 6,
                unpipelined: false,
                fp_dst: true,
                issue_amps: 3.20,
                busy_amps: 0.0,
                path_sensitivity: 0.75,
                needs_fma: true,
            },
            Opcode::FDiv => &OpProps {
                unit: ExecUnit::FpPipe,
                latency: 20,
                unpipelined: true,
                fp_dst: true,
                issue_amps: 1.50,
                busy_amps: 0.60,
                path_sensitivity: 0.50,
                needs_fma: false,
            },
            Opcode::SimdIAdd => &OpProps {
                unit: ExecUnit::FpPipe,
                latency: 2,
                unpipelined: false,
                fp_dst: true,
                issue_amps: 2.60,
                busy_amps: 0.0,
                path_sensitivity: 0.45,
                needs_fma: false,
            },
            Opcode::SimdFMul => &OpProps {
                unit: ExecUnit::FpPipe,
                latency: 5,
                unpipelined: false,
                fp_dst: true,
                issue_amps: 3.80,
                busy_amps: 0.0,
                path_sensitivity: 0.65,
                needs_fma: false,
            },
            Opcode::SimdFma => &OpProps {
                unit: ExecUnit::FpPipe,
                latency: 6,
                unpipelined: false,
                fp_dst: true,
                issue_amps: 4.40,
                busy_amps: 0.0,
                path_sensitivity: 0.75,
                needs_fma: true,
            },
            Opcode::SimdShuffle => &OpProps {
                unit: ExecUnit::FpPipe,
                latency: 2,
                unpipelined: false,
                fp_dst: true,
                issue_amps: 1.80,
                busy_amps: 0.0,
                path_sensitivity: 0.30,
                needs_fma: false,
            },
        }
    }

    /// True for FP/SIMD ops, which issue to the (possibly shared and
    /// possibly throttled) module FPU.
    pub fn is_fp(self) -> bool {
        self.props().unit == ExecUnit::FpPipe
    }

    /// True for NOP, which bypasses the back end entirely.
    pub fn is_nop(self) -> bool {
        self == Opcode::Nop
    }

    /// NASM mnemonic for the x86-64 instruction this op abstracts.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Nop => "nop",
            Opcode::MovImm => "mov",
            Opcode::IAdd => "add",
            Opcode::ISub => "sub",
            Opcode::IXor => "xor",
            Opcode::Lea => "lea",
            Opcode::IMul => "imul",
            Opcode::IDiv => "idiv",
            Opcode::Load => "mov",
            Opcode::Store => "mov",
            Opcode::Branch => "jnz",
            Opcode::FAdd => "addsd",
            Opcode::FMul => "mulsd",
            Opcode::Fma => "vfmaddsd",
            Opcode::FDiv => "divsd",
            Opcode::SimdIAdd => "paddq",
            Opcode::SimdFMul => "mulpd",
            Opcode::SimdFma => "vfmaddpd",
            Opcode::SimdShuffle => "pshufd",
        }
    }

    /// Stable, unique identifier for this opcode — the variant name.
    ///
    /// Unlike [`Opcode::mnemonic`] (where `MovImm`, `Load`, and `Store`
    /// all render as `mov`), these names round-trip through
    /// [`Opcode::from_name`], which is what the run journal relies on.
    pub const fn name(self) -> &'static str {
        match self {
            Opcode::Nop => "Nop",
            Opcode::MovImm => "MovImm",
            Opcode::IAdd => "IAdd",
            Opcode::ISub => "ISub",
            Opcode::IXor => "IXor",
            Opcode::Lea => "Lea",
            Opcode::IMul => "IMul",
            Opcode::IDiv => "IDiv",
            Opcode::Load => "Load",
            Opcode::Store => "Store",
            Opcode::Branch => "Branch",
            Opcode::FAdd => "FAdd",
            Opcode::FMul => "FMul",
            Opcode::Fma => "Fma",
            Opcode::FDiv => "FDiv",
            Opcode::SimdIAdd => "SimdIAdd",
            Opcode::SimdFMul => "SimdFMul",
            Opcode::SimdFma => "SimdFma",
            Opcode::SimdShuffle => "SimdShuffle",
        }
    }

    /// Inverse of [`Opcode::name`]. Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|op| op.name() == name)
    }

    /// The high-power opcode menu AUDIT seeds its genetic search with by
    /// default: everything except NOP and branches.
    pub fn stress_menu() -> Vec<Opcode> {
        Opcode::ALL
            .into_iter()
            .filter(|op| !matches!(op, Opcode::Branch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_every_opcode_once() {
        for (i, a) in Opcode::ALL.iter().enumerate() {
            for b in &Opcode::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Opcode::ALL.len(), 19);
    }

    #[test]
    fn nop_bypasses_backend() {
        let p = Opcode::Nop.props();
        assert_eq!(p.unit, ExecUnit::None);
        assert!(p.issue_amps < 0.1);
        assert!(Opcode::Nop.is_nop());
    }

    #[test]
    fn simd_fma_is_highest_power() {
        // The paper's high-power regions are dominated by FP/SIMD ops.
        let max = Opcode::ALL
            .into_iter()
            .max_by(|a, b| a.props().issue_amps.total_cmp(&b.props().issue_amps))
            .unwrap();
        assert_eq!(max, Opcode::SimdFma);
    }

    #[test]
    fn divides_are_unpipelined_and_slow() {
        for op in [Opcode::IDiv, Opcode::FDiv] {
            let p = op.props();
            assert!(p.unpipelined);
            assert!(p.latency >= 10);
        }
    }

    #[test]
    fn fma_ops_need_fma_support() {
        assert!(Opcode::Fma.props().needs_fma);
        assert!(Opcode::SimdFma.props().needs_fma);
        assert!(!Opcode::FMul.props().needs_fma);
    }

    #[test]
    fn fp_classification_matches_unit() {
        for op in Opcode::ALL {
            assert_eq!(op.is_fp(), op.props().unit == ExecUnit::FpPipe);
        }
    }

    #[test]
    fn sensitivities_are_normalized() {
        for op in Opcode::ALL {
            let s = op.props().path_sensitivity;
            assert!((0.0..=1.0).contains(&s), "{op:?} sensitivity {s}");
        }
    }

    #[test]
    fn stress_menu_excludes_branch() {
        let menu = Opcode::stress_menu();
        assert!(!menu.contains(&Opcode::Branch));
        assert!(menu.contains(&Opcode::SimdFma));
        assert!(menu.contains(&Opcode::Nop));
    }

    #[test]
    fn mnemonics_are_nonempty() {
        for op in Opcode::ALL {
            assert!(!op.mnemonic().is_empty());
        }
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_name(op.name()), Some(op));
            assert_eq!(op.name(), format!("{op:?}"));
        }
        assert_eq!(Opcode::from_name("mov"), None);
    }
}
