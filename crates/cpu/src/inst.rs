//! Instructions, registers, and programs.
//!
//! A [`Program`] is a loop body — exactly what AUDIT evolves — optionally
//! annotated with memory and branch *behaviour* so that the same
//! executable representation can also express the synthetic SPEC/PARSEC
//! workload models (cache misses, branch mispredicts, barrier waits).

use std::sync::Arc;

use crate::isa::Opcode;

/// An architectural register: 16 general-purpose + 16 media registers,
/// matching the paper's use of 64-bit GPRs and 128-bit media registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// General-purpose (integer) register `r0..r15`.
    Int(u8),
    /// Media (FP/SIMD) register `xmm0..xmm15`.
    Fp(u8),
}

impl Reg {
    /// Number of architectural registers in each file.
    pub const PER_FILE: u8 = 16;

    /// Index within its file.
    pub fn index(self) -> u8 {
        match self {
            Reg::Int(i) | Reg::Fp(i) => i,
        }
    }

    /// True for media registers.
    pub fn is_fp(self) -> bool {
        matches!(self, Reg::Fp(_))
    }

    /// NASM register name.
    pub fn name(self) -> String {
        match self {
            Reg::Int(i) => match i {
                0 => "rax".into(),
                1 => "rbx".into(),
                2 => "rcx".into(),
                3 => "rdx".into(),
                4 => "rsi".into(),
                5 => "rdi".into(),
                6 => "rbp".into(),
                7 => "rsp".into(),
                n => format!("r{n}"),
            },
            Reg::Fp(i) => format!("xmm{i}"),
        }
    }
}

/// Memory behaviour of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemBehavior {
    /// Always hits the L1 data cache.
    #[default]
    L1Hit,
    /// Every `period`-th dynamic execution misses to the L2.
    L2MissEvery {
        /// Dynamic-execution period of the miss.
        period: u32,
    },
    /// Every `period`-th dynamic execution misses to memory
    /// (long-latency stall followed by a burst — a classic di/dt event,
    /// paper §5.A.1).
    MemMissEvery {
        /// Dynamic-execution period of the miss.
        period: u32,
    },
    /// The load walks addresses with a fixed stride over a fixed
    /// footprint; hits and misses are resolved by the core's real cache
    /// hierarchy ([`crate::cache`]). This is how address-controlled
    /// stressmarks (Joseph et al.'s memory virus, or AUDIT itself on
    /// real hardware) shape their memory behaviour.
    Strided {
        /// Address increment per dynamic execution, bytes.
        stride_bytes: u32,
        /// Wrap-around footprint, bytes (0 is treated as one stride).
        footprint_bytes: u32,
    },
}

/// Branch behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchBehavior {
    /// Always predicted correctly (e.g. a hot loop back-edge).
    #[default]
    Predicted,
    /// Every `period`-th dynamic execution mispredicts, flushing the
    /// front end (pipeline-recovery di/dt event, paper §5.A.1).
    MispredictEvery {
        /// Dynamic-execution period of the mispredict.
        period: u32,
    },
}

/// One abstract instruction.
///
/// Construct with [`Inst::new`] and the builder-style helpers:
///
/// ```
/// use audit_cpu::{Inst, Opcode};
///
/// let fma = Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(1, 2).toggle(1.0);
/// assert!(fma.opcode.is_fp());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inst {
    /// Operation.
    pub opcode: Opcode,
    /// Destination register, if the op writes one.
    pub dst: Option<Reg>,
    /// Source registers.
    pub srcs: [Option<Reg>; 2],
    /// Operand data-toggle activity in `[0, 1]`. AUDIT uses alternating
    /// data values that maximize bit toggling between consecutive ops on
    /// the same unit (paper §3, ≈10 % droop effect); `1.0` models that.
    pub toggle: f64,
    /// Memory behaviour (loads/stores only).
    pub mem: MemBehavior,
    /// Branch behaviour (branches only).
    pub branch: BranchBehavior,
}

impl Inst {
    /// Creates an instruction with default registers for its class, full
    /// data toggling, and benign memory/branch behaviour.
    pub fn new(opcode: Opcode) -> Self {
        let props = opcode.props();
        let dst = if opcode == Opcode::Nop || opcode == Opcode::Store || opcode == Opcode::Branch {
            None
        } else if props.fp_dst {
            Some(Reg::Fp(0))
        } else {
            Some(Reg::Int(0))
        };
        Inst {
            opcode,
            dst,
            srcs: [None, None],
            toggle: 1.0,
            mem: MemBehavior::default(),
            branch: BranchBehavior::default(),
        }
    }

    /// Sets an integer destination register.
    pub fn int_dst(mut self, r: u8) -> Self {
        self.dst = Some(Reg::Int(r % Reg::PER_FILE));
        self
    }

    /// Sets a media destination register.
    pub fn fp_dst(mut self, r: u8) -> Self {
        self.dst = Some(Reg::Fp(r % Reg::PER_FILE));
        self
    }

    /// Sets two integer source registers.
    pub fn int_srcs(mut self, a: u8, b: u8) -> Self {
        self.srcs = [
            Some(Reg::Int(a % Reg::PER_FILE)),
            Some(Reg::Int(b % Reg::PER_FILE)),
        ];
        self
    }

    /// Sets two media source registers.
    pub fn fp_srcs(mut self, a: u8, b: u8) -> Self {
        self.srcs = [
            Some(Reg::Fp(a % Reg::PER_FILE)),
            Some(Reg::Fp(b % Reg::PER_FILE)),
        ];
        self
    }

    /// Sets one source register.
    pub fn src(mut self, r: Reg) -> Self {
        self.srcs = [Some(r), None];
        self
    }

    /// Sets the data-toggle activity factor.
    ///
    /// # Panics
    ///
    /// Panics if `toggle` is not in `[0, 1]`.
    pub fn toggle(mut self, toggle: f64) -> Self {
        assert!((0.0..=1.0).contains(&toggle), "toggle must be in [0, 1]");
        self.toggle = toggle;
        self
    }

    /// Sets memory behaviour.
    pub fn mem(mut self, mem: MemBehavior) -> Self {
        self.mem = mem;
        self
    }

    /// Sets branch behaviour.
    pub fn branch(mut self, branch: BranchBehavior) -> Self {
        self.branch = branch;
        self
    }
}

/// A named loop body executed repeatedly by one hardware thread.
///
/// This is the unit AUDIT evaluates: the paper's stressmarks are short
/// loops (tens of cycles — the resonance period) run for milliseconds.
///
/// The body is immutable and reference-counted, so cloning a program
/// (one copy per thread, one per core load) does not copy it.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    body: Arc<Vec<Inst>>,
}

impl Program {
    /// Creates a program from a loop body.
    ///
    /// # Panics
    ///
    /// Panics if `body` is empty — an empty loop cannot be executed.
    pub fn new(name: impl Into<String>, body: Vec<Inst>) -> Self {
        assert!(!body.is_empty(), "program body must not be empty");
        Program {
            name: name.into(),
            body: Arc::new(body),
        }
    }

    /// A loop of `n` NOPs — the canonical low-power filler.
    pub fn nops(n: usize) -> Self {
        Program::new("nops", vec![Inst::new(Opcode::Nop); n.max(1)])
    }

    /// Program name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loop body.
    pub fn body(&self) -> &[Inst] {
        &self.body
    }

    /// Number of static instructions in the loop body.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Always false: construction rejects empty bodies.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Fraction of body instructions that are FP/SIMD.
    pub fn fp_density(&self) -> f64 {
        self.body.iter().filter(|i| i.opcode.is_fp()).count() as f64 / self.len() as f64
    }

    /// True if every instruction can execute on a chip without FMA
    /// support (paper §5.C: SM1 was incompatible with the older part).
    pub fn avoids_fma(&self) -> bool {
        self.body.iter().all(|i| !i.opcode.props().needs_fma)
    }

    /// Returns a copy with `n` NOPs appended (used by dither padding).
    pub fn with_nop_padding(&self, n: usize) -> Program {
        let mut body = self.body.to_vec();
        body.extend(std::iter::repeat_n(Inst::new(Opcode::Nop), n));
        Program {
            name: format!("{}+pad{n}", self.name),
            body: Arc::new(body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_inst_picks_register_file_by_class() {
        assert!(matches!(Inst::new(Opcode::IAdd).dst, Some(Reg::Int(_))));
        assert!(matches!(Inst::new(Opcode::FMul).dst, Some(Reg::Fp(_))));
        assert_eq!(Inst::new(Opcode::Nop).dst, None);
        assert_eq!(Inst::new(Opcode::Store).dst, None);
        assert_eq!(Inst::new(Opcode::Branch).dst, None);
    }

    #[test]
    fn builder_wraps_register_indices() {
        let i = Inst::new(Opcode::IAdd).int_dst(200);
        assert_eq!(i.dst, Some(Reg::Int(200 % 16)));
    }

    #[test]
    #[should_panic(expected = "toggle")]
    fn toggle_out_of_range_panics() {
        let _ = Inst::new(Opcode::IAdd).toggle(1.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_program_panics() {
        let _ = Program::new("x", vec![]);
    }

    #[test]
    fn fp_density_counts_simd() {
        let p = Program::new(
            "mix",
            vec![
                Inst::new(Opcode::IAdd),
                Inst::new(Opcode::SimdFma),
                Inst::new(Opcode::FMul),
                Inst::new(Opcode::Nop),
            ],
        );
        assert_eq!(p.fp_density(), 0.5);
    }

    #[test]
    fn avoids_fma_detects_incompatibility() {
        let ok = Program::new("ok", vec![Inst::new(Opcode::FMul)]);
        let bad = Program::new("bad", vec![Inst::new(Opcode::SimdFma)]);
        assert!(ok.avoids_fma());
        assert!(!bad.avoids_fma());
    }

    #[test]
    fn nop_padding_extends_body() {
        let p = Program::nops(4).with_nop_padding(3);
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn register_names_are_nasm_style() {
        assert_eq!(Reg::Int(0).name(), "rax");
        assert_eq!(Reg::Int(9).name(), "r9");
        assert_eq!(Reg::Fp(3).name(), "xmm3");
        assert!(Reg::Fp(3).is_fp());
        assert!(!Reg::Int(3).is_fp());
    }
}
