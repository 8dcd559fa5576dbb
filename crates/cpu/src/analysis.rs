//! Disassembly-style printing.
//!
//! Stressmark engineers read generated loops (paper §5.A.5 analyzes the
//! A-Res loop instruction by instruction); this module gives
//! instructions and programs a compact disassembly-style `Display`.
//! Static unit pressure lives in `audit_analyze::pressure`.

use std::fmt;

use crate::inst::{Inst, Program};
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

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_program() -> Program {
        Program::new(
            "mix",
            vec![
                Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(12, 13),
                Inst::new(Opcode::IAdd).int_dst(1).int_srcs(8, 9),
                Inst::new(Opcode::IAdd).int_dst(2).int_srcs(1, 9),
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
}
