//! NASM assembly emission.
//!
//! The paper's code generator emits NASM-format x86-64 assembly and
//! assembles it with NASM 2.09 (§4). This module reproduces that last
//! stage: a [`Program`] is rendered as a self-contained NASM source file
//! with register initialization (the alternating data values that
//! maximize operand toggling, §3), the stress loop, and a bounded
//! iteration count.

use std::fmt::Write as _;

use audit_analyze::{Severity, VerifyTarget};
use audit_cpu::{Inst, Opcode, Program, Reg};
use audit_error::AuditError;

/// Data pattern pairs used to initialize registers: alternating
/// complementary values guarantee maximal bit toggling between
/// consecutive operations on the same functional unit (paper §3).
pub const TOGGLE_PATTERNS: [(u64, u64); 2] = [
    (0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA),
    (0x3333_3333_3333_3333, 0xCCCC_CCCC_CCCC_CCCC),
];

/// Renders a program as NASM-syntax x86-64 assembly.
///
/// The output is a complete translation unit: data section with toggle
/// patterns, register initialization, the stress loop with a 64-bit
/// iteration counter, and a clean exit.
///
/// # Example
///
/// ```
/// use audit_cpu::{Inst, Opcode, Program};
/// use audit_stressmark::nasm::emit;
///
/// let p = Program::new("demo", vec![Inst::new(Opcode::IAdd).int_dst(0).int_srcs(1, 2)]);
/// let asm = emit(&p, 1_000_000);
/// assert!(asm.contains("section .text"));
/// assert!(asm.contains("add rax, rbx"));
/// ```
///
/// # Panics
///
/// Panics if the program fails structural verification.
pub fn emit(program: &Program, iterations: u64) -> String {
    try_emit(program, iterations).expect("program failed structural verification")
}

/// Fallible form of [`emit`]: runs the structural verifier first and
/// refuses to render a program with verification errors, so a bad deck
/// can never reach the assembler.
///
/// The verification target matches what the emitted preamble actually
/// provides: every integer and media register initialized with a toggle
/// pattern, and the full opcode set (chip capability checks like
/// AUD003 belong to [`VerifyTarget::for_chip`], not to emission — NASM
/// will happily assemble FMA4 forms).
pub(crate) fn try_emit(program: &Program, iterations: u64) -> Result<String, AuditError> {
    let target = VerifyTarget::permissive();
    let errors: Vec<String> = audit_analyze::verify(program, &target)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    if !errors.is_empty() {
        return Err(AuditError::invalid(
            "nasm::try_emit",
            "program",
            format!(
                "`{}` failed structural verification: {}",
                program.name(),
                errors.join("; ")
            ),
        ));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "; {} — generated by the AUDIT reproduction",
        program.name()
    );
    let _ = writeln!(out, "; {} instructions per loop iteration", program.len());
    out.push_str("BITS 64\n\nsection .data align=16\n");
    for (i, (a, b)) in TOGGLE_PATTERNS.iter().enumerate() {
        let _ = writeln!(out, "pat{i}:  dq 0x{a:016X}, 0x{b:016X}");
    }
    let _ = writeln!(out, "counter: dq {iterations}");
    out.push_str("buf:   times 4096 db 0\n\nsection .text\nglobal _start\n_start:\n");
    // Register initialization: every architectural register in both
    // files gets a toggle pattern, so no instruction the verifier
    // accepts can read uninitialized state. The loop counter lives in
    // memory and loads/stores address `buf` RIP-relatively, so no GPR
    // is reserved — even rsp is just another toggle register here (the
    // loop never touches the stack and exits via syscall).
    for r in 0..16 {
        let _ = writeln!(
            out,
            "    mov {}, 0x{:016X}",
            Reg::Int(r).name(),
            TOGGLE_PATTERNS[r as usize % 2].0
        );
    }
    for r in 0..16 {
        let _ = writeln!(out, "    movdqa {}, [rel pat{}]", Reg::Fp(r).name(), r % 2);
    }
    out.push_str(".loop:\n");
    for inst in program.body() {
        let _ = writeln!(out, "    {}", format_inst(inst));
    }
    out.push_str("    dec qword [rel counter]\n    jnz .loop\n");
    out.push_str("    mov rax, 60\n    xor rdi, rdi\n    syscall\n");
    Ok(out)
}

/// Formats one instruction as a NASM line.
pub fn format_inst(inst: &Inst) -> String {
    let m = inst.opcode.mnemonic();
    let dst = inst.dst.map(Reg::name);
    let s0 = inst.srcs[0].map(Reg::name);
    let s1 = inst.srcs[1].map(Reg::name);
    match inst.opcode {
        Opcode::Nop => "nop".to_string(),
        Opcode::MovImm => format!("{m} {}, 0x5555AAAA", dst.unwrap_or_else(|| "rax".into())),
        Opcode::IAdd | Opcode::ISub | Opcode::IXor => format!(
            "{m} {}, {}",
            dst.unwrap_or_else(|| "rax".into()),
            s0.unwrap_or_else(|| "rbx".into())
        ),
        Opcode::Lea => format!(
            "{m} {}, [{} + {}*2]",
            dst.unwrap_or_else(|| "rax".into()),
            s0.unwrap_or_else(|| "rbx".into()),
            s1.unwrap_or_else(|| "rcx".into())
        ),
        Opcode::IMul => format!(
            "{m} {}, {}",
            dst.unwrap_or_else(|| "rax".into()),
            s0.unwrap_or_else(|| "rbx".into())
        ),
        // idiv has implicit rdx:rax operands in x86-64.
        Opcode::IDiv => format!("{m} {}", s0.unwrap_or_else(|| "rbx".into())),
        Opcode::Load => format!("{m} {}, [rel buf]", dst.unwrap_or_else(|| "rax".into())),
        Opcode::Store => format!("{m} [rel buf], {}", s0.unwrap_or_else(|| "rax".into())),
        Opcode::Branch => "jnz .loop_probe".to_string(),
        Opcode::FAdd | Opcode::FMul | Opcode::FDiv => format!(
            "{m} {}, {}",
            dst.unwrap_or_else(|| "xmm0".into()),
            s0.unwrap_or_else(|| "xmm1".into())
        ),
        // FMA4 form: dst = src1 * src2 + dst.
        Opcode::Fma | Opcode::SimdFma => {
            let d = dst.unwrap_or_else(|| "xmm0".into());
            format!(
                "{m} {d}, {}, {}, {d}",
                s0.unwrap_or_else(|| "xmm1".into()),
                s1.unwrap_or_else(|| "xmm2".into())
            )
        }
        Opcode::SimdIAdd | Opcode::SimdFMul => format!(
            "{m} {}, {}",
            dst.unwrap_or_else(|| "xmm0".into()),
            s0.unwrap_or_else(|| "xmm1".into())
        ),
        Opcode::SimdShuffle => format!(
            "{m} {}, {}, 0x1B",
            dst.unwrap_or_else(|| "xmm0".into()),
            s0.unwrap_or_else(|| "xmm1".into())
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_cpu::Inst;

    fn demo_program() -> Program {
        Program::new(
            "demo",
            vec![
                Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(8, 9),
                Inst::new(Opcode::IAdd).int_dst(1).int_srcs(8, 9),
                Inst::new(Opcode::Load).int_dst(2).int_srcs(14, 15),
                Inst::new(Opcode::Store).int_srcs(1, 0),
                Inst::new(Opcode::Nop),
            ],
        )
    }

    #[test]
    fn emits_complete_translation_unit() {
        let asm = emit(&demo_program(), 42);
        for needle in [
            "BITS 64",
            "section .data",
            "section .text",
            "global _start",
            ".loop:",
            "dec qword [rel counter]",
            "jnz .loop",
            "counter: dq 42",
            "syscall",
        ] {
            assert!(asm.contains(needle), "missing `{needle}` in:\n{asm}");
        }
    }

    #[test]
    fn body_instructions_appear_in_order() {
        let asm = emit(&demo_program(), 1);
        let loop_start = asm.find(".loop:").expect("loop label");
        let fma = asm[loop_start..].find("vfmaddpd").expect("fma missing");
        let add = asm[loop_start..].find("add r").expect("add missing");
        let load = asm[loop_start..].find(", [rel buf]").expect("load missing");
        assert!(fma < add && add < load);
    }

    #[test]
    fn preamble_initializes_every_register() {
        let asm = emit(&demo_program(), 1);
        let preamble = &asm[..asm.find(".loop:").expect("loop label")];
        for r in 0..16u8 {
            let int_init = format!("mov {}, 0x", Reg::Int(r).name());
            assert!(preamble.contains(&int_init), "missing `{int_init}`");
            let fp_init = format!("movdqa {}, [rel pat", Reg::Fp(r).name());
            assert!(preamble.contains(&fp_init), "missing `{fp_init}`");
        }
    }

    #[test]
    fn no_register_is_reserved_by_the_scaffold() {
        // The loop counter lives in memory and loads/stores address
        // `buf` RIP-relatively, so a program may clobber any GPR —
        // including the old counter (rcx) and base pointers (rsi/rdi).
        let p = Program::new(
            "clobber",
            vec![
                Inst::new(Opcode::MovImm).int_dst(2), // rcx
                Inst::new(Opcode::MovImm).int_dst(4), // rsi
                Inst::new(Opcode::MovImm).int_dst(5), // rdi
                Inst::new(Opcode::Load).int_dst(2).int_srcs(14, 15),
            ],
        );
        let asm = emit(&p, 7);
        assert!(asm.contains("counter: dq 7"));
        assert!(!asm.contains("mov rcx, 7"));
    }

    #[test]
    fn try_emit_refuses_unverified_programs() {
        // r20 is outside the register file (AUD002).
        let mut inst = Inst::new(Opcode::IAdd).int_dst(0).int_srcs(1, 2);
        inst.srcs[0] = Some(audit_cpu::Reg::Int(20));
        let p = Program::new("bad", vec![inst]);
        let err = try_emit(&p, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("AUD002"), "{msg}");
        assert!(msg.contains("bad"), "{msg}");
    }

    #[test]
    fn fma_uses_four_operand_form() {
        let line = format_inst(&Inst::new(Opcode::SimdFma).fp_dst(3).fp_srcs(8, 9));
        assert_eq!(line, "vfmaddpd xmm3, xmm8, xmm9, xmm3");
    }

    #[test]
    fn store_writes_memory_operand() {
        let line = format_inst(&Inst::new(Opcode::Store).int_srcs(4, 5));
        assert!(line.starts_with("mov [rel buf], "));
    }

    #[test]
    fn idiv_has_single_explicit_operand() {
        let line = format_inst(&Inst::new(Opcode::IDiv).int_dst(0).int_srcs(3, 4));
        assert_eq!(line, "idiv rdx");
    }

    #[test]
    fn toggle_patterns_are_complementary() {
        for (a, b) in TOGGLE_PATTERNS {
            assert_eq!(a ^ b, u64::MAX, "patterns must toggle every bit");
        }
    }

    #[test]
    fn every_opcode_formats() {
        for op in Opcode::ALL {
            let line = format_inst(&Inst::new(op));
            assert!(!line.is_empty());
            assert!(line.starts_with(op.mnemonic()));
        }
    }
}
