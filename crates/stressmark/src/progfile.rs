//! The `.prog` text format: lossless save/load for programs.
//!
//! NASM output is one-way (the abstract behaviours — toggle factors,
//! miss periods, mispredict periods — don't survive assembly), so
//! generated stressmarks are archived in a small line-oriented format
//! that round-trips exactly. One instruction per line:
//!
//! ```text
//! # name: A-Res-4T
//! simdfma f0 f12 f13 t=1.00
//! iadd    r1 r8  r9  t=1.00
//! load    r2 r14 r15 t=0.50 memmiss=3
//! branch  -  r0  r1  t=1.00 mispredict=12
//! nop
//! ```

use std::fmt::Write as _;

use audit_cpu::{BranchBehavior, Inst, MemBehavior, Opcode, Program, Reg};
use audit_error::AuditError;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for AuditError {
    fn from(e: ParseError) -> Self {
        AuditError::parse(e.line, e.message)
    }
}

/// Byte span of one body instruction in its `.prog` source text:
/// exactly the instruction's own characters (leading indentation and
/// the line terminator excluded), so `&text[span.start..span.end]` is
/// the instruction as written. This is what lets diagnostics from
/// `audit-analyze` (which carry body indices) be rendered against the
/// original source by editors and `lint --json` consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// Byte offset of the instruction's first character.
    pub start: usize,
    /// Byte offset one past the instruction's last character.
    pub end: usize,
}

fn keyword(op: Opcode) -> &'static str {
    match op {
        Opcode::Nop => "nop",
        Opcode::MovImm => "movimm",
        Opcode::IAdd => "iadd",
        Opcode::ISub => "isub",
        Opcode::IXor => "ixor",
        Opcode::Lea => "lea",
        Opcode::IMul => "imul",
        Opcode::IDiv => "idiv",
        Opcode::Load => "load",
        Opcode::Store => "store",
        Opcode::Branch => "branch",
        Opcode::FAdd => "fadd",
        Opcode::FMul => "fmul",
        Opcode::Fma => "fma",
        Opcode::FDiv => "fdiv",
        Opcode::SimdIAdd => "simdiadd",
        Opcode::SimdFMul => "simdfmul",
        Opcode::SimdFma => "simdfma",
        Opcode::SimdShuffle => "simdshuffle",
    }
}

fn opcode_from(word: &str) -> Option<Opcode> {
    Opcode::ALL.into_iter().find(|op| keyword(*op) == word)
}

fn reg_token(r: Option<Reg>) -> String {
    match r {
        None => "-".to_string(),
        Some(Reg::Int(i)) => format!("r{i}"),
        Some(Reg::Fp(i)) => format!("f{i}"),
    }
}

fn reg_from(token: &str) -> Result<Option<Reg>, String> {
    if token == "-" {
        return Ok(None);
    }
    let (kind, idx) = token.split_at(1);
    let idx: u8 = idx.parse().map_err(|_| format!("bad register `{token}`"))?;
    match kind {
        "r" => Ok(Some(Reg::Int(idx))),
        "f" => Ok(Some(Reg::Fp(idx))),
        _ => Err(format!("bad register `{token}`")),
    }
}

/// Serializes a program.
pub fn emit(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# name: {}", program.name());
    for inst in program.body() {
        if inst.opcode.is_nop() {
            out.push_str("nop\n");
            continue;
        }
        let _ = write!(
            out,
            "{} {} {} {} t={:.2}",
            keyword(inst.opcode),
            reg_token(inst.dst),
            reg_token(inst.srcs[0]),
            reg_token(inst.srcs[1]),
            inst.toggle
        );
        match inst.mem {
            MemBehavior::L1Hit => {}
            MemBehavior::L2MissEvery { period } => {
                let _ = write!(out, " l2miss={period}");
            }
            MemBehavior::MemMissEvery { period } => {
                let _ = write!(out, " memmiss={period}");
            }
            MemBehavior::Strided {
                stride_bytes,
                footprint_bytes,
            } => {
                let _ = write!(out, " stride={stride_bytes} footprint={footprint_bytes}");
            }
        }
        if let BranchBehavior::MispredictEvery { period } = inst.branch {
            let _ = write!(out, " mispredict={period}");
        }
        out.push('\n');
    }
    out
}

/// Parses a program emitted by [`emit`].
///
/// # Errors
///
/// Returns [`ParseError`] locating the first malformed line.
pub fn parse(text: &str) -> Result<Program, ParseError> {
    parse_spanned(text).map(|(program, _)| program)
}

/// Parses a program and returns, for each instruction of the body, the
/// [`Span`] of the source it came from.
///
/// # Errors
///
/// Returns [`ParseError`] locating the first malformed line.
pub fn parse_spanned(text: &str) -> Result<(Program, Vec<Span>), ParseError> {
    let mut name = "unnamed".to_string();
    let mut body = Vec::new();
    let mut spans = Vec::new();
    let mut pos = 0usize;
    for (idx, full) in text.split('\n').enumerate() {
        let line_no = idx + 1;
        let line_start = pos;
        pos += full.len() + 1;
        let err = |message: String| ParseError {
            line: line_no,
            message,
        };
        let raw = full.strip_suffix('\r').unwrap_or(full);
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        // The instruction's own bytes: indentation and trailing
        // whitespace trimmed off, offsets into the original text.
        let start = line_start + (raw.len() - raw.trim_start().len());
        let span = Span {
            line: line_no,
            start,
            end: start + line.len(),
        };
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("name:") {
                name = n.trim().to_string();
            }
            continue;
        }
        let mut words = line.split_whitespace();
        let op_word = words.next().expect("non-empty line");
        let opcode =
            opcode_from(op_word).ok_or_else(|| err(format!("unknown opcode `{op_word}`")))?;
        if opcode.is_nop() {
            body.push(Inst::new(Opcode::Nop));
            spans.push(span);
            continue;
        }
        let dst = reg_from(words.next().ok_or_else(|| err("missing dst".into()))?).map_err(&err)?;
        let s0 = reg_from(words.next().ok_or_else(|| err("missing src1".into()))?).map_err(&err)?;
        let s1 = reg_from(words.next().ok_or_else(|| err("missing src2".into()))?).map_err(&err)?;

        let mut inst = Inst::new(opcode);
        inst.dst = dst;
        inst.srcs = [s0, s1];
        for attr in words {
            let (key, value) = attr
                .split_once('=')
                .ok_or_else(|| err(format!("bad attribute `{attr}`")))?;
            match key {
                "t" => {
                    inst.toggle = value
                        .parse()
                        .map_err(|_| err(format!("bad toggle `{value}`")))?;
                }
                "l2miss" => {
                    let period = value
                        .parse()
                        .map_err(|_| err(format!("bad period `{value}`")))?;
                    inst.mem = MemBehavior::L2MissEvery { period };
                }
                "memmiss" => {
                    let period = value
                        .parse()
                        .map_err(|_| err(format!("bad period `{value}`")))?;
                    inst.mem = MemBehavior::MemMissEvery { period };
                }
                "stride" => {
                    let stride_bytes = value
                        .parse()
                        .map_err(|_| err(format!("bad stride `{value}`")))?;
                    let footprint_bytes = match inst.mem {
                        MemBehavior::Strided {
                            footprint_bytes, ..
                        } => footprint_bytes,
                        _ => 0,
                    };
                    inst.mem = MemBehavior::Strided {
                        stride_bytes,
                        footprint_bytes,
                    };
                }
                "footprint" => {
                    let footprint_bytes = value
                        .parse()
                        .map_err(|_| err(format!("bad footprint `{value}`")))?;
                    let stride_bytes = match inst.mem {
                        MemBehavior::Strided { stride_bytes, .. } => stride_bytes,
                        _ => 0,
                    };
                    inst.mem = MemBehavior::Strided {
                        stride_bytes,
                        footprint_bytes,
                    };
                }
                "mispredict" => {
                    let period = value
                        .parse()
                        .map_err(|_| err(format!("bad period `{value}`")))?;
                    inst.branch = BranchBehavior::MispredictEvery { period };
                }
                other => return Err(err(format!("unknown attribute `{other}`"))),
            }
        }
        body.push(inst);
        spans.push(span);
    }
    if body.is_empty() {
        return Err(ParseError {
            line: 1,
            message: "program has no instructions".into(),
        });
    }
    Ok((Program::new(name, body), spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manual;

    #[test]
    fn manual_stressmarks_round_trip() {
        for original in [
            manual::sm1(),
            manual::sm2(),
            manual::sm_res(),
            manual::barrier_burst(),
        ] {
            let text = emit(&original);
            let back = parse(&text).unwrap();
            assert_eq!(back, original, "{} did not round-trip", original.name());
        }
    }

    #[test]
    fn name_survives() {
        let p = Program::new("my-mark", vec![Inst::new(Opcode::Nop)]);
        assert_eq!(parse(&emit(&p)).unwrap().name(), "my-mark");
    }

    #[test]
    fn toggle_quantization_is_the_only_loss() {
        // Toggle is stored at 2 decimals; everything else is exact.
        let p = Program::new(
            "t",
            vec![Inst::new(Opcode::FMul)
                .fp_dst(3)
                .fp_srcs(8, 9)
                .toggle(0.505)],
        );
        let back = parse(&emit(&p)).unwrap();
        assert!((back.body()[0].toggle - 0.5).abs() < 0.011);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse("# name: x\nnop\nwarp r0 r1 r2 t=1.0\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("warp"));

        let err = parse("iadd r0 r1\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = parse("iadd r0 r1 r2 t=abc\n").unwrap_err();
        assert!(err.message.contains("toggle"));
    }

    #[test]
    fn empty_program_is_rejected() {
        assert!(parse("# name: empty\n").is_err());
    }

    #[test]
    fn spans_map_instructions_to_source_lines() {
        let text =
            "# name: spans\n\nnop\n# comment\niadd r0 r8 r9 t=1.00\n\nstore - r0 r9 t=1.00\n";
        let (program, spans) = parse_spanned(text).unwrap();
        assert_eq!(program.len(), 3);
        assert_eq!(spans.iter().map(|s| s.line).collect::<Vec<_>>(), [3, 5, 7]);
        // Byte offsets slice the original text back to the instruction.
        assert_eq!(&text[spans[0].start..spans[0].end], "nop");
        assert_eq!(&text[spans[1].start..spans[1].end], "iadd r0 r8 r9 t=1.00");
        assert_eq!(&text[spans[2].start..spans[2].end], "store - r0 r9 t=1.00");
    }

    #[test]
    fn spans_exclude_indentation_and_crlf() {
        let text = "# name: ws\r\n  nop  \r\n\tiadd r0 r8 r9 t=1.00\r\n";
        let (program, spans) = parse_spanned(text).unwrap();
        assert_eq!(program.len(), 2);
        assert_eq!(&text[spans[0].start..spans[0].end], "nop");
        assert_eq!(&text[spans[1].start..spans[1].end], "iadd r0 r8 r9 t=1.00");
        assert_eq!(spans[1].line, 3);
    }

    #[test]
    fn try_parse_converts_to_audit_error() {
        let err = AuditError::from(parse("warp r0 r1 r2\n").unwrap_err());
        assert_eq!(
            err,
            AuditError::parse(1, "unknown opcode `warp`".to_string())
        );
    }

    #[test]
    fn behaviours_round_trip() {
        let p = Program::new(
            "b",
            vec![
                Inst::new(Opcode::Load)
                    .int_dst(1)
                    .int_srcs(12, 13)
                    .mem(MemBehavior::MemMissEvery { period: 3 }),
                Inst::new(Opcode::Branch).branch(BranchBehavior::MispredictEvery { period: 12 }),
            ],
        );
        let back = parse(&emit(&p)).unwrap();
        assert_eq!(back.body()[0].mem, MemBehavior::MemMissEvery { period: 3 });
        assert_eq!(
            back.body()[1].branch,
            BranchBehavior::MispredictEvery { period: 12 }
        );
    }
}
