//! Reusable fixpoint dataflow analyses over loop bodies.
//!
//! Both analyses here were born as ad-hoc scans inside individual
//! diagnostics: AUD001 walked its own running def set through the
//! `verify` module, and AUD101/AUD104 re-scanned the body circularly
//! once per instruction inside the `lints` module. This module hoists
//! them into the two classic dataflow problems they always were, so
//! new clients (the GA's lint-driven mutation repair, the witness
//! minimizer, future scheduling lints) can ask the same questions
//! without re-deriving the loop-edge subtleties:
//!
//! * [`Liveness`] — backward may-analysis over the *circular* control
//!   flow of a loop body (each instruction's unique successor is the
//!   next one, wrapping at the loop edge, because the body runs for
//!   millions of iterations). Liveness out of `i` answers "is the value
//!   instruction `i` writes ever read before being clobbered?" — the
//!   question AUD101 (dead value) and AUD104 (serializing divide) ask.
//! * `undefined_uses` — forward analysis over
//!   one *straight-line* pass of the body seeded from the emission
//!   preamble's def set: first-iteration semantics, the question
//!   AUD001 (use before def) asks.
//!
//! Liveness tracks the full `u8` register index space (not just the
//! architectural [`Reg::PER_FILE`] entries) so hand-written `.prog`
//! files naming out-of-file registers analyze exactly like the
//! historical per-instruction scans did; range violations stay
//! AUD002's business.

use audit_cpu::{Inst, Opcode, Reg};

use crate::verify::DefSet;

/// FMA-class ops read their destination as a third source
/// (`vfmaddpd d, s0, s1, d` in the emitter).
fn reads_dst(op: Opcode) -> bool {
    matches!(op, Opcode::Fma | Opcode::SimdFma)
}

/// Every register an instruction reads — its *use* set — in operand
/// order: sources first, then the destination for FMA-class ops, which
/// read it as the accumulator.
pub fn uses(inst: &Inst) -> impl Iterator<Item = Reg> + '_ {
    inst.srcs
        .iter()
        .flatten()
        .copied()
        .chain(inst.dst.filter(|_| reads_dst(inst.opcode)))
}

/// The register an instruction defines — its *def* set, at most one.
pub fn def(inst: &Inst) -> Option<Reg> {
    inst.dst
}

/// An exact register set over the full `u8` index space of both files.
///
/// [`DefSet`] deliberately stops at the architectural
/// [`Reg::PER_FILE`] entries and treats out-of-file indices as defined
/// (AUD002 reports those separately). Liveness has no such escape
/// hatch — a dead write to `r200` in a hand-written program must lint
/// exactly like a dead write to `r2` — so this set is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet {
    int: [u64; 4],
    fp: [u64; 4],
}

impl RegSet {
    /// The empty set.
    pub fn empty() -> Self {
        RegSet::default()
    }

    fn slot(reg: Reg) -> (usize, u64) {
        let i = reg.index();
        ((i / 64) as usize, 1u64 << (i % 64))
    }

    fn file(&mut self, reg: Reg) -> &mut [u64; 4] {
        if reg.is_fp() {
            &mut self.fp
        } else {
            &mut self.int
        }
    }

    /// Add `reg` to the set.
    pub fn insert(&mut self, reg: Reg) {
        let (w, bit) = Self::slot(reg);
        self.file(reg)[w] |= bit;
    }

    /// Remove `reg` from the set.
    pub fn remove(&mut self, reg: Reg) {
        let (w, bit) = Self::slot(reg);
        self.file(reg)[w] &= !bit;
    }

    /// Whether `reg` is in the set.
    pub fn contains(&self, reg: Reg) -> bool {
        let (w, bit) = Self::slot(reg);
        let file = if reg.is_fp() { &self.fp } else { &self.int };
        file[w] & bit != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.int.iter().chain(self.fp.iter()).all(|&w| w == 0)
    }
}

/// Fixpoint liveness over the circular control flow of a loop body.
///
/// Standard backward equations — `live_in(i) = uses(i) ∪ (live_out(i)
/// \ def(i))`, `live_out(i) = live_in((i + 1) mod n)` — iterated to a
/// fixpoint. Because every instruction both reads before it writes
/// (FMA accumulators) and has exactly one successor, the fixpoint
/// reproduces the historical "scan forward circularly, reads before
/// overwrites" walk bit for bit, while costing one analysis for the
/// whole body instead of one scan per instruction.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Computes liveness for `body` analyzed as a loop (the successor
    /// of the last instruction is the first).
    pub(crate) fn of_loop(body: &[Inst]) -> Self {
        let n = body.len();
        let mut live_in = vec![RegSet::empty(); n];
        let mut live_out = vec![RegSet::empty(); n];
        if n == 0 {
            return Liveness { live_out };
        }
        loop {
            let mut changed = false;
            for i in (0..n).rev() {
                let succ = live_in[(i + 1) % n];
                if live_out[i] != succ {
                    live_out[i] = succ;
                    changed = true;
                }
                let mut lin = live_out[i];
                if let Some(d) = def(&body[i]) {
                    lin.remove(d);
                }
                for r in uses(&body[i]) {
                    lin.insert(r);
                }
                if live_in[i] != lin {
                    live_in[i] = lin;
                    changed = true;
                }
            }
            if !changed {
                return Liveness { live_out };
            }
        }
    }

    /// Whether the value instruction `i` of `body` writes is consumed:
    /// its destination is live out of `i`. Instructions without a
    /// destination write no value and answer `false`.
    pub(crate) fn dst_is_live(&self, body: &[Inst], i: usize) -> bool {
        def(&body[i]).is_some_and(|d| self.live_out[i].contains(d))
    }
}

/// First-iteration use-before-def sites, in scan order: for each
/// instruction, each register it reads (in operand order) that neither
/// the preamble nor an earlier instruction defines. A flagged register
/// is treated as defined from then on, so one missing initialization
/// is reported once, not at every consumer — the verifier's historical
/// AUD001 cascade suppression, generalized.
pub(crate) fn undefined_uses(body: &[Inst], init: DefSet) -> Vec<(usize, Reg)> {
    let mut defined = init;
    let mut out = Vec::new();
    for (i, inst) in body.iter().enumerate() {
        for reg in uses(inst) {
            if !defined.contains(reg) {
                out.push((i, reg));
                defined.define(reg);
            }
        }
        if let Some(d) = def(inst) {
            defined.define(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liveness_sees_across_the_loop_edge() {
        // r0 written at the bottom, read at the top of the *next*
        // iteration: live out of instruction 1.
        let body = vec![
            Inst::new(Opcode::Store).int_srcs(0, 13),
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(12, 13),
        ];
        let live = Liveness::of_loop(&body);
        assert!(live.dst_is_live(&body, 1));
        assert!(live.live_out[1].contains(Reg::Int(0)));
    }

    #[test]
    fn overwrite_kills_liveness() {
        // Instruction 1 clobbers r0 before instruction 2 reads it, so
        // instruction 0's write is dead and instruction 1's is live.
        let body = vec![
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(12, 13),
            Inst::new(Opcode::IMul).int_dst(0).int_srcs(14, 15),
            Inst::new(Opcode::ISub).int_dst(1).int_srcs(0, 0),
        ];
        let live = Liveness::of_loop(&body);
        assert!(!live.dst_is_live(&body, 0));
        assert!(live.dst_is_live(&body, 1));
        assert!(!live.dst_is_live(&body, 2)); // r1 is read by nobody
    }

    #[test]
    fn fma_accumulator_keeps_its_own_dst_live() {
        // A lone FMA reads its destination as the accumulator, so the
        // value it writes is its own next-iteration input.
        let body = vec![Inst::new(Opcode::SimdFma).fp_dst(0).fp_srcs(1, 2)];
        let live = Liveness::of_loop(&body);
        assert!(live.dst_is_live(&body, 0));
        // A plain multiply in the same shape is self-clobbering.
        let mul = vec![Inst::new(Opcode::SimdFMul).fp_dst(0).fp_srcs(1, 2)];
        assert!(!Liveness::of_loop(&mul).dst_is_live(&mul, 0));
    }

    #[test]
    fn liveness_separates_register_files() {
        // Int r3 and media xmm3 share an index but not a live range.
        let body = vec![
            Inst::new(Opcode::IAdd).int_dst(3).int_srcs(12, 13),
            Inst::new(Opcode::SimdFMul).fp_dst(3).fp_srcs(3, 4),
        ];
        let live = Liveness::of_loop(&body);
        assert!(!live.dst_is_live(&body, 0));
        assert!(live.dst_is_live(&body, 1)); // xmm3 feeds itself next iter
    }

    #[test]
    fn regset_tracks_out_of_file_indices_exactly() {
        let mut s = RegSet::empty();
        assert!(s.is_empty());
        s.insert(Reg::Int(200));
        assert!(s.contains(Reg::Int(200)));
        assert!(!s.contains(Reg::Fp(200)));
        assert!(!s.contains(Reg::Int(201)));
        s.remove(Reg::Int(200));
        assert!(s.is_empty());
    }

    #[test]
    fn undefined_uses_report_each_register_once() {
        // r3 is read twice before any definition: one report, at the
        // first site, then suppressed.
        let body = vec![
            Inst::new(Opcode::IAdd).int_dst(0).int_srcs(3, 3),
            Inst::new(Opcode::ISub).int_dst(1).int_srcs(3, 0),
        ];
        let undef = undefined_uses(&body, DefSet::empty());
        assert_eq!(undef, vec![(0, Reg::Int(3))]);
    }

    #[test]
    fn undefined_uses_respect_the_preamble() {
        let body = vec![Inst::new(Opcode::IAdd).int_dst(0).int_srcs(3, 3)];
        assert!(undefined_uses(&body, DefSet::full()).is_empty());
        assert_eq!(
            undefined_uses(&body, DefSet::empty()),
            vec![(0, Reg::Int(3))]
        );
    }
}
