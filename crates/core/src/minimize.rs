//! Crash-tolerant witness minimization (the `audit minimize` verb).
//!
//! An evolved stressmark wins by droop, not by legibility: the GA's
//! winning loop body is an opaque blob in which the instructions that
//! *cause* the resonance are interleaved with freeloaders. This module
//! drives [`audit_analyze::minimize::ddmin`] against the full
//! simulator to strip the freeloaders: the minimized kernel is the
//! 1-minimal instruction subset that still retains at least
//! [`MinimizeSearch::retain`] of the full program's peak droop — a
//! witness small enough to read, check in, and re-lint as a regression
//! corpus.
//!
//! Every probe is journaled write-ahead (`minimize_step … pending`
//! before the simulation, the terminal `passed`/`failed` record with
//! the measured droop after), the same discipline as the Vmin search
//! in [`crate::resilient`]. The baseline measurement is journaled as a
//! `minimize_baseline` phase. A killed minimization therefore resumes
//! from its journal: `ddmin`'s probe sequence is a pure function of
//! the body length and the oracle's verdicts, so
//! [`MinimizeSearch::resume_from`] replays settled probes bit-exactly
//! (cross-checking each step's subset content key) and continues live
//! from the first unsettled one.

use std::collections::HashMap;

use audit_analyze::minimize::ddmin;
use audit_cpu::Program;
use audit_measure::codec;
use audit_measure::fault::KeyHasher;
use audit_measure::json::Codec;

use crate::codec::resume_error;
use crate::harness::{MeasureSpec, Rig};
use crate::journal::{Journal, JournalRecord, JournalSink, VminOutcome};
use audit_error::{AuditError, AuditResult};

/// Journal phase name bracketing the baseline droop measurement.
const BASELINE_PHASE: &str = "minimize_baseline";

/// Content key of a candidate subset: an FNV-1a fold of the kept
/// indices *and* the instructions at them (name, opcode, operands).
/// Resume cross-checks it, so a journal from a different program or a
/// diverged `ddmin` is rejected instead of silently replayed.
fn subset_key(program: &Program, kept: &[usize]) -> u64 {
    let body = program.body();
    let mut h = KeyHasher::new();
    h.write_bytes(program.name().as_bytes());
    for &i in kept {
        h.write_u64(i as u64);
        let inst = &body[i];
        h.write_bytes(inst.opcode.name().as_bytes());
        if let Some(d) = inst.dst {
            h.write_u64(u64::from(d.index()) | if d.is_fp() { 1 << 8 } else { 0 });
        }
        for s in inst.srcs.iter().flatten() {
            h.write_u64(u64::from(s.index()) | if s.is_fp() { 1 << 8 } else { 0 });
        }
    }
    h.finish()
}

/// The delta-debugging witness minimizer.
///
/// Oracle: a candidate subset is *interesting* when its peak droop
/// (measured by replicating the candidate across `threads` cores, the
/// same alignment as fitness evaluation) is at least
/// `retain × baseline`. The result is 1-minimal — dropping any single
/// surviving instruction loses the property.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinimizeSearch {
    /// Fraction of the full program's peak droop the minimized kernel
    /// must retain, in `(0, 1]`.
    pub retain: f64,
    /// Copies of the candidate run in lockstep, one per core (match
    /// the fitness spec the witness was evolved under).
    pub threads: usize,
    /// Measurement window for every probe and the baseline.
    pub spec: MeasureSpec,
}

impl MinimizeSearch {
    /// A search with the default droop-retention knob (90 %).
    pub fn new(threads: usize, spec: MeasureSpec) -> Self {
        MinimizeSearch {
            retain: 0.9,
            threads,
            spec,
        }
    }

    /// Validates the retention knob and thread count.
    ///
    /// # Errors
    ///
    /// [`AuditError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> AuditResult<()> {
        if !self.retain.is_finite() || self.retain <= 0.0 || self.retain > 1.0 {
            return Err(AuditError::invalid(
                "MinimizeSearch",
                "retain",
                "must be a finite fraction in (0, 1]",
            ));
        }
        if self.threads == 0 {
            return Err(AuditError::invalid(
                "MinimizeSearch",
                "threads",
                "must run at least one copy",
            ));
        }
        Ok(())
    }

    /// Minimizes `program` from scratch, journaling the baseline and
    /// every probe to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates journal-append failures and validation errors. A
    /// program the rig cannot run is refused before anything is
    /// journaled, as by [`crate::resilient::VminSearch::run`].
    pub fn run(
        &self,
        rig: &Rig,
        program: &Program,
        sink: &mut dyn JournalSink,
    ) -> AuditResult<MinimizeResult> {
        self.drive(rig, program, sink, &Replay::default())
    }

    /// Resumes a killed minimization from its journal: the baseline
    /// and every terminal `minimize_step` are replayed without
    /// re-simulation, and the first unsettled probe runs live. New
    /// records append to the same `sink`.
    ///
    /// # Errors
    ///
    /// [`AuditError::Resume`] if the baseline payload does not decode,
    /// or if a journaled step disagrees with the
    /// candidate subset this search derives at that step (the journal
    /// belongs to a different program or configuration); otherwise as
    /// [`MinimizeSearch::run`].
    pub fn resume_from(
        &self,
        journal: &Journal,
        rig: &Rig,
        program: &Program,
        sink: &mut dyn JournalSink,
    ) -> AuditResult<MinimizeResult> {
        let mut replay = Replay::default();
        for rec in &journal.records {
            match rec {
                JournalRecord::PhaseEnd { name, payload } if name == BASELINE_PHASE => {
                    let baseline = Baseline::decode(payload).map_err(resume_error)?;
                    replay.baseline = Some(baseline.droop);
                }
                JournalRecord::MinimizeStep {
                    step,
                    kept,
                    key,
                    outcome,
                    droop: Some(droop),
                } if outcome.is_terminal() => {
                    replay.steps.insert(
                        *step,
                        SettledStep {
                            key: *key,
                            kept: *kept,
                            passed: *outcome == VminOutcome::Passed,
                            droop: *droop,
                        },
                    );
                }
                _ => {}
            }
        }
        self.drive(rig, program, sink, &replay)
    }

    /// The shared driver: `ddmin` over the loop body, each probe
    /// either replayed from the journal or simulated live.
    fn drive(
        &self,
        rig: &Rig,
        program: &Program,
        sink: &mut dyn JournalSink,
        replay: &Replay,
    ) -> AuditResult<MinimizeResult> {
        self.validate()?;
        // Refuse a program the rig cannot run before the first record.
        rig.chip_sim(&vec![program.clone(); self.threads], &vec![0; self.threads])?;
        let body = program.body();
        let baseline = match replay.baseline {
            Some(d) => d,
            None => {
                sink.append(&JournalRecord::PhaseStart {
                    name: BASELINE_PHASE.into(),
                })?;
                let d = self.droop_of(rig, program);
                sink.append(&JournalRecord::PhaseEnd {
                    name: BASELINE_PHASE.into(),
                    payload: Baseline { droop: d }.encode(),
                })?;
                d
            }
        };
        let threshold = self.retain * baseline;
        let mut live_steps = 0u64;
        // The full set is never probed, so it anchors the accepted
        // droop until a strict subset first passes.
        let mut droop = baseline;
        let outcome = ddmin(body.len(), |step, cand| -> AuditResult<bool> {
            let key = subset_key(program, cand);
            let kept = cand.len() as u64;
            if let Some(settled) = replay.steps.get(&step) {
                if settled.key != key || settled.kept != kept {
                    return Err(AuditError::resume(format!(
                        "journal probed a different candidate at minimize step {step} \
                         ({} insts, key {:#x}; this search derives {kept} insts, key {key:#x}) \
                         — different program or configuration",
                        settled.kept, settled.key,
                    )));
                }
                if settled.passed {
                    droop = settled.droop;
                }
                return Ok(settled.passed);
            }
            live_steps += 1;
            sink.append(&JournalRecord::MinimizeStep {
                step,
                kept,
                key,
                outcome: VminOutcome::Pending,
                droop: None,
            })?;
            let candidate = subset_program(program, cand);
            let measured = self.droop_of(rig, &candidate);
            let passed = measured >= threshold;
            sink.append(&JournalRecord::MinimizeStep {
                step,
                kept,
                key,
                outcome: if passed {
                    VminOutcome::Passed
                } else {
                    VminOutcome::Failed
                },
                droop: Some(measured),
            })?;
            if passed {
                droop = measured;
            }
            Ok(passed)
        })?;
        let minimized = subset_program(program, &outcome.keep);
        Ok(MinimizeResult {
            program: minimized,
            baseline,
            droop,
            kept: outcome.keep,
            steps: outcome.tests,
            live_steps,
        })
    }

    /// Peak droop of one candidate: `threads` aligned copies, same
    /// harness path as fitness evaluation.
    fn droop_of(&self, rig: &Rig, program: &Program) -> f64 {
        rig.measure_aligned(&vec![program.clone(); self.threads], self.spec)
            .max_droop()
    }
}

/// One journaled terminal probe, keyed by step for replay.
struct SettledStep {
    key: u64,
    kept: u64,
    passed: bool,
    droop: f64,
}

/// The baseline phase's payload: the full program's droop.
struct Baseline {
    droop: f64,
}

codec! {
    record Baseline "minimize baseline" { droop, }
}

/// Everything a resumed search replays instead of re-measuring.
#[derive(Default)]
struct Replay {
    baseline: Option<f64>,
    steps: HashMap<u64, SettledStep>,
}

/// Lowers a kept index set back to a runnable program, preserving the
/// original name and instruction order.
fn subset_program(program: &Program, kept: &[usize]) -> Program {
    let body = program.body();
    Program::new(program.name(), kept.iter().map(|&i| body[i]).collect())
}

/// Result of a [`MinimizeSearch`].
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizeResult {
    /// The minimized kernel: the surviving instructions, in original
    /// order, under the original program name.
    pub program: Program,
    /// Peak droop of the full program, in volts.
    pub baseline: f64,
    /// Peak droop of the minimized kernel, in volts (equals `baseline`
    /// when nothing could be removed).
    pub droop: f64,
    /// Surviving indices into the original loop body, ascending.
    pub kept: Vec<usize>,
    /// `ddmin` probes settled in total (replayed + live).
    pub steps: u64,
    /// Probes actually simulated by this process (a fresh run measures
    /// every step; a resumed run only the unsettled tail).
    pub live_steps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Rig;
    use crate::journal::MemJournal;
    use audit_cpu::{Inst, Opcode};

    fn rig() -> Rig {
        Rig::bulldozer()
    }

    /// A witness with an obviously load-bearing resonant core (dense
    /// FMAs) padded by NOPs that contribute nothing.
    fn padded_witness() -> Program {
        let mut body = Vec::new();
        for i in 0..8 {
            body.push(
                Inst::new(Opcode::SimdFma)
                    .fp_dst(i % 4)
                    .fp_srcs(12, 13)
                    .toggle(1.0),
            );
        }
        for _ in 0..8 {
            body.push(Inst::new(Opcode::Nop));
        }
        Program::new("padded", body)
    }

    fn search() -> MinimizeSearch {
        MinimizeSearch::new(2, MeasureSpec::ga_eval())
    }

    #[test]
    fn minimize_strips_freeloaders_and_retains_droop() {
        let mut sink = MemJournal::default();
        let out = search().run(&rig(), &padded_witness(), &mut sink).unwrap();
        assert!(
            out.program.len() < padded_witness().len(),
            "nothing was removed"
        );
        assert!(out.droop >= 0.9 * out.baseline);
        assert_eq!(out.steps, out.live_steps);
        // The kept indices lower back to exactly the minimized body.
        assert_eq!(out.kept.len(), out.program.len());
    }

    #[test]
    fn journal_follows_the_write_ahead_discipline() {
        let mut sink = MemJournal::default();
        let out = search().run(&rig(), &padded_witness(), &mut sink).unwrap();
        let steps: Vec<&JournalRecord> = sink
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::MinimizeStep { .. }))
            .collect();
        // Each probe writes exactly two records: pending then terminal.
        assert_eq!(steps.len() as u64, 2 * out.steps);
        for pair in steps.chunks(2) {
            let (
                JournalRecord::MinimizeStep {
                    step: s0,
                    key: k0,
                    outcome: o0,
                    droop: d0,
                    ..
                },
                JournalRecord::MinimizeStep {
                    step: s1,
                    key: k1,
                    outcome: o1,
                    droop: d1,
                    ..
                },
            ) = (pair[0], pair[1])
            else {
                unreachable!("filtered to minimize_step");
            };
            assert_eq!(s0, s1);
            assert_eq!(k0, k1);
            assert_eq!(*o0, VminOutcome::Pending);
            assert!(d0.is_none());
            assert!(o1.is_terminal());
            assert!(d1.is_some());
        }
    }

    #[test]
    fn resume_replays_settled_probes_bit_identically() {
        let program = padded_witness();
        let mut full = MemJournal::default();
        let reference = search().run(&rig(), &program, &mut full).unwrap();

        // Kill after the third terminal probe: keep the journal prefix
        // up to and including that record, plus the baseline phase.
        let mut terminal = 0;
        let mut prefix = MemJournal::default();
        for rec in &full.records {
            prefix.append(rec).unwrap();
            if let JournalRecord::MinimizeStep { outcome, .. } = rec {
                if outcome.is_terminal() {
                    terminal += 1;
                    if terminal == 3 {
                        break;
                    }
                }
            }
        }
        let journal = prefix.as_journal();
        let mut resumed_sink = MemJournal::default();
        let resumed = search()
            .resume_from(&journal, &rig(), &program, &mut resumed_sink)
            .unwrap();
        // Identical outcome, except the resumed run simulated only the
        // unsettled tail.
        assert_eq!(resumed.program, reference.program);
        assert_eq!(resumed.kept, reference.kept);
        assert_eq!(resumed.steps, reference.steps);
        assert_eq!(resumed.baseline.to_bits(), reference.baseline.to_bits());
        assert_eq!(resumed.droop.to_bits(), reference.droop.to_bits());
        assert!(resumed.live_steps < reference.live_steps);
        // Prefix + resumed tail reproduces the uninterrupted journal.
        let mut stitched = journal.records;
        stitched.extend(resumed_sink.records.iter().cloned());
        assert_eq!(stitched, full.records);
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let program = padded_witness();
        let mut full = MemJournal::default();
        search().run(&rig(), &program, &mut full).unwrap();
        let journal = full.as_journal();
        // Same length, different body: the subset keys cannot match.
        let other = Program::new(
            "other",
            (0..program.len())
                .map(|i| {
                    Inst::new(Opcode::IAdd)
                        .int_dst((i % 4) as u8)
                        .int_srcs(12, 13)
                })
                .collect(),
        );
        let err = search()
            .resume_from(&journal, &rig(), &other, &mut MemJournal::default())
            .unwrap_err();
        assert!(matches!(err, AuditError::Resume { .. }));
    }

    #[test]
    fn retention_knob_is_validated() {
        let mut s = search();
        s.retain = 0.0;
        assert!(s.validate().is_err());
        s.retain = 1.5;
        assert!(s.validate().is_err());
        s.retain = f64::NAN;
        assert!(s.validate().is_err());
        s.retain = 1.0;
        s.threads = 0;
        assert!(s.validate().is_err());
    }
}
