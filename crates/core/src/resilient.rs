//! The resilience layer: repeat-median measurement, bounded retry,
//! watchdog, quarantine, and the crash-tolerant Vmin search.
//!
//! On real silicon the paper's closed loop (Fig. 5) contends with noisy
//! scope captures, hung workloads, and — in the voltage-at-failure
//! methodology of §5.A.4 — deliberately crashed machines that must be
//! rebooted mid-search. This module is the production counterpart for
//! the simulator: a [`MeasurePolicy`] that wraps any harness evaluation
//! in repeat-k/median-of-k measurement with MAD outlier rejection,
//! bounded retry with deterministic backoff accounting, a cycle-budget
//! watchdog, and candidate quarantine; plus [`VminSearch`], a journaled
//! bisection for the voltage-at-failure point that survives being
//! killed at any instant and resumes bit-identically.
//!
//! # Determinism contract
//!
//! Every random decision is a pure function of the fault plan's seed,
//! the *evaluation key* (a content hash of the candidate or probe), and
//! the attempt index — never of thread scheduling or wall clock. As a
//! consequence:
//!
//! * a no-op policy ([`MeasurePolicy::is_noop`]) produces measurements
//!   bit-identical to the plain harness entry points,
//! * with faults enabled and a fixed seed, results are bit-identical
//!   across worker counts, and
//! * a [`VminSearch`] killed mid-bisection and resumed via
//!   [`VminSearch::resume_from`] reaches the same answer, because each
//!   probed voltage is journaled (`vmin_step`, write-ahead) and replayed
//!   steps skip re-measurement while re-probed steps redraw the exact
//!   fault schedule they would have seen uninterrupted.
//!
//! The distributed layer applies the same contract one level up: the
//! `audit-net` broker's network fault injection (`NetFaultPlan`) and
//! its defenses (dispatch leases, cross-validation, eviction) are all
//! keyed by the same content-addressed [`genome_key`] hashes, so a
//! chaos-ridden distributed run still reproduces this module's
//! measurements bit-for-bit.
//!
//! See `docs/ROBUSTNESS.md` for the fault taxonomy and a resume
//! walkthrough.

use std::collections::HashMap;
use std::sync::Mutex;

use audit_cpu::Program;
use audit_error::{AuditError, AuditResult};
use audit_measure::fault::KeyHasher;
use audit_measure::stats::{mad_filter, median_index};
use audit_measure::FaultPlan;

use crate::ga::{CostFunction, Gene};
use crate::harness::{MeasureSpec, Measurement, Rig};
use crate::journal::{Journal, JournalRecord, JournalSink, VminOutcome};

/// Backoff charged per retry when no cycle budget is configured (the
/// budget is the natural quantum: it is how long the watchdog waited).
const DEFAULT_BACKOFF_QUANTUM: u64 = 1 << 20;

/// Modified z-score threshold for MAD outlier rejection among a
/// policy's `repeat` droop readings (3.5 is the conventional cut).
pub(crate) const MAD_THRESHOLD: f64 = 3.5;

/// Fitness assigned to a quarantined candidate: one that exhausted its
/// retry budget without a successful attempt, locally or on the
/// distributed pool.
pub const QUARANTINE_FITNESS: f64 = 0.0;

/// How resiliently to run each harness evaluation.
///
/// The default policy is a guaranteed no-op: faults disabled, one
/// repeat, no watchdog — the harness fast path is taken and results are
/// bit-identical to a build without this layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurePolicy {
    /// The seeded fault schedule (disabled by default).
    pub faults: FaultPlan,
    /// Measurements per successful attempt; the reported measurement is
    /// the median-of-k by max droop after MAD outlier rejection
    /// (modified z-score above 3.5). Must be at least 1.
    pub repeat: u32,
    /// Transient-fault retries per evaluation beyond the first attempt
    /// (so an evaluation consumes at most `retries + 1` attempts); a
    /// candidate that exhausts them is quarantined and scored
    /// [`QUARANTINE_FITNESS`].
    pub retries: u32,
    /// Watchdog bound on one harness run's co-simulated cycles
    /// (`warmup + record`); `None` disables the watchdog (injected
    /// hangs are still reaped — they never complete at any budget).
    pub cycle_budget: Option<u64>,
}

impl Default for MeasurePolicy {
    fn default() -> Self {
        MeasurePolicy::disabled()
    }
}

impl MeasurePolicy {
    /// The no-op policy: no faults, single measurement, no watchdog.
    pub fn disabled() -> Self {
        MeasurePolicy {
            faults: FaultPlan::disabled(),
            repeat: 1,
            retries: 2,
            cycle_budget: None,
        }
    }

    /// True when the policy cannot alter a measurement: no fault can
    /// fire, exactly one repeat, and no watchdog. No-op policies take
    /// the plain harness path, so results are bit-identical to a run
    /// without the resilience layer.
    pub fn is_noop(&self) -> bool {
        !self.faults.is_enabled() && self.repeat <= 1 && self.cycle_budget.is_none()
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// [`AuditError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> AuditResult<()> {
        if self.repeat == 0 {
            return Err(AuditError::invalid(
                "MeasurePolicy",
                "repeat",
                "must be at least 1",
            ));
        }
        Ok(())
    }

    /// Deterministic backoff charged for the retry after failed attempt
    /// `attempt`: one budget quantum, doubled per attempt (exponential
    /// backoff, saturating). Pure bookkeeping — the simulator does not
    /// sleep — but journaled and reported so operators can see what a
    /// real deployment would have paid.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        let quantum = self.cycle_budget.unwrap_or(DEFAULT_BACKOFF_QUANTUM);
        quantum.saturating_mul(1u64 << attempt.min(63))
    }

    /// Runs one resilient evaluation of `programs` on `rig`.
    ///
    /// Up to `retries + 1` attempts; each attempt runs `repeat`
    /// measurements (each with its own fault sub-schedule), rejects
    /// droop outliers by MAD, and reports the median-by-droop
    /// measurement. An attempt in which any repeat hits a transient
    /// fault is abandoned and retried whole; when every attempt fails
    /// the candidate is quarantined (`measurement: None`).
    ///
    /// `key` names the evaluation (see [`genome_key`] / [`program_key`])
    /// and is the only input besides the plan seed and attempt index to
    /// the fault schedule.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`Rig::measure_with_offsets`] (caller bugs, not faults).
    pub fn measure(
        &self,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        key: u64,
    ) -> ResilientOutcome {
        let mut backoff_cycles = 0u64;
        let mut retries_used = 0u32;
        for attempt in 0..=self.retries {
            match self.attempt_once(rig, programs, offsets, spec, key, attempt) {
                Ok((measurement, repeats_kept)) => {
                    return ResilientOutcome {
                        measurement: Some(measurement),
                        attempts: attempt + 1,
                        retries: retries_used,
                        repeats_kept,
                        backoff_cycles,
                        quarantined: false,
                    };
                }
                // A caller bug, not a fault: never retried into a
                // quarantine.
                Err(e) if !e.is_transient() => panic!("{e}"),
                Err(_) => {
                    retries_used += 1;
                    backoff_cycles = backoff_cycles.saturating_add(self.backoff_cycles(attempt));
                }
            }
        }
        ResilientOutcome {
            measurement: None,
            attempts: self.retries + 1,
            retries: retries_used,
            repeats_kept: 0,
            backoff_cycles,
            quarantined: true,
        }
    }

    /// One attempt: `repeat` measurements, MAD rejection, median pick.
    /// Any transient fault in any repeat abandons the attempt.
    fn attempt_once(
        &self,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        key: u64,
        attempt: u32,
    ) -> AuditResult<(Measurement, u32)> {
        let mut measurements = Vec::with_capacity(self.repeat as usize);
        for r in 0..self.repeat {
            // Each repeat gets its own sub-schedule so repeated noise
            // draws differ; folding the repeat into the attempt index
            // keeps the decision a pure function of (key, sub-attempt).
            let sub_attempt = attempt.saturating_mul(self.repeat).saturating_add(r);
            measurements.push(rig.try_measure_faulted(
                programs,
                offsets,
                spec,
                &self.faults,
                key,
                sub_attempt,
                self.cycle_budget,
            )?);
        }
        let droops: Vec<f64> = measurements.iter().map(Measurement::max_droop).collect();
        let kept = mad_filter(&droops, MAD_THRESHOLD);
        let kept_droops: Vec<f64> = kept.iter().map(|&i| droops[i]).collect();
        let pick = kept[median_index(&kept_droops).expect("repeat >= 1 leaves survivors")];
        let kept_count = kept.len() as u32;
        Ok((measurements.swap_remove(pick), kept_count))
    }

    /// Scores a resilient outcome: the cost function on the median
    /// measurement, or the quarantine fallback fitness.
    pub fn score(&self, cost: CostFunction, outcome: &ResilientOutcome) -> f64 {
        match &outcome.measurement {
            Some(m) => cost.score(m),
            None => QUARANTINE_FITNESS,
        }
    }
}

/// Result of one resilient evaluation.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The median-of-k measurement of the first successful attempt;
    /// `None` when the candidate was quarantined.
    pub measurement: Option<Measurement>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Attempts abandoned to transient faults (`attempts - 1` on
    /// success, `retries + 1` on quarantine).
    pub retries: u32,
    /// Repeats surviving MAD rejection in the successful attempt.
    pub repeats_kept: u32,
    /// Total deterministic backoff charged across retries, in cycles.
    pub backoff_cycles: u64,
    /// True when every attempt failed and the fallback fitness applies.
    pub quarantined: bool,
}

/// Aggregate resilience counters for a batch of evaluations (one GA
/// run, one study seed). All fields are order-insensitive sums, so the
/// report is identical for any worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Evaluations routed through the resilient path.
    pub evaluations: u64,
    /// Attempts abandoned to transient faults.
    pub retries: u64,
    /// Candidates that exhausted their retry budget.
    pub quarantined: u64,
    /// Total deterministic backoff charged, in cycles.
    pub backoff_cycles: u64,
}

impl ResilienceReport {
    /// Adds another report's counters into this one. All fields are
    /// order-insensitive sums, so distributed workers can report deltas
    /// in any arrival order and the merged totals still match the
    /// single-process run exactly.
    pub fn merge(&mut self, other: &ResilienceReport) {
        self.evaluations += other.evaluations;
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.backoff_cycles = self.backoff_cycles.saturating_add(other.backoff_cycles);
    }

    /// The per-evaluation delta a single [`ResilientOutcome`] adds —
    /// what [`ResilienceLog::record`] folds in locally and what a
    /// remote worker ships back alongside its fitness result.
    pub(crate) fn from_outcome(outcome: &ResilientOutcome) -> ResilienceReport {
        ResilienceReport {
            evaluations: 1,
            retries: u64::from(outcome.retries),
            quarantined: u64::from(outcome.quarantined),
            backoff_cycles: outcome.backoff_cycles,
        }
    }
}

/// Thread-safe accumulator for [`ResilienceReport`], shared by the GA's
/// evaluation workers through the fitness closure.
#[derive(Debug, Default)]
pub struct ResilienceLog {
    inner: Mutex<ResilienceReport>,
}

impl ResilienceLog {
    /// Folds one evaluation's outcome into the counters.
    pub fn record(&self, outcome: &ResilientOutcome) {
        self.fold(&ResilienceReport::from_outcome(outcome));
    }

    /// Folds a pre-computed delta (e.g. one reported by a remote
    /// worker) into the counters.
    pub fn fold(&self, delta: &ResilienceReport) {
        self.inner
            .lock()
            .expect("resilience log poisoned")
            .merge(delta);
    }

    /// The counters so far.
    pub fn snapshot(&self) -> ResilienceReport {
        *self.inner.lock().expect("resilience log poisoned")
    }
}

/// Stable evaluation key for a GA genome: an FNV-1a fold of each gene's
/// opcode name and operand fields. Content-addressed, so the fault
/// schedule follows the candidate across worker counts, generations,
/// and resume.
pub fn genome_key(genome: &[Gene]) -> u64 {
    let mut h = KeyHasher::new();
    for g in genome {
        h.write_bytes(g.opcode.name().as_bytes());
        h.write_bytes(&[g.dst, g.src1, g.src2, u8::from(g.miss)]);
    }
    h.finish()
}

/// Stable evaluation key for a fixed workload: program names and opcode
/// streams (one-shot `measure` runs, benchmark sweeps).
pub fn program_key(programs: &[Program]) -> u64 {
    let mut h = KeyHasher::new();
    for p in programs {
        h.write_bytes(p.name().as_bytes());
        h.write_u64(p.len() as u64);
        for inst in p.body() {
            h.write_bytes(inst.opcode.name().as_bytes());
        }
    }
    h.finish()
}

/// Key for one Vmin probe: the step index and the probed voltage bits.
fn probe_key(step: u64, voltage: f64) -> u64 {
    let mut h = KeyHasher::new();
    h.write_u64(step);
    h.write_u64(voltage.to_bits());
    h.finish()
}

/// The crash-tolerant voltage-at-failure search (paper §5.A.4, Table I).
///
/// A bisection between a passing ceiling (`v_start`, the nominal supply
/// — assumed to pass, as in the paper where the machine is running at
/// nominal to begin with) and a failing floor, narrowing to
/// `resolution`. The floor is probed first: a workload too weak to fail
/// even at the floor yields `v_fail: None`, mirroring
/// [`Rig::voltage_at_failure`]'s `None`.
///
/// Every probe is journaled write-ahead: a `vmin_step … pending` record
/// lands *before* the harness runs, the terminal `passed`/`failed`
/// record after, so a process killed at any instant leaves a journal
/// from which [`VminSearch::resume_from`] replays completed steps and
/// re-probes the interrupted one — the paper's reboot-and-continue
/// methodology, mechanized. Injected machine crashes
/// ([`AuditError::InjectedFault`]) abort the step's attempt, are
/// journaled as `crashed`, and retry under the policy's budget; a step
/// whose every attempt crashes is classified `failed` (the machine
/// cannot survive this voltage). A step whose every attempt *hangs* is
/// classified `passed` with a `quarantine` record (a hang says nothing
/// about voltage — the conservative reading keeps the search sound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VminSearch {
    /// Passing ceiling: the voltage the search starts from (nominal).
    pub v_start: f64,
    /// Failing-side floor: the lowest voltage worth probing.
    pub v_floor: f64,
    /// Stop when the pass/fail bracket is at most this wide, in volts.
    pub resolution: f64,
    /// Retry/watchdog/fault policy for each probe (repeats are not used
    /// — a probe is a boolean, not a droop statistic).
    pub policy: MeasurePolicy,
}

impl VminSearch {
    /// The paper's parameters: 12.5 mV resolution, floor at half the
    /// starting voltage (matching
    /// [`audit_measure::VoltageAtFailure::paper`]).
    pub fn paper(v_start: f64, policy: MeasurePolicy) -> Self {
        VminSearch {
            v_start,
            v_floor: 0.5 * v_start,
            resolution: 0.0125,
            policy,
        }
    }

    /// Validates the search bracket and policy.
    ///
    /// # Errors
    ///
    /// [`AuditError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> AuditResult<()> {
        self.policy.validate()?;
        if !(self.v_start.is_finite() && self.v_floor.is_finite() && self.v_floor > 0.0) {
            return Err(AuditError::invalid(
                "VminSearch",
                "v_floor",
                "bracket voltages must be finite and positive",
            ));
        }
        if self.v_floor >= self.v_start {
            return Err(AuditError::invalid(
                "VminSearch",
                "v_start",
                format!(
                    "floor {} must be below start {}",
                    self.v_floor, self.v_start
                ),
            ));
        }
        if !self.resolution.is_finite() || self.resolution <= 0.0 {
            return Err(AuditError::invalid(
                "VminSearch",
                "resolution",
                "must be finite and positive",
            ));
        }
        Ok(())
    }

    /// Runs the search from scratch, journaling every probe to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates journal-append failures and validation errors.
    /// Programs the rig's chip cannot run ([`AuditError::Unsupported`]),
    /// or more than it has threads for ([`AuditError::InvalidConfig`]),
    /// are refused before anything is journaled.
    pub fn run(
        &self,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        sink: &mut dyn JournalSink,
    ) -> AuditResult<VminResult> {
        self.drive(rig, programs, offsets, spec, sink, &HashMap::new())
    }

    /// Resumes a killed search from its journal: steps with a terminal
    /// `vmin_step` record are replayed without re-measurement, the
    /// first unsettled step (pending or crashed at the kill) is
    /// re-probed from attempt 0 — redrawing, by determinism of the
    /// fault schedule, exactly the outcome the uninterrupted run would
    /// have reached — and the bisection continues. New records append
    /// to the same `sink`.
    ///
    /// # Errors
    ///
    /// [`AuditError::Resume`] if a journaled terminal step disagrees
    /// with the voltage this search would probe at that step (the
    /// journal belongs to a different configuration); otherwise as
    /// [`VminSearch::run`].
    pub fn resume_from(
        &self,
        journal: &Journal,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        sink: &mut dyn JournalSink,
    ) -> AuditResult<VminResult> {
        let mut replay: HashMap<u64, (f64, bool)> = HashMap::new();
        for rec in &journal.records {
            if let JournalRecord::VminStep {
                step,
                voltage,
                outcome,
                ..
            } = rec
            {
                if outcome.is_terminal() {
                    replay.insert(*step, (*voltage, *outcome == VminOutcome::Failed));
                }
            }
        }
        self.drive(rig, programs, offsets, spec, sink, &replay)
    }

    /// The shared driver: a deterministic probe sequence where each
    /// step is either replayed from the journal or probed live.
    fn drive(
        &self,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        sink: &mut dyn JournalSink,
        replay: &HashMap<u64, (f64, bool)>,
    ) -> AuditResult<VminResult> {
        self.validate()?;
        // Refuse programs the rig cannot run before the first
        // write-ahead record, not at the first probe.
        rig.chip_sim(programs, offsets)?;
        let spec = MeasureSpec {
            check_failure: true,
            ..spec
        };
        let mut result = VminResult {
            v_fail: None,
            steps: 0,
            live_steps: 0,
            retries: 0,
            crashes: 0,
            quarantined: 0,
        };

        // Step 0: the floor. A workload that passes even here cannot be
        // bracketed — report "no failure found", like the linear search.
        let floor_fails = self.settle_step(
            rig,
            programs,
            offsets,
            spec,
            self.v_floor,
            sink,
            replay,
            &mut result,
        )?;
        if !floor_fails {
            return Ok(result);
        }

        // Bisect: lo always fails, hi always passes (v_start assumed).
        let mut lo = self.v_floor;
        let mut hi = self.v_start;
        while hi - lo > self.resolution {
            let mid = 0.5 * (lo + hi);
            let fails =
                self.settle_step(rig, programs, offsets, spec, mid, sink, replay, &mut result)?;
            if fails {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        result.v_fail = Some(lo);
        Ok(result)
    }

    /// Settles one step: replays its journaled outcome if present
    /// (checking the voltage matches), otherwise probes live.
    #[allow(clippy::too_many_arguments)]
    fn settle_step(
        &self,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        voltage: f64,
        sink: &mut dyn JournalSink,
        replay: &HashMap<u64, (f64, bool)>,
        result: &mut VminResult,
    ) -> AuditResult<bool> {
        let step = result.steps;
        result.steps += 1;
        if let Some(&(journaled_v, failed)) = replay.get(&step) {
            if journaled_v.to_bits() != voltage.to_bits() {
                return Err(AuditError::resume(format!(
                    "journal probed {journaled_v} V at vmin step {step}, \
                     but this search would probe {voltage} V — different configuration"
                )));
            }
            return Ok(failed);
        }
        result.live_steps += 1;
        self.probe(rig, programs, offsets, spec, step, voltage, sink, result)
    }

    /// Probes one voltage live, with write-ahead journaling and the
    /// policy's retry budget.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        step: u64,
        voltage: f64,
        sink: &mut dyn JournalSink,
        result: &mut VminResult,
    ) -> AuditResult<bool> {
        let target = rig.at_voltage(voltage);
        let key = probe_key(step, voltage);
        let mut crashes_here = 0u32;
        for attempt in 0..=self.policy.retries {
            sink.append(&JournalRecord::VminStep {
                step,
                voltage,
                attempt,
                outcome: VminOutcome::Pending,
            })?;
            match target.try_measure_faulted(
                programs,
                offsets,
                spec,
                &self.policy.faults,
                key,
                attempt,
                self.policy.cycle_budget,
            ) {
                Ok(m) => {
                    let outcome = if m.failed {
                        VminOutcome::Failed
                    } else {
                        VminOutcome::Passed
                    };
                    sink.append(&JournalRecord::VminStep {
                        step,
                        voltage,
                        attempt,
                        outcome,
                    })?;
                    return Ok(m.failed);
                }
                Err(AuditError::InjectedFault { .. }) => {
                    // The machine died at this voltage. Journal the
                    // crash (the step stays unsettled) and reboot into
                    // the next attempt.
                    result.crashes += 1;
                    crashes_here += 1;
                    sink.append(&JournalRecord::VminStep {
                        step,
                        voltage,
                        attempt,
                        outcome: VminOutcome::Crashed,
                    })?;
                }
                Err(AuditError::Timeout { .. }) => {
                    result.retries += 1;
                    sink.append(&JournalRecord::Retry {
                        step,
                        attempt,
                        reason: "timeout".into(),
                        backoff_cycles: self.policy.backoff_cycles(attempt),
                    })?;
                }
                Err(other) => return Err(other),
            }
        }
        // Retry budget exhausted without a clean run.
        let attempts = self.policy.retries + 1;
        let failed = if crashes_here > 0 {
            // Every recovery attempt ended in a crash: the machine
            // cannot survive this voltage — that *is* a failure.
            true
        } else {
            // Every attempt hung. A hang carries no voltage signal;
            // quarantine the step and read it conservatively as passed
            // so the search keeps descending instead of inventing a
            // failure point.
            result.quarantined += 1;
            sink.append(&JournalRecord::Quarantine {
                step,
                attempts,
                fallback: QUARANTINE_FITNESS,
            })?;
            false
        };
        let outcome = if failed {
            VminOutcome::Failed
        } else {
            VminOutcome::Passed
        };
        sink.append(&JournalRecord::VminStep {
            step,
            voltage,
            attempt: attempts,
            outcome,
        })?;
        Ok(failed)
    }
}

/// Result of a [`VminSearch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VminResult {
    /// Highest voltage observed to fail, within `resolution` of the
    /// true failure point; `None` when even the floor passes.
    pub v_fail: Option<f64>,
    /// Total bisection steps settled (replayed + live).
    pub steps: u64,
    /// Steps actually probed by this process (smaller after a resume).
    pub live_steps: u64,
    /// Probe attempts abandoned to hangs.
    pub retries: u64,
    /// Injected machine crashes survived.
    pub crashes: u64,
    /// Steps quarantined (every attempt hung).
    pub quarantined: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemJournal;
    use audit_measure::FaultRates;
    use audit_stressmark::manual;

    fn fast_spec() -> MeasureSpec {
        MeasureSpec {
            warmup_cycles: 500,
            record_cycles: 1_500,
            settle_cycles: 20_000,
            ..MeasureSpec::ga_eval()
        }
    }

    fn programs() -> Vec<Program> {
        vec![manual::sm_res(); 4]
    }

    /// `Measurement` deliberately has no `PartialEq` (it holds traces);
    /// bit-compare the fields that define the result.
    fn assert_same_measurement(a: &Measurement, b: &Measurement) {
        assert_eq!(a.stats.v_min().to_bits(), b.stats.v_min().to_bits());
        assert_eq!(a.stats.v_max().to_bits(), b.stats.v_max().to_bits());
        assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
        assert_eq!(a.stats.count(), b.stats.count());
        assert_eq!(a.envelope.len(), b.envelope.len());
        for (x, y) in a.envelope.iter().zip(&b.envelope) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.trigger_events, b.trigger_events);
        assert_eq!(a.mean_amps.to_bits(), b.mean_amps.to_bits());
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
        assert_eq!(a.failed, b.failed);
    }

    #[test]
    fn noop_policy_matches_plain_measurement_bit_for_bit() {
        let rig = Rig::bulldozer();
        let policy = MeasurePolicy::disabled();
        assert!(policy.is_noop());
        let offsets = vec![0; 4];
        let plain = rig.measure_with_offsets(&programs(), &offsets, fast_spec());
        let resilient = policy.measure(&rig, &programs(), &offsets, fast_spec(), 0xA11CE);
        let m = resilient.measurement.expect("no faults, no quarantine");
        assert_same_measurement(&m, &plain);
        assert_eq!(m.max_droop().to_bits(), plain.max_droop().to_bits());
        assert_eq!(resilient.attempts, 1);
        assert_eq!(resilient.retries, 0);
        assert_eq!(resilient.backoff_cycles, 0);
    }

    #[test]
    fn repeat_median_without_faults_is_transparent() {
        // All repeats are identical without noise, so the median is the
        // plain measurement no matter k.
        let rig = Rig::bulldozer();
        let policy = MeasurePolicy {
            repeat: 3,
            ..MeasurePolicy::disabled()
        };
        assert!(!policy.is_noop());
        let offsets = vec![0; 4];
        let plain = rig.measure_with_offsets(&programs(), &offsets, fast_spec());
        let out = policy.measure(&rig, &programs(), &offsets, fast_spec(), 7);
        assert_eq!(out.repeats_kept, 3);
        assert_same_measurement(&out.measurement.unwrap(), &plain);
    }

    #[test]
    fn hang_rate_one_quarantines_after_exact_budget() {
        let rig = Rig::bulldozer();
        let policy = MeasurePolicy {
            faults: FaultPlan::new(
                11,
                FaultRates {
                    hang_rate: 1.0,
                    ..FaultRates::default()
                },
            )
            .unwrap(),
            retries: 3,
            cycle_budget: Some(1 << 20),
            ..MeasurePolicy::disabled()
        };
        let out = policy.measure(&rig, &programs(), &[0; 4], fast_spec(), 99);
        assert!(out.quarantined);
        assert!(out.measurement.is_none());
        assert_eq!(out.attempts, 4); // retries + 1
        assert_eq!(out.retries, 4);
        // Exponential backoff: q + 2q + 4q + 8q.
        assert_eq!(out.backoff_cycles, (1u64 << 20) * 15);
        assert_eq!(policy.score(CostFunction::MaxDroop, &out), 0.0);
    }

    #[test]
    fn resilient_outcome_is_deterministic_under_noise() {
        let rig = Rig::bulldozer();
        let policy = MeasurePolicy {
            faults: FaultPlan::new(
                5,
                FaultRates {
                    noise_sigma: 0.003,
                    outlier_rate: 0.001,
                    outlier_volts: 0.08,
                    hang_rate: 0.2,
                    ..FaultRates::default()
                },
            )
            .unwrap(),
            repeat: 3,
            retries: 4,
            cycle_budget: Some(1 << 20),
        };
        let a = policy.measure(&rig, &programs(), &[0; 4], fast_spec(), 0xBEEF);
        let b = policy.measure(&rig, &programs(), &[0; 4], fast_spec(), 0xBEEF);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.repeats_kept, b.repeats_kept);
        let (ma, mb) = (a.measurement.unwrap(), b.measurement.unwrap());
        assert_eq!(ma.max_droop().to_bits(), mb.max_droop().to_bits());
    }

    #[test]
    fn vmin_bisection_matches_linear_search_bracket() {
        // With no faults the bisection must land within one linear step
        // (12.5 mV) of the paper's linear search.
        let rig = Rig::bulldozer();
        let spec = fast_spec();
        let search = VminSearch::paper(rig.pdn.nominal_voltage(), MeasurePolicy::disabled());
        let mut mem = MemJournal::default();
        let result = search
            .run(&rig, &programs(), &[0; 4], spec, &mut mem)
            .unwrap();
        let linear = rig.voltage_at_failure(&programs(), spec);
        match (result.v_fail, linear) {
            (Some(b), Some(l)) => assert!(
                (b - l).abs() <= 0.0125 + 1e-9,
                "bisection {b} vs linear {l}"
            ),
            (bis, lin) => panic!("bisection {bis:?} vs linear {lin:?}"),
        }
        assert_eq!(result.live_steps, result.steps);
        assert_eq!(result.crashes, 0);
    }

    #[test]
    fn vmin_journals_write_ahead_pending_records() {
        let rig = Rig::bulldozer();
        let search = VminSearch::paper(rig.pdn.nominal_voltage(), MeasurePolicy::disabled());
        let mut mem = MemJournal::default();
        search
            .run(&rig, &programs(), &[0; 4], fast_spec(), &mut mem)
            .unwrap();
        // Every terminal record is preceded by a pending record for the
        // same (step, voltage).
        let steps: Vec<_> = mem
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::VminStep {
                    step,
                    voltage,
                    outcome,
                    ..
                } => Some((*step, *voltage, *outcome)),
                _ => None,
            })
            .collect();
        assert!(!steps.is_empty());
        for pair in steps.chunks(2) {
            let [(s0, v0, o0), (s1, v1, o1)] = pair else {
                panic!("odd record count: {steps:?}");
            };
            assert_eq!(s0, s1);
            assert_eq!(v0.to_bits(), v1.to_bits());
            assert_eq!(*o0, VminOutcome::Pending);
            assert!(o1.is_terminal());
        }
    }

    #[test]
    fn programs_the_chip_cannot_run_are_refused_before_the_journal() {
        // SM1 needs FMA, which the Phenom-class chip lacks.
        let rig = Rig::phenom();
        let sm1 = vec![manual::sm1()];
        let search = VminSearch::paper(rig.pdn.nominal_voltage(), MeasurePolicy::disabled());
        let mut mem = MemJournal::default();
        let err = search
            .run(&rig, &sm1, &[0], fast_spec(), &mut mem)
            .unwrap_err();
        assert!(matches!(err, AuditError::Unsupported { .. }), "{err}");
        assert!(mem.records.is_empty(), "journaled {:?}", mem.records);

        let shmoo = crate::shmoo::ShmooSweep::grid(
            vec![1.0],
            vec![3.0e9],
            fast_spec(),
            MeasurePolicy::disabled(),
        );
        let err = shmoo.run(&rig, &sm1, &[0], &mut mem).unwrap_err();
        assert!(matches!(err, AuditError::Unsupported { .. }), "{err}");
        assert!(mem.records.is_empty(), "journaled {:?}", mem.records);

        let minimize = crate::minimize::MinimizeSearch::new(1, fast_spec());
        let err = minimize.run(&rig, &sm1[0], &mut mem).unwrap_err();
        assert!(matches!(err, AuditError::Unsupported { .. }), "{err}");
        assert!(mem.records.is_empty(), "journaled {:?}", mem.records);
    }

    #[test]
    fn vmin_survives_injected_crashes_deterministically() {
        let rig = Rig::bulldozer();
        let policy = MeasurePolicy {
            faults: FaultPlan::new(
                3,
                FaultRates {
                    crash_rate: 0.4,
                    ..FaultRates::default()
                },
            )
            .unwrap(),
            retries: 5,
            ..MeasurePolicy::disabled()
        };
        let clean = VminSearch::paper(rig.pdn.nominal_voltage(), MeasurePolicy::disabled());
        let faulty = VminSearch::paper(rig.pdn.nominal_voltage(), policy);
        let mut mem_clean = MemJournal::default();
        let mut mem_faulty = MemJournal::default();
        let a = clean
            .run(&rig, &programs(), &[0; 4], fast_spec(), &mut mem_clean)
            .unwrap();
        let b = faulty
            .run(&rig, &programs(), &[0; 4], fast_spec(), &mut mem_faulty)
            .unwrap();
        assert!(b.crashes > 0, "crash rate 0.4 over many probes must fire");
        // Crashes retry until a clean run; with retries to spare the
        // answer matches the fault-free search exactly.
        assert_eq!(a.v_fail, b.v_fail);
        // And the faulty run is reproducible bit-for-bit.
        let mut mem2 = MemJournal::default();
        let b2 = faulty
            .run(&rig, &programs(), &[0; 4], fast_spec(), &mut mem2)
            .unwrap();
        assert_eq!(b, b2);
        assert_eq!(mem_faulty.records, mem2.records);
    }

    #[test]
    fn vmin_resume_replays_without_remeasuring() {
        let rig = Rig::bulldozer();
        let search = VminSearch::paper(rig.pdn.nominal_voltage(), MeasurePolicy::disabled());
        let mut full = MemJournal::default();
        let complete = search
            .run(&rig, &programs(), &[0; 4], fast_spec(), &mut full)
            .unwrap();

        // Cut the journal at every record prefix and resume.
        for cut in 0..=full.records.len() {
            let mut partial = MemJournal {
                records: full.records[..cut].to_vec(),
            };
            let journal = partial.as_journal();
            let resumed = search
                .resume_from(
                    &journal,
                    &rig,
                    &programs(),
                    &[0; 4],
                    fast_spec(),
                    &mut partial,
                )
                .unwrap();
            assert_eq!(resumed.v_fail, complete.v_fail, "cut at {cut}");
            assert_eq!(resumed.steps, complete.steps, "cut at {cut}");
            assert!(resumed.live_steps <= complete.steps, "cut at {cut}");
        }
    }

    #[test]
    fn vmin_resume_rejects_mismatched_journal() {
        let rig = Rig::bulldozer();
        let search = VminSearch::paper(rig.pdn.nominal_voltage(), MeasurePolicy::disabled());
        let mut mem = MemJournal::default();
        mem.records.push(JournalRecord::VminStep {
            step: 0,
            voltage: 0.123, // not this search's floor
            attempt: 0,
            outcome: VminOutcome::Failed,
        });
        let journal = mem.as_journal();
        let err = search
            .resume_from(&journal, &rig, &programs(), &[0; 4], fast_spec(), &mut mem)
            .unwrap_err();
        assert!(matches!(err, AuditError::Resume { .. }), "{err}");
    }

    #[test]
    fn weak_workload_yields_no_failure() {
        let rig = Rig::bulldozer();
        let search = VminSearch {
            // Floor high enough that even it passes for a NOP loop.
            v_floor: rig.pdn.nominal_voltage() * 0.98,
            ..VminSearch::paper(rig.pdn.nominal_voltage(), MeasurePolicy::disabled())
        };
        let mut mem = MemJournal::default();
        let result = search
            .run(&rig, &[Program::nops(64)], &[0], fast_spec(), &mut mem)
            .unwrap();
        assert_eq!(result.v_fail, None);
        assert_eq!(result.steps, 1);
    }

    #[test]
    fn policy_validation_catches_bad_knobs() {
        let bad = MeasurePolicy {
            repeat: 0,
            ..MeasurePolicy::disabled()
        };
        let err = bad.validate().unwrap_err().to_string();
        assert!(err.contains("MeasurePolicy.repeat"), "{err}");
        assert!(MeasurePolicy::disabled().validate().is_ok());
    }

    #[test]
    fn keys_are_content_addressed() {
        let a = programs();
        assert_eq!(program_key(&a), program_key(&programs()));
        assert_ne!(program_key(&a), program_key(&[Program::nops(8)]));
        let g1 = vec![Gene {
            opcode: audit_cpu::Opcode::IAdd,
            dst: 1,
            src1: 2,
            src2: 3,
            miss: false,
        }];
        let mut g2 = g1.clone();
        g2[0].miss = true;
        assert_ne!(genome_key(&g1), genome_key(&g2));
        assert_eq!(genome_key(&g1), genome_key(&g1.clone()));
    }
}
