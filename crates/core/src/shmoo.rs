//! The automated DVFS shmoo driver: a voltage × frequency sweep of the
//! failure margin.
//!
//! A *shmoo plot* maps the safe operating region of a part: at each
//! (supply voltage, core clock) operating point, how far can the supply
//! sag before the chip malfunctions? The paper measures one column of
//! that plane — the voltage-at-failure search of §5.A.4 at nominal
//! clock. This module automates the whole plane: [`ShmooSweep`] walks a
//! V/F grid in a fixed row-major order, re-running the journaled
//! [`VminSearch`] at every [`VfPoint`] on a rig re-tuned via
//! [`Rig::at_voltage`] + `Rig::at_clock`, and records the resulting
//! safe-margin surface.
//!
//! # Crash tolerance
//!
//! The sweep inherits the Vmin search's reboot-and-continue contract
//! and extends it one level up. Before a point's search begins, a
//! write-ahead `shmoo_point … pending` record lands in the journal; its
//! `done` record (carrying `v_fail`, `margin`, and the probe count)
//! lands after the search settles. Between the two sit the point's own
//! `vmin_step` records. A process killed anywhere mid-plane therefore
//! resumes exactly where it died ([`ShmooSweep::resume_from`]): done
//! points replay without re-measurement, the in-progress point resumes
//! its own bisection trail, and untouched points run live. A sweep
//! killed at any record boundary whose last record is terminal resumes
//! to a byte-identical journal (the same property `vmin_step` has; a
//! kill mid-probe leaves a benign orphan `pending` line, re-probed
//! deterministically).

use std::collections::HashMap;

use audit_cpu::Program;
use audit_error::{AuditError, AuditResult};

use crate::harness::{MeasureSpec, Rig};
use crate::journal::{Journal, JournalRecord, JournalSink, ShmooPointResult};
use crate::resilient::{MeasurePolicy, VminSearch};

/// One operating point of the sweep: a (supply voltage, core clock)
/// pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfPoint {
    /// Nominal supply voltage, in volts.
    pub volts: f64,
    /// Core clock, in Hz.
    pub clock_hz: f64,
}

/// A voltage × frequency sweep of the failure margin.
///
/// Points are visited row-major: the outer loop walks `volts`, the
/// inner loop walks `clocks_hz`, so point `i` is
/// `(volts[i / clocks.len()], clocks[i % clocks.len()])`. The order is
/// part of the journal contract — a resumed sweep must enumerate the
/// same grid in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooSweep {
    /// Supply voltages of the grid rows, in volts.
    pub volts: Vec<f64>,
    /// Core clocks of the grid columns, in Hz.
    pub clocks_hz: Vec<f64>,
    /// Measurement window each Vmin probe runs.
    pub spec: MeasureSpec,
    /// Retry/watchdog/fault policy for every probe.
    pub policy: MeasurePolicy,
}

impl ShmooSweep {
    /// A sweep over the given grid with the paper's per-point search
    /// parameters (12.5 mV resolution, floor at half the point's
    /// voltage).
    pub fn grid(
        volts: Vec<f64>,
        clocks_hz: Vec<f64>,
        spec: MeasureSpec,
        policy: MeasurePolicy,
    ) -> Self {
        ShmooSweep {
            volts,
            clocks_hz,
            spec,
            policy,
        }
    }

    /// Validates the grid and policy.
    ///
    /// # Errors
    ///
    /// [`AuditError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> AuditResult<()> {
        self.policy.validate()?;
        if self.volts.is_empty() || self.clocks_hz.is_empty() {
            return Err(AuditError::invalid(
                "ShmooSweep",
                "grid",
                "both voltage and clock axes need at least one value",
            ));
        }
        for &v in &self.volts {
            if !(v.is_finite() && v > 0.0) {
                return Err(AuditError::invalid(
                    "ShmooSweep",
                    "volts",
                    format!("voltages must be positive and finite (got {v:?})"),
                ));
            }
        }
        for &f in &self.clocks_hz {
            if !(f.is_finite() && f > 0.0) {
                return Err(AuditError::invalid(
                    "ShmooSweep",
                    "clocks_hz",
                    format!("clocks must be positive and finite (got {f:?})"),
                ));
            }
        }
        Ok(())
    }

    /// The grid in sweep order (row-major, voltage-outer).
    pub fn points(&self) -> Vec<VfPoint> {
        self.volts
            .iter()
            .flat_map(|&volts| {
                self.clocks_hz
                    .iter()
                    .map(move |&clock_hz| VfPoint { volts, clock_hz })
            })
            .collect()
    }

    /// Runs the sweep from scratch, journaling every point and probe to
    /// `sink`.
    ///
    /// # Errors
    ///
    /// Propagates validation and journal-append failures. Programs the
    /// rig cannot run are refused before anything is journaled, as by
    /// [`VminSearch::run`].
    pub fn run(
        &self,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        sink: &mut dyn JournalSink,
    ) -> AuditResult<ShmooResult> {
        self.drive(rig, programs, offsets, sink, &HashMap::new(), None)
    }

    /// Resumes a killed sweep from its journal: points with a `done`
    /// record replay without re-measurement, the point left `pending`
    /// at the kill resumes its own `vmin_step` trail, and the rest of
    /// the plane runs live. New records append to the same `sink`.
    ///
    /// # Errors
    ///
    /// [`AuditError::Resume`] if a journaled point disagrees with the
    /// operating point this sweep would visit at that index (the
    /// journal belongs to a different grid); otherwise as
    /// [`ShmooSweep::run`].
    pub fn resume_from(
        &self,
        journal: &Journal,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        sink: &mut dyn JournalSink,
    ) -> AuditResult<ShmooResult> {
        let mut done: HashMap<u64, (f64, f64, ShmooPointResult)> = HashMap::new();
        // The point whose pending record has no matching done record,
        // plus the vmin_step trail journaled under it.
        let mut open: Option<(u64, Vec<JournalRecord>)> = None;
        for rec in &journal.records {
            match rec {
                JournalRecord::ShmooPoint {
                    index,
                    volts,
                    clock_hz,
                    result,
                } => match result {
                    Some(r) => {
                        done.insert(*index, (*volts, *clock_hz, r.clone()));
                        open = None;
                    }
                    None => open = Some((*index, Vec::new())),
                },
                other => {
                    if let Some((_, trail)) = open.as_mut() {
                        trail.push(other.clone());
                    }
                }
            }
        }
        self.drive(rig, programs, offsets, sink, &done, open)
    }

    /// The shared driver: every point is replayed, resumed, or probed
    /// live.
    fn drive(
        &self,
        rig: &Rig,
        programs: &[Program],
        offsets: &[u64],
        sink: &mut dyn JournalSink,
        done: &HashMap<u64, (f64, f64, ShmooPointResult)>,
        open: Option<(u64, Vec<JournalRecord>)>,
    ) -> AuditResult<ShmooResult> {
        self.validate()?;
        // Refuse programs the rig cannot run before the first record.
        rig.chip_sim(programs, offsets)?;
        let mut result = ShmooResult {
            cells: Vec::new(),
            live_points: 0,
            replayed_points: 0,
        };
        for (i, point) in self.points().into_iter().enumerate() {
            let index = i as u64;
            if let Some((volts, clock_hz, settled)) = done.get(&index) {
                if volts.to_bits() != point.volts.to_bits()
                    || clock_hz.to_bits() != point.clock_hz.to_bits()
                {
                    return Err(AuditError::resume(format!(
                        "journal settled {volts} V / {clock_hz} Hz at shmoo point {index}, \
                         but this sweep visits {} V / {} Hz — different grid",
                        point.volts, point.clock_hz
                    )));
                }
                result.replayed_points += 1;
                result.cells.push(ShmooCell {
                    point,
                    v_fail: settled.v_fail,
                    margin: settled.margin,
                    steps: settled.steps,
                });
                continue;
            }
            let target = rig.at_voltage(point.volts).at_clock(point.clock_hz);
            let search = VminSearch::paper(point.volts, self.policy);
            let vres = match &open {
                // The killed run already journaled this point's pending
                // record (write-ahead); re-appending it would diverge
                // the journal from an uninterrupted run's bytes.
                Some((open_index, trail)) if *open_index == index => {
                    let sub = Journal {
                        records: trail.clone(),
                    };
                    search.resume_from(&sub, &target, programs, offsets, self.spec, sink)?
                }
                _ => {
                    sink.append(&JournalRecord::ShmooPoint {
                        index,
                        volts: point.volts,
                        clock_hz: point.clock_hz,
                        result: None,
                    })?;
                    search.run(&target, programs, offsets, self.spec, sink)?
                }
            };
            // A point whose workload never failed above the floor
            // records the floor as its failure bound: the margin column
            // saturates there (a lower bound, not an exact crossing).
            let v_fail = vres.v_fail.unwrap_or(search.v_floor);
            let settled = ShmooPointResult {
                v_fail,
                margin: point.volts - v_fail,
                steps: vres.steps,
            };
            sink.append(&JournalRecord::ShmooPoint {
                index,
                volts: point.volts,
                clock_hz: point.clock_hz,
                result: Some(settled.clone()),
            })?;
            result.live_points += 1;
            result.cells.push(ShmooCell {
                point,
                v_fail: settled.v_fail,
                margin: settled.margin,
                steps: settled.steps,
            });
        }
        Ok(result)
    }
}

/// One settled cell of the margin surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShmooCell {
    /// The operating point.
    pub point: VfPoint,
    /// Highest voltage at which the workload malfunctioned (clamped to
    /// the search floor when it never failed).
    pub v_fail: f64,
    /// Safe margin: the point's nominal voltage minus `v_fail`.
    pub margin: f64,
    /// Vmin probe steps the point's search settled (replayed + live).
    pub steps: u64,
}

/// A finished sweep: the margin surface in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooResult {
    /// Every grid point's settled cell, in sweep order.
    pub cells: Vec<ShmooCell>,
    /// Points this process measured (or finished measuring) live.
    pub live_points: u64,
    /// Points replayed whole from the journal.
    pub replayed_points: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemJournal;
    use audit_measure::{FaultPlan, FaultRates};
    use audit_stressmark::manual;

    fn fast_spec() -> MeasureSpec {
        MeasureSpec {
            warmup_cycles: 500,
            record_cycles: 1_500,
            settle_cycles: 20_000,
            ..MeasureSpec::ga_eval()
        }
    }

    fn sweep() -> ShmooSweep {
        ShmooSweep::grid(
            vec![0.95, 1.0],
            vec![2.8e9, 3.2e9],
            fast_spec(),
            MeasurePolicy::disabled(),
        )
    }

    fn programs() -> Vec<Program> {
        vec![manual::sm_res(); 2]
    }

    #[test]
    fn sweep_settles_every_grid_point() {
        let rig = Rig::bulldozer();
        let mut mem = MemJournal::default();
        let result = sweep()
            .run(&rig, &programs(), &[0, 0], &mut mem)
            .expect("sweep runs");
        assert_eq!(result.cells.len(), 4);
        assert_eq!(result.live_points, 4);
        assert_eq!(result.replayed_points, 0);
        for cell in &result.cells {
            assert!(cell.margin >= 0.0, "margin must be non-negative");
            assert!(cell.v_fail <= cell.point.volts);
        }
        // One pending + one done record per point, in sweep order.
        let shmoo: Vec<_> = mem
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::ShmooPoint { index, result, .. } => Some((*index, result.is_some())),
                _ => None,
            })
            .collect();
        assert_eq!(
            shmoo,
            vec![
                (0, false),
                (0, true),
                (1, false),
                (1, true),
                (2, false),
                (2, true),
                (3, false),
                (3, true)
            ]
        );
    }

    #[test]
    fn resume_replays_done_points_without_remeasuring() {
        let rig = Rig::bulldozer();
        let programs = programs();
        let mut reference = MemJournal::default();
        let full = sweep()
            .run(&rig, &programs, &[0, 0], &mut reference)
            .expect("reference sweep");

        // Kill after the second point's done record: keep records up to
        // and including the done record for index 1.
        let cut = reference
            .records
            .iter()
            .position(|r| {
                matches!(
                    r,
                    JournalRecord::ShmooPoint {
                        index: 1,
                        result: Some(_),
                        ..
                    }
                )
            })
            .expect("done record for point 1")
            + 1;
        let mut resumed = MemJournal {
            records: reference.records[..cut].to_vec(),
        };
        let journal = Journal {
            records: resumed.records.clone(),
        };
        let result = sweep()
            .resume_from(&journal, &rig, &programs, &[0, 0], &mut resumed)
            .expect("resumed sweep");
        assert_eq!(result.cells, full.cells);
        assert_eq!(result.replayed_points, 2);
        assert_eq!(result.live_points, 2);
        assert_eq!(
            resumed.records, reference.records,
            "a resume from a terminal boundary must rebuild the journal byte-identically"
        );
    }

    #[test]
    fn resume_finishes_a_point_killed_mid_bisection() {
        let rig = Rig::bulldozer();
        let programs = programs();
        let mut reference = MemJournal::default();
        let full = sweep()
            .run(&rig, &programs, &[0, 0], &mut reference)
            .expect("reference sweep");

        // Kill inside point 2's bisection: keep its pending record and
        // the first two settled vmin steps.
        let pending = reference
            .records
            .iter()
            .position(|r| {
                matches!(
                    r,
                    JournalRecord::ShmooPoint {
                        index: 2,
                        result: None,
                        ..
                    }
                )
            })
            .expect("pending record for point 2");
        let cut = pending + 5; // pending + 2 × (write-ahead + terminal)
        let mut resumed = MemJournal {
            records: reference.records[..cut].to_vec(),
        };
        let journal = Journal {
            records: resumed.records.clone(),
        };
        let result = sweep()
            .resume_from(&journal, &rig, &programs, &[0, 0], &mut resumed)
            .expect("resumed sweep");
        assert_eq!(result.cells, full.cells);
        assert_eq!(result.replayed_points, 2);
        assert_eq!(
            resumed.records, reference.records,
            "mid-bisection resume at a terminal boundary must rebuild the journal"
        );
    }

    #[test]
    fn resume_with_faults_matches_the_uninterrupted_sweep() {
        let rig = Rig::bulldozer();
        let programs = programs();
        let faulty = ShmooSweep {
            policy: MeasurePolicy {
                faults: FaultPlan::new(
                    11,
                    FaultRates {
                        crash_rate: 0.4,
                        ..FaultRates::default()
                    },
                )
                .unwrap(),
                retries: 5,
                ..MeasurePolicy::disabled()
            },
            ..sweep()
        };
        let mut reference = MemJournal::default();
        let full = faulty
            .run(&rig, &programs, &[0, 0], &mut reference)
            .expect("reference sweep");

        let cut = reference.records.len() / 2;
        let mut resumed = MemJournal {
            records: reference.records[..cut].to_vec(),
        };
        let journal = Journal {
            records: resumed.records.clone(),
        };
        let result = faulty
            .resume_from(&journal, &rig, &programs, &[0, 0], &mut resumed)
            .expect("resumed sweep");
        assert_eq!(
            result.cells, full.cells,
            "a fault-injected sweep must resume to the same surface"
        );
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_grid() {
        let rig = Rig::bulldozer();
        let programs = programs();
        let mut mem = MemJournal::default();
        sweep()
            .run(&rig, &programs, &[0, 0], &mut mem)
            .expect("sweep runs");
        let journal = Journal {
            records: mem.records.clone(),
        };
        let other = ShmooSweep {
            volts: vec![0.90, 1.0],
            ..sweep()
        };
        let err = other
            .resume_from(
                &journal,
                &rig,
                &programs,
                &[0, 0],
                &mut MemJournal::default(),
            )
            .unwrap_err();
        assert!(
            matches!(err, AuditError::Resume { .. }),
            "grid mismatch must be a resume error, got {err:?}"
        );
    }

    #[test]
    fn validate_rejects_bad_grids() {
        let empty = ShmooSweep {
            volts: vec![],
            ..sweep()
        };
        assert!(empty.validate().is_err());
        let negative = ShmooSweep {
            clocks_hz: vec![-1.0],
            ..sweep()
        };
        assert!(negative.validate().is_err());
    }
}
