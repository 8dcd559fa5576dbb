//! The measurement harness: chip + PDN + scope + failure co-simulation.
//!
//! This is the "Measure HW" box of paper Fig. 5 — the closed loop that
//! runs a candidate stressmark on the platform and reports the quantities
//! the genetic algorithm's cost function needs: maximum droop, average
//! power, droop-event counts, and (optionally) whether the part failed at
//! the configured voltage.

use audit_error::AuditError;

use audit_cpu::{ChipConfig, ChipSim, Placement, Program};
use audit_measure::fault::NoiseStream;
use audit_measure::{
    DroopStats, FailureModel, FaultPlan, Histogram, Oscilloscope, VoltageAtFailure,
};
use audit_os::{OsConfig, OsModel};
use audit_pdn::{PdnModel, Transient};

/// Cycles of the chip-only dry run whose mean current sets the PDN
/// pre-settle level of every measurement.
const PROBE_CYCLES: u64 = 2_000;

/// How a measurement run is captured.
///
/// Start from a preset ([`MeasureSpec::ga_eval`] or
/// [`MeasureSpec::reporting`]), change it with a struct update, then
/// call [`MeasureSpec::validate`]: it rejects specs the harness cannot
/// execute (a zero-cycle recording window, a zero decimation, a
/// non-positive trigger level), which a hand-rolled value never checks
/// by itself.
///
/// # Example
///
/// ```
/// use audit_core::harness::MeasureSpec;
///
/// let spec = MeasureSpec {
///     record_cycles: 10_000,
///     trigger_below_nominal: Some(0.08),
///     ..MeasureSpec::reporting()
/// };
/// spec.validate().unwrap();
/// assert_eq!(spec.record_cycles, 10_000);
/// let empty = MeasureSpec {
///     record_cycles: 0,
///     ..MeasureSpec::reporting()
/// };
/// assert!(empty.validate().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureSpec {
    /// Cycles co-simulated before recording starts (lets the loop reach
    /// steady state after the PDN pre-settle).
    pub warmup_cycles: u64,
    /// Cycles recorded.
    pub record_cycles: u64,
    /// Pure-PDN pre-settle length at the workload's mean current, before
    /// warmup: the PDN starts warmup in the state `settle_cycles` RK4
    /// steps reach (kills the slow board/package modes). The state is
    /// computed in closed form by [`Transient::settle`], so the cost
    /// does not grow with this number.
    pub settle_cycles: u64,
    /// Check the failure model while recording.
    pub check_failure: bool,
    /// Droop-trigger level in volts below nominal, if a trigger is
    /// wanted (e.g. `Some(0.08)` triggers 80 mV under nominal).
    pub trigger_below_nominal: Option<f64>,
    /// Envelope decimation for waveform output (1 = every cycle).
    pub envelope_decimation: u64,
    /// Keep the raw per-cycle current and voltage traces in the
    /// [`Measurement`] (memory ∝ `record_cycles`; off by default). Used
    /// by the SPICE-export and spectrum-analysis paths.
    pub keep_traces: bool,
}

impl MeasureSpec {
    /// Checks the invariants the harness relies on.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if the recorded window is
    /// empty, warmup plus recorded window overflows a `u64`, the traces
    /// of a `keep_traces` window would not fit in memory's address
    /// space, the envelope decimation is zero, or the droop-trigger
    /// level is not a positive finite voltage.
    pub fn validate(&self) -> Result<(), AuditError> {
        if self.record_cycles == 0 {
            return Err(AuditError::invalid(
                "MeasureSpec",
                "record_cycles",
                "recorded window must be at least one cycle",
            ));
        }
        if self.warmup_cycles.checked_add(self.record_cycles).is_none() {
            return Err(AuditError::invalid(
                "MeasureSpec",
                "warmup_cycles",
                format!(
                    "warmup ({}) plus recorded window ({}) overflows a cycle count",
                    self.warmup_cycles, self.record_cycles
                ),
            ));
        }
        let max_trace = isize::MAX as usize / std::mem::size_of::<f64>();
        if self.keep_traces && !usize::try_from(self.record_cycles).is_ok_and(|n| n <= max_trace) {
            return Err(AuditError::invalid(
                "MeasureSpec",
                "record_cycles",
                format!(
                    "a kept trace of {} cycles exceeds the largest possible buffer ({max_trace})",
                    self.record_cycles
                ),
            ));
        }
        if self.envelope_decimation == 0 {
            return Err(AuditError::invalid(
                "MeasureSpec",
                "envelope_decimation",
                "envelope decimation must be at least 1 (1 = every cycle)",
            ));
        }
        if let Some(level) = self.trigger_below_nominal {
            if !level.is_finite() || level <= 0.0 {
                return Err(AuditError::invalid(
                    "MeasureSpec",
                    "trigger_below_nominal",
                    format!("trigger level must be a positive finite voltage (got {level})"),
                ));
            }
        }
        Ok(())
    }

    /// Fast spec used inside GA fitness evaluation: short window, no
    /// failure checking.
    pub const fn ga_eval() -> Self {
        MeasureSpec {
            warmup_cycles: 2_000,
            record_cycles: 6_000,
            settle_cycles: 150_000,
            check_failure: false,
            trigger_below_nominal: None,
            envelope_decimation: 64,
            keep_traces: false,
        }
    }

    /// Thorough spec used for reported numbers (figures/tables).
    pub const fn reporting() -> Self {
        MeasureSpec {
            warmup_cycles: 5_000,
            record_cycles: 60_000,
            settle_cycles: 400_000,
            check_failure: true,
            trigger_below_nominal: Some(0.06),
            envelope_decimation: 32,
            keep_traces: false,
        }
    }

    /// Returns a copy that keeps raw traces.
    pub const fn with_traces(mut self) -> Self {
        self.keep_traces = true;
        self
    }
}

impl Default for MeasureSpec {
    fn default() -> Self {
        Self::reporting()
    }
}

/// Result of one measurement run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Voltage summary of the recorded window.
    pub stats: DroopStats,
    /// Voltage histogram of the recorded window (Fig. 10 material).
    pub histogram: Histogram,
    /// Decimated min-envelope (Fig. 6 material).
    pub envelope: Vec<f64>,
    /// Count of distinct droop-trigger events.
    pub trigger_events: u64,
    /// Mean chip current over the recorded window, amps.
    pub mean_amps: f64,
    /// Aggregate IPC over the recorded window.
    pub ipc: f64,
    /// Whether the failure model tripped during the window.
    pub failed: bool,
    /// Maximum critical-path sensitivity observed in any cycle.
    pub max_path_seen: f64,
    /// Raw per-cycle chip current (amps), if requested.
    pub current_trace: Vec<f64>,
    /// Raw per-cycle die voltage (volts), if requested.
    pub voltage_trace: Vec<f64>,
}

impl Measurement {
    /// The headline metric: maximum droop below nominal, volts.
    pub fn max_droop(&self) -> f64 {
        self.stats.max_droop()
    }
}

/// A complete measurement platform: chip config + PDN + failure model +
/// optional OS interference.
///
/// # Example
///
/// ```
/// use audit_core::harness::{MeasureSpec, Rig};
/// use audit_cpu::Program;
///
/// let rig = Rig::bulldozer();
/// let m = rig.measure_aligned(&vec![Program::nops(32); 4], MeasureSpec::ga_eval());
/// assert!(m.max_droop() < 0.08, "NOP loops barely droop");
/// ```
#[derive(Debug, Clone)]
pub struct Rig {
    /// Chip configuration (replaceable for §5.B/§5.C experiments).
    pub chip: ChipConfig,
    /// PDN model.
    pub pdn: PdnModel,
    /// Failure thresholds.
    pub failure: FailureModel,
    /// OS interference; `None` = interrupts disabled (the dithering
    /// precondition).
    pub os: Option<OsConfig>,
}

impl Rig {
    /// The paper's primary platform: Bulldozer-class chip on its board.
    pub fn bulldozer() -> Self {
        Rig {
            chip: ChipConfig::bulldozer(),
            pdn: PdnModel::bulldozer_board(),
            failure: FailureModel::bulldozer(),
            os: None,
        }
    }

    /// The §5.C platform: the same board re-socketed with the
    /// Phenom-class part.
    pub fn phenom() -> Self {
        Rig {
            chip: ChipConfig::phenom(),
            pdn: PdnModel::phenom_board(),
            failure: FailureModel::phenom(),
            os: None,
        }
    }

    /// Returns a copy with the nominal supply voltage replaced (the
    /// voltage-at-failure search turns this knob).
    pub fn at_voltage(&self, volts: f64) -> Rig {
        let mut rig = self.clone();
        rig.pdn = rig.pdn.with_nominal_voltage(volts);
        rig
    }

    /// Returns a copy with the core clock replaced (the DVFS shmoo
    /// sweep turns this knob alongside [`Rig::at_voltage`]).
    pub(crate) fn at_clock(&self, clock_hz: f64) -> Rig {
        let mut rig = self.clone();
        rig.chip.clock_hz = clock_hz;
        rig
    }

    /// Returns a copy with OS timer interference enabled.
    pub fn with_os(mut self, os: OsConfig) -> Rig {
        self.os = Some(os);
        self
    }

    /// Returns a copy with the FPU throttle engaged (§5.B).
    pub fn with_fpu_throttle(mut self, cap: u32) -> Rig {
        self.chip = self.chip.with_fpu_throttle(cap);
        self
    }

    /// Returns a copy with the dynamic di/dt limiter engaged (extension
    /// experiment; see `audit_cpu::DidtLimiter`).
    pub fn with_didt_limiter(mut self, limiter: audit_cpu::DidtLimiter) -> Rig {
        self.chip = self.chip.with_didt_limiter(limiter);
        self
    }

    /// Measures `programs` with one thread per program, spread across
    /// modules per the paper's placement policy, all threads starting
    /// aligned (offset 0 — the alignment the dithering algorithm
    /// guarantees to find).
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or exceeds the chip's threads, or a
    /// program is incompatible with the chip.
    pub fn measure_aligned(&self, programs: &[Program], spec: MeasureSpec) -> Measurement {
        self.measure_with_offsets(programs, &vec![0; programs.len()], spec)
    }

    /// Measures with explicit per-thread start offsets (alignment
    /// sweeps, barrier-skew episodes, natural-dithering experiments).
    ///
    /// # Panics
    ///
    /// Panics if programs/offsets mismatch the placement or the chip
    /// rejects a program.
    pub fn measure_with_offsets(
        &self,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
    ) -> Measurement {
        self.measure_with_hook(programs, offsets, spec, &mut |_, _| {})
    }

    /// Like [`Rig::measure_with_offsets`], but calls `hook` once per
    /// cycle before stepping the chip — the injection point the
    /// dithering algorithm uses for its periodic NOP padding (§3.B).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Rig::measure_with_offsets`].
    pub(crate) fn measure_with_hook(
        &self,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        hook: &mut dyn FnMut(u64, &mut ChipSim),
    ) -> Measurement {
        let mut chip = self
            .chip_sim(programs, offsets)
            .expect("programs incompatible with chip");
        let mut os = self.os.map(|cfg| OsModel::new(cfg, programs.len()));
        self.run(&mut chip, os.as_mut(), spec, hook, None)
    }

    /// Like [`Rig::measure_with_offsets`], but under a seeded
    /// [`FaultPlan`] and an optional cycle-budget watchdog — the entry
    /// point of the resilience layer (`crate::resilient`).
    ///
    /// The run's fault schedule is a pure function of `(plan, key,
    /// attempt)`: `key` names the evaluation (hash of the candidate or
    /// probe voltage) and `attempt` the retry, so results are identical
    /// across worker counts and kill/resume. With a disabled plan and no
    /// budget the measurement is bit-identical to
    /// [`Rig::measure_with_offsets`].
    ///
    /// The watchdog bounds the co-simulated work of one evaluation
    /// (`warmup_cycles + record_cycles`). An evaluation whose work
    /// exceeds `cycle_budget` — or that draws an injected hang, which
    /// by definition never completes — is aborted with
    /// [`AuditError::Timeout`] before burning simulation time. An
    /// injected machine crash aborts a `check_failure` run with
    /// [`AuditError::InjectedFault`]; runs that cannot fail have no
    /// crash path, matching the paper's setup where only the Vmin
    /// methodology kills the machine. Injected scope noise perturbs the
    /// *observed* samples only; the simulated physics (and the failure
    /// check) see the true voltage.
    ///
    /// # Errors
    ///
    /// [`AuditError::Timeout`] and [`AuditError::InjectedFault`] as
    /// above; both are transient ([`AuditError::is_transient`]). Before
    /// any fault is drawn, the errors of [`Rig::chip_sim`], which are
    /// not.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_measure_faulted(
        &self,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
        plan: &FaultPlan,
        key: u64,
        attempt: u32,
        cycle_budget: Option<u64>,
    ) -> Result<Measurement, AuditError> {
        let mut chip = self.chip_sim(programs, offsets)?;
        let mut injector = plan.injector(key, attempt);
        if injector.hangs() {
            return Err(AuditError::timeout("harness", cycle_budget.unwrap_or(0)));
        }
        if let Some(budget) = cycle_budget {
            let cost = spec.warmup_cycles.saturating_add(spec.record_cycles);
            if cost > budget {
                return Err(AuditError::timeout("harness", budget));
            }
        }
        if spec.check_failure && injector.crashes() {
            return Err(AuditError::injected(
                "machine-crash",
                format!("evaluation {key:#018x} attempt {attempt}"),
            ));
        }
        let mut os = self.os.map(|cfg| OsModel::new(cfg, programs.len()));
        Ok(self.run(
            &mut chip,
            os.as_mut(),
            spec,
            &mut |_, _| {},
            injector.noise_mut(),
        ))
    }

    /// A chip simulator running `programs` from `offsets` on this rig's
    /// chip, placed by [`Rig::placement`].
    ///
    /// # Errors
    ///
    /// [`AuditError::InvalidConfig`] if the chip has no placement for
    /// that many programs or `offsets` does not match them, and
    /// [`AuditError::Unsupported`] if the chip cannot run one of them
    /// ([`audit_cpu::ChipConfig::check_program`]).
    pub(crate) fn chip_sim(
        &self,
        programs: &[Program],
        offsets: &[u64],
    ) -> Result<ChipSim, AuditError> {
        let placement = self.placement(programs.len())?;
        ChipSim::with_start_offsets(&self.chip, &placement, programs, offsets)
    }

    /// The paper's spread placement for `n` threads.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] if `n` is zero or exceeds
    /// the chip's thread count.
    pub fn placement(&self, n: usize) -> Result<Placement, AuditError> {
        self.chip.spread_placement(n as u32)
    }

    /// Runs the voltage-at-failure search of Table I for the given
    /// workload: lowers nominal Vdd in 12.5 mV decrements until the
    /// failure model trips.
    ///
    /// Returns the first failing voltage, or `None` if the search floor
    /// is reached (the workload is a very weak stressor).
    pub fn voltage_at_failure(&self, programs: &[Program], spec: MeasureSpec) -> Option<f64> {
        self.voltage_at_failure_with_offsets(programs, &vec![0; programs.len()], spec)
    }

    /// [`Rig::voltage_at_failure`] with explicit start offsets — used to
    /// run standard benchmarks at their natural (non-dithered) skew.
    pub fn voltage_at_failure_with_offsets(
        &self,
        programs: &[Program],
        offsets: &[u64],
        spec: MeasureSpec,
    ) -> Option<f64> {
        let spec = MeasureSpec {
            check_failure: true,
            ..spec
        };
        VoltageAtFailure::paper(self.pdn.nominal_voltage()).run(|v| {
            self.at_voltage(v)
                .measure_with_offsets(programs, offsets, spec)
                .failed
        })
    }

    /// A PDN transient pre-settled at the mean current of `chip`'s
    /// first [`PROBE_CYCLES`] cycles, measured on a dry run of a copy of
    /// the chip alone (dropped before the caller steps `chip`).
    fn settled_transient(&self, chip: &ChipSim, spec: MeasureSpec) -> Transient {
        let mut probe = chip.clone();
        let mut amps_sum = 0.0;
        for _ in 0..PROBE_CYCLES {
            amps_sum += probe.step().amps;
        }
        let mut transient = Transient::new(&self.pdn, self.chip.clock_hz);
        transient.settle(amps_sum / PROBE_CYCLES as f64, spec.settle_cycles);
        transient
    }

    /// Core co-simulation loop shared by every entry point. `noise`
    /// perturbs *observed* voltage samples only (scope statistics,
    /// envelope, traces); the simulated physics and the failure check
    /// always see the true voltage — measurement noise cannot crash the
    /// machine.
    fn run(
        &self,
        chip: &mut ChipSim,
        mut os: Option<&mut OsModel>,
        spec: MeasureSpec,
        hook: &mut dyn FnMut(u64, &mut ChipSim),
        mut noise: Option<&mut NoiseStream>,
    ) -> Measurement {
        let nominal = self.pdn.nominal_voltage();
        let mut transient = self.settled_transient(chip, spec);

        // Warmup: co-simulate without recording.
        for _ in 0..spec.warmup_cycles {
            if let Some(os) = os.as_deref_mut() {
                os.pre_cycle(chip.now(), chip);
            }
            hook(chip.now(), chip);
            let c = chip.step();
            transient.step(c.amps);
        }

        // Recorded window.
        let mut scope =
            Oscilloscope::new(nominal).with_envelope_decimation(spec.envelope_decimation);
        if let Some(below) = spec.trigger_below_nominal {
            scope = scope.with_trigger(nominal - below);
        }
        let mut failed = false;
        let mut max_path_seen = 0.0f64;
        let mut amps_acc = 0.0;
        let mut retired_acc: u64 = 0;
        let cap = if spec.keep_traces {
            spec.record_cycles as usize
        } else {
            0
        };
        let mut current_trace = Vec::with_capacity(cap);
        let mut voltage_trace = Vec::with_capacity(cap);
        for _ in 0..spec.record_cycles {
            if let Some(os) = os.as_deref_mut() {
                os.pre_cycle(chip.now(), chip);
            }
            hook(chip.now(), chip);
            let c = chip.step();
            let v = transient.step(c.amps);
            let v_obs = match noise.as_deref_mut() {
                Some(stream) => stream.perturb(v),
                None => v,
            };
            scope.sample(v_obs);
            amps_acc += c.amps;
            retired_acc += c.retired as u64;
            max_path_seen = max_path_seen.max(c.max_path);
            if spec.check_failure && self.failure.fails(v, c.max_path) {
                failed = true;
            }
            if spec.keep_traces {
                current_trace.push(c.amps);
                voltage_trace.push(v_obs);
            }
        }

        Measurement {
            stats: *scope.stats(),
            histogram: scope.histogram().clone(),
            envelope: scope.envelope().to_vec(),
            trigger_events: scope.trigger_events(),
            mean_amps: amps_acc / spec.record_cycles as f64,
            ipc: retired_acc as f64 / spec.record_cycles as f64,
            failed,
            max_path_seen,
            current_trace,
            voltage_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_stressmark::manual;

    fn fast() -> MeasureSpec {
        MeasureSpec::ga_eval()
    }

    #[test]
    fn resonant_stressmark_out_droops_nops() {
        let rig = Rig::bulldozer();
        let res = rig.measure_aligned(&vec![manual::sm_res(); 4], fast());
        let nop = rig.measure_aligned(&vec![Program::nops(64); 4], fast());
        assert!(
            res.max_droop() > 2.0 * nop.max_droop() + 0.02,
            "res {} vs nop {}",
            res.max_droop(),
            nop.max_droop()
        );
    }

    use audit_cpu::Program;

    #[test]
    fn four_threads_droop_more_than_one() {
        let rig = Rig::bulldozer();
        let d1 = rig.measure_aligned(&[manual::sm_res()], fast()).max_droop();
        let d4 = rig
            .measure_aligned(&vec![manual::sm_res(); 4], fast())
            .max_droop();
        assert!(d4 > d1 * 1.5, "4T {d4} vs 1T {d1}");
    }

    #[test]
    fn misaligned_threads_droop_less_than_aligned() {
        let rig = Rig::bulldozer();
        let aligned = rig
            .measure_aligned(&vec![manual::sm_res(); 4], fast())
            .max_droop();
        // Offset by a half period each: destructive interference.
        let offsets = [0, 15, 8, 23];
        let misaligned = rig
            .measure_with_offsets(&vec![manual::sm_res(); 4], &offsets, fast())
            .max_droop();
        assert!(
            misaligned < aligned - 0.01,
            "misaligned {misaligned} vs aligned {aligned}"
        );
    }

    #[test]
    fn lower_voltage_eventually_fails() {
        let rig = Rig::bulldozer();
        let vf = rig.voltage_at_failure(&vec![manual::sm_res(); 4], fast());
        let vf = vf.expect("resonant stressmark must fail somewhere above the floor");
        assert!(vf < rig.pdn.nominal_voltage());
        assert!(vf > 0.8, "implausibly low failure point {vf}");
    }

    #[test]
    fn stressmark_fails_at_higher_voltage_than_nops() {
        let rig = Rig::bulldozer();
        let strong = rig
            .voltage_at_failure(&vec![manual::sm_res(); 4], fast())
            .unwrap();
        let weak = rig.voltage_at_failure(&vec![Program::nops(64); 4], fast());
        match weak {
            None => {}
            Some(w) => assert!(strong > w, "strong {strong} vs weak {w}"),
        }
    }

    #[test]
    fn measurement_reports_power_and_ipc() {
        let rig = Rig::bulldozer();
        let m = rig.measure_aligned(&vec![manual::sm_res(); 4], fast());
        assert!(m.mean_amps > 10.0, "mean {};", m.mean_amps);
        assert!(m.ipc > 1.0, "ipc {}", m.ipc);
        assert!(m.max_path_seen > 0.5);
    }

    #[test]
    fn harness_is_deterministic() {
        let rig = Rig::bulldozer();
        let a = rig.measure_aligned(&vec![manual::sm1(); 2], fast());
        let b = rig.measure_aligned(&vec![manual::sm1(); 2], fast());
        assert_eq!(a.stats.v_min(), b.stats.v_min());
        assert_eq!(a.mean_amps, b.mean_amps);
    }

    #[test]
    fn os_interference_changes_results() {
        let rig = Rig::bulldozer();
        let quiet = rig.measure_aligned(&vec![manual::sm_res(); 4], fast());
        let noisy = rig
            .clone()
            .with_os(audit_os::OsConfig::compressed(1_500).with_seed(3))
            .measure_aligned(&vec![manual::sm_res(); 4], fast());
        assert_ne!(quiet.stats.v_min(), noisy.stats.v_min());
    }

    #[test]
    fn builder_accepts_valid_specs() {
        let spec = MeasureSpec {
            warmup_cycles: 1_000,
            record_cycles: 4_000,
            settle_cycles: 50_000,
            check_failure: false,
            trigger_below_nominal: None,
            envelope_decimation: 16,
            keep_traces: true,
        };
        spec.validate().unwrap();
        assert_eq!(spec.record_cycles, 4_000);
        assert_eq!(spec.trigger_below_nominal, None);
        assert!(spec.keep_traces);
        // The presets themselves pass validation.
        MeasureSpec::ga_eval().validate().unwrap();
        MeasureSpec::reporting().validate().unwrap();
    }

    #[test]
    fn builder_rejects_unexecutable_specs() {
        let reject = |spec: MeasureSpec| spec.validate().unwrap_err().to_string();
        let base = MeasureSpec::reporting();
        let err = reject(MeasureSpec {
            record_cycles: 0,
            ..base
        });
        assert!(err.contains("record_cycles"), "{err}");
        let err = reject(MeasureSpec {
            envelope_decimation: 0,
            ..base
        });
        assert!(err.contains("envelope_decimation"), "{err}");
        for bad in [0.0, -0.05, f64::NAN, f64::INFINITY] {
            let err = reject(MeasureSpec {
                trigger_below_nominal: Some(bad),
                ..base
            });
            assert!(err.contains("trigger"), "{err}");
        }
        let err = reject(MeasureSpec {
            warmup_cycles: u64::MAX,
            ..base
        });
        assert!(err.contains("overflows"), "{err}");
        let untraceable = MeasureSpec {
            warmup_cycles: 0,
            record_cycles: u64::MAX,
            keep_traces: true,
            ..base
        };
        assert!(MeasureSpec {
            keep_traces: false,
            ..untraceable
        }
        .validate()
        .is_ok());
        let err = reject(untraceable);
        assert!(err.contains("kept trace"), "{err}");
    }
}
