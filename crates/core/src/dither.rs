//! The dithering algorithm for guaranteed thread alignment (paper §3.B).
//!
//! With `C` cores each running the periodic high/low pattern of Fig. 7,
//! the misalignment of cores `1..C` relative to core 0 is a point in a
//! `(L+H)^(C−1)` search space. The dithering algorithm walks that space
//! exhaustively: core `c` receives one extra cycle of NOP padding every
//! `M·(L+H)^(c−1)` cycles, so within `M·(L+H)^(C−1)` cycles every
//! alignment — including the constructive worst case — has been held for
//! `M` cycles.
//!
//! The approximate variant tolerates a mismatch of `δ` cycles: pick
//! `L+H` divisible by `δ+1` and pad `δ+1` cycles every `M·k^(c−1)`
//! cycles with `k = (L+H)/(δ+1)`, shrinking the sweep by `(δ+1)^(C−1)` —
//! the paper's example drops an 8-core sweep from 18.35 minutes to 67 ms.
//!
//! [`DitherPlan`] reproduces that cost arithmetic exactly, and
//! [`dithered_droop`] executes the literal padding schedule on the rig.

use audit_cpu::Program;

use crate::harness::{MeasureSpec, Measurement, Rig};

/// A dithering schedule for `C` cores running a loop of period `L+H`.
///
/// # Example
///
/// ```
/// use audit_core::dither::DitherPlan;
///
/// // The paper's §3.B example: 4 GHz, L+H = 24, M = 960.
/// let plan = DitherPlan::exact(4, 24, 960);
/// assert!((plan.sweep_seconds(4.0e9) - 3.3e-3).abs() < 2e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DitherPlan {
    cores: u32,
    period: u32,
    m: u64,
    delta: u32,
}

impl DitherPlan {
    /// Exact alignment: full single-cycle resolution (δ = 0).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, `period == 0`, or `m == 0`.
    pub fn exact(cores: u32, period: u32, m: u64) -> Self {
        Self::approximate(cores, period, m, 0)
    }

    /// Approximate alignment with maximum mismatch `delta` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are zero where disallowed or if `period` is
    /// not a multiple of `delta + 1` (the paper's constraint on `L+H`).
    pub fn approximate(cores: u32, period: u32, m: u64, delta: u32) -> Self {
        assert!(cores >= 1, "need at least one core");
        assert!(period >= 1, "need a non-empty loop period");
        assert!(m >= 1, "resonance build-up M must be positive");
        assert!(
            period.is_multiple_of(delta + 1),
            "L+H = {period} must be a multiple of delta+1 = {}",
            delta + 1
        );
        DitherPlan {
            cores,
            period,
            m,
            delta,
        }
    }

    /// Number of cores `C`.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Loop period `L+H` in cycles.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Cycles `M` each alignment is held to build/sustain resonance.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Allowed mismatch δ in cycles (0 = exact).
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Padding quantum in cycles: `δ + 1`.
    pub(crate) fn pad_cycles(&self) -> u64 {
        (self.delta + 1) as u64
    }

    /// Alignment steps per core: `k = (L+H)/(δ+1)`.
    pub fn k(&self) -> u64 {
        (self.period / (self.delta + 1)) as u64
    }

    /// Size of the alignment search space: `k^(C−1)`.
    pub fn alignment_count(&self) -> u128 {
        (self.k() as u128).pow(self.cores.saturating_sub(1))
    }

    /// Cycles to traverse the whole space: `M · k^(C−1)`.
    pub fn sweep_cycles(&self) -> u128 {
        self.m as u128 * self.alignment_count()
    }

    /// Wall-clock sweep time at the given core clock.
    pub fn sweep_seconds(&self, clock_hz: f64) -> f64 {
        self.sweep_cycles() as f64 / clock_hz
    }

    /// Padding period of core `c` (`1 ≤ c < C`): core `c` is padded by
    /// `δ+1` cycles every `M · k^(c−1)` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `c` is 0 (the reference core is never padded) or ≥ `C`.
    pub fn padding_period(&self, c: u32) -> u128 {
        assert!(c >= 1 && c < self.cores, "core {c} is not a dithered core");
        self.m as u128 * (self.k() as u128).pow(c - 1)
    }
}

/// Outcome of a literal dithering run.
#[derive(Debug, Clone)]
pub struct DitherOutcome {
    /// The full measurement over the sweep window.
    pub measurement: Measurement,
    /// Cycles actually swept.
    pub cycles: u64,
    /// The plan that was executed.
    pub plan: DitherPlan,
}

impl DitherOutcome {
    /// Worst droop found anywhere in the sweep — by construction, the
    /// aligned worst case is visited.
    pub fn max_droop(&self) -> f64 {
        self.measurement.max_droop()
    }
}

/// Executes the literal dithering schedule: all threads run `program`
/// from arbitrary `initial_offsets`, OS interrupts disabled, and core
/// `c` receives `δ+1` cycles of front-end padding every `M·k^(c−1)`
/// cycles. The recorded window covers one full sweep.
///
/// # Panics
///
/// Panics if `initial_offsets.len()` differs from the plan's core count,
/// if the sweep exceeds `max_cycles` (choose a coarser δ), or if the rig
/// rejects the program.
pub fn dithered_droop(
    rig: &Rig,
    program: &Program,
    plan: DitherPlan,
    initial_offsets: &[u64],
    max_cycles: u64,
) -> DitherOutcome {
    assert_eq!(
        initial_offsets.len(),
        plan.cores() as usize,
        "one initial offset per core"
    );
    let sweep = plan.sweep_cycles();
    assert!(
        sweep <= max_cycles as u128,
        "sweep of {sweep} cycles exceeds cap {max_cycles}; use the approximate plan"
    );
    let rig = Rig {
        os: None,
        ..rig.clone()
    };
    let programs = vec![program.clone(); plan.cores() as usize];
    let spec = MeasureSpec {
        warmup_cycles: 1_000,
        record_cycles: sweep as u64,
        settle_cycles: 200_000,
        check_failure: false,
        trigger_below_nominal: None,
        envelope_decimation: (sweep as u64 / 2_048).max(1),
        keep_traces: false,
    };

    // Next padding deadline per dithered core.
    let mut next_pad: Vec<u128> = (1..plan.cores()).map(|c| plan.padding_period(c)).collect();
    let pad = plan.pad_cycles();
    let mut hook = |now: u64, chip: &mut audit_cpu::ChipSim| {
        for (i, deadline) in next_pad.iter_mut().enumerate() {
            if now as u128 >= *deadline {
                chip.inject_stall(i + 1, pad);
                *deadline += plan.padding_period(i as u32 + 1);
            }
        }
    };
    let measurement = rig.measure_with_hook(&programs, initial_offsets, spec, &mut hook);
    DitherOutcome {
        measurement,
        cycles: sweep as u64,
        plan,
    }
}

/// A static alignment sweep: measures the droop at each relative thread
/// offset.
///
/// Dithering uses constructive alignment to *maximize* droop; a
/// noise-aware scheduler (Reddi et al., discussed in the paper's §6)
/// wants the opposite — the *destructive* alignment that minimizes it.
/// Both are arg-extremes of the same sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentSweep {
    /// `(offset, max droop)` per sampled alignment; thread `i` starts at
    /// `i · offset` cycles.
    pub samples: Vec<(u64, f64)>,
}

impl AlignmentSweep {
    /// Runs the sweep: offsets `0, step, 2·step, …` up to `period`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or the rig rejects the program.
    pub fn run(
        rig: &Rig,
        program: &Program,
        threads: usize,
        period: u64,
        step: u64,
        spec: MeasureSpec,
    ) -> AlignmentSweep {
        assert!(step > 0, "sweep step must be positive");
        let samples = (0..period.max(1))
            .step_by(step as usize)
            .map(|offset| {
                let offsets: Vec<u64> = (0..threads as u64).map(|i| i * offset).collect();
                let droop = rig
                    .measure_with_offsets(&vec![program.clone(); threads], &offsets, spec)
                    .max_droop();
                (offset, droop)
            })
            .collect();
        AlignmentSweep { samples }
    }

    /// The constructive (worst-droop) alignment — what dithering finds.
    pub fn constructive(&self) -> (u64, f64) {
        self.samples
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty sweep")
    }

    /// The destructive (quietest) alignment — what a noise-aware
    /// scheduler would pick.
    pub fn destructive(&self) -> (u64, f64) {
        self.samples
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty sweep")
    }

    /// Droop head-room the scheduler buys: constructive − destructive.
    pub fn scheduling_headroom(&self) -> f64 {
        self.constructive().1 - self.destructive().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_stressmark::manual;

    #[test]
    fn paper_cost_numbers_reproduce() {
        // §3.B: 4 GHz, L+H = 24, M = 24×40 = 960.
        let clock = 4.0e9;
        let four = DitherPlan::exact(4, 24, 960);
        assert!(
            (four.sweep_seconds(clock) - 3.3e-3).abs() < 0.2e-3,
            "{}",
            four.sweep_seconds(clock)
        );

        let eight = DitherPlan::exact(8, 24, 960);
        let minutes = eight.sweep_seconds(clock) / 60.0;
        assert!((minutes - 18.35).abs() < 0.3, "{minutes} min");

        let approx = DitherPlan::approximate(8, 24, 960, 3);
        let ms = approx.sweep_seconds(clock) * 1e3;
        assert!((ms - 67.0).abs() < 3.0, "{ms} ms");
    }

    #[test]
    fn approximate_shrinks_search_space() {
        let exact = DitherPlan::exact(4, 24, 960);
        let approx = DitherPlan::approximate(4, 24, 960, 3);
        assert_eq!(exact.alignment_count(), 24u128.pow(3));
        assert_eq!(approx.alignment_count(), 6u128.pow(3));
        assert!(approx.sweep_cycles() < exact.sweep_cycles());
    }

    #[test]
    fn padding_periods_scale_geometrically() {
        let plan = DitherPlan::exact(4, 30, 300);
        assert_eq!(plan.padding_period(1), 300);
        assert_eq!(plan.padding_period(2), 300 * 30);
        assert_eq!(plan.padding_period(3), 300 * 900);
    }

    #[test]
    #[should_panic(expected = "multiple of delta+1")]
    fn approximate_requires_divisible_period() {
        let _ = DitherPlan::approximate(4, 25, 100, 3);
    }

    #[test]
    #[should_panic(expected = "not a dithered core")]
    fn reference_core_is_never_padded() {
        let _ = DitherPlan::exact(4, 24, 100).padding_period(0);
    }

    #[test]
    fn dithering_recovers_aligned_droop_from_misalignment() {
        // 2 threads, arbitrary initial skew. The sweep must come within
        // a few millivolts of the known aligned worst case.
        let rig = Rig::bulldozer();
        let program = manual::sm_res();
        let aligned = rig
            .measure_aligned(&vec![program.clone(); 2], MeasureSpec::ga_eval())
            .max_droop();

        let plan = DitherPlan::exact(2, 30, 600);
        let outcome = dithered_droop(&rig, &program, plan, &[0, 13], 100_000);
        assert!(
            outcome.max_droop() > 0.9 * aligned,
            "dithered {} vs aligned {aligned}",
            outcome.max_droop()
        );
    }

    #[test]
    fn dithered_beats_static_misalignment() {
        let rig = Rig::bulldozer();
        let program = manual::sm_res();
        // A deliberately destructive static alignment…
        let stuck = rig
            .measure_with_offsets(&vec![program.clone(); 2], &[0, 13], MeasureSpec::ga_eval())
            .max_droop();
        // …which the dither sweep must escape.
        let plan = DitherPlan::exact(2, 30, 600);
        let outcome = dithered_droop(&rig, &program, plan, &[0, 13], 100_000);
        assert!(
            outcome.max_droop() > stuck + 0.005,
            "dithered {} vs stuck {stuck}",
            outcome.max_droop()
        );
    }

    #[test]
    fn alignment_sweep_brackets_dithered_droop() {
        let rig = Rig::bulldozer();
        let program = manual::sm_res();
        let sweep = AlignmentSweep::run(
            &rig,
            &program,
            2,
            30,
            3,
            crate::harness::MeasureSpec::ga_eval(),
        );
        let (c_off, c_droop) = sweep.constructive();
        let (d_off, d_droop) = sweep.destructive();
        assert!(c_droop > d_droop, "sweep is flat: {sweep:?}");
        assert_ne!(c_off, d_off);
        // Offset 0 (perfect alignment) should be at or near the top.
        let at_zero = sweep.samples[0].1;
        assert!(
            at_zero > 0.85 * c_droop,
            "aligned {at_zero} vs best {c_droop}"
        );
        assert!(sweep.scheduling_headroom() > 0.01);
    }

    #[test]
    #[should_panic(expected = "exceeds cap")]
    fn oversized_sweep_is_rejected() {
        let rig = Rig::bulldozer();
        let plan = DitherPlan::exact(8, 24, 960);
        let _ = dithered_droop(&rig, &manual::sm_res(), plan, &[0; 8], 1_000_000);
    }
}
