//! Critical-path failure model and the voltage-at-failure search.
//!
//! Paper §5.A.4's central insight: the maximum droop is *one* indicator
//! of failure risk, but not the only one — SM2 droops no more than
//! standard benchmarks yet fails at a much higher voltage because it
//! exercises the processor's sensitive paths. A path only causes a
//! timing failure if the supply is low *while that path is switching*.
//!
//! The model gives every executed operation a path sensitivity in
//! `[0, 1]` (see [`audit_cpu::OpProps::path_sensitivity`]); an operation
//! fails when the instantaneous die voltage is below that path's critical
//! voltage. High-sensitivity paths (multiplier carry chains, L1 access)
//! fail first as Vdd is lowered.

/// Voltage thresholds for timing failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Voltage below which the *most* sensitive path (sensitivity 1.0)
    /// fails.
    pub v_crit_max: f64,
    /// Additional headroom of the *least* sensitive path (sensitivity
    /// 0.0): it fails only below `v_crit_max − spread`.
    pub spread: f64,
}

impl FailureModel {
    /// A Bulldozer-like model on a 1.2 V rail: the most sensitive path
    /// fails below 0.98 V, the least sensitive below 0.80 V.
    pub const fn bulldozer() -> Self {
        FailureModel {
            v_crit_max: 0.98,
            spread: 0.18,
        }
    }

    /// A Phenom-like model on a 1.25 V rail (45 nm: higher threshold
    /// voltages, higher critical voltage).
    pub const fn phenom() -> Self {
        FailureModel {
            v_crit_max: 1.04,
            spread: 0.17,
        }
    }

    /// Critical voltage of a path with the given sensitivity.
    #[inline]
    pub fn v_crit(&self, sensitivity: f64) -> f64 {
        self.v_crit_max - (1.0 - sensitivity.clamp(0.0, 1.0)) * self.spread
    }

    /// True if an op exercising `sensitivity`-class paths fails at die
    /// voltage `v`. Sensitivity 0 (NOPs, idle) never fails.
    #[inline]
    pub fn fails(&self, v: f64, sensitivity: f64) -> bool {
        sensitivity > 0.0 && v < self.v_crit(sensitivity)
    }
}

impl Default for FailureModel {
    /// Defaults to the primary platform, [`FailureModel::bulldozer`].
    fn default() -> Self {
        Self::bulldozer()
    }
}

/// The voltage-at-failure stepping search (paper Table I).
///
/// Starting from `v_start`, lowers the operating voltage in fixed
/// decrements (the paper uses 12.5 mV) and asks the provided runner
/// whether the workload fails at each setting; stops at the first
/// failure.
///
/// # Example
///
/// ```
/// use audit_measure::VoltageAtFailure;
///
/// // A toy part that fails below 1.0 V.
/// let search = VoltageAtFailure::new(1.2, 0.0125);
/// let vf = search.run(|v| v < 1.0).expect("must fail eventually");
/// assert!(vf < 1.0 && vf > 0.98);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageAtFailure {
    v_start: f64,
    step: f64,
    v_floor: f64,
}

impl VoltageAtFailure {
    /// Creates a search from `v_start` downward in `step`-volt
    /// decrements. The search gives up below 50 % of `v_start`.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are not positive and finite.
    pub fn new(v_start: f64, step: f64) -> Self {
        assert!(
            v_start.is_finite() && v_start > 0.0,
            "v_start must be positive"
        );
        assert!(step.is_finite() && step > 0.0, "step must be positive");
        VoltageAtFailure {
            v_start,
            step,
            v_floor: v_start * 0.5,
        }
    }

    /// The paper's configuration: 12.5 mV decrements.
    pub fn paper(v_start: f64) -> Self {
        Self::new(v_start, 0.0125)
    }

    /// Runs the search. `fails_at(v)` must run the workload at nominal
    /// voltage `v` and report whether a failure occurred.
    ///
    /// Returns the first (highest) failing voltage, or `None` if the
    /// floor is reached without failure. Higher returned voltage ⇒ the
    /// workload is a better stressor (paper §5.A.4).
    pub fn run(&self, mut fails_at: impl FnMut(f64) -> bool) -> Option<f64> {
        let mut v = self.v_start;
        while v > self.v_floor {
            if fails_at(v) {
                return Some(v);
            }
            v -= self.step;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitive_paths_fail_first() {
        let m = FailureModel::bulldozer();
        assert!(m.v_crit(1.0) > m.v_crit(0.3));
        // Voltage between the two thresholds: only the sensitive path
        // fails.
        let v = (m.v_crit(1.0) + m.v_crit(0.3)) / 2.0;
        assert!(m.fails(v, 1.0));
        assert!(!m.fails(v, 0.3));
    }

    #[test]
    fn zero_sensitivity_never_fails() {
        let m = FailureModel::bulldozer();
        assert!(!m.fails(0.0, 0.0));
        assert!(!m.fails(-1.0, 0.0));
    }

    #[test]
    fn sensitivity_is_clamped() {
        let m = FailureModel::bulldozer();
        assert_eq!(m.v_crit(2.0), m.v_crit(1.0));
        assert_eq!(m.v_crit(-2.0), m.v_crit(0.0));
    }

    #[test]
    fn search_returns_first_failing_step() {
        let search = VoltageAtFailure::new(1.2, 0.0125);
        let vf = search.run(|v| v < 1.1).unwrap();
        assert!(vf < 1.1);
        assert!(vf > 1.1 - 0.0126, "overshot the failure point: {vf}");
    }

    #[test]
    fn search_gives_up_at_floor() {
        let search = VoltageAtFailure::new(1.0, 0.1);
        assert_eq!(search.run(|_| false), None);
    }

    #[test]
    fn stronger_stressor_fails_higher() {
        // Two synthetic workloads: one failing below 1.05, one below 0.95.
        let search = VoltageAtFailure::paper(1.2);
        let strong = search.run(|v| v < 1.05).unwrap();
        let weak = search.run(|v| v < 0.95).unwrap();
        assert!(strong > weak);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn rejects_zero_step() {
        let _ = VoltageAtFailure::new(1.2, 0.0);
    }
}
