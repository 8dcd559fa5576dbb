//! Cost functions (paper §3, footnote 1).
//!
//! AUDIT's default cost maximizes measured droop, but the framework
//! explicitly supports richer objectives: "maximizing the droop while
//! minimizing the average power or maximizing the droop while exercising
//! sensitive paths in the microarchitecture are also feasible and easy
//! to implement". All three are provided.

use crate::harness::Measurement;

/// Objective the genetic search maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostFunction {
    /// The paper's default: maximum voltage droop.
    #[default]
    MaxDroop,
    /// Droop per ampere of average current — finds stressmarks that
    /// droop hard *without* high average power (useful when the part
    /// would thermally throttle).
    DroopPerAmp,
    /// Droop weighted by the critical-path sensitivity the stressmark
    /// exercises — steers the search toward patterns that both droop and
    /// sit on timing-critical paths (the property that makes SM2
    /// dangerous, §5.A.4).
    SensitivePathDroop,
}

impl CostFunction {
    /// Scores a measurement; higher is fitter.
    pub fn score(self, m: &Measurement) -> f64 {
        match self {
            CostFunction::MaxDroop => m.max_droop(),
            CostFunction::DroopPerAmp => {
                if m.mean_amps <= 0.0 {
                    0.0
                } else {
                    m.max_droop() / m.mean_amps * 100.0
                }
            }
            CostFunction::SensitivePathDroop => m.max_droop() * (0.25 + 0.75 * m.max_path_seen),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_measure::{DroopStats, Histogram};

    fn measurement(v_min: f64, mean_amps: f64, max_path: f64) -> Measurement {
        let mut stats = DroopStats::new(1.2);
        stats.record(v_min);
        stats.record(1.2);
        Measurement {
            stats,
            histogram: Histogram::new(0.9, 1.3, 10),
            envelope: vec![],
            trigger_events: 0,
            mean_amps,
            ipc: 1.0,
            failed: false,
            max_path_seen: max_path,
            current_trace: vec![],
            voltage_trace: vec![],
        }
    }

    #[test]
    fn max_droop_ranks_by_droop() {
        let deep = measurement(1.05, 50.0, 0.5);
        let shallow = measurement(1.15, 50.0, 0.5);
        let c = CostFunction::MaxDroop;
        assert!(c.score(&deep) > c.score(&shallow));
    }

    #[test]
    fn droop_per_amp_penalizes_power() {
        let efficient = measurement(1.10, 20.0, 0.5);
        let hungry = measurement(1.10, 60.0, 0.5);
        let c = CostFunction::DroopPerAmp;
        assert!(c.score(&efficient) > c.score(&hungry));
    }

    #[test]
    fn droop_per_amp_handles_zero_power() {
        assert_eq!(
            CostFunction::DroopPerAmp.score(&measurement(1.1, 0.0, 0.5)),
            0.0
        );
    }

    #[test]
    fn sensitive_cost_rewards_critical_paths() {
        let sensitive = measurement(1.10, 50.0, 0.9);
        let benign = measurement(1.10, 50.0, 0.1);
        let c = CostFunction::SensitivePathDroop;
        assert!(c.score(&sensitive) > c.score(&benign));
    }
}
