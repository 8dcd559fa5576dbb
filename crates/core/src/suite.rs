//! Stressmark *suite* generation (paper §5.A.6).
//!
//! A key observation of the paper: "one type of stressmark may not apply
//! to all configurations in a multi-core system … AUDIT's flexibility and
//! ease of use can be leveraged to develop a suite of stressmarks that
//! can effectively exercise all significant usage scenarios in the
//! system." This module does precisely that: it enumerates the usage
//! scenarios of a rig (thread counts, mitigations), generates one
//! stressmark per scenario, and cross-evaluates every stressmark under
//! every scenario so the coverage claim can be verified rather than
//! assumed.

use audit_cpu::Program;

use crate::audit::{Audit, AuditOptions, StressmarkRun};
use crate::harness::{MeasureSpec, Rig};

/// One usage scenario to cover.
///
/// # Example
///
/// ```
/// use audit_core::suite::Scenario;
///
/// let set = Scenario::paper_set();
/// assert!(set.iter().any(|s| s.threads == 8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name for reports ("4T", "8T", "4T+throttle", …).
    pub name: String,
    /// Homogeneous threads to run.
    pub threads: usize,
    /// FPU throttle cap, if the scenario has the mitigation enabled.
    pub fpu_throttle: Option<u32>,
}

impl Scenario {
    /// The paper's Bulldozer-class scenario set: 4T, 8T, and 4T with the
    /// FPU throttle engaged.
    pub fn paper_set() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "4T".into(),
                threads: 4,
                fpu_throttle: None,
            },
            Scenario {
                name: "8T".into(),
                threads: 8,
                fpu_throttle: None,
            },
            Scenario {
                name: "4T+throttle".into(),
                threads: 4,
                fpu_throttle: Some(1),
            },
        ]
    }

    /// The rig configured for this scenario.
    pub(crate) fn rig_for(&self, base: &Rig) -> Rig {
        match self.fpu_throttle {
            Some(cap) => base.clone().with_fpu_throttle(cap),
            None => base.clone(),
        }
    }
}

/// One suite member: the scenario it was generated for and the result.
#[derive(Debug, Clone)]
pub struct SuiteMember {
    /// Scenario the stressmark was trained for.
    pub scenario: Scenario,
    /// The generation run (program, kernel, evidence).
    pub run: StressmarkRun,
}

/// A generated suite plus its cross-evaluation matrix.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Members, one per scenario, in scenario order.
    pub members: Vec<SuiteMember>,
    /// `matrix[i][j]` = max droop of member `i`'s program evaluated
    /// under scenario `j`, in volts.
    pub matrix: Vec<Vec<f64>>,
    /// The scenarios, in matrix column order.
    pub scenarios: Vec<Scenario>,
}

impl Suite {
    /// Generates one stressmark per scenario and cross-evaluates.
    ///
    /// # Panics
    ///
    /// Panics if `scenarios` is empty or a scenario exceeds the chip.
    pub fn generate(base: &Rig, opts: &AuditOptions, scenarios: Vec<Scenario>) -> Suite {
        assert!(!scenarios.is_empty(), "need at least one scenario");
        let members: Vec<SuiteMember> = scenarios
            .iter()
            .map(|scenario| {
                let audit = Audit::new(scenario.rig_for(base), opts.clone());
                let run = audit.generate_resonant(scenario.threads);
                SuiteMember {
                    scenario: scenario.clone(),
                    run,
                }
            })
            .collect();

        let spec = opts.eval_spec;
        let matrix = members
            .iter()
            .map(|m| {
                scenarios
                    .iter()
                    .map(|sc| evaluate(base, sc, &m.run.program, spec))
                    .collect()
            })
            .collect();
        Suite {
            members,
            matrix,
            scenarios,
        }
    }

    /// For scenario column `j`, the index of the member whose program
    /// droops most there.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn best_for_scenario(&self, j: usize) -> usize {
        (0..self.members.len())
            .max_by(|&a, &b| self.matrix[a][j].total_cmp(&self.matrix[b][j]))
            .expect("non-empty suite")
    }

    /// True if every scenario is best covered by the member generated
    /// for it — the suite claim of §5.A.6.
    pub fn is_self_consistent(&self) -> bool {
        (0..self.scenarios.len()).all(|j| self.best_for_scenario(j) == j)
    }
}

/// Evaluates a program's droop under a scenario on the base rig.
pub fn evaluate(base: &Rig, scenario: &Scenario, program: &Program, spec: MeasureSpec) -> f64 {
    scenario
        .rig_for(base)
        .measure_aligned(&vec![program.clone(); scenario.threads], spec)
        .max_droop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenarios_cover_threads_and_throttle() {
        let set = Scenario::paper_set();
        assert_eq!(set.len(), 3);
        assert!(set.iter().any(|s| s.threads == 8));
        assert!(set.iter().any(|s| s.fpu_throttle.is_some()));
    }

    #[test]
    fn scenario_rig_applies_throttle() {
        let base = Rig::bulldozer();
        let sc = Scenario {
            name: "t".into(),
            threads: 4,
            fpu_throttle: Some(1),
        };
        assert_eq!(sc.rig_for(&base).chip.module.fp_throttle, Some(1));
        let sc = Scenario {
            name: "t".into(),
            threads: 4,
            fpu_throttle: None,
        };
        assert_eq!(sc.rig_for(&base).chip.module.fp_throttle, None);
    }

    #[test]
    fn two_scenario_suite_generates_and_cross_evaluates() {
        // Small but real: 2T vs 2T+throttle. Each member should win its
        // own column (the §5.A.6 claim in miniature).
        let base = Rig::bulldozer();
        let scenarios = vec![
            Scenario {
                name: "2T".into(),
                threads: 2,
                fpu_throttle: None,
            },
            Scenario {
                name: "2T+throttle".into(),
                threads: 2,
                fpu_throttle: Some(1),
            },
        ];
        let suite = Suite::generate(&base, &AuditOptions::fast_demo(), scenarios);
        assert_eq!(suite.members.len(), 2);
        assert_eq!(suite.matrix.len(), 2);
        assert_eq!(suite.matrix[0].len(), 2);
        for row in &suite.matrix {
            for &v in row {
                assert!(v > 0.0 && v < 0.5, "implausible droop {v}");
            }
        }
        // The unthrottled specialist must beat the throttled one in the
        // unthrottled column.
        assert_eq!(suite.best_for_scenario(0), 0, "matrix: {:?}", suite.matrix);
    }
}
