//! The chip current model.
//!
//! Current (in amps on the core supply rail) is what couples the
//! processor model to the PDN. The model is deliberately simple but
//! captures every effect the paper relies on:
//!
//! * per-op switching current on issue, scaled by operand data toggling
//!   (paper §3: data values change droop by ≈10 %),
//! * clock-gated idle vs active core current — the Bulldozer-class part
//!   gates aggressively (big swing); the Phenom-class part does not
//!   (paper §5.C: "less variation between high- and low-power regions"),
//! * fetch/decode current per instruction, which is all a NOP costs,
//! * constant uncore (L3 + northbridge) current plus a bump per off-core
//!   cache miss.

use crate::isa::Opcode;

/// Current-model parameters for one chip generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Core current when clock-gated idle (amps).
    pub core_idle_amps: f64,
    /// Core baseline current when executing (clock trees, bypass,
    /// sequencing), before per-op contributions (amps).
    pub core_active_amps: f64,
    /// Front-end current per instruction fetched+decoded (amps).
    pub fetch_amps_per_inst: f64,
    /// Constant uncore current: L3, memory controller, links (amps).
    pub uncore_amps: f64,
    /// Extra current on the cycle an off-core miss is serviced (amps).
    pub miss_amps: f64,
    /// Scale factor applied to every per-op issue current (models
    /// process generation / SIMD width differences between chips).
    pub op_scale: f64,
    /// Peak-to-peak span of the data-toggle modulation. `0.1` means an
    /// op's switching current varies ±5 % with operand data, which puts
    /// the worst-case-vs-best-case data effect on the droop at the
    /// paper's measured ≈10 %.
    pub toggle_span: f64,
}

impl EnergyModel {
    /// Bulldozer-class model: aggressive clock gating, wide SIMD.
    pub const fn bulldozer() -> Self {
        EnergyModel {
            core_idle_amps: 0.30,
            core_active_amps: 1.30,
            fetch_amps_per_inst: 0.12,
            uncore_amps: 6.0,
            miss_amps: 1.5,
            op_scale: 1.0,
            toggle_span: 0.10,
        }
    }

    /// Phenom-class model: weaker gating (higher idle floor, smaller
    /// swing), narrower FP datapath.
    pub const fn phenom() -> Self {
        EnergyModel {
            core_idle_amps: 1.20,
            core_active_amps: 2.00,
            fetch_amps_per_inst: 0.10,
            uncore_amps: 5.0,
            miss_amps: 1.2,
            op_scale: 0.75,
            toggle_span: 0.10,
        }
    }

    /// Switching current for issuing `op` with the given operand toggle
    /// activity, in amps.
    ///
    /// `toggle = 0.5` is the neutral midpoint; AUDIT's alternating data
    /// patterns correspond to `toggle = 1.0`.
    #[inline]
    pub fn issue_amps(&self, op: Opcode, toggle: f64) -> f64 {
        let p = op.props();
        p.issue_amps * self.op_scale * self.toggle_gain(toggle)
    }

    /// Per-busy-cycle current of an unpipelined op, in amps.
    #[inline]
    pub(crate) fn busy_amps(&self, op: Opcode) -> f64 {
        op.props().busy_amps * self.op_scale
    }

    /// Data-toggle modulation gain: `1 ± toggle_span/2`.
    #[inline]
    pub(crate) fn toggle_gain(&self, toggle: f64) -> f64 {
        1.0 - self.toggle_span / 2.0 + self.toggle_span * toggle.clamp(0.0, 1.0)
    }
}

impl Default for EnergyModel {
    /// Defaults to the primary platform, [`EnergyModel::bulldozer`].
    fn default() -> Self {
        Self::bulldozer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_spans_five_percent_each_way() {
        let m = EnergyModel::bulldozer();
        let lo = m.issue_amps(Opcode::SimdFma, 0.0);
        let mid = m.issue_amps(Opcode::SimdFma, 0.5);
        let hi = m.issue_amps(Opcode::SimdFma, 1.0);
        assert!((hi / mid - 1.05).abs() < 1e-9);
        assert!((lo / mid - 0.95).abs() < 1e-9);
    }

    #[test]
    fn toggle_is_clamped() {
        let m = EnergyModel::bulldozer();
        assert_eq!(m.toggle_gain(2.0), m.toggle_gain(1.0));
        assert_eq!(m.toggle_gain(-1.0), m.toggle_gain(0.0));
    }

    #[test]
    fn phenom_has_smaller_power_swing() {
        let b = EnergyModel::bulldozer();
        let p = EnergyModel::phenom();
        // Higher idle floor and lower op currents → smaller di/dt swing.
        assert!(p.core_idle_amps > b.core_idle_amps);
        assert!(p.issue_amps(Opcode::SimdFma, 1.0) < b.issue_amps(Opcode::SimdFma, 1.0));
        let b_swing = b.core_active_amps - b.core_idle_amps;
        let p_swing = p.core_active_amps - p.core_idle_amps;
        assert!(p_swing < b_swing);
    }

    #[test]
    fn busy_amps_only_for_unpipelined() {
        let m = EnergyModel::bulldozer();
        assert!(m.busy_amps(Opcode::FDiv) > 0.0);
        assert_eq!(m.busy_amps(Opcode::IAdd), 0.0);
    }
}
