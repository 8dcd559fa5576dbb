//! Closed-form solutions for a single series-RLC stage — the numeric
//! ground truth used to validate the RK4 transient solver.
//!
//! A single stage (series R, L feeding a shunt C loaded by a current
//! step) is the textbook damped second-order system. Its step response
//! has an exact solution, so the solver can be checked against analysis
//! rather than against itself: natural frequency, damping, overshoot,
//! and the time-domain waveform all come from the formulas below.

/// A single series-RLC stage: `V ── R ── L ──●── load`, with `C` from
/// the node to ground.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesRlc {
    /// Series resistance, ohms.
    pub r: f64,
    /// Series inductance, henries.
    pub l: f64,
    /// Shunt capacitance, farads.
    pub c: f64,
}

impl SeriesRlc {
    /// Creates a stage.
    ///
    /// # Panics
    ///
    /// Panics unless all elements are positive and finite.
    pub fn new(r: f64, l: f64, c: f64) -> Self {
        assert!(r > 0.0 && r.is_finite(), "resistance must be positive");
        assert!(l > 0.0 && l.is_finite(), "inductance must be positive");
        assert!(c > 0.0 && c.is_finite(), "capacitance must be positive");
        SeriesRlc { r, l, c }
    }

    /// Undamped natural angular frequency `ω₀ = 1/√(LC)`, rad/s.
    pub fn omega0(&self) -> f64 {
        1.0 / (self.l * self.c).sqrt()
    }

    /// Damping ratio `ζ = (R/2)·√(C/L)`.
    pub fn zeta(&self) -> f64 {
        self.r / 2.0 * (self.c / self.l).sqrt()
    }

    /// Quality factor `Q = 1/(2ζ)`.
    pub fn q(&self) -> f64 {
        1.0 / (2.0 * self.zeta())
    }

    /// Damped angular frequency `ω_d = ω₀·√(1−ζ²)` (underdamped only).
    ///
    /// # Panics
    ///
    /// Panics if the stage is not underdamped (`ζ ≥ 1`).
    pub fn omega_d(&self) -> f64 {
        let z = self.zeta();
        assert!(z < 1.0, "stage is not underdamped (ζ = {z})");
        self.omega0() * (1.0 - z * z).sqrt()
    }

    /// Exact node-voltage deviation at time `t` after a load-current
    /// step of `delta_i` amps, for an underdamped stage initially at DC.
    ///
    /// The deviation is relative to the *final* DC level (which is
    /// `−ΔI·R` below the source): at `t = 0` the node still sits `ΔI·R`
    /// above the final level and rings down around it:
    ///
    /// `v(t) − v(∞) = ΔI·R·e^(−ζω₀t)·(cos ω_d t + (ζω₀ − ΔI-term)/ω_d …)`
    ///
    /// More usefully for droop work, the dominant term is the inductive
    /// undershoot `−ΔI·√(L/C)·e^(−ζω₀t)·sin(ω_d t)/√(1−ζ²)`; this
    /// method returns the full expression.
    ///
    /// # Panics
    ///
    /// Panics if the stage is not underdamped.
    pub fn step_response_deviation(&self, delta_i: f64, t: f64) -> f64 {
        let z = self.zeta();
        let w0 = self.omega0();
        let wd = self.omega_d();
        let decay = (-z * w0 * t).exp();
        // v(t) = v(∞) + ΔI·R·decay·cos(ωd t)
        //        − ΔI·(1/C − R·ζ·ω₀) / ωd · decay·sin(ωd t)
        // derived from v(0+)−v(∞)=ΔI·R, v'(0+) = −ΔI/C.
        let a = delta_i * self.r;
        let b = (-delta_i / self.c + a * z * w0) / wd;
        decay * (a * (wd * t).cos() + b * (wd * t).sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PdnModel, PdnStage};
    use crate::transient::Transient;

    /// The die stage of the standard board, as an isolated RLC.
    fn die_stage_rlc() -> SeriesRlc {
        let pdn = PdnModel::bulldozer_board();
        let s = pdn.die_stage();
        SeriesRlc::new(s.series_r + s.shunt_esr, s.series_l, s.shunt_c)
    }

    #[test]
    fn frequency_and_q_match_stage_estimates() {
        let pdn = PdnModel::bulldozer_board();
        let s = pdn.die_stage();
        let rlc = die_stage_rlc();
        let f = rlc.omega0() / (2.0 * std::f64::consts::PI);
        assert!((f - s.natural_frequency_hz()).abs() / f < 1e-9);
        let q = (s.series_l / s.shunt_c).sqrt() / (s.series_r + s.shunt_esr);
        assert!((rlc.q() - q).abs() / rlc.q() < 1e-9);
    }

    #[test]
    fn step_response_initial_conditions() {
        let rlc = die_stage_rlc();
        let di = 50.0;
        // v(0+) − v(∞) = ΔI·R.
        let v0 = rlc.step_response_deviation(di, 0.0);
        assert!((v0 - di * rlc.r).abs() < 1e-9);
        // Decays to zero.
        let t_late = 50.0 * 2.0 * std::f64::consts::PI / rlc.omega_d();
        assert!(rlc.step_response_deviation(di, t_late).abs() < 1e-6);
    }

    /// The RK4 solver against the closed form: a single-stage network
    /// (the other stages made electrically transparent) must match the
    /// analytic step response to sub-millivolt accuracy.
    #[test]
    fn rk4_matches_closed_form_on_single_stage() {
        // Board/package stages huge C + tiny L ⇒ ideal source feed.
        let transparent = PdnStage::new(1e-15, 1e-9, 10.0, 1e-9);
        let die = PdnStage::new(0.65e-12, 0.03e-3, 3.9e-6, 1e-12);
        // `new_unchecked`: the transparent stages are deliberately
        // degenerate and would fail validation.
        let pdn = PdnModel::new_unchecked(
            1.2,
            crate::loadline::LoadLine::disabled(),
            [transparent, transparent, die],
        );
        let clock = 3.2e9;
        let mut sim = Transient::new(&pdn, clock);
        sim.settle(0.0, 10_000);

        let rlc = SeriesRlc::new(die.series_r, die.series_l, die.shunt_c);
        let di = 60.0;
        let mut max_err = 0.0f64;
        for cycle in 1..=1_500u64 {
            let v = sim.step(di);
            let t = cycle as f64 / clock;
            let analytic = 1.2 - di * rlc.r + rlc.step_response_deviation(di, t);
            max_err = max_err.max((v - analytic).abs());
        }
        assert!(max_err < 1.5e-3, "max |RK4 − analytic| = {max_err}");
    }

    #[test]
    #[should_panic(expected = "underdamped")]
    fn overdamped_stage_rejects_omega_d() {
        let rlc = SeriesRlc::new(10.0, 1e-9, 1e-3); // ζ ≫ 1
        let _ = rlc.omega_d();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_elements() {
        let _ = SeriesRlc::new(0.0, 1e-9, 1e-6);
    }
}
