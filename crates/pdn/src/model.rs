//! The lumped three-stage RLC model of a processor power-distribution
//! network (paper Fig. 2).
//!
//! Current is supplied by the voltage-regulator module (VRM), flows
//! through the motherboard (stage 0), the package (stage 1) and the
//! die-attach (stage 2) before reaching the on-die load. Each stage has a
//! series inductance + resistance and a shunt decoupling capacitor with
//! effective series resistance (ESR). The series combination of each
//! stage's inductance with the next capacitor downstream produces the
//! first/second/third droop resonances described in §2 of the paper.

use audit_error::AuditError;

use crate::loadline::LoadLine;

/// One ladder stage: series `L`/`R` followed by a shunt decap `C` with ESR.
///
/// All values are SI units (henry, ohm, farad).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdnStage {
    /// Series parasitic inductance of this stage (H).
    pub series_l: f64,
    /// Series parasitic resistance of this stage (Ω).
    pub series_r: f64,
    /// Shunt decoupling capacitance at the downstream node (F).
    pub shunt_c: f64,
    /// Effective series resistance of the decap (Ω).
    pub shunt_esr: f64,
}

impl PdnStage {
    /// Creates a stage, without validation (see [`PdnModel::validate`]).
    pub const fn new(series_l: f64, series_r: f64, shunt_c: f64, shunt_esr: f64) -> Self {
        PdnStage {
            series_l,
            series_r,
            shunt_c,
            shunt_esr,
        }
    }

    /// Undamped natural frequency `1 / (2π √(L·C))` of this stage's own
    /// series L against its own shunt C, in Hz.
    ///
    /// This is the textbook estimate for the droop resonance that this
    /// stage contributes (paper §2).
    pub fn natural_frequency_hz(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * (self.series_l * self.shunt_c).sqrt())
    }
}

/// Full PDN description: VRM + three ladder stages.
///
/// Build one with a preset ([`PdnModel::bulldozer_board`],
/// [`PdnModel::phenom_board`]) or configure stages directly with the
/// validating [`PdnModel::new`].
///
/// # Example
///
/// ```
/// use audit_pdn::PdnModel;
///
/// let pdn = PdnModel::bulldozer_board();
/// let f1 = pdn.die_stage().natural_frequency_hz();
/// // First droop resonance is in the 50–200 MHz band (paper §2).
/// assert!((50e6..200e6).contains(&f1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PdnModel {
    nominal_voltage: f64,
    load_line: LoadLine,
    stages: [PdnStage; 3],
}

impl PdnModel {
    /// Creates a model from explicit stages, validating every parameter.
    ///
    /// `stages[0]` is the motherboard, `stages[1]` the package,
    /// `stages[2]` the die attach.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] naming the first offending
    /// stage/field, or an invalid nominal voltage.
    pub fn new(
        nominal_voltage: f64,
        load_line: LoadLine,
        stages: [PdnStage; 3],
    ) -> Result<Self, AuditError> {
        let pdn = Self::new_unchecked(nominal_voltage, load_line, stages);
        pdn.validate()?;
        Ok(pdn)
    }

    /// Creates a model from explicit stages without validation — for
    /// presets and callers that deliberately build degenerate networks
    /// (e.g. electrically transparent stages in solver tests).
    pub const fn new_unchecked(
        nominal_voltage: f64,
        load_line: LoadLine,
        stages: [PdnStage; 3],
    ) -> Self {
        PdnModel {
            nominal_voltage,
            load_line,
            stages,
        }
    }

    /// The PDN of the primary evaluation platform: a board carrying the
    /// four-module Bulldozer-class processor.
    ///
    /// Values are chosen so that the three droop resonances land at the
    /// frequencies the paper reports as typical: first droop ≈ 100 MHz
    /// (package + die inductance against on-die decap, 50–200 MHz band),
    /// second droop ≈ 3 MHz, third droop ≈ 500 kHz.
    pub fn bulldozer_board() -> Self {
        PdnModel {
            nominal_voltage: 1.2,
            load_line: LoadLine::disabled(),
            stages: [
                // Motherboard: bulk decap against board + VRM inductance
                // (third droop ≈ 250 kHz, damped by bulk-cap ESR, which
                // also provides the second-droop loop damping).
                PdnStage::new(1.0e-9, 0.40e-3, 400.0e-6, 1.20e-3),
                // Package: package decap against socket + package leads
                // (second droop ≈ 2.9 MHz). The decap ESR must stay low:
                // it sits inside the first-droop loop.
                PdnStage::new(100.0e-12, 0.10e-3, 30.0e-6, 0.015e-3),
                // Die: effective on-die decap against Lpkg2 + Ldie
                // (first droop ≈ 100 MHz, loop Q ≈ 9).
                PdnStage::new(0.65e-12, 0.015e-3, 3.9e-6, 0.015e-3),
            ],
        }
    }

    /// The same board re-socketed with the older 45-nm Phenom II-class
    /// processor (paper §5.C): board and package stages are unchanged,
    /// only the die stage differs (smaller on-die decap, slightly larger
    /// die inductance), which moves the first droop resonance.
    pub fn phenom_board() -> Self {
        let mut pdn = Self::bulldozer_board();
        pdn.nominal_voltage = 1.25;
        // Smaller die, less on-die decap, slightly larger effective die
        // inductance: first droop moves up to ≈ 113 MHz.
        pdn.stages[2] = PdnStage::new(0.90e-12, 0.05e-3, 2.2e-6, 0.03e-3);
        pdn
    }

    /// Nominal (no-load) supply voltage in volts.
    pub fn nominal_voltage(&self) -> f64 {
        self.nominal_voltage
    }

    /// Replaces the nominal voltage, e.g. for voltage-at-failure searches
    /// that lower Vdd in 12.5 mV steps (paper §5.A.4).
    pub fn with_nominal_voltage(mut self, volts: f64) -> Self {
        self.nominal_voltage = volts;
        self
    }

    /// The VRM load-line model.
    pub fn load_line(&self) -> LoadLine {
        self.load_line
    }

    /// Replaces the load-line model. The paper disables the load line for
    /// all droop measurements to isolate di/dt effects (§5.A).
    pub fn with_load_line(mut self, load_line: LoadLine) -> Self {
        self.load_line = load_line;
        self
    }

    /// All three stages, board first.
    pub fn stages(&self) -> &[PdnStage; 3] {
        &self.stages
    }

    /// Replaces one stage (0 = board, 1 = package, 2 = die).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 3`.
    pub fn with_stage(mut self, index: usize, stage: PdnStage) -> Self {
        self.stages[index] = stage;
        self
    }

    /// The die stage, whose resonance is the first droop.
    pub fn die_stage(&self) -> &PdnStage {
        &self.stages[2]
    }

    /// Total series resistance from VRM to die (IR-drop path), in ohms.
    pub fn total_series_resistance(&self) -> f64 {
        self.stages.iter().map(|s| s.series_r).sum()
    }

    /// Checks that every parameter is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] naming the first offending
    /// stage/field (as `stages[i].<field>`) or the nominal voltage.
    pub fn validate(&self) -> Result<(), AuditError> {
        if !(self.nominal_voltage.is_finite() && self.nominal_voltage > 0.0) {
            return Err(AuditError::invalid(
                "PdnModel",
                "nominal_voltage",
                format!(
                    "must be positive and finite (got {:?})",
                    self.nominal_voltage
                ),
            ));
        }
        const STAGE_FIELDS: [&str; 3] = ["stages[0]", "stages[1]", "stages[2]"];
        for (i, s) in self.stages.iter().enumerate() {
            let fields = [
                (s.series_l, "series_l"),
                (s.series_r, "series_r"),
                (s.shunt_c, "shunt_c"),
                (s.shunt_esr, "shunt_esr"),
            ];
            for (v, name) in fields {
                if !(v.is_finite() && v > 0.0) {
                    return Err(AuditError::invalid(
                        "PdnModel",
                        STAGE_FIELDS[i],
                        format!("{name} must be positive and finite (got {v:?})"),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for PdnModel {
    /// The default model is the paper's primary platform,
    /// [`PdnModel::bulldozer_board`].
    fn default() -> Self {
        Self::bulldozer_board()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        PdnModel::bulldozer_board().validate().unwrap();
        PdnModel::phenom_board().validate().unwrap();
    }

    #[test]
    fn first_droop_band_matches_paper() {
        let f1 = PdnModel::bulldozer_board()
            .die_stage()
            .natural_frequency_hz();
        assert!((50e6..200e6).contains(&f1), "f1 = {f1}");
    }

    #[test]
    fn resonances_are_ordered_fast_to_slow() {
        let pdn = PdnModel::bulldozer_board();
        let f1 = pdn.die_stage().natural_frequency_hz();
        let f2 = pdn.stages()[1].natural_frequency_hz();
        let f3 = pdn.stages()[0].natural_frequency_hz();
        assert!(f1 > f2 && f2 > f3, "f1={f1} f2={f2} f3={f3}");
    }

    #[test]
    fn phenom_changes_only_die_stage() {
        let b = PdnModel::bulldozer_board();
        let p = PdnModel::phenom_board();
        assert_eq!(b.stages()[..2], p.stages()[..2]);
        assert_ne!(b.die_stage(), p.die_stage());
    }

    #[test]
    fn validate_rejects_zero_inductance() {
        let bad = PdnModel::bulldozer_board().with_stage(1, PdnStage::new(0.0, 1e-3, 1e-6, 1e-3));
        let err = bad.validate().unwrap_err();
        match &err {
            AuditError::InvalidConfig {
                context,
                field,
                message,
            } => {
                assert_eq!(*context, "PdnModel");
                assert_eq!(*field, "stages[1]");
                assert!(message.contains("series_l"), "message = {message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_nan_voltage() {
        let bad = PdnModel::bulldozer_board().with_nominal_voltage(f64::NAN);
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("nominal_voltage"), "err = {err}");
    }

    #[test]
    fn new_validates_and_new_unchecked_does_not() {
        let stages = *PdnModel::bulldozer_board().stages();
        let ok = PdnModel::new(1.2, LoadLine::disabled(), stages).unwrap();
        assert_eq!(ok, PdnModel::bulldozer_board().with_nominal_voltage(1.2));

        let mut bad_stages = stages;
        bad_stages[2].shunt_c = -1.0;
        assert!(PdnModel::new(1.2, LoadLine::disabled(), bad_stages).is_err());
        // The unchecked constructor accepts the same degenerate input.
        let _ = PdnModel::new_unchecked(1.2, LoadLine::disabled(), bad_stages);
    }

    #[test]
    fn quality_factor_is_reasonable() {
        // An underdamped first droop (Q well above 1) is what makes
        // resonant stressmarks build amplitude (paper Fig. 4).
        let s = *PdnModel::bulldozer_board().die_stage();
        let q = (s.series_l / s.shunt_c).sqrt() / (s.series_r + s.shunt_esr);
        assert!(q > 2.0 && q < 50.0, "Q = {q}");
    }

    #[test]
    fn error_display_is_lowercase_and_concise() {
        let bad = PdnModel::bulldozer_board().with_stage(2, PdnStage::new(1e-12, 1e-3, 0.0, 1e-3));
        let msg = bad.validate().unwrap_err().to_string();
        assert!(msg.contains("stages[2]"), "msg = {msg}");
        assert!(!msg.ends_with('.'));
    }
}
