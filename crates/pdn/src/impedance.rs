//! Frequency-domain (AC) analysis of the PDN.
//!
//! Computing the impedance seen by the die across frequency reproduces
//! the left half of the paper's Fig. 3: three impedance peaks — the
//! first, second, and third droop resonances — caused by each stage's
//! series inductance resonating with the decap downstream of it.

use crate::complex::{parallel, Complex};
use crate::model::PdnModel;

/// One detected impedance peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resonance {
    /// Peak frequency in Hz.
    pub frequency_hz: f64,
    /// Impedance magnitude at the peak, in ohms.
    pub impedance_ohms: f64,
}

/// Logarithmic impedance sweep of a [`PdnModel`] as seen from the die.
///
/// # Example
///
/// ```
/// use audit_pdn::{ImpedanceSweep, PdnModel};
///
/// let sweep = ImpedanceSweep::new(PdnModel::bulldozer_board()).with_points(2000);
/// let peaks = sweep.resonances();
/// assert_eq!(peaks.len(), 3); // third, second, first droop
/// ```
#[derive(Debug, Clone)]
pub struct ImpedanceSweep {
    pdn: PdnModel,
    points: usize,
}

impl ImpedanceSweep {
    /// Lowest swept frequency, Hz.
    const F_LO: f64 = 1e4;
    /// Highest swept frequency, Hz.
    const F_HI: f64 = 1e9;

    /// Creates a sweep over 10 kHz – 1 GHz with 4096 points.
    pub fn new(pdn: PdnModel) -> Self {
        ImpedanceSweep { pdn, points: 4096 }
    }

    /// Sets the number of logarithmically spaced sweep points.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn with_points(mut self, points: usize) -> Self {
        assert!(points >= 2, "sweep needs at least two points");
        self.points = points;
        self
    }

    /// Complex impedance seen from the die node at one frequency.
    pub fn impedance_at(&self, freq_hz: f64) -> Complex {
        impedance_at(&self.pdn, freq_hz)
    }

    /// Runs the sweep, returning `(frequency, |Z|)` pairs in ascending
    /// frequency order.
    pub fn run(&self) -> Vec<(f64, f64)> {
        let log_lo = Self::F_LO.ln();
        let log_hi = Self::F_HI.ln();
        (0..self.points)
            .map(|i| {
                let t = i as f64 / (self.points - 1) as f64;
                let f = (log_lo + t * (log_hi - log_lo)).exp();
                (f, self.impedance_at(f).norm())
            })
            .collect()
    }

    /// Detects impedance peaks (local maxima) across the sweep, ascending
    /// in frequency, so index 0 is the third droop and index 2 the first
    /// droop for the standard three-stage model.
    pub fn resonances(&self) -> Vec<Resonance> {
        let pts = self.run();
        let mut peaks = Vec::new();
        for w in pts.windows(3) {
            let [(_, a), (f, b), (_, c)] = [w[0], w[1], w[2]];
            if b > a && b >= c {
                peaks.push(Resonance {
                    frequency_hz: f,
                    impedance_ohms: b,
                });
            }
        }
        peaks
    }

    /// The highest-frequency resonance — the first droop (paper §2) —
    /// or `None` if the sweep range contains no peak.
    pub fn first_droop(&self) -> Option<Resonance> {
        self.resonances().into_iter().last()
    }
}

/// Impedance seen from the die node of `pdn` at `freq_hz`.
///
/// The ladder is folded from the VRM (an AC short) outward:
/// `Z = Zc_die ∥ (Zl_die + Zc_pkg ∥ (Zl_pkg + Zc_board ∥ Zl_board))`.
pub fn impedance_at(pdn: &PdnModel, freq_hz: f64) -> Complex {
    let w = 2.0 * std::f64::consts::PI * freq_hz;
    let s = pdn.stages();
    let z_l = |i: usize| Complex::new(s[i].series_r, w * s[i].series_l);
    let z_c = |i: usize| Complex::new(s[i].shunt_esr, -1.0 / (w * s[i].shunt_c));

    // Board stage: series branch returns to the VRM, an AC ground.
    let mut z = parallel(z_c(0), z_l(0));
    // Package, then die stage.
    z = parallel(z_c(1), z_l(1) + z);
    parallel(z_c(2), z_l(2) + z)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> ImpedanceSweep {
        ImpedanceSweep::new(PdnModel::bulldozer_board())
    }

    #[test]
    fn finds_three_resonances() {
        let peaks = sweep().resonances();
        assert_eq!(peaks.len(), 3, "peaks: {peaks:?}");
    }

    #[test]
    fn first_droop_is_in_paper_band() {
        let first = sweep().first_droop().unwrap();
        assert!(
            (50e6..200e6).contains(&first.frequency_hz),
            "first droop at {} Hz",
            first.frequency_hz
        );
    }

    #[test]
    fn first_droop_dominates_lower_resonances() {
        // Paper §2: second and third droops are typically smaller in
        // magnitude than the first droop.
        let peaks = sweep().resonances();
        let first = peaks.last().unwrap();
        for other in &peaks[..peaks.len() - 1] {
            assert!(
                first.impedance_ohms > other.impedance_ohms,
                "first {first:?} not above {other:?}"
            );
        }
    }

    #[test]
    fn resonance_ordering_matches_stage_estimates() {
        let pdn = PdnModel::bulldozer_board();
        let peaks = sweep().resonances();
        let estimates = [
            pdn.stages()[0].natural_frequency_hz(),
            pdn.stages()[1].natural_frequency_hz(),
            pdn.die_stage().natural_frequency_hz(),
        ];
        for (peak, est) in peaks.iter().zip(estimates) {
            let ratio = peak.frequency_hz / est;
            assert!(
                (0.5..2.0).contains(&ratio),
                "peak {peak:?} vs estimate {est}"
            );
        }
    }

    #[test]
    fn dc_limit_approaches_series_resistance() {
        let pdn = PdnModel::bulldozer_board();
        let z = impedance_at(&pdn, 1.0).norm();
        let r = pdn.total_series_resistance();
        assert!((z - r).abs() / r < 0.05, "z = {z}, r = {r}");
    }

    #[test]
    fn high_frequency_limit_is_die_cap() {
        // Far above the first droop the die decap shorts everything.
        let pdn = PdnModel::bulldozer_board();
        let f = 20e9;
        let z = impedance_at(&pdn, f).norm();
        let w = 2.0 * std::f64::consts::PI * f;
        let zc = (pdn.die_stage().shunt_esr.powi(2)
            + (1.0 / (w * pdn.die_stage().shunt_c)).powi(2))
        .sqrt();
        assert!((z - zc).abs() / zc < 0.1, "z = {z}, zc = {zc}");
    }

    #[test]
    fn phenom_first_droop_differs_from_bulldozer() {
        let b = sweep().first_droop().unwrap();
        let p = ImpedanceSweep::new(PdnModel::phenom_board())
            .first_droop()
            .unwrap();
        assert!((p.frequency_hz - b.frequency_hz).abs() / b.frequency_hz > 0.05);
    }

    #[test]
    fn run_is_monotone_in_frequency_axis() {
        let pts = sweep().with_points(256).run();
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(pts.len(), 256);
    }

    #[test]
    fn peak_impedance_is_milliohm_scale() {
        let first = sweep().first_droop().unwrap();
        assert!(
            (0.5e-3..10e-3).contains(&first.impedance_ohms),
            "peak |Z| = {}",
            first.impedance_ohms
        );
    }
}
