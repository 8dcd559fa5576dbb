//! Automatic resonance-frequency detection (paper §3).
//!
//! Resonance frequencies vary across boards and even across processors
//! on the same board, so AUDIT "constructs a trivial stressmark
//! consisting of a loop of high-power instructions and NOP instructions
//! \[and\] varies the number of cycles in the loop to determine the length
//! that produces the worst-case droop". That loop length is the resonant
//! period used for all subsequent resonant-stressmark generation.

use audit_error::AuditError;
use audit_measure::codec;
use audit_measure::json::{Codec, JsonValue};
use serde::{Deserialize, Serialize};

use crate::codec::resume_error;
use crate::harness::{MeasureSpec, Rig};
use crate::patterns::ActivityPattern;

/// Result of a resonance sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResonanceResult {
    /// Loop period (cycles) that produced the worst droop.
    pub period_cycles: u32,
    /// The corresponding loop frequency at the rig's clock.
    pub frequency_hz: f64,
    /// Every `(period, max droop)` sample of the sweep.
    pub samples: Vec<(u32, f64)>,
}

impl ResonanceResult {
    /// Droop at the detected resonance.
    pub fn peak_droop(&self) -> f64 {
        self.samples
            .iter()
            .find(|(p, _)| *p == self.period_cycles)
            .map(|(_, d)| *d)
            .unwrap_or(0.0)
    }

    /// Encodes the sweep for a run-journal phase payload (samples as
    /// `[period, droop]` pairs, droops in shortest-round-trip form).
    pub fn to_json(&self) -> JsonValue {
        self.encode()
    }

    /// Decodes a sweep from a run-journal phase payload.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Resume`] if the payload is missing fields
    /// or malformed.
    pub fn from_json(v: &JsonValue) -> Result<Self, AuditError> {
        Self::decode(v).map_err(resume_error)
    }
}

codec! {
    record ResonanceResult "resonance payload" { period_cycles, frequency_hz, samples, }
}

/// Sweeps trivial high/NOP loops of varying period and returns the
/// period with the worst droop.
///
/// # Example
///
/// ```no_run
/// use audit_core::{resonance, harness::{MeasureSpec, Rig}};
///
/// let rig = Rig::bulldozer();
/// let found = resonance::find_resonance(&rig, 4, resonance::default_periods(),
///                                       MeasureSpec::ga_eval());
/// println!("resonance at {:.0} MHz", found.frequency_hz / 1e6);
/// ```
///
/// `threads` homogeneous copies are run, spread across modules, exactly
/// as the later GA evaluation will run them.
///
/// # Panics
///
/// Panics if `periods` is empty or `threads` is zero/too large for the
/// rig's chip.
pub fn find_resonance(
    rig: &Rig,
    threads: usize,
    periods: impl IntoIterator<Item = u32>,
    spec: MeasureSpec,
) -> ResonanceResult {
    let mut samples = Vec::new();
    for period in periods {
        assert!(period >= 2, "period must be at least 2 cycles");
        let kernel = ActivityPattern::square(period, 0).to_kernel(&rig.chip);
        let programs = vec![kernel.to_program(); threads];
        let droop = rig.measure_aligned(&programs, spec).max_droop();
        samples.push((period, droop));
    }
    assert!(
        !samples.is_empty(),
        "resonance sweep needs at least one period"
    );
    let (period_cycles, _) = samples
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty samples");
    ResonanceResult {
        period_cycles,
        frequency_hz: rig.chip.clock_hz / period_cycles as f64,
        samples,
    }
}

/// The default sweep grid: 8..=96 cycles in steps of 2 — covers
/// 33–400 MHz at 3.2 GHz, bracketing any plausible first droop with
/// fine enough resolution to land on the resonant period exactly.
pub fn default_periods() -> impl Iterator<Item = u32> {
    (8..=96).step_by(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_finds_first_droop_band() {
        let rig = Rig::bulldozer();
        let result = find_resonance(&rig, 4, default_periods(), MeasureSpec::ga_eval());
        // PDN first droop is ≈106 MHz → period ≈30 cycles at 3.2 GHz.
        // The electrical loop period also depends on pipeline behaviour,
        // so accept the band around it.
        assert!(
            (20..=44).contains(&result.period_cycles),
            "period {} samples {:?}",
            result.period_cycles,
            result.samples
        );
        assert!(
            result.peak_droop() > 0.03,
            "peak droop {}",
            result.peak_droop()
        );
    }

    #[test]
    fn resonant_period_beats_far_off_periods() {
        let rig = Rig::bulldozer();
        let result = find_resonance(&rig, 4, [12, 30, 90], MeasureSpec::ga_eval());
        let droop_at = |p: u32| result.samples.iter().find(|(x, _)| *x == p).unwrap().1;
        assert!(droop_at(30) > droop_at(90), "{:?}", result.samples);
        assert!(droop_at(30) > droop_at(12), "{:?}", result.samples);
    }

    #[test]
    fn phenom_resonance_differs() {
        let b = find_resonance(
            &Rig::bulldozer(),
            4,
            default_periods(),
            MeasureSpec::ga_eval(),
        );
        let p = find_resonance(&Rig::phenom(), 4, default_periods(), MeasureSpec::ga_eval());
        // Different die decap and clock → different measured frequency.
        let rel = (b.frequency_hz - p.frequency_hz).abs() / b.frequency_hz;
        assert!(
            rel > 0.02,
            "b {} Hz vs p {} Hz",
            b.frequency_hz,
            p.frequency_hz
        );
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn empty_sweep_panics() {
        let _ = find_resonance(&Rig::bulldozer(), 1, [], MeasureSpec::ga_eval());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = ResonanceResult {
            period_cycles: 26,
            frequency_hz: 1.234e8,
            samples: vec![(16, 0.031), (26, 0.08125), (32, 1.0 / 3.0)],
        };
        let back = ResonanceResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        for ((_, a), (_, b)) in r.samples.iter().zip(&back.samples) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(ResonanceResult::from_json(&audit_measure::json::JsonValue::Null).is_err());
    }
}
