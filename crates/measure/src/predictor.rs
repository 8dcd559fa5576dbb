//! Signature-based voltage-emergency prediction (Reddi et al.,
//! HPCA 2009 — the paper's reference \[22\]).
//!
//! The idea: voltage emergencies are preceded by recognizable activity
//! patterns; learn signatures of the cycles leading up to an emergency
//! and fire a prediction whenever the signature recurs, early enough for
//! a mitigation (rollback, throttle) to act. The signature here is the
//! quantized recent current-slew history — a microarchitecture-neutral
//! proxy for the event patterns the original used.
//!
//! Deterministic resonant stressmarks are the predictor's best case
//! (their pre-droop pattern repeats exactly); irregular benchmarks are
//! the hard case. The `ext_emergency_prediction` experiment quantifies
//! both.

use std::collections::HashMap;

/// Predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// Cycles of slew history per signature.
    pub history: usize,
    /// Quantization step for the current slew, amps.
    pub quantum: f64,
    /// Emergency threshold: voltage below this is an emergency.
    pub v_emergency: f64,
    /// Lead time: a prediction fired at cycle `t` covers an emergency in
    /// `(t, t + lead]`.
    pub lead_cycles: usize,
}

impl PredictorConfig {
    /// A Reddi-like default: 8-cycle signatures, 2 A slew bins, 16-cycle
    /// lead time.
    pub fn default_tuning(v_emergency: f64) -> Self {
        PredictorConfig {
            history: 8,
            quantum: 2.0,
            v_emergency,
            lead_cycles: 16,
        }
    }
}

/// Outcome counts of an evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Emergencies that had a prediction within the lead window.
    pub covered: u64,
    /// Emergencies with no preceding prediction.
    pub missed: u64,
    /// Predictions with no emergency in their lead window.
    pub false_alarms: u64,
    /// Predictions confirmed by an emergency.
    pub confirmed: u64,
}

impl PredictionStats {
    /// Fraction of emergencies predicted in time (recall).
    pub fn coverage(&self) -> f64 {
        let total = self.covered + self.missed;
        if total == 0 {
            1.0
        } else {
            self.covered as f64 / total as f64
        }
    }

    /// Fraction of predictions that were right (precision).
    pub fn precision(&self) -> f64 {
        let total = self.confirmed + self.false_alarms;
        if total == 0 {
            1.0
        } else {
            self.confirmed as f64 / total as f64
        }
    }
}

/// The signature predictor: train on one capture, evaluate on another.
#[derive(Debug, Clone)]
pub struct SignaturePredictor {
    cfg: PredictorConfig,
    /// Signatures observed to precede an emergency.
    emergency_signatures: HashMap<u64, u64>,
}

impl SignaturePredictor {
    /// Creates an untrained predictor.
    pub fn new(cfg: PredictorConfig) -> Self {
        SignaturePredictor {
            cfg,
            emergency_signatures: HashMap::new(),
        }
    }

    /// Number of distinct signatures learned.
    pub fn signature_count(&self) -> usize {
        self.emergency_signatures.len()
    }

    fn signatures(&self, current: &[f64]) -> Vec<(usize, u64)> {
        // Signature at cycle t hashes quantized slews over
        // [t-history, t).
        let h = self.cfg.history;
        let mut out = Vec::new();
        if current.len() <= h + 1 {
            return out;
        }
        for t in (h + 1)..current.len() {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for k in (t - h)..t {
                let slew = current[k] - current[k - 1];
                let q = (slew / self.cfg.quantum).round() as i64;
                hash ^= q as u64;
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
            out.push((t, hash));
        }
        out
    }

    /// Learns emergency-preceding signatures from paired current and
    /// voltage traces.
    ///
    /// # Panics
    ///
    /// Panics if the traces differ in length.
    pub fn train(&mut self, current: &[f64], voltage: &[f64]) {
        assert_eq!(current.len(), voltage.len(), "trace length mismatch");
        for (t, sig) in self.signatures(current) {
            let window_end = (t + self.cfg.lead_cycles).min(voltage.len());
            let emergency = voltage[t..window_end]
                .iter()
                .any(|&v| v < self.cfg.v_emergency);
            if emergency {
                *self.emergency_signatures.entry(sig).or_insert(0) += 1;
            }
        }
    }

    /// Evaluates on (typically held-out) traces.
    ///
    /// # Panics
    ///
    /// Panics if the traces differ in length.
    pub fn evaluate(&self, current: &[f64], voltage: &[f64]) -> PredictionStats {
        assert_eq!(current.len(), voltage.len(), "trace length mismatch");
        let mut stats = PredictionStats::default();
        let n = voltage.len();
        // For each cycle, did we predict, and was there an emergency?
        let mut covered = vec![false; n];
        for (t, sig) in self.signatures(current) {
            if self.emergency_signatures.contains_key(&sig) {
                let end = (t + self.cfg.lead_cycles).min(n);
                let hit = voltage[t..end].iter().any(|&v| v < self.cfg.v_emergency);
                if hit {
                    stats.confirmed += 1;
                    for c in covered.iter_mut().take(end).skip(t) {
                        *c = true;
                    }
                } else {
                    stats.false_alarms += 1;
                }
            }
        }
        // Count emergency *onsets* (downward crossings) and whether each
        // was covered by a prediction window.
        let mut below = false;
        for t in 0..n {
            let b = voltage[t] < self.cfg.v_emergency;
            if b && !below {
                if covered[t] {
                    stats.covered += 1;
                } else {
                    stats.missed += 1;
                }
            }
            below = b;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic deterministic "resonant" pair of traces: current
    /// square wave, voltage dipping a fixed delay after each rising
    /// edge.
    fn resonant_traces(n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut current = Vec::with_capacity(n);
        let mut voltage = Vec::with_capacity(n);
        for t in 0..n {
            let hi = (t / 15) % 2 == 0;
            current.push(if hi { 50.0 } else { 10.0 });
            // Emergency 5 cycles into each high phase.
            let phase = t % 30;
            voltage.push(if (5..9).contains(&phase) { 1.05 } else { 1.18 });
        }
        (current, voltage)
    }

    fn noise_traces(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut x = seed | 1;
        let mut rnd = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let current: Vec<f64> = (0..n).map(|_| 10.0 + 40.0 * rnd()).collect();
        let voltage: Vec<f64> = (0..n)
            .map(|_| if rnd() < 0.01 { 1.05 } else { 1.18 })
            .collect();
        (current, voltage)
    }

    #[test]
    fn periodic_emergencies_are_fully_predicted() {
        let cfg = PredictorConfig::default_tuning(1.10);
        let mut p = SignaturePredictor::new(cfg);
        let (ci, vi) = resonant_traces(3_000);
        p.train(&ci, &vi);
        assert!(p.signature_count() > 0);
        let (ct, vt) = resonant_traces(3_000);
        let stats = p.evaluate(&ct, &vt);
        assert!(stats.coverage() > 0.95, "coverage {}", stats.coverage());
        // Flat-slew signatures recur off-phase, so precision is good but
        // not perfect even on a deterministic trace.
        assert!(stats.precision() > 0.6, "precision {}", stats.precision());
    }

    #[test]
    fn random_emergencies_are_hard() {
        let cfg = PredictorConfig::default_tuning(1.10);
        let mut p = SignaturePredictor::new(cfg);
        let (ci, vi) = noise_traces(3_000, 1);
        p.train(&ci, &vi);
        let (ct, vt) = noise_traces(3_000, 999);
        let stats = p.evaluate(&ct, &vt);
        // Random slews never produce matching signatures on held-out
        // data: the emergencies go unpredicted.
        assert!(
            stats.coverage() < 0.5,
            "noise should not be predictable: coverage {}",
            stats.coverage()
        );
        assert!(stats.missed > 0);
    }

    #[test]
    fn untrained_predictor_never_fires() {
        let cfg = PredictorConfig::default_tuning(1.10);
        let p = SignaturePredictor::new(cfg);
        let (ct, vt) = resonant_traces(1_000);
        let stats = p.evaluate(&ct, &vt);
        assert_eq!(stats.confirmed + stats.false_alarms, 0);
        assert_eq!(stats.covered, 0);
        assert!(stats.missed > 0);
    }

    #[test]
    fn quiet_traces_have_perfect_vacuous_scores() {
        let cfg = PredictorConfig::default_tuning(1.10);
        let p = SignaturePredictor::new(cfg);
        let current = vec![20.0; 500];
        let voltage = vec![1.18; 500];
        let stats = p.evaluate(&current, &voltage);
        assert_eq!(stats.coverage(), 1.0);
        assert_eq!(stats.precision(), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_traces_panic() {
        let cfg = PredictorConfig::default_tuning(1.10);
        let mut p = SignaturePredictor::new(cfg);
        p.train(&[1.0, 2.0], &[1.0]);
    }
}
