//! The oscilloscope model.
//!
//! The paper's scope records at 5 GS/s with a droop trigger, and Fig. 6's
//! 100 ms natural-dithering shot uses a 100 MS/s envelope view. This
//! model does both: every simulation-cycle voltage is folded into summary
//! statistics and a histogram, while a decimated min-envelope trace is
//! kept for waveform output, and droop-trigger crossings are counted.

use crate::histogram::Histogram;
use crate::stats::DroopStats;

/// A streaming scope capture.
///
/// # Example
///
/// ```
/// use audit_measure::Oscilloscope;
///
/// let mut scope = Oscilloscope::new(1.2)
///     .with_trigger(1.10)
///     .with_envelope_decimation(4);
/// for v in [1.19, 1.05, 1.18, 1.2, 1.21, 1.17, 1.19, 1.2] {
///     scope.sample(v);
/// }
/// assert_eq!(scope.trigger_events(), 1);
/// assert_eq!(scope.envelope().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Oscilloscope {
    stats: DroopStats,
    histogram: Histogram,
    trigger_level: Option<f64>,
    trigger_events: u64,
    below_trigger: bool,
    decimation: u64,
    window_min: f64,
    window_fill: u64,
    envelope_min: Vec<f64>,
}

impl Oscilloscope {
    /// Default histogram span around nominal: −0.35 V .. +0.15 V.
    const HIST_BELOW: f64 = 0.35;
    const HIST_ABOVE: f64 = 0.15;
    /// Default histogram resolution.
    const HIST_BINS: usize = 200;

    /// Creates a scope referenced to `nominal` volts, with no trigger
    /// and no envelope decimation (envelope records every sample).
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not positive and finite.
    pub fn new(nominal: f64) -> Self {
        Oscilloscope {
            stats: DroopStats::new(nominal),
            histogram: Histogram::new(
                nominal - Self::HIST_BELOW,
                nominal + Self::HIST_ABOVE,
                Self::HIST_BINS,
            ),
            trigger_level: None,
            trigger_events: 0,
            below_trigger: false,
            decimation: 1,
            window_min: f64::INFINITY,
            window_fill: 0,
            envelope_min: Vec::new(),
        }
    }

    /// Arms a droop trigger: each *downward crossing* of `level` counts
    /// as one droop event.
    pub fn with_trigger(mut self, level: f64) -> Self {
        self.trigger_level = Some(level);
        self
    }

    /// Sets envelope decimation: one minimum is kept per `n`
    /// samples (the 100 MS/s view of Fig. 6 at a 3.2 GHz sim rate is
    /// `n = 32`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_envelope_decimation(mut self, n: u64) -> Self {
        assert!(n > 0, "decimation must be at least 1");
        self.decimation = n;
        self
    }

    /// Feeds one per-cycle voltage sample.
    ///
    /// Non-finite samples (a glitched probe reading) are rejected before
    /// touching any capture state: they would otherwise pin the envelope
    /// extremes, poison the mean, and count as phantom trigger events.
    /// Rejections are tallied in [`DroopStats::rejected`] via
    /// [`Oscilloscope::stats`].
    pub fn sample(&mut self, v: f64) {
        if !v.is_finite() {
            self.stats.record(v); // counts the rejection, records nothing
            return;
        }
        self.stats.record(v);
        self.histogram.record(v);
        if let Some(level) = self.trigger_level {
            let below = v < level;
            if below && !self.below_trigger {
                self.trigger_events += 1;
            }
            self.below_trigger = below;
        }
        self.window_min = self.window_min.min(v);
        self.window_fill += 1;
        if self.window_fill >= self.decimation {
            self.envelope_min.push(self.window_min);
            self.window_min = f64::INFINITY;
            self.window_fill = 0;
        }
    }

    /// Capture statistics so far.
    pub fn stats(&self) -> &DroopStats {
        &self.stats
    }

    /// Full-capture voltage histogram (Fig. 10).
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Number of distinct droop-trigger events.
    pub fn trigger_events(&self) -> u64 {
        self.trigger_events
    }

    /// The decimated min-envelope (one point per decimation window).
    pub fn envelope(&self) -> &[f64] {
        &self.envelope_min
    }

    /// Convenience: the capture's maximum droop below nominal.
    pub fn max_droop(&self) -> f64 {
        self.stats.max_droop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_counts_distinct_crossings() {
        let mut s = Oscilloscope::new(1.2).with_trigger(1.1);
        for v in [1.2, 1.05, 1.04, 1.2, 1.05, 1.2] {
            s.sample(v);
        }
        assert_eq!(s.trigger_events(), 2);
    }

    #[test]
    fn trigger_ignores_sustained_low() {
        let mut s = Oscilloscope::new(1.2).with_trigger(1.1);
        for _ in 0..100 {
            s.sample(1.0);
        }
        assert_eq!(s.trigger_events(), 1);
    }

    #[test]
    fn envelope_keeps_window_extremes() {
        let mut s = Oscilloscope::new(1.2).with_envelope_decimation(2);
        for v in [1.2, 1.0, 1.3, 1.1] {
            s.sample(v);
        }
        assert_eq!(s.envelope(), &[1.0, 1.1]);
    }

    #[test]
    fn incomplete_window_is_not_emitted() {
        let mut s = Oscilloscope::new(1.2).with_envelope_decimation(4);
        for _ in 0..7 {
            s.sample(1.15);
        }
        assert_eq!(s.envelope().len(), 1);
    }

    #[test]
    fn stats_and_histogram_agree_on_count() {
        let mut s = Oscilloscope::new(1.2);
        for i in 0..500 {
            s.sample(1.1 + (i % 10) as f64 * 0.01);
        }
        assert_eq!(s.stats().count(), 500);
        assert_eq!(s.histogram().total(), 500);
    }

    #[test]
    fn max_droop_passthrough() {
        let mut s = Oscilloscope::new(1.2);
        s.sample(1.07);
        assert!((s.max_droop() - 0.13).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "decimation")]
    fn zero_decimation_rejected() {
        let _ = Oscilloscope::new(1.2).with_envelope_decimation(0);
    }

    #[test]
    fn non_finite_samples_leave_capture_state_untouched() {
        let mut clean = Oscilloscope::new(1.2)
            .with_trigger(1.1)
            .with_envelope_decimation(2);
        let mut dirty = clean.clone();
        let vs = [1.19, 1.05, 1.18, 1.2];
        for (i, &v) in vs.iter().enumerate() {
            clean.sample(v);
            dirty.sample(v);
            // Interleave garbage between every real sample.
            dirty.sample([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3]);
        }
        assert_eq!(dirty.stats().count(), clean.stats().count());
        assert_eq!(dirty.stats().rejected(), 4);
        assert_eq!(dirty.trigger_events(), clean.trigger_events());
        assert_eq!(dirty.envelope(), clean.envelope());
        assert_eq!(dirty.histogram().total(), clean.histogram().total());
        assert_eq!(dirty.max_droop().to_bits(), clean.max_droop().to_bits());
    }
}
