//! Capture summary statistics.

/// Streaming summary of a voltage capture.
///
/// Matches what the paper reports per run: the maximum droop (relative
/// to nominal), overshoot, and the AC-only droop below the capture mean
/// (useful because the paper disables the VRM load line to exclude DC
/// effects, §5.A).
///
/// # Example
///
/// ```
/// use audit_measure::DroopStats;
///
/// let mut s = DroopStats::new(1.2);
/// for v in [1.19, 1.15, 1.21, 1.18] {
///     s.record(v);
/// }
/// assert!((s.max_droop() - 0.05).abs() < 1e-12);
/// assert!((s.overshoot() - 0.01).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroopStats {
    nominal: f64,
    v_min: f64,
    v_max: f64,
    sum: f64,
    count: u64,
    rejected: u64,
}

impl DroopStats {
    /// Creates an empty summary against the given nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not positive and finite.
    pub fn new(nominal: f64) -> Self {
        assert!(
            nominal.is_finite() && nominal > 0.0,
            "nominal voltage must be positive"
        );
        DroopStats {
            nominal,
            v_min: f64::INFINITY,
            v_max: f64::NEG_INFINITY,
            sum: 0.0,
            count: 0,
            rejected: 0,
        }
    }

    /// Records one voltage sample.
    ///
    /// Non-finite samples (NaN or ±∞ — a dead probe, a divide blowing
    /// up upstream) are rejected rather than recorded: a NaN would
    /// poison `sum`/`mean` forever and an infinity would pin the
    /// extremes. Rejections are counted in [`DroopStats::rejected`].
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.rejected += 1;
            return;
        }
        self.v_min = self.v_min.min(v);
        self.v_max = self.v_max.max(v);
        self.sum += v;
        self.count += 1;
    }

    /// Nominal voltage the capture was taken against.
    pub fn nominal(&self) -> f64 {
        self.nominal
    }

    /// Minimum sampled voltage. `NaN`-free only once a sample exists.
    pub fn v_min(&self) -> f64 {
        self.v_min
    }

    /// Maximum sampled voltage.
    pub fn v_max(&self) -> f64 {
        self.v_max
    }

    /// Mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of non-finite samples rejected by [`DroopStats::record`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Maximum droop below nominal, in volts (the paper's headline
    /// metric, Fig. 9). Zero when nothing dipped below nominal.
    pub fn max_droop(&self) -> f64 {
        (self.nominal - self.v_min).max(0.0)
    }

    /// Maximum overshoot above nominal, in volts.
    pub fn overshoot(&self) -> f64 {
        (self.v_max - self.nominal).max(0.0)
    }
}

/// The scale factor relating the median absolute deviation of a normal
/// distribution to its standard deviation (1/Φ⁻¹(3/4)).
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// Median of a slice; `None` when empty. Even-length inputs average the
/// two central values. Deterministic: ties sort by original index via a
/// stable sort, and NaNs must be filtered by the caller (they are
/// ordered last, not rejected).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Less));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Index (into the original slice) of the element closest to the
/// median from below: the lower-central element of the sorted order.
/// `None` when empty. Ties break toward the earliest original index,
/// so the choice is deterministic for repeated values.
pub fn median_index(xs: &[f64]) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    Some(order[(xs.len() - 1) / 2])
}

/// Median absolute deviation of a slice; `None` when empty.
pub(crate) fn mad(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let deviations: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Indices of the elements that survive MAD outlier rejection: those
/// whose modified z-score `|x − median| / (MAD_TO_SIGMA · MAD)` is at
/// most `threshold` (3.5 is the conventional cut). When the MAD is zero
/// (half or more of the samples identical) every sample survives —
/// there is no spread to reject against.
pub fn mad_filter(xs: &[f64], threshold: f64) -> Vec<usize> {
    let Some(m) = median(xs) else {
        return Vec::new();
    };
    let spread = mad(xs).unwrap_or(0.0) * MAD_TO_SIGMA;
    if spread == 0.0 {
        return (0..xs.len()).collect();
    }
    (0..xs.len())
        .filter(|&i| ((xs[i] - m).abs() / spread) <= threshold)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_extremes_and_mean() {
        let mut s = DroopStats::new(1.2);
        for v in [1.1, 1.2, 1.3] {
            s.record(v);
        }
        assert_eq!(s.v_min(), 1.1);
        assert_eq!(s.v_max(), 1.3);
        assert!((s.mean() - 1.2).abs() < 1e-12);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn droop_clamps_at_zero_when_above_nominal() {
        let mut s = DroopStats::new(1.0);
        s.record(1.05);
        assert_eq!(s.max_droop(), 0.0);
        assert!((s.overshoot() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = DroopStats::new(1.2);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    #[should_panic(expected = "nominal")]
    fn rejects_bad_nominal() {
        let _ = DroopStats::new(-1.0);
    }

    #[test]
    fn non_finite_samples_are_rejected_not_recorded() {
        let mut s = DroopStats::new(1.2);
        s.record(1.1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            s.record(bad);
        }
        s.record(1.3);
        assert_eq!(s.count(), 2);
        assert_eq!(s.rejected(), 3);
        assert_eq!(s.v_min(), 1.1);
        assert_eq!(s.v_max(), 1.3);
        assert!((s.mean() - 1.2).abs() < 1e-12);
        assert!(s.max_droop().is_finite());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_index_points_at_an_original_element() {
        assert_eq!(median_index(&[]), None);
        assert_eq!(median_index(&[5.0]), Some(0));
        assert_eq!(median_index(&[3.0, 1.0, 2.0]), Some(2)); // value 2.0
                                                             // Even length: lower-central element.
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), Some(3)); // value 2.0
                                                                  // Ties break to the earliest index.
        assert_eq!(median_index(&[7.0, 7.0, 7.0]), Some(1));
    }

    #[test]
    fn mad_filter_drops_gross_outliers_only() {
        let xs = [1.00, 1.01, 0.99, 1.02, 0.98, 5.0];
        let kept = mad_filter(&xs, 3.5);
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mad_filter_keeps_everything_when_spread_is_zero() {
        let xs = [2.0, 2.0, 2.0, 9.0];
        // Median 2, MAD 0 → no rejection basis.
        assert_eq!(mad_filter(&xs, 3.5), vec![0, 1, 2, 3]);
        assert!(mad_filter(&[], 3.5).is_empty());
    }
}
