//! Fixed-range histograms of voltage samples (paper Fig. 10).

/// A fixed-range, fixed-bin histogram of `f64` samples.
///
/// Finite samples outside the range are clamped into the edge bins, so
/// the total count always equals the number of finite recorded samples
/// — matching how a scope bins its full capture. Non-finite samples are
/// ignored (see [`Histogram::record`]).
///
/// # Example
///
/// ```
/// use audit_measure::Histogram;
///
/// let mut h = Histogram::new(1.0, 1.3, 30);
/// for v in [1.05, 1.11, 1.20, 1.21] {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 4);
/// assert!(h.quantile(0.0) <= 1.06);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, the bounds are not finite, or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range"
        );
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Records one sample. Non-finite samples are ignored: a NaN casts
    /// to bin 0 under `as isize` and would silently masquerade as a
    /// deep-droop event, and infinities carry no bin information — so
    /// `total()` counts *finite* samples only.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let bins = self.counts.len();
        let t = (v - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64) as isize).clamp(0, bins as isize - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Center voltage of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Approximate `q`-quantile of the recorded distribution (`q` in
    /// `[0, 1]`), computed from bin centers. Returns the low edge for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return self.lo;
        }
        let target = (q.clamp(0.0, 1.0) * (total - 1) as f64) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > target {
                return self.bin_center(i);
            }
        }
        self.bin_center(self.counts.len() - 1)
    }

    /// Fraction of samples at or below `v`.
    pub fn fraction_at_or_below(&self, v: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let below: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(i, _)| self.bin_center(*i) <= v)
            .map(|(_, &c)| c)
            .sum();
        below as f64 / total as f64
    }

    /// Merges another histogram's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram ranges differ");
        assert_eq!(self.hi, other.hi, "histogram ranges differ");
        assert_eq!(self.counts.len(), other.counts.len(), "bin counts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Rows of `(bin center, count)` for report emission.
    pub fn rows(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record(0.05);
        h.record(0.95);
        h.record(0.95);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_clamps_to_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn quantiles_bracket_distribution() {
        let mut h = Histogram::new(0.0, 1.0, 100);
        for i in 0..1000 {
            h.record(i as f64 / 1000.0);
        }
        assert!((h.quantile(0.5) - 0.5).abs() < 0.02);
        assert!(h.quantile(0.0) < 0.02);
        assert!(h.quantile(1.0) > 0.98);
    }

    #[test]
    fn empty_quantile_returns_low_edge() {
        let h = Histogram::new(1.0, 2.0, 5);
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.fraction_at_or_below(1.5), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let mut b = Histogram::new(0.0, 1.0, 4);
        a.record(0.1);
        b.record(0.1);
        b.record(0.9);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts()[0], 2);
    }

    #[test]
    #[should_panic(expected = "ranges differ")]
    fn merge_rejects_mismatched_ranges() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 2.0, 4);
        a.merge(&b);
    }

    #[test]
    fn fraction_at_or_below_counts_tail() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for v in [0.1, 0.2, 0.8, 0.9] {
            h.record(v);
        }
        let f = h.fraction_at_or_below(0.5);
        assert!((f - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid histogram range")]
    fn rejects_inverted_range() {
        let _ = Histogram::new(2.0, 1.0, 4);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record(0.55);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            h.record(bad);
        }
        assert_eq!(h.total(), 1);
        // A NaN must not be silently counted as a bin-0 (deep droop) event.
        assert_eq!(h.counts()[0], 0);
        assert_eq!(h.counts()[5], 1);
    }
}
