//! Order statistics, the warm-up and set-up timing protocol, and
//! process memory.

use std::hint::black_box;
use std::time::Instant;

use crate::config::{SETUP_REPS, WARMUP_SECONDS};

/// A set-up sample lasts at least this long: cheaper set-ups are
/// repeated back to back within one sample and averaged, so
/// sub-microsecond set-ups are not lost in timer noise.
const SETUP_SAMPLE_S: f64 = 1e-3;

/// Calls `f` for [`WARMUP_SECONDS`] (once in smoke mode) and returns its
/// last result.
pub(crate) fn warm_up<T>(smoke: bool, mut f: impl FnMut() -> T) -> T {
    let start = Instant::now();
    loop {
        let out = f();
        if smoke || start.elapsed().as_secs_f64() >= WARMUP_SECONDS {
            return out;
        }
    }
}

/// [`SETUP_REPS`] samples of the seconds one call of `setup` takes.
pub(crate) fn time_setup<T>(mut setup: impl FnMut() -> T) -> Vec<f64> {
    let t = Instant::now();
    black_box(setup());
    let batch = (SETUP_SAMPLE_S / t.elapsed().as_secs_f64()).clamp(1.0, 1e5) as usize;
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(setup());
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect()
}

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between the two nearest ranks. `NaN` for an empty slice.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub(crate) fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so calibration
/// spreads match the ones computed from the same values in Python.
/// Needs at least two values.
pub(crate) fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
