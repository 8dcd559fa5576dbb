//! Spectral analysis of measured traces.
//!
//! The paper's frequency-domain views (Fig. 3 left) come from network
//! analysis; a measurement-side spectrum is the complementary tool: given
//! a voltage or current capture, find the frequencies where the energy
//! concentrates. A resonant stressmark shows a sharp line at the PDN's
//! first droop; a benchmark shows broadband noise. This module provides a
//! dependency-free radix-2 FFT and a small power-spectrum wrapper.

/// One spectral line of a power spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralLine {
    /// Frequency in Hz.
    pub frequency_hz: f64,
    /// Power (arbitrary units, |X(f)|² normalized by length).
    pub power: f64,
}

/// In-place radix-2 decimation-in-time FFT.
///
/// `re`/`im` hold the signal on input and the transform on output.
///
/// # Panics
///
/// Panics if the lengths differ or are not a power of two.
pub fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    assert_eq!(n, im.len(), "re/im length mismatch");
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }

    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (w_re, w_im) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut cur_re = 1.0;
            let mut cur_im = 0.0;
            for k in 0..len / 2 {
                let a = start + k;
                let b = start + k + len / 2;
                let t_re = re[b] * cur_re - im[b] * cur_im;
                let t_im = re[b] * cur_im + im[b] * cur_re;
                re[b] = re[a] - t_re;
                im[b] = im[a] - t_im;
                re[a] += t_re;
                im[a] += t_im;
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
        }
        len <<= 1;
    }
}

/// Power spectrum of a real trace sampled at `sample_hz`.
///
/// The trace is mean-removed, Hann-windowed, zero-padded to the next
/// power of two, and transformed; only the positive-frequency half is
/// returned (DC excluded).
///
/// # Example
///
/// ```
/// use audit_measure::spectrum::power_spectrum;
///
/// let fs = 1000.0;
/// let trace: Vec<f64> =
///     (0..1024).map(|i| (2.0 * std::f64::consts::PI * 100.0 * i as f64 / fs).sin()).collect();
/// let spec = power_spectrum(&trace, fs);
/// let peak = spec.iter().max_by(|a, b| a.power.total_cmp(&b.power)).unwrap();
/// assert!((peak.frequency_hz - 100.0).abs() < 2.0);
/// ```
pub fn power_spectrum(trace: &[f64], sample_hz: f64) -> Vec<SpectralLine> {
    assert!(sample_hz > 0.0, "sample rate must be positive");
    if trace.len() < 2 {
        return Vec::new();
    }
    let mean = trace.iter().sum::<f64>() / trace.len() as f64;
    let n = trace.len().next_power_of_two();
    let mut re = vec![0.0; n];
    let mut im = vec![0.0; n];
    let m = trace.len() as f64;
    for (i, &x) in trace.iter().enumerate() {
        // Hann window over the original (pre-padding) length.
        let w = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * i as f64 / (m - 1.0)).cos();
        re[i] = (x - mean) * w;
    }
    fft(&mut re, &mut im);
    let scale = 1.0 / (n as f64);
    (1..n / 2)
        .map(|k| SpectralLine {
            frequency_hz: k as f64 * sample_hz / n as f64,
            power: (re[k] * re[k] + im[k] * im[k]) * scale,
        })
        .collect()
}

/// The dominant spectral line of a trace, if any.
pub fn dominant_line(trace: &[f64], sample_hz: f64) -> Option<SpectralLine> {
    power_spectrum(trace, sample_hz)
        .into_iter()
        .max_by(|a, b| a.power.total_cmp(&b.power))
}

/// Fraction of total spectral power within `±band_hz` of `center_hz` —
/// a resonance-concentration metric (≈1 for a resonant stressmark,
/// small for broadband benchmark noise).
pub fn band_power_fraction(trace: &[f64], sample_hz: f64, center_hz: f64, band_hz: f64) -> f64 {
    let spec = power_spectrum(trace, sample_hz);
    let total: f64 = spec.iter().map(|l| l.power).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let band: f64 = spec
        .iter()
        .filter(|l| (l.frequency_hz - center_hz).abs() <= band_hz)
        .map(|l| l.power)
        .sum();
    band / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft(&mut re, &mut im);
        for k in 0..8 {
            assert!((re[k] - 1.0).abs() < 1e-12, "re[{k}] = {}", re[k]);
            assert!(im[k].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval_energy_is_conserved() {
        let fs = 256.0;
        let sig = sine(13.0, fs, 64);
        let mut re = sig.clone();
        let mut im = vec![0.0; 64];
        fft(&mut re, &mut im);
        let time_energy: f64 = sig.iter().map(|x| x * x).sum();
        let freq_energy: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn spectrum_finds_sine_frequency() {
        let fs = 3.2e9;
        let trace = sine(1.0e8, fs, 4096);
        let peak = dominant_line(&trace, fs).unwrap();
        assert!(
            (peak.frequency_hz - 1.0e8).abs() < 2e6,
            "peak at {}",
            peak.frequency_hz
        );
    }

    #[test]
    fn spectrum_handles_non_power_of_two() {
        let fs = 1000.0;
        let trace = sine(100.0, fs, 3000); // padded to 4096
        let peak = dominant_line(&trace, fs).unwrap();
        assert!((peak.frequency_hz - 100.0).abs() < 3.0);
    }

    #[test]
    fn dc_is_excluded() {
        let trace = vec![5.0; 1024]; // pure DC
        let spec = power_spectrum(&trace, 1000.0);
        let total: f64 = spec.iter().map(|l| l.power).sum();
        assert!(total < 1e-12, "DC leaked: {total}");
    }

    #[test]
    fn band_power_concentrates_for_tones() {
        let fs = 3.2e9;
        let tone = sine(1.0e8, fs, 8192);
        let frac = band_power_fraction(&tone, fs, 1.0e8, 5e6);
        assert!(frac > 0.9, "tone band fraction {frac}");

        // White-ish noise (deterministic pseudo-random).
        let mut x: u64 = 0x12345678;
        let noise: Vec<f64> = (0..8192)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let frac = band_power_fraction(&noise, fs, 1.0e8, 5e6);
        assert!(frac < 0.1, "noise band fraction {frac}");
    }

    #[test]
    fn tiny_traces_are_benign() {
        assert!(power_spectrum(&[], 1.0).is_empty());
        assert!(power_spectrum(&[1.0], 1.0).is_empty());
        assert!(dominant_line(&[], 1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn raw_fft_rejects_odd_lengths() {
        let mut re = vec![0.0; 6];
        let mut im = vec![0.0; 6];
        fft(&mut re, &mut im);
    }
}
