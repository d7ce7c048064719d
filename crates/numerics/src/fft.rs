//! Radix-2 FFT and power-spectrum helpers.
//!
//! Used by the evaluation harness to quantify the paper's "spectrally
//! rich bit pattern" claim (Fig. 9): the PRBS validation stimulus excites
//! the model across the whole band, unlike the single-tone training
//! signal.

use crate::complex::Complex;

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two (zero-pad first; see
/// [`power_spectrum`]).
pub(crate) fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * core::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar(1.0, ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal (zero-padded to the next power of two).
pub(crate) fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let n = signal.len().next_power_of_two().max(1);
    let mut data: Vec<Complex> = signal.iter().map(|&v| Complex::from_re(v)).collect();
    data.resize(n, Complex::ZERO);
    fft_in_place(&mut data);
    data
}

/// One-sided power spectrum of a real signal sampled at `dt`.
///
/// Returns `(frequencies_hz, magnitudes)` up to the Nyquist frequency;
/// magnitudes are normalized by the transform length.
pub(crate) fn power_spectrum(signal: &[f64], dt: f64) -> (Vec<f64>, Vec<f64>) {
    let spec = fft_real(signal);
    let n = spec.len();
    let df = 1.0 / (n as f64 * dt);
    let half = n / 2;
    let freqs: Vec<f64> = (0..half).map(|i| i as f64 * df).collect();
    let mags: Vec<f64> = spec[..half].iter().map(|v| v.abs() / n as f64).collect();
    (freqs, mags)
}

/// Spectral occupancy: the fraction of one-sided bins whose magnitude
/// exceeds `threshold` relative to the peak bin. A single tone occupies
/// ~one bin; a PRBS pattern spreads across the band.
pub fn spectral_occupancy(signal: &[f64], dt: f64, threshold: f64) -> f64 {
    let (_, mags) = power_spectrum(signal, dt);
    if mags.len() <= 1 {
        return 0.0;
    }
    // Exclude DC.
    let peak = mags[1..].iter().fold(0.0_f64, |m, &v| m.max(v));
    if peak == 0.0 {
        return 0.0;
    }
    let hits = mags[1..].iter().filter(|&&v| v >= threshold * peak).count();
    hits as f64 / (mags.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft_in_place(&mut data);
        for v in &data {
            assert!((*v - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_single_tone_peaks_at_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * core::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal);
        // Peak at bins k and n-k with magnitude n/2.
        assert!((spec[k].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (i, v) in spec.iter().enumerate() {
            if i != k && i != n - k {
                assert!(v.abs() < 1e-9, "leakage at bin {i}");
            }
        }
    }

    #[test]
    fn parseval_identity() {
        let signal: Vec<f64> = (0..128).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let spec = fft_real(&signal);
        let time_energy: f64 = signal.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / spec.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn occupancy_distinguishes_tone_from_noise_like() {
        let n = 512;
        let dt = 1e-9;
        let tone: Vec<f64> = (0..n)
            .map(|i| (2.0 * core::f64::consts::PI * 20.0 * i as f64 / n as f64).sin())
            .collect();
        // PRBS-like alternation with irregular runs.
        let mut lfsr = 0x5au8;
        let rich: Vec<f64> = (0..n)
            .map(|_| {
                let bit = ((lfsr >> 6) ^ (lfsr >> 5)) & 1;
                lfsr = ((lfsr << 1) | bit) & 0x7f;
                if bit == 1 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let occ_tone = spectral_occupancy(&tone, dt, 0.05);
        let occ_rich = spectral_occupancy(&rich, dt, 0.05);
        assert!(occ_tone < 0.05, "tone occupancy {occ_tone}");
        assert!(occ_rich > 5.0 * occ_tone, "rich {occ_rich} vs tone {occ_tone}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut d = vec![Complex::ZERO; 12];
        fft_in_place(&mut d);
    }
}
