//! Error metrics and decibel helpers used across the evaluation harness.
//!
//! The paper reports fitting errors as RMSE in dB (gain) and degrees
//! (phase), and time-domain RMSE in absolute units; these helpers define
//! those quantities once for everything downstream.

/// Root-mean-square error between two equally long sequences.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse needs equal-length inputs");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}

/// Amplitude ratio in decibels: `20·log₁₀(x)`.
///
/// Returns `-inf` for `x == 0` and NaN for negative input, matching the
/// mathematical definition.
pub fn db20(x: f64) -> f64 {
    20.0 * x.log10()
}

/// Inverse of [`db20`].
pub fn from_db20(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Maximum absolute difference between two sequences.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_abs_err(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_err needs equal-length inputs");
    a.iter().zip(b).fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Normalized RMSE: RMSE divided by the peak-to-peak range of the
/// reference. The paper's "time-domain RMSE" column normalizes against
/// the reference swing so models of different gain are comparable.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn nrmse(reference: &[f64], model: &[f64]) -> f64 {
    let e = rmse(reference, model);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in reference {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    if span > 0.0 {
        e / span
    } else {
        e
    }
}

/// Unwraps a phase sequence (radians) so consecutive samples never jump
/// by more than π — the TFT phase surfaces span several full rotations.
pub fn unwrap_phase(phase: &mut [f64]) {
    for i in 1..phase.len() {
        let mut d = phase[i] - phase[i - 1];
        while d > core::f64::consts::PI {
            phase[i] -= 2.0 * core::f64::consts::PI;
            d = phase[i] - phase[i - 1];
        }
        while d < -core::f64::consts::PI {
            phase[i] += 2.0 * core::f64::consts::PI;
            d = phase[i] - phase[i - 1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_basic() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[1.0, -1.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn db_round_trip() {
        for &x in &[1e-3, 0.5, 1.0, 42.0] {
            assert!((from_db20(db20(x)) - x).abs() < 1e-12 * x);
        }
        assert_eq!(db20(10.0), 20.0);
    }

    #[test]
    fn nrmse_normalizes_by_span() {
        let r = [0.0, 2.0, 0.0, 2.0];
        let m = [0.2, 2.2, 0.2, 2.2];
        assert!((nrmse(&r, &m) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unwrap_removes_jumps() {
        use core::f64::consts::PI;
        let mut p = vec![0.0, 0.9 * PI, -0.9 * PI, 0.9 * PI];
        unwrap_phase(&mut p);
        for w in p.windows(2) {
            assert!((w[1] - w[0]).abs() <= PI + 1e-12);
        }
        // Continuity: second sample unchanged, third lifted by 2π.
        assert!((p[2] - 1.1 * PI).abs() < 1e-12);
    }

    #[test]
    fn max_abs_err_picks_worst() {
        assert_eq!(max_abs_err(&[0.0, 5.0, 1.0], &[0.0, 2.0, 1.5]), 3.0);
    }
}
