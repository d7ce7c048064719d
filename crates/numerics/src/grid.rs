//! Sampling grids: linear, logarithmic and complex frequency axes.

use crate::complex::Complex;

/// `n` evenly spaced points from `a` to `b` inclusive.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use rvf_numerics::linspace;
/// assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
/// ```
pub fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "linspace needs at least one point");
    if n == 1 {
        return vec![a];
    }
    let step = (b - a) / (n - 1) as f64;
    (0..n).map(|i| a + step * i as f64).collect()
}

/// `n` logarithmically spaced points from `10^a` to `10^b` inclusive.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use rvf_numerics::logspace;
/// let f = logspace(0.0, 2.0, 3);
/// assert!((f[1] - 10.0).abs() < 1e-12);
/// ```
pub fn logspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    linspace(a, b, n).into_iter().map(|e| 10f64.powf(e)).collect()
}

/// Imaginary-axis frequency grid `s = j·2π·f` for frequencies in hertz.
///
/// # Examples
///
/// ```
/// use rvf_numerics::{jw_grid, logspace};
/// let s = jw_grid(&logspace(0.0, 9.0, 10));
/// assert_eq!(s.len(), 10);
/// assert!(s.iter().all(|z| z.re == 0.0 && z.im > 0.0));
/// ```
pub fn jw_grid(freqs_hz: &[f64]) -> Vec<Complex> {
    freqs_hz.iter().map(|&f| Complex::from_im(2.0 * core::f64::consts::PI * f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_exact() {
        let v = linspace(-3.0, 7.0, 11);
        assert_eq!(v[0], -3.0);
        assert_eq!(v[10], 7.0);
        assert_eq!(v.len(), 11);
        for w in v.windows(2) {
            assert!((w[1] - w[0] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn linspace_single_point() {
        assert_eq!(linspace(5.0, 9.0, 1), vec![5.0]);
    }

    #[test]
    fn logspace_decades() {
        let v = logspace(0.0, 10.0, 11);
        for (i, x) in v.iter().enumerate() {
            assert!((x / 10f64.powi(i as i32) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn jw_grid_scaling() {
        let s = jw_grid(&[1.0]);
        assert!((s[0].im - 2.0 * core::f64::consts::PI).abs() < 1e-12);
    }
}
