//! Cumulative trapezoid quadrature.
//!
//! The static path of the TFT model reconstructs `f(u) = ∫ g(u)du` from
//! sampled conductances by cumulative trapezoid integration over the
//! input trajectory (paper §II).

/// Cumulative trapezoid integral of samples `y(x)`; result has the same
/// length with `out[0] = 0`.
///
/// Handles non-monotonic `x` (trajectories sweep back and forth through
/// the state space): the signed increments cancel on retraced segments,
/// which is exactly the behaviour needed when integrating along a
/// large-signal pump trajectory.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn cumtrapz(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "cumtrapz needs equal-length inputs");
    let mut out = Vec::with_capacity(x.len());
    let mut acc = 0.0;
    out.push(0.0);
    for i in 1..x.len() {
        acc += 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumtrapz_monotone() {
        let x: Vec<f64> = (0..101).map(|i| i as f64 / 100.0).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        let c = cumtrapz(&x, &y);
        // ∫₀¹ x² = 1/3 with O(h²) error.
        assert!((c[100] - 1.0 / 3.0).abs() < 1e-4);
        assert_eq!(c[0], 0.0);
    }

    #[test]
    fn cumtrapz_retraced_path_cancels() {
        // Going up then back down the same path must return to ~0 for a
        // single-valued integrand: ∮ g(u) du = 0.
        let mut x: Vec<f64> = (0..51).map(|i| i as f64 / 50.0).collect();
        let back: Vec<f64> = (0..51).rev().map(|i| i as f64 / 50.0).collect();
        x.extend_from_slice(&back[1..]);
        let y: Vec<f64> = x.iter().map(|v| v.sin() + 1.0).collect();
        let c = cumtrapz(&x, &y);
        assert!(c.last().unwrap().abs() < 1e-12);
    }
}
