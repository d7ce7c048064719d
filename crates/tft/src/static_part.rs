//! Static nonlinearity reconstruction from DC-gain samples.
//!
//! The instantaneous small-signal conductance `H(k)(0) = g(u_k)` sampled
//! along the large-signal trajectory integrates (over the input, in
//! trajectory order) to the static transfer curve `y_s(u) = ∫ g du + c`
//! up to a constant fixed by the DC solution at `t = 0` (paper §II).

use rvf_numerics::cumtrapz;

/// A sampled static transfer curve `y_s(u)` on a monotone `u` grid.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StaticCurve {
    /// Input values, strictly increasing.
    pub u: Vec<f64>,
    /// Static output at each input.
    pub y: Vec<f64>,
}

/// Reconstructs the static curve from trajectory-ordered samples.
///
/// * `u_traj`: input values in trajectory (time) order,
/// * `g_traj`: conductance samples `H(k)(0)` in the same order,
/// * `u0`, `y0`: the DC anchor (input and output at `t = 0`).
///
/// Integration runs along the trajectory (retraced segments cancel, so a
/// full sine period is fine); afterwards the samples are sorted by `u`
/// and duplicates averaged.
///
/// # Panics
///
/// Panics if the input slices have different lengths.
pub fn reconstruct_static(u_traj: &[f64], g_traj: &[f64], u0: f64, y0: f64) -> StaticCurve {
    assert_eq!(u_traj.len(), g_traj.len(), "trajectory lengths differ");
    if u_traj.is_empty() {
        return StaticCurve::default();
    }
    // Indefinite integral along the trajectory.
    let integral = cumtrapz(u_traj, g_traj);
    // Fix the constant so the curve passes through (u0, y0): evaluate the
    // integral at the trajectory point closest to u0.
    let (anchor_idx, _) = u_traj
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            (**a - u0).abs().partial_cmp(&(**b - u0).abs()).unwrap_or(core::cmp::Ordering::Equal)
        })
        .expect("nonempty");
    let offset = y0 - integral[anchor_idx];

    // Sort by u, merging near-duplicate states (retraced trajectory).
    let mut pairs: Vec<(f64, f64)> =
        u_traj.iter().zip(&integral).map(|(&u, &v)| (u, v + offset)).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
    let span = pairs.last().expect("nonempty").0 - pairs[0].0;
    let merge_tol = (span * 1e-9).max(f64::MIN_POSITIVE);
    let mut u = Vec::with_capacity(pairs.len());
    let mut y = Vec::with_capacity(pairs.len());
    for (ui, yi) in pairs {
        match u.last() {
            Some(&last) if ui - last <= merge_tol => {
                // Average duplicates.
                let n = y.len();
                y[n - 1] = 0.5 * (y[n - 1] + yi);
            }
            _ => {
                u.push(ui);
                y.push(yi);
            }
        }
    }
    StaticCurve { u, y }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::linspace;

    #[test]
    fn integrates_linear_conductance() {
        // g(u) = 2 ⇒ y(u) = 2u + c with c fixed by anchor (0, 0).
        let u = linspace(0.0, 1.0, 51);
        let g = vec![2.0; 51];
        let curve = reconstruct_static(&u, &g, 0.0, 0.0);
        for (ui, yi) in curve.u.iter().zip(&curve.y) {
            assert!((yi - 2.0 * ui).abs() < 1e-12);
        }
    }

    #[test]
    fn recovers_tanh_from_its_derivative() {
        // g(u) = sech²(u) = d/du tanh(u); anchor at u = 0.
        let u = linspace(-2.0, 2.0, 401);
        let g: Vec<f64> = u.iter().map(|&x| 1.0 - x.tanh().powi(2)).collect();
        let curve = reconstruct_static(&u, &g, 0.0, 0.0);
        for (ui, yi) in curve.u.iter().zip(&curve.y) {
            assert!((yi - ui.tanh()).abs() < 1e-4, "at {ui}: {yi} vs {}", ui.tanh());
        }
    }

    #[test]
    fn sine_trajectory_retrace_is_consistent() {
        // u(t) = sin(t) sweeps up and down; the reconstruction must match
        // the single-valued primitive.
        let t = linspace(0.0, 2.0 * core::f64::consts::PI, 1001);
        let u: Vec<f64> = t.iter().map(|x| x.sin()).collect();
        let g: Vec<f64> = u.iter().map(|&x| 3.0 * x * x).collect(); // d/du u³
        let curve = reconstruct_static(&u, &g, 0.0, 0.0);
        for (ui, yi) in curve.u.iter().zip(&curve.y) {
            assert!((yi - ui.powi(3)).abs() < 1e-4, "at {ui}: {yi}");
        }
    }

    #[test]
    fn anchor_offsets_the_curve() {
        let u = linspace(0.0, 1.0, 11);
        let g = vec![1.0; 11];
        let curve = reconstruct_static(&u, &g, 0.5, 10.0);
        // y(u) = u + c with y(0.5) = 10 ⇒ c = 9.5.
        assert!((curve.y[0] - 9.5).abs() < 1e-12);
        assert!((curve.y[10] - 10.5).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let c = reconstruct_static(&[], &[], 0.0, 0.0);
        assert!(c.u.is_empty() && c.y.is_empty());
    }
}
