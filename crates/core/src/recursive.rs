//! The multivariate RVF recursion (paper §III-B, eq. 16).
//!
//! For a state estimator with `q > 1` dimensions the residue functions
//! depend on several variables. RVF handles them *recursively*: fit the
//! last variable with a common-pole partial fraction expansion, which
//! turns each sample hyperplane row into a small set of coefficient
//! trajectories over the remaining variables; then recurse.
//!
//! ```text
//! r(x₁, x₂) = Σ_{p₁} r_{p₁}(x₁) / basis_{p₁}(x₂)
//! r_{p₁}(x₁) = Σ_{p₂} ρ_{p₁p₂} / basis_{p₂}(x₁)       (recursion, eq. 16)
//! ```
//!
//! The buffer experiment of the paper (and our pipeline) uses `q = 1`;
//! this module provides the general two-level recursion on gridded data,
//! exercising exactly the nesting Algorithm 1 describes (lines 18–25)
//! and the product-form closed integral of eq. 18.

use rvf_numerics::{Complex, SweepPool};
use rvf_vecfit::{auto_workers, Axis, PoleSet, RationalModel, VecfitError};

use crate::error::RvfError;
use crate::integrated::StateFn;
use crate::rvf::{fit_state_stage_in, grow_poles, single_response, RvfOptions};

/// A recursively fitted bivariate function `f(x₁, x₂)`: common poles in
/// `x₂`, with every `x₂`-basis coefficient itself a rational function of
/// `x₁` (with common poles across coefficients).
#[derive(Debug, Clone, PartialEq)]
pub struct Rvf2d {
    /// Pole set of the outer (last) variable `x₂`.
    pub(crate) x2_poles: PoleSet,
    /// Whether the outer fit carried a constant column.
    pub(crate) x2_has_const: bool,
    /// Inner fits: one single-response rational model of `x₁` per outer
    /// basis coefficient (flat basis order of `x2_poles`, then the
    /// constant column when present).
    pub(crate) coefficient_fits: Vec<RationalModel>,
}

impl Rvf2d {
    /// Evaluates `f(x₁, x₂)`.
    pub fn eval(&self, x1: f64, x2: f64) -> f64 {
        // Reconstruct the x₂ basis row.
        let mut row = Vec::new();
        rvf_vecfit::basis_row(&self.x2_poles, Complex::from_re(x2), &mut row);
        if self.x2_has_const {
            row.push(Complex::ONE);
        }
        let mut acc = 0.0;
        for (phi, fit) in row.iter().zip(&self.coefficient_fits) {
            let coeff = fit.eval(0, Complex::from_re(x1)).re;
            acc += coeff * phi.re;
        }
        acc
    }

    /// Evaluates the closed-form partial integral `∫ f(x₁, x₂) dx₁`
    /// (the paper's eq. 18: the innermost variable integrates through
    /// the logs while the outer basis factors multiply through).
    pub fn integral_x1(&self, x1: f64, x2: f64) -> f64 {
        let mut row = Vec::new();
        rvf_vecfit::basis_row(&self.x2_poles, Complex::from_re(x2), &mut row);
        if self.x2_has_const {
            row.push(Complex::ONE);
        }
        let mut acc = 0.0;
        for (phi, fit) in row.iter().zip(&self.coefficient_fits) {
            let prim = StateFn::from_state_fit(fit, 0, 1.0);
            acc += prim.integral(x1) * phi.re;
        }
        acc
    }

    /// Total pole counts `(x₂ poles, max x₁ poles)`.
    pub fn pole_counts(&self) -> (usize, usize) {
        let inner = self.coefficient_fits.iter().map(|f| f.poles().n_poles()).max().unwrap_or(0);
        (self.x2_poles.n_poles(), inner)
    }
}

/// Fits `f(x₁, x₂)` sampled on the grid `x1_grid × x2_grid`
/// (`values[i][j] = f(x1_grid[i], x2_grid[j])`) by the two-level RVF
/// recursion with `n2`/`n1` poles in the outer/inner variable.
///
/// # Errors
///
/// Returns [`RvfError::Vecfit`] with [`VecfitError::LengthMismatch`]
/// when the value grid's shape disagrees with the axis grids, and
/// propagates vector fitting failures from either level.
pub fn fit_recursive_2d(
    x1_grid: &[f64],
    x2_grid: &[f64],
    values: &[Vec<f64>],
    opts: &RvfOptions,
) -> Result<Rvf2d, RvfError> {
    // One row per x₁ point (a missing or extra row is reported at the
    // first index past the shorter side), one value per x₂ point.
    if values.len() != x1_grid.len() {
        let (response, expected, got) =
            (values.len().min(x1_grid.len()), x1_grid.len(), values.len());
        return Err(VecfitError::LengthMismatch { response, expected, got }.into());
    }
    if let Some(response) = values.iter().position(|row| row.len() != x2_grid.len()) {
        let (expected, got) = (x2_grid.len(), values[response].len());
        return Err(VecfitError::LengthMismatch { response, expected, got }.into());
    }
    // Level 1: common poles along x₂ across all x₁ rows. One worker
    // pool serves both recursion levels; its capacity covers whichever
    // level carries more responses — the x₁ rows here, or the inner
    // stage's up to max_state_poles + 1 coefficient trajectories — so
    // neither level loses parallelism to the other's sizing (a round
    // never runs more workers than it has responses).
    let x2_samples: Vec<Complex> = x2_grid.iter().map(|&v| Complex::from_re(v)).collect();
    let data: Vec<Vec<Complex>> =
        values.iter().map(|row| row.iter().map(|&v| Complex::from_re(v)).collect()).collect();
    let inner_responses = opts.max_state_poles.saturating_add(1);
    let pool = SweepPool::new(auto_workers(opts.threads, data.len().max(inner_responses)));
    // Grow the outer pole count until the bound is met (Algorithm 1).
    let peak =
        values.iter().flat_map(|r| r.iter()).fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-300);
    let outer =
        grow_poles(&pool, &x2_samples, &data, Axis::Real, opts.max_state_poles, peak, opts)?.fit;

    // Level 2 (the recursion): each outer basis coefficient is a
    // trajectory over x₁ — fit them with common x₁ poles.
    let n_basis = outer.model.poles().n_basis();
    let has_const = true; // a real-axis fit always carries the constant column
    let mut trajectories: Vec<Vec<f64>> = vec![Vec::with_capacity(x1_grid.len()); n_basis + 1];
    for terms in outer.model.terms() {
        let flat = terms.residues.to_flat(outer.model.poles());
        for (b, &v) in flat.iter().enumerate() {
            trajectories[b].push(v);
        }
        trajectories[n_basis].push(terms.d);
    }
    let scale =
        trajectories.iter().flat_map(|t| t.iter()).fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-300);
    let inner_stage = fit_state_stage_in(&pool, x1_grid, &trajectories, scale, opts)?;
    let coefficient_fits: Vec<RationalModel> =
        (0..trajectories.len()).map(|k| single_response(&inner_stage.fit.model, k, 1.0)).collect();
    Ok(Rvf2d { x2_poles: outer.model.poles().clone(), x2_has_const: has_const, coefficient_fits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::linspace;

    fn grid_values(x1: &[f64], x2: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<Vec<f64>> {
        x1.iter().map(|&a| x2.iter().map(|&b| f(a, b)).collect()).collect()
    }

    #[test]
    fn separable_surface() {
        // f(x1, x2) = g(x1)·h(x2), both smooth bumps.
        let x1 = linspace(-1.0, 1.0, 41);
        let x2 = linspace(0.0, 2.0, 41);
        let f = |a: f64, b: f64| (1.0 / (1.0 + 4.0 * a * a)) * (1.0 + 0.5 * (b - 1.0).tanh());
        let values = grid_values(&x1, &x2, f);
        let opts = RvfOptions { epsilon: 1e-5, max_state_poles: 14, ..Default::default() };
        let model = fit_recursive_2d(&x1, &x2, &values, &opts).unwrap();
        let mut worst = 0.0_f64;
        for &a in x1.iter().step_by(5) {
            for &b in x2.iter().step_by(5) {
                worst = worst.max((model.eval(a, b) - f(a, b)).abs());
            }
        }
        assert!(worst < 1e-3, "worst 2d error {worst}");
    }

    #[test]
    fn non_separable_surface() {
        // A rotated saddle-ish smooth surface — cannot factor.
        let x1 = linspace(-1.0, 1.0, 45);
        let x2 = linspace(-1.0, 1.0, 45);
        let f = |a: f64, b: f64| 1.0 / (1.0 + (a + 0.6 * b) * (a + 0.6 * b) + 0.5 * b * b);
        let values = grid_values(&x1, &x2, f);
        let opts = RvfOptions { epsilon: 1e-4, max_state_poles: 16, ..Default::default() };
        let model = fit_recursive_2d(&x1, &x2, &values, &opts).unwrap();
        let mut rms = 0.0;
        let mut n = 0;
        for &a in x1.iter() {
            for &b in x2.iter() {
                let e = model.eval(a, b) - f(a, b);
                rms += e * e;
                n += 1;
            }
        }
        let rms = (rms / n as f64).sqrt();
        assert!(rms < 5e-3, "2d rms {rms}");
    }

    #[test]
    fn partial_integral_matches_quadrature() {
        let x1 = linspace(0.0, 1.0, 41);
        let x2 = linspace(0.0, 1.0, 41);
        let f = |a: f64, b: f64| (1.0 + a) / (1.0 + 2.0 * (b - 0.5) * (b - 0.5));
        let values = grid_values(&x1, &x2, f);
        let opts = RvfOptions { epsilon: 1e-6, max_state_poles: 12, ..Default::default() };
        let model = fit_recursive_2d(&x1, &x2, &values, &opts).unwrap();
        // ∫₀¹ f dx₁ at fixed x₂: trapezoid reference on the true f.
        for &b in &[0.1, 0.5, 0.9] {
            let n = 4000;
            let h = 1.0 / n as f64;
            let numeric: f64 =
                (0..n).map(|i| 0.5 * h * (f(i as f64 * h, b) + f((i + 1) as f64 * h, b))).sum();
            let analytic = model.integral_x1(1.0, b) - model.integral_x1(0.0, b);
            assert!((analytic - numeric).abs() < 2e-3, "at x2={b}: {analytic} vs {numeric}");
        }
    }

    #[test]
    fn ragged_grids_are_length_mismatch_errors() {
        let opts = RvfOptions::default();
        let x2 = linspace(0.0, 1.0, 30);
        let one_row = vec![x2.clone()];
        let err = fit_recursive_2d(&[0.0, 1.0], &x2, &one_row, &opts).unwrap_err();
        let want = VecfitError::LengthMismatch { response: 1, expected: 2, got: 1 };
        assert_eq!(err, RvfError::Vecfit(want));

        let mut ragged = vec![x2.clone(), x2.clone()];
        ragged[1].pop();
        let err = fit_recursive_2d(&[0.0, 1.0], &x2, &ragged, &opts).unwrap_err();
        let want = VecfitError::LengthMismatch { response: 1, expected: 30, got: 29 };
        assert_eq!(err, RvfError::Vecfit(want));
    }

    #[test]
    fn empty_pole_budget_is_a_typed_error() {
        let x1 = linspace(0.0, 1.0, 30);
        let x2 = linspace(0.0, 1.0, 30);
        let values = grid_values(&x1, &x2, |a, b| a + b);
        let opts = RvfOptions { max_state_poles: 2, ..Default::default() };
        let err = fit_recursive_2d(&x1, &x2, &values, &opts).unwrap_err();
        assert_eq!(err, RvfError::EmptyPoleBudget { stage: "state", start: 4, max: 2 });
    }

    #[test]
    fn unbounded_state_budget_does_not_overflow() {
        // The pool sizing adds one coefficient trajectory to the budget;
        // at usize::MAX that must saturate, and the growth loop stops on
        // the sample count instead.
        let x1 = linspace(0.0, 1.0, 30);
        let x2 = linspace(0.0, 1.0, 30);
        let values = grid_values(&x1, &x2, |a, b| a + b);
        let opts = RvfOptions { max_state_poles: usize::MAX, ..Default::default() };
        assert!(fit_recursive_2d(&x1, &x2, &values, &opts).is_ok());
    }

    #[test]
    fn pole_counts_reported() {
        let x1 = linspace(0.0, 1.0, 30);
        let x2 = linspace(0.0, 1.0, 30);
        let values = grid_values(&x1, &x2, |a, b| a + b);
        let opts = RvfOptions { epsilon: 1e-3, ..Default::default() };
        let model = fit_recursive_2d(&x1, &x2, &values, &opts).unwrap();
        let (p2, p1) = model.pole_counts();
        assert!(p2 >= 2 && p1 >= 2);
    }
}
