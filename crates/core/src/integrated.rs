//! The RVF state functions and their closed-form indefinite integrals
//! (paper eqs. 18–19).
//!
//! A fitted residue function is a partial-fraction expansion in the real
//! state variable `u` with conjugate-pair poles:
//!
//! ```text
//! r(u) = Σ_i [ ρ_i/(u − x̃_i) + ρ_i*/(u − x̃_i*) ] + d
//! ```
//!
//! Its primitive is available analytically:
//!
//! ```text
//! ∫ r du = Σ_i 2·Re{ ρ_i · ln(u − x̃_i) } + d·u + C
//! ```
//!
//! For real `u` and `Im(x̃_i) > 0`, the argument `u − x̃_i` stays in the
//! open lower half-plane, so the principal branch of `ln` is smooth on
//! the whole axis — this is why the paper restricts the state poles to
//! complex pairs ("zero-phase base functions"): the integral *exists in
//! closed form and is computed once*, unlike CAFFEINE's free-form bases.
//! [`StateFn`] holds the terms once and evaluates both forms.

use rvf_numerics::Complex;
use rvf_vecfit::{PoleEntry, RationalModel};

/// One pole–residue term: `ρ/(u − x̃) + ρ*/(u − x̃*)` in `r`, and
/// `2·Re{ρ·ln(u − x̃)}` in its primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogTerm {
    /// Pole location in the state plane (`Im > 0`).
    pub pole: Complex,
    /// Complex residue.
    pub rho: Complex,
}

/// A fitted state function `r(u)` together with its analytic primitive
/// `∫ r du = constant + linear·u + Σ 2·Re{ρ·ln(u − x̃)}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateFn {
    /// Pole–residue terms (one per conjugate pole pair).
    pub terms: Vec<LogTerm>,
    /// Constant term `d` of `r`: the coefficient of `u` in the primitive.
    pub linear: f64,
    /// Integration constant (fixed from the DC solution, paper §III-B).
    pub constant: f64,
}

impl StateFn {
    /// Response `k` of a real-axis [`RationalModel`] fit, times `scale`
    /// (which undoes a fit of trajectories divided by it), with the
    /// integration constant 0.
    ///
    /// # Panics
    ///
    /// Panics if the model contains a *real* pole (state fits keep poles
    /// in conjugate pairs; a real pole would put a singularity on the
    /// axis and has no smooth primitive there).
    pub(crate) fn from_state_fit(model: &RationalModel, k: usize, scale: f64) -> Self {
        let t = &model.terms()[k];
        let terms: Vec<LogTerm> = model
            .poles()
            .entries()
            .iter()
            .zip(&t.residues.0)
            .map(|(e, r)| match e {
                PoleEntry::Pair(a) => LogTerm { pole: *a, rho: r.scale(scale) },
                PoleEntry::Real(a) => {
                    panic!("state fit must not contain the real pole {a}")
                }
            })
            .collect();
        Self { terms, linear: t.d * scale, constant: 0.0 }
    }

    /// The fitted function value `r(u)`, in the operation order of
    /// [`RationalModel::eval`].
    pub fn value(&self, u: f64) -> f64 {
        let s = Complex::from_re(u);
        let mut acc = Complex::ZERO;
        for t in &self.terms {
            acc += t.rho * (s - t.pole).inv() + t.rho.conj() * (s - t.pole.conj()).inv();
        }
        (acc + Complex::from_re(self.linear)).re
    }

    /// The primitive `∫ r du` at `u`.
    pub fn integral(&self, u: f64) -> f64 {
        let mut acc = self.constant + self.linear * u;
        for t in &self.terms {
            let z = Complex::from_re(u) - t.pole;
            acc += 2.0 * (t.rho * z.ln()).re;
        }
        acc
    }

    /// Shifts the constant so that `integral(u0) == value` (anchoring on
    /// the DC solution).
    #[must_use]
    pub(crate) fn anchored(mut self, u0: f64, value: f64) -> Self {
        self.constant = 0.0;
        let at = self.integral(u0);
        self.constant = value - at;
        self
    }

    /// Number of logarithmic terms (state pole pairs).
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::{c, linspace};
    use rvf_vecfit::{fit_single, VfOptions};

    #[test]
    fn derivative_matches_finite_difference_of_eval() {
        let f = StateFn {
            terms: vec![
                LogTerm { pole: c(0.5, 0.2), rho: c(1.0, -0.5) },
                LogTerm { pole: c(-0.3, 0.8), rho: c(-0.25, 0.1) },
            ],
            linear: 0.7,
            constant: 2.0,
        };
        for &u in &[-1.0, -0.2, 0.0, 0.4, 0.9, 1.5] {
            let h = 1e-6;
            let fd = (f.integral(u + h) - f.integral(u - h)) / (2.0 * h);
            assert!((f.value(u) - fd).abs() < 1e-7, "at {u}: {} vs {fd}", f.value(u));
        }
    }

    #[test]
    fn smooth_across_the_whole_axis() {
        // No branch-cut jumps for Im(pole) > 0: sample densely and check
        // continuity.
        let f = StateFn {
            terms: vec![LogTerm { pole: c(0.0, 0.05), rho: c(2.0, 1.0) }],
            linear: 0.0,
            constant: 0.0,
        };
        let xs = linspace(-2.0, 2.0, 4001);
        for w in xs.windows(2) {
            let dy = (f.integral(w[1]) - f.integral(w[0])).abs();
            assert!(dy < 0.2, "jump at {}: {dy}", w[0]);
        }
    }

    #[test]
    fn anchoring() {
        let f = StateFn {
            terms: vec![LogTerm { pole: c(0.5, 0.3), rho: c(1.0, 0.0) }],
            linear: 1.0,
            constant: 0.0,
        }
        .anchored(0.9, 5.0);
        assert!((f.integral(0.9) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_fit_integrate_differentiate() {
        // Fit a smooth function with state VF, integrate analytically,
        // and check that the primitive's derivative reproduces the fit.
        let xs: Vec<Complex> = linspace(0.4, 1.4, 101).into_iter().map(Complex::from_re).collect();
        let g = |x: f64| 2.0 / (1.0 + 9.0 * (x - 0.9) * (x - 0.9));
        let data: Vec<Complex> = xs.iter().map(|x| Complex::from_re(g(x.re))).collect();
        let fit = fit_single(&xs, &data, &VfOptions::state(8).with_iterations(12)).unwrap();
        let prim = StateFn::from_state_fit(&fit.model, 0, 1.0);
        for &x in &[0.45, 0.7, 0.9, 1.1, 1.35] {
            let h = 1e-6;
            let fd = (prim.integral(x + h) - prim.integral(x - h)) / (2.0 * h);
            let fitted = fit.model.eval(0, Complex::from_re(x)).re;
            assert_eq!(prim.value(x).to_bits(), fitted.to_bits(), "value is the fit's eval");
            assert!((fd - fitted).abs() < 1e-6, "at {x}: {fd} vs {fitted}");
        }
        // And the integral over [0.4, 1.4] matches numeric quadrature.
        let numeric: f64 = {
            let n = 20_000;
            let h = 1.0 / n as f64;
            (0..n)
                .map(|i| {
                    let a = 0.4 + i as f64 * h;
                    0.5 * h * (g(a) + g(a + h))
                })
                .sum()
        };
        let analytic = prim.integral(1.4) - prim.integral(0.4);
        assert!((analytic - numeric).abs() < 2e-4, "integral {analytic} vs {numeric}");
    }

    #[test]
    #[should_panic(expected = "real pole")]
    fn real_pole_rejected() {
        use rvf_vecfit::{PoleSet, RationalModel, Residues, ResponseTerms};
        let model = RationalModel::new(
            PoleSet::from_reals(&[-1.0]),
            vec![ResponseTerms { residues: Residues(vec![c(1.0, 0.0)]), d: 0.0 }],
        );
        let _ = StateFn::from_state_fit(&model, 0, 1.0);
    }
}
