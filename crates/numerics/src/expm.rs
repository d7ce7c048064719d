//! Closed-form matrix exponentials and first-order-hold propagators for
//! the 1×1 / 2×2 blocks of the Hammerstein model.
//!
//! A complex pole pair `a = σ ± jω` is realized as the real block
//! `A = [[σ, ω], [−ω, σ]]`, which acts on `(x₁, x₂)` exactly like
//! multiplication by the complex scalar `λ = σ − jω` acts on
//! `z = x₁ + j·x₂`. All propagator algebra therefore reduces to complex
//! scalar arithmetic, giving an *exact* (A-stable for any step) update
//!
//! ```text
//! x(t+h) = E·x(t) + Γ₁·v(t) + Γ₂·(v(t+h) − v(t))
//! E  = e^{Ah}
//! Γ₁ = A⁻¹(E − I)
//! Γ₂ = A⁻²(E − I)/h − A⁻¹
//! ```
//!
//! for inputs held first-order (linear) over each step. This is what
//! makes the extracted model "stable by construction": the poles are in
//! the left half-plane and the update is their exact flow.

use crate::complex::Complex;

/// `Γ₁(x) / h = (eˣ − 1)/x` with a series fallback near zero.
fn phi1(x: Complex) -> Complex {
    if x.abs() < 1e-4 {
        // 1 + x/2 + x²/6 + x³/24
        Complex::ONE + x.scale(0.5) + (x * x).scale(1.0 / 6.0) + (x * x * x).scale(1.0 / 24.0)
    } else {
        (x.exp() - Complex::ONE) / x
    }
}

/// `Γ₂(x) / h = ((eˣ − 1)/x − 1)/x` with a series fallback near zero.
fn phi2(x: Complex) -> Complex {
    if x.abs() < 1e-4 {
        // 1/2 + x/6 + x²/24 + x³/120
        Complex::from_re(0.5)
            + x.scale(1.0 / 6.0)
            + (x * x).scale(1.0 / 24.0)
            + (x * x * x).scale(1.0 / 120.0)
    } else {
        (phi1(x) - Complex::ONE) / x
    }
}

/// Exact first-order-hold propagator for a scalar block `ẋ = a·x + v(t)`.
#[derive(Debug, Clone, Copy)]
pub struct FohScalar {
    /// `e^{ah}`.
    pub e: f64,
    /// `Γ₁ = ∫₀ʰ e^{a(h−τ)} dτ`.
    pub g1: f64,
    /// `Γ₂` weight of the input slope term.
    pub g2: f64,
}

impl FohScalar {
    /// Precomputes the propagator for pole `a` and step `h`.
    pub fn new(a: f64, h: f64) -> Self {
        let x = Complex::from_re(a * h);
        Self { e: (a * h).exp(), g1: (phi1(x).re) * h, g2: (phi2(x).re) * h }
    }

    /// Advances the state one step with inputs `v0 = v(t)`, `v1 = v(t+h)`.
    #[inline]
    pub fn step(&self, x: f64, v0: f64, v1: f64) -> f64 {
        self.e * x + self.g1 * v0 + self.g2 * (v1 - v0)
    }
}

/// Exact first-order-hold propagator for a 2×2 rotation-scaled block
/// (complex pole pair), computed in the complex-scalar representation.
#[derive(Debug, Clone, Copy)]
pub struct FohPair {
    /// `e^{λh}` with `λ = σ − jω`.
    pub e: Complex,
    /// `Γ₁` in the complex representation.
    pub g1: Complex,
    /// `Γ₂` in the complex representation.
    pub g2: Complex,
}

impl FohPair {
    /// Precomputes the propagator for the block `[[σ, ω], [−ω, σ]]`.
    pub fn new(sigma: f64, omega: f64, h: f64) -> Self {
        let lambda = Complex::new(sigma, -omega);
        let x = lambda.scale(h);
        Self { e: x.exp(), g1: phi1(x).scale(h), g2: phi2(x).scale(h) }
    }

    /// Advances `(x₁, x₂)` with 2-vector inputs `v0`, `v1`.
    #[inline]
    pub fn step(&self, x: [f64; 2], v0: [f64; 2], v1: [f64; 2]) -> [f64; 2] {
        let z = Complex::new(x[0], x[1]);
        let w0 = Complex::new(v0[0], v0[1]);
        let w1 = Complex::new(v1[0], v1[1]);
        let zn = self.e * z + self.g1 * w0 + self.g2 * (w1 - w0);
        [zn.re, zn.im]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense RK4 reference for ẋ = a x + v(t), v linear in t.
    fn rk4_scalar(a: f64, x0: f64, v0: f64, v1: f64, h: f64, steps: usize) -> f64 {
        let mut x = x0;
        let dt = h / steps as f64;
        let v = |t: f64| v0 + (v1 - v0) * (t / h);
        let f = |t: f64, x: f64| a * x + v(t);
        let mut t = 0.0;
        for _ in 0..steps {
            let k1 = f(t, x);
            let k2 = f(t + dt / 2.0, x + dt / 2.0 * k1);
            let k3 = f(t + dt / 2.0, x + dt / 2.0 * k2);
            let k4 = f(t + dt, x + dt * k3);
            x += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
            t += dt;
        }
        x
    }

    /// Exponential of the 2×2 real block `[[σ, ω], [−ω, σ]]·h`: the
    /// closed-form oracle for [`FohPair`]'s homogeneous flow.
    fn expm2(sigma: f64, omega: f64, h: f64) -> [[f64; 2]; 2] {
        let r = (sigma * h).exp();
        let (sn, cs) = (omega * h).sin_cos();
        [[r * cs, r * sn], [-r * sn, r * cs]]
    }

    #[test]
    fn expm2_is_scaled_rotation() {
        let e = expm2(-1.0, 2.0, 0.5);
        let r = (-0.5_f64).exp();
        assert!((e[0][0] - r * 1.0_f64.cos()).abs() < 1e-15);
        assert!((e[0][1] - r * 1.0_f64.sin()).abs() < 1e-15);
        assert!((e[1][0] + r * 1.0_f64.sin()).abs() < 1e-15);
    }

    #[test]
    fn scalar_foh_matches_rk4() {
        let a = -3.0e9_f64;
        let h = 1.0e-10;
        let p = FohScalar::new(a, h);
        let got = p.step(1.0, 0.5, 1.5);
        let want = rk4_scalar(a, 1.0, 0.5, 1.5, h, 20_000);
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn scalar_foh_constant_input_steady_state() {
        // With constant v, x converges to -v/a.
        let a = -2.0;
        let p = FohScalar::new(a, 0.1);
        let mut x = 0.0;
        for _ in 0..2000 {
            x = p.step(x, 4.0, 4.0);
        }
        assert!((x - 2.0).abs() < 1e-12);
    }

    #[test]
    fn small_pole_limit_is_integrator() {
        // a → 0: x+ = x + h*(v0+v1)/2 (trapezoid of linear input).
        let p = FohScalar::new(1e-12, 0.25);
        let x1 = p.step(0.0, 1.0, 3.0);
        assert!((x1 - 0.25 * 2.0).abs() < 1e-10, "{x1}");
    }

    #[test]
    fn pair_foh_matches_dense_rk4() {
        let (sg, om) = (-1.0e9_f64, 6.0e9_f64);
        let h = 2.0e-10;
        let p = FohPair::new(sg, om, h);
        let got = p.step([0.3, -0.2], [1.0, 0.0], [0.0, 1.0]);
        // Reference: integrate the real 2x2 system densely.
        let steps = 40_000;
        let dt = h / steps as f64;
        let mut x = [0.3, -0.2];
        let mut t = 0.0;
        let v = |t: f64| {
            let a = t / h;
            [1.0 * (1.0 - a), a]
        };
        let f = |t: f64, x: [f64; 2]| {
            let vv = v(t);
            [sg * x[0] + om * x[1] + vv[0], -om * x[0] + sg * x[1] + vv[1]]
        };
        for _ in 0..steps {
            let k1 = f(t, x);
            let k2 = f(t + dt / 2.0, [x[0] + dt / 2.0 * k1[0], x[1] + dt / 2.0 * k1[1]]);
            let k3 = f(t + dt / 2.0, [x[0] + dt / 2.0 * k2[0], x[1] + dt / 2.0 * k2[1]]);
            let k4 = f(t + dt, [x[0] + dt * k3[0], x[1] + dt * k3[1]]);
            x = [
                x[0] + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                x[1] + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            ];
            t += dt;
        }
        assert!((got[0] - x[0]).abs() < 1e-8, "{got:?} vs {x:?}");
        assert!((got[1] - x[1]).abs() < 1e-8);
    }

    #[test]
    fn pair_block_matches_expm2_on_homogeneous_flow() {
        let (sg, om, h) = (-0.5, 3.0, 0.7);
        let p = FohPair::new(sg, om, h);
        let e = expm2(sg, om, h);
        let x = [1.0, 2.0];
        let got = p.step(x, [0.0, 0.0], [0.0, 0.0]);
        let want = [e[0][0] * x[0] + e[0][1] * x[1], e[1][0] * x[0] + e[1][1] * x[1]];
        assert!((got[0] - want[0]).abs() < 1e-14);
        assert!((got[1] - want[1]).abs() < 1e-14);
    }

    #[test]
    fn stability_for_huge_steps() {
        // Exact flow never blows up for LHP poles, no matter the step.
        let p = FohScalar::new(-1.0e10, 1.0); // ah = -1e10
        let x = p.step(1.0, 1.0, 1.0);
        assert!(x.is_finite() && x.abs() <= 1.0);
        let q = FohPair::new(-1.0e10, 5.0e10, 1.0);
        let y = q.step([1.0, 1.0], [1.0, 1.0], [1.0, 1.0]);
        assert!(y[0].is_finite() && y[1].is_finite());
    }
}
