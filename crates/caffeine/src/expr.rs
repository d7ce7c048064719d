//! CAFFEINE canonical-form expressions (McConaghy & Gielen 2009 — the
//! paper’s reference \[7\], reimplemented in miniature).
//!
//! A model is a *generalized linear* combination of basis terms
//!
//! ```text
//! f(x) = w₀ + Σ_i w_i · B_i(x)
//! ```
//!
//! where each basis term is a product of factors: integer powers of `x`
//! and unary operators applied to low-degree inner polynomials. The GP
//! engine evolves only the term *structure*; the weights `w_i` are
//! always solved by linear least squares — CAFFEINE's defining trick.

use rvf_numerics::Poly;

/// Unary operators available to the canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnaryOp {
    /// `log₁₀(|arg| + ε)` — CAFFEINE's workhorse for smooth saturation.
    Log10Abs,
    /// `exp(clamp(arg))`.
    Exp,
    /// `1 / (arg)` guarded away from zero.
    Inv,
    /// `√|arg|`.
    SqrtAbs,
    /// `tanh(arg)`.
    Tanh,
}

impl UnaryOp {
    /// Applies the operator (guarded against singular arguments).
    pub(crate) fn apply(self, v: f64) -> f64 {
        match self {
            UnaryOp::Log10Abs => (v.abs() + 1e-30).log10(),
            UnaryOp::Exp => v.clamp(-40.0, 40.0).exp(),
            UnaryOp::Inv => {
                let d = if v.abs() < 1e-9 { 1e-9 * v.signum_or_one() } else { v };
                1.0 / d
            }
            UnaryOp::SqrtAbs => v.abs().sqrt(),
            UnaryOp::Tanh => v.tanh(),
        }
    }

    /// All operators (for random choice).
    pub(crate) const ALL: [UnaryOp; 5] =
        [UnaryOp::Log10Abs, UnaryOp::Exp, UnaryOp::Inv, UnaryOp::SqrtAbs, UnaryOp::Tanh];
}

trait SignumOrOne {
    fn signum_or_one(self) -> f64;
}
impl SignumOrOne for f64 {
    fn signum_or_one(self) -> f64 {
        if self == 0.0 {
            1.0
        } else {
            self.signum()
        }
    }
}

/// One multiplicative factor of a basis term.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Factor {
    /// `x^p` with `p ≥ 1` (the constant is the term weight itself).
    Power(u32),
    /// `op(c₀ + c₁·x + c₂·x²)`.
    Op(UnaryOp, [f64; 3]),
}

impl Factor {
    /// Evaluates the factor at `x`.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        match self {
            Factor::Power(p) => x.powi(*p as i32),
            Factor::Op(op, c) => op.apply(c[0] + c[1] * x + c[2] * x * x),
        }
    }

    /// Structural complexity cost (CAFFEINE penalizes operators more
    /// than raw powers).
    pub(crate) fn complexity(&self) -> usize {
        match self {
            Factor::Power(p) => *p as usize,
            Factor::Op(_, _) => 4,
        }
    }

    /// `true` for plain powers (the analytically integrable subset).
    pub(crate) fn is_polynomial(&self) -> bool {
        matches!(self, Factor::Power(_))
    }
}

/// A product of factors; the empty product is the constant term `1`.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct BasisTerm {
    /// The factors.
    pub(crate) factors: Vec<Factor>,
}

impl BasisTerm {
    /// The constant term.
    pub(crate) fn constant() -> Self {
        Self { factors: Vec::new() }
    }

    /// A plain power term `x^p`.
    pub(crate) fn power(p: u32) -> Self {
        Self { factors: vec![Factor::Power(p)] }
    }

    /// Evaluates the product at `x`.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        self.factors.iter().map(|f| f.eval(x)).product()
    }

    /// Structural complexity.
    pub(crate) fn complexity(&self) -> usize {
        1 + self.factors.iter().map(Factor::complexity).sum::<usize>()
    }

    /// `true` if the term is a pure polynomial in `x`.
    pub(crate) fn is_polynomial(&self) -> bool {
        self.factors.iter().all(Factor::is_polynomial)
    }

    /// Total power when polynomial.
    pub(crate) fn total_power(&self) -> Option<u32> {
        if !self.is_polynomial() {
            return None;
        }
        Some(
            self.factors
                .iter()
                .map(|f| match f {
                    Factor::Power(p) => *p,
                    Factor::Op(..) => 0,
                })
                .sum(),
        )
    }
}

/// A complete canonical-form model: weighted sum of terms.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct CanonicalForm {
    /// Basis terms (the first is conventionally the constant).
    pub(crate) terms: Vec<BasisTerm>,
    /// Linear weights, one per term (solved by least squares).
    pub(crate) weights: Vec<f64>,
}

/// Whether a canonical form has a closed-form antiderivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrability {
    /// Pure polynomial: integrates in closed form — the automation path.
    Closed,
    /// Contains operator factors: "the indefinite integral … needs to be
    /// computed manually, if it can be computed altogether" (paper §IV).
    ManualRequired,
}

impl CanonicalForm {
    /// Evaluates the model at `x`.
    ///
    /// # Panics
    ///
    /// Panics if weights and terms disagree in length.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        assert_eq!(self.terms.len(), self.weights.len(), "weights not solved");
        self.terms.iter().zip(&self.weights).map(|(t, w)| w * t.eval(x)).sum()
    }

    /// Total structural complexity.
    pub(crate) fn complexity(&self) -> usize {
        self.terms.iter().map(BasisTerm::complexity).sum()
    }

    /// Integrability classification.
    pub(crate) fn integrability(&self) -> Integrability {
        if self.terms.iter().all(BasisTerm::is_polynomial) {
            Integrability::Closed
        } else {
            Integrability::ManualRequired
        }
    }

    /// Closed-form antiderivative for polynomial models (`None` when
    /// operator terms are present — the paper's automation gap).
    pub(crate) fn antiderivative(&self) -> Option<Poly> {
        if self.integrability() != Integrability::Closed {
            return None;
        }
        let max_pow =
            self.terms.iter().map(|t| t.total_power().expect("polynomial")).max().unwrap_or(0)
                as usize;
        let mut coeffs = vec![0.0; max_pow + 1];
        for (t, w) in self.terms.iter().zip(&self.weights) {
            let p = t.total_power().expect("polynomial") as usize;
            coeffs[p] += w;
        }
        Some(Poly::new(coeffs).antideriv(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_guarded() {
        assert!(UnaryOp::Log10Abs.apply(0.0).is_finite());
        assert!(UnaryOp::Exp.apply(1e6).is_finite());
        assert!(UnaryOp::Inv.apply(0.0).is_finite());
        assert!(UnaryOp::SqrtAbs.apply(-4.0) == 2.0);
        assert!((UnaryOp::Tanh.apply(1e3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn term_eval_product() {
        let t = BasisTerm {
            factors: vec![Factor::Power(2), Factor::Op(UnaryOp::Tanh, [0.0, 1.0, 0.0])],
        };
        let x = 0.7;
        assert!((t.eval(x) - x * x * x.tanh()).abs() < 1e-15);
        assert!(!t.is_polynomial());
        assert_eq!(t.total_power(), None);
    }

    #[test]
    fn polynomial_detection_and_power() {
        let t = BasisTerm { factors: vec![Factor::Power(2), Factor::Power(1)] };
        assert!(t.is_polynomial());
        assert_eq!(t.total_power(), Some(3));
        assert_eq!(BasisTerm::constant().total_power(), Some(0));
    }

    #[test]
    fn canonical_eval_and_integrability() {
        // f(x) = 2 + 3x².
        let cf = CanonicalForm {
            terms: vec![BasisTerm::constant(), BasisTerm::power(2)],
            weights: vec![2.0, 3.0],
        };
        assert!((cf.eval(2.0) - 14.0).abs() < 1e-15);
        assert_eq!(cf.integrability(), Integrability::Closed);
        let prim = cf.antiderivative().unwrap();
        // ∫(2 + 3x²) = 2x + x³.
        assert!((prim.eval(2.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn operator_blocks_integration() {
        let cf = CanonicalForm {
            terms: vec![BasisTerm { factors: vec![Factor::Op(UnaryOp::Exp, [0.0, 1.0, 0.0])] }],
            weights: vec![1.0],
        };
        assert_eq!(cf.integrability(), Integrability::ManualRequired);
        assert!(cf.antiderivative().is_none());
    }

    #[test]
    fn complexity_counts_ops_heavier() {
        let poly = BasisTerm::power(3);
        let op = BasisTerm { factors: vec![Factor::Op(UnaryOp::Inv, [1.0, 0.0, 0.0])] };
        assert!(op.complexity() > poly.complexity() - 2);
        assert_eq!(poly.complexity(), 4);
        assert_eq!(op.complexity(), 5);
    }
}
