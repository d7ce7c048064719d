//! Real polynomials: evaluation, antidifferentiation and root finding.
//!
//! The CAFFEINE baseline regresses residues onto polynomial canonical
//! forms; its "manually integrable" path is polynomial antidifferentiation,
//! implemented here. Root finding goes through the companion matrix and
//! the crate's own eigensolver.

use crate::complex::Complex;
use crate::eig::eigenvalues;
use crate::error::NumericsError;
use crate::matrix::Mat;

/// A real polynomial stored by ascending coefficients:
/// `p(x) = c₀ + c₁·x + … + c_n·xⁿ`.
///
/// # Examples
///
/// ```
/// use rvf_numerics::Poly;
///
/// let p = Poly::new(vec![1.0, 0.0, 1.0]); // 1 + x²
/// assert_eq!(p.eval(2.0), 5.0);
/// assert_eq!(p.antideriv(0.0).eval(3.0), 12.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Poly {
    coeffs: Vec<f64>,
}

impl Poly {
    /// Creates a polynomial from ascending coefficients, trimming
    /// trailing zeros.
    pub fn new(mut coeffs: Vec<f64>) -> Self {
        while coeffs.len() > 1 && coeffs.last() == Some(&0.0) {
            coeffs.pop();
        }
        if coeffs.is_empty() {
            coeffs.push(0.0);
        }
        Self { coeffs }
    }

    /// Ascending coefficients.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Degree (0 for constants, including the zero polynomial).
    pub(crate) fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// `true` if every coefficient is zero.
    fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0.0)
    }

    /// Horner evaluation at a real point.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Antiderivative with integration constant `c0`.
    ///
    /// This is the closed-form integration path that makes polynomial
    /// CAFFEINE models automatable; general CAFFEINE bases have no such
    /// closed form (paper, Table I).
    pub fn antideriv(&self, c0: f64) -> Poly {
        let mut out = Vec::with_capacity(self.coeffs.len() + 1);
        out.push(c0);
        for (i, &c) in self.coeffs.iter().enumerate() {
            out.push(c / (i + 1) as f64);
        }
        Poly::new(out)
    }

    /// All complex roots via the companion-matrix eigenproblem.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NoConvergence`] if the eigensolver fails,
    /// or [`NumericsError::RankDeficient`] for the zero polynomial.
    pub fn roots(&self) -> Result<Vec<Complex>, NumericsError> {
        // Trim leading (highest-order) zeros already done by `new`.
        let n = self.degree();
        if self.is_zero() {
            return Err(NumericsError::RankDeficient { rank: 0, wanted: 1 });
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        let an = self.coeffs[n];
        // Companion matrix (top-row convention).
        let mut comp = Mat::zeros(n, n);
        for j in 0..n {
            comp[(0, j)] = -self.coeffs[n - 1 - j] / an;
        }
        for i in 1..n {
            comp[(i, i - 1)] = 1.0;
        }
        eigenvalues(&comp)
    }
}

/// Builds the monic polynomial with the given real roots.
pub fn from_roots(roots: &[f64]) -> Poly {
    let mut c = vec![1.0];
    for &r in roots {
        // (x − r)·p: shift up one degree, then subtract r·p.
        c.insert(0, 0.0);
        for i in 0..c.len() - 1 {
            c[i] -= r * c[i + 1];
        }
    }
    Poly::new(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::sort_eigenvalues;

    #[test]
    fn eval_and_horner() {
        let p = Poly::new(vec![1.0, -3.0, 2.0]); // 1 - 3x + 2x²
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(1.0), 0.0);
        assert_eq!(p.eval(2.0), 3.0);
    }

    #[test]
    fn trailing_zeros_trimmed() {
        let p = Poly::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(Poly::new(vec![]).degree(), 0);
    }

    #[test]
    fn roots_of_cubic() {
        let p = from_roots(&[1.0, -2.0, 0.5]);
        let mut r = p.roots().unwrap();
        sort_eigenvalues(&mut r);
        let want = [-2.0, 0.5, 1.0];
        for (got, w) in r.iter().zip(want) {
            assert!((got.re - w).abs() < 1e-8 && got.im.abs() < 1e-8, "{r:?}");
        }
    }

    #[test]
    fn roots_complex_pair() {
        // x² + 1 → ±j.
        let p = Poly::new(vec![1.0, 0.0, 1.0]);
        let mut r = p.roots().unwrap();
        sort_eigenvalues(&mut r);
        assert!((r[0] - Complex::new(0.0, -1.0)).abs() < 1e-10);
        assert!((r[1] - Complex::new(0.0, 1.0)).abs() < 1e-10);
    }

    #[test]
    fn constant_has_no_roots_and_zero_errs() {
        assert!(Poly::new(vec![5.0]).roots().unwrap().is_empty());
        assert!(Poly::new(vec![0.0, 0.0]).roots().is_err());
    }
}
