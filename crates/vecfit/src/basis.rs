//! Partial-fraction basis evaluation.
//!
//! For a pole set the basis columns are
//!
//! * real pole `a`: `φ(s) = 1/(s − a)`
//! * pair `(a, a*)`: `φ₁(s) = 1/(s − a) + 1/(s − a*)` and
//!   `φ₂(s) = j/(s − a) − j/(s − a*)`
//!
//! The pair combination keeps the fitted function real for data with the
//! appropriate symmetry on *both* axes: Hermitian data on `s = jω` and
//! real data on real `x` (where `φ₁ = 2·Re{1/(x−a)}` and
//! `φ₂ = −2·Im{1/(x−a)}` are real-valued functions of `x`).

use rvf_numerics::Complex;

use crate::poles::{PoleEntry, PoleSet};

/// Writes the basis row at sample point `s` into `out` (resized to the
/// basis width).
pub fn basis_row(poles: &PoleSet, s: Complex, out: &mut Vec<Complex>) {
    out.clear();
    for e in poles.entries() {
        match e {
            PoleEntry::Real(a) => {
                out.push((s - Complex::from_re(*a)).inv());
            }
            PoleEntry::Pair(a) => {
                let g1 = (s - *a).inv();
                let g2 = (s - a.conj()).inv();
                out.push(g1 + g2);
                out.push((g1 - g2) * Complex::I);
            }
        }
    }
}

/// Structured residues aligned with the entries of a [`PoleSet`]: one
/// complex number per entry (`Real` entries have zero imaginary part;
/// `Pair` entries store `c₁ + j·c₂` in terms of the basis coefficients).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Residues(pub Vec<Complex>);

impl Residues {
    /// Converts the flat least-squares coefficient vector (one value per
    /// basis column) into structured residues.
    pub(crate) fn from_flat(poles: &PoleSet, flat: &[f64]) -> Self {
        let mut out = Vec::with_capacity(poles.n_entries());
        let mut i = 0;
        for e in poles.entries() {
            match e {
                PoleEntry::Real(_) => {
                    out.push(Complex::from_re(flat[i]));
                    i += 1;
                }
                PoleEntry::Pair(_) => {
                    out.push(Complex::new(flat[i], flat[i + 1]));
                    i += 2;
                }
            }
        }
        Self(out)
    }

    /// Flattens structured residues back into basis coefficients.
    pub fn to_flat(&self, poles: &PoleSet) -> Vec<f64> {
        let mut out = Vec::with_capacity(poles.n_basis());
        for (e, r) in poles.entries().iter().zip(&self.0) {
            match e {
                PoleEntry::Real(_) => out.push(r.re),
                PoleEntry::Pair(_) => {
                    out.push(r.re);
                    out.push(r.im);
                }
            }
        }
        out
    }

    /// Evaluates the partial-fraction sum `Σ` at `s`.
    ///
    /// For pairs the contribution is `r/(s−a) + r*/(s−a*)` with
    /// `r = c₁ + j·c₂`, exactly the combination realized by the basis
    /// columns.
    pub(crate) fn eval(&self, poles: &PoleSet, s: Complex) -> Complex {
        let mut acc = Complex::ZERO;
        for (e, r) in poles.entries().iter().zip(&self.0) {
            match e {
                PoleEntry::Real(a) => {
                    acc += *r * (s - Complex::from_re(*a)).inv();
                }
                PoleEntry::Pair(a) => {
                    acc += *r * (s - *a).inv() + r.conj() * (s - a.conj()).inv();
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::c;

    #[test]
    fn real_pole_basis() {
        let p = PoleSet::from_reals(&[-2.0]);
        let mut row = Vec::new();
        basis_row(&p, c(0.0, 1.0), &mut row);
        assert_eq!(row.len(), 1);
        // 1/(j + 2)
        let want = c(0.0, 1.0) + c(2.0, 0.0);
        assert!((row[0] - want.inv()).abs() < 1e-15);
    }

    #[test]
    fn pair_basis_is_real_on_real_axis() {
        let p = PoleSet::new(vec![PoleEntry::Pair(c(0.5, 0.3))]);
        let mut row = Vec::new();
        for &x in &[0.0, 0.4, 1.0, 2.0] {
            basis_row(&p, Complex::from_re(x), &mut row);
            assert_eq!(row.len(), 2);
            assert!(row[0].im.abs() < 1e-14, "phi1 not real at x={x}");
            assert!(row[1].im.abs() < 1e-14, "phi2 not real at x={x}");
        }
    }

    #[test]
    fn pair_basis_hermitian_on_imag_axis() {
        let p = PoleSet::new(vec![PoleEntry::Pair(c(-1.0, 5.0))]);
        let mut row_p = Vec::new();
        let mut row_m = Vec::new();
        basis_row(&p, c(0.0, 2.0), &mut row_p);
        basis_row(&p, c(0.0, -2.0), &mut row_m);
        // φ(s*) = φ(s)* for the combined pair basis.
        for (a, b) in row_p.iter().zip(&row_m) {
            assert!((a.conj() - *b).abs() < 1e-14);
        }
    }

    #[test]
    fn residue_round_trip() {
        let p = PoleSet::new(vec![
            PoleEntry::Real(-1.0),
            PoleEntry::Pair(c(-2.0, 3.0)),
            PoleEntry::Real(-4.0),
        ]);
        let flat = vec![1.5, 0.25, -0.75, 2.0];
        let r = Residues::from_flat(&p, &flat);
        assert_eq!(r.to_flat(&p), flat);
        assert_eq!(r.0[1], c(0.25, -0.75));
    }

    #[test]
    fn eval_matches_basis_linear_combination() {
        let p = PoleSet::new(vec![PoleEntry::Real(-1.0), PoleEntry::Pair(c(-2.0, 3.0))]);
        let flat = vec![0.7, -0.4, 1.1];
        let r = Residues::from_flat(&p, &flat);
        let s = c(0.0, 1.7);
        let mut row = Vec::new();
        basis_row(&p, s, &mut row);
        let via_basis: Complex = row.iter().zip(&flat).map(|(phi, &w)| *phi * w).sum();
        assert!((r.eval(&p, s) - via_basis).abs() < 1e-13);
    }
}
