//! Fitted rational models: common poles, per-response residues.

use rvf_numerics::Complex;

use crate::basis::Residues;
use crate::poles::PoleSet;

/// The residues and constant term of one response sharing the common
/// pole set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResponseTerms {
    /// Structured residues (one complex value per pole entry).
    pub residues: Residues,
    /// Constant term `d` (fitted on the real axis, zero on `jω`).
    pub d: f64,
}

impl ResponseTerms {
    /// The response multiplied by `k`: every residue and `d`.
    pub fn scaled(&self, k: f64) -> Self {
        let residues = Residues(self.residues.0.iter().map(|r| r.scale(k)).collect());
        Self { residues, d: self.d * k }
    }
}

/// A set of rational functions with *common poles* and per-response
/// residues — the output of a (vector) fit:
///
/// ```text
/// H_k(s) ≈ Σ_p r_{k,p}/(s − a_p) + d_k
/// ```
///
/// This is vector fitting's general form without its optional `s·e_k`
/// term: no fit here has the linear column that would set it.
///
/// For the TFT pipeline, `k` indexes the state-space snapshots, so the
/// residue trajectories `r_p(x(k))` of the paper are the columns of this
/// model.
///
/// # Examples
///
/// ```
/// use rvf_numerics::c;
/// use rvf_vecfit::{PoleSet, RationalModel, ResponseTerms, Residues};
///
/// let poles = PoleSet::from_reals(&[-1.0]);
/// let terms = ResponseTerms {
///     residues: Residues(vec![c(2.0, 0.0)]),
///     d: 0.0,
/// };
/// let model = RationalModel::new(poles, vec![terms]);
/// // H(0) = 2/(0 - (-1)) = 2.
/// assert!((model.eval(0, c(0.0, 0.0)).re - 2.0).abs() < 1e-14);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RationalModel {
    poles: PoleSet,
    terms: Vec<ResponseTerms>,
}

impl RationalModel {
    /// Assembles a model from a pole set and per-response terms.
    pub fn new(poles: PoleSet, terms: Vec<ResponseTerms>) -> Self {
        Self { poles, terms }
    }

    /// The shared pole set.
    pub fn poles(&self) -> &PoleSet {
        &self.poles
    }

    /// Per-response terms.
    pub fn terms(&self) -> &[ResponseTerms] {
        &self.terms
    }

    /// Number of responses sharing the poles.
    pub fn n_responses(&self) -> usize {
        self.terms.len()
    }

    /// Evaluates response `k` at the (complex) point `s`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn eval(&self, k: usize, s: Complex) -> Complex {
        let t = &self.terms[k];
        t.residues.eval(&self.poles, s) + Complex::from_re(t.d)
    }

    /// The residue trajectory of pole entry `p` across all responses —
    /// the state-dependent residue samples `r_p(x(k))` that the RVF
    /// recursion fits next.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn residue_trajectory(&self, p: usize) -> Vec<Complex> {
        assert!(p < self.poles.n_entries(), "pole entry out of range");
        self.terms.iter().map(|t| t.residues.0[p]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poles::PoleEntry;
    use rvf_numerics::c;

    fn two_response_model() -> RationalModel {
        let poles = PoleSet::new(vec![PoleEntry::Pair(c(-1.0, 3.0))]);
        let t0 = ResponseTerms { residues: Residues(vec![c(1.0, 0.5)]), d: 0.1 };
        let t1 = ResponseTerms { residues: Residues(vec![c(2.0, -0.5)]), d: -0.1 };
        RationalModel::new(poles, vec![t0, t1])
    }

    #[test]
    fn eval_includes_d() {
        let poles = PoleSet::from_reals(&[-1.0]);
        let t = ResponseTerms { residues: Residues(vec![c(2.0, 0.0)]), d: 3.0 };
        let m = RationalModel::new(poles, vec![t]);
        let s = c(0.0, 5.0);
        let v = m.eval(0, s);
        assert!((v - (c(2.0, 0.0) / (s + 1.0) + c(3.0, 0.0))).abs() < 1e-14);
    }

    #[test]
    fn hermitian_symmetry_on_imag_axis() {
        let m = two_response_model();
        let s = c(0.0, 2.0);
        let a = m.eval(0, s);
        let b = m.eval(0, s.conj());
        assert!((a.conj() - b).abs() < 1e-14, "model must satisfy H(s*) = H(s)*");
    }

    #[test]
    fn residue_trajectory_collects_over_responses() {
        let m = two_response_model();
        let tr = m.residue_trajectory(0);
        assert_eq!(tr, vec![c(1.0, 0.5), c(2.0, -0.5)]);
    }
}
