//! Configuration for the vector fitting engine.

/// Which axis the sample points live on.
///
/// Frequency responses are sampled on the imaginary axis (`s = jω`);
/// the recursive state-dimension fits of the RVF algorithm run on the
/// *real* axis (`ξ = x`, the state estimator value). The two axes differ
/// in their symmetry and stability conventions, and the axis alone
/// decides them:
///
/// * `Imaginary`: data carries Hermitian symmetry, poles must be stable
///   (left half-plane) for a causal model, basis rows are complex and are
///   split into real/imaginary equations. Relocated right-half-plane
///   poles are flipped (paper: "guaranteed stable by construction"), and
///   starting pairs are spread logarithmically, damped by 1/100
///   (Gustavsen's classic recipe).
/// * `Real`: data is real-valued, basis functions must stay real and
///   nonsingular on the sampled interval, which requires *complex-pair*
///   poles kept off the real axis (the paper's "complex pairs whose real
///   parts have opposite sign" in the `ju` plane — conjugate pairs in the
///   `x` plane): at least 5% of the interval length. Starting pairs are
///   spread linearly; no stability flipping applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Axis {
    /// Fit along `s = jω` (frequency responses).
    #[default]
    Imaginary,
    /// Fit along a real variable (residue trajectories over the state).
    Real,
}

/// Relocation stops early once a round's maximum relative pole
/// displacement falls below this threshold (the poles have settled).
/// At `1e-10` a fit almost always runs its full iteration budget.
pub(crate) const STOP_DISPLACEMENT: f64 = 1e-10;

/// Options controlling a vector fitting run.
///
/// The axis decides the model's polynomial terms: a real-axis fit
/// carries a constant column `d`, a frequency fit carries none, and no
/// fit carries a linear `s·e` column.
///
/// # Examples
///
/// ```
/// use rvf_vecfit::{Axis, VfOptions};
///
/// let opts = VfOptions::frequency(12).with_iterations(8);
/// assert_eq!(opts.n_poles, 12);
/// assert_eq!(opts.axis, Axis::Imaginary);
/// ```
#[derive(Debug, Clone)]
pub struct VfOptions {
    /// Number of poles `P` (counting each member of a complex pair).
    pub n_poles: usize,
    /// Number of pole-relocation iterations.
    pub iterations: usize,
    /// Sample axis (see [`Axis`]).
    pub axis: Axis,
    /// Use the relaxed nontriviality constraint of Gustavsen (2006)
    /// instead of fixing `σ(∞) = 1`.
    pub relaxed: bool,
}

impl VfOptions {
    /// Preset for frequency-response fitting with `n_poles` stable poles.
    pub fn frequency(n_poles: usize) -> Self {
        Self { n_poles, iterations: 10, axis: Axis::Imaginary, relaxed: true }
    }

    /// Preset for real-axis (state-dimension) fitting with `n_poles`
    /// poles arranged in complex pairs. `n_poles` is rounded up to even.
    pub fn state(n_poles: usize) -> Self {
        Self { n_poles: n_poles + n_poles % 2, iterations: 10, axis: Axis::Real, relaxed: true }
    }

    /// Whether the fit carries the constant column `d`: only real-axis
    /// fits do.
    pub(crate) fn has_const(&self) -> bool {
        self.axis == Axis::Real
    }

    /// Sets the iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Switches between relaxed and classic sigma normalization.
    pub fn with_relaxed(mut self, relaxed: bool) -> Self {
        self.relaxed = relaxed;
        self
    }
}

impl Default for VfOptions {
    fn default() -> Self {
        Self::frequency(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_preset() {
        let o = VfOptions::frequency(10);
        assert!(o.relaxed);
        assert_eq!(o.axis, Axis::Imaginary);
    }

    #[test]
    fn state_preset_rounds_to_even() {
        let o = VfOptions::state(9);
        assert_eq!(o.n_poles, 10);
        assert_eq!(o.axis, Axis::Real);
        assert!(o.has_const());
        assert!(!VfOptions::frequency(10).has_const());
    }

    #[test]
    fn builder_methods_chain() {
        let o = VfOptions::frequency(4).with_iterations(3).with_relaxed(false);
        assert_eq!(o.iterations, 3);
        assert!(!o.relaxed);
    }
}
