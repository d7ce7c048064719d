//! Junction diode with exponential limiting.

use super::{Device, NodeId, StampContext};

/// Exponential junction diode `i = Is·(e^{v/(n·Vt)} − 1)`.
///
/// Above a critical forward voltage the exponential is continued
/// linearly (first-order Taylor), which keeps Newton iterates finite for
/// arbitrary excursions — the standard junction-limiting trick.
#[derive(Debug, Clone)]
pub(crate) struct Diode {
    name: String,
    p: NodeId,
    n: NodeId,
    /// Saturation current (A).
    pub(crate) is: f64,
    /// Ideality factor.
    pub(crate) n_ideal: f64,
    /// Thermal voltage (V), 25.85 mV at 300 K.
    pub(crate) vt: f64,
}

/// Maximum exponent argument before linear continuation.
const EXP_LIMIT: f64 = 40.0;

impl Diode {
    /// Creates a diode with the given saturation current and ideality.
    ///
    /// # Panics
    ///
    /// Panics if `is` or `n_ideal` are not positive finite numbers.
    pub(crate) fn new(
        name: impl Into<String>,
        p: NodeId,
        n: NodeId,
        is: f64,
        n_ideal: f64,
    ) -> Self {
        assert!(is.is_finite() && is > 0.0, "saturation current must be positive");
        assert!(n_ideal.is_finite() && n_ideal > 0.0, "ideality must be positive");
        Self { name: name.into(), p, n, is, n_ideal, vt: 0.025852 }
    }

    /// Current and conductance at junction voltage `v`.
    pub(crate) fn iv(&self, v: f64) -> (f64, f64) {
        let nvt = self.n_ideal * self.vt;
        let arg = v / nvt;
        if arg > EXP_LIMIT {
            // Linear continuation beyond the limit keeps i and di/dv
            // continuous.
            let e = EXP_LIMIT.exp();
            let i = self.is * (e * (1.0 + (arg - EXP_LIMIT)) - 1.0);
            let g = self.is * e / nvt;
            (i, g)
        } else if arg < -EXP_LIMIT {
            (-self.is, self.is * (-EXP_LIMIT).exp() / nvt)
        } else {
            let e = arg.exp();
            (self.is * (e - 1.0), self.is * e / nvt)
        }
    }
}

impl Device for Diode {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let v = ctx.v(self.p) - ctx.v(self.n);
        let (mut i, mut g) = self.iv(v);
        // Convergence aid: parallel gmin conductance.
        let gmin = ctx.gmin();
        i += gmin * v;
        g += gmin;
        ctx.stamp_current(self.p, self.n, i, g);
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_conduction_shockley() {
        let d = Diode::new("D1", 1, 0, 1e-14, 1.0);
        let (i, g) = d.iv(0.6);
        let want = 1e-14 * ((0.6_f64 / 0.025852).exp() - 1.0);
        assert!((i - want).abs() < want * 1e-12);
        assert!(g > 0.0);
    }

    #[test]
    fn reverse_saturation() {
        let d = Diode::new("D1", 1, 0, 1e-14, 1.0);
        let (i, g) = d.iv(-5.0);
        assert!((i + 1e-14).abs() < 1e-20);
        assert!(g >= 0.0);
    }

    #[test]
    fn limiting_is_continuous() {
        let d = Diode::new("D1", 1, 0, 1e-14, 1.0);
        let v_lim = EXP_LIMIT * d.n_ideal * d.vt;
        let (below, gb) = d.iv(v_lim - 1e-9);
        let (above, ga) = d.iv(v_lim + 1e-9);
        assert!((below - above).abs() < below.abs() * 1e-6);
        assert!((gb - ga).abs() < gb * 1e-6);
        // Far beyond: finite, monotone.
        let (huge, _) = d.iv(100.0);
        assert!(huge.is_finite() && huge > above);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let d = Diode::new("D1", 1, 0, 1e-12, 1.3);
        for &v in &[-0.5, 0.0, 0.3, 0.55, 0.7] {
            let h = 1e-7;
            let (ip, _) = d.iv(v + h);
            let (im, _) = d.iv(v - h);
            let (_, g) = d.iv(v);
            let fd = (ip - im) / (2.0 * h);
            assert!(
                (g - fd).abs() <= 1e-4 * fd.abs().max(1e-12),
                "dI/dV mismatch at {v}: {g} vs {fd}"
            );
        }
    }
}
