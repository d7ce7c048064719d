//! Level-1 (square-law) MOSFET.
//!
//! The synthetic high-speed buffer uses this model as the stand-in for
//! the paper's UMC 0.13 µm devices: the TFT/RVF extraction consumes only
//! the Jacobian samples `∂i/∂v`, `∂q/∂v`, so any smooth transistor model
//! that exhibits saturation produces the same experiment *shape* (see
//! DESIGN.md, substitutions).

use super::{Device, NodeId, StampContext};

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MosType {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Level-1 model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosfetParams {
    /// Transconductance factor `k = µ·Cox·W/L` (A/V²).
    pub(crate) kp: f64,
    /// Threshold voltage magnitude (V, positive for both polarities).
    pub(crate) vt0: f64,
    /// Channel-length modulation (1/V).
    pub(crate) lambda: f64,
    /// Gate–source capacitance (F).
    pub(crate) cgs: f64,
    /// Gate–drain capacitance (F).
    pub(crate) cgd: f64,
}

impl Default for MosfetParams {
    fn default() -> Self {
        Self { kp: 5e-3, vt0: 0.4, lambda: 0.1, cgs: 10e-15, cgd: 3e-15 }
    }
}

/// A three-terminal (bulk tied to source) level-1 MOSFET.
#[derive(Debug, Clone)]
pub(crate) struct Mosfet {
    name: String,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    /// Polarity.
    pub(crate) mos_type: MosType,
    /// Model parameters.
    pub(crate) params: MosfetParams,
}

/// Drain current and partial derivatives in the forward NMOS frame.
/// Returns `(id, gm, gds)` for `vds ≥ 0`.
fn level1_forward(p: &MosfetParams, vgs: f64, vds: f64) -> (f64, f64, f64) {
    debug_assert!(vds >= 0.0);
    let vov = vgs - p.vt0;
    if vov <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let clm = 1.0 + p.lambda * vds;
    if vds < vov {
        // Triode.
        let core = vov * vds - 0.5 * vds * vds;
        let id = p.kp * core * clm;
        let gm = p.kp * vds * clm;
        let gds = p.kp * (vov - vds) * clm + p.kp * core * p.lambda;
        (id, gm, gds)
    } else {
        // Saturation.
        let core = 0.5 * vov * vov;
        let id = p.kp * core * clm;
        let gm = p.kp * vov * clm;
        let gds = p.kp * core * p.lambda;
        (id, gm, gds)
    }
}

impl Mosfet {
    /// Creates a MOSFET with terminals drain, gate, source.
    pub(crate) fn new(
        name: impl Into<String>,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        mos_type: MosType,
        params: MosfetParams,
    ) -> Self {
        assert!(params.kp > 0.0 && params.kp.is_finite(), "kp must be positive");
        assert!(params.vt0 >= 0.0, "vt0 is a magnitude");
        Self { name: name.into(), d, g, s, mos_type, params }
    }

    /// Drain current (into the drain terminal) and its partial
    /// derivatives `(id, did_dvg, did_dvd, did_dvs)` at the given
    /// terminal voltages.
    pub(crate) fn id_and_derivs(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64, f64) {
        let pol = match self.mos_type {
            MosType::Nmos => 1.0,
            MosType::Pmos => -1.0,
        };
        let vgs = pol * (vg - vs);
        let vds = pol * (vd - vs);
        if vds >= 0.0 {
            let (id, gm, gds) = level1_forward(&self.params, vgs, vds);
            // id flows drain→source in the polarity frame.
            (pol * id, gm, gds, -(gm + gds))
        } else {
            // Reverse conduction: swap drain/source roles.
            let vgd = pol * (vg - vd);
            let (id, gm, gds) = level1_forward(&self.params, vgd, -vds);
            // Current into the original drain is −id in the swapped frame.
            // Partials: in swapped frame id = f(vgd', vsd') with
            // vgd' = pol(vg−vd), vsd' = pol(vs−vd).
            let did_dvg = -gm;
            let did_dvs = -gds;
            let did_dvd = gm + gds;
            (-pol * id, did_dvg, did_dvd, did_dvs)
        }
    }
}

impl Device for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let (vg, vd, vs) = (ctx.v(self.g), ctx.v(self.d), ctx.v(self.s));
        let (id, dg, dd, ds) = self.id_and_derivs(vg, vd, vs);
        // KCL: id enters the drain, leaves the source.
        ctx.add_f_node(self.d, id);
        ctx.add_f_node(self.s, -id);
        ctx.add_g_nodes(self.d, self.g, dg);
        ctx.add_g_nodes(self.d, self.d, dd);
        ctx.add_g_nodes(self.d, self.s, ds);
        ctx.add_g_nodes(self.s, self.g, -dg);
        ctx.add_g_nodes(self.s, self.d, -dd);
        ctx.add_g_nodes(self.s, self.s, -ds);
        // Convergence aid across the channel.
        let gmin = ctx.gmin();
        if gmin > 0.0 {
            ctx.stamp_conductance(self.d, self.s, gmin);
        }
        // Gate capacitances (linear).
        let vgs = vg - vs;
        let vgd = vg - vd;
        ctx.stamp_charge(self.g, self.s, self.params.cgs * vgs, self.params.cgs);
        ctx.stamp_charge(self.g, self.d, self.params.cgd * vgd, self.params.cgd);
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.d, self.g, self.s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet::new(
            "M1",
            1,
            2,
            3,
            MosType::Nmos,
            MosfetParams { kp: 1e-3, vt0: 0.4, lambda: 0.05, cgs: 1e-15, cgd: 1e-15 },
        )
    }

    #[test]
    fn cutoff_region() {
        let m = nmos();
        let (id, gm, gds, _) = m.id_and_derivs(0.3, 1.0, 0.0);
        assert_eq!(id, 0.0);
        assert_eq!(gm, 0.0);
        assert_eq!(gds, 0.0);
    }

    #[test]
    fn saturation_square_law() {
        let m = nmos();
        // vgs = 1.0 → vov = 0.6, vds = 1.0 > vov → saturation.
        let (id, _, _, _) = m.id_and_derivs(1.0, 1.0, 0.0);
        let want = 0.5e-3 * 0.36 * (1.0 + 0.05);
        assert!((id - want).abs() < want * 1e-12);
    }

    #[test]
    fn triode_region() {
        let m = nmos();
        // vgs = 1.4 → vov = 1.0, vds = 0.5 < vov → triode.
        let (id, _, _, _) = m.id_and_derivs(1.4, 0.5, 0.0);
        let want = 1e-3 * (1.0 * 0.5 - 0.125) * (1.0 + 0.05 * 0.5);
        assert!((id - want).abs() < want * 1e-12);
    }

    #[test]
    fn continuity_at_triode_saturation_boundary() {
        let m = nmos();
        let vov = 0.6;
        let (below, ..) = m.id_and_derivs(1.0, vov - 1e-9, 0.0);
        let (above, ..) = m.id_and_derivs(1.0, vov + 1e-9, 0.0);
        assert!((below - above).abs() < 1e-9, "id discontinuous at vds=vov");
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = nmos();
        let pts = [
            (0.9, 1.2, 0.0),
            (1.2, 0.3, 0.0),
            (0.9, 0.2, 0.1),
            (0.8, -0.4, 0.0), // reverse mode
        ];
        for &(vg, vd, vs) in &pts {
            let h = 1e-7;
            let (_, dg, dd, ds) = m.id_and_derivs(vg, vd, vs);
            let fd = |f: &dyn Fn(f64) -> f64| (f(h) - f(-h)) / (2.0 * h);
            let got_g = fd(&|e| m.id_and_derivs(vg + e, vd, vs).0);
            let got_d = fd(&|e| m.id_and_derivs(vg, vd + e, vs).0);
            let got_s = fd(&|e| m.id_and_derivs(vg, vd, vs + e).0);
            assert!((dg - got_g).abs() < 1e-6, "gm at {vg},{vd},{vs}: {dg} vs {got_g}");
            assert!((dd - got_d).abs() < 1e-6, "gds at {vg},{vd},{vs}: {dd} vs {got_d}");
            assert!((ds - got_s).abs() < 1e-6, "gs at {vg},{vd},{vs}: {ds} vs {got_s}");
        }
    }

    #[test]
    fn reverse_mode_antisymmetry() {
        // With symmetric terminals, swapping d/s negates the current.
        let m = nmos();
        let (fwd, ..) = m.id_and_derivs(1.0, 0.3, 0.0);
        let m2 = Mosfet::new("M2", 3, 2, 1, MosType::Nmos, m.params);
        let (rev, ..) = m2.id_and_derivs(1.0, 0.0, 0.3);
        // m2 has d at old s; at the same node voltages the physical
        // current reverses sign relative to its drain.
        assert!((fwd + rev).abs() < 1e-15, "{fwd} vs {rev}");
    }

    #[test]
    fn pmos_mirror() {
        let p = Mosfet::new(
            "MP",
            1,
            2,
            3,
            MosType::Pmos,
            MosfetParams { kp: 1e-3, vt0: 0.4, lambda: 0.0, cgs: 0.0 + 1e-18, cgd: 1e-18 },
        );
        // Source at 1.5 V, gate at 0.5 V → vsg = 1.0, vov = 0.6;
        // drain at 0 → vsd = 1.5 > vov → saturation, current flows
        // source→drain, i.e. *out of* the drain node: id < 0.
        let (id, ..) = p.id_and_derivs(0.5, 0.0, 1.5);
        let want = -0.5e-3 * 0.36;
        assert!((id - want).abs() < want.abs() * 1e-9, "{id} vs {want}");
    }
}
