//! Bipolar junction transistor (Ebers–Moll).
//!
//! Rounds out the device set so netlists beyond the MOSFET buffer can be
//! modeled: the Ebers–Moll injection model with forward/reverse current
//! gains, exponential limiting shared with the diode, and constant
//! junction capacitances.

use super::diode::Diode;
use super::{Device, NodeId, StampContext};

/// BJT polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BjtType {
    /// NPN device.
    Npn,
    /// PNP device.
    Pnp,
}

/// Ebers–Moll parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BjtParams {
    /// Transport saturation current (A).
    pub(crate) is: f64,
    /// Forward current gain β_F.
    pub(crate) beta_f: f64,
    /// Reverse current gain β_R.
    pub(crate) beta_r: f64,
    /// Base–emitter junction capacitance (F).
    pub(crate) cje: f64,
    /// Base–collector junction capacitance (F).
    pub(crate) cjc: f64,
}

impl Default for BjtParams {
    fn default() -> Self {
        Self { is: 1e-15, beta_f: 100.0, beta_r: 2.0, cje: 5e-15, cjc: 2e-15 }
    }
}

/// A three-terminal BJT (collector, base, emitter).
#[derive(Debug, Clone)]
pub(crate) struct Bjt {
    name: String,
    c: NodeId,
    b: NodeId,
    e: NodeId,
    /// Polarity.
    pub(crate) bjt_type: BjtType,
    /// Model parameters.
    pub(crate) params: BjtParams,
    /// Internal junction helper (provides the limited exponential).
    junction: Diode,
}

impl Bjt {
    /// Creates a BJT with terminals collector, base, emitter.
    pub(crate) fn new(
        name: impl Into<String>,
        c: NodeId,
        b: NodeId,
        e: NodeId,
        bjt_type: BjtType,
        params: BjtParams,
    ) -> Self {
        assert!(params.is > 0.0 && params.is.is_finite(), "IS must be positive");
        assert!(params.beta_f > 0.0 && params.beta_r > 0.0, "betas must be positive");
        let name = name.into();
        let junction = Diode::new(format!("{name}.j"), 0, 0, params.is, 1.0);
        Self { name, c, b, e, bjt_type, params, junction }
    }

    /// Terminal currents `(ic, ib, ie)` into (c, b, e) and the 2×2
    /// Jacobian wrt `(v_be, v_bc)` in the polarity frame:
    /// returns `(ic, ib, d_ic/d_vbe, d_ic/d_vbc, d_ib/d_vbe, d_ib/d_vbc)`.
    fn currents(&self, vbe: f64, vbc: f64) -> (f64, f64, f64, f64, f64, f64) {
        // Ebers–Moll transport formulation:
        //   icc = IS·(e^{vbe/vt} − 1)       (forward injection)
        //   iec = IS·(e^{vbc/vt} − 1)       (reverse injection)
        //   ic  = icc − iec − iec/β_R
        //   ib  = icc/β_F + iec/β_R
        let (icc, gcc) = self.junction.iv(vbe);
        let (iec, gec) = self.junction.iv(vbc);
        let bf = self.params.beta_f;
        let br = self.params.beta_r;
        let ic = icc - iec * (1.0 + 1.0 / br);
        let ib = icc / bf + iec / br;
        let dic_dvbe = gcc;
        let dic_dvbc = -gec * (1.0 + 1.0 / br);
        let dib_dvbe = gcc / bf;
        let dib_dvbc = gec / br;
        (ic, ib, dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc)
    }
}

impl Device for Bjt {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let pol = match self.bjt_type {
            BjtType::Npn => 1.0,
            BjtType::Pnp => -1.0,
        };
        let (vc, vb, ve) = (ctx.v(self.c), ctx.v(self.b), ctx.v(self.e));
        let vbe = pol * (vb - ve);
        let vbc = pol * (vb - vc);
        let (ic, ib, dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc) = self.currents(vbe, vbc);
        // Currents into the physical terminals.
        let ic_p = pol * ic;
        let ib_p = pol * ib;
        let ie_p = -(ic_p + ib_p);
        ctx.add_f_node(self.c, ic_p);
        ctx.add_f_node(self.b, ib_p);
        ctx.add_f_node(self.e, ie_p);
        // Chain rule to terminal voltages: ∂vbe/∂vb = pol, ∂vbe/∂ve = −pol,
        // ∂vbc/∂vb = pol, ∂vbc/∂vc = −pol; polarity squares away.
        let dic = [(self.b, dic_dvbe + dic_dvbc), (self.e, -dic_dvbe), (self.c, -dic_dvbc)];
        let dib = [(self.b, dib_dvbe + dib_dvbc), (self.e, -dib_dvbe), (self.c, -dib_dvbc)];
        for (col, g) in dic {
            ctx.add_g_nodes(self.c, col, g);
            ctx.add_g_nodes(self.e, col, -g);
        }
        for (col, g) in dib {
            ctx.add_g_nodes(self.b, col, g);
            ctx.add_g_nodes(self.e, col, -g);
        }
        // Convergence gmin across both junctions.
        let gmin = ctx.gmin();
        if gmin > 0.0 {
            ctx.stamp_conductance(self.b, self.e, gmin);
            ctx.stamp_conductance(self.b, self.c, gmin);
        }
        // Junction capacitances.
        let vbe_p = vb - ve;
        let vbc_p = vb - vc;
        ctx.stamp_charge(self.b, self.e, self.params.cje * vbe_p, self.params.cje);
        ctx.stamp_charge(self.b, self.c, self.params.cjc * vbc_p, self.params.cjc);
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.c, self.b, self.e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::devices::passive::Resistor;
    use crate::devices::sources::Vsource;
    use crate::netlist::Circuit;
    use crate::waveform::Waveform;

    #[test]
    fn kcl_is_satisfied() {
        // ic + ib + ie = 0 at any bias.
        let q = Bjt::new("Q1", 1, 2, 3, BjtType::Npn, BjtParams::default());
        let (ic, ib, ..) = q.currents(0.65, -2.0);
        let ie = -(ic + ib);
        assert!((ic + ib + ie).abs() < 1e-18);
        assert!(ic > 0.0, "forward active: collector collects");
        assert!(ib > 0.0);
        assert!((ic / ib - 100.0).abs() < 1.0, "beta_f enforced: {}", ic / ib);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let q = Bjt::new("Q1", 1, 2, 3, BjtType::Npn, BjtParams::default());
        let h = 1e-7;
        for &(vbe, vbc) in &[(0.6, -1.0), (0.65, 0.3), (-0.2, -0.2), (0.7, 0.68)] {
            let (_, _, dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc) = q.currents(vbe, vbc);
            let fd_ic_be = (q.currents(vbe + h, vbc).0 - q.currents(vbe - h, vbc).0) / (2.0 * h);
            let fd_ic_bc = (q.currents(vbe, vbc + h).0 - q.currents(vbe, vbc - h).0) / (2.0 * h);
            let fd_ib_be = (q.currents(vbe + h, vbc).1 - q.currents(vbe - h, vbc).1) / (2.0 * h);
            let fd_ib_bc = (q.currents(vbe, vbc + h).1 - q.currents(vbe, vbc - h).1) / (2.0 * h);
            let tol = |a: f64| 1e-4 * a.abs().max(1e-12);
            assert!((dic_dvbe - fd_ic_be).abs() < tol(fd_ic_be), "dic/dvbe at {vbe},{vbc}");
            assert!((dic_dvbc - fd_ic_bc).abs() < tol(fd_ic_bc), "dic/dvbc at {vbe},{vbc}");
            assert!((dib_dvbe - fd_ib_be).abs() < tol(fd_ib_be), "dib/dvbe at {vbe},{vbc}");
            assert!((dib_dvbc - fd_ib_bc).abs() < tol(fd_ib_bc), "dib/dvbc at {vbe},{vbc}");
        }
    }

    #[test]
    fn common_emitter_amplifier_bias() {
        // VCC = 5 V, base fed via divider, emitter degeneration, RC load.
        let mut ckt = Circuit::new();
        let vcc = ckt.node("vcc");
        let b = ckt.node("b");
        let c = ckt.node("c");
        let e = ckt.node("e");
        ckt.add(Vsource::new("VCC", vcc, 0, Waveform::Dc(5.0))).unwrap();
        ckt.add(Resistor::new("RB1", vcc, b, 47.0e3)).unwrap();
        ckt.add(Resistor::new("RB2", b, 0, 10.0e3)).unwrap();
        ckt.add(Resistor::new("RC", vcc, c, 2.2e3)).unwrap();
        ckt.add(Resistor::new("RE", e, 0, 470.0)).unwrap();
        ckt.add(Bjt::new("Q1", c, b, e, BjtType::Npn, BjtParams::default())).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let (vb, vc_, ve) = (x[b - 1], x[c - 1], x[e - 1]);
        // Textbook bias: vb ≈ 0.85, ve ≈ vb − 0.7, ic ≈ ie ≈ ve/470.
        assert!((0.6..1.1).contains(&vb), "vb = {vb}");
        assert!((vb - ve) > 0.55 && (vb - ve) < 0.8, "vbe = {}", vb - ve);
        let ie = ve / 470.0;
        let vc_expect = 5.0 - 2.2e3 * ie; // ic ≈ ie
        assert!((vc_ - vc_expect).abs() < 0.25, "vc {vc_} vs {vc_expect}");
        assert!(vc_ > ve, "forward active");
    }

    #[test]
    fn pnp_mirror_polarity() {
        // PNP with emitter at 5 V, base pulled low: conducts downward.
        let mut ckt = Circuit::new();
        let vcc = ckt.node("vcc");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.add(Vsource::new("VCC", vcc, 0, Waveform::Dc(5.0))).unwrap();
        ckt.add(Resistor::new("RB", b, 0, 100.0e3)).unwrap();
        ckt.add(Resistor::new("RC", c, 0, 1.0e3)).unwrap();
        ckt.add(Bjt::new("Q1", c, b, vcc, BjtType::Pnp, BjtParams::default())).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let vc_ = x[c - 1];
        assert!(vc_ > 0.5, "collector pulled up through the PNP: {vc_}");
    }
}
