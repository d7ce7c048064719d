//! Independent and controlled sources.

use super::{Device, NodeId, StampContext};
use crate::waveform::Waveform;

/// An independent voltage source `v_p − v_n = u(t)` with a branch
/// current unknown.
///
/// When designated as the circuit input, its branch row carries the `B`
/// entry of the TFT transfer function.
#[derive(Debug, Clone)]
pub struct Vsource {
    name: String,
    p: NodeId,
    n: NodeId,
    /// The stimulus waveform.
    pub(crate) waveform: Waveform,
    branch: usize,
}

impl Vsource {
    /// Creates a voltage source.
    pub fn new(name: impl Into<String>, p: NodeId, n: NodeId, waveform: Waveform) -> Self {
        Self { name: name.into(), p, n, waveform, branch: usize::MAX }
    }
}

impl Device for Vsource {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_branches(&self) -> usize {
        1
    }

    fn set_branch_base(&mut self, base: usize) {
        self.branch = base;
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let b = self.branch;
        let i_b = ctx.unknown(b);
        ctx.add_f_node(self.p, i_b);
        ctx.add_f_node(self.n, -i_b);
        if let Some(rp) = ctx.node_row(self.p) {
            ctx.add_g_rows(rp, b, 1.0);
        }
        if let Some(rn) = ctx.node_row(self.n) {
            ctx.add_g_rows(rn, b, -1.0);
        }
        // Branch equation: v_p − v_n − u(t) = 0.
        let u = self.waveform.value(ctx.time());
        ctx.add_f_row(b, ctx.v(self.p) - ctx.v(self.n) - u);
        if let Some(rp) = ctx.node_row(self.p) {
            ctx.add_g_rows(b, rp, 1.0);
        }
        if let Some(rn) = ctx.node_row(self.n) {
            ctx.add_g_rows(b, rn, -1.0);
        }
    }

    fn input_column(&self) -> Option<Vec<(usize, f64)>> {
        // f_branch = v_p − v_n − u  ⇒  (G + sC)x = B·u with B[branch] = 1.
        Some(vec![(self.branch, 1.0)])
    }

    fn source_value(&self, t: f64) -> Option<f64> {
        Some(self.waveform.value(t))
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }
}

/// An independent current source injecting `u(t)` into node `to` (and
/// drawing it from node `from`).
#[derive(Debug, Clone)]
pub(crate) struct Isource {
    name: String,
    from: NodeId,
    to: NodeId,
    /// The stimulus waveform.
    pub(crate) waveform: Waveform,
}

impl Isource {
    /// Creates a current source pushing current from `from` to `to`.
    pub(crate) fn new(
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        waveform: Waveform,
    ) -> Self {
        Self { name: name.into(), from, to, waveform }
    }
}

impl Device for Isource {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let u = self.waveform.value(ctx.time());
        // Current u leaves `from` and enters `to`.
        ctx.add_f_node(self.from, u);
        ctx.add_f_node(self.to, -u);
    }

    fn input_column(&self) -> Option<Vec<(usize, f64)>> {
        // f_from = +u, f_to = −u ⇒ B = −∂f/∂u.
        let mut col = Vec::new();
        if self.from != 0 {
            col.push((self.from - 1, -1.0));
        }
        if self.to != 0 {
            col.push((self.to - 1, 1.0));
        }
        Some(col)
    }

    fn source_value(&self, t: f64) -> Option<f64> {
        Some(self.waveform.value(t))
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.from, self.to]
    }
}

/// A voltage-controlled current source: current `gm·(v_cp − v_cn)` flows
/// from `p` to `n`.
#[derive(Debug, Clone)]
pub(crate) struct Vccs {
    name: String,
    p: NodeId,
    n: NodeId,
    cp: NodeId,
    cn: NodeId,
    /// Transconductance in siemens.
    pub(crate) gm: f64,
}

impl Vccs {
    /// Creates a VCCS.
    pub(crate) fn new(
        name: impl Into<String>,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Self {
        Self { name: name.into(), p, n, cp, cn, gm }
    }
}

impl Device for Vccs {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let vc = ctx.v(self.cp) - ctx.v(self.cn);
        let i = self.gm * vc;
        ctx.add_f_node(self.p, i);
        ctx.add_f_node(self.n, -i);
        ctx.add_g_nodes(self.p, self.cp, self.gm);
        ctx.add_g_nodes(self.p, self.cn, -self.gm);
        ctx.add_g_nodes(self.n, self.cp, -self.gm);
        ctx.add_g_nodes(self.n, self.cn, self.gm);
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n, self.cp, self.cn]
    }
}

/// A voltage-controlled voltage source: `v_p − v_n = gain·(v_cp − v_cn)`,
/// with a branch current unknown.
#[derive(Debug, Clone)]
pub(crate) struct Vcvs {
    name: String,
    p: NodeId,
    n: NodeId,
    cp: NodeId,
    cn: NodeId,
    /// Voltage gain.
    pub(crate) gain: f64,
    branch: usize,
}

impl Vcvs {
    /// Creates a VCVS.
    pub(crate) fn new(
        name: impl Into<String>,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Self {
        Self { name: name.into(), p, n, cp, cn, gain, branch: usize::MAX }
    }
}

impl Device for Vcvs {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_branches(&self) -> usize {
        1
    }

    fn set_branch_base(&mut self, base: usize) {
        self.branch = base;
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let b = self.branch;
        let i_b = ctx.unknown(b);
        ctx.add_f_node(self.p, i_b);
        ctx.add_f_node(self.n, -i_b);
        if let Some(rp) = ctx.node_row(self.p) {
            ctx.add_g_rows(rp, b, 1.0);
        }
        if let Some(rn) = ctx.node_row(self.n) {
            ctx.add_g_rows(rn, b, -1.0);
        }
        // Branch equation: v_p − v_n − gain·(v_cp − v_cn) = 0.
        let res = ctx.v(self.p) - ctx.v(self.n) - self.gain * (ctx.v(self.cp) - ctx.v(self.cn));
        ctx.add_f_row(b, res);
        if let Some(r) = ctx.node_row(self.p) {
            ctx.add_g_rows(b, r, 1.0);
        }
        if let Some(r) = ctx.node_row(self.n) {
            ctx.add_g_rows(b, r, -1.0);
        }
        if let Some(r) = ctx.node_row(self.cp) {
            ctx.add_g_rows(b, r, -self.gain);
        }
        if let Some(r) = ctx.node_row(self.cn) {
            ctx.add_g_rows(b, r, self.gain);
        }
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n, self.cp, self.cn]
    }
}

/// A current-controlled current source (SPICE `F`): the current
/// `gain·i_ctrl` flows from `p` to `n`, where `i_ctrl` is the branch
/// current of a named voltage source (or inductor).
#[derive(Debug, Clone)]
pub(crate) struct Cccs {
    name: String,
    p: NodeId,
    n: NodeId,
    control: String,
    /// Current gain (dimensionless).
    pub(crate) gain: f64,
    ctrl_row: usize,
}

impl Cccs {
    /// Creates a CCCS controlled by the branch current of `control`.
    pub(crate) fn new(
        name: impl Into<String>,
        p: NodeId,
        n: NodeId,
        control: impl Into<String>,
        gain: f64,
    ) -> Self {
        Self { name: name.into(), p, n, control: control.into(), gain, ctrl_row: usize::MAX }
    }
}

impl Device for Cccs {
    fn name(&self) -> &str {
        &self.name
    }

    fn control_source(&self) -> Option<&str> {
        Some(&self.control)
    }

    fn set_control_branch(&mut self, row: usize) {
        self.ctrl_row = row;
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let i = self.gain * ctx.unknown(self.ctrl_row);
        ctx.add_f_node(self.p, i);
        ctx.add_f_node(self.n, -i);
        if let Some(rp) = ctx.node_row(self.p) {
            ctx.add_g_rows(rp, self.ctrl_row, self.gain);
        }
        if let Some(rn) = ctx.node_row(self.n) {
            ctx.add_g_rows(rn, self.ctrl_row, -self.gain);
        }
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }
}

/// A current-controlled voltage source (SPICE `H`):
/// `v_p − v_n = r·i_ctrl` with its own branch current unknown, where
/// `i_ctrl` is the branch current of a named voltage source (or
/// inductor).
#[derive(Debug, Clone)]
pub(crate) struct Ccvs {
    name: String,
    p: NodeId,
    n: NodeId,
    control: String,
    /// Transresistance in ohms.
    pub(crate) r: f64,
    branch: usize,
    ctrl_row: usize,
}

impl Ccvs {
    /// Creates a CCVS controlled by the branch current of `control`.
    pub(crate) fn new(
        name: impl Into<String>,
        p: NodeId,
        n: NodeId,
        control: impl Into<String>,
        r: f64,
    ) -> Self {
        Self {
            name: name.into(),
            p,
            n,
            control: control.into(),
            r,
            branch: usize::MAX,
            ctrl_row: usize::MAX,
        }
    }
}

impl Device for Ccvs {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_branches(&self) -> usize {
        1
    }

    fn set_branch_base(&mut self, base: usize) {
        self.branch = base;
    }

    fn control_source(&self) -> Option<&str> {
        Some(&self.control)
    }

    fn set_control_branch(&mut self, row: usize) {
        self.ctrl_row = row;
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let b = self.branch;
        let i_b = ctx.unknown(b);
        ctx.add_f_node(self.p, i_b);
        ctx.add_f_node(self.n, -i_b);
        if let Some(rp) = ctx.node_row(self.p) {
            ctx.add_g_rows(rp, b, 1.0);
        }
        if let Some(rn) = ctx.node_row(self.n) {
            ctx.add_g_rows(rn, b, -1.0);
        }
        // Branch equation: v_p − v_n − r·i_ctrl = 0.
        let res = ctx.v(self.p) - ctx.v(self.n) - self.r * ctx.unknown(self.ctrl_row);
        ctx.add_f_row(b, res);
        if let Some(r) = ctx.node_row(self.p) {
            ctx.add_g_rows(b, r, 1.0);
        }
        if let Some(r) = ctx.node_row(self.n) {
            ctx.add_g_rows(b, r, -1.0);
        }
        ctx.add_g_rows(b, self.ctrl_row, -self.r);
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::Mat;

    use crate::devices::passive::Resistor;

    fn eval(dev: &dyn Device, x: &[f64], dim: usize, t: f64) -> (Vec<f64>, Mat) {
        let mut f = vec![0.0; dim];
        let mut q = vec![0.0; dim];
        let mut g = Mat::zeros(dim, dim);
        let mut c = Mat::zeros(dim, dim);
        {
            let mut ctx = StampContext::new(x, t, &mut f, &mut q, Some(&mut g), Some(&mut c), 0.0);
            dev.stamp(&mut ctx);
        }
        (f, g)
    }

    #[test]
    fn vsource_branch_equation_residual() {
        let mut v = Vsource::new("V1", 1, 0, Waveform::Dc(1.5));
        v.set_branch_base(1);
        // v1 = 1.5 satisfied, branch current 1 mA.
        let (f, g) = eval(&v, &[1.5, 1e-3], 2, 0.0);
        assert!((f[0] - 1e-3).abs() < 1e-18);
        assert!(f[1].abs() < 1e-15);
        assert_eq!(g[(0, 1)], 1.0);
        assert_eq!(g[(1, 0)], 1.0);
        // Violated branch equation shows in the residual.
        let (f, _) = eval(&v, &[1.0, 0.0], 2, 0.0);
        assert!((f[1] + 0.5).abs() < 1e-15);
    }

    #[test]
    fn vsource_tracks_waveform_in_time() {
        let mut v = Vsource::new(
            "V1",
            1,
            0,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                freq_hz: 1.0,
                phase_rad: 0.0,
                delay: 0.0,
            },
        );
        v.set_branch_base(1);
        let (f, _) = eval(&v, &[0.0, 0.0], 2, 0.25);
        assert!((f[1] + 1.0).abs() < 1e-12, "residual tracks -u(t)");
        assert_eq!(v.source_value(0.25), Some(1.0));
    }

    #[test]
    fn isource_injects_current() {
        let i = Isource::new("I1", 0, 1, Waveform::Dc(2e-3));
        let (f, _) = eval(&i, &[0.0], 1, 0.0);
        assert!((f[0] + 2e-3).abs() < 1e-18);
        let b = i.input_column().unwrap();
        assert_eq!(b, vec![(0, 1.0)]);
    }

    #[test]
    fn vccs_transconductance_stamp() {
        let g = Vccs::new("G1", 2, 0, 1, 0, 1e-3);
        let (f, gm) = eval(&g, &[2.0, 0.0], 2, 0.0);
        assert!((f[1] - 2e-3).abs() < 1e-18);
        assert!((gm[(1, 0)] - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn vcvs_enforces_gain() {
        use crate::dc::{dc_operating_point, DcOptions};
        use crate::netlist::Circuit;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::new("V1", a, 0, Waveform::Dc(0.5))).unwrap();
        ckt.add(Vcvs::new("E1", b, 0, a, 0, 4.0)).unwrap();
        ckt.add(Resistor::new("RL", b, 0, 1.0e3)).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!((x[b - 1] - 2.0).abs() < 1e-9, "vcvs output {}", x[b - 1]);
    }

    #[test]
    fn cccs_mirrors_branch_current() {
        use crate::dc::{dc_operating_point, DcOptions};
        use crate::netlist::Circuit;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::new("V1", a, 0, Waveform::Dc(1.0))).unwrap();
        ckt.add(Resistor::new("R1", a, 0, 1.0e3)).unwrap();
        // i(V1) = −1 mA (current out of p through the source); the CCCS
        // pushes 2·i from b to ground through RL: v(b) = −(2·i)·RL = 2 V.
        ckt.add(Cccs::new("F1", b, 0, "V1", 2.0)).unwrap();
        ckt.add(Resistor::new("RL", b, 0, 1.0e3)).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!((x[b - 1] - 2.0).abs() < 1e-9, "cccs output {}", x[b - 1]);
    }

    #[test]
    fn ccvs_senses_branch_current() {
        use crate::dc::{dc_operating_point, DcOptions};
        use crate::netlist::Circuit;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::new("V1", a, 0, Waveform::Dc(2.0))).unwrap();
        ckt.add(Resistor::new("R1", a, 0, 1.0e3)).unwrap();
        // i(V1) = −2 mA; v(b) = r·i = 500·(−2 mA) = −1 V.
        ckt.add(Ccvs::new("H1", b, 0, "V1", 500.0)).unwrap();
        ckt.add(Resistor::new("RL", b, 0, 1.0e3)).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!((x[b - 1] + 1.0).abs() < 1e-9, "ccvs output {}", x[b - 1]);
    }

    #[test]
    fn vsource_input_column_is_branch_row() {
        let mut v = Vsource::new("V1", 2, 1, Waveform::Dc(0.0));
        v.set_branch_base(7);
        assert_eq!(v.input_column().unwrap(), vec![(7, 1.0)]);
    }
}
