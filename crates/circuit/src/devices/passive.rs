//! Linear passive devices: resistor, capacitor, inductor.

use super::{Device, NodeId, StampContext};

/// A linear resistor between `p` and `n`.
#[derive(Debug, Clone)]
pub struct Resistor {
    name: String,
    p: NodeId,
    n: NodeId,
    /// Resistance in ohms.
    pub(crate) r: f64,
}

impl Resistor {
    /// Creates a resistor; `r` must be positive and finite.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a positive finite number.
    pub fn new(name: impl Into<String>, p: NodeId, n: NodeId, r: f64) -> Self {
        assert!(r.is_finite() && r > 0.0, "resistance must be positive");
        Self { name: name.into(), p, n, r }
    }
}

impl Device for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        ctx.stamp_conductance(self.p, self.n, 1.0 / self.r);
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }
}

/// A linear capacitor between `p` and `n`.
#[derive(Debug, Clone)]
pub struct Capacitor {
    name: String,
    p: NodeId,
    n: NodeId,
    /// Capacitance in farads.
    pub(crate) c: f64,
}

impl Capacitor {
    /// Creates a capacitor; `c` must be positive and finite.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a positive finite number.
    pub fn new(name: impl Into<String>, p: NodeId, n: NodeId, c: f64) -> Self {
        assert!(c.is_finite() && c > 0.0, "capacitance must be positive");
        Self { name: name.into(), p, n, c }
    }
}

impl Device for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let v = ctx.v(self.p) - ctx.v(self.n);
        ctx.stamp_charge(self.p, self.n, self.c * v, self.c);
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }
}

/// A linear inductor between `p` and `n`, adding its branch current as
/// an extra unknown.
#[derive(Debug, Clone)]
pub(crate) struct Inductor {
    name: String,
    p: NodeId,
    n: NodeId,
    /// Inductance in henries.
    pub(crate) l: f64,
    branch: usize,
}

impl Inductor {
    /// Creates an inductor; `l` must be positive and finite.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a positive finite number.
    pub(crate) fn new(name: impl Into<String>, p: NodeId, n: NodeId, l: f64) -> Self {
        assert!(l.is_finite() && l > 0.0, "inductance must be positive");
        Self { name: name.into(), p, n, l, branch: usize::MAX }
    }
}

impl Device for Inductor {
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
        let i_l = ctx.unknown(b);
        // KCL: branch current leaves p, enters n.
        ctx.add_f_node(self.p, i_l);
        ctx.add_f_node(self.n, -i_l);
        if let Some(rp) = ctx.node_row(self.p) {
            ctx.add_g_rows(rp, b, 1.0);
        }
        if let Some(rn) = ctx.node_row(self.n) {
            ctx.add_g_rows(rn, b, -1.0);
        }
        // Branch equation: (v_p − v_n) − L·di/dt = 0, i.e. static part
        // v_p − v_n and charge part −L·i.
        ctx.add_f_row(b, ctx.v(self.p) - ctx.v(self.n));
        if let Some(rp) = ctx.node_row(self.p) {
            ctx.add_g_rows(b, rp, 1.0);
        }
        if let Some(rn) = ctx.node_row(self.n) {
            ctx.add_g_rows(b, rn, -1.0);
        }
        ctx.add_q_row(b, -self.l * i_l);
        ctx.add_c_rows(b, b, -self.l);
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::Mat;

    fn eval(dev: &dyn Device, x: &[f64], dim: usize) -> (Vec<f64>, Vec<f64>, Mat, Mat) {
        let mut f = vec![0.0; dim];
        let mut q = vec![0.0; dim];
        let mut g = Mat::zeros(dim, dim);
        let mut c = Mat::zeros(dim, dim);
        {
            let mut ctx =
                StampContext::new(x, 0.0, &mut f, &mut q, Some(&mut g), Some(&mut c), 0.0);
            dev.stamp(&mut ctx);
        }
        (f, q, g, c)
    }

    #[test]
    fn resistor_stamp() {
        let r = Resistor::new("R1", 1, 2, 100.0);
        let (f, _q, g, _c) = eval(&r, &[2.0, 1.0], 2);
        assert!((f[0] - 0.01).abs() < 1e-15); // (2-1)/100 leaving node 1
        assert!((f[1] + 0.01).abs() < 1e-15);
        assert!((g[(0, 0)] - 0.01).abs() < 1e-18);
        assert!((g[(0, 1)] + 0.01).abs() < 1e-18);
    }

    #[test]
    fn resistor_to_ground_has_no_ground_row() {
        let r = Resistor::new("R1", 1, 0, 50.0);
        let (f, _q, g, _c) = eval(&r, &[1.0], 1);
        assert!((f[0] - 0.02).abs() < 1e-15);
        assert!((g[(0, 0)] - 0.02).abs() < 1e-18);
    }

    #[test]
    fn capacitor_charge_and_jacobian() {
        let c = Capacitor::new("C1", 1, 0, 1e-12);
        let (_f, q, _g, cm) = eval(&c, &[3.0], 1);
        assert!((q[0] - 3e-12).abs() < 1e-24);
        assert!((cm[(0, 0)] - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn inductor_branch_equation() {
        let mut l = Inductor::new("L1", 1, 0, 1e-9);
        l.set_branch_base(1); // one node + branch at row 1
        let x = [2.0, 0.5]; // v1 = 2, i_l = 0.5
        let (f, q, g, cm) = eval(&l, &x, 2);
        assert!((f[0] - 0.5).abs() < 1e-15); // current leaves node 1
        assert!((f[1] - 2.0).abs() < 1e-15); // branch eq static: v_p - v_n
        assert!((q[1] + 1e-9 * 0.5).abs() < 1e-24);
        assert_eq!(g[(0, 1)], 1.0);
        assert_eq!(g[(1, 0)], 1.0);
        assert_eq!(cm[(1, 1)], -1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_resistance_rejected() {
        let _ = Resistor::new("R1", 1, 0, -5.0);
    }
}
