//! Device models and the MNA stamping interface.
//!
//! Every device contributes to the nonlinear MNA system
//!
//! ```text
//! f(x, t) + d/dt q(x) = 0
//! ```
//!
//! by *stamping* its static currents `i(x)` (and source terms) into `f`,
//! its charges/fluxes into `q`, and the Jacobians `G = ∂f/∂x`,
//! `C = ∂q/∂x` into the system matrices. `G(k)` and `C(k)` captured at
//! the transient solution points are exactly the snapshots the TFT
//! transform consumes (paper eq. 3).

pub(crate) mod bjt;
pub(crate) mod diode;
pub(crate) mod mosfet;
pub mod passive;
pub mod sources;

use core::fmt;

use rvf_numerics::Mat;

/// Node identifier; `0` is ground (not an unknown).
pub type NodeId = usize;

/// Accumulator for one evaluation of the MNA system at `(x, t)`.
///
/// Rows/columns address the unknown vector: node `n > 0` maps to row
/// `n − 1`; device branch equations occupy the rows after the nodes.
pub struct StampContext<'a> {
    x: &'a [f64],
    t: f64,
    f: &'a mut [f64],
    q: &'a mut [f64],
    g: Option<&'a mut Mat>,
    c: Option<&'a mut Mat>,
    gmin: f64,
}

impl<'a> StampContext<'a> {
    /// Creates a context over preallocated accumulators. `g`/`c` may be
    /// `None` when only residuals are needed.
    pub(crate) fn new(
        x: &'a [f64],
        t: f64,
        f: &'a mut [f64],
        q: &'a mut [f64],
        g: Option<&'a mut Mat>,
        c: Option<&'a mut Mat>,
        gmin: f64,
    ) -> Self {
        Self { x, t, f, q, g, c, gmin }
    }

    /// Simulation time of this evaluation.
    #[inline]
    pub(crate) fn time(&self) -> f64 {
        self.t
    }

    /// Minimum conductance added from every node to ground by nonlinear
    /// devices (convergence aid; 0 when disabled).
    #[inline]
    pub(crate) fn gmin(&self) -> f64 {
        self.gmin
    }

    /// Voltage of node `n` (0 for ground).
    #[inline]
    pub(crate) fn v(&self, n: NodeId) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.x[n - 1]
        }
    }

    /// Value of the unknown at absolute row `row` (for branch currents).
    #[inline]
    pub(crate) fn unknown(&self, row: usize) -> f64 {
        self.x[row]
    }

    /// Row index of node `n`, or `None` for ground.
    #[inline]
    pub(crate) fn node_row(&self, n: NodeId) -> Option<usize> {
        if n == 0 {
            None
        } else {
            Some(n - 1)
        }
    }

    /// Adds to the static residual `f` at a node.
    #[inline]
    pub(crate) fn add_f_node(&mut self, n: NodeId, val: f64) {
        if n != 0 {
            self.f[n - 1] += val;
        }
    }

    /// Adds to the static residual `f` at an absolute row.
    #[inline]
    pub(crate) fn add_f_row(&mut self, row: usize, val: f64) {
        self.f[row] += val;
    }

    /// Adds to the charge vector `q` at a node.
    #[inline]
    pub(crate) fn add_q_node(&mut self, n: NodeId, val: f64) {
        if n != 0 {
            self.q[n - 1] += val;
        }
    }

    /// Adds to the charge vector `q` at an absolute row.
    #[inline]
    pub(crate) fn add_q_row(&mut self, row: usize, val: f64) {
        self.q[row] += val;
    }

    /// Adds `∂f_row/∂x_col` between two nodes.
    #[inline]
    pub(crate) fn add_g_nodes(&mut self, row: NodeId, col: NodeId, val: f64) {
        if row == 0 || col == 0 {
            return;
        }
        if let Some(g) = self.g.as_deref_mut() {
            g[(row - 1, col - 1)] += val;
        }
    }

    /// Adds `∂f/∂x` at absolute indices.
    #[inline]
    pub(crate) fn add_g_rows(&mut self, row: usize, col: usize, val: f64) {
        if let Some(g) = self.g.as_deref_mut() {
            g[(row, col)] += val;
        }
    }

    /// Adds `∂q_row/∂x_col` between two nodes.
    #[inline]
    pub(crate) fn add_c_nodes(&mut self, row: NodeId, col: NodeId, val: f64) {
        if row == 0 || col == 0 {
            return;
        }
        if let Some(c) = self.c.as_deref_mut() {
            c[(row - 1, col - 1)] += val;
        }
    }

    /// Adds `∂q/∂x` at absolute indices.
    #[inline]
    pub(crate) fn add_c_rows(&mut self, row: usize, col: usize, val: f64) {
        if let Some(c) = self.c.as_deref_mut() {
            c[(row, col)] += val;
        }
    }

    /// Stamps a conductance `g` between nodes `p` and `n` carrying the
    /// current `g·(v_p − v_n)` (both residual and Jacobian).
    pub(crate) fn stamp_conductance(&mut self, p: NodeId, n: NodeId, g: f64) {
        let i = g * (self.v(p) - self.v(n));
        self.add_f_node(p, i);
        self.add_f_node(n, -i);
        self.add_g_nodes(p, p, g);
        self.add_g_nodes(p, n, -g);
        self.add_g_nodes(n, p, -g);
        self.add_g_nodes(n, n, g);
    }

    /// Stamps a nonlinear branch current `i` with conductance `di/dv`
    /// between `p` and `n`.
    pub(crate) fn stamp_current(&mut self, p: NodeId, n: NodeId, i: f64, di_dv: f64) {
        self.add_f_node(p, i);
        self.add_f_node(n, -i);
        self.add_g_nodes(p, p, di_dv);
        self.add_g_nodes(p, n, -di_dv);
        self.add_g_nodes(n, p, -di_dv);
        self.add_g_nodes(n, n, di_dv);
    }

    /// Stamps a charge `q(v_p − v_n)` with capacitance `dq/dv` between
    /// `p` and `n`.
    pub(crate) fn stamp_charge(&mut self, p: NodeId, n: NodeId, q: f64, dq_dv: f64) {
        self.add_q_node(p, q);
        self.add_q_node(n, -q);
        self.add_c_nodes(p, p, dq_dv);
        self.add_c_nodes(p, n, -dq_dv);
        self.add_c_nodes(n, p, -dq_dv);
        self.add_c_nodes(n, n, dq_dv);
    }
}

/// A circuit element that stamps itself into the MNA system.
pub trait Device: fmt::Debug + Send {
    /// Unique device name (`R1`, `M3`, …).
    fn name(&self) -> &str;

    /// Number of extra branch unknowns this device needs (voltage
    /// sources and inductors add their branch current).
    fn n_branches(&self) -> usize {
        0
    }

    /// Informs the device of the absolute row of its first branch
    /// unknown. Called once when the circuit is finalized.
    fn set_branch_base(&mut self, _base: usize) {}

    /// For current-controlled devices (CCCS/CCVS): the name of the
    /// device whose branch current is the controlling variable. The
    /// circuit resolves the name to a branch row during finalize; the
    /// named device must carry a branch unknown (a voltage source or an
    /// inductor).
    fn control_source(&self) -> Option<&str> {
        None
    }

    /// Informs a current-controlled device of the absolute row of its
    /// controlling branch current. Called once when the circuit is
    /// finalized.
    fn set_control_branch(&mut self, _row: usize) {}

    /// Stamps residuals and Jacobians at the context's `(x, t)`.
    fn stamp(&self, ctx: &mut StampContext<'_>);

    /// For sources: the column `∂(rhs)/∂u` describing where the source
    /// value enters the linearized system `(G + sC)·x = B·u` — the `B`
    /// vector of the TFT transfer function (paper eq. 3).
    fn input_column(&self) -> Option<Vec<(usize, f64)>> {
        None
    }

    /// For sources: the stimulus value at time `t`.
    fn source_value(&self, _t: f64) -> Option<f64> {
        None
    }

    /// Terminal nodes (for connectivity checks and diagnostics).
    fn nodes(&self) -> Vec<NodeId>;
}
