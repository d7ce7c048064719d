//! The circuit container: named nodes, devices, ports.

use std::collections::HashMap;

use rvf_numerics::Mat;

use crate::devices::{Device, NodeId, StampContext};
use crate::error::CircuitError;

/// The MNA system linearised at a point `(x, t)`.
#[derive(Debug, Clone)]
pub struct MnaEval {
    /// Static residual `i(x) − s(t)` (KCL currents and branch equations).
    pub(crate) f: Vec<f64>,
    /// Charge/flux vector `q(x)`.
    pub(crate) q: Vec<f64>,
    /// `∂f/∂x`.
    pub g: Mat,
    /// `∂q/∂x`.
    pub c: Mat,
}

impl MnaEval {
    /// Zeroed buffers for an MNA system of dimension `dim`, to be filled
    /// by [`Circuit::eval_into`].
    pub fn zeros(dim: usize) -> Self {
        Self {
            f: vec![0.0; dim],
            q: vec![0.0; dim],
            g: Mat::zeros(dim, dim),
            c: Mat::zeros(dim, dim),
        }
    }
}

/// A circuit under construction / simulation.
///
/// Nodes are created by name (`"0"`, `"gnd"` and `"GND"` are ground);
/// devices implement [`Device`] and are added by value.
///
/// # Examples
///
/// ```
/// use rvf_circuit::devices::passive::Resistor;
/// use rvf_circuit::devices::sources::Vsource;
/// use rvf_circuit::{Circuit, Waveform};
///
/// # fn main() -> Result<(), rvf_circuit::CircuitError> {
/// let mut ckt = Circuit::new();
/// let inp = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add(Vsource::new("Vin", inp, 0, Waveform::Dc(1.0)))?;
/// ckt.add(Resistor::new("R1", inp, out, 1.0e3))?;
/// ckt.add(Resistor::new("R2", out, 0, 1.0e3))?;
/// ckt.set_input("Vin")?;
/// ckt.set_output(out, 0);
/// let op = rvf_circuit::dc_operating_point(&mut ckt, &Default::default())?;
/// assert!((ckt.output_value(&op) - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    node_index: HashMap<String, NodeId>,
    devices: Vec<Box<dyn Device>>,
    device_index: HashMap<String, usize>,
    n_branches: usize,
    finalized: bool,
    input: Option<usize>,
    output: Option<(NodeId, NodeId)>,
}

impl Circuit {
    /// Creates an empty circuit (ground pre-registered).
    pub fn new() -> Self {
        let mut c = Self {
            node_index: HashMap::new(),
            devices: Vec::new(),
            device_index: HashMap::new(),
            n_branches: 0,
            finalized: false,
            input: None,
            output: None,
        };
        c.node_index.insert("0".into(), 0);
        c
    }

    /// Returns the node id for `name`, creating the node if needed.
    /// `"0"`, `"gnd"`, `"GND"` are ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = if name.eq_ignore_ascii_case("gnd") { "0" } else { name };
        if let Some(&id) = self.node_index.get(key) {
            return id;
        }
        let id = self.node_index.len();
        self.node_index.insert(key.to_string(), id);
        self.finalized = false;
        id
    }

    /// Looks up an existing node by name.
    pub(crate) fn find_node(&self, name: &str) -> Option<NodeId> {
        let key = if name.eq_ignore_ascii_case("gnd") { "0" } else { name };
        self.node_index.get(key).copied()
    }

    /// Adds a device.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DuplicateDevice`] if the name is taken,
    /// or [`CircuitError::UnknownNode`] if the device references a node
    /// id that was never created.
    pub fn add(&mut self, device: impl Device + 'static) -> Result<(), CircuitError> {
        let name = device.name().to_string();
        if self.device_index.contains_key(&name) {
            return Err(CircuitError::DuplicateDevice { name });
        }
        for n in device.nodes() {
            if n >= self.node_index.len() {
                return Err(CircuitError::UnknownNode { name: format!("#{n}") });
            }
        }
        if let Some(control) = device.control_source() {
            let ok =
                self.device_index.get(control).is_some_and(|&i| self.devices[i].n_branches() > 0);
            if !ok {
                return Err(CircuitError::InvalidControl { name, control: control.to_string() });
            }
        }
        self.device_index.insert(name, self.devices.len());
        self.devices.push(Box::new(device));
        self.finalized = false;
        Ok(())
    }

    /// Marks the named source device as the circuit input `u(t)`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidInput`] if the device does not
    /// exist or is not a source.
    pub fn set_input(&mut self, device_name: &str) -> Result<(), CircuitError> {
        let idx = *self
            .device_index
            .get(device_name)
            .ok_or_else(|| CircuitError::InvalidInput { name: device_name.into() })?;
        if self.devices[idx].source_value(0.0).is_none() {
            return Err(CircuitError::InvalidInput { name: device_name.into() });
        }
        self.input = Some(idx);
        Ok(())
    }

    /// Sets the output probe `y = v(p) − v(n)`.
    pub fn set_output(&mut self, p: NodeId, n: NodeId) {
        self.output = Some((p, n));
    }

    /// Number of circuit nodes excluding ground.
    pub fn n_nodes(&self) -> usize {
        self.node_index.len() - 1
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Iterates over the devices.
    pub(crate) fn devices(&self) -> impl Iterator<Item = &dyn Device> {
        self.devices.iter().map(|d| d.as_ref())
    }

    /// Total number of unknowns (node voltages + branch currents).
    /// Finalizes the circuit if needed.
    pub fn dim(&mut self) -> usize {
        self.finalize();
        self.n_nodes() + self.n_branches
    }

    /// Assigns branch rows and resolves current-control references.
    /// Called automatically by the analyses.
    pub(crate) fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        let mut base = self.n_nodes();
        let mut branch_rows: HashMap<String, usize> = HashMap::new();
        for d in &mut self.devices {
            let nb = d.n_branches();
            if nb > 0 {
                d.set_branch_base(base);
                branch_rows.insert(d.name().to_string(), base);
                base += nb;
            }
        }
        self.n_branches = base - self.n_nodes();
        // Second pass: wire CCCS/CCVS controls to the branch rows of
        // their named sources ([`Circuit::add`] verified they exist).
        for d in &mut self.devices {
            let Some(row) = d.control_source().map(|c| branch_rows[c]) else { continue };
            d.set_control_branch(row);
        }
        self.finalized = true;
    }

    /// Linearises the MNA system at `(x, t)`: the residual, the charges
    /// and both Jacobians.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not finalized or `x` has the wrong length.
    pub fn eval(&self, x: &[f64], t: f64, gmin: f64) -> MnaEval {
        let mut ev = MnaEval::zeros(x.len());
        self.eval_into(x, t, gmin, &mut ev);
        ev
    }

    /// [`Circuit::eval`] into the caller's buffers, which must have been
    /// built for this circuit's dimension ([`MnaEval::zeros`]).
    ///
    /// # Panics
    ///
    /// Panics as [`Circuit::eval`] does, or if `ev` has another
    /// dimension.
    pub fn eval_into(&self, x: &[f64], t: f64, gmin: f64, ev: &mut MnaEval) {
        let MnaEval { f, q, g, c } = ev;
        self.stamp(x, t, gmin, f, q, Some(g), Some(c));
    }

    /// The static residual `f` and the charges `q` at `(x, t)`, without
    /// Jacobians; panics as [`Circuit::eval`] does.
    pub(crate) fn residual(&self, x: &[f64], t: f64, gmin: f64) -> (Vec<f64>, Vec<f64>) {
        let (mut f, mut q) = (vec![0.0; x.len()], vec![0.0; x.len()]);
        self.stamp(x, t, gmin, &mut f, &mut q, None, None);
        (f, q)
    }

    /// The one stamping routine: zero-fills `f`, `q` and whichever
    /// Jacobians are given, then stamps every device at `(x, t)` into
    /// them. Panics as [`Circuit::eval`] does, or if a buffer's
    /// dimension differs from `x`'s.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stamp(
        &self,
        x: &[f64],
        t: f64,
        gmin: f64,
        f: &mut [f64],
        q: &mut [f64],
        mut g: Option<&mut Mat>,
        mut c: Option<&mut Mat>,
    ) {
        assert!(self.finalized, "circuit must be finalized before eval");
        let dim = self.n_nodes() + self.n_branches;
        assert_eq!(x.len(), dim, "state vector length mismatch");
        assert!(f.len() == dim && q.len() == dim, "residual buffer length mismatch");
        for m in [g.as_deref_mut(), c.as_deref_mut()].into_iter().flatten() {
            assert_eq!(m.shape(), (dim, dim), "Jacobian buffer shape mismatch");
            m.as_mut_slice().fill(0.0);
        }
        f.fill(0.0);
        q.fill(0.0);
        let mut ctx = StampContext::new(x, t, f, q, g, c, gmin);
        for d in &self.devices {
            d.stamp(&mut ctx);
        }
    }

    /// The input stimulus value at time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MissingPort`] when no input is set.
    pub(crate) fn input_value(&self, t: f64) -> Result<f64, CircuitError> {
        let idx = self.input.ok_or(CircuitError::MissingPort { which: "input" })?;
        Ok(self.devices[idx].source_value(t).expect("input device is a source"))
    }

    /// The dense `B` column of the linearized system `(G + sC)x = B·u`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MissingPort`] when no input is set.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not finalized.
    pub fn input_column(&self) -> Result<Vec<f64>, CircuitError> {
        assert!(self.finalized, "circuit must be finalized");
        let idx = self.input.ok_or(CircuitError::MissingPort { which: "input" })?;
        let entries =
            self.devices[idx].input_column().ok_or(CircuitError::MissingPort { which: "input" })?;
        let mut b = vec![0.0; self.n_nodes() + self.n_branches];
        for (row, w) in entries {
            b[row] += w;
        }
        Ok(b)
    }

    /// The dense output row `D` with `y = Dᵀ·x`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MissingPort`] when no output is set.
    pub fn output_row(&self) -> Result<Vec<f64>, CircuitError> {
        assert!(self.finalized, "circuit must be finalized");
        let (p, n) = self.output.ok_or(CircuitError::MissingPort { which: "output" })?;
        let mut d = vec![0.0; self.n_nodes() + self.n_branches];
        if p != 0 {
            d[p - 1] += 1.0;
        }
        if n != 0 {
            d[n - 1] -= 1.0;
        }
        Ok(d)
    }

    /// Output probe value for a solved state.
    ///
    /// # Panics
    ///
    /// Panics if no output is configured.
    pub fn output_value(&self, x: &[f64]) -> f64 {
        let (p, n) = self.output.expect("output probe not configured");
        let vp = if p == 0 { 0.0 } else { x[p - 1] };
        let vn = if n == 0 { 0.0 } else { x[n - 1] };
        vp - vn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::passive::Resistor;
    use crate::devices::sources::Vsource;
    use crate::waveform::Waveform;

    #[test]
    fn node_management() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), 0);
        assert_eq!(c.node("gnd"), 0);
        assert_eq!(c.node("GND"), 0);
        let a = c.node("a");
        assert_eq!(a, 1);
        assert_eq!(c.node("a"), 1);
        assert_eq!(c.find_node("b"), None);
        assert_eq!(c.n_nodes(), 1);
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R1", a, 0, 1.0)).unwrap();
        let err = c.add(Resistor::new("R1", a, 0, 2.0)).unwrap_err();
        assert!(matches!(err, CircuitError::DuplicateDevice { .. }));
    }

    #[test]
    fn dim_counts_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Vsource::new("V1", a, 0, Waveform::Dc(1.0))).unwrap();
        c.add(Resistor::new("R1", a, b, 1.0)).unwrap();
        c.add(Resistor::new("R2", b, 0, 1.0)).unwrap();
        assert_eq!(c.dim(), 3); // 2 nodes + 1 branch
    }

    #[test]
    fn eval_voltage_divider_residual() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Vsource::new("V1", a, 0, Waveform::Dc(2.0))).unwrap();
        c.add(Resistor::new("R1", a, b, 1.0)).unwrap();
        c.add(Resistor::new("R2", b, 0, 1.0)).unwrap();
        let dim = c.dim();
        assert_eq!(dim, 3);
        // Exact solution: v_a = 2, v_b = 1, i_v = -(current into a from R1) = -1 A?
        // Branch current is the current flowing *out of* p through the
        // source: KCL at a: i_R1 + i_V = 0 → i_V = -1.
        let x = [2.0, 1.0, -1.0];
        let e = c.eval(&x, 0.0, 0.0);
        for v in &e.f {
            assert!(v.abs() < 1e-12, "residual {:?}", e.f);
        }
        assert!((e.g[(0, 0)] - 1.0).abs() < 1e-12); // 1/R1 at node a
    }

    #[test]
    fn input_output_ports() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Vsource::new("Vin", a, 0, Waveform::Dc(1.0))).unwrap();
        c.add(Resistor::new("R1", a, 0, 1.0)).unwrap();
        assert!(c.set_input("R1").is_err(), "resistor is not a source");
        c.set_input("Vin").unwrap();
        c.set_output(a, 0);
        let _ = c.dim();
        let b = c.input_column().unwrap();
        assert_eq!(b, vec![0.0, 1.0]); // branch row
        let d = c.output_row().unwrap();
        assert_eq!(d, vec![1.0, 0.0]);
        assert_eq!(c.input_value(0.0).unwrap(), 1.0);
        assert_eq!(c.output_value(&[0.7, 0.0]), 0.7);
    }

    #[test]
    fn missing_ports_error() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R1", a, 0, 1.0)).unwrap();
        let _ = c.dim();
        assert!(matches!(c.input_value(0.0), Err(CircuitError::MissingPort { .. })));
        assert!(matches!(c.output_row(), Err(CircuitError::MissingPort { .. })));
    }
}
