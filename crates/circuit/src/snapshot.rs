//! Jacobian snapshots captured along a transient trajectory.
//!
//! These are the raw material of the TFT transform (paper §II): at each
//! accepted time point the simulator records the linearization
//! `(G(k), C(k))` of the circuit around the large-signal trajectory,
//! together with the input (the state estimator) and output values.

use rvf_numerics::Mat;

/// One captured linearization of the circuit at a trajectory point.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobianSnapshot {
    /// Simulation time (s).
    pub t: f64,
    /// Input stimulus value `u(t_k)` — the state estimator sample.
    pub u: f64,
    /// Output probe value `y(t_k)`.
    pub y: f64,
    /// Full solution vector at the time point.
    pub x: Vec<f64>,
    /// Static Jacobian `G = ∂i/∂v` at the solution.
    pub g: Mat,
    /// Dynamic Jacobian `C = ∂q/∂v` at the solution.
    pub c: Mat,
}
