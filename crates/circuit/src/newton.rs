//! The damped Newton solve shared by the DC operating point and every
//! transient step.

use rvf_numerics::Lu;

use crate::error::CircuitError;
use crate::netlist::Circuit;

/// Newton residual tolerance (A).
const TOL_RESIDUAL: f64 = 1e-9;
/// Newton update tolerance (V).
const TOL_UPDATE: f64 = 1e-9;

/// The trapezoidal companion of a transient step: the residual gains
/// `k·(q − q_prev) − q̇_prev` and the Jacobian `k·C`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Companion<'a> {
    /// `2/dt`.
    pub(crate) k: f64,
    /// Charges at the last accepted point.
    pub(crate) q_prev: &'a [f64],
    /// Charge derivative at the last accepted point.
    pub(crate) qdot_prev: &'a [f64],
}

/// Solves the MNA system at time `t` for `x` in place, starting from
/// the `x` given: the DC equations with no companion, a trapezoidal step
/// with one. Each update is scaled down so its infinity norm is at most
/// `max_step` volts. Returns the iterations used.
///
/// # Errors
///
/// Returns [`CircuitError::NewtonDiverged`] (time NaN without a
/// companion) if `max_iterations` do not converge, or a numerics error
/// for a singular Jacobian.
pub(crate) fn newton(
    circuit: &Circuit,
    x: &mut [f64],
    t: f64,
    gmin: f64,
    max_iterations: usize,
    max_step: f64,
    companion: Option<Companion<'_>>,
) -> Result<usize, CircuitError> {
    let mut residual = f64::INFINITY;
    for iteration in 1..=max_iterations {
        let ev = circuit.eval(x, t, gmin);
        let (res, jac) = match companion {
            None => (ev.f, ev.g),
            Some(Companion { k, q_prev, qdot_prev }) => (
                (0..x.len()).map(|i| ev.f[i] + k * (ev.q[i] - q_prev[i]) - qdot_prev[i]).collect(),
                ev.g.axpy(k, &ev.c),
            ),
        };
        residual = res.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let dx = Lu::factor(&jac)?.solve(&res)?;
        let norm = dx.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let alpha = if norm > max_step { max_step / norm } else { 1.0 };
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi -= alpha * di;
        }
        if residual < TOL_RESIDUAL && norm * alpha < TOL_UPDATE {
            return Ok(iteration);
        }
    }
    let time = if companion.is_some() { t } else { f64::NAN };
    Err(CircuitError::NewtonDiverged { iterations: max_iterations, residual, time })
}
