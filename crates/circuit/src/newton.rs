//! The damped Newton solve shared by the DC operating point and every
//! transient step.

use rvf_numerics::{Lu, Mat};

use crate::error::CircuitError;
use crate::netlist::{Circuit, MnaEval};

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

/// The memory one Newton solve works in, built once per DC solve or
/// transient run and reused by every iteration: the linearisation, the
/// companion residual, the LU factors and the update.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    ev: MnaEval,
    res: Vec<f64>,
    lu: Lu,
    dx: Vec<f64>,
}

impl NewtonWorkspace {
    /// A workspace for an MNA system of dimension `dim`.
    pub(crate) fn new(dim: usize) -> Self {
        Self { ev: MnaEval::zeros(dim), res: vec![0.0; dim], lu: Lu::default(), dx: vec![0.0; dim] }
    }
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
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton(
    circuit: &Circuit,
    ws: &mut NewtonWorkspace,
    x: &mut [f64],
    t: f64,
    gmin: f64,
    max_iterations: usize,
    max_step: f64,
    companion: Option<Companion<'_>>,
) -> Result<usize, CircuitError> {
    let mut residual = f64::INFINITY;
    for iteration in 1..=max_iterations {
        // The DC equations never read C, so it is stamped only for a
        // transient step.
        let MnaEval { f, q, g, c } = &mut ws.ev;
        circuit.stamp(x, t, gmin, f, q, Some(&mut *g), companion.is_some().then_some(&mut *c));
        let res: &[f64] = match companion {
            None => {
                ws.lu.refactor(g)?;
                f.as_slice()
            }
            Some(Companion { k, q_prev, qdot_prev }) => {
                for (i, r) in ws.res.iter_mut().enumerate() {
                    *r = f[i] + k * (q[i] - q_prev[i]) - qdot_prev[i];
                }
                ws.lu.refactor_with(x.len(), |m| companion_jacobian(m, g, k, c))?;
                &ws.res
            }
        };
        residual = res.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        ws.lu.solve_into(res, &mut ws.dx)?;
        let norm = ws.dx.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let alpha = if norm > max_step { max_step / norm } else { 1.0 };
        for (xi, di) in x.iter_mut().zip(&ws.dx) {
            *xi -= alpha * di;
        }
        if residual < TOL_RESIDUAL && norm * alpha < TOL_UPDATE {
            return Ok(iteration);
        }
    }
    let time = if companion.is_some() { t } else { f64::NAN };
    Err(CircuitError::NewtonDiverged { iterations: max_iterations, residual, time })
}

/// Writes the companion Jacobian `G + k·C` over `m`, row-major.
fn companion_jacobian(m: &mut [f64], g: &Mat, k: f64, c: &Mat) {
    for ((mij, gij), cij) in m.iter_mut().zip(g.as_slice()).zip(c.as_slice()) {
        *mij = gij + k * cij;
    }
}
