//! Transient analysis: fixed-step trapezoidal integration (second order,
//! A-stable, SPICE's default) with Newton at every step and optional
//! Jacobian snapshot capture.
//!
//! A caller chooses the step, the stop time and the snapshot cadence.
//! Each step runs the shared damped Newton solve with fixed settings: at
//! most `MAX_NEWTON` iterations, updates capped at `MAX_STEP`, and
//! `GMIN` from every node to ground.

use rvf_numerics::Mat;

use crate::error::CircuitError;
use crate::netlist::Circuit;
use crate::newton::{newton, Companion, NewtonWorkspace};
use crate::snapshot::JacobianSnapshot;

/// Maximum Newton iterations per time step.
const MAX_NEWTON: usize = 50;
/// Cap on the infinity norm of each Newton update (V): damping for
/// large excursions.
const MAX_STEP: f64 = 1.0;
/// Conductance kept from every node to ground during the transient (S);
/// it helps devices in cutoff.
const GMIN: f64 = 1e-12;

/// Options for the transient solver.
#[derive(Debug, Clone)]
pub struct TranOptions {
    /// Fixed time step (s).
    pub dt: f64,
    /// Stop time (s); the solver takes `ceil(t_stop/dt)` steps.
    pub t_stop: f64,
    /// Capture a [`JacobianSnapshot`] every `n` steps (`None` disables).
    pub snapshot_every: Option<usize>,
}

impl Default for TranOptions {
    fn default() -> Self {
        Self { dt: 1e-12, t_stop: 1e-9, snapshot_every: None }
    }
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TranResult {
    /// Time points (including `t = 0`).
    pub times: Vec<f64>,
    /// Input stimulus at each time point.
    pub inputs: Vec<f64>,
    /// Output probe at each time point.
    pub outputs: Vec<f64>,
    /// Captured Jacobian snapshots (when requested).
    pub snapshots: Vec<JacobianSnapshot>,
    /// Total Newton iterations across all steps (effort metric for the
    /// speedup comparison in Table I).
    pub newton_iterations: usize,
}

/// Runs a fixed-step transient analysis from the initial state `x0`
/// (normally the DC operating point).
///
/// # Errors
///
/// Returns [`CircuitError::BadAnalysisOptions`] for a non-positive or
/// non-finite `dt`/`t_stop` or a step count `t_stop/dt` whose time
/// points cannot be stored, [`CircuitError::StateSizeMismatch`] when
/// `x0` does not match the circuit dimension,
/// [`CircuitError::NewtonDiverged`] with the failing time if a step
/// does not converge, or a numerics error for singular Jacobians.
pub fn transient(
    circuit: &mut Circuit,
    x0: &[f64],
    opts: &TranOptions,
) -> Result<TranResult, CircuitError> {
    if !(opts.dt.is_finite() && opts.dt > 0.0) {
        return Err(CircuitError::BadAnalysisOptions {
            message: format!("dt must be finite and positive, got {}", opts.dt),
        });
    }
    if !(opts.t_stop.is_finite() && opts.t_stop > 0.0) {
        return Err(CircuitError::BadAnalysisOptions {
            message: format!("t_stop must be finite and positive, got {}", opts.t_stop),
        });
    }
    let dim = circuit.dim();
    if x0.len() != dim {
        return Err(CircuitError::StateSizeMismatch { expected: dim, got: x0.len() });
    }
    // `as` saturates, so a step count past `usize::MAX` fails the add.
    let n_steps = (opts.t_stop / opts.dt).ceil() as usize;
    let n_points = n_steps.checked_add(1).ok_or_else(|| too_many_points(n_steps))?;
    let every = opts.snapshot_every.filter(|&n| n > 0);
    let n_snapshots = every.map_or(0, |n| n_steps / n + 1);
    let mut result = TranResult {
        times: reserve(n_points, n_steps)?,
        inputs: reserve(n_points, n_steps)?,
        outputs: reserve(n_points, n_steps)?,
        snapshots: reserve(n_snapshots, n_steps)?,
        newton_iterations: 0,
    };
    // Trapezoidal companion scale: `q̇ₙ₊₁ = k·(qₙ₊₁ − qₙ) − q̇ₙ`.
    let k = 2.0 / opts.dt;
    let due = |step: usize| every.is_some_and(|n| step.is_multiple_of(n));
    let has_output = circuit.output_row().is_ok();

    let mut x = x0.to_vec();
    // q and q̇ at the current accepted point; at a DC equilibrium
    // f(x₀) + q̇ = 0 gives q̇₀ = −f(x₀) (≈ 0 when starting from the op).
    let (mut f, mut q_prev) = circuit.residual(&x, 0.0, GMIN);
    let mut qdot_prev: Vec<f64> = f.iter().map(|v| -v).collect();
    let mut q = vec![0.0; dim];
    let mut ws = NewtonWorkspace::new(dim);
    record(circuit, &mut result, 0.0, &x, has_output, due(0), (&mut f, &mut q));

    for step in 1..=n_steps {
        let t = step as f64 * opts.dt;
        let companion = Companion { k, q_prev: &q_prev, qdot_prev: &qdot_prev };
        result.newton_iterations +=
            newton(circuit, &mut ws, &mut x, t, GMIN, MAX_NEWTON, MAX_STEP, Some(companion))?;
        // Accept: update charge history.
        circuit.stamp(&x, t, GMIN, &mut f, &mut q, None, None);
        for i in 0..dim {
            qdot_prev[i] = k * (q[i] - q_prev[i]) - qdot_prev[i];
        }
        std::mem::swap(&mut q_prev, &mut q);
        record(circuit, &mut result, t, &x, has_output, due(step), (&mut f, &mut q));
    }
    Ok(result)
}

fn too_many_points(n_steps: usize) -> CircuitError {
    CircuitError::BadAnalysisOptions {
        message: format!("t_stop/dt asks for {n_steps} steps, more than can be stored"),
    }
}

/// An empty vector with room for exactly `n` elements of a run of
/// `n_steps` steps, or the typed error if that much memory cannot be had.
fn reserve<T>(n: usize, n_steps: usize) -> Result<Vec<T>, CircuitError> {
    let mut v = Vec::new();
    v.try_reserve_exact(n).map_err(|_| too_many_points(n_steps))?;
    Ok(v)
}

/// Records the accepted point `(t, x)` and, when `snapshot` is set, its
/// Jacobian snapshot; the snapshot's residual is stamped into `scratch`
/// and discarded.
fn record(
    circuit: &Circuit,
    result: &mut TranResult,
    t: f64,
    x: &[f64],
    has_output: bool,
    snapshot: bool,
    scratch: (&mut [f64], &mut [f64]),
) {
    let u = circuit.input_value(t).unwrap_or(0.0);
    let y = if has_output { circuit.output_value(x) } else { 0.0 };
    result.times.push(t);
    result.inputs.push(u);
    result.outputs.push(y);
    if snapshot {
        // The *device* Jacobians (no integrator companion terms, no
        // gmin): these are the TFT matrices of paper eq. (3).
        let (mut g, mut c) = (Mat::zeros(x.len(), x.len()), Mat::zeros(x.len(), x.len()));
        circuit.stamp(x, t, 0.0, scratch.0, scratch.1, Some(&mut g), Some(&mut c));
        result.snapshots.push(JacobianSnapshot { t, u, y, x: x.to_vec(), g, c });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::devices::passive::{Capacitor, Inductor, Resistor};
    use crate::devices::sources::Vsource;
    use crate::waveform::Waveform;

    fn rc_lowpass(r: f64, c: f64, w: Waveform) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("out");
        ckt.add(Vsource::new("Vin", a, 0, w)).unwrap();
        ckt.add(Resistor::new("R1", a, b, r)).unwrap();
        ckt.add(Capacitor::new("C1", b, 0, c)).unwrap();
        ckt.set_input("Vin").unwrap();
        ckt.set_output(b, 0);
        ckt
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // Step from 0 to 1 V at t=0 through R=1k, C=1n: v(t) = 1−e^{−t/τ}.
        let mut ckt = rc_lowpass(
            1e3,
            1e-9,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-15,
                fall: 1e-15,
                width: 1.0,
                period: 0.0,
            },
        );
        let x0 = vec![0.0; ckt.dim()];
        let opts = TranOptions { dt: 1e-8 / 400.0, t_stop: 5e-6 / 1000.0, ..Default::default() };
        let res = transient(&mut ckt, &x0, &opts).unwrap();
        let tau = 1e3 * 1e-9;
        for (t, &got) in res.times.iter().zip(&res.outputs).skip(1) {
            let want = 1.0 - (-t / tau).exp();
            assert!((got - want).abs() < 2e-3, "t={t:.3e}: {got} vs {want}");
        }
    }

    #[test]
    fn rc_sine_steady_state_amplitude() {
        // Drive at f = 1/(2πRC): |H| = 1/√2, phase −45°.
        let r = 1e3;
        let c = 1e-9;
        let f0 = 1.0 / (2.0 * core::f64::consts::PI * r * c);
        let mut ckt = rc_lowpass(
            r,
            c,
            Waveform::Sine { offset: 0.0, amplitude: 1.0, freq_hz: f0, phase_rad: 0.0, delay: 0.0 },
        );
        let x0 = vec![0.0; ckt.dim()];
        let period = 1.0 / f0;
        let opts = TranOptions { dt: period / 1000.0, t_stop: 10.0 * period, ..Default::default() };
        let res = transient(&mut ckt, &x0, &opts).unwrap();
        // Amplitude over the last two periods.
        let n = res.times.len();
        let peak = res.outputs[n - 2000..].iter().copied().fold(0.0_f64, f64::max);
        assert!((peak - core::f64::consts::FRAC_1_SQRT_2).abs() < 0.01, "peak {peak}");
    }

    #[test]
    fn lc_oscillation_frequency() {
        // Series RLC with tiny R: ringing at 1/(2π√LC).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.add(Vsource::new(
            "Vin",
            a,
            0,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: 0.0,
            },
        ))
        .unwrap();
        ckt.add(Resistor::new("R1", a, b, 1.0)).unwrap();
        ckt.add(Inductor::new("L1", b, c, 1e-6)).unwrap();
        ckt.add(Capacitor::new("C1", c, 0, 1e-9)).unwrap();
        ckt.set_input("Vin").unwrap();
        ckt.set_output(c, 0);
        let x0 = vec![0.0; ckt.dim()];
        let f0 = 1.0 / (2.0 * core::f64::consts::PI * (1e-6_f64 * 1e-9).sqrt());
        let period = 1.0 / f0;
        let opts = TranOptions { dt: period / 200.0, t_stop: 3.0 * period, ..Default::default() };
        let res = transient(&mut ckt, &x0, &opts).unwrap();
        // Find the first two upward crossings of 1.0 (the drive level).
        let mut crossings = Vec::new();
        for i in 1..res.outputs.len() {
            if res.outputs[i - 1] < 1.0 && res.outputs[i] >= 1.0 {
                crossings.push(res.times[i]);
            }
        }
        assert!(crossings.len() >= 2, "no ringing detected");
        let measured = crossings[1] - crossings[0];
        assert!((measured - period).abs() < 0.05 * period, "period {measured:.3e} vs {period:.3e}");
    }

    #[test]
    fn snapshots_captured_at_requested_cadence() {
        let mut ckt = rc_lowpass(
            1e3,
            1e-9,
            Waveform::Sine {
                offset: 0.5,
                amplitude: 0.4,
                freq_hz: 1e5,
                phase_rad: 0.0,
                delay: 0.0,
            },
        );
        let x0 = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let opts = TranOptions { dt: 1e-8, t_stop: 1e-5, snapshot_every: Some(100) };
        let res = transient(&mut ckt, &x0, &opts).unwrap();
        assert_eq!(res.snapshots.len(), 1000 / 100 + 1); // incl. t=0
        for s in &res.snapshots {
            assert_eq!(s.g.shape(), (3, 3));
            assert_eq!(s.c.shape(), (3, 3));
            assert!((0.1..=0.9).contains(&s.u) || s.u >= 0.0);
        }
    }

    #[test]
    fn newton_failure_names_the_step() {
        // A 1 kV jump in one step: 1 V damping covers at most 50 V in
        // the 50 iterations a step may use.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 0.0), (2e-9, 1.0e3)]);
        ckt.add(Vsource::new("Vin", a, 0, w)).unwrap();
        ckt.add(Resistor::new("R1", a, 0, 1.0e3)).unwrap();
        let x0 = vec![0.0; ckt.dim()];
        let opts = TranOptions { dt: 1e-9, t_stop: 3e-9, ..Default::default() };
        let got = transient(&mut ckt, &x0, &opts);
        assert!(
            matches!(got, Err(CircuitError::NewtonDiverged { iterations: 50, time, .. })
                if time == 2e-9),
            "{got:?}"
        );
    }

    #[test]
    fn bad_options_and_state_are_typed_errors_not_panics() {
        // Regression for the old `assert!`s: unusable options and a
        // mis-sized initial state must come back as typed errors so a
        // serving/extraction caller can degrade instead of aborting.
        let mut ckt = rc_lowpass(
            1e3,
            1e-9,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                freq_hz: 1e5,
                phase_rad: 0.0,
                delay: 0.0,
            },
        );
        let x0 = vec![0.0; ckt.dim()];
        // The last two rows ask for more time points than fit in a
        // `usize` (1e300) or in memory (1e15).
        for (bad_dt, t_stop) in [
            (0.0, 1e-9),
            (-1e-9, 1e-9),
            (f64::NAN, 1e-9),
            (f64::INFINITY, 1e-9),
            (1e-300, 1.0),
            (1e-15, 1.0),
        ] {
            let opts = TranOptions { dt: bad_dt, t_stop, ..Default::default() };
            assert!(
                matches!(
                    transient(&mut ckt, &x0, &opts),
                    Err(CircuitError::BadAnalysisOptions { .. })
                ),
                "dt={bad_dt}, t_stop={t_stop}"
            );
        }
        for bad_stop in [0.0, -1.0, f64::NAN] {
            let opts = TranOptions { t_stop: bad_stop, ..Default::default() };
            assert!(
                matches!(
                    transient(&mut ckt, &x0, &opts),
                    Err(CircuitError::BadAnalysisOptions { .. })
                ),
                "t_stop={bad_stop}"
            );
        }
        let short = vec![0.0; ckt.dim() - 1];
        let got = transient(&mut ckt, &short, &TranOptions::default());
        assert!(
            matches!(got, Err(CircuitError::StateSizeMismatch { expected, got })
                if expected == 3 && got == 2),
            "{got:?}"
        );
    }
}
