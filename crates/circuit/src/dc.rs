//! DC operating point: damped Newton with gmin stepping.

use crate::error::CircuitError;
use crate::netlist::Circuit;
use crate::newton::{newton, NewtonWorkspace};

/// Maximum Newton iterations per gmin step.
const MAX_ITERATIONS: usize = 100;
/// Cap on the infinity norm of each Newton update (V): damping for the
/// exponential nonlinearities.
const MAX_STEP: f64 = 0.5;
/// Gmin continuation ladder (S from every nonlinear device node to
/// ground), ending at the target value.
const GMIN_LADDER: [f64; 6] = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12];

/// Options for the DC solver. It has none to set: the iteration cap,
/// damping, tolerances and gmin ladder are fixed.
#[derive(Debug, Clone, Default)]
pub struct DcOptions {}

/// Computes the DC operating point with all sources at their `t = 0`
/// values.
///
/// Runs damped Newton from a zero initial guess, warm-starting across a
/// decreasing gmin ladder (continuation), which tames the exponential
/// device characteristics the same way production SPICE engines do.
///
/// # Errors
///
/// Returns [`CircuitError::NewtonDiverged`] if the final gmin step fails
/// to converge, or a numerical error if the Jacobian becomes singular.
pub fn dc_operating_point(
    circuit: &mut Circuit,
    _opts: &DcOptions,
) -> Result<Vec<f64>, CircuitError> {
    let dim = circuit.dim();
    let mut x = vec![0.0; dim];
    let mut ws = NewtonWorkspace::new(dim);
    let mut last = Ok(0);
    for gmin in GMIN_LADDER {
        // A failed intermediate step can still help the next one through
        // partial progress; only the final step is fatal.
        last = newton(circuit, &mut ws, &mut x, 0.0, gmin, MAX_ITERATIONS, MAX_STEP, None);
    }
    last.map(|_| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::diode::Diode;
    use crate::devices::mosfet::{MosType, Mosfet, MosfetParams};
    use crate::devices::passive::Resistor;
    use crate::devices::sources::{Isource, Vsource};
    use crate::waveform::Waveform;

    #[test]
    fn linear_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Vsource::new("V1", a, 0, Waveform::Dc(3.0))).unwrap();
        c.add(Resistor::new("R1", a, b, 2.0e3)).unwrap();
        c.add(Resistor::new("R2", b, 0, 1.0e3)).unwrap();
        let x = dc_operating_point(&mut c, &DcOptions::default()).unwrap();
        assert!((x[a - 1] - 3.0).abs() < 1e-9);
        assert!((x[b - 1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diode_resistor_forward_drop() {
        // 5 V through 1 kΩ into a diode: V_d ≈ 0.6-0.7, I ≈ 4.3-4.4 mA.
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.add(Vsource::new("V1", a, 0, Waveform::Dc(5.0))).unwrap();
        c.add(Resistor::new("R1", a, d, 1.0e3)).unwrap();
        c.add(Diode::new("D1", d, 0, 1e-14, 1.0)).unwrap();
        let x = dc_operating_point(&mut c, &DcOptions::default()).unwrap();
        let vd = x[d - 1];
        assert!((0.5..0.8).contains(&vd), "diode drop {vd}");
        // KCL check: residual at solution is tiny without gmin.
        let (f, _) = c.residual(&x, 0.0, 0.0);
        let r = f.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        assert!(r < 1e-6, "residual {r}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Isource::new("I1", 0, a, Waveform::Dc(1e-3))).unwrap();
        c.add(Resistor::new("R1", a, 0, 2.0e3)).unwrap();
        let x = dc_operating_point(&mut c, &DcOptions::default()).unwrap();
        assert!((x[a - 1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mosfet_common_source_amplifier() {
        // NMOS with drain resistor: VDD=1.5, Vg=0.8, check saturation op.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add(Vsource::new("VDD", vdd, 0, Waveform::Dc(1.5))).unwrap();
        c.add(Vsource::new("VG", g, 0, Waveform::Dc(0.8))).unwrap();
        c.add(Resistor::new("RD", vdd, d, 1.0e3)).unwrap();
        let params = MosfetParams { kp: 2e-3, vt0: 0.4, lambda: 0.0, ..Default::default() };
        c.add(Mosfet::new("M1", d, g, 0, MosType::Nmos, params)).unwrap();
        let x = dc_operating_point(&mut c, &DcOptions::default()).unwrap();
        // Id = 0.5*kp*vov² = 0.5*2e-3*0.16 = 160 µA → Vd = 1.5 − 0.16 = 1.34.
        let vd = x[d - 1];
        assert!((vd - 1.34).abs() < 1e-3, "vd = {vd}");
    }

    #[test]
    fn diode_connected_mosfet_stack() {
        // Bias chain: resistor into a diode-connected NMOS.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let b = c.node("b");
        c.add(Vsource::new("VDD", vdd, 0, Waveform::Dc(1.5))).unwrap();
        c.add(Resistor::new("RB", vdd, b, 5.0e3)).unwrap();
        let params = MosfetParams { kp: 4e-3, vt0: 0.4, lambda: 0.0, ..Default::default() };
        c.add(Mosfet::new("MB", b, b, 0, MosType::Nmos, params)).unwrap();
        let x = dc_operating_point(&mut c, &DcOptions::default()).unwrap();
        let vb = x[b - 1];
        // vb solves (1.5−vb)/5k = 2e-3(vb−0.4)² → vb ≈ 0.69.
        assert!((0.55..0.85).contains(&vb), "vb = {vb}");
    }

    #[test]
    fn newton_failure_is_a_typed_error() {
        // 0.5 V damping moves the node at most 50 V per gmin step, 300 V
        // over the ladder: 1 kV cannot be reached.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Vsource::new("V1", a, 0, Waveform::Dc(1.0e3))).unwrap();
        c.add(Resistor::new("R1", a, 0, 1.0e3)).unwrap();
        let got = dc_operating_point(&mut c, &DcOptions::default());
        assert!(
            matches!(got, Err(CircuitError::NewtonDiverged { iterations: 100, residual, time })
                if time.is_nan() && residual == 700.5),
            "{got:?}"
        );
    }
}
