//! Small-signal AC analysis around an operating point.
//!
//! Two evaluation paths exist for `H(s) = Dᵀ·(G + s·C)⁻¹·B`:
//!
//! * [`transfer_at`] — a dense complex LU per frequency, `O(n³)` each;
//! * [`ReducedTransfer`] / [`transfer_sweep`] — one Hessenberg–triangular
//!   reduction of the pencil `(G, C)` ([`rvf_numerics::HtPencil`]), then
//!   `O(n²)` per frequency. Every sweep takes this path; [`transfer_at`]
//!   is the reference it is tested and benchmarked against.

use rvf_numerics::{CLu, CMat, Complex, HtPencil, Mat};

use crate::error::CircuitError;
use crate::netlist::Circuit;

/// Evaluates the transfer function `H(s) = Dᵀ·(G + s·C)⁻¹·B` for one
/// complex frequency — the same expression the TFT transform applies to
/// every Jacobian snapshot (paper eq. 3).
///
/// For repeated evaluations of the *same* pencil over many frequencies,
/// prefer [`transfer_sweep`] (or a [`ReducedTransfer`]), which factors
/// the pencil once instead of once per frequency.
///
/// # Errors
///
/// Returns a numerics error if `(G + sC)` is singular at `s`.
pub fn transfer_at(
    g: &Mat,
    c: &Mat,
    b: &[f64],
    d: &[f64],
    s: Complex,
) -> Result<Complex, CircuitError> {
    let sys = CMat::from_real_pair(g, s, c);
    let lu = CLu::factor(&sys)?;
    let x = lu.solve_real(b)?;
    let mut y = Complex::ZERO;
    for (di, xi) in d.iter().zip(&x) {
        y += *xi * *di;
    }
    Ok(y)
}

/// A transfer function `H(s) = Dᵀ·(G + s·C)⁻¹·B` prepared for repeated
/// evaluation: the pencil is reduced to Hessenberg–triangular form once
/// and the port vectors are projected into the reduced basis, so every
/// [`ReducedTransfer::eval`] costs `O(n²)` instead of `O(n³)`.
///
/// # Examples
///
/// ```
/// use rvf_circuit::{transfer_at, ReducedTransfer};
/// use rvf_numerics::{Complex, Mat};
///
/// # fn main() -> Result<(), rvf_circuit::CircuitError> {
/// let g = Mat::from_rows(&[&[1.0, -1.0], &[-1.0, 2.0]]);
/// let c = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]);
/// let (b, d) = ([1.0, 0.0], [0.0, 1.0]);
/// let rt = ReducedTransfer::new(&g, &c, &b, &d)?;
/// let s = Complex::from_im(3.0);
/// assert!((rt.eval(s)? - transfer_at(&g, &c, &b, &d, s)?).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReducedTransfer {
    pencil: HtPencil,
    /// `Qᵀ·B`.
    bt: Vec<f64>,
    /// `Zᵀ·D`.
    dt: Vec<f64>,
}

impl ReducedTransfer {
    /// Reduces the pencil and projects the port vectors.
    ///
    /// # Errors
    ///
    /// Returns a numerics error if shapes are inconsistent.
    pub fn new(g: &Mat, c: &Mat, b: &[f64], d: &[f64]) -> Result<Self, CircuitError> {
        let pencil = HtPencil::reduce(g, c)?;
        let bt = pencil.project_input(b)?;
        let dt = pencil.project_output(d)?;
        Ok(Self { pencil, bt, dt })
    }

    /// Evaluates `H(s)` in `O(n²)`.
    ///
    /// # Errors
    ///
    /// Returns a numerics error if `(G + sC)` is singular at `s`.
    pub fn eval(&self, s: Complex) -> Result<Complex, CircuitError> {
        Ok(self.pencil.transfer_projected(&self.bt, &self.dt, s)?)
    }
}

/// Evaluates `H(s)` over a list of complex frequencies through the
/// reduced pencil ([`ReducedTransfer`]): one reduction, then `O(n²)` per
/// point.
///
/// It agrees with the per-frequency LU of [`transfer_at`] to machine
/// precision (pinned to 1e-10 in tests on the RC ladder and diode
/// clipper, and to 1e-12 on 1- and 2-point sweeps and a 1-unknown
/// pencil).
///
/// # Errors
///
/// Returns a numerics error if `(G + sC)` is singular at some `s`.
pub fn transfer_sweep(
    g: &Mat,
    c: &Mat,
    b: &[f64],
    d: &[f64],
    ss: &[Complex],
) -> Result<Vec<Complex>, CircuitError> {
    let rt = ReducedTransfer::new(g, c, b, d)?;
    Ok(rt.pencil.transfer_projected_sweep(&rt.bt, &rt.dt, ss)?)
}

/// Sweeps the small-signal transfer function input→output over a list of
/// frequencies (hertz) at the operating point `x_op`.
///
/// # Errors
///
/// Returns [`CircuitError::MissingPort`] if input/output are not set, or
/// a numerics error if the system matrix is singular at some frequency.
pub fn ac_sweep(
    circuit: &mut Circuit,
    x_op: &[f64],
    freqs_hz: &[f64],
) -> Result<Vec<Complex>, CircuitError> {
    let _ = circuit.dim();
    let ev = circuit.eval(x_op, 0.0, 0.0);
    let b = circuit.input_column()?;
    let d = circuit.output_row()?;
    let ss: Vec<Complex> =
        freqs_hz.iter().map(|&f| Complex::from_im(2.0 * core::f64::consts::PI * f)).collect();
    transfer_sweep(&ev.g, &ev.c, &b, &d, &ss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::devices::passive::{Capacitor, Resistor};
    use crate::devices::sources::{Isource, Vsource};
    use crate::waveform::Waveform;
    use rvf_numerics::db20;

    fn rc_lowpass() -> (Circuit, f64) {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("out");
        ckt.add(Vsource::new("Vin", a, 0, Waveform::Dc(0.0))).unwrap();
        ckt.add(Resistor::new("R1", a, b, 1.0e3)).unwrap();
        ckt.add(Capacitor::new("C1", b, 0, 1.0e-9)).unwrap();
        ckt.set_input("Vin").unwrap();
        ckt.set_output(b, 0);
        let f3db = 1.0 / (2.0 * core::f64::consts::PI * 1.0e3 * 1.0e-9);
        (ckt, f3db)
    }

    #[test]
    fn rc_lowpass_matches_analytic() {
        let (mut ckt, f3db) = rc_lowpass();
        let x0 = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let freqs = [f3db / 100.0, f3db, f3db * 100.0];
        let h = ac_sweep(&mut ckt, &x0, &freqs).unwrap();
        // DC-ish: gain ≈ 1.
        assert!((h[0].abs() - 1.0).abs() < 1e-3);
        // Corner: −3 dB, −45°.
        assert!((db20(h[1].abs()) + 3.0103).abs() < 0.01);
        assert!((h[1].arg().to_degrees() + 45.0).abs() < 0.5);
        // Far above: −40 dB per 2 decades.
        assert!((db20(h[2].abs()) + 40.0).abs() < 0.1);
    }

    /// Jacobians of `ckt` at its DC operating point, plus port vectors.
    fn pencil_at_op(ckt: &mut Circuit) -> (Mat, Mat, Vec<f64>, Vec<f64>) {
        // dc_operating_point finalizes the circuit, so eval is safe here.
        let x0 = dc_operating_point(ckt, &DcOptions::default()).unwrap();
        let ev = ckt.eval(&x0, 0.0, 0.0);
        let b = ckt.input_column().unwrap();
        let d = ckt.output_row().unwrap();
        (ev.g, ev.c, b, d)
    }

    fn assert_paths_agree(ckt: &mut Circuit, what: &str) {
        let (g, c, b, d) = pencil_at_op(ckt);
        let ss: Vec<Complex> = (0..40)
            .map(|i| Complex::from_im(2.0 * core::f64::consts::PI * 10f64.powf(i as f64 * 0.25)))
            .collect();
        let fast = transfer_sweep(&g, &c, &b, &d, &ss).unwrap();
        for (s, h_fast) in ss.iter().zip(&fast) {
            let h_naive = transfer_at(&g, &c, &b, &d, *s).unwrap();
            assert!(
                (*h_fast - h_naive).abs() < 1e-10,
                "{what}: reduced vs naive mismatch at s={s:?}: {h_fast:?} vs {h_naive:?}"
            );
        }
    }

    #[test]
    fn reduced_path_matches_naive_on_rc_ladder() {
        let mut ckt = crate::circuits::rc_ladder(5, 1.0e3, 1.0e-9, Waveform::Dc(0.5));
        assert_paths_agree(&mut ckt, "rc_ladder(5)");
    }

    #[test]
    fn reduced_path_matches_naive_on_diode_clipper() {
        // A nonlinear pencil: the clipper's Jacobian at a conducting
        // operating point has state-dependent conductances.
        let mut ckt = crate::circuits::diode_clipper(Waveform::Dc(1.2));
        assert_paths_agree(&mut ckt, "diode_clipper");
    }

    #[test]
    fn short_and_scalar_pencil_sweeps_match_transfer_at() {
        let (mut ckt, f3db) = rc_lowpass();
        let (g, c, b, d) = pencil_at_op(&mut ckt);
        let jw = Complex::from_im(2.0 * core::f64::consts::PI * f3db);
        // A 1-unknown pencil: a current source driving R‖C.
        let mut rc = Circuit::new();
        let n = rc.node("n");
        rc.add(Isource::new("Iin", 0, n, Waveform::Dc(1.0e-3))).unwrap();
        rc.add(Resistor::new("R1", n, 0, 1.0e3)).unwrap();
        rc.add(Capacitor::new("C1", n, 0, 1.0e-9)).unwrap();
        rc.set_input("Iin").unwrap();
        rc.set_output(n, 0);
        let scalar = pencil_at_op(&mut rc);
        assert_eq!(scalar.0.shape(), (1, 1), "R‖C has one unknown");
        let cases = [
            ("1 point", (&g, &c, &b, &d), vec![jw]),
            ("2 points, one off-axis", (&g, &c, &b, &d), vec![jw, Complex::new(-1.0e5, 2.0e5)]),
            (
                "1 unknown",
                (&scalar.0, &scalar.1, &scalar.2, &scalar.3),
                vec![jw, Complex::from_im(1.0e3), Complex::new(-2.0e5, 3.0e5)],
            ),
        ];
        for (what, (g, c, b, d), ss) in cases {
            let swept = transfer_sweep(g, c, b, d, &ss).unwrap();
            assert_eq!(swept.len(), ss.len(), "{what}");
            for (s, h) in ss.iter().zip(&swept) {
                let want = transfer_at(g, c, b, d, *s).unwrap();
                assert!((*h - want).abs() < 1e-12, "{what} at s={s:?}: {h:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn reduced_transfer_off_axis() {
        // Off the jω axis too (the RVF real-axis machinery cares).
        let (mut ckt, _) = rc_lowpass();
        let (g, c, b, d) = pencil_at_op(&mut ckt);
        let rt = ReducedTransfer::new(&g, &c, &b, &d).unwrap();
        let s = Complex::new(-3.0e5, 7.0e5);
        let rc = 1.0e3 * 1.0e-9;
        let want = (Complex::ONE + s.scale(rc)).inv();
        assert!((rt.eval(s).unwrap() - want).abs() < 1e-9 * want.abs());
    }

    #[test]
    fn transfer_at_complex_frequency() {
        // H(s) = 1/(1 + sRC) evaluated off the jω axis.
        let (mut ckt, _) = rc_lowpass();
        let x0 = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let _ = ckt.dim();
        let ev = ckt.eval(&x0, 0.0, 0.0);
        let b = ckt.input_column().unwrap();
        let d = ckt.output_row().unwrap();
        let s = Complex::new(-2.0e5, 3.0e5);
        let h = transfer_at(&ev.g, &ev.c, &b, &d, s).unwrap();
        let rc = 1.0e3 * 1.0e-9;
        let want = (Complex::ONE + s.scale(rc)).inv();
        assert!((h - want).abs() < 1e-9 * want.abs());
    }
}
