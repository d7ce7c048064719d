//! Quickstart-path smoke test (satellite to the workspace bootstrap):
//! drives the README's extraction flow stage by explicit stage —
//! netlist → DC operating point → transient with Jacobian snapshots →
//! TFT sampling → RVF fit — on the smallest possible vehicle, a
//! single-pole RC divider, and asserts the fit error against a loose
//! bound. Unlike `pipeline_rc.rs` this does not go through the packaged
//! `extract_model` entry point, so a regression in any intermediate API
//! is pinpointed to its stage.

use rvf_circuit::{dc_operating_point, parse_netlist, transient, DcOptions, TranOptions};
use rvf_core::{fit_tft, RvfOptions};
use rvf_numerics::{logspace, Complex};
use rvf_tft::{error_surface, tft_from_snapshots};

#[test]
fn quickstart_stages_on_tiny_rc() {
    // Stage 1: netlist. R = 1k, C = 1n ⇒ pole at 1/(2πRC) ≈ 159 kHz.
    let netlist = "\
Vin in 0 SINE(0.5 0.4 50k)
R1  in  out 1k
C1  out 0   1n
.input Vin
.output out
";
    let mut ckt = parse_netlist(netlist).expect("netlist parses");

    // Stage 2: DC operating point. With the sine at its 0.5 V offset at
    // t = 0 and no DC load, the capacitor sits at the input voltage.
    let op = dc_operating_point(&mut ckt, &DcOptions::default()).expect("dc converges");

    // Stage 3: one training period with snapshot capture.
    let steps = 400usize;
    let t_train = 2.0e-5; // one 50 kHz period
    let tran = transient(
        &mut ckt,
        &op,
        &TranOptions { dt: t_train / steps as f64, t_stop: t_train, snapshot_every: Some(8) },
    )
    .expect("transient runs");
    assert!(tran.snapshots.len() >= 40, "snapshot capture too sparse: {}", tran.snapshots.len());

    // Stage 4: TFT sampling over a log grid spanning the pole.
    let b = ckt.input_column().expect("input set");
    let d = ckt.output_row().expect("output set");
    let freqs = logspace(3.0, 7.0, 30); // 1 kHz … 10 MHz
    let dataset = tft_from_snapshots(&tran.snapshots, &b, &d, &freqs, 1, 2).expect("tft transform");
    assert_eq!(dataset.n_freqs(), 30);
    assert_eq!(dataset.n_states(), tran.snapshots.len());

    // Stage 5: RVF fit, then validate against the sampled hyperplane.
    let report =
        fit_tft(&dataset, &RvfOptions { epsilon: 1.0e-4, ..Default::default() }).expect("rvf fit");
    let es = error_surface(&dataset, |x, s| report.model.transfer(x, s));
    // Loose bound: the linear RC is fit essentially to machine noise,
    // anything under 1e-3 relative to the ~unit-gain surface is sane.
    assert!(es.rms_complex < 1.0e-3, "fit rms {:.3e}", es.rms_complex);

    // Analytic anchors of the RC divider: unity DC gain and the
    // half-power point at the pole frequency.
    let dc = report.model.transfer(0.5, Complex::ZERO);
    assert!((dc.re - 1.0).abs() < 1.0e-3, "dc gain {dc:?}");
    let f_pole = 1.0 / (2.0 * std::f64::consts::PI * 1.0e3 * 1.0e-9);
    let h_pole = report.model.transfer(0.5, Complex::from_im(2.0 * std::f64::consts::PI * f_pole));
    assert!(
        (h_pole.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 5.0e-3,
        "|H| at pole {}",
        h_pole.abs()
    );
}
