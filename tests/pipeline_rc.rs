//! Cross-crate pipeline tests on small circuits: netlist/builders →
//! circuit simulation → TFT → RVF → Hammerstein → validation.

use rvf_circuit::{
    dc_operating_point, diode_clipper, parse_netlist, rc_ladder, transient, DcOptions, TranOptions,
    Waveform,
};
use rvf_core::{extract_model, fit_tft, time_domain_report, RvfOptions};
use rvf_numerics::Complex;
use rvf_tft::{error_surface, extract_from_circuit, TftConfig};

fn small_cfg() -> TftConfig {
    TftConfig {
        f_min_hz: 1.0e3,
        f_max_hz: 1.0e7,
        n_freqs: 40,
        t_train: 1.0e-4,
        steps: 800,
        n_snapshots: 60,
        embed_depth: 1,
        threads: 2,
    }
}

#[test]
fn three_section_rc_ladder_model_matches_ac_response() {
    let train =
        Waveform::Sine { offset: 0.5, amplitude: 0.4, freq_hz: 1.0e4, phase_rad: 0.0, delay: 0.0 };
    let mut ckt = rc_ladder(3, 1.0e3, 1.0e-9, train);
    let opts = RvfOptions { epsilon: 1e-4, ..Default::default() };
    let (report, dataset, _) = extract_model(&mut ckt, &small_cfg(), &opts).unwrap();
    // The model transfer must match the data everywhere on the grid.
    let es = error_surface(&dataset, |x, s| report.model.transfer(x, s));
    assert!(es.rms_complex < 1e-3, "rms {:.3e}", es.rms_complex);
    // A third-order ladder needs at least 3 poles; tolerance should not
    // have demanded more than ~8.
    assert!(
        (3..=10).contains(&report.diagnostics.n_freq_poles),
        "{} freq poles",
        report.diagnostics.n_freq_poles
    );
}

#[test]
fn diode_clipper_model_generalizes_to_unseen_amplitude() {
    let train =
        Waveform::Sine { offset: 0.0, amplitude: 1.2, freq_hz: 1.0e5, phase_rad: 0.0, delay: 0.0 };
    let mut ckt = diode_clipper(train);
    let cfg = TftConfig {
        f_min_hz: 1.0e2,
        f_max_hz: 1.0e8,
        n_freqs: 40,
        t_train: 1.0e-5,
        steps: 1000,
        n_snapshots: 80,
        embed_depth: 1,
        threads: 2,
    };
    let opts = RvfOptions { epsilon: 2e-3, ..Default::default() };
    let (report, ..) = extract_model(&mut ckt, &cfg, &opts).unwrap();

    // Validate on a *smaller* amplitude at a different frequency —
    // inside the trained state range but a different trajectory.
    let test =
        Waveform::Sine { offset: 0.1, amplitude: 0.8, freq_hz: 2.0e5, phase_rad: 0.5, delay: 0.0 };
    let mut test_ckt = diode_clipper(test);
    let op = dc_operating_point(&mut test_ckt, &DcOptions::default()).unwrap();
    let dt = 4.0e-9;
    let tran =
        transient(&mut test_ckt, &op, &TranOptions { dt, t_stop: 1.5e-5, ..Default::default() })
            .unwrap();
    let y_model = report.model.simulate(dt, &tran.inputs);
    let rep = time_domain_report(&tran.outputs, &y_model);
    assert!(rep.nrmse < 0.05, "clipper validation nrmse {}", rep.nrmse);
}

#[test]
fn netlist_text_to_model_pipeline() {
    let netlist = "\
Vin in 0 SINE(0.5 0.45 50k)
R1  in  out 1k
C1  out 0   1n
RL  out 0   10k
.input Vin
.output out
";
    let mut ckt = parse_netlist(netlist).unwrap();
    let (dataset, _) = extract_from_circuit(&mut ckt, &small_cfg()).unwrap();
    let report = fit_tft(&dataset, &RvfOptions { epsilon: 1e-4, ..Default::default() }).unwrap();
    // Analytic: divider DC gain 10/11 with pole at (R||RL)C.
    let dc = report.model.transfer(0.5, Complex::ZERO);
    assert!((dc.re - 10.0 / 11.0).abs() < 5e-3, "dc gain {dc:?}");
    // The static output curve is linear with slope 10/11.
    let d = (report.model.static_output(0.8) - report.model.static_output(0.2)) / 0.6;
    assert!((d - 10.0 / 11.0).abs() < 5e-3, "static slope {d}");
}

#[test]
fn extraction_reports_are_self_consistent() {
    let train =
        Waveform::Sine { offset: 0.5, amplitude: 0.4, freq_hz: 1.0e4, phase_rad: 0.0, delay: 0.0 };
    let mut ckt = rc_ladder(2, 1.0e3, 1.0e-9, train);
    let opts = RvfOptions { epsilon: 1e-4, ..Default::default() };
    let (report, dataset, tran) = extract_model(&mut ckt, &small_cfg(), &opts).unwrap();
    // Diagnostics line up with the block structure, and every block
    // reports the model's one common state-pole count.
    let d = &report.diagnostics;
    assert_eq!(d.state_pole_counts.len(), report.model.blocks.len());
    assert!(d.state_pole_counts.iter().all(|&n| n == d.static_pole_count));
    assert!(d.state_rel_error.is_finite() && d.state_rel_error >= 0.0);
    // Dataset states come from the training inputs.
    let (ulo, uhi) = tran
        .inputs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &u| (lo.min(u), hi.max(u)));
    for s in &dataset.samples {
        assert!(s.state >= ulo - 1e-12 && s.state <= uhi + 1e-12);
    }
    // The model starts at the DC anchor.
    assert!((report.model.static_output(report.model.u0) - report.model.y0).abs() < 1e-9);
}

#[test]
fn bjt_amplifier_extraction_from_netlist() {
    // The extraction is device-agnostic: a bipolar common-emitter
    // amplifier (Ebers-Moll devices) goes through the same flow as the
    // MOSFET buffer.
    let netlist = "\
VCC vcc 0 DC 5
Vin b 0 SINE(0.85 0.08 20k)
RC  vcc c 2.2k
RE  e 0 470
CL  c 0 100p
Q1  c b e NPN IS=1e-15 BF=120
.input Vin
.output c
";
    let mut ckt = parse_netlist(netlist).unwrap();
    let cfg = TftConfig {
        f_min_hz: 1.0e2,
        f_max_hz: 1.0e8,
        n_freqs: 40,
        t_train: 5.0e-5,
        steps: 1000,
        n_snapshots: 80,
        embed_depth: 1,
        threads: 2,
    };
    let (dataset, _) = extract_from_circuit(&mut ckt, &cfg).unwrap();
    let report = fit_tft(&dataset, &RvfOptions { epsilon: 1e-3, ..Default::default() }).unwrap();
    // The amplifier inverts: static slope is negative, magnitude > 1.
    let slope = (report.model.static_output(0.9) - report.model.static_output(0.8)) / 0.1;
    assert!(slope < -1.0, "CE amplifier gain {slope}");
    // Hyperplane fit quality.
    let es = error_surface(&dataset, |x, s| report.model.transfer(x, s));
    let peak = dataset.peak_magnitude();
    assert!(es.rms_complex / peak < 1e-2, "rel rms {}", es.rms_complex / peak);
    // Time-domain validation on a different drive.
    let test = "\
VCC vcc 0 DC 5
Vin b 0 SINE(0.83 0.06 35k 30)
RC  vcc c 2.2k
RE  e 0 470
CL  c 0 100p
Q1  c b e NPN IS=1e-15 BF=120
.input Vin
.output c
";
    let mut test_ckt = parse_netlist(test).unwrap();
    let op = dc_operating_point(&mut test_ckt, &DcOptions::default()).unwrap();
    let dt = 2.0e-8;
    let tran =
        transient(&mut test_ckt, &op, &TranOptions { dt, t_stop: 8.0e-5, ..Default::default() })
            .unwrap();
    let y = report.model.simulate(dt, &tran.inputs);
    let rep = time_domain_report(&tran.outputs, &y);
    assert!(rep.nrmse < 0.05, "bjt amp validation nrmse {}", rep.nrmse);
}
