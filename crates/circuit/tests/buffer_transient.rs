//! End-to-end transient of the synthetic high-speed buffer — the TFT
//! training workload of the paper (§IV): one period of a low-frequency,
//! high-amplitude sine, with ~100 Jacobian snapshots captured.

use rvf_circuit::{
    dc_operating_point, high_speed_buffer, prbs7, transient, BufferParams, DcOptions, TranOptions,
    Waveform,
};

#[test]
fn one_period_sine_with_snapshots() {
    let sine =
        Waveform::Sine { offset: 0.9, amplitude: 0.5, freq_hz: 50.0e6, phase_rad: 0.0, delay: 0.0 };
    let mut buf = high_speed_buffer(&BufferParams::default(), sine);
    let op = dc_operating_point(&mut buf, &DcOptions::default()).unwrap();
    let period = 1.0 / 50.0e6;
    let steps = 2000usize;
    let opts = TranOptions {
        dt: period / steps as f64,
        t_stop: period,
        snapshot_every: Some(steps / 100),
    };
    let res = transient(&mut buf, &op, &opts).unwrap();
    assert_eq!(res.snapshots.len(), 101, "~100 training snapshots");
    // Input sweeps the full 0.4–1.4 V range.
    let (umin, umax) = res
        .inputs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &u| (lo.min(u), hi.max(u)));
    assert!(umin < 0.45 && umax > 1.35, "input range [{umin}, {umax}]");
    // Output stays within the rails and actually moves.
    let (ymin, ymax) = res
        .outputs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &y| (lo.min(y), hi.max(y)));
    assert!(ymin > -0.1 && ymax < 1.6, "output range [{ymin}, {ymax}]");
    assert!(ymax - ymin > 0.3, "output barely moves: [{ymin}, {ymax}]");
    // Snapshot Jacobians are full-rank (factorizable) and state-dependent:
    // the G matrix at the sine peak differs from the one at the trough.
    let first = &res.snapshots[25]; // near peak
    let mid = &res.snapshots[75]; // near trough
    let diff = (&first.g - &mid.g).norm_max();
    assert!(diff > 1e-6, "Jacobians do not vary along the trajectory");
}

#[test]
fn bit_pattern_drive_converges() {
    // The validation workload: 2.5 GS/s PRBS-7 pattern (paper Fig. 9).
    let bits = prbs7(0x2f, 20);
    let wave =
        Waveform::BitPattern { v0: 0.5, v1: 1.3, bits, rate_hz: 2.5e9, rise: 60e-12, delay: 0.0 };
    let mut buf = high_speed_buffer(&BufferParams::default(), wave);
    let op = dc_operating_point(&mut buf, &DcOptions::default()).unwrap();
    let opts = TranOptions { dt: 2.0e-12, t_stop: 8.0e-9, ..Default::default() };
    let res = transient(&mut buf, &op, &opts).unwrap();
    // The buffer output must track the pattern with swing.
    let (ymin, ymax) = res
        .outputs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &y| (lo.min(y), hi.max(y)));
    assert!(ymax - ymin > 0.2, "no output swing: [{ymin}, {ymax}]");
    assert!(res.newton_iterations > 0);
}

#[test]
fn bit_pattern_is_spectrally_rich_vs_training_sine() {
    // The premise of the paper's Fig. 9 validation: the PRBS pattern
    // excites the whole band while the training sine is a single tone.
    use rvf_numerics::spectral_occupancy;
    let dt = 2.0e-12;
    let n = 4096;
    let (pattern, sine) = {
        let bits = prbs7(0x2f, 64);
        let w = Waveform::BitPattern {
            v0: 0.5,
            v1: 1.3,
            bits,
            rate_hz: 2.5e9,
            rise: 60e-12,
            delay: 0.0,
        };
        let s = Waveform::Sine {
            offset: 0.9,
            amplitude: 0.5,
            freq_hz: 1.0e8, // a tone filling a few periods in the window
            phase_rad: 0.0,
            delay: 0.0,
        };
        let p: Vec<f64> = (0..n).map(|i| w.value(i as f64 * dt) - 0.9).collect();
        let t: Vec<f64> = (0..n).map(|i| s.value(i as f64 * dt) - 0.9).collect();
        (p, t)
    };
    let occ_pattern = spectral_occupancy(&pattern, dt, 0.02);
    let occ_sine = spectral_occupancy(&sine, dt, 0.02);
    assert!(occ_pattern > 3.0 * occ_sine, "pattern occupancy {occ_pattern} vs sine {occ_sine}");
}
