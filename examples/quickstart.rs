//! Quickstart: extract an analytical model from a small nonlinear
//! circuit and validate it on a fresh stimulus.
//!
//! ```sh
//! cargo run --release -p rvf-core --example quickstart
//! ```

use rvf_circuit::{dc_operating_point, diode_clipper, transient, DcOptions, TranOptions, Waveform};
use rvf_core::{extract_model, time_domain_report, RvfOptions};
use rvf_tft::TftConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A nonlinear circuit: resistively loaded diode clipper, driven
    //    hard enough to clip.
    let train =
        Waveform::Sine { offset: 0.0, amplitude: 1.2, freq_hz: 1.0e5, phase_rad: 0.0, delay: 0.0 };
    let mut circuit = diode_clipper(train);
    println!("circuit: {} devices", circuit.n_devices());

    // 2. Extract: one training period, 80 snapshots, automatic pole
    //    counts against epsilon.
    let tft_cfg = TftConfig {
        f_min_hz: 1.0e2,
        f_max_hz: 1.0e8,
        n_freqs: 40,
        t_train: 1.0e-5,
        steps: 1000,
        n_snapshots: 80,
        embed_depth: 1,
        threads: 4,
    };
    let opts = RvfOptions { epsilon: 1e-3, ..Default::default() };
    let (report, dataset, _train) = extract_model(&mut circuit, &tft_cfg, &opts)?;
    println!(
        "extracted model: {} frequency poles (rel err {:.2e}), {} common state poles",
        report.diagnostics.n_freq_poles,
        report.diagnostics.freq_rel_error,
        report.diagnostics.static_pole_count,
    );
    println!("TFT dataset: {} states x {} freqs", dataset.n_states(), dataset.n_freqs());
    println!("build time: {:.2} s", report.build_seconds);

    // 3. Validate on a different waveform.
    let test =
        Waveform::Sine { offset: 0.2, amplitude: 0.9, freq_hz: 2.5e5, phase_rad: 1.0, delay: 0.0 };
    let mut test_ckt = diode_clipper(test);
    let op = dc_operating_point(&mut test_ckt, &DcOptions::default())?;
    let dt = 5.0e-9;
    let tran =
        transient(&mut test_ckt, &op, &TranOptions { dt, t_stop: 2.0e-5, ..Default::default() })?;
    let y_model = report.model.simulate(dt, &tran.inputs);
    let rep = time_domain_report(&tran.outputs, &y_model);
    println!(
        "validation: nrmse = {:.4} ({:.1} dB), max abs err = {:.4} V",
        rep.nrmse, rep.nrmse_db, rep.max_abs
    );
    Ok(())
}
