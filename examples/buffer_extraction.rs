//! The paper's headline experiment (§IV): extract an analytical model
//! of the 27-transistor high-speed output buffer from one period of a
//! low-frequency, high-amplitude sine.
//!
//! ```sh
//! cargo run --release -p rvf-core --example buffer_extraction
//! ```

use rvf_circuit::{high_speed_buffer, transistor_count, BufferParams, Waveform};
use rvf_core::{extract_model, RvfOptions};
use rvf_tft::{error_surface, Hyperplane, TftConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train =
        Waveform::Sine { offset: 0.9, amplitude: 0.5, freq_hz: 1.0e5, phase_rad: 0.0, delay: 0.0 };
    let mut buffer = high_speed_buffer(&BufferParams::default(), train);
    println!(
        "buffer: {} transistors, {} devices total",
        transistor_count(&buffer),
        buffer.n_devices()
    );

    // Paper setup: ~100 TFT samples over one period, frequency grid up
    // to 10 GHz, epsilon = 1e-3.
    let tft_cfg = TftConfig {
        f_min_hz: 1.0e0,
        f_max_hz: 1.0e10,
        n_freqs: 60,
        t_train: 1.0e-5,
        steps: 2000,
        n_snapshots: 100,
        embed_depth: 1,
        threads: 4,
    };
    let opts = RvfOptions { epsilon: 1e-4, max_state_poles: 20, ..Default::default() };
    let (report, dataset, _train) = extract_model(&mut buffer, &tft_cfg, &opts)?;

    println!("--- extraction summary (paper: 12 freq poles, ~10 state poles) ---");
    println!("frequency poles : {}", report.diagnostics.n_freq_poles);
    println!(
        "freq fit error  : {:.3e} (epsilon {:.1e})",
        report.diagnostics.freq_rel_error, opts.epsilon
    );
    println!("state poles     : {} (one common set)", report.diagnostics.static_pole_count);
    println!("state fit error : {:.3e}", report.diagnostics.state_rel_error);
    println!("build time      : {:.2} s (paper: 2 min on 2013 hardware)", report.build_seconds);

    // The Fig. 6 hyperplane and the Fig. 7 model error surface.
    let data_surface = Hyperplane::of_dataset(&dataset);
    let es = error_surface(&dataset, |x, s| report.model.transfer(x, s));
    println!("--- hyperplane (Fig. 6/7 shape checks) ---");
    println!(
        "state range     : [{:.2}, {:.2}] V",
        data_surface.states.first().unwrap(),
        data_surface.states.last().unwrap()
    );
    println!(
        "gain range      : [{:.1}, {:.1}] dB",
        data_surface.gain_db.as_slice().iter().cloned().fold(f64::INFINITY, f64::min),
        data_surface.gain_db.as_slice().iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    );
    println!("max gain error  : {:.1} dB (paper: about -60 dB)", es.max_gain_err_db);
    println!(
        "max phase error : {:.1} deg (paper: <= 150 deg at negligible gain)",
        es.max_phase_err_deg
    );
    println!("TFT RMSE        : {:.1} dB (paper Table I: -62 dB)", es.rms_complex_db);
    Ok(())
}
