//! Fig. 9 of the paper: time-domain response of the models vs SPICE for
//! a spectrally rich 2.5 GS/s bit pattern.
//!
//! Prints a decimated waveform table `(t, input, SPICE, RVF, CAFFEINE)`
//! plus the per-model time-domain RMSE; the paper shows both models
//! tracking the transistor-level response with the RVF model slightly
//! ahead.
//!
//! ```sh
//! cargo run --release -p rvf-bench --bin fig9_bit_pattern
//! ```

use rvf_bench::{
    buffer_circuit, caffeine_options, paper_rvf_options, paper_tft_config, test_pattern,
};
use rvf_caffeine::{build_caffeine_hammerstein, simulate};
use rvf_circuit::{
    dc_operating_point, high_speed_buffer, transient, BufferParams, DcOptions, TranOptions,
};
use rvf_core::{fit_frequency_stage, fit_tft, time_domain_report};
use rvf_tft::extract_from_circuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train both models on the sine TFT data.
    let mut circuit = buffer_circuit();
    let (dataset, _train) = extract_from_circuit(&mut circuit, &paper_tft_config())?;
    let rvf_opts = paper_rvf_options();
    let rvf = fit_tft(&dataset, &rvf_opts)?;
    let s_grid = dataset.s_grid();
    let dynamic = dataset.dynamic_responses();
    let freq_stage = fit_frequency_stage(&s_grid, &dynamic, &rvf_opts)?;
    let caff = build_caffeine_hammerstein(&dataset, &freq_stage.fit.model, &caffeine_options());

    // Reference: transistor-level simulation of the bit pattern.
    let (wave, dt, t_stop) = test_pattern();
    let mut test_ckt = high_speed_buffer(&BufferParams::default(), wave);
    let op = dc_operating_point(&mut test_ckt, &DcOptions::default())?;
    let tran = transient(&mut test_ckt, &op, &TranOptions { dt, t_stop, ..Default::default() })?;

    let y_rvf = rvf.model.simulate(dt, &tran.inputs);
    let y_caff = simulate(&caff, dt, &tran.inputs).expect("integrable preset");

    println!("Fig. 9 — response to a 2.5 GS/s PRBS-7 bit pattern");
    println!("{:>10} {:>8} {:>8} {:>8} {:>8}", "t [s]", "u", "SPICE", "RVF", "CAFF");
    let step = tran.times.len() / 40;
    for i in (0..tran.times.len()).step_by(step.max(1)) {
        println!(
            "{:>10.3e} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            tran.times[i], tran.inputs[i], tran.outputs[i], y_rvf[i], y_caff[i]
        );
    }
    let rep_rvf = time_domain_report(&tran.outputs, &y_rvf);
    let rep_caff = time_domain_report(&tran.outputs, &y_caff);
    println!();
    println!("time-domain RMSE (normalized to output swing):");
    println!("  RVF      : {:.4} (paper: 0.0098)", rep_rvf.nrmse);
    println!("  CAFFEINE : {:.4} (paper: 0.0138)", rep_caff.nrmse);
    println!("max abs error: RVF {:.4} V, CAFFEINE {:.4} V", rep_rvf.max_abs, rep_caff.max_abs);
    Ok(())
}
